"""Inductive construction of the generator families and the replay verifiers.

The construction builds, level by level, finite sets G_n of the shape
``e_n + m_n * x`` where e_n cycles through a normalized generating family of
the space, the x's are drawn from a supplied kernel sequence far enough to the
right, and the integer multiplier m_n is chosen so large that any small
combination of the stretched vectors forces tiny coefficient mass.  The
resulting budgeted-sum family, intersected with shrinking quasi-norm balls,
is a neighborhood base whose every continuous functional vanishes; the two
replay verifiers (``verify_chain`` and ``final_bound_check``) walk the
inequality ladder that makes the bases compatible, recording each comparison
with its margin.

Everything that can be rational is rational: coefficient mass, l1 norms,
ball radii, budgets.  Only functional values (logarithms) and p-th roots are
floating point, so the ladder's l1 norm steps compare exact rationals and the
functional steps carry an explicit interior margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .quasilinear import (
    QuasiFunctional,
    evaluate,
    functional_from_json,
    functional_to_json,
    missing_weight,
    outside_span,
    space_of,
    value_and_norm,
)
from .seqspace import (
    FinSeq,
    MixedSeq,
    SeqSpace,
    as_fraction,
    block_of,
    disjoint_supports,
    frac_str,
    space_from_json,
)
from .sumsets import (
    SumCertificate,
    SumFamily,
    certificate_problems,
    certificate_value,
    scale_certificate,
)
from .twisted import TwistedVec

F0 = Fraction(0)
F1 = Fraction(1)

STRICT_MARGIN = 1e-9  # interior margin for strict inequalities on float values

# largest depth ``construct`` accepts: the case inputs are built eagerly,
# 2^(depth + 2) kernel vectors and, for case c, as many weights 2^(1-n); by
# tracemalloc, case a's take 5.4 MB at depth 12 and 22 MB at depth 14, case
# c's 24 MB and 302 MB (mostly the weights' denominators)
MAX_DEPTH = 12
# case c's state.json grows 4x per level, since a level-n vector is written
# as a dense block of about 2^n coordinates: depth 10 writes 200 MB in 2.6 s
# at a measured 427 MB peak RSS (2-core Xeon), so depth 11 would need 1.7 GB
MAX_DEPTH_C = 10

# the widest numerator and common denominator a loaded state's vector may
# hold: every stored coordinate then lies between 2^-256 and 2^256, so the
# floats the checks form from the state (quotients, logs, squares) stay normal
VECTOR_BITS = 256


class ConstructionError(RuntimeError):
    """Raised when a level cannot be built or fails its certification."""


# --- level ingredients -------------------------------------------------------


def default_cn(n: int) -> Fraction:
    """Level mass budget 2^-(n+3); the full series sums to 1/8 < 1/4."""
    if n < 1:
        raise ValueError("levels start at 1")
    return Fraction(1, 2 ** (n + 3))


def enumerate_e(d_count: int, length: int) -> list[int]:
    """Cyclic indexing of the d-generators so each occurs infinitely often:
    level i uses generator ((i-1) mod J) + 1."""
    if d_count < 1:
        raise ValueError("need at least one generator")
    return [(i % d_count) + 1 for i in range(length)]


def normalize_generators(F: QuasiFunctional, ds: list) -> list:
    """Scale each generator by a positive rational so that its norm and its
    |F| value are both at most 1 (homogeneity moves F along exactly)."""
    space = space_of(F)
    out = []
    for d in ds:
        if not d:
            raise ValueError("zero generator cannot be normalized")
        nrm = space.norm(d)
        if isinstance(nrm, Fraction):
            inv_norm = 1 / nrm if nrm > 1 else F1
        else:
            inv_norm = Fraction(1, max(1, math.ceil(nrm - 1e-12)))
        f_cap = max(1, math.ceil(abs(evaluate(F, d)) - 1e-12))
        alpha = min(F1, inv_norm, Fraction(1, f_cap))
        out.append(d if alpha == 1 else d * alpha)
    return out


def tail_index(k_generators: list, e_n) -> int:
    """Index past which perturbations cannot shrink norms over the compact
    hull of the generators stretched by the e-direction interval.

    With finitely supported vectors and a monotone coordinate basis this is
    exact: anything to the right of the maximal support is disjoint from the
    set, and disjoint tails can only add norm.  The index depends on the
    supports alone, so neither the e-interval's width nor a slack enters.
    """
    s = e_n.max_support()
    for g in k_generators:
        gs = g.max_support()
        if gs > s:
            s = gs
    return s


def basis_constant(ys: list, space=None) -> Fraction:
    """Rational M with  sum |a_i| <= M || sum a_i y_i ||  for all tuples.

    Disjointly supported l1 vectors give the exact optimum 1/min ||y_i||.
    Past the orthant cap an l1 family gets ||L||, the l1 operator norm of
    its least-squares left inverse L (``oracles._left_inverse_min``): a
    proven constant, since ||a||_1 = ||L V a||_1 <= ||L|| ||V a||_1.
    Anything else takes 1.1 over the cross-polytope minimum, rounded up to
    a multiple of 2^-20.  Dependent input is rejected: no finite M exists.
    The minimum is an exact 0 on exactly the dependent families, as the
    orthant LPs, the left inverse's singular Gram matrix and the mixed
    space's l1 relaxation all find a null vector, so no rank is taken.
    """
    if not ys:
        raise ValueError("empty family")
    space = space or SeqSpace()
    if isinstance(space, SeqSpace) and all(ys) and disjoint_supports(*ys):  # 1 / min ||y||, on numerators over G
        G = math.lcm(*(y.den for y in ys))
        return Fraction(G, min(sum(map(abs, y.nums.values())) * (G // y.den) for y in ys))
    from .oracles import min_crosspolytope_norm

    res = min_crosspolytope_norm(ys, space=space)
    if res.method == "bounded" and isinstance(res.value, Fraction):
        return 1 / res.value
    val = float(res.value)
    if val <= 0:
        raise ValueError("basis constant needs linearly independent vectors")
    scaled = 1.1 / val
    den = 1 << 20
    return Fraction(math.ceil(scaled * den), den)


def choose_m(M, k: int, eta) -> int:
    """Smallest integer strictly above 3 (k+1) M / eta."""
    M = as_fraction(M)
    eta = as_fraction(eta)
    if M <= 0 or eta <= 0:
        raise ValueError("M and eta must be positive")
    return math.floor(Fraction(3) * (k + 1) * M / eta) + 1


# --- the state ---------------------------------------------------------------


@dataclass
class ConstructionState:
    depth: int
    space: object
    functional: dict  # descriptor of the normalized functional the state was built for
    c: dict[int, Fraction]
    d_generators: list
    e_idx: list[int]
    s: dict[int, int] = field(default_factory=dict)
    ell: dict[int, list[int]] = field(default_factory=dict)
    m: dict[int, int] = field(default_factory=dict)
    M: dict[int, Fraction] = field(default_factory=dict)
    G: dict[int, list] = field(default_factory=dict)
    xs: list = field(default_factory=list)
    x_cursor: int = 0
    meta: dict = field(default_factory=dict)

    def e_vector(self, n: int):
        return self.d_generators[self.e_idx[n - 1] - 1]

    def level_x(self, n: int) -> list:
        return [self.xs[i - 1] for i in self.ell[n]]

    def level_z(self, n: int) -> list:
        """The stretched vectors of level n, recovered from the stored
        generators so tampering with G is what gets certified."""
        neg = -self.e_vector(n)
        return [w + neg for w in self.G[n]]


def fn_family(state: ConstructionState) -> SumFamily:
    return SumFamily({n: state.G[n] for n in range(1, state.depth + 1)})


def level_stretched(space, xs_n: list, m_n: int) -> list:
    """The stretched vectors of a level: m_n x for each kernel vector x, then
    m_n (-sum of the x), the one balancing their sum to zero."""
    balance = space.vector.combination((x, -1) for x in xs_n)
    return [x * m_n for x in xs_n + [balance]]


def level_generators(space, e_n, xs_n: list, m_n: int) -> list:
    """The generator set of a level, e_n + z for each stretched vector z of
    ``level_stretched``, which sums to (#G) e_n; the static checks rebuild it
    to compare with the stored G."""
    return [e_n + z for z in level_stretched(space, xs_n, m_n)]


def build_level(
    state: ConstructionState,
    F: QuasiFunctional,
    n: int,
    *,
    m_override: int | None = None,
    verify: bool = True,
) -> None:
    """Append level n: tail index, kernel vectors to the right of it, the
    multiplier, and the generator set e_n + z (size 2^n + 1, the last z
    balancing the sum to zero).  With ``verify`` the mass condition is
    certified by the adversary oracle on the same stretched vectors z, built
    once; ``verify`` recovers them from the stored G instead (``level_z``)."""
    for i in range(1, n):
        if i not in state.G:
            raise ConstructionError("levels must be built in order; %d missing" % i)
    k = 2 ** n
    c_n = state.c[n]
    e_n = state.e_vector(n)
    prior = [w for i in range(1, n) for w in state.G[i]]
    s_n = tail_index(prior, e_n)
    chosen: list[int] = []
    cursor = state.x_cursor
    while len(chosen) < k:
        if cursor >= len(state.xs):
            raise ConstructionError(
                "level %d needs %d kernel vectors to the right of %d; supply exhausted" % (n, k, s_n)
            )
        if state.xs[cursor].is_right_of(s_n):
            chosen.append(cursor + 1)
        cursor += 1
    xs_n = [state.xs[i - 1] for i in chosen]
    M_n = basis_constant(xs_n, state.space)
    m_n = int(m_override) if m_override else choose_m(M_n, k, c_n)
    zs = level_stretched(state.space, xs_n, m_n)
    state.G[n] = [e_n + z for z in zs]
    state.s[n] = s_n
    state.ell[n] = chosen
    state.m[n] = m_n
    state.M[n] = M_n
    state.x_cursor = cursor
    if verify:
        from .oracles import lemma5_adversary

        report = lemma5_adversary(zs, k, c_n, space=state.space)
        if report.best_violation is None or report.best_violation >= 0:
            msg = "level %d mass certification failed: best mass %s against budget %s"
            raise ConstructionError(msg % (n, report.best_value, float(c_n)))


def _normalized(F: QuasiFunctional) -> bool:
    """The premise of the whole ladder: assumed additivity constant 1."""
    return abs(F.assumed_constant - 1.0) <= 1e-9


def run_construction(
    F: QuasiFunctional,
    xs: list,
    ds: list,
    depth: int,
    *,
    split_map=None,
    verify_levels: bool = True,
    m_override: dict[int, int] | None = None,
    meta: dict | None = None,
) -> ConstructionState:
    """Build the full state of the given depth.  F must carry assumed
    additivity constant 1 (normalize first); xs must already be kernel
    vectors of the splitting map (kernel_normalize does that)."""
    if depth < 0:
        raise ValueError("depth is nonnegative")
    if not _normalized(F):
        raise ValueError("normalize the functional first: assumed constant is %r" % F.assumed_constant)
    if split_map is not None:
        for i, x in enumerate(xs):
            try:
                value = split_map(x)
            except ValueError as exc:
                raise ValueError("splitting map is undefined on xs[%d]: %s" % (i, exc)) from exc
            if value != 0:
                raise ValueError("xs[%d] is not in the kernel of the splitting map; run kernel_normalize" % i)
    space = space_of(F)
    state = ConstructionState(
        depth=depth,
        space=space,
        functional=functional_to_json(F),
        c={n: default_cn(n) for n in range(1, depth + 1)},
        d_generators=normalize_generators(F, ds),
        e_idx=enumerate_e(len(ds), depth) if depth else [],
        xs=list(xs),
        G={0: [space.zero()]},
        meta=dict(meta or {}),
    )
    overrides = m_override or {}
    for n in range(1, depth + 1):
        build_level(state, F, n, m_override=overrides.get(n), verify=verify_levels)
    return state


def make_case_a_inputs(depth: int, generators: int = 3):
    """Desk-scale inputs for the sparse l1 case: consecutive disjoint
    mean-zero pairs (unit l1 norm) and the first few unit vectors."""
    supply = 2 ** (depth + 2)
    xs = [FinSeq._raw({2 * i - 1: 1, 2 * i: -1}, 2) for i in range(1, supply + 1)]
    ds = [FinSeq.unit(j) for j in range(1, generators + 1)]
    return xs, ds


def make_case_c_inputs(depth: int, generators: int = 3):
    """Inputs for the mixed-space case: one unit vector per block (on which
    the weighted functional vanishes, so the zero map splits exactly) and the
    first few block-layout unit vectors."""
    supply = 2 ** (depth + 2)
    xs = [MixedSeq.unit(n, 1) for n in range(1, supply + 1)]
    ds = [MixedSeq.unit(*block_of(j)) for j in range(1, generators + 1)]
    weights = {n: Fraction(1, 2 ** (n - 1)) for n in range(1, supply + 1)}
    return xs, ds, weights


# --- transcripts ---------------------------------------------------------------


@dataclass
class ChainStep:
    name: str
    level: int | None
    lhs: float
    rhs: float
    passed: bool
    exact: bool
    tolerance_band: bool
    margin: float
    note: str = ""

    def to_json(self):
        """``asdict(self)`` without its deep copy: the fields, in order."""
        return dict(vars(self))


def _float(v) -> float:
    """float(v), an integer ratio pair's included."""
    return v[0] / v[1] if type(v) is tuple else float(v)


def _step(name, level, lhs, rhs, *, strict=True, note="") -> ChainStep:
    """Record a comparison of lhs with rhs (each an int, Fraction, float or
    integer ratio pair (n, d), d > 0), made on cross-multiplied integer
    ratios: exact, as Python's mixed int/Fraction/float comparisons are,
    without their Fraction arithmetic.  A strict pass within the interior
    margin below the float rhs is flagged as a tolerance band rather than a
    clean pass.  Any terms of a rational give the same step: a d < c b with
    b, d > 0 compares the rationals alone, and int true division rounds
    correctly, so the recorded n / d is the float of n/d in lowest terms."""
    exact = not isinstance(lhs, float) and not isinstance(rhs, float)
    try:
        a, b = lhs if type(lhs) is tuple else lhs.as_integer_ratio()
        c, d = rhs if type(rhs) is tuple else rhs.as_integer_ratio()
        lhs_f, rhs_f = a / b, c / d
        e, f = (rhs_f - STRICT_MARGIN).as_integer_ratio()
    except (OverflowError, ValueError):  # an infinite or NaN side compares as its float
        lhs_f, rhs_f = _float(lhs), _float(rhs)
        (a, b), (c, d), (e, f) = (lhs_f, 1), (rhs_f, 1), (rhs_f - STRICT_MARGIN, 1)
    passed = (a * d < c * b) if strict else (a * d <= c * b)
    band = passed and strict and not a * f < e * b
    return ChainStep(name, level, lhs_f, rhs_f, passed, exact, band, rhs_f - lhs_f, note)


@dataclass
class ChainTranscript:
    steps: list[ChainStep]
    top_level: int
    value_norm: str
    f_value: float
    passed: bool
    min_margin: float

    def failures(self) -> list[ChainStep]:
        return [s for s in self.steps if not s.passed]

    def to_json(self):
        return {**vars(self), "steps": [s.to_json() for s in self.steps]}


def _summed_l1(space, base: dict, base_l1: dict, shift: dict, shift_l1: dict | None = None) -> dict:
    """The ``space.block_l1`` numerators of base + shift, numerators by
    position over one denominator, from base's and shift's (counted here if
    not given): only the blocks of the positions both hold are recounted."""
    out = dict(base_l1)
    for b, a in (space.block_l1(shift) if shift_l1 is None else shift_l1).items():
        out[b] = out.get(b, 0) + a
    both = base.keys() & shift.keys()
    if both:
        was, moved = space.block_l1({p: base[p] for p in both}), space.block_l1({p: shift[p] for p in both})
        for b, a in space.block_l1({p: base[p] + shift[p] for p in both}).items():
            out[b] += a - was[b] - moved[b]
    return out


def verify_chain(state: ConstructionState, F: QuasiFunctional, cert: SumCertificate) -> ChainTranscript:
    """Replay the descending-induction ladder on a level-1 certificate whose
    value has norm below 1, down to the final |F(x)| < 9 check.

    Per level, from the top down: the head (everything below the level plus
    the level's e-part) stays within the running bound plus the level budget;
    the stretched part stays under twice the bound plus the budget, hence
    under 3; the level's coefficient mass stays under the budget; and the
    prefix bound grows by twice the budget.  Afterwards the e-parts and the
    stretched parts are bounded separately and recombined through the
    additivity ladder.

    Every comparison is exact (see ``_step``).  An l1 norm is an exact
    rational; a mixed-space norm is the float l_p value, compared exactly as
    that float, so its steps read ``exact: false``.  The norms come from
    per-block l1 numerators (``space.block_l1``) over one denominator D, the
    certificate's times the lcm of the used generators' and e-vectors',
    recounted only where summed parts share a position (``_summed_l1``).
    ``space.gauge`` turns them into the ratio (numerator, D) of an l1 norm,
    or the l_p float, which reads a block as a / D, correctly rounded
    whatever D is, and sums with the order-free ``math.fsum``.  The bounds
    are numerators over the lcm C of the budgets' denominators.  The
    evaluated vectors are numerators over D, read as n / D too (see
    ``_ribe_terms``), so no bit moves; the one Fraction is ``value_norm``.
    """
    fam = fn_family(state)
    problems = certificate_problems(fam, cert, 1)
    if problems:
        raise ValueError("certificate invalid at level 1: %s" % problems[0])
    space = state.space
    merged: dict[int, dict[int, int]] = {}
    for i, j, n in cert.terms:
        lv = merged.setdefault(i, {})
        lv[j] = lv.get(j, 0) + n
    merged = {i: {j: n for j, n in d.items() if n} for i, d in merged.items()}
    top = max((i for i, d in merged.items() if d), default=0)

    # one bottom-up pass over numerators by position over D: per level the
    # prefix's norm, the head's and the stretched part's, the level's
    # coefficient mass, generators used and e-part; the prefix after the top
    # level is the certificate's value
    den, G = cert.den, state.G
    es = [state.e_vector(i) for i in range(1, top + 1)]
    lcm = math.lcm(*(G[i][j].den for i, d in merged.items() for j in d), *(e.den for e in es))
    D = den * lcm
    prefix: dict[int, int] = {}
    prefix_l1 = space.block_l1(prefix)
    rows = []
    for i, e in enumerate(es, 1):
        nums = merged.get(i, {})
        vec: dict[int, int] = {}
        get = vec.get
        for j, n in nums.items():
            g = G[i][j]
            f = n * (lcm // g.den)
            for p, a in g.nums.items():
                vec[p] = get(p, 0) + f * a
        f = sum(nums.values()) * (lcm // e.den)
        e_part = {p: f * a for p, a in e.nums.items()} if f else {}
        vec_l1 = space.block_l1(vec)
        prefix_norm = space.gauge(prefix_l1.values(), D)
        head_norm = space.gauge(_summed_l1(space, prefix, prefix_l1, e_part).values(), D)
        tail_norm = space.gauge(_summed_l1(space, vec, vec_l1, {p: -a for p, a in e_part.items()}).values(), D)
        rows.append((prefix_norm, head_norm, tail_norm, (sum(map(abs, nums.values())), den), len(nums), e_part))
        prefix_l1 = _summed_l1(space, prefix, prefix_l1, vec, vec_l1)
        sums = {p: prefix[p] + vec[p] for p in prefix.keys() & vec.keys()}
        prefix.update(vec)
        prefix.update(sums)
    nx = space.gauge(prefix_l1.values(), D)
    value_norm = Fraction(*nx) if type(nx) is tuple else nx
    if not value_norm < 1:
        raise ValueError("chain replay needs value norm < 1, got %s" % value_norm)

    C = math.lcm(*(state.c[i].denominator for i in range(1, top + 1)))
    cs = [state.c[i].numerator * (C // state.c[i].denominator) for i in range(1, top + 1)]
    steps: list[ChainStep] = []
    bound = C
    for lv in range(top, 0, -1):
        prefix_norm, head_norm, tail_norm, mass, used, _ = rows[lv - 1]
        c_l = cs[lv - 1]
        steps.append(_step("head_norm", lv, head_norm, (bound + c_l, C)))
        steps.append(_step("stretched_norm", lv, tail_norm, (2 * bound + c_l, C)))
        steps.append(_step("stretched_cap", lv, tail_norm, 3))
        steps.append(_step("level_mass", lv, mass, (c_l, C), note="%d of %d generators used" % (used, 2 ** lv + 1)))
        bound += 2 * c_l
        steps.append(_step("prefix_norm", lv, prefix_norm, (bound, C)))

    units = []  # (level, norm, |F|) of each used level's e-part
    unit_total: dict[int, int] = {}
    for i, (_, _, _, _, used, e_part) in enumerate(rows, 1):
        if not used:
            continue
        u_norm = _step("unit_norm", i, space.gauge(space.block_l1(e_part).values(), D), (cs[i - 1], C))
        u_f = abs(evaluate(F, space.vector._raw(e_part, D)))
        units.append((i, u_norm.lhs, u_f))
        steps += [u_norm, _step("unit_f", i, u_f, (1, 2 ** i))]
        for p, a in e_part.items():
            unit_total[p] = unit_total.get(p, 0) + a

    x = {p: a for p, a in prefix.items() if a}
    span = dict(x)  # x - unit_total
    for p, a in unit_total.items():
        span[p] = prefix.get(p, 0) - a
        if not span[p]:
            del span[p]
    span_norm = space.gauge(_summed_l1(space, prefix, prefix_l1, {p: -a for p, a in unit_total.items()}).values(), D)
    steps.append(_step("span_norm_tight", None, span_norm, (C + sum(cs), C)))
    steps.append(_step("span_norm", None, span_norm, 2))
    f_span = abs(evaluate(F, space.vector._raw(span, D)))
    steps.append(_step("span_f", None, f_span, 2.0, note="kernel span: splitting map vanishes there"))

    f_unit = abs(evaluate(F, space.vector._raw({p: a for p, a in unit_total.items() if a}, D)))
    ladder = math.fsum(f for _, _, f in units) + math.fsum(i * n for i, n, _ in units)
    steps.append(
        _step("unit_f_ladder", None, f_unit, ladder + STRICT_MARGIN, note="additivity ladder bound", strict=False)
    )
    geom = 1 + math.fsum(i * 2.0 ** (-i) for i in range(1, top + 1))
    steps.append(_step("unit_f_total", None, f_unit, 4.0, note="ladder evaluates below %g" % geom))

    f_value = evaluate(F, space.vector._raw(x, D))
    unit_norm = space.gauge(space.block_l1(unit_total).values(), D)
    split_rhs = f_unit + f_span + _float(unit_norm) + _float(span_norm)
    steps.append(_step("f_split", None, abs(f_value), split_rhs + STRICT_MARGIN, strict=False, note="one additivity application"))
    steps.append(_step("f_total", None, abs(f_value), 9.0))
    return ChainTranscript(
        steps=steps,
        top_level=top,
        value_norm=str(value_norm),
        f_value=f_value,
        passed=all(s.passed for s in steps),
        min_margin=min((s.margin for s in steps), default=float("inf")),
    )


@dataclass
class BoundReport:
    premises: list[ChainStep]
    checks: list[ChainStep]
    chain: ChainTranscript | None
    premises_ok: bool
    passed: bool


def final_bound_check(
    state: ConstructionState,
    F: QuasiFunctional,
    u: TwistedVec,
    z_cert: SumCertificate,
) -> BoundReport:
    """Bound the quasi-norm of a vector given as (ball element) + (0, certified
    sum) with sequence part of norm at most 1: the certified part has norm at
    most 2, its functional value stays under 18 (by replaying the ladder on
    its half), the twisted gap stays under 22 and the quasi-norm under 23.
    Violated premises are reported, not raised.  Each vector is evaluated
    once: a quasi-norm takes both terms from one ``value_and_norm``, as
    ``quasi_norm`` does, and a premise the state's space norm."""
    space = state.space
    fam = fn_family(state)
    premises: list[ChainStep] = []
    checks: list[ChainStep] = []

    problems = certificate_problems(fam, z_cert, 1)
    premises.append(
        _step("z_certified", None, 0 if not problems else 1, 1, note=problems[0] if problems else "level-1 certificate")
    )
    z = certificate_value(fam, z_cert) if not problems else space.zero()
    x = u.x + z
    f_u, a, d = value_and_norm(F, u.x)
    premises.append(_step("u_in_unit_ball", None, abs(float(u.r) - f_u) + a / d, 1.0 + STRICT_MARGIN, strict=False))
    premises.append(_step("x_norm", None, space.norm(x), 1, strict=False))
    nz = space.norm(z)
    half = _step("half_z_in_chain_range", None, nz, 2, note="needed to replay the ladder on z/2")
    premises.append(half)
    premises_ok = all(p.passed for p in premises)

    checks.append(_step("z_norm", None, nz, 2, strict=False))
    chain = None
    if premises_ok and half.passed:
        chain = verify_chain(state, F, scale_certificate(z_cert, Fraction(1, 2)))
        checks.append(
            _step("half_chain", None, 0 if chain.passed else 1, 1, note="ladder on z/2: min margin %g" % chain.min_margin)
        )
    checks.append(_step("f_z", None, abs(evaluate(F, z)), 18.0))
    f_x, a, d = value_and_norm(F, x)
    gap = abs(float(u.r) - f_x)
    checks.append(_step("twisted_gap", None, gap, 22.0))
    checks.append(_step("twisted_norm", None, gap + a / d, 23.0))
    return BoundReport(
        premises=premises,
        checks=checks,
        chain=chain,
        premises_ok=premises_ok,
        passed=premises_ok and all(c.passed for c in checks) and (chain is None or chain.passed),
    )


# --- static sanity battery and serialization -------------------------------------


def state_shape_problem(state: ConstructionState, F: QuasiFunctional) -> str | None:
    """The first stored index that points outside the state's own tables (a
    depth below 1, a level missing from a per-level table, an ``e_idx`` or
    ``ell`` entry out of range, a generator's block without a weight in F, a
    generator outside the span of F's basis), or None.  Every other check
    assumes there is none."""
    if state.depth < 1:
        return "depth %d is below 1" % state.depth
    if len(state.e_idx) < state.depth:
        return "e_idx has %d entries for depth %d" % (len(state.e_idx), state.depth)
    tables = {"c": state.c, "s": state.s, "ell": state.ell, "m": state.m, "G": state.G}
    for n in range(1, state.depth + 1):
        missing = [name for name, table in tables.items() if n not in table]
        if missing:
            return "level %d missing from %s" % (n, ", ".join(missing))
        if not 1 <= state.e_idx[n - 1] <= len(state.d_generators):
            return "e_idx[%d] = %d is not a generator number" % (n - 1, state.e_idx[n - 1])
        if not all(1 <= i <= len(state.xs) for i in state.ell[n]):
            return "ell[%d] points past the %d kernel vectors" % (n, len(state.xs))
    gens = [*state.d_generators, *(g for level in state.G.values() for g in level)]
    block = missing_weight(F, gens)
    if block:
        return "the functional has no weight for block %d of a generator" % block
    if outside_span(F, gens):
        return "the functional is not defined on a generator outside the span of its basis"
    return None


def static_state_checks(state: ConstructionState, F: QuasiFunctional) -> list[ChainStep]:
    """Exact recheck of every stored level invariant (no randomness): the
    normalized functional, budget rule, generator shapes, the stored basis
    constants M_n, tail indices, enumeration monotonicity, generator
    normalization, and the uniform hull identity.  The state must pass
    ``state_shape_problem`` first."""
    checks: list[ChainStep] = []
    space = state.space
    checks.append(_step("functional_normalized", None, 0 if _normalized(F) else 1, F1))
    total_c = sum(state.c.values(), F0)
    checks.append(_step("c_series", None, total_c, Fraction(1, 4)))
    for n in range(1, state.depth + 1):
        c_n = state.c[n]
        ok_rule = 0 < c_n <= Fraction(1, 2 ** (n + 3))
        checks.append(_step("c_rule", n, 0 if ok_rule else 1, F1))
        gens = state.G[n]
        size_ok = len(gens) == 2 ** n + 1
        checks.append(_step("g_size", n, 0 if size_ok else 1, F1))
        e_n = state.e_vector(n)
        xs_n = state.level_x(n)
        # a wrong count fails g_size above; the shape is only compared
        # once the counts match
        shape_ok = size_ok and len(xs_n) == 2 ** n and gens == level_generators(space, e_n, xs_n, state.m[n])
        checks.append(_step("g_shape", n, 0 if shape_ok else 1, F1))
        try:
            m_table_ok = state.M.get(n) == basis_constant(xs_n, space)
        except ValueError:  # a dependent or empty family has no basis constant
            m_table_ok = False
        checks.append(_step("M_table", n, 0 if m_table_ok else 1, F1))
        prior = [w for i in range(1, n) for w in state.G[i]]
        checks.append(_step("tail_index", n, 0 if state.s[n] == tail_index(prior, e_n) else 1, F1))
        mono = all(a < b for a, b in zip(state.ell[n], state.ell[n][1:]))
        right = all(x.is_right_of(state.s[n]) for x in xs_n)
        checks.append(_step("enumeration", n, 0 if (mono and right) else 1, F1))
        combo = space.vector.combination([(g, 1) for g in gens], len(gens) or 1)  # an empty G[n] fails g_size
        checks.append(_step("e_hull", n, 0 if combo == e_n else 1, F1))
    for j, d in enumerate(state.d_generators):
        nd = space.norm(d)
        checks.append(_step("d_norm", j + 1, nd, F1, strict=False))
        checks.append(_step("d_f_value", j + 1, abs(evaluate(F, d)), 1.0 + STRICT_MARGIN, strict=False))
    return checks


def state_to_json(state: ConstructionState) -> dict:
    """The state as a JSON tree, except that the vectors of ``d_generators``,
    ``G`` and ``xs`` stay ``FinSeq``/``MixedSeq`` objects: the CLI writer
    formats them from their numerators, and ``json.dumps`` takes them with
    ``default=lambda v: v.to_json()``."""
    return {
        "depth": state.depth,
        "space": state.space.to_json(),
        "functional": state.functional,
        "c": {str(n): frac_str(v) for n, v in sorted(state.c.items())},
        "d_generators": list(state.d_generators),
        "e_idx": state.e_idx,
        "s": {str(n): v for n, v in sorted(state.s.items())},
        "ell": {str(n): v for n, v in sorted(state.ell.items())},
        "m": {str(n): v for n, v in sorted(state.m.items())},
        "M": {str(n): frac_str(v) for n, v in sorted(state.M.items())},
        "G": {str(n): list(gens) for n, gens in sorted(state.G.items())},
        "xs": list(state.xs),
        "x_cursor": state.x_cursor,
        "meta": state.meta,
    }


def state_from_json(obj: dict) -> ConstructionState:
    """Parse a state; its vectors load through its space, so the zero vector
    ``{}`` (G[0], for one) gets the space's vector type."""
    if type(obj["depth"]) is not int:
        raise ValueError("depth must be an integer, got %r" % (obj["depth"],))
    # the integer tables hold JSON ints: int() would take 1.9, true or "7"
    ell = [i for v in obj["ell"].values() for i in v]
    for key, values in (("e_idx", obj["e_idx"]), ("s", obj["s"].values()), ("m", obj["m"].values()), ("ell", ell)):
        bad = [v for v in values if type(v) is not int]
        if bad:  # a null is bad too
            raise ValueError("%s must hold integers, got %r" % (key, bad[0]))
    space = space_from_json(obj["space"])

    def vec(v):
        v = space.vector(v)
        if max(v.den, max(map(abs, v.nums.values()), default=0)).bit_length() > VECTOR_BITS:
            raise ValueError("a vector holds a coordinate wider than %d bits" % VECTOR_BITS)
        return v

    return ConstructionState(
        depth=obj["depth"],
        space=space,
        functional=obj["functional"],
        c={int(n): Fraction(v) for n, v in obj["c"].items()},
        d_generators=[vec(d) for d in obj["d_generators"]],
        e_idx=list(obj["e_idx"]),
        s={int(n): v for n, v in obj["s"].items()},
        ell={int(n): list(v) for n, v in obj["ell"].items()},
        m={int(n): v for n, v in obj["m"].items()},
        M={int(n): Fraction(v) for n, v in obj["M"].items()},
        G={int(n): [vec(g) for g in gens] for n, gens in obj["G"].items()},
        xs=[vec(x) for x in obj["xs"]],
        x_cursor=obj.get("x_cursor", 0),
        meta=obj.get("meta", {}),
    )


def functional_of_state(state: ConstructionState) -> QuasiFunctional:
    return functional_from_json(state.functional)


def levels_csv_rows(state: ConstructionState) -> list[tuple]:
    rows = [("level", "c_n", "s_n", "m_n", "M_n", "G_size")]
    for n in range(1, state.depth + 1):
        rows.append((n, frac_str(state.c[n]), state.s[n], state.m[n], frac_str(state.M[n]), len(state.G[n])))
    return rows
