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
floating point, so the ladder's norm steps are exact comparisons and the
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
    rank,
    space_of,
)
from .seqspace import (
    FinSeq,
    MixedSeq,
    MixedSpace,
    SeqSpace,
    as_fraction,
    disjoint_supports,
    space_from_json,
)
from .sumsets import (
    SumCertificate,
    SumFamily,
    certificate_problems,
    certificate_value,
    scale_certificate,
)
from .twisted import TwistedVec, ball_radius, quasi_norm

F0 = Fraction(0)
F1 = Fraction(1)

STRICT_MARGIN = 1e-9  # interior margin for strict inequalities on float values


class ConstructionError(RuntimeError):
    """Raised when a level cannot be built or fails its certification."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class CertificateError(ValueError):
    pass


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

    Disjointly supported l1 vectors give the exact optimum 1/min ||y_i||;
    anything else takes the cross-polytope minimizer's value rounded up with
    a 10% safety margin.  Dependent input is rejected: no finite M exists.
    """
    if not ys:
        raise ValueError("empty family")
    if rank(ys) != len(ys):
        raise ValueError("basis constant needs linearly independent vectors")
    space = space or SeqSpace()
    if isinstance(space, SeqSpace):
        if all(disjoint_supports(a, b) for i, a in enumerate(ys) for b in ys[i + 1 :]):
            return 1 / min(y.norm() for y in ys)
    from .oracles import min_crosspolytope_norm

    res = min_crosspolytope_norm(ys, space=space)
    val = float(res.value)
    if val <= 0:
        raise ValueError("cross-polytope minimum vanished on independent input")
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
        e_n = self.e_vector(n)
        return [w - e_n for w in self.G[n]]


def fn_family(state: ConstructionState) -> SumFamily:
    return SumFamily({n: state.G[n] for n in range(1, state.depth + 1)})


def build_level(
    state: ConstructionState,
    F: QuasiFunctional,
    n: int,
    *,
    m_override: int | None = None,
    verify: bool = True,
) -> None:
    """Append level n: tail index, kernel vectors to the right of it, the
    multiplier, and the generator set (size 2^n + 1, last entry balancing
    the sum to zero).  With ``verify`` the mass condition is certified by the
    adversary oracle and a failure aborts the build."""
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
    balance = state.space.zero()
    for x in xs_n:
        balance = balance + x
    tail = xs_n + [-balance]
    state.G[n] = [e_n + x * m_n for x in tail]
    state.s[n] = s_n
    state.ell[n] = chosen
    state.m[n] = m_n
    state.M[n] = M_n
    state.x_cursor = cursor
    if verify:
        from .oracles import lemma5_adversary

        report = lemma5_adversary(state.level_z(n), k, c_n, space=state.space)
        if report.best_violation is None or report.best_violation >= 0:
            raise ConstructionError(
                "level %d mass certification failed: best mass %s against budget %s"
                % (n, report.best_value, float(c_n)),
                report=report,
            )


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
    if abs(F.assumed_constant - 1.0) > 1e-9:
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
    xs = [(FinSeq.unit(2 * i - 1) - FinSeq.unit(2 * i)) / 2 for i in range(1, supply + 1)]
    ds = [FinSeq.unit(j) for j in range(1, generators + 1)]
    return xs, ds


def make_case_c_inputs(depth: int, generators: int = 3, p=2):
    """Inputs for the mixed-space case: one unit vector per block (on which
    the weighted functional vanishes, so the zero map splits exactly) and the
    first few block-layout unit vectors."""
    space = MixedSpace(p)
    supply = 2 ** (depth + 2)
    xs = [MixedSeq.unit(n, 1) for n in range(1, supply + 1)]
    ds = [space.unit_source(j) for j in range(1, generators + 1)]
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
    note: str = ""

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    def to_json(self):
        return {
            "name": self.name,
            "level": self.level,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "passed": self.passed,
            "exact": self.exact,
            "tolerance_band": self.tolerance_band,
            "note": self.note,
        }

    @classmethod
    def from_json(cls, obj):
        return cls(
            name=obj["name"],
            level=obj["level"],
            lhs=obj["lhs"],
            rhs=obj["rhs"],
            passed=obj["passed"],
            exact=obj["exact"],
            tolerance_band=obj["tolerance_band"],
            note=obj.get("note", ""),
        )


def _step(name, level, lhs, rhs, *, strict=True, note="") -> ChainStep:
    """Record a comparison.  Rational lhs/rhs compare exactly; anything float
    compares as given, and a strict pass inside the interior margin is flagged
    as a tolerance band rather than a clean pass."""
    exact = isinstance(lhs, (Fraction, int)) and isinstance(rhs, (Fraction, int))
    passed = (lhs < rhs) if strict else (lhs <= rhs)
    band = bool(passed and strict and not (lhs < rhs - STRICT_MARGIN))
    return ChainStep(name, level, float(lhs), float(rhs), bool(passed), exact, band, note)


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
        return {
            "steps": [s.to_json() for s in self.steps],
            "top_level": self.top_level,
            "value_norm": self.value_norm,
            "f_value": self.f_value,
            "passed": self.passed,
            "min_margin": self.min_margin,
        }

    @classmethod
    def from_json(cls, obj):
        return cls(
            steps=[ChainStep.from_json(s) for s in obj["steps"]],
            top_level=obj["top_level"],
            value_norm=obj["value_norm"],
            f_value=obj["f_value"],
            passed=obj["passed"],
            min_margin=obj["min_margin"],
        )


def _finish(steps, top, norm_repr, f_value) -> ChainTranscript:
    return ChainTranscript(
        steps=steps,
        top_level=top,
        value_norm=str(norm_repr),
        f_value=f_value,
        passed=all(s.passed for s in steps),
        min_margin=min((s.margin for s in steps), default=float("inf")),
    )


def verify_chain(state: ConstructionState, F: QuasiFunctional, cert: SumCertificate) -> ChainTranscript:
    """Replay the descending-induction ladder on a level-1 certificate whose
    value has norm below 1, down to the final |F(x)| < 9 check.

    Per level, from the top down: the head (everything below the level plus
    the level's e-part) stays within the running bound plus the level budget;
    the stretched part stays under twice the bound plus the budget, hence
    under 3; the level's coefficient mass stays under the budget; and the
    prefix bound grows by twice the budget.  Afterwards the e-parts and the
    stretched parts are bounded separately and recombined through the
    additivity ladder.  Norm steps are exact rational comparisons.
    """
    fam = fn_family(state)
    problems = certificate_problems(fam, cert, 1)
    if problems:
        raise CertificateError("certificate invalid at level 1: %s" % problems[0])
    space = state.space
    x = certificate_value(fam, cert)
    nx = space.norm(x)
    if not nx < 1:
        raise ValueError("chain replay needs value norm < 1, got %s" % nx)

    merged: dict[int, dict[int, Fraction]] = {}
    for t in cert.terms:
        lv = merged.setdefault(t.block, {})
        lv[t.gen] = lv.get(t.gen, F0) + t.coeff
    merged = {i: {j: r for j, r in d.items() if r} for i, d in merged.items()}
    merged = {i: d for i, d in merged.items() if d}
    levels = sorted(merged)
    top = levels[-1] if levels else 0

    zero = space.zero()
    level_vec: dict[int, object] = {}
    rsum: dict[int, Fraction] = {}
    mass: dict[int, Fraction] = {}
    for i in levels:
        acc = zero
        for j, r in merged[i].items():
            acc = acc + state.G[i][j] * r
        level_vec[i] = acc
        rsum[i] = sum(merged[i].values(), F0)
        mass[i] = sum((abs(r) for r in merged[i].values()), F0)

    steps: list[ChainStep] = []
    bound = F1
    prefix: dict[int, object] = {}
    running = zero
    for i in range(1, top + 1):
        prefix[i] = running
        if i in level_vec:
            running = running + level_vec[i]

    for lv in range(top, 0, -1):
        c_l = state.c[lv]
        e_l = state.e_vector(lv)
        r_l = rsum.get(lv, F0)
        head = prefix[lv] + e_l * r_l
        tail = level_vec.get(lv, zero) - e_l * r_l
        used = len(merged.get(lv, ()))
        steps.append(_step("head_norm", lv, space.norm(head), bound + c_l))
        steps.append(_step("stretched_norm", lv, space.norm(tail), 2 * bound + c_l))
        steps.append(_step("stretched_cap", lv, space.norm(tail), Fraction(3)))
        steps.append(
            _step("level_mass", lv, mass.get(lv, F0), c_l, note="%d of %d generators used" % (used, 2 ** lv + 1))
        )
        steps.append(_step("prefix_norm", lv, space.norm(prefix[lv]), bound + 2 * c_l))
        bound = bound + 2 * c_l

    unit_parts: dict[int, object] = {}
    for i in levels:
        u_i = state.e_vector(i) * rsum[i]
        unit_parts[i] = u_i
        steps.append(_step("unit_norm", i, space.norm(u_i), state.c[i]))
        steps.append(_step("unit_f", i, abs(evaluate(F, u_i)), Fraction(1, 2 ** i)))

    unit_total = zero
    for i in levels:
        unit_total = unit_total + unit_parts[i]
    span_part = x - unit_total
    c_partial = sum((state.c[i] for i in range(1, top + 1)), F0)
    steps.append(_step("span_norm_tight", None, space.norm(span_part), 1 + c_partial))
    steps.append(_step("span_norm", None, space.norm(span_part), Fraction(2)))
    f_span = abs(evaluate(F, span_part))
    steps.append(_step("span_f", None, f_span, 2.0, note="kernel span: splitting map vanishes there"))

    f_unit = abs(evaluate(F, unit_total))
    ladder = math.fsum(abs(evaluate(F, unit_parts[i])) for i in levels) + math.fsum(
        i * float(space.norm(unit_parts[i])) for i in levels
    )
    steps.append(
        _step("unit_f_ladder", None, f_unit, ladder + STRICT_MARGIN, note="additivity ladder bound", strict=False)
    )
    geom = 1 + math.fsum(i * 2.0 ** (-i) for i in range(1, top + 1))
    steps.append(_step("unit_f_total", None, f_unit, 4.0, note="ladder evaluates below %g" % geom))

    f_value = evaluate(F, x)
    split_rhs = f_unit + f_span + float(space.norm(unit_total)) + float(space.norm(span_part))
    steps.append(_step("f_split", None, abs(f_value), split_rhs + STRICT_MARGIN, strict=False, note="one additivity application"))
    steps.append(_step("f_total", None, abs(f_value), 9.0))
    return _finish(steps, top, nx, f_value)


@dataclass
class BoundReport:
    premises: list[ChainStep]
    checks: list[ChainStep]
    chain: ChainTranscript | None
    premises_ok: bool
    passed: bool

    def to_json(self):
        return {
            "premises": [s.to_json() for s in self.premises],
            "checks": [s.to_json() for s in self.checks],
            "chain": self.chain.to_json() if self.chain else None,
            "premises_ok": self.premises_ok,
            "passed": self.passed,
        }


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
    Violated premises are reported, not raised."""
    space = state.space
    fam = fn_family(state)
    premises: list[ChainStep] = []
    checks: list[ChainStep] = []

    problems = certificate_problems(fam, z_cert, 1)
    premises.append(
        _step("z_certified", None, 0 if not problems else 1, Fraction(1), note=problems[0] if problems else "level-1 certificate")
    )
    z = certificate_value(fam, z_cert) if not problems else space.zero()
    w = TwistedVec(u.r, u.x + z)
    premises.append(_step("u_in_unit_ball", None, quasi_norm(F, u), 1.0 + STRICT_MARGIN, strict=False))
    premises.append(_step("x_norm", None, space.norm(w.x), F1, strict=False))
    nz = space.norm(z)
    half_ok = nz < 2
    premises.append(_step("half_z_in_chain_range", None, nz, Fraction(2), note="needed to replay the ladder on z/2"))
    premises_ok = all(p.passed for p in premises)

    checks.append(_step("z_norm", None, nz, Fraction(2), strict=False))
    chain = None
    if premises_ok and half_ok:
        chain = verify_chain(state, F, scale_certificate(z_cert, Fraction(1, 2)))
        checks.append(
            _step("half_chain", None, 0 if chain.passed else 1, Fraction(1), note="ladder on z/2: min margin %g" % chain.min_margin)
        )
    f_z = abs(evaluate(F, z))
    checks.append(_step("f_z", None, f_z, 18.0))
    gap = abs(float(w.r) - evaluate(F, w.x))
    checks.append(_step("twisted_gap", None, gap, 22.0))
    checks.append(_step("twisted_norm", None, quasi_norm(F, w), 23.0))
    return BoundReport(
        premises=premises,
        checks=checks,
        chain=chain,
        premises_ok=premises_ok,
        passed=premises_ok and all(c.passed for c in checks) and (chain is None or chain.passed),
    )


# --- the two hull witnesses -----------------------------------------------------


@dataclass
class HullWitness:
    level: int
    sum_level: int
    weights: list[Fraction]
    reproduces: bool
    budget_note: str

    def to_json(self):
        return {
            "level": self.level,
            "sum_level": self.sum_level,
            "weights": ["%d/%d" % (w.numerator, w.denominator) for w in self.weights],
            "reproduces": self.reproduces,
            "budget_note": self.budget_note,
        }


@dataclass
class UPartWitness:
    level: int
    radius: Fraction
    point_norm: float
    status: str  # "member" | "boundary" | "radius_dependent"
    scaled_point: TwistedVec
    scaled_member: bool

    def to_json(self):
        return {
            "level": self.level,
            "radius": "%d/%d" % (self.radius.numerator, self.radius.denominator),
            "point_norm": self.point_norm,
            "status": self.status,
            "scaled_point": self.scaled_point.to_json(),
            "scaled_member": self.scaled_member,
        }


@dataclass
class WitnessBundle:
    hull: HullWitness
    u_part: UPartWitness

    def to_json(self):
        return {"hull": self.hull.to_json(), "u_part": self.u_part.to_json()}


def trivial_dual_witnesses(state: ConstructionState, F: QuasiFunctional, m: int, n: int) -> WitnessBundle:
    """The two membership facts behind the vanishing dual: the level-m
    e-generator is the uniform convex combination of G_m (exactly, because
    the stretched parts sum to zero), and the real axis meets every metric
    ball (the unit point itself sits on the level-1 boundary, so the direct
    witness is a slightly shrunk multiple; membership of the unit point in
    the convex hull of deeper balls is radius-dependent and flagged)."""
    if not 1 <= n <= m <= state.depth:
        raise ValueError("need 1 <= n <= m <= depth, got n=%d m=%d depth=%d" % (n, m, state.depth))
    gens = state.G[m]
    count = len(gens)
    lam = Fraction(1, count)
    combo = state.space.zero()
    for g in gens:
        combo = combo + g * lam
    e_m = state.e_vector(m)
    hull = HullWitness(
        level=m,
        sum_level=n,
        weights=[lam] * count,
        reproduces=combo == e_m,
        budget_note=(
            "each generator of block %d alone is level-%d valid (budget %d >= 1); "
            "the combination is a point of the convex hull of the level set, not of the set itself"
            % (m, n, 2 ** (m - n))
        ),
    )
    radius = ball_radius(n)
    point_norm = quasi_norm(F, TwistedVec(1.0, state.space.zero()))
    if point_norm < float(radius):
        status = "member"
    elif point_norm == float(radius):
        status = "boundary"
    else:
        status = "radius_dependent"
    shrink = (1 - Fraction(1, 1000)) * min(F1, radius)
    scaled = TwistedVec(float(shrink), state.space.zero())
    u_part = UPartWitness(
        level=n,
        radius=radius,
        point_norm=point_norm,
        status=status,
        scaled_point=scaled,
        scaled_member=quasi_norm(F, scaled) < float(radius),
    )
    return WitnessBundle(hull=hull, u_part=u_part)


# --- static sanity battery and serialization -------------------------------------


def static_state_checks(state: ConstructionState, F: QuasiFunctional) -> list[ChainStep]:
    """Exact recheck of every stored level invariant (no randomness):
    budget rule, generator shapes, tail indices, enumeration monotonicity,
    generator normalization, and the uniform hull identity."""
    checks: list[ChainStep] = []
    space = state.space
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
        m_n = state.m[n]
        # a wrong count fails g_size above; the shape is only compared
        # generator by generator once the counts match
        shape_ok = size_ok and len(xs_n) == 2 ** n
        if shape_ok:
            shape_ok = all(gens[i] - e_n == xs_n[i] * m_n for i in range(2 ** n))
            balance = space.zero()
            for xv in xs_n:
                balance = balance + xv
            shape_ok = shape_ok and (gens[2 ** n] - e_n == balance * (-m_n))
        checks.append(_step("g_shape", n, 0 if shape_ok else 1, F1))
        prior = [w for i in range(1, n) for w in state.G[i]]
        checks.append(_step("tail_index", n, 0 if state.s[n] == tail_index(prior, e_n) else 1, F1))
        mono = all(a < b for a, b in zip(state.ell[n], state.ell[n][1:]))
        right = all(x.is_right_of(state.s[n]) for x in xs_n)
        checks.append(_step("enumeration", n, 0 if (mono and right) else 1, F1))
        lam = Fraction(1, len(gens))
        combo = space.zero()
        for g in gens:
            combo = combo + g * lam
        checks.append(_step("e_hull", n, 0 if combo == e_n else 1, F1))
    for j, d in enumerate(state.d_generators):
        nd = space.norm(d)
        checks.append(_step("d_norm", j + 1, nd, F1, strict=False))
        checks.append(_step("d_f_value", j + 1, abs(evaluate(F, d)), 1.0 + STRICT_MARGIN, strict=False))
    return checks


def state_to_json(state: ConstructionState) -> dict:
    def frac(v: Fraction) -> str:
        return "%d/%d" % (v.numerator, v.denominator)

    return {
        "depth": state.depth,
        "space": state.space.to_json(),
        "functional": state.functional,
        "c": {str(n): frac(v) for n, v in sorted(state.c.items())},
        "d_generators": [d.to_json() for d in state.d_generators],
        "e_idx": state.e_idx,
        "s": {str(n): v for n, v in sorted(state.s.items())},
        "ell": {str(n): v for n, v in sorted(state.ell.items())},
        "m": {str(n): v for n, v in sorted(state.m.items())},
        "M": {str(n): frac(v) for n, v in sorted(state.M.items())},
        "G": {str(n): [g.to_json() for g in gens] for n, gens in sorted(state.G.items())},
        "xs": [x.to_json() for x in state.xs],
        "x_cursor": state.x_cursor,
        "meta": state.meta,
    }


def state_from_json(obj: dict) -> ConstructionState:
    """Parse a state; its vectors load through its space, so the zero vector
    ``{}`` (G[0], for one) gets the space's vector type."""
    space = space_from_json(obj["space"])
    vec = space.vector.from_json
    return ConstructionState(
        depth=obj["depth"],
        space=space,
        functional=obj["functional"],
        c={int(n): Fraction(v) for n, v in obj["c"].items()},
        d_generators=[vec(d) for d in obj["d_generators"]],
        e_idx=list(obj["e_idx"]),
        s={int(n): int(v) for n, v in obj["s"].items()},
        ell={int(n): list(map(int, v)) for n, v in obj["ell"].items()},
        m={int(n): int(v) for n, v in obj["m"].items()},
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
        c = state.c[n]
        M = state.M[n]
        rows.append(
            (
                n,
                "%d/%d" % (c.numerator, c.denominator),
                state.s[n],
                state.m[n],
                "%d/%d" % (M.numerator, M.denominator),
                len(state.G[n]),
            )
        )
    return rows
