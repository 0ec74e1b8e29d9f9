"""Adversarial oracles: independent searches that attack every constant and
inequality the construction relies on.

Design rule: each oracle reports the extremal input it found (the witness)
in replayable form, and strict inequalities are attacked with a small
interior margin so floating-point boundary noise cannot manufacture
violations.  Exact modes use rational arithmetic end to end; search modes
are tagged heuristic.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .construction import (
    ConstructionState,
    final_bound_check,
    fn_family,
    verify_chain,
)
from .exact_lp import solve_lp_ineq
from .quasilinear import QuasiFunctional, Scaled, UserLinear, WeightedRibe, evaluate, quasi_defect
from .seqspace import (
    FinSeq,
    MixedSeq,
    MixedSpace,
    SeqSpace,
    as_fraction,
    block_entries,
    block_of,
    disjoint_supports,
)
from .sumsets import (
    SumCertificate,
    CertTerm,
    certificate_value,
    random_certificate,
    scale_certificate,
)
from .twisted import TwistedVec, quasi_norm

F0 = Fraction(0)
F1 = Fraction(1)

INTERIOR = Fraction(1, 10 ** 9)


@dataclass
class OracleReport:
    target: str
    best_violation: float | None  # <= 0 means no violation found
    best_value: float | None
    bound: float | None
    witness: dict | None
    trials: int
    seed: int | None
    method: str
    notes: str = ""

    def to_json(self):
        return {
            "target": self.target,
            "best_violation": self.best_violation,
            "best_value": self.best_value,
            "bound": self.bound,
            "witness": self.witness,
            "trials": self.trials,
            "seed": self.seed,
            "method": self.method,
            "notes": self.notes,
        }

    @classmethod
    def from_json(cls, obj):
        return cls(**obj)


# --- cross-polytope minimization ------------------------------------------------


@dataclass
class CrossPolytopeResult:
    value: object  # Fraction in exact mode, float otherwise
    minimizer: list
    method: str  # "exact" | "heuristic"


EXACT_ORTHANT_CAP = 8


def _orthant_lp_min(ys: list[FinSeq]):
    """Exact minimum of || sum a_i y_i ||_1 over the cross-polytope surface by
    sign-pattern decomposition; each orthant is one rational LP."""
    k = len(ys)
    coords = sorted(set().union(*(set(y.support) for y in ys)))
    d = len(coords)
    best = None
    best_alpha = None
    for signs in itertools.product((1, -1), repeat=k - 1):
        sigma = (1,) + signs  # f(-a) = f(a): pin the first sign
        cols = [[sigma[j] * ys[j][c] for j in range(k)] for c in coords]
        A_ub = []
        b_ub = []
        for idx, row in enumerate(cols):
            # (V t)_c - u_c <= 0 and -(V t)_c - u_c <= 0
            A_ub.append(row + [-1 if i == idx else 0 for i in range(d)])
            b_ub.append(F0)
        for idx, row in enumerate(cols):
            A_ub.append([-v for v in row] + [-1 if i == idx else 0 for i in range(d)])
            b_ub.append(F0)
        A_eq = [[F1] * k + [F0] * d]
        res = solve_lp_ineq([F0] * k + [F1] * d, A_ub, b_ub, A_eq, [F1])
        if res.status != "optimal":
            continue
        if best is None or res.objective < best:
            best = res.objective
            best_alpha = [sigma[j] * res.x[j] for j in range(k)]
    return best, best_alpha


def _float_coords(ys, space):
    """Dense float coordinate rows, plus block labels for the mixed norm."""
    positions = sorted(set().union(*(y.support for y in ys)) or {1})
    rows = [[float(y[p]) for y in ys] for p in positions]
    if isinstance(space, MixedSpace):
        return rows, [block_of(p)[0] for p in positions], float(space.p)
    return rows, None, None


def _float_norm(rows, labels, p, alpha):
    vals = [math.fsum(r * a for r, a in zip(row, alpha)) for row in rows]
    if labels is None:
        return math.fsum(abs(v) for v in vals)
    per_block: dict[int, float] = {}
    for lab, v in zip(labels, vals):
        per_block[lab] = per_block.get(lab, 0.0) + abs(v)
    return math.fsum(b ** p for b in per_block.values()) ** (1.0 / p)


def _subgradient_min(ys, space, *, restarts=8, iters=300, seed=0, seeds_alpha=()):
    rng = random.Random(seed)
    k = len(ys)
    rows, labels, p = _float_coords(ys, space)

    def project(alpha):
        s = math.fsum(abs(a) for a in alpha)
        if s == 0:
            alpha = [1.0] + [0.0] * (k - 1)
            s = 1.0
        return [a / s for a in alpha]

    def grad(alpha):
        vals = [math.fsum(r * a for r, a in zip(row, alpha)) for row in rows]
        if labels is None:
            return [math.fsum(math.copysign(1.0, v) * row[j] if v else 0.0 for v, row in zip(vals, rows)) for j in range(k)]
        per_block: dict[int, float] = {}
        for lab, v in zip(labels, vals):
            per_block[lab] = per_block.get(lab, 0.0) + abs(v)
        total = math.fsum(b ** p for b in per_block.values())
        if total == 0:
            return [0.0] * k
        outer = total ** (1.0 / p - 1.0)
        g = []
        for j in range(k):
            acc = 0.0
            for lab, v, row in zip(labels, vals, rows):
                if v and per_block[lab]:
                    acc += per_block[lab] ** (p - 1.0) * math.copysign(1.0, v) * row[j]
            g.append(outer * acc)
        return g

    starts = [project(list(a)) for a in seeds_alpha]
    for j in range(k):
        e = [0.0] * k
        e[j] = 1.0
        starts.append(e)
    for _ in range(restarts):
        starts.append(project([rng.uniform(-1, 1) for _ in range(k)]))
    best_val = None
    best_alpha = None
    for alpha in starts:
        val = _float_norm(rows, labels, p, alpha)
        if best_val is None or val < best_val:
            best_val, best_alpha = val, list(alpha)
        cur = list(alpha)
        for it in range(1, iters + 1):
            g = grad(cur)
            gn = math.fsum(abs(v) for v in g)
            if gn == 0:
                break
            step = 0.5 / (gn * math.sqrt(it))
            cur = project([a - step * v for a, v in zip(cur, g)])
            val = _float_norm(rows, labels, p, cur)
            if val < best_val:
                best_val, best_alpha = val, list(cur)
    return best_val, best_alpha


def min_crosspolytope_norm(ys: list, *, space=None, seed=0) -> CrossPolytopeResult:
    """Minimize || sum a_i y_i || over coefficient vectors with sum |a_i| = 1.

    Disjointly supported l1 families and block-disjoint mixed families have
    closed forms; other l1 families up to 8 vectors get exact sign-orthant
    LPs; everything else falls back to projected subgradient descent with
    restarts and is tagged heuristic.
    """
    if not ys:
        raise ValueError("empty input")
    if any(not y for y in ys):
        raise ValueError("zero vectors are not allowed here")
    if space is None:
        if isinstance(ys[0], MixedSeq):
            raise ValueError("mixed vectors need an explicit space (for the norm's p)")
        space = SeqSpace()
    k = len(ys)
    if isinstance(space, SeqSpace):
        if disjoint_supports(*ys):
            norms = [y.norm() for y in ys]
            j = min(range(k), key=lambda i: norms[i])
            alpha = [F0] * k
            alpha[j] = F1
            return CrossPolytopeResult(norms[j], alpha, "exact")
        if k <= EXACT_ORTHANT_CAP:
            val, alpha = _orthant_lp_min(ys)
            return CrossPolytopeResult(val, alpha, "exact")
        val, alpha = _subgradient_min(ys, space, seed=seed)
        return CrossPolytopeResult(val, alpha, "heuristic")
    if _blocks_disjoint(ys):
        q = float(space.p) / (float(space.p) - 1.0)
        norms = [space.norm(y) for y in ys]
        s = math.fsum(a ** (-q) for a in norms)
        val = s ** (-1.0 / q)
        weights = [a ** (-q) / s for a in norms]
        return CrossPolytopeResult(val, weights, "exact")
    val, alpha = _subgradient_min(ys, space, seed=seed)
    return CrossPolytopeResult(val, alpha, "heuristic")


def _blocks_disjoint(ys: list[MixedSeq]) -> bool:
    seen: set[int] = set()
    for y in ys:
        for n in block_entries(y):
            if n in seen:
                return False
            seen.add(n)
    return True


# --- the level mass adversary ------------------------------------------------------


def _analyze_negsum(zs, space):
    """Detect the construction's generator shape: a pairwise disjoint family
    plus one vector balancing its sum to zero.  Returns (kind, data)."""
    if disjoint_supports(*zs):
        return ("disjoint", None)
    total = space.zero()
    for z in zs:
        total = total + z
    if total == space.zero():
        for d in range(len(zs)):
            if disjoint_supports(*(z for j, z in enumerate(zs) if j != d)):
                return ("negsum", d)
    return ("generic", None)


def _seq_negsum_min(norms, others_in, omitted_norm_sum):
    """Exact l1 minimum for a disjoint family plus balancing vector, over the
    pattern that keeps the balancing vector: candidates are mass on a single
    cheap vector, or saturating the m largest others at equal weight.  The
    objective is piecewise linear in the balance weight, so its minimum sits
    at one of these breakpoints."""
    candidates = []
    a_sorted = sorted((norms[j] for j in others_in), reverse=True)
    if a_sorted:
        candidates.append((min(a_sorted), ("single", None)))
    suffix = [F0]
    for a in reversed(a_sorted):
        suffix.append(suffix[-1] + a)
    # saturate the m largest: cost (omitted + sum of the rest) / (m + 1)
    for m_sat in range(len(a_sorted) + 1):
        rest = suffix[len(a_sorted) - m_sat]
        candidates.append(((omitted_norm_sum + rest) / (m_sat + 1), ("saturate", m_sat)))
    return min(candidates, key=lambda c: c[0])


def _negsum_witness_alpha(norms, pattern, d, shape, k_total):
    """Reconstruct the minimizing coefficient vector for a structured pattern."""
    alpha = [F0] * k_total
    others = [j for j in pattern if j != d]
    kind, arg = shape
    if kind == "single":
        j = min(others, key=lambda i: norms[i])
        alpha[j] = F1
        return alpha
    m_sat = arg
    beta = Fraction(1, m_sat + 1)
    alpha[d] = beta
    ranked = sorted(others, key=lambda i: norms[i], reverse=True)
    for j in ranked[:m_sat]:
        alpha[j] = beta
    return alpha


def lemma5_adversary(
    zs: list,
    k: int,
    eta,
    *,
    space=None,
    norm_cap=3,
    pattern_cap: int = 4096,
    seed: int = 0,
) -> OracleReport:
    """Maximize the coefficient mass sum |r_j| subject to the combined vector
    staying inside norm cap (attacked at cap minus an interior margin) with
    at most k nonzero coefficients.  Monotone in the support pattern, so only
    maximal patterns are enumerated; each pattern reduces to a cross-polytope
    minimum via mass = cap / min."""
    eta = as_fraction(eta)
    space = space or (SeqSpace() if zs and not isinstance(zs[0], MixedSeq) else None)
    if space is None:
        raise ValueError("mixed vectors need an explicit space")
    N = len(zs)
    k = min(k, N)
    budget = as_fraction(norm_cap) - INTERIOR
    if k == 0 or N == 0:
        return OracleReport(
            "level_mass", float(-eta), 0.0, float(eta), {"pattern": [], "coefficients": []}, 0, seed, "exact", "no nonzeros allowed"
        )
    shape_kind, negsum_d = _analyze_negsum(zs, space)
    norms = [space.norm(z) for z in zs]
    # coordinate-l1 gauges and block sets, filled lazily for mixed families
    l1_norms = z_blocks = None
    exact_space = isinstance(space, SeqSpace)

    n_patterns = math.comb(N, k)
    rng = random.Random(seed)
    if n_patterns <= pattern_cap:
        patterns = itertools.combinations(range(N), k)
        exhaustive = True
    else:
        patterns = (tuple(sorted(rng.sample(range(N), k))) for _ in range(pattern_cap))
        exhaustive = False

    best_mass = None
    best_alpha = None
    best_pattern = None
    methods = set()
    count = 0
    for pattern in patterns:
        count += 1
        if exact_space and (shape_kind == "disjoint" or (shape_kind == "negsum" and negsum_d not in pattern)):
            j0 = min(pattern, key=lambda j: norms[j])
            mn = norms[j0]
            alpha = [F0] * N
            alpha[j0] = F1
            methods.add("exact")
        elif shape_kind == "negsum" and exact_space:
            others_in = [j for j in pattern if j != negsum_d]
            omitted = sum((norms[j] for j in range(N) if j != negsum_d and j not in pattern), F0)
            mn, shape = _seq_negsum_min(norms, others_in, omitted)
            alpha = _negsum_witness_alpha(norms, pattern, negsum_d, shape, N)
            methods.add("exact")
        elif shape_kind == "negsum" and negsum_d in pattern:
            # mixed space: the norm dominates K^(-1/q) times the coordinate-l1
            # norm over K blocks, and the l1 relaxation has the exact closed
            # form, so the mass estimate is a sound upper bound (never an
            # undershoot); the stored witness is feasible but may not attain it
            if l1_norms is None:
                l1_norms = [z.norm() for z in zs]
                z_blocks = [set(block_entries(z)) for z in zs]
            others_in = [j for j in pattern if j != negsum_d]
            omitted = sum((l1_norms[j] for j in range(N) if j != negsum_d and j not in pattern), F0)
            mn_l1, shape = _seq_negsum_min(l1_norms, others_in, omitted)
            blocks = set().union(*(z_blocks[j] for j in pattern))
            q = float(space.p) / (float(space.p) - 1.0)
            mn = float(mn_l1) * (len(blocks) or 1) ** (-1.0 / q)
            alpha = _negsum_witness_alpha(l1_norms, pattern, negsum_d, shape, N)
            methods.add("bounded")
        else:
            sub = [zs[j] for j in pattern]
            res = min_crosspolytope_norm(sub, space=space, seed=seed)
            mn = res.value
            alpha = [F0] * N
            for j, a in zip(pattern, res.minimizer):
                alpha[j] = a
            methods.add(res.method)
        if mn == 0:
            best_mass = None
            best_alpha = alpha
            best_pattern = pattern
            break
        mass = budget / mn if isinstance(mn, Fraction) else float(budget) / mn
        if best_mass is None or mass > best_mass:
            best_mass, best_alpha, best_pattern = mass, alpha, pattern

    if best_mass is None and best_alpha is not None and best_pattern is not None:
        # dependent sub-family: unbounded mass
        coeffs = [str(a) for a in best_alpha]
        return OracleReport(
            "level_mass",
            float("inf"),
            float("inf"),
            float(eta),
            {"pattern": list(best_pattern), "coefficients": coeffs},
            count,
            seed,
            "exact" if exact_space else "heuristic",
            "combined vector vanished: coefficient mass is unbounded",
        )
    # witness scaled to the budget surface by its true combined norm, so it
    # is always feasible; on exact patterns its mass equals the reported one
    combined = space.zero()
    alpha_exact = [a if isinstance(a, Fraction) else Fraction(a) for a in best_alpha]
    for a, z in zip(alpha_exact, zs):
        if a:
            combined = combined + z * a
    wnorm = space.norm(combined)
    if isinstance(wnorm, Fraction):
        wscale = budget / wnorm if wnorm else F1
    else:
        wscale = Fraction(float(budget) / wnorm) * (1 - Fraction(1, 2 ** 30)) if wnorm else F1
    r = [a * wscale for a in alpha_exact]
    witness = {
        "pattern": list(best_pattern),
        "coefficients": ["%s" % c for c in r],
        "mass": float(sum((abs(c) for c in r), F0)),
    }
    if methods <= {"exact"}:
        method = "exact"
    elif methods <= {"exact", "bounded"}:
        method = "bounded"
    else:
        method = "heuristic"
    return OracleReport(
        target="level_mass",
        best_violation=float(best_mass - eta) if isinstance(best_mass, Fraction) else float(best_mass) - float(eta),
        best_value=float(best_mass),
        bound=float(eta),
        witness=witness,
        trials=count,
        seed=seed,
        method=method,
        notes="patterns %s, budget %s" % ("exhaustive" if exhaustive else "sampled", float(budget)),
    )


def replay_lemma5(zs: list, witness: dict, space=None) -> tuple[float, float]:
    """Recompute (mass, combined norm) from a stored witness."""
    space = space or (SeqSpace() if zs and not isinstance(zs[0], MixedSeq) else None)
    coeffs = [Fraction(c) if "/" in c or c.lstrip("-").isdigit() else Fraction(float(c)) for c in witness["coefficients"]]
    total = space.zero()
    for c, z in zip(coeffs, zs):
        total = total + z * c
    mass = sum((abs(c) for c in coeffs), F0)
    return float(mass), float(space.norm(total))


# --- additivity constant adversary ----------------------------------------------------


def seq_sampler(rng: random.Random) -> FinSeq:
    """Bounded random sparse rational vector (dyadic denominators)."""
    entries = {}
    for _ in range(rng.randint(1, 5)):
        idx = rng.randint(1, 12)
        num = rng.randint(-64, 64)
        if num:
            entries[idx] = entries.get(idx, F0) + Fraction(num, 1 << rng.randint(0, 6))
    return FinSeq(entries)


def mixed_sampler_over(block_pool):
    block_pool = tuple(block_pool)

    def sample(rng: random.Random) -> MixedSeq:
        blocks = {}
        for _ in range(rng.randint(1, 3)):
            n = rng.choice(block_pool)
            vec = [Fraction(rng.randint(-16, 16), 16) for _ in range(n)]
            blocks[n] = [a + b for a, b in zip(blocks.get(n, [F0] * n), vec)]
        return MixedSeq({n: v for n, v in blocks.items() if any(v)})

    return sample


mixed_sampler = mixed_sampler_over((1, 2, 3, 4))


def _shift_right(x: FinSeq, offset: int) -> FinSeq:
    return FinSeq({i + offset: v for i, v in x.items()})


def span_sampler(basis):
    """Random rational combinations of a fixed basis (for linear extensions,
    whose domain is only the span)."""

    def sample(rng: random.Random):
        total = basis[0] * 0 if basis else FinSeq()
        for b in basis:
            total = total + b * Fraction(rng.randint(-32, 32), 1 << rng.randint(0, 5))
        return total

    return sample


def quasi_constant_adversary(F: QuasiFunctional, sampler=None, trials: int = 2000, seed: int = 0) -> OracleReport:
    """Empirical maximum of the normalized additivity defect over random pairs
    plus structured families (disjoint shifts, nested truncations, sign flips,
    near-collinear pairs).  The assumed constant must dominate the maximum."""
    core = F
    while isinstance(core, Scaled):
        core = core.inner
    span_only = isinstance(core, UserLinear)
    if sampler is None:
        if span_only:
            sampler = span_sampler(core.basis)
        elif isinstance(core, WeightedRibe):
            pool = sorted(core.weights)[:6] or [1]
            sampler = mixed_sampler_over(pool)
        else:
            sampler = seq_sampler
    rng = random.Random(seed)
    best = -1.0
    witness = None
    count = 0
    for _ in range(max(1, trials)):
        x = sampler(rng)
        y = sampler(rng)
        pairs = [(x, y)]
        if not isinstance(x, MixedSeq) and not span_only:
            pairs.append((x, _shift_right(y, x.max_support())))
            half = FinSeq({i: v for i, v in x.items() if i <= (x.max_support() + 1) // 2})
            pairs.append((x, half))
        pairs.append((x, -x + y * Fraction(1, 8)))
        pairs.append((x, x * Fraction(3, 2) + y * Fraction(1, 16)))
        for a, b in pairs:
            if not a and not b:
                continue
            count += 1
            d = quasi_defect(F, a, b)
            if d > best:
                best = d
                witness = {"x": a.to_json(), "y": b.to_json()}
    bound = float(F.assumed_constant)
    return OracleReport(
        target="quasi_constant",
        best_violation=best - bound,
        best_value=best,
        bound=bound,
        witness=witness,
        trials=count,
        seed=seed,
        method="heuristic",
        notes="normalized defect |F(x+y)-F(x)-F(y)| / (||x||+||y||)",
    )


# --- chain fuzzing ---------------------------------------------------------------------


def _exact_scale(target, current) -> Fraction:
    """Rational factor moving a norm from ``current`` to (just under) the
    target; float norms get an extra shave so the strict bound survives
    their non-homogeneity."""
    t = Fraction(target)
    if isinstance(current, Fraction):
        return t / current
    return t / Fraction(current) * (1 - Fraction(1, 2 ** 30))


def _random_admissible_decomposition(state, F, z_cert, rng):
    """Split a certified vector into (ball element, certified part) meeting
    every premise of the final bound check: a collinear split with the budget
    algebra worked out so both parts stay admissible.  Samples that land on a
    float boundary are dropped rather than repaired."""
    fam = fn_family(state)
    space = state.space
    z = certificate_value(fam, z_cert)
    nz = space.norm(z)
    if not nz:
        return None
    zeta_target = Fraction(rng.randint(1, 1899), 1000)  # target ||z|| in (0, 1.9]
    factor = _exact_scale(zeta_target, nz)
    if abs(factor) > 1:
        return None
    z_cert = scale_certificate(z_cert, factor)
    z = certificate_value(fam, z_cert)
    zeta = float(space.norm(z))
    if not 0 < zeta < 2:
        return None
    lo = max(0.0, 1 - 1 / zeta)
    hi = min(1.0, 1 / zeta)
    lam = Fraction(round((lo + rng.random() * (hi - lo)) * 4096), 4096)
    y = z * (lam - 1)
    ny = float(space.norm(y))
    slack = 1 - ny
    if slack <= 0:
        return None
    r = evaluate(F, y) + rng.uniform(-0.9, 0.9) * slack
    u = TwistedVec(r, y)
    w_x = y + z
    if quasi_norm(F, u) > 1 or float(space.norm(w_x)) > 1:
        return None
    return u, z_cert


def chain_fuzzer(
    state: ConstructionState,
    F: QuasiFunctional,
    trials: int = 200,
    seed: int = 0,
    *,
    deltas=(Fraction(1, 1000), Fraction(1, 10 ** 6)),
    final_every: int = 10,
    ascent: bool = True,
) -> OracleReport:
    """Random valid level-1 certificates rescaled to value norm 1 - delta,
    replayed through the full inequality ladder; every tenth trial also
    exercises the final bound on a random admissible decomposition.  Ends
    with a short coordinate-ascent push on the worst certificate found."""
    fam = fn_family(state)
    space = state.space
    rng = random.Random(seed)
    min_margin = float("inf")
    min_witness = None
    max_f = 0.0
    max_f_cert = None
    chains = bounds = 0
    failures = 0
    for t in range(max(0, trials)):
        target = 1 - deltas[t % len(deltas)]
        cert = random_certificate(fam, 1, rng)
        if not cert.terms:
            continue
        nv = space.norm(certificate_value(fam, cert))
        if not nv or nv <= target:
            continue
        scaled = scale_certificate(cert, _exact_scale(target, nv))
        if not space.norm(certificate_value(fam, scaled)) < 1:
            continue
        tr = verify_chain(state, F, scaled)
        chains += 1
        if not tr.passed:
            failures += 1
        if tr.min_margin < min_margin:
            min_margin = tr.min_margin
            min_witness = {"kind": "chain", "certificate": scaled.to_json()}
        if abs(tr.f_value) > max_f:
            max_f = abs(tr.f_value)
            max_f_cert = scaled
        if final_every and t % final_every == 0:
            decomp = _random_admissible_decomposition(state, F, cert, rng)
            if decomp is not None:
                u, z_cert = decomp
                rep = final_bound_check(state, F, u, z_cert)
                bounds += 1
                if not rep.passed:
                    failures += 1
                worst = min((c.margin for c in rep.checks), default=float("inf"))
                if worst < min_margin:
                    min_margin = worst
                    min_witness = {"kind": "final_bound", "u": u.to_json(), "certificate": z_cert.to_json()}
    if ascent and max_f_cert is not None:
        cert, f_best = _coordinate_ascent(state, F, fam, max_f_cert, rng)
        if f_best > max_f:
            max_f = f_best
            max_f_cert = cert
        tr = verify_chain(state, F, max_f_cert)
        if not tr.passed:
            failures += 1
        if tr.min_margin < min_margin:
            min_margin = tr.min_margin
            min_witness = {"kind": "chain_ascent", "certificate": max_f_cert.to_json()}
    if chains == 0 and bounds == 0:
        return OracleReport("chain", None, None, None, None, 0, seed, "heuristic", "no-op: zero budget")
    return OracleReport(
        target="chain",
        best_violation=(-min_margin if failures == 0 else max(0.0, -min_margin)),
        best_value=max_f,
        bound=9.0,
        witness=min_witness,
        trials=chains + bounds,
        seed=seed,
        method="heuristic",
        notes="%d ladder replays, %d bound checks, %d failures, min margin %g" % (chains, bounds, failures, min_margin),
    )


def _coordinate_ascent(state, F, fam, cert: SumCertificate, rng, passes: int = 3):
    """Greedy push of |F(value)| over coefficient perturbations, value norm
    pinned back to its target after every accepted move."""
    space = state.space
    target = space.norm(certificate_value(fam, cert))

    def renorm(c: SumCertificate) -> SumCertificate | None:
        """c moved back to the target norm; None when that is impossible or
        pushes a coefficient past 1."""
        nv = space.norm(certificate_value(fam, c))
        if not nv:
            return None
        try:
            return scale_certificate(c, _exact_scale(target, nv))
        except ValueError:
            return None

    best = cert
    f_best = abs(evaluate(F, certificate_value(fam, cert)))
    step = Fraction(1, 64)
    for _ in range(passes):
        improved = False
        for idx in range(len(best.terms)):
            for delta in (step, -step):
                terms = list(best.terms)
                t = terms[idx]
                new_coeff = t.coeff + delta
                terms[idx] = CertTerm(t.block, t.gen, new_coeff)
                cand = renorm(SumCertificate(tuple(terms)))
                if cand is None:
                    continue
                f_val = abs(evaluate(F, certificate_value(fam, cand)))
                if f_val > f_best:
                    best, f_best = cand, f_val
                    improved = True
        if not improved:
            break
    return best, f_best
