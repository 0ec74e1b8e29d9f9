"""Adversarial oracles: independent searches that attack every constant and
inequality the construction relies on.

Design rule: each oracle reports the extremal input it found (the witness)
in replayable form, and strict inequalities are attacked with a small
interior margin so floating-point boundary noise cannot manufacture
violations.  Exact modes use rational arithmetic end to end; ``bounded``
modes report a proven bound that their witness need not attain; search
modes are ``heuristic`` and certify nothing; an oversized search is
``refused``.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations

from .construction import (
    MAX_DEPTH,
    ConstructionState,
    LadderSums,
    final_bound_check,
    fn_family,
    verify_chain,
)
from .exact_lp import _price, _run_simplex, gauss_jordan, pivot_rows, solve_lp
from .quasilinear import QuasiFunctional, Ribe, Scaled, UserLinear, WeightedRibe, evaluate, quasi_defects, ribe_error_bound
from .seqspace import (
    FinSeq,
    MixedSeq,
    SeqSpace,
    as_fraction,
    block_entries,
    disjoint_supports,
)
from .sumsets import (
    SumCertificate,
    below,
    certificate_value,
    random_certificate,
    scale_certificate,
)
from .twisted import TwistedVec

F0 = Fraction(0)
F1 = Fraction(1)

INTERIOR = Fraction(1, 10 ** 9)

# the level-mass cap: the ladder bounds each stretched part by 3
NORM_CAP = 3

# the most support patterns the level-mass search takes on: the 2^n + 1
# leave-one-out patterns of the deepest level ``construct`` builds
PATTERN_CAP = 2 ** MAX_DEPTH + 1


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
        """``asdict(self)`` without its deep copy: the witness is shared."""
        return dict(vars(self))


# --- cross-polytope minimization ------------------------------------------------


@dataclass
class CrossPolytopeResult:
    value: object  # a Fraction on l1 families and for an exact 0, else a float
    minimizer: list  # unit coefficient mass
    # "exact": the minimizer attains the value; "bounded": the value is a
    # proven lower bound on the minimum, which the minimizer need not attain
    method: str


EXACT_ORTHANT_CAP = 8


def _orthant_lp_min(ys: list[FinSeq]):
    """Exact minimum of || sum a_i y_i ||_1 over the cross-polytope surface by
    sign-pattern decomposition.  In orthant sigma (first sign pinned, since
    f(-a) = f(a)) it is one rational LP in equality form over t, p, q >= 0:

        (V sigma t)_c + p_c - q_c = 0 for each coordinate c,   sum t = 1,

    minimizing sum p + sum q, which equals ||V sigma t||_1 at the optimum.
    The walk below folds each coordinate c that only y_j touches into t_j's
    cost, a presolve reduction (Andersen and Andersen, *Math. Programming*
    71, 1995): as t >= 0, c adds |sigma_j y_j[c] t_j| = |y_j[c]| t_j to the
    norm whatever sigma is, so its row and its p, q columns go, and t_j costs
    w_j, the sum of |y_j[c]| over the coordinates y_j owns alone.  The rows
    left, the shared coordinates' (the first one's if none is shared) and
    the sum row, hold V's numerators over one denominator D, so the costs
    are ints and the objective is D times the norm.  The columns run t,
    then p, then q.

    No orthant needs phase 1 (Chvatal, *Linear Programming*, 1983, on
    starting from a feasible basis): t_1 pivoted into the sum row, with p_c
    or q_c in row c, whichever keeps its right side -y_1[c] >= 0, is one,
    and the same one in every orthant, as sigma_1 never flips.  The walk
    goes in reflected Gray-code order (Knuth, *TAOCP* 4A, 7.2.1.1), so each
    step flips one sign sigma_j, j > 1.  The right side b is the sum row's
    unit vector, so the flip turns column A_j = (sigma_j y_j, 1) into
    2b - A_j, and in any basis B column j of the tableau B^-1 [A | b]
    becomes twice the right side minus itself; its reduced cost
    w_j - c_B B^-1 A_j becomes 2 w_j - 2 z minus itself, z = c_B B^-1 b.
    The cost row holds the reduced costs, then -z, times a positive factor,
    twice which is the sum of its entries at p_c and q_c: as A_q = -A_p,
    their reduced costs sum to 2 in every basis.  The start tableau, built
    and priced once, takes every flip this way.  If t_j is nonbasic the
    walk's basis stays feasible and its tableau takes the flip too; if t_j
    is basic the walk restarts from a copy of the start tableau.

    The cost row's last entry is -D times the orthant's minimum times the
    row's factor, so each orthant's value is an int ratio, compared with the
    best by cross-multiplying.  Bland's rule from another basis can return
    another vertex on a tie, but not another value, so the walk keeps the
    first orthant in ``itertools.product`` order with the least value and
    reads its t off the tableau when it becomes the best.  If every
    nonbasic reduced cost is then > 0, that vertex is the orthant's only
    optimum (Chvatal, 1983: any other feasible point has a nonbasic entry
    > 0, which adds its reduced cost to the objective).  The fold changes
    no optimal t, and each t fixes p and q at a cold optimum, so the cold
    two-phase ``solve_lp`` on every coordinate's row, whose minimizer the
    golden crosspolytope report pins, has that one optimum too and returns
    its t.  Only a tied winner is solved again cold.  Either minimizer is
    checked to have unit mass and to attain the value."""
    k = len(ys)
    D = math.lcm(*(y.den for y in ys))
    cols = [{c: v * (D // y.den) for c, v in y.nums.items()} for y in ys]
    owners = Counter(c for col in cols for c in col)
    coords = sorted(owners)
    shared = [c for c in coords if owners[c] > 1] or coords[:1]
    kept = set(shared)
    w = [sum(abs(v) for c, v in col.items() if c not in kept) for col in cols]
    d = len(shared)
    n = k + 2 * d
    start = [[col.get(c, 0) for col in cols] + [int(j == i) - int(j == d + i) for j in range(2 * d)] + [0] for i, c in enumerate(shared)]
    start.append([1] * k + [0] * (2 * d) + [1])
    pivot_rows(start, d, 0)
    start_basis = [k + i for i in range(d)] + [0]
    for i in range(d):
        if start[i][n] < 0:
            start[i] = [-v for v in start[i]]
            start_basis[i] += d
    _price(start, start_basis, w + [1] * (2 * d))

    sigma = [1] * k
    T, basis = [line[:] for line in start], start_basis[:]
    best = None
    for g in range(2 ** (k - 1)):
        gray = g ^ (g >> 1)  # the orthant's index in itertools.product order
        if g:
            # sign j is bit k-1-j of gray, and step g flips g's lowest set bit
            j = k - (g & -g).bit_length()
            sigma[j] = -sigma[j]
            restart = j in basis
            for tableau in (start,) if restart else (start, T):
                *rows, cost = tableau
                for line in rows:
                    line[j] = 2 * line[n] - line[j]
                # cost[k] + cost[k + d] is twice the row's factor
                cost[j] = 2 * cost[n] - cost[j] + w[j] * (cost[k] + cost[k + d])
            if restart:
                T, basis = [line[:] for line in start], start_basis[:]
        status = _run_simplex(T, basis, d + 1, n)
        if status != "optimal":  # t = e_1 is feasible and the objective is >= 0
            raise RuntimeError("orthant LP %r returned %s" % (tuple(sigma), status))
        cost = T[d + 1]
        # D times the orthant's minimum, as num / den with den > 0
        num, den = -2 * cost[n], cost[k] + cost[k + d]
        if best is None or (num * best[1], gray) < (best[0] * den, best_g):
            best, best_g, best_sigma = (num, den), gray, tuple(sigma)
            t = {col: (T[i][n], T[i][col]) for i, col in enumerate(basis) if col < k}
            unique = all(cost[j] > 0 for j in range(n) if j not in basis)
    best = Fraction(best[0], best[1] * D)
    sigma = best_sigma
    if unique:
        x = [Fraction(*t[j]) if j in t else F0 for j in range(k)]
    else:
        m = len(coords)
        A = [[s * y[c] for s, y in zip(sigma, ys)] + [int(j == i) - int(j == m + i) for j in range(2 * m)] for i, c in enumerate(coords)]
        A.append([1] * k + [0] * (2 * m))
        res = solve_lp([0] * k + [1] * (2 * m), A, [0] * m + [1])
        if res.status != "optimal":
            raise RuntimeError("orthant LP %r returned %s" % (sigma, res.status))
        x = res.x
    alpha = [sigma[j] * x[j] for j in range(k)]
    # the mass and the norm of sum alpha_j y_j, as ints over L and L * D
    L = math.lcm(*(a.denominator for a in alpha))
    ints = [a.numerator * (L // a.denominator) for a in alpha]
    combo = Counter()
    for a, col in zip(ints, cols):
        combo.update({c: a * v for c, v in col.items()})
    mass, norm = Fraction(sum(map(abs, ints)), L), Fraction(sum(map(abs, combo.values())), L * D)
    if mass != 1 or norm != best:
        raise RuntimeError("orthant LP %r minimizer %s has mass %s and norm %s, the walk %s" % (sigma, alpha, mass, norm, best))
    return best, alpha


def _left_inverse_min(ys: list[FinSeq]) -> CrossPolytopeResult:
    """1/||L|| for the least-squares left inverse L = (V^T V)^(-1) V^T, a
    proven lower bound on the l1 minimum at any family size:
    ||a||_1 = ||L V a||_1 <= ||L|| ||V a||_1 with ||L|| the largest column l1
    norm (Boyd and Vandenberghe, *Convex Optimization*, 6.1).  Gauss-Jordan
    on the integer rows [N^T N | N^T], N the numerators of V over D, leaves
    L_ij = D row_i[k + j] / row_i[i].  The minimizer, L's largest column over
    its norm, need not attain the bound.  A dependent family has the exact
    minimum 0, at a null vector read off the same rows."""
    k = len(ys)
    D = math.lcm(*(y.den for y in ys))
    cols = [{p: v * (D // y.den) for p, v in y.nums.items()} for y in ys]
    coords = sorted(set().union(*cols))
    rows = [[sum(v * b.get(p, 0) for p, v in a.items()) for b in cols] + [a.get(p, 0) for p in coords] for a in cols]
    pivots = gauss_jordan(rows, k)
    if len(pivots) < k:
        # x_c = 1 on the first free column c solves N^T N x = 0, so N x = 0
        c = next(j for j in range(k) if j not in pivots)
        x = [F0] * k
        x[c] = F1
        for row, j in zip(rows, pivots):
            x[j] = Fraction(-row[c], row[j])
        mass = sum(map(abs, x))
        return CrossPolytopeResult(F0, [a / mass for a in x], "exact")
    # the column sums of L as numerators over P / D
    P = math.lcm(*(rows[i][i] for i in range(k)))
    scaled = [[row[k + j] * (P // row[i]) for j in range(len(coords))] for i, row in enumerate(rows)]
    sums = [sum(abs(line[j]) for line in scaled) for j in range(len(coords))]
    j = max(range(len(coords)), key=sums.__getitem__)
    return CrossPolytopeResult(Fraction(P, D * sums[j]), [Fraction(line[j], sums[j]) for line in scaled], "bounded")


def _l1_min(ys: list[FinSeq]) -> CrossPolytopeResult:
    k = len(ys)
    if disjoint_supports(*ys):
        norms = [y.norm() for y in ys]
        j = min(range(k), key=lambda i: norms[i])
        alpha = [F0] * k
        alpha[j] = F1
        return CrossPolytopeResult(norms[j], alpha, "exact")
    if k <= EXACT_ORTHANT_CAP:
        return CrossPolytopeResult(*_orthant_lp_min(ys), "exact")
    return _left_inverse_min(ys)


def min_crosspolytope_norm(ys: list, *, space=None) -> CrossPolytopeResult:
    """Minimize || sum a_i y_i || over coefficient vectors with sum |a_i| = 1.

    Disjointly supported l1 families and block-disjoint mixed families have
    closed forms; other l1 families get exact sign-orthant LPs up to
    ``EXACT_ORTHANT_CAP`` vectors and the left-inverse bound beyond
    (``bounded``).  Other mixed families take the l1 minimum times
    B^(-1/q) over the B blocks they touch, since the norm dominates that
    multiple of the coordinate-l1 norm (Hoelder over B blocks): ``bounded``
    too, unless the l1 minimum is an exact 0.
    """
    if not ys:
        raise ValueError("empty input")
    if any(not y for y in ys):
        raise ValueError("zero vectors are not allowed here")
    if space is None:
        if isinstance(ys[0], MixedSeq):
            raise ValueError("mixed vectors need an explicit space (for the norm's p)")
        space = SeqSpace()
    if isinstance(space, SeqSpace):
        return _l1_min(ys)
    q = float(space.p) / (float(space.p) - 1.0)
    blocks = [block_entries(y) for y in ys]
    touched = set().union(*blocks)
    if len(touched) == sum(map(len, blocks)):
        norms = [space.norm(y) for y in ys]
        s = math.fsum(a ** (-q) for a in norms)
        val = s ** (-1.0 / q)
        weights = [a ** (-q) / s for a in norms]
        return CrossPolytopeResult(val, weights, "exact")
    res = _l1_min(ys)
    if not res.value:
        return res
    return CrossPolytopeResult(float(res.value) * len(touched) ** (-1.0 / q), res.minimizer, "bounded")


# --- the level mass adversary ------------------------------------------------------


def _analyze_negsum(zs):
    """Detect the construction's generator shape: a pairwise disjoint family
    plus one vector balancing its sum to zero.  Returns ("disjoint", None),
    ("negsum", d) or ("generic", None).

    One pass maps every position to the vectors holding it and sums the
    family.  Dropping d leaves the rest disjoint iff every shared position
    has exactly two owners, one of them d; when two vectors qualify, d is
    the smaller index."""
    owners: dict[int, list[int]] = {}
    total: dict[int, int] = {}  # the family's sum, numerators over lcm
    lcm = math.lcm(*(z.den for z in zs))
    for j, z in enumerate(zs):
        f = lcm // z.den
        for p, v in z.nums.items():
            owners.setdefault(p, []).append(j)
            total[p] = total.get(p, 0) + f * v
    shared = [js for js in owners.values() if len(js) > 1]
    if not shared:
        return ("disjoint", None)
    if any(total.values()) or any(len(js) > 2 for js in shared):
        return ("generic", None)
    common = set(shared[0]).intersection(*shared[1:])
    return ("negsum", min(common)) if common else ("generic", None)


MASS_BUDGET = NORM_CAP - INTERIOR  # a level's mass is this over its least pattern minimum


def _least_pattern(zs: list, k: int, space, shape):
    """The level-mass search over the maximal support patterns of k of the
    N vectors zs (1 <= k <= N), each named by the vectors it omits, on the
    shape ``_analyze_negsum`` gives for zs.  None past ``PATTERN_CAP``
    patterns; else (winner, (num, den), count, methods): the least
    cross-polytope minimum num / den (ints when exact, else a float over 1;
    the first in ``itertools.combinations`` order wins a tie, and a zero
    ends the search), the winner's (omitted set, minimizer indices or None
    for every kept vector, coefficients), the patterns searched and their
    methods, ``exact`` or ``bounded``.

    Disjoint l1 families are minimized by the kept vector of least norm.  On
    the construction's own shape (a disjoint family plus the vector d
    balancing it to zero) a pattern without d is such a family; a pattern
    keeping d has a closed form.  Write a_1 >= ... >= a_K for the l1 gauges
    of the other kept vectors, A for the summed gauge of the omitted ones
    and T(m) = a_(m+1) + ... + a_K.  The objective is piecewise linear in
    the weight on d, so its minimum sits at a breakpoint: all mass on the
    single cheapest vector (value a_K), or weight 1/(m+1) on d and on the m
    largest kept vectors, which leaves the omitted vectors and the K - m
    smallest, at cost f(m) = (A + T(m))/(m+1).  Since

        (m+1)(m+2) (f(m) - f(m+1)) = A + T(m) + (m+1) a_(m+1),

    f strictly decreases while a_(m+1) > 0; a zero gauge makes a_K = 0, and
    the single vector already attains the minimum 0.  So the minimum is
    min(a_K, A/(K+1)), the single vector winning a tie, and A/(K+1) when
    K = 0: weight 1/(K+1) on every kept vector.  The gauges are sorted once,
    by (gauge, index), so the first kept entry in that order is the kept
    vector of least gauge and lowest index.  Both closed forms read only the
    omitted set, so a pattern costs O(N - k); only generic patterns and the
    winner list the kept vectors.  Mixed families bound the pattern minimum
    through the same closed form (see the ``bounded`` branch).
    """
    N = len(zs)
    if math.comb(N, k) > PATTERN_CAP:
        return None
    shape_kind, d = shape
    exact_space = isinstance(space, SeqSpace)
    # gauges: the exact l1 norms, also the coordinate-l1 relaxation of the
    # mixed norm, as numerators over one denominator G; `order` lists the
    # indices by (gauge, index)
    if exact_space or shape_kind == "negsum":
        G = math.lcm(*(z.den for z in zs))
        gauges = [sum(map(abs, z.nums.values())) * (G // z.den) for z in zs]
        order = sorted(range(N), key=gauges.__getitem__)
    if shape_kind == "negsum" and not exact_space:
        # every position of the family is shared with d, so a pattern keeping
        # d meets all of d's blocks, whatever else it keeps
        n_blocks = len(block_entries(zs[d])) or 1
        shrink = n_blocks ** (-1.0 / (float(space.p) / (float(space.p) - 1.0)))
    saturated = (Fraction(1, k),) * k

    # best: (omitted, indices, coefficients, num, den) of the running best,
    # indices None standing for every kept vector
    best = None
    methods = set()
    for count, omitted in enumerate(map(set, reversed(list(combinations(range(N), N - k)))), 1):
        keeps_d = shape_kind == "negsum" and d not in omitted
        # the pattern minimum is num / den: ints on exact patterns, a float
        # over 1 otherwise
        if keeps_d or (exact_space and shape_kind != "generic"):
            # the kept vector of least gauge other than d; without d it is
            # the minimum, with d it competes with A / (K + 1) = s / (G k)
            j0 = next((j for j in order if j != d and j not in omitted), None)
            s = sum(gauges[j] for j in omitted) if keeps_d else None
            if not keeps_d or (j0 is not None and gauges[j0] * k <= s):
                num, den, spec = gauges[j0], G, ((j0,), (F1,))
            else:
                num, den, spec = s, G * k, (None, saturated)
            if exact_space:
                methods.add("exact")
            else:
                # mixed space: the norm dominates B^(-1/q) times the
                # coordinate-l1 norm over B blocks, and the l1 relaxation has
                # the exact closed form, so the mass estimate is a sound upper
                # bound (never an undershoot); the stored witness is feasible
                # but may not attain it
                num, den = num / den * shrink, 1
                methods.add("bounded")
        else:
            kept = [j for j in range(N) if j not in omitted]
            zero = next((j for j in kept if not zs[j]), None)
            if zero is not None:  # a kept zero vector: the minimum is 0
                num, den, spec = 0, 1, ((zero,), (F1,))
            else:
                res = min_crosspolytope_norm([zs[j] for j in kept], space=space)
                num, den = res.value.as_integer_ratio() if isinstance(res.value, Fraction) else (res.value, 1)
                spec = (kept, res.minimizer)
                methods.add(res.method)
        # the mass budget / minimum falls as the minimum grows: the least
        # minimum wins, and a zero minimum ends the search
        if best is None or num * best[4] < best[3] * den:
            best = (omitted, *spec, num, den)
            if num == 0:
                break

    omitted, indices, coefficients, num, den = best
    return (omitted, indices, coefficients), (num, den), count, methods


def _mass_verdict(found, eta: Fraction) -> tuple:
    """(best_violation, best_value) of a ``_least_pattern`` result: the mass
    is ``MASS_BUDGET`` over the least minimum, infinite on a zero minimum,
    and None on a refused search, an infinite violation."""
    if found is None:
        return float("inf"), None
    num, den = found[1]
    if num == 0:
        return float("inf"), float("inf")
    best_mass = float(MASS_BUDGET) / num if isinstance(num, float) else MASS_BUDGET / Fraction(num, den)
    violation = float(best_mass - eta) if isinstance(best_mass, Fraction) else float(best_mass) - float(eta)
    return violation, float(best_mass)


def lemma5_adversary(zs: list, k: int, eta, *, space=None, seed: int = 0) -> OracleReport:
    """Maximize the coefficient mass sum |r_j| subject to the combined vector
    staying inside norm cap (attacked at cap minus an interior margin) with
    at most k nonzero coefficients.  Monotone in the support pattern, so
    ``_least_pattern`` searches every maximal pattern on the shape
    ``_analyze_negsum`` detects, and mass = cap / least minimum: infinite,
    ``exact`` in either space, when a kept combination can vanish.  A
    ``refused`` search fails every caller (violation inf, no witness).  The
    witness is the winner's coefficients scaled to the budget surface."""
    eta = as_fraction(eta)
    space = space or (SeqSpace() if zs and not isinstance(zs[0], MixedSeq) else None)
    if space is None:
        raise ValueError("mixed vectors need an explicit space")
    N = len(zs)
    k = min(k, N)
    if k == 0 or N == 0:
        return OracleReport(
            "level_mass", float(-eta), 0.0, float(eta), {"pattern": [], "coefficients": []}, 0, seed, "exact", "no nonzeros allowed"
        )
    found = _least_pattern(zs, k, space, _analyze_negsum(zs))
    verdict = (*_mass_verdict(found, eta), float(eta))
    if found is None:
        notes = "refused: %d support patterns exceed the cap of %d" % (math.comb(N, k), PATTERN_CAP)
        return OracleReport("level_mass", *verdict, None, 0, seed, "refused", notes)
    (omitted, indices, coefficients), (num, den), count, methods = found
    pattern = [j for j in range(N) if j not in omitted]
    best_alpha = [F0] * N
    for j, a in zip(pattern if indices is None else indices, coefficients):
        best_alpha[j] = a
    if num == 0:  # dependent sub-family: unbounded mass
        witness = {"pattern": pattern, "coefficients": [str(a) for a in best_alpha]}
        return OracleReport("level_mass", *verdict, witness, count, seed, "exact", "combined vector vanished: coefficient mass is unbounded")
    # witness scaled to the budget surface by its true combined norm, so it
    # is always feasible; on exact patterns its mass equals the reported one
    alpha_exact = [a if isinstance(a, Fraction) else Fraction(a) for a in best_alpha]
    lcm = math.lcm(*(a.denominator for a in alpha_exact))
    nums = [a.numerator * (lcm // a.denominator) for a in alpha_exact]
    wnorm = space.norm(space.vector.combination(((z, n) for z, n in zip(zs, nums) if n), lcm))
    if isinstance(wnorm, Fraction):
        wscale = MASS_BUDGET / wnorm if wnorm else F1
    else:
        wscale = Fraction(float(MASS_BUDGET) / wnorm) * (1 - Fraction(1, 2 ** 30)) if wnorm else F1
    # the coefficients are n * scale, each distinct one formatted once
    scale = wscale / lcm
    text = {n: "%s" % (n * scale) for n in set(nums)}
    witness = {
        "pattern": pattern,
        "coefficients": [text[n] for n in nums],
        "mass": float(scale * sum(map(abs, nums))),
    }
    method = "exact" if methods <= {"exact"} else "bounded"
    return OracleReport("level_mass", *verdict, witness, count, seed, method, "patterns exhaustive, budget %s" % float(MASS_BUDGET))


def replay_lemma5(zs: list, witness: dict, space=None) -> tuple[float, float]:
    """Recompute (mass, combined norm) from a stored witness."""
    space = space or (SeqSpace() if zs and not isinstance(zs[0], MixedSeq) else None)
    coeffs = [Fraction(c) for c in witness["coefficients"]]
    total = space.zero()
    for c, z in zip(coeffs, zs):
        total = total + z * c
    mass = sum((abs(c) for c in coeffs), F0)
    return float(mass), float(space.norm(total))


# --- additivity constant adversary ----------------------------------------------------


def seq_sampler(rng: random.Random) -> FinSeq:
    """Bounded random sparse rational vector (dyadic denominators up to 2^6,
    drawn as numerators over 64)."""
    nums = {}
    bits = rng.getrandbits
    for _ in range(1 + below(bits, 5)):
        idx = 1 + below(bits, 12)
        num = below(bits, 129) - 64
        if num:
            nums[idx] = nums.get(idx, 0) + (num << (6 - below(bits, 7)))
    return FinSeq._raw({i: n for i, n in nums.items() if n}, 64)._reduced()


def mixed_sampler_over(block_pool):
    """Block vectors: one to three blocks drawn from the pool, each entry a
    numerator over 16, a block drawn twice adding up."""
    block_pool = tuple(block_pool)

    def sample(rng: random.Random) -> MixedSeq:
        nums = {}
        bits = rng.getrandbits
        for _ in range(1 + below(bits, 3)):
            n = block_pool[below(bits, len(block_pool))]
            for p in range(n * (n - 1) // 2 + 1, n * (n + 1) // 2 + 1):
                nums[p] = nums.get(p, 0) + below(bits, 33) - 16
        return MixedSeq._raw({p: a for p, a in nums.items() if a}, 16)._reduced()

    return sample


def _shift_right(x: FinSeq, offset: int) -> FinSeq:
    return FinSeq._raw({i + offset: n for i, n in x.nums.items()}, x.den)


def span_sampler(basis):
    """Random rational combinations of a fixed basis (for linear extensions,
    whose domain is only the span): coefficients num / 2^k, k <= 5."""
    vector = type(basis[0]) if basis else FinSeq

    def sample(rng: random.Random):
        bits = rng.getrandbits
        return vector.combination([(b, (below(bits, 65) - 32) << (5 - below(bits, 6))) for b in basis], 32)

    return sample


def quasi_constant_adversary(F: QuasiFunctional, trials: int = 2000, seed: int = 0) -> OracleReport:
    """Empirical maximum of the normalized additivity defect over random pairs
    plus structured families (disjoint shifts, nested truncations, sign flips,
    near-collinear pairs).  The assumed constant must dominate the maximum.
    Every pair of a trial shares its x, so F(x) and ||x|| are taken once.
    Fewer than one trial runs nothing, as ``chain_fuzzer`` with no budget."""
    if trials < 1:
        return OracleReport("quasi_constant", None, None, None, None, 0, seed, "heuristic", "no-op: zero trials")
    core = F
    while isinstance(core, Scaled):
        core = core.inner
    span_only = isinstance(core, UserLinear)
    if span_only:
        sampler = span_sampler(core.basis)
    elif isinstance(core, WeightedRibe):
        sampler = mixed_sampler_over(sorted(core.weights)[:6])
    else:
        sampler = seq_sampler
    rng = random.Random(seed)
    best = -1.0
    witness = None
    count = 0
    for _ in range(trials):
        x = sampler(rng)
        y = sampler(rng)
        ys = [y]
        if not isinstance(x, MixedSeq) and not span_only:
            m = x.max_support()
            ys.append(_shift_right(y, m))
            ys.append(FinSeq._raw({i: n for i, n in x.nums.items() if i <= (m + 1) // 2}, x.den))
        ys.append(type(x).combination(((x, -8), (y, 1)), 8))  # -x + y/8
        ys.append(type(x).combination(((x, 24), (y, 1)), 16))  # 3x/2 + y/16
        if not x:
            ys = [b for b in ys if b]
        count += len(ys)
        for b, d in zip(ys, quasi_defects(F, x, ys)):
            if d > best:
                best = d
                witness = {"x": x.to_json(), "y": b.to_json()}
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


def _random_admissible_decomposition(state, F, z_cert, z, rng):
    """Split a certified vector ``z``, the value of ``z_cert``, into (ball
    element, certified part) meeting every premise of the final bound check:
    a collinear split with the budget algebra worked out so both parts stay
    admissible.  Samples that land on a float boundary are dropped rather
    than repaired."""
    space = state.space
    nz = space.norm(z)
    if not nz:
        return None
    zeta_target = Fraction(rng.randint(1, 1899), 1000)  # target ||z|| in (0, 1.9]
    factor = _exact_scale(zeta_target, nz)
    if abs(factor) > 1:
        return None
    z_cert = scale_certificate(z_cert, factor)
    z = z * factor
    zeta = float(space.norm(z))
    lo = max(0.0, 1 - 1 / zeta)
    hi = min(1.0, 1 / zeta)
    lam = Fraction(round((lo + rng.random() * (hi - lo)) * 4096), 4096)
    y = z * (lam - 1)
    f_y, a, d = F.value_and_norm(y)  # y's one evaluation: u's quasi-norm and the slack, as ``quasi_norm`` takes them
    slack = 1 - a / d
    if slack <= 0:
        return None
    r = f_y + rng.uniform(-0.9, 0.9) * slack
    if abs(r - f_y) + a / d > 1 or float(space.norm(y + z)) > 1:
        return None
    return TwistedVec(r, y), z_cert


def chain_fuzzer(state: ConstructionState, F: QuasiFunctional, trials: int = 200, seed: int = 0) -> OracleReport:
    """Random valid level-1 certificates rescaled to value norm 1 - delta,
    delta alternating between 1e-3 and 1e-6, replayed through the full
    inequality ladder; every tenth trial also exercises the final bound on a
    random admissible decomposition.  Ends with a short coordinate-ascent
    push on the worst draw, replayed if it moved.  Each draw is summed once:
    its ``LadderSums`` give the value's norm and, rescaled, the replay, so
    a rescaled certificate is built only for a witness and for the ascent."""
    deltas = (Fraction(1, 1000), Fraction(1, 10 ** 6))
    fam = fn_family(state)
    space = state.space
    rng = random.Random(seed)
    min_margin = float("inf")
    min_witness = None
    max_f = 0.0
    max_f_sums = None
    chains = bounds = failures = 0

    def record(passed, margin, witness):
        """Count a failed check once; keep the first least margin, building its witness."""
        nonlocal failures, min_margin, min_witness
        failures += not passed
        if margin < min_margin:
            min_margin = margin
            min_witness = witness()

    for t in range(max(0, trials)):
        target = 1 - deltas[t % len(deltas)]
        cert = random_certificate(fam, 1, rng)
        if not cert.terms:
            continue
        sums = LadderSums.of(state, cert)
        a, d = space.norm_of(sums.value, sums.D)
        nv = Fraction(a, d) if type(a) is int else a  # space.norm of the value
        if not nv or nv <= target:
            continue
        scaled = sums.scaled(_exact_scale(target, nv))
        tr = verify_chain(state, F, scaled)
        chains += 1
        record(tr.passed, tr.min_margin, lambda: {"kind": "chain", "certificate": scaled.certificate().to_json()})
        if abs(tr.f_value) > max_f:
            max_f = abs(tr.f_value)
            max_f_sums = scaled
        if t % 10 == 0:
            decomp = _random_admissible_decomposition(state, F, cert, sums.vector(space), rng)
            if decomp is not None:
                u, z_cert = decomp
                rep = final_bound_check(state, F, u, z_cert)
                bounds += 1
                worst = min((c.margin for c in rep.checks), default=float("inf"))
                record(rep.passed, worst, lambda: {"kind": "final_bound", "u": u.to_json(), "certificate": z_cert.to_json()})
    if max_f_sums is not None:
        cert, f_best = _coordinate_ascent(state, F, fam, max_f_sums.certificate())
        if f_best > max_f:
            max_f = f_best
            tr = verify_chain(state, F, cert)
            record(tr.passed, tr.min_margin, lambda: {"kind": "chain_ascent", "certificate": cert.to_json()})
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


def _moderate(x: float) -> bool:
    """True iff 2^-128 <= |x| <= 2^128, the range the ascent's screen takes."""
    return 2.0 ** -128 <= abs(x) <= 2.0 ** 128


_NO_BLOCK = (0, 0, 0.0, 0.0, 0.0, True, 0.0, 0.0, 0.0)  # the ``_RibeScreen.stats`` of a block v lacks


class _RibeScreen:
    """What screens an ascent move v + delta g on F = Scaled(inner) in time
    proportional to g (see ``_coordinate_ascent``).  ``Ribe`` is one block of
    weight 1 under the exact l1 norm; ``WeightedRibe`` has the mixed layout's
    blocks, weights c_n and the l_p norm.  Per block n of v: its numerators,
    phi(x) = x ln|x| at each coordinate, and ``stats[n]``: the l1 and sum
    numerators, the fsums of phi and |phi|, ||v_n||_1, whether every
    coordinate is ``_moderate``, and the block's summands in a move's three
    fsums (c_n times its estimate, |c_n| times its allowance, ||v_n||_1^p).
    ``parts`` is None where the screen does not apply to v."""

    def __init__(self, v: FinSeq, inner):
        self.den, (self.weights, self.pf) = v.den, (inner._floats, inner._pf) if isinstance(inner, WeightedRibe) else (None, None)
        self.cap = 2.0 ** (1000 / self.pf) if self.pf else None  # no fsum of powers up to 2^1000 overflows midway
        self.blocks = block_entries(v) if self.weights else {0: v.nums}
        self.phi, self.stats = {}, {}
        for n, blk in self.blocks.items():
            xs = [a / v.den for a in blk.values()]
            phi = self.phi[n] = {i: x * math.log(abs(x)) for i, x in zip(blk, xs)}
            l1, total, phi_sum = sum(map(abs, blk.values())), sum(blk.values()), math.fsum(phi.values())
            head = (l1, total, phi_sum, math.fsum(map(abs, phi.values())), l1 / v.den, all(map(_moderate, xs)))
            self.stats[n] = head + (self._block(n, len(blk), head, l1, total, v.den, [phi_sum], 0.0, head[5]) or (None,) * 3)
        self.parts, self.errs, self.powers = ([s[k] for s in self.stats.values()] for k in (6, 7, 8))
        if None in self.parts or math.inf in self.powers:
            self.parts = None

    def _block(self, n, count, stats, l1, total, den, terms, new_abs, moderate):
        """Block n's summands at raw, from its number of coordinates, v's
        ``stats[n]``, its l1 and sum numerators over den and its phi terms
        (v_n's fsum, minus the old coordinates', plus the new ones', whose
        |phi| sum to new_abs); None where the screen does not apply."""
        x_raw = l1 / den
        power = (x_raw ** self.pf if x_raw <= self.cap else math.inf) if self.pf else 0.0
        if count < 2:  # a value of 0 on both paths (see ``WeightedRibe``)
            return 0.0, 0.0, power
        c, s = self.weights[n] if self.weights else 1.0, total / den
        if not (moderate and _moderate(c) and (not total or _moderate(s))):
            return None
        phi_s = s * math.log(abs(s)) if total else 0.0
        terms.append(-phi_s)
        # T bounds sum |x ln|x / g|| over raw_n by sum |phi(x)| + X |ln g|;
        # Theta and Xi count v_n's terms twice, once for the old coordinates
        today = ribe_error_bound(stats[3] + new_abs + x_raw * abs(math.log(abs(s) if total else x_raw)), x_raw)
        screen = ribe_error_bound(2 * stats[3] + new_abs + abs(phi_s), 2 * (stats[4] + x_raw))
        return c * math.fsum(terms), abs(c) * (today + screen), power

    def move(self, g: FinSeq, delta: Fraction):
        """(raw's norm to the bit, an estimate of F(raw) / F.factor, its
        allowance) for raw = v + delta g, recounting g's blocks over one lcm
        (the other summands cancel exactly in the fsums); None for the exact
        path: a block of two coordinates or more with a weight, coordinate or
        sum not moderate, a block with no weight, or a mixed raw with under
        two nonzero blocks or an ||raw_n||_1 above ``cap``."""
        if self.parts is None:
            return None
        den = math.lcm(self.den, delta.denominator * g.den)
        m, k = den // self.den, delta.numerator * (den // (delta.denominator * g.den))
        parts, errs, powers, nonzero = [], [], [], len(self.stats)
        for n, touched in (block_entries(g) if self.weights else {0: g.nums}).items():
            if self.weights and n not in self.weights:
                return None
            vb, phi, stats = self.blocks.get(n, {}), self.phi.get(n), self.stats.get(n, _NO_BLOCK)
            l1, total, terms, new_abs, count, moderate = stats[0] * m, stats[1] * m, [stats[2]], 0.0, len(vb), stats[5]
            for i, a in touched.items():
                old = vb.get(i, 0) * m
                new = old + k * a
                l1 += abs(new) - abs(old)
                total += k * a
                if old:
                    terms.append(-phi[i])
                    count -= 1
                if new:
                    x = new / den
                    t = x * math.log(abs(x))
                    terms.append(t)
                    new_abs += abs(t)
                    count += 1
                    moderate = moderate and _moderate(x)
            block = self._block(n, count, stats, l1, total, den, terms, new_abs, moderate)
            if block is None or block[2] == math.inf:
                return None
            if self.weights is None:  # Ribe's one block: the fsums below would give block[:2]
                return Fraction(l1, den), *block[:2]
            nonzero += (l1 != 0) - (n in self.stats)
            parts += (-stats[6], block[0])
            errs += (-stats[7], block[1])
            powers += (-stats[8], block[2])
        if nonzero < 2:  # the l_p norm of one block is its l1 norm: the exact path takes it
            return None
        return math.fsum(chain(self.powers, powers)) ** (1.0 / self.pf), math.fsum(chain(self.parts, parts)), math.fsum(chain(self.errs, errs))


def _coordinate_ascent(state, F, fam, cert: SumCertificate):
    """Greedy push of |F(value)| over coefficient perturbations in at most
    three passes, value norm pinned back to its target after every accepted
    move.  The value is kept alongside the certificate and updated exactly: a
    step of delta on one term adds delta times its generator, and the
    rescale multiplies the sum.  Moves that push a coefficient past 1 are
    skipped (the two largest numerators give the largest other one, and are
    found once per pass and accepted move), and only an accepted move builds
    its certificate.

    Almost every move is rejected, so on F = Scaled(Ribe or WeightedRibe) a
    move is first screened in time proportional to its generator g
    (``_RibeScreen``).  Its norm of raw = v_best + delta g is
    ``space.norm(raw)`` to the bit (an untouched block's a/den rounds as over
    v_best's den; fsum ignores order), so factor and cap test agree, and the
    move is skipped when fl(fl(|S| + E) k) <= f_best, with S the estimate of
    sum_n c_n R_n(raw) (c = 1 for Ribe), E its allowance and
    k = fl(float(F.factor) float(factor)).  No move the exact path accepts
    is skipped.  With K = F.factor * factor and T_n, X_n, Theta_n, Xi_n of
    ``_ribe_terms`` for block n of raw (blocks of one coordinate have value
    0 on both paths), the exact f_val is at most K (|sum c_n R_n| + sum |c_n|
    (10.1u T_n + 4.1u X_n)) by homogeneity.  Block n's estimate is within
    6.03u Theta_n + 4.04u Xi_n of R_n, and the product by float(c_n) and
    the fsum add 3.03u Theta_n (nothing for Ribe: c = 1.0 and one summand is
    left), so |S - sum c_n R_n| < sum |c_n| (9.07u Theta_n + 4.05u Xi_n).
    The left side is at least K (|S| + E)(1 - 5.01u), hence at least f_val
    when E exceeds sum |c_n| u (14.1 Theta_n + 4.1 Xi_n + 10.1 T_n + 4.1 X_n):
    E is sum |c_n| times the ``ribe_error_bound`` of (T_n, X_n) plus that of
    (Theta_n, Xi_n).  A surviving move takes the exact path: build, rescale,
    ``evaluate``.  With no overflow or underflow assumed, the screen runs
    only while F.factor, k and, per block of two coordinates or more, the
    weight, the coordinates at v_best and raw and raw's nonzero sum are
    ``_moderate``: then every intermediate lies between 2^-700 and 2^600.
    An accepted move rebuilds the screen.  Other functionals, and moves the
    screen declines, take the exact path, which raises where it did."""
    space = state.space
    best = cert
    v_best = certificate_value(fam, cert)
    f_best, a, d = F.value_and_norm(v_best)
    target, f_best = Fraction(a, d) if type(a) is int else a, abs(f_best)
    # the screen takes F = Scaled(Ribe or WeightedRibe) with a moderate factor; 0.0 stands for any other F
    inner = F.inner if isinstance(F, Scaled) else None
    scale = float(F.factor) if isinstance(inner, (Ribe, WeightedRibe)) else 0.0
    screen = _RibeScreen(v_best, inner) if _moderate(scale) else None
    step = Fraction(1, 64)
    for _ in range(3):
        improved = False
        *_, runner, top = 0, 0, *sorted(abs(n) for _, _, n in best.terms)
        for idx in range(len(best.terms)):
            for delta in (step, -step):
                i, j, n = best.terms[idx]
                gen = fam.gen(i, j)
                screened = screen.move(gen, delta) if screen is not None else None
                if screened is None:
                    raw = v_best + gen * delta
                    nv = space.norm(raw)
                else:
                    nv, estimate, allowance = screened
                if not nv:
                    continue
                factor = _exact_scale(target, nv)
                # the moved coefficient n / den + delta (delta = +-1/64) over den * 64
                den, moved = best.den * 64, n * 64 + best.den * delta.numerator
                rest = runner if abs(n) == top else top  # the largest numerator of the other terms
                if max(rest * 64, abs(moved)) * abs(factor.numerator) > den * factor.denominator:
                    continue
                if screened is not None:
                    k = scale * float(factor)
                    if _moderate(k) and (abs(estimate) + allowance) * k <= f_best:
                        continue
                    raw = v_best + gen * delta
                v_cand = raw * factor
                f_val = abs(evaluate(F, v_cand))
                if f_val > f_best:
                    terms = [(a, b, m * 64) for a, b, m in best.terms]
                    terms[idx] = (i, j, moved)
                    best = scale_certificate(SumCertificate(tuple(terms), den), factor)
                    *_, runner, top = 0, 0, *sorted(abs(m) for _, _, m in best.terms)
                    v_best, f_best = v_cand, f_val
                    if screen is not None:
                        screen = _RibeScreen(v_best, inner)
                    improved = True
        if not improved:
            break
    return best, f_best
