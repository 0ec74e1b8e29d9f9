import itertools
import math
import random
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import twistlab as tl
from twistlab import FinSeq, MixedSeq, oracles
from twistlab.exact_lp import LPResult, solve_lp
from twistlab.oracles import (
    EXACT_ORTHANT_CAP,
    INTERIOR,
    PATTERN_CAP,
    OracleReport,
    _RibeScreen,
    _analyze_negsum,
    _coordinate_ascent,
    _left_inverse_min,
    _orthant_lp_min,
    _shift_right,
    min_crosspolytope_norm,
    mixed_sampler_over,
    replay_lemma5,
    seq_sampler,
    span_sampler,
)
from twistlab.quasilinear import _ribe_terms
from twistlab.seqspace import MixedSpace, SeqSpace, block_entries, disjoint_supports, vector_from_json
from twistlab.sumsets import random_certificate

from .test_exact_lp import orthant_lps, overlapping_family as cross_family
from .test_quasilinear import (
    MIXED_BASIS,
    SEQ_BASIS,
    U,
    decimal_ribe,
    decimal_terms,
    positive_ratios,
    ribe_numerators,
    within,
)


def grid_min(ys, step=64):
    """Dense search over the cross-polytope surface (the independent oracle
    for the exact modes): per sign pattern, integer grids on the simplex."""
    k = len(ys)
    best = None
    for signs in itertools.product((1, -1), repeat=k):
        for alloc in itertools.product(range(step + 1), repeat=k - 1):
            if sum(alloc) > step:
                continue
            last = step - sum(alloc)
            coeffs = [Fraction(signs[j] * a, step) for j, a in enumerate(alloc + (last,))]
            combo = FinSeq()
            for ccc, y in zip(coeffs, ys):
                combo = combo + y * ccc
            v = combo.norm()
            if best is None or v < best:
                best = v
    return best


def fraction_left_inverse(ys):
    """(V^T V)^(-1) V^T in Fractions, by textbook Gauss-Jordan on the rows
    [V^T V | V^T]; the columns of V are the vectors, its rows the positions
    in ``coords``.  Returns (L, V)."""
    coords = sorted(set().union(*(y.support for y in ys)))
    k = len(ys)
    V = [[y[c] for y in ys] for c in coords]
    rows = [[sum(line[i] * line[j] for line in V) for j in range(k)] + [line[i] for line in V] for i in range(k)]
    for c in range(k):
        p = next(i for i in range(c, k) if rows[i][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for i in range(k):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return [row[k:] for row in rows], V


def left_inverse_norm(ys):
    """The largest column l1 norm of the left inverse, checked to be one."""
    L, V = fraction_left_inverse(ys)
    k = len(ys)
    assert [[sum(L[i][r] * V[r][j] for r in range(len(V))) for j in range(k)] for i in range(k)] == [
        [int(i == j) for j in range(k)] for i in range(k)
    ]
    return max(sum(abs(L[i][j]) for i in range(k)) for j in range(len(V)))


def overlapping_family(rng, k, private=0.8):
    """k sparse vectors on two of three shared coordinates, so any two
    overlap, most with a private coordinate too; without one the family can
    be dependent."""
    ys = []
    for j in range(k):
        entries = {p: Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 3)) for p in rng.sample((1, 2, 3), 2)}
        if rng.random() < private:
            entries[10 + j] = Fraction(rng.randint(1, 4), rng.choice((1, 2, 4)))
        ys.append(FinSeq(entries))
    return ys


def combine(ys, coefficients, space):
    combo = space.zero()
    for a, y in zip(coefficients, ys):
        combo = combo + y * a
    return space.norm(combo)


def unit_mass(rng, k):
    a = [Fraction(rng.randint(-16, 16), rng.randint(1, 4)) for _ in range(k)]
    a[rng.randrange(k)] += 1
    mass = sum(map(abs, a))
    return [v / mass for v in a]


class TestCrossPolytope:
    def test_disjoint_exact(self):
        ys = [FinSeq({1: 1}), FinSeq({2: Fraction(1, 2)})]
        res = min_crosspolytope_norm(ys)
        assert res.value == Fraction(1, 2)
        assert res.method == "exact"
        assert res.minimizer == [0, 1]

    def test_single(self):
        res = min_crosspolytope_norm([FinSeq({3: -4, 5: 1})])
        assert res.value == 5

    def test_dependent_pair_cancels(self):
        res = min_crosspolytope_norm([FinSeq.unit(1), FinSeq.unit(1)])
        assert res.value == 0
        assert sorted(res.minimizer) == [Fraction(-1, 2), Fraction(1, 2)]

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            min_crosspolytope_norm([FinSeq()])

    def test_exact_matches_grid_k2(self):
        rng = random.Random(5)
        for _ in range(6):
            ys = [seq_sampler(rng) for _ in range(2)]
            if any(not y for y in ys):
                continue
            res = min_crosspolytope_norm(ys)
            g = grid_min(ys, 64)
            lip = max(float(y.norm()) for y in ys)
            assert float(res.value) <= float(g) + 1e-12
            assert float(g) - float(res.value) <= lip * 2 / 64 + 1e-9

    def test_exact_matches_grid_k3(self):
        rng = random.Random(9)
        for _ in range(3):
            ys = [seq_sampler(rng) for _ in range(3)]
            if any(not y for y in ys):
                continue
            res = min_crosspolytope_norm(ys)
            g = grid_min(ys, 16)
            lip = max(float(y.norm()) for y in ys)
            assert float(res.value) <= float(g) + 1e-12
            assert float(g) - float(res.value) <= lip * 3 / 16 + 1e-9

    def test_orthant_lps_match_highs_k4_to_k6(self):
        # overlapping families past the grid tests' reach, against one float
        # HiGHS LP per sign orthant: min sum u s.t. -u <= V sigma t <= u,
        # sum t = 1, t >= 0
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = random.Random(41)
        for trial in range(40):
            k = 4 + trial % 3
            ys = []
            for j in range(k):
                # a private coordinate, and two of three shared ones so any
                # two vectors overlap; sometimes no private one, so that
                # dependent families (minimum 0) come up too
                shared = rng.sample((1, 2, 3), 2)
                entries = {p: Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 3)) for p in shared}
                if rng.random() < 0.8:
                    entries[10 + j] = Fraction(rng.randint(1, 4), rng.choice((1, 2, 4)))
                ys.append(FinSeq(entries))
            assert not disjoint_supports(*ys)
            res = min_crosspolytope_norm(ys)
            assert res.method == "exact"
            coords = sorted(set().union(*(y.support for y in ys)))
            d = len(coords)
            ref = math.inf
            for signs in itertools.product((1, -1), repeat=k - 1):
                V = [[float(s * y[c]) for s, y in zip((1,) + signs, ys)] for c in coords]
                eye = [[-float(i == r) for i in range(d)] for r in range(d)]
                out = linprog(
                    [0.0] * k + [1.0] * d,
                    A_ub=[row + e for row, e in zip(V, eye)] + [[-v for v in row] + e for row, e in zip(V, eye)],
                    b_ub=[0.0] * (2 * d),
                    A_eq=[[1.0] * k + [0.0] * d],
                    b_eq=[1.0],
                    bounds=[(0, None)] * (k + d),
                    method="highs",
                )
                assert out.status == 0
                ref = min(ref, out.fun)
            assert float(res.value) == pytest.approx(ref, abs=1e-9)
            assert sum(abs(a) for a in res.minimizer) == 1
            combo = FinSeq()
            for a, y in zip(res.minimizer, ys):
                combo = combo + y * a
            assert combo.norm() == res.value

    def test_exact_at_the_orthant_cap(self):
        # 8 overlapping vectors (128 orthant LPs); the value and minimizer are
        # those the dense Fraction simplex returned on this family
        rows = [
            {1: 4, 9: "3/4", 10: "-3/8"},
            {2: "3/2", 9: 3, 10: "-7/8"},
            {3: 6, 10: 1, 11: 5},
            {4: 2, 9: "3/4", 10: 5},
            {5: "1/8", 9: "1/4", 10: "3/8"},
            {6: "3/2", 10: "-7/8", 11: "3/2"},
            {7: "7/8", 9: -1, 10: "-7/4"},
            {8: 3, 10: -1, 11: -1},
        ]
        ys = [FinSeq({p: Fraction(v) for p, v in row.items()}) for row in rows]
        assert len(ys) == EXACT_ORTHANT_CAP
        res = min_crosspolytope_norm(ys)
        assert res.method == "exact"
        assert res.value == Fraction(521, 1928)
        assert res.minimizer == [Fraction(v) for v in ("0", "2/241", "0", "0", "-196/241", "0", "-43/241", "0")]
        combo = FinSeq()
        for a, y in zip(res.minimizer, ys):
            combo = combo + y * a
        assert combo.norm() == res.value

    def test_orthant_lp_failure_is_raised(self, monkeypatch):
        # every orthant LP is feasible and bounded, so any other status is a
        # solver fault that must not drop the orthant from an exact minimum;
        # y_2 = -y_1 ties the winner's optimum, so its cold solve runs
        monkeypatch.setattr(oracles, "solve_lp", lambda c, A, b: LPResult("infeasible", None, None))
        with pytest.raises(RuntimeError, match="orthant LP"):
            min_crosspolytope_norm([FinSeq({2: -1, 3: -1}), FinSeq({2: 1, 3: 1})])

    def test_warm_orthant_lp_failure_is_raised(self, monkeypatch):
        # the Gray-code walk runs phase 2 itself: a status other than optimal
        # there is a solver fault too
        monkeypatch.setattr(oracles, "_run_simplex", lambda T, basis, m, n: "unbounded")
        with pytest.raises(RuntimeError, match="orthant LP .* unbounded"):
            min_crosspolytope_norm([FinSeq({1: 1, 2: 1}), FinSeq({2: 1, 3: 1})])

    def test_one_cold_solve_per_minimum(self, monkeypatch):
        # the walk runs phase 2 only; the two-phase solve_lp runs only on a
        # winning orthant whose optimum is not unique, and then once
        calls = []
        solve = oracles.solve_lp
        monkeypatch.setattr(oracles, "solve_lp", lambda c, A, b: calls.append(1) or solve(c, A, b))
        rng = random.Random(8)
        for k in range(2, EXACT_ORTHANT_CAP + 1):
            calls.clear()
            _orthant_lp_min(overlapping_family(rng, k))
            assert calls == []
        _orthant_lp_min([FinSeq({2: -1, 3: -1}), FinSeq({2: 1, 3: 1})])
        assert calls == [1]

    def test_walk_minimizer_matches_the_cold_winner(self, monkeypatch):
        # the minimizer read off the walk's tableau is the one the cold
        # solve of the winning orthant returns, and both paths run
        solve = oracles.solve_lp
        calls = []
        monkeypatch.setattr(oracles, "solve_lp", lambda c, A, b: calls.append(1) or solve(c, A, b))
        rng = random.Random(24)
        shapes = ("no private coordinates", "one shared coordinate", "one vector all private", "dependent", "tied")
        families = [orthant_family(rng, 2 + t % 5, t % 5)[1] for t in range(40)]
        families += [fold_family(rng, 4 + t % 2, shape) for t in range(4) for shape in shapes]
        families += [cross_family(rng, 3 + t % 4) for t in range(12)]
        paths = Counter()
        for ys in families:
            calls.clear()
            got = _orthant_lp_min(ys)
            value, minimizer, _ = reference_orthant_min(ys)
            assert got == (value, minimizer), ys
            paths["cold" if calls else "walk"] += 1
        assert paths["cold"] >= 5 and paths["walk"] >= 40, paths

    def test_minimizer_off_the_value_is_raised(self, monkeypatch):
        # a tied winner's cold minimizer that does not attain the walk's
        # value, or does not have unit mass, trips the attainment check
        ys = [FinSeq({2: -1, 3: -1}), FinSeq({2: 1, 3: 1})]
        for x in ([Fraction(1), Fraction(0)], [Fraction(1, 4), Fraction(1, 4)]):
            monkeypatch.setattr(oracles, "solve_lp", lambda c, A, b, x=x: LPResult("optimal", Fraction(0), x + [Fraction(0)] * 4))
            with pytest.raises(RuntimeError, match="orthant LP .* minimizer"):
                _orthant_lp_min(ys)

    def test_walk_matches_the_per_orthant_loop(self):
        rng = random.Random(16)
        kinds = Counter()
        for trial in range(161):
            k = 2 + trial % 7
            kind, ys = orthant_family(rng, k, trial % 5)
            got = _orthant_lp_min(ys)
            *ref, attaining = reference_orthant_min(ys)
            assert got == tuple(ref), (kind, ys)
            kinds[kind] += 1
            kinds["zero minimum"] += got[0] == 0
            kinds["tied orthant minima"] += attaining > 1
        assert min(kinds.values()) >= 10, kinds

    @pytest.mark.parametrize(
        "shape, k, trials",
        [
            ("no private coordinates", 5, 12),
            ("one shared coordinate", 6, 12),
            ("one vector all private", 6, 12),
            ("dependent", 5, 12),
            ("tied", 5, 12),
            ("chain", 8, 2),
        ],
    )
    def test_fold_matches_the_per_orthant_loop(self, shape, k, trials):
        # the walk folds each coordinate one vector owns into that vector's
        # cost; every shape keeps the cold loop's value and minimizer
        rng = random.Random(shape)
        tied = zero = 0
        for _ in range(trials):
            ys = fold_family(rng, k, shape)
            owners = Counter(c for y in ys for c in y.support)
            shared = [c for c, n in owners.items() if n > 1]
            if shape == "no private coordinates":
                assert len(shared) == len(owners)
            elif shape == "one shared coordinate":
                assert len(shared) == 1 and all(len(y.support) > 1 for y in ys)
            elif shape == "one vector all private":
                assert sum(all(owners[c] == 1 for c in y.support) for y in ys) == 1
            got = _orthant_lp_min(ys)
            *ref, attaining = reference_orthant_min(ys)
            assert got == tuple(ref), (shape, ys)
            tied += attaining > 1
            zero += got[0] == 0
        if shape == "dependent":
            assert zero == trials
        if shape == "tied":
            assert tied >= trials // 2

    def test_bounded_above_the_cap(self):
        # an overlapping chain of 9 vectors takes the left-inverse bound:
        # positive, and no more than the value 2 of any single vector
        ys = [FinSeq({i: 1, i + 1: 1}) for i in range(1, 10)]
        res = min_crosspolytope_norm(ys)
        assert res.method == "bounded"
        assert isinstance(res.value, Fraction) and 0 < res.value <= 2
        assert sum(map(abs, res.minimizer)) == 1

    def test_left_inverse_bound_below_the_orthant_minimum(self):
        # on families the orthant LPs solve exactly, the left-inverse bound
        # is 1/||L|| for L = (V^T V)^(-1) V^T and never above the minimum
        rng = random.Random(23)
        dependent = 0
        for trial in range(42):
            ys = overlapping_family(rng, 2 + trial % 7, private=0.5)
            exact, _ = _orthant_lp_min(ys)
            res = _left_inverse_min(ys)
            assert res.value <= exact
            assert sum(map(abs, res.minimizer)) == 1
            assert combine(ys, res.minimizer, SeqSpace()) >= res.value
            if res.method == "exact":
                dependent += 1
                assert res.value == exact == 0
            else:
                assert res.value == 1 / left_inverse_norm(ys)
        assert dependent

    def test_bounded_below_sampled_norms(self):
        # past the orthant cap (l1) and on mixed families that share blocks
        # (either side of the cap), the value is below every sampled
        # unit-mass combination, the reported minimizer's included
        rng = random.Random(31)
        for trial in range(12):
            k = 9 + trial % 4
            ys = overlapping_family(rng, k, private=1)
            res = min_crosspolytope_norm(ys)
            assert res.method == "bounded" and isinstance(res.value, Fraction)
            for a in [res.minimizer] + [unit_mass(rng, k) for _ in range(30)]:
                assert res.value <= combine(ys, a, SeqSpace())
        for trial in range(24):
            k = 2 + trial % 11
            space = MixedSpace([Fraction(3, 2), 2, 3][trial % 3])
            # two of blocks 1-5 each, one entry pinned nonzero
            ys = []
            for _ in range(k):
                blocks = {n: [Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(n)] for n in rng.sample(range(1, 6), 2)}
                blocks[min(blocks)][0] = rng.choice((-1, 1))
                ys.append(MixedSeq(blocks))
            res = min_crosspolytope_norm(ys, space=space)
            assert res.method == "bounded" and isinstance(res.value, float)
            for a in [res.minimizer] + [unit_mass(rng, k) for _ in range(30)]:
                assert res.value <= combine(ys, a, space) * (1 + 1e-12)

    def test_dependent_family_above_the_cap(self):
        # 10 overlapping vectors, the last a combination of three others:
        # the left-inverse path finds the exact minimum 0 and a null vector
        rng = random.Random(4)
        ys = overlapping_family(rng, 9, private=1)
        ys.append(ys[0] - ys[3] * 2 + ys[7] / 2)
        for space in (SeqSpace(), MixedSpace(2)):
            vecs = ys if isinstance(space, SeqSpace) else [MixedSeq._raw(dict(y.nums), y.den) for y in ys]
            res = min_crosspolytope_norm(vecs, space=space)
            assert res.method == "exact" and res.value == 0
            assert sum(map(abs, res.minimizer)) == 1
            assert combine(vecs, res.minimizer, space) == 0

    def test_mixed_block_disjoint_closed_form(self):
        ys = [MixedSeq.unit(1, 1), MixedSeq.unit(2, 1)]
        res = min_crosspolytope_norm(ys, space=MixedSpace(2))
        assert res.method == "exact"
        assert res.value == pytest.approx(1 / math.sqrt(2), rel=1e-12)



class TestLemma5Adversary:
    def test_healthy_level(self, state4):
        for n in range(1, 5):
            rep = tl.lemma5_adversary(state4.level_z(n), 2 ** n, state4.c[n])
            assert rep.best_violation < 0
            assert rep.method == "exact"

    def test_structured_mass_formula(self, state4):
        # equal-norm disjoint family with balancing vector: best mass is
        # budget * k / (m_n * min-norm) with the pattern dropping one of the
        # disjoint vectors
        n = 2
        rep = tl.lemma5_adversary(state4.level_z(n), 4, state4.c[n])
        expected = (3 - 1e-9) * 4 / state4.m[n]
        assert rep.best_value == pytest.approx(expected, rel=1e-9)

    def test_structure_detection(self, state4):
        kind, d = _analyze_negsum(state4.level_z(2))
        assert kind == "negsum" and d == 4

    def test_monotone_in_k(self, state4):
        zs = state4.level_z(2)
        masses = [tl.lemma5_adversary(zs, k, state4.c[2]).best_value for k in range(0, 5)]
        assert masses == sorted(masses)

    def test_tampered_multiplier_detected(self, ribe_normalized):
        xs, ds = tl.make_case_a_inputs(2, 2)
        bad = tl.run_construction(ribe_normalized, xs, ds, 2, m_override={2: 1}, verify_levels=False)
        rep = tl.lemma5_adversary(bad.level_z(2), 4, bad.c[2])
        assert rep.best_violation > 0

    def test_witness_replayable(self, state4):
        for n in (1, 3):
            zs = state4.level_z(n)
            rep = tl.lemma5_adversary(zs, 2 ** n, state4.c[n])
            mass, nrm = replay_lemma5(zs, rep.witness)
            assert mass == pytest.approx(rep.best_value, abs=1e-12)
            assert nrm <= 3 - 1e-9 + 1e-12

    def test_deepest_level_is_exhaustive(self):
        # the shape of a depth-12 level: 4096 disjoint vectors and the one
        # balancing them, 4097 leave-one-out patterns, every one searched
        zs = [FinSeq({i: 1}) for i in range(1, 4097)]
        zs.append(FinSeq({i: -1 for i in range(1, 4097)}))
        rep = tl.lemma5_adversary(zs, 4096, Fraction(1, 2 ** 15))
        assert rep.method == "exact"
        assert rep.trials == 4097 == PATTERN_CAP
        assert "patterns exhaustive" in rep.notes
        # omitting one unit vector leaves the balancing vector plus 4095
        # others: weight 1/4096 on each costs norm 1/4096
        assert rep.best_value == pytest.approx(float((3 - INTERIOR) * 4096), rel=1e-12)
        assert rep.witness["pattern"] == list(range(4095)) + [4096]

    def test_too_many_patterns_are_refused(self):
        zs = [FinSeq({i: 1}) for i in range(1, 21)]
        assert math.comb(20, 10) > PATTERN_CAP
        rep = tl.lemma5_adversary(zs, 10, Fraction(1, 16))
        assert rep.best_violation == float("inf")
        assert rep.witness is None
        assert rep.trials == 0
        assert rep.method == "refused"
        assert str(math.comb(20, 10)) in rep.notes and str(PATTERN_CAP) in rep.notes

    def test_k_zero(self, state4):
        rep = tl.lemma5_adversary(state4.level_z(1), 0, state4.c[1])
        assert rep.best_value == 0.0
        assert rep.best_violation < 0

    def test_structured_nonuniform_matches_lp(self):
        # unequal norms exercise the saturation breakpoints of the closed
        # form; the orthant LP is the independent route
        zs = [FinSeq({1: 2}), FinSeq({2: 1, 3: -2}), FinSeq({5: 4}), FinSeq({7: Fraction(1, 2)})]
        balance = FinSeq()
        for z in zs:
            balance = balance - z
        zs.append(balance)
        eta = Fraction(1, 16)
        rep = tl.lemma5_adversary(zs, 4, eta)
        assert rep.method == "exact"
        t_budget = Fraction(3) - Fraction(1, 10 ** 9)
        best = Fraction(0)
        for pattern in itertools.combinations(range(5), 4):
            val, _ = _orthant_lp_min([zs[j] for j in pattern])
            best = max(best, t_budget / val)
        assert rep.best_value == pytest.approx(float(best), rel=1e-12)

    def test_exhaustive_patterns_against_brute_force(self, state4):
        # cross-check the structured closed form against orthant LPs on the
        # small level (5 vectors, patterns of size 4)
        zs = state4.level_z(2)
        rep = tl.lemma5_adversary(zs, 4, state4.c[2])
        best = 0
        for pattern in itertools.combinations(range(5), 4):
            sub = [zs[j] for j in pattern]
            res = min_crosspolytope_norm(sub)
            assert res.method == "exact"
            mass = (Fraction(3) - Fraction(1, 10 ** 9)) / res.value
            best = max(best, mass)
        assert rep.best_value == pytest.approx(float(best), rel=1e-12)


# --- reference: one cold two-phase LP per sign orthant ------------------------


def reference_orthant_min(ys):
    """The orthant loop the Gray-code walk replaced: every orthant solved
    from an all-artificial basis, the first least one kept.  Returns the
    minimum, its minimizer and how many orthants attain it."""
    best = best_alpha = None
    attaining = 0
    for sigma, c, A, b in orthant_lps(ys):
        res = solve_lp(c, A, b)
        assert res.status == "optimal"
        if best is None or res.objective < best:
            best, attaining = res.objective, 0
            best_alpha = [s * x for s, x in zip(sigma, res.x)]
        attaining += res.objective == best
    return best, best_alpha, attaining


def orthant_family(rng, k, kind):
    """A family of k vectors of one of five kinds, each hard on the walk in
    its own way: overlapping vectors that are sometimes dependent; a repeated
    vector, possibly scaled (minimum 0); small integer entries on three
    coordinates, whose orthant minima tie; a first vector on one coordinate
    only, so the starting basis has zero right sides; and chains."""
    if kind == 0:
        return "overlapping", overlapping_family(rng, k, private=0.5)
    if kind == 1:
        ys = overlapping_family(rng, k - 1, private=0.8)
        ys.insert(rng.randrange(k), ys[rng.randrange(k - 1)] * rng.choice((1, -1, 2, Fraction(-1, 2))))
        return "duplicate", ys
    if kind == 2:
        ys = []
        while len(ys) < k:
            y = FinSeq({c: rng.choice((-1, 0, 1, 2)) for c in (1, 2, 3)})
            if y:
                ys.append(y)
        return "ties", ys
    if kind == 3:
        ys = overlapping_family(rng, k, private=1)
        ys[0] = FinSeq({rng.choice((1, 2, 3)): Fraction(rng.randint(1, 5), rng.randint(1, 3))})
        return "zero right sides", ys
    return "chain", [FinSeq({i: 1, i + 1: Fraction(rng.randint(-3, 3) or 1, 2)}) for i in range(1, k + 1)]


def fold_family(rng, k, shape):
    """k vectors of one shape for the walk's fold of private coordinates: a
    cycle on k coordinates, each shared by two vectors, as in the golden
    crosspolytope report; private coordinates around one shared by all; an
    overlapping family and one vector on private coordinates only, whose
    column is zero in every kept row; k - 1 vectors on three coordinates
    and a combination of two of them, at times with a private coordinate
    (dependent); small integer entries whose orthant minima tie, private
    coordinates included; and the chain of the custom construction, y_i on
    {3i+1, 3i+2, 3i+4}."""

    def entry():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 4))

    if shape == "no private coordinates":
        return [FinSeq({j + 1: entry(), (j + 1) % k + 1: entry()}) for j in range(k)]
    if shape == "one shared coordinate":
        return [FinSeq({1: entry(), **{10 * j + i: entry() for i in range(1, rng.randint(2, 4))}}) for j in range(1, k + 1)]
    if shape == "one vector all private":
        ys = overlapping_family(rng, k - 1, private=0.5)
        ys.insert(rng.randrange(k), FinSeq({100 + i: entry() for i in range(rng.randint(1, 3))}))
        return ys
    if shape == "dependent":
        ys = overlapping_family(rng, k - 1, private=0)
        return ys + [FinSeq({10 + j: entry() for j in range(rng.randint(0, 1))}) + ys[0] * entry() - ys[1]]
    if shape == "tied":
        ys = []
        while len(ys) < k:
            y = FinSeq({c: rng.choice((-1, 0, 1)) for c in (1, 2, 3)})
            if y:
                ys.append(y + FinSeq({10 + len(ys): rng.choice((0, 1))}))
        return ys
    return [FinSeq({3 * i + 1: entry(), 3 * i + 2: entry(), 3 * i + 4: entry()}) for i in range(k)]


# --- reference: the per-pattern level-mass search, candidate by candidate ----


def reference_analyze_negsum(zs, space):
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


def reference_negsum_min(norms, others_in, omitted_norm_sum):
    """Every breakpoint candidate: one vector, or the m largest saturated."""
    candidates = []
    a_sorted = sorted((norms[j] for j in others_in), reverse=True)
    if a_sorted:
        candidates.append((min(a_sorted), ("single", None)))
    suffix = [Fraction(0)]
    for a in reversed(a_sorted):
        suffix.append(suffix[-1] + a)
    for m_sat in range(len(a_sorted) + 1):
        rest = suffix[len(a_sorted) - m_sat]
        candidates.append(((omitted_norm_sum + rest) / (m_sat + 1), ("saturate", m_sat)))
    return min(candidates, key=lambda c: c[0])


def reference_witness_alpha(norms, pattern, d, shape, k_total):
    alpha = [Fraction(0)] * k_total
    others = [j for j in pattern if j != d]
    kind, m_sat = shape
    if kind == "single":
        alpha[min(others, key=lambda i: norms[i])] = Fraction(1)
        return alpha
    beta = Fraction(1, m_sat + 1)
    alpha[d] = beta
    for j in sorted(others, key=lambda i: norms[i], reverse=True)[:m_sat]:
        alpha[j] = beta
    return alpha


def reference_lemma5(zs, k, eta, *, space=None, seed=0):
    """The mass adversary as one search per pattern, re-sorting and summing
    from scratch and building every pattern's witness."""
    eta = Fraction(eta)
    space = space or SeqSpace()
    N = len(zs)
    k = min(k, N)
    budget = Fraction(3) - INTERIOR
    if k == 0 or N == 0:
        return OracleReport(
            "level_mass", float(-eta), 0.0, float(eta), {"pattern": [], "coefficients": []}, 0, seed, "exact", "no nonzeros allowed"
        )
    kind, d = reference_analyze_negsum(zs, space)
    norms = [space.norm(z) for z in zs]
    l1 = [z.norm() for z in zs]
    exact_space = isinstance(space, SeqSpace)
    best_mass = best_alpha = best_pattern = None
    methods = set()
    count = 0
    for pattern in itertools.combinations(range(N), k):
        count += 1
        alpha = [Fraction(0)] * N
        if exact_space and (kind == "disjoint" or (kind == "negsum" and d not in pattern)):
            j0 = min(pattern, key=lambda j: norms[j])
            mn = norms[j0]
            alpha[j0] = Fraction(1)
            methods.add("exact")
        elif kind == "negsum" and d in pattern:
            gauges = norms if exact_space else l1
            others_in = [j for j in pattern if j != d]
            omitted = sum((gauges[j] for j in range(N) if j != d and j not in pattern), Fraction(0))
            mn, shape = reference_negsum_min(gauges, others_in, omitted)
            alpha = reference_witness_alpha(gauges, pattern, d, shape, N)
            if exact_space:
                methods.add("exact")
            else:
                blocks = set().union(*(set(block_entries(zs[j])) for j in pattern))
                q = float(space.p) / (float(space.p) - 1.0)
                mn = float(mn) * (len(blocks) or 1) ** (-1.0 / q)
                methods.add("bounded")
        elif not all(zs[j] for j in pattern):
            # a kept zero vector: the combination vanishes on it alone
            mn = Fraction(0)
            alpha[next(j for j in pattern if not zs[j])] = Fraction(1)
        else:
            res = min_crosspolytope_norm([zs[j] for j in pattern], space=space)
            mn = res.value
            for j, a in zip(pattern, res.minimizer):
                alpha[j] = a
            methods.add(res.method)
        if mn == 0:
            best_mass, best_alpha, best_pattern = None, alpha, pattern
            break
        mass = budget / mn if isinstance(mn, Fraction) else float(budget) / mn
        if best_mass is None or mass > best_mass:
            best_mass, best_alpha, best_pattern = mass, alpha, pattern
    if best_mass is None:
        return OracleReport(
            "level_mass",
            float("inf"),
            float("inf"),
            float(eta),
            {"pattern": list(best_pattern), "coefficients": [str(a) for a in best_alpha]},
            count,
            seed,
            "exact",
            "combined vector vanished: coefficient mass is unbounded",
        )
    alpha_exact = [Fraction(a) for a in best_alpha]
    combined = space.zero()
    for a, z in zip(alpha_exact, zs):
        if a:
            combined = combined + z * a
    wnorm = space.norm(combined)
    if isinstance(wnorm, Fraction):
        wscale = budget / wnorm if wnorm else Fraction(1)
    else:
        wscale = Fraction(float(budget) / wnorm) * (1 - Fraction(1, 2 ** 30)) if wnorm else Fraction(1)
    r = [a * wscale for a in alpha_exact]
    witness = {"pattern": list(best_pattern), "coefficients": ["%s" % c for c in r], "mass": float(sum(map(abs, r), Fraction(0)))}
    method = "exact" if methods <= {"exact"} else "bounded" if methods <= {"exact", "bounded"} else "heuristic"
    return OracleReport(
        "level_mass",
        float(best_mass - eta) if isinstance(best_mass, Fraction) else float(best_mass) - float(eta),
        float(best_mass),
        float(eta),
        witness,
        count,
        seed,
        method,
        "patterns exhaustive, budget %s" % float(budget),
    )


def random_negsum_family(rng, mixed=False, balance=True):
    """Pairwise disjoint vectors, then (with ``balance``) the vector summing
    them to zero inserted at a random position.  Small value sets make tied
    norms common; mixed families share blocks between vectors at disjoint
    positions."""
    size = rng.randint(1, 6)
    values = rng.choice([(1,), (1, -1), (1, 2, Fraction(1, 2), -3)])
    if mixed:
        cells = [(n, i) for n in range(1, 7) for i in range(1, n + 1)]
    else:
        cells = list(range(1, 25))
    rng.shuffle(cells)
    zs = []
    for _ in range(size):
        take = [cells.pop() for _ in range(rng.randint(0 if rng.random() < 0.1 else 1, 2))]
        if mixed:
            blocks = {}
            for n, i in take:
                blocks.setdefault(n, [0] * n)[i - 1] = rng.choice(values)
            zs.append(MixedSeq(blocks))
        else:
            zs.append(FinSeq({c: rng.choice(values) for c in take}))
    if balance:
        total = zs[0] * 0
        for z in zs:
            total = total + z
        zs.insert(rng.randint(0, len(zs)), -total)
    return zs


def block_disjoint_negsum_family(rng, zero=False):
    """Mixed vectors each in blocks of its own, then (inserted at random) the
    vector d balancing them to zero; with ``zero`` a zero vector joins too."""
    blocks = list(range(1, 11))
    rng.shuffle(blocks)
    zs = []
    for _ in range(rng.randint(1, 5)):
        vec = {}
        for n in [blocks.pop() for _ in range(rng.randint(1, 2))]:
            vec[n] = [rng.choice([0, 1, -1, 2, Fraction(1, 2)]) for _ in range(n)]
            vec[n][rng.randrange(n)] = rng.choice([1, -3])
        zs.append(MixedSeq(vec))
    total = MixedSeq()
    for z in zs:
        total = total + z
    zs.insert(rng.randint(0, len(zs)), -total)
    if zero:
        zs.insert(rng.randint(0, len(zs)), MixedSeq())
    return zs


def outcome(search, *args, **kwargs):
    """The report's JSON, or the error raised."""
    try:
        return search(*args, **kwargs).to_json()
    except ValueError as exc:
        return str(exc)


class TestLemma5AgainstReference:
    """The closed-form search reports exactly what the per-pattern reference
    reports: masses, witnesses, pattern counts and methods."""

    @staticmethod
    def check(zs, ks, space, seed):
        assert _analyze_negsum(zs) == reference_analyze_negsum(zs, space)
        eta = Fraction(1, 16 << seed % 7)
        for k in ks:
            args = (zs, k, eta)
            kw = dict(space=space, seed=seed)
            assert outcome(tl.lemma5_adversary, *args, **kw) == outcome(reference_lemma5, *args, **kw), (seed, k)

    def test_random_seq_families(self):
        rng = random.Random(7)
        kinds = set()
        for trial in range(60):
            zs = random_negsum_family(rng, balance=trial % 6 != 0)
            kinds.add(_analyze_negsum(zs)[0])
            self.check(zs, range(len(zs) + 2), SeqSpace(), trial)
        assert kinds == {"negsum", "disjoint"}

    def test_random_mixed_families(self):
        # patterns without the balancing vector take the orthant LPs times
        # the block relaxation when blocks are shared, so k stays near N
        rng = random.Random(11)
        methods = set()
        for trial in range(12):
            zs = random_negsum_family(rng, mixed=True)
            N = len(zs)
            self.check(zs, sorted({0, 1, N - 1, N, N + 1}), MixedSpace(2 + trial % 2), trial)
            rep = outcome(tl.lemma5_adversary, zs, N - 1, Fraction(1, 16), space=MixedSpace(2))
            methods.add(rep["method"] if isinstance(rep, dict) else rep)
        assert "bounded" in methods

    def test_generic_family(self):
        rng = random.Random(3)
        for trial in range(2):
            zs = [seq_sampler(rng) for _ in range(4)]
            zs = [z for z in zs if z]
            assert _analyze_negsum(zs) == reference_analyze_negsum(zs, SeqSpace())
            for k in range(len(zs) + 1):
                assert tl.lemma5_adversary(zs, k, Fraction(1, 16)).to_json() == reference_lemma5(zs, k, Fraction(1, 16)).to_json()

    def test_level_family(self, state4):
        for n in range(1, 5):
            zs = state4.level_z(n)
            got = tl.lemma5_adversary(zs, 2 ** n, state4.c[n])
            assert got.to_json() == reference_lemma5(zs, 2 ** n, state4.c[n]).to_json()

    def test_mixed_bounded_families(self):
        # vectors in blocks of their own, balanced by d across all of them:
        # patterns keeping d are bounded, the others take the block-disjoint
        # closed form, so every mass is a float
        rng = random.Random(5)
        methods = set()
        for trial in range(40):
            zs = block_disjoint_negsum_family(rng)
            space = MixedSpace([Fraction(3, 2), 2, 3][trial % 3])
            self.check(zs, range(len(zs) + 1), space, trial)
            methods.update(tl.lemma5_adversary(zs, k, Fraction(1, 16), space=space).method for k in range(1, len(zs)))
        # (k = N keeps the whole dependent family: unbounded mass)
        assert methods == {"bounded"}

    def test_generic_family_with_float_minima(self, monkeypatch):
        # with the orthant cap lowered to 2, overlapping patterns of three
        # vectors take the left-inverse bound and disjoint ones the exact
        # closed form, so bounded and exact masses compete in one search
        monkeypatch.setattr(oracles, "EXACT_ORTHANT_CAP", 2)
        rng = random.Random(9)
        methods = set()
        for trial in range(6):
            zs = [FinSeq({2 * i + 1: rng.choice([1, 2, Fraction(1, 3)]), 2 * i + 2: rng.choice([-1, 3])}) for i in range(4)]
            zs.insert(rng.randint(0, 4), FinSeq({rng.choice([1, 2]): 1, rng.choice([3, 4]): -2, 9: Fraction(1, 2)}))
            assert _analyze_negsum(zs) == ("generic", None)
            got = tl.lemma5_adversary(zs, 3, Fraction(1, 16), seed=trial)
            assert got.to_json() == reference_lemma5(zs, 3, Fraction(1, 16), seed=trial).to_json()
            methods.add(got.method)
        assert methods == {"bounded"}

    def test_tied_gauges(self):
        # equal gauges everywhere; with three unit vectors and k = 2 a
        # pattern keeping d has its single vector (gauge 1) tie the
        # saturated cost (2 / 2), and the single vector wins the tie
        d_first = [FinSeq({1: -1, 2: 1, 3: -1}), FinSeq({3: 1}), FinSeq({1: 1}), FinSeq({2: -1})]
        for zs in (
            [FinSeq({1: 1}), FinSeq({2: -1}), FinSeq({3: 1}), FinSeq({1: -1, 2: 1, 3: -1})],
            d_first,
            [FinSeq({2 * i - 1: Fraction(1, 2), 2 * i: Fraction(-1, 2)}) for i in range(1, 6)],
        ):
            self.check(zs, range(len(zs) + 2), SeqSpace(), 0)
        got = tl.lemma5_adversary(d_first, 2, Fraction(1, 16))
        assert got.witness["pattern"] == [0, 1] and got.witness["coefficients"][:2] == ["0", "2999999999/1000000000"]

    def test_zero_gauges(self):
        # a zero vector makes its patterns' minimum 0: the search stops there
        # with unbounded mass, whether or not the pattern keeps d
        for zs in (
            [FinSeq(), FinSeq({1: 1}), FinSeq({1: -1})],
            [FinSeq({1: 1}), FinSeq({1: -1}), FinSeq(), FinSeq({2: 3}), FinSeq({2: -3})],
            [FinSeq({1: 2}), FinSeq(), FinSeq({2: 1}), FinSeq({1: -2, 2: -1})],
            [FinSeq(), FinSeq()],
        ):
            self.check(zs, range(len(zs) + 1), SeqSpace(), 0)
        rng = random.Random(13)
        for trial in range(8):
            zs = block_disjoint_negsum_family(rng, zero=True)
            self.check(zs, range(len(zs) + 1), MixedSpace(2), trial)

    def test_three_owners_are_generic(self):
        zs = [FinSeq({1: 1}), FinSeq({1: 1}), FinSeq({1: -2})]
        assert _analyze_negsum(zs) == ("generic", None)

    def test_two_balancing_candidates_pick_the_smaller(self):
        zs = [FinSeq(), FinSeq({3: 2}), FinSeq({3: -2}), FinSeq({5: 1, 6: 1}), FinSeq({5: -1, 6: -1})]
        assert reference_analyze_negsum(zs, SeqSpace()) == ("generic", None)
        zs = zs[:3]
        assert _analyze_negsum(zs) == reference_analyze_negsum(zs, SeqSpace()) == ("negsum", 1)

    def test_nonzero_sum_is_generic(self):
        zs = [FinSeq({1: 1, 2: 1}), FinSeq({1: -1}), FinSeq({3: 1})]
        assert _analyze_negsum(zs) == ("generic", None)


class TestQuasiConstant:
    def test_linear_map_zero_defect(self):
        lin = tl.UserLinear([FinSeq.unit(1), FinSeq.unit(2)], [Fraction(1), Fraction(2)])
        rep = tl.quasi_constant_adversary(lin, trials=200, seed=1)
        assert rep.best_value <= 1e-10

    def test_ribe_within_assumed(self):
        rep = tl.quasi_constant_adversary(tl.Ribe(), trials=2000, seed=2)
        assert rep.best_violation < 0
        assert rep.best_value > 0.5  # the flat-pair family already reaches ln 2

    def test_weighted_within_holder(self):
        F = tl.WeightedRibe({1: Fraction(1)}, 2)
        rep = tl.quasi_constant_adversary(F, trials=1500, seed=3)
        assert rep.best_value <= 1.0 + 1e-9

    def test_witness_replayable(self):
        rep = tl.quasi_constant_adversary(tl.Ribe(), trials=500, seed=4)
        x = vector_from_json(rep.witness["x"], SeqSpace())
        y = vector_from_json(rep.witness["y"], SeqSpace())
        assert tl.quasi_defect(tl.Ribe(), x, y) == pytest.approx(rep.best_value, abs=1e-12)


# --- the samplers and the adversary as they ran on Fraction items ------------


def reference_seq_sampler(rng):
    entries = {}
    for _ in range(rng.randint(1, 5)):
        idx = rng.randint(1, 12)
        num = rng.randint(-64, 64)
        if num:
            entries[idx] = entries.get(idx, Fraction(0)) + Fraction(num, 1 << rng.randint(0, 6))
    return FinSeq(entries)


def reference_mixed_sampler_over(block_pool):
    block_pool = tuple(block_pool)

    def sample(rng):
        blocks = {}
        for _ in range(rng.randint(1, 3)):
            n = rng.choice(block_pool)
            vec = [Fraction(rng.randint(-16, 16), 16) for _ in range(n)]
            blocks[n] = [a + b for a, b in zip(blocks.get(n, [Fraction(0)] * n), vec)]
        return MixedSeq({n: v for n, v in blocks.items() if any(v)})

    return sample


def reference_span_sampler(basis):
    def sample(rng):
        total = basis[0] * 0 if basis else FinSeq()
        for b in basis:
            total = total + b * Fraction(rng.randint(-32, 32), 1 << rng.randint(0, 5))
        return total

    return sample


def reference_quasi_constant(F, trials, seed):
    """(best, witness, pairs) of the adversary with one ``quasi_defect`` call
    per pair, every pair evaluating its x afresh."""
    core = F
    while isinstance(core, tl.Scaled):
        core = core.inner
    span_only = isinstance(core, tl.UserLinear)
    if span_only:
        sampler = reference_span_sampler(core.basis)
    elif isinstance(core, tl.WeightedRibe):
        sampler = reference_mixed_sampler_over(sorted(core.weights)[:6])
    else:
        sampler = reference_seq_sampler
    rng = random.Random(seed)
    best, witness, count = -1.0, None, 0
    for _ in range(max(1, trials)):
        x = sampler(rng)
        y = sampler(rng)
        pairs = [(x, y)]
        if not isinstance(x, MixedSeq) and not span_only:
            pairs.append((x, FinSeq({i + x.max_support(): v for i, v in y.items()})))
            pairs.append((x, FinSeq({i: v for i, v in x.items() if i <= (x.max_support() + 1) // 2})))
        pairs.append((x, -x + y * Fraction(1, 8)))
        pairs.append((x, x * Fraction(3, 2) + y * Fraction(1, 16)))
        for a, b in pairs:
            if not a and not b:
                continue
            count += 1
            d = tl.quasi_defect(F, a, b)
            if d > best:
                best, witness = d, {"x": a.to_json(), "y": b.to_json()}
    return best, witness, count


class TestSamplersAgainstReference:
    @pytest.mark.parametrize(
        "name",
        ["seq", "pool_1_3", "pool_1_6", "pool_sparse", "pool_single", "span_seq", "span_mixed", "span_empty"],
    )
    def test_same_vectors_and_rng_state(self, name):
        new, ref = {
            "seq": (seq_sampler, reference_seq_sampler),
            "pool_1_3": (mixed_sampler_over([1, 2, 3]), reference_mixed_sampler_over([1, 2, 3])),
            "pool_1_6": (mixed_sampler_over(range(1, 7)), reference_mixed_sampler_over(range(1, 7))),
            "pool_sparse": (mixed_sampler_over([2, 5, 9, 40]), reference_mixed_sampler_over([2, 5, 9, 40])),
            "pool_single": (mixed_sampler_over([7]), reference_mixed_sampler_over([7])),
            "span_seq": (span_sampler(SEQ_BASIS), reference_span_sampler(SEQ_BASIS)),
            "span_mixed": (span_sampler(MIXED_BASIS), reference_span_sampler(MIXED_BASIS)),
            "span_empty": (span_sampler([]), reference_span_sampler([])),
        }[name]
        rng, rng_ref = random.Random(name), random.Random(name)
        zeros = 0
        for _ in range(2000):
            x, want = new(rng), ref(rng_ref)
            assert type(x) is type(want) and x == want and x.to_json() == want.to_json()
            assert rng.getstate() == rng_ref.getstate()
            zeros += not x
        assert zeros < 2000 or name == "span_empty"

    def test_shift_right(self):
        rng = random.Random(7)
        for _ in range(2000):
            x, offset = seq_sampler(rng), rng.randint(0, 12)
            assert _shift_right(x, offset) == FinSeq({i + offset: v for i, v in x.items()})

    @pytest.mark.parametrize("name", ["seq", "pool_1_6"])
    def test_derived_pairs_as_one_combination(self, name):
        # the adversary builds -x + y/8 and 3x/2 + y/16 each as one integer
        # combination; both equal the Fraction arithmetic, zero vectors included
        sampler = {"seq": seq_sampler, "pool_1_6": mixed_sampler_over(range(1, 7))}[name]
        rng = random.Random("derived " + name)
        zeros = 0
        for i in range(2000):
            x, y = sampler(rng), sampler(rng)
            if i % 40 == 0:  # a zero x, a zero y, or both, of the sampler's type
                x, y = [(x * 0, y), (x, y * 0), (x * 0, y * 0)][i // 40 % 3]
            zeros += not x or not y
            for got, want in (
                (type(x).combination(((x, -8), (y, 1)), 8), -x + y * Fraction(1, 8)),
                (type(x).combination(((x, 24), (y, 1)), 16), x * Fraction(3, 2) + y * Fraction(1, 16)),
            ):
                assert type(got) is type(want) is type(x) and got == want and got.to_json() == want.to_json()
        assert zeros >= 50

    @pytest.mark.parametrize(
        "F",
        [
            tl.Ribe(),
            tl.WeightedRibe({n: Fraction(1, 2 ** (n - 1)) for n in range(1, 65)}, 2),
            tl.WeightedRibe({2: 3, 5: Fraction(-1, 3), 9: Fraction(1, 7)}, Fraction(3, 2)),
            tl.Scaled(tl.Ribe(), Fraction(1, 4)),
            tl.UserLinear(SEQ_BASIS, [1, Fraction(-1, 3), Fraction(5, 2)]),
            tl.UserLinear(MIXED_BASIS, [1, -2], space=MixedSpace(3)),
        ],
        ids=["ribe", "weighted_64", "weighted_sparse", "scaled", "linear", "linear_mixed"],
    )
    def test_adversary_reuses_x_to_the_bit(self, F):
        for seed in range(3):
            rep = tl.quasi_constant_adversary(F, trials=150, seed=seed)
            assert (rep.best_value, rep.witness, rep.trials) == reference_quasi_constant(F, 150, seed)


class TestChainFuzzer:
    def test_clean_state(self, state4, ribe_normalized):
        rep = tl.chain_fuzzer(state4, ribe_normalized, trials=60, seed=5)
        assert rep.best_violation < 0
        assert rep.best_value < 9

    def test_zero_budget_noop(self, state4, ribe_normalized):
        rep = tl.chain_fuzzer(state4, ribe_normalized, trials=0, seed=5)
        assert rep.best_violation is None
        assert rep.trials == 0

    def test_tampered_state_caught(self, ribe_normalized):
        xs, ds = tl.make_case_a_inputs(3, 2)
        bad = tl.run_construction(ribe_normalized, xs, ds, 3, m_override={2: 2}, verify_levels=False)
        rep = tl.chain_fuzzer(bad, ribe_normalized, trials=150, seed=6)
        assert rep.best_violation >= 0

    def test_ascent_value_matches_certificate(self, state4, ribe_normalized):
        # the ascent keeps the certificate's value incrementally; it must be
        # the value recomputed from scratch, at the starting norm
        fam = tl.fn_family(state4)
        rng = random.Random(3)
        cert = random_certificate(fam, 1, rng)
        start = tl.certificate_value(fam, cert)
        best, f_best = _coordinate_ascent(state4, ribe_normalized, fam, cert)
        value = tl.certificate_value(fam, best)
        assert best != cert
        assert f_best == abs(tl.evaluate(ribe_normalized, value))
        assert value.norm() == start.norm()


def reference_coordinate_ascent(state, F, fam, cert):
    """The ascent as it ran on Fraction coefficients, scanning every
    coefficient for each candidate move."""
    space = state.space
    coeffs = [(i, j, Fraction(n, cert.den)) for i, j, n in cert.terms]
    v_best = tl.certificate_value(fam, cert)
    target = space.norm(v_best)
    f_best = abs(tl.evaluate(F, v_best))
    step = Fraction(1, 64)
    for _ in range(3):
        improved = False
        for idx in range(len(coeffs)):
            for delta in (step, -step):
                i, j, r = coeffs[idx]
                raw = v_best + fam.gen(i, j) * delta
                nv = space.norm(raw)
                if not nv:
                    continue
                factor = oracles._exact_scale(target, nv)
                cand = list(coeffs)
                cand[idx] = (i, j, r + delta)
                if max(abs(c) for _, _, c in cand) * abs(factor) > 1:
                    continue
                v_cand = raw * factor
                f_val = abs(tl.evaluate(F, v_cand))
                if f_val > f_best:
                    coeffs = [(a, b, c * factor) for a, b, c in cand]
                    v_best, f_best = v_cand, f_val
                    improved = True
        if not improved:
            break
    return tl.SumCertificate.of(coeffs), f_best


class TestAscentAgainstReference:
    @pytest.mark.parametrize("case", ["a", "c"])
    def test_same_moves_and_certificate(self, case, state4, ribe_normalized):
        if case == "a":
            state, F = state4, ribe_normalized
        else:
            xs, ds, weights = tl.make_case_c_inputs(3, 2)
            F = tl.normalize_constant(tl.WeightedRibe(weights, 2))
            state = tl.run_construction(F, xs, ds, 3)
        fam = tl.fn_family(state)
        for seed in range(80):
            rng = random.Random(seed)
            cert = random_certificate(fam, 1, rng)
            # unscaled draws hold coefficients of +-1, where the cap on the
            # rescaled coefficients decides moves (on case a, seeds 34 and 69
            # move the one largest coefficient down to a legal move)
            for start in (cert, tl.scale_certificate(cert, Fraction(rng.randint(1, 64), 64))):
                assert _coordinate_ascent(state, F, fam, start) == reference_coordinate_ascent(state, F, fam, start)


def unscreened_coordinate_ascent(state, F, fam, cert):
    """The ascent with every move on the exact path: build, norm, rescale,
    ``evaluate``, accepting on f_val > f_best, as it ran before the screen."""
    space = state.space
    best = cert
    v_best = tl.certificate_value(fam, cert)
    target = space.norm(v_best)
    f_best = abs(tl.evaluate(F, v_best))
    step = Fraction(1, 64)
    for _ in range(3):
        improved = False
        top = max((abs(n) for _, _, n in best.terms), default=0)
        for idx in range(len(best.terms)):
            for delta in (step, -step):
                i, j, n = best.terms[idx]
                raw = v_best + fam.gen(i, j) * delta
                nv = space.norm(raw)
                if not nv:
                    continue
                factor = oracles._exact_scale(target, nv)
                den, moved = best.den * 64, n * 64 + best.den * delta.numerator
                rest = top
                if abs(n) == top:
                    rest = max((abs(m) for k, (_, _, m) in enumerate(best.terms) if k != idx), default=0)
                if max(rest * 64, abs(moved)) * abs(factor.numerator) > den * factor.denominator:
                    continue
                v_cand = raw * factor
                f_val = abs(tl.evaluate(F, v_cand))
                if f_val > f_best:
                    terms = [(a, b, m * 64) for a, b, m in best.terms]
                    terms[idx] = (i, j, moved)
                    best = tl.scale_certificate(tl.SumCertificate(tuple(terms), den), factor)
                    top = max(abs(m) for _, _, m in best.terms)
                    v_best, f_best = v_cand, f_val
                    improved = True
        if not improved:
            break
    return best, f_best


@pytest.fixture(scope="module")
def ascent_states(state6, ribe_normalized):
    """The case-a states of ``construct --depth 6, 8, 10`` by depth."""
    states = {6: state6}
    for depth in (8, 10):
        xs, ds = tl.make_case_a_inputs(depth, 3)
        states[depth] = tl.run_construction(ribe_normalized, xs, ds, depth)
    return states


def fuzzer_certificate(state, seed):
    """A seeded level-1 certificate with value norm at most 1 - 1/1000, the
    rescale ``chain_fuzzer`` gives the ones it replays."""
    fam = tl.fn_family(state)
    cert = random_certificate(fam, 1, random.Random(seed))
    factor = oracles._exact_scale(Fraction(999, 1000), state.space.norm(tl.certificate_value(fam, cert)))
    return fam, tl.scale_certificate(cert, factor) if factor < 1 else cert


@st.composite
def screened_moves(draw):
    """(v, g, delta) for ``_RibeScreen``: v and g overlap on positions 1-12
    with numerators from ``ribe_numerators``; in a third of the draws v gets
    a coordinate at 13 that leaves v + delta g a sum within 2 / D of 0."""
    def vector(nums, den):
        return FinSeq({p: Fraction(n, den) for p, n in zip(draw(st.permutations(range(1, 13))), nums)})

    v = vector(draw(ribe_numerators())[:12], draw(st.integers(1, 10 ** 9)))
    g = vector(draw(ribe_numerators())[:12], draw(st.integers(1, 10 ** 6)))
    delta = draw(st.sampled_from([Fraction(1, 64), Fraction(-1, 64)]))
    if draw(st.integers(0, 2)) == 0:
        D = 64 * v.den * g.den
        rest = v.coord_sum() + delta * g.coord_sum()
        v = v + FinSeq({13: Fraction(draw(st.integers(-2, 2)), D) - rest})
    return v, g, delta


@st.composite
def weighted_moves(draw):
    """(v, g, delta, F) for a ``WeightedRibe`` screen: v on blocks 2-5 and g
    on some of blocks 2-6, each block's numerators from ``ribe_numerators``
    at random coordinates; weights of either sign on blocks 1-6 and p in
    {3/2, 2, 3}.  In a third of the draws v's block 4 gets a coordinate that
    leaves that block of v + delta g a sum within 2 / D of 0."""
    def vector(blocks, den):
        rows = {}
        for n in blocks:
            nums = draw(ribe_numerators())[:n]
            row = rows[n] = [Fraction(0)] * n
            for i, a in zip(draw(st.permutations(range(n))), nums):
                row[i] = Fraction(a, den)
        return MixedSeq(rows)

    v = vector((2, 3, 4, 5), draw(st.integers(1, 10 ** 9)))
    g = vector(draw(st.lists(st.sampled_from((2, 3, 4, 5, 6)), min_size=1, max_size=3, unique=True)), draw(st.integers(1, 10 ** 6)))
    delta = draw(st.sampled_from([Fraction(1, 64), Fraction(-1, 64)]))
    if draw(st.integers(0, 2)) == 0:
        D = 64 * v.den * g.den
        rest = sum((v + g * delta)[p] for p in range(7, 11))  # block 4
        v = v + MixedSeq({4: [Fraction(draw(st.integers(-2, 2)), D) - rest, 0, 0, 0]})
    weights = {n: draw(positive_ratios) * draw(st.sampled_from((1, -1))) for n in range(1, 7)}
    return v, g, delta, tl.WeightedRibe(weights, draw(st.sampled_from([Fraction(3, 2), Fraction(2), Fraction(3)])))


class TestAscentScreen:
    """``_RibeScreen`` against 50-digit decimals, and the screened ascent
    against the unscreened one."""

    @given(screened_moves(), positive_ratios, positive_ratios)
    @settings(max_examples=300, deadline=None)
    def test_bounds_against_decimals(self, move, a, c):
        v, g, delta = move
        raw = v + g * delta
        screened = _RibeScreen(v, tl.Ribe()).move(g, delta)
        nv, estimate, allowance = screened
        assert nv == raw.norm()
        if len(raw) < 2:  # the value is 0 on both paths
            assert (estimate, allowance) == (0.0, 0.0) and tl.evaluate(tl.Ribe(), raw) == 0
            return
        # the screen's sum: v's terms, the old and the new terms at g's
        # support, and phi(S), each phi(x) = x ln|x|
        old = [v[p] for p in g.nums if v[p]]
        new = [raw[p] for p in g.nums if raw[p]]
        S = raw.coord_sum()
        groups = [decimal_terms(xs, Fraction(1)) for xs in ([x for _, x in v.items()], old, new, [S] if S else [])]
        theta, xi = sum(t for _, t, _ in groups), sum(x for _, _, x in groups)
        R, T, X = decimal_ribe([x for _, x in raw.items()])
        assert within(estimate, R, 6.03 * U * float(theta) + 4.04 * U * float(xi), theta, xi)
        assert within(_ribe_terms(raw.nums.values(), raw.den), R, 5.02 * U * float(T) + 4.04 * U * float(X), T, X)
        # the allowance covers what ``_coordinate_ascent``'s proof needs
        assert Decimal(allowance) >= Decimal(U) * (Decimal("11.1") * theta + Decimal("4.1") * xi + Decimal("7.1") * T + Decimal("4.1") * X)
        # the skip test's left side is never below the exact path's value
        k = float(a) * float(c)
        assert (abs(estimate) + allowance) * k >= abs(tl.evaluate(tl.Scaled(tl.Ribe(), a), raw * c))

    @given(weighted_moves(), positive_ratios, positive_ratios)
    @settings(max_examples=300, deadline=None)
    def test_weighted_bounds_against_decimals(self, move, a, c):
        v, g, delta, F = move
        raw = v + g * delta
        screened = _RibeScreen(v, F).move(g, delta)
        blocks, v_blocks, g_blocks = block_entries(raw), block_entries(v), block_entries(g)
        if len(blocks) < 2:  # the l_p norm of one block is its l1 norm: the exact path takes it
            assert screened is None
            return
        nv, estimate, allowance = screened
        assert nv == F.space.norm(raw)  # the same float
        # per block of two coordinates or more: c_n R_n and its bound
        # sum |c_n| (9.07u Theta_n + 4.05u Xi_n); the screen's groups are
        # those of ``test_bounds_against_decimals`` within the block
        with localcontext() as ctx:
            ctx.prec = 50
            exact = bound = need = total_terms = total_coords = Decimal(0)
            for n, blk in blocks.items():
                if len(blk) < 2:
                    continue
                vb, gb = v_blocks.get(n, {}), g_blocks.get(n, {})
                xs = [Fraction(a, raw.den) for a in blk.values()]
                old = [Fraction(vb[i], v.den) for i in gb if i in vb]
                new = [Fraction(blk[i], raw.den) for i in gb if i in blk]
                S = sum(xs)
                groups = [decimal_terms(ys, Fraction(1)) for ys in ([Fraction(a, v.den) for a in vb.values()], old, new, [S] if S else [])]
                theta, xi = sum(t for _, t, _ in groups), sum(x for _, _, x in groups)
                weight = Decimal(F.weights[n].numerator) / Decimal(F.weights[n].denominator)
                R, T, X = decimal_ribe(xs)
                exact += weight * R
                bound += abs(weight) * (Decimal(9.07 * U) * theta + Decimal(4.05 * U) * xi)
                need += abs(weight) * Decimal(U) * (Decimal("14.1") * theta + Decimal("4.1") * xi + Decimal("10.1") * T + Decimal("4.1") * X)
                total_terms += abs(weight) * theta
                total_coords += abs(weight) * xi
        assert within(estimate, exact, bound, total_terms, total_coords)
        assert Decimal(allowance) >= need  # what ``_coordinate_ascent``'s proof needs
        # the skip test's left side is never below the exact path's value
        k = float(a) * float(c)
        assert (abs(estimate) + allowance) * k >= abs(tl.evaluate(tl.Scaled(F, a), raw * c))

    def test_immoderate_coordinates_leave_the_move_unscreened(self):
        # below 2^-128 the rounding analysis no longer holds, for a
        # coordinate, and for a weight of a block of two coordinates
        for v, g in (
            (FinSeq({1: Fraction(1, 2 ** 200), 2: 1}), FinSeq({2: 1, 3: -1})),
            (FinSeq({2: 1}), FinSeq({3: Fraction(1, 2 ** 140)})),
        ):
            assert _RibeScreen(v, tl.Ribe()).move(g, Fraction(1, 64)) is None
        F = tl.WeightedRibe({1: 1, 2: Fraction(1, 2 ** 200)}, 2)
        v, g = MixedSeq({1: [1], 2: [1, 0]}), MixedSeq({2: [0, 1]})
        assert _RibeScreen(v, F).move(g, Fraction(1, 64)) is None
        # a one-coordinate block adds no value on either path, so its weight goes unread
        assert _RibeScreen(v, F).move(MixedSeq({1: [1]}), Fraction(1, 64)) is not None

    # per depth a start that accepts moves (3, 6 and 5 of them) and one that
    # accepts none
    @pytest.mark.parametrize("depth, seeds", [(6, (4, 0)), (8, (2, 3)), (10, (0, 5))])
    def test_same_result_as_unscreened(self, ascent_states, ribe_normalized, depth, seeds):
        state = ascent_states[depth]
        for seed in seeds:
            fam, cert = fuzzer_certificate(state, seed)
            got = _coordinate_ascent(state, ribe_normalized, fam, cert)
            assert got == unscreened_coordinate_ascent(state, ribe_normalized, fam, cert), seed

    # the case-c states of ``construct --depth 6, 8, 9``: per depth the start
    # ``chain_fuzzer(trials=20)`` hands the ascent, a seeded start that
    # accepts moves and one that accepts none
    @pytest.mark.parametrize("depth, seeds", [(6, (4, 0)), (8, (4, 0)), (9, (45, 0))])
    def test_weighted_same_result_as_unscreened(self, depth, seeds, monkeypatch):
        xs, ds, weights = tl.make_case_c_inputs(depth, 3)
        F = tl.normalize_constant(tl.WeightedRibe(weights, 2))
        state = tl.run_construction(F, xs, ds, depth)
        starts = []
        monkeypatch.setattr(oracles, "_coordinate_ascent", lambda state, F, fam, cert: starts.append((fam, cert)) or (cert, 0.0))
        oracles.chain_fuzzer(state, F, trials=20, seed=0)
        assert len(starts) == 1
        starts += [fuzzer_certificate(state, seed) for seed in seeds]
        moves = Counter()
        real = _RibeScreen.move
        monkeypatch.setattr(_RibeScreen, "move", lambda *args: moves.update([real(*args) is None]) or real(*args))
        accepted = []
        for fam, cert in starts:
            got = _coordinate_ascent(state, F, fam, cert)
            assert got == unscreened_coordinate_ascent(state, F, fam, cert), cert
            accepted.append(got[0] != cert)
        assert accepted[1:] == [True, False]
        assert moves[False] >= 100 and moves[True] <= moves[False] // 50

    def test_exact_path_only_for_accepted_moves(self, ascent_states, ribe_normalized, monkeypatch):
        # the ascent of verify --trials 100 on a8: evaluate runs once for the
        # start and once per accepted move (each builds one certificate), so
        # the allowance screens out every rejected move
        state = ascent_states[8]
        starts = []
        real = oracles._coordinate_ascent
        monkeypatch.setattr(oracles, "_coordinate_ascent", lambda *args: starts.append(args) or real(*args))
        tl.chain_fuzzer(state, ribe_normalized, trials=100, seed=0)
        monkeypatch.undo()
        counts = Counter()

        def counting(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(oracles, "evaluate", counting("evaluate", oracles.evaluate))
        monkeypatch.setattr(oracles, "scale_certificate", counting("accepted", oracles.scale_certificate))
        monkeypatch.setattr(_RibeScreen, "move", counting("screened", _RibeScreen.move))
        [args] = starts
        real(*args)
        assert counts["accepted"] >= 1 and counts["screened"] >= 100
        assert counts["evaluate"] <= 1 + counts["accepted"] + 3

    def test_other_functionals_take_the_exact_path(self, monkeypatch):
        # UserLinear, the one kind besides Ribe and WeightedRibe, never builds a screen
        monkeypatch.setattr(oracles, "_RibeScreen", None)
        F = tl.Scaled(tl.UserLinear(SEQ_BASIS, [1, Fraction(-1, 3), Fraction(5, 2)]), Fraction(1, 2))
        fam = tl.SumFamily({1: SEQ_BASIS[:2], 2: SEQ_BASIS[2:]})
        state = SimpleNamespace(space=SeqSpace())
        cert = tl.SumCertificate.of([(1, 0, Fraction(1, 2)), (1, 1, Fraction(-1, 4)), (2, 0, Fraction(1, 3))])
        got = _coordinate_ascent(state, F, fam, cert)
        assert got == unscreened_coordinate_ascent(state, F, fam, cert) and got[0] != cert

    def test_unweighted_block_raises_as_on_the_exact_path(self):
        # v holds no coordinate of block 4, which has no weight; a move on the
        # second term puts one there, and the exact path raises
        F = tl.Scaled(tl.WeightedRibe({2: 1, 3: Fraction(1, 2)}, 2), Fraction(1, 2))
        u = MixedSeq({4: [1, 0, 0, -1]})
        fam = tl.SumFamily({1: [MixedSeq({2: [1, Fraction(-1, 3)], 3: [1, 2, 0]}), u, -u]})
        state = SimpleNamespace(space=F.space)
        cert = tl.SumCertificate.of([(1, 0, Fraction(1, 2)), (1, 1, Fraction(1, 2)), (1, 2, Fraction(1, 2))])
        for ascent in (_coordinate_ascent, unscreened_coordinate_ascent):
            with pytest.raises(ValueError, match="missing weight for nonzero block 4"):
                ascent(state, F, fam, cert)
