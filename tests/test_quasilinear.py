import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import twistlab as tl
from twistlab import FinSeq, MixedSeq
from twistlab.quasilinear import functional_from_json, functional_to_json, rank, solve_in_span

from .strategies import finseqs, mean_zero_finseqs, mixedseqs, small_scalar

LN2 = math.log(2)


class TestRibeEval:
    def test_unit_vector(self):
        assert tl.ribe_eval(FinSeq.unit(1)) == 0.0

    def test_flat_half(self):
        x = FinSeq({1: Fraction(1, 2), 2: Fraction(1, 2)})
        assert tl.ribe_eval(x) == pytest.approx(-LN2, abs=1e-14)

    def test_two_minus_one(self):
        # sum is 1, so the second term vanishes: 2 ln 2 + (-1) ln 1
        assert tl.ribe_eval(FinSeq({1: 2, 2: -1})) == pytest.approx(2 * LN2, abs=1e-14)

    def test_mean_zero_pair(self):
        assert tl.ribe_eval(FinSeq({1: 1, 2: -1})) == 0.0

    def test_zero(self):
        assert tl.ribe_eval(FinSeq()) == 0.0

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_flat_vectors(self, n):
        x = FinSeq({i: Fraction(1, n) for i in range(1, n + 1)})
        assert tl.ribe_eval(x) == pytest.approx(-math.log(n), abs=1e-13)


class TestHomogeneity:
    @given(finseqs(), small_scalar)
    @settings(max_examples=150, deadline=None)
    def test_ribe(self, x, r):
        F = tl.Ribe()
        res = tl.homogeneity_residual(F, x, r)
        assert res <= 1e-12 * (1 + abs(float(r) * tl.evaluate(F, x)))

    @given(mixedseqs(), small_scalar)
    @settings(max_examples=100, deadline=None)
    def test_weighted(self, x, r):
        F = tl.WeightedRibe({n: Fraction(1, 2 ** (n - 1)) for n in range(1, 6)}, 2)
        res = tl.homogeneity_residual(F, x, r)
        assert res <= 1e-12 * (1 + abs(float(r) * tl.evaluate(F, x)))

    def test_zero_scalar(self):
        assert tl.homogeneity_residual(tl.Ribe(), FinSeq({1: 3, 4: 5}), 0) == 0.0

    def test_identity_scalar(self):
        assert tl.homogeneity_residual(tl.Ribe(), FinSeq({1: 2, 2: -1}), 1) == 0.0

    def test_negative_scalar(self):
        assert tl.homogeneity_residual(tl.Ribe(), FinSeq({1: 2, 2: -1}), -3) <= 1e-12 * (1 + 6 * LN2)


class TestQuasiDefect:
    def test_disjoint_mean_zero_additive(self):
        x = FinSeq({1: 1, 2: -1})
        y = FinSeq({3: Fraction(1, 2), 4: -Fraction(1, 2)})
        assert tl.quasi_defect(tl.Ribe(), x, y) <= 1e-12

    def test_equal_arguments(self):
        x = FinSeq({1: 2, 3: -1})
        assert tl.quasi_defect(tl.Ribe(), x, x) <= 1e-12

    def test_frozen_example(self):
        # F(x+y) = 0 (mean-zero flat pair), F(x) = 0, F(y) = -2 ln 2,
        # denominator 1 + 3: defect (2 ln 2)/4 = (ln 2)/2.
        x = FinSeq({1: 1})
        y = FinSeq({1: 1, 2: -2})
        assert tl.quasi_defect(tl.Ribe(), x, y) == pytest.approx(LN2 / 2, abs=1e-13)

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            tl.quasi_defect(tl.Ribe(), FinSeq(), FinSeq())

    @given(mean_zero_finseqs(), mean_zero_finseqs())
    @settings(max_examples=80, deadline=None)
    def test_disjoint_mean_zero_property(self, x, y):
        shifted = FinSeq({i + x.max_support(): v for i, v in y.items()})
        if not x and not shifted:
            return
        assert tl.quasi_defect(tl.Ribe(), x, shifted) <= 1e-12

    @given(finseqs(min_entries=1), finseqs(min_entries=1))
    @settings(max_examples=80, deadline=None)
    def test_argument_symmetry(self, x, y):
        F = tl.Ribe()
        assert tl.quasi_defect(F, x, y) == tl.quasi_defect(F, y, x)


class TestWeightedRibe:
    W = {n: Fraction(1, 2 ** (n - 1)) for n in range(1, 65)}

    def test_flat_block(self):
        n = 5
        x = MixedSeq({n: [Fraction(1, n)] * n})
        assert tl.weighted_ribe_eval(x, self.W) == pytest.approx(-float(self.W[n]) * math.log(n), abs=1e-13)

    def test_unit_vectors_vanish(self):
        for n in (1, 3, 7):
            for i in (1, n):
                assert tl.weighted_ribe_eval(MixedSeq.unit(n, i), self.W) == 0.0

    def test_zero(self):
        assert tl.weighted_ribe_eval(MixedSeq(), self.W) == 0.0

    def test_missing_weight(self):
        with pytest.raises(ValueError):
            tl.weighted_ribe_eval(MixedSeq.unit(3, 1), {1: Fraction(1)})

    def test_holder_constant(self):
        F = tl.WeightedRibe({1: Fraction(1)}, 2)
        assert F.assumed_constant == pytest.approx(1.0, abs=1e-12)
        F = tl.WeightedRibe({n: Fraction(1, 2 ** (n - 1)) for n in range(1, 65)}, 2)
        assert F.assumed_constant == pytest.approx(2 / math.sqrt(3), rel=1e-12)

    @given(mixedseqs(), mixedseqs())
    @settings(max_examples=80, deadline=None)
    def test_holder_defect_bound(self, x, y):
        F = tl.WeightedRibe(self.W, 2)
        if not x and not y:
            return
        assert tl.quasi_defect(F, x, y) <= F.assumed_constant + 1e-9

    @given(mixedseqs(), mixedseqs())
    @settings(max_examples=60, deadline=None)
    def test_per_block_bound(self, x, y):
        # each block obeys |c R(x+y) - c R(x) - c R(y)| <= c (||x||_1 + ||y||_1)
        for n in set(x.blocks) | set(y.blocks):
            c = float(self.W[n])
            bx = MixedSeq({n: list(x.block(n))})
            by = MixedSeq({n: list(y.block(n))})
            gap = abs(
                tl.weighted_ribe_eval(bx + by, self.W)
                - tl.weighted_ribe_eval(bx, self.W)
                - tl.weighted_ribe_eval(by, self.W)
            )
            assert gap <= c * float(bx.norm() + by.norm()) + 1e-9


class TestNonsplitWitness:
    def test_block_one(self):
        vec, val = tl.nonsplit_witness(1, Fraction(1, 2))
        assert val == 0.0
        assert vec == MixedSeq({1: [1]})

    def test_block_two(self):
        _, val = tl.nonsplit_witness(2, 1)
        assert val == pytest.approx(-LN2, abs=1e-14)

    def test_cancellation(self):
        cn = Fraction(1, 10 ** 6)  # any rational weight works against ln
        vec, val = tl.nonsplit_witness(8, cn)
        assert val == pytest.approx(-float(cn) * math.log(8), abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 64])
    def test_matches_evaluation(self, n):
        W = {k: Fraction(1, 2 ** (k - 1)) for k in range(1, 65)}
        vec, val = tl.nonsplit_witness(n, W[n])
        assert tl.weighted_ribe_eval(vec, W) == pytest.approx(val, abs=1e-12)

    def test_bad_block(self):
        with pytest.raises(ValueError):
            tl.nonsplit_witness(0, 1)


class TestSplitMap:
    def test_from_ribe(self):
        xs = [FinSeq({1: 1, 2: -1}), FinSeq({3: 1, 4: -1})]
        T = tl.split_map_from_ribe(xs)
        assert T.defect_bound == 0.0
        assert T(xs[0]) == 0
        combo = xs[0] * Fraction(2, 3) + xs[1] * Fraction(-5, 7)
        assert T(combo) == 0

    def test_linearity_against_ribe(self):
        rng = random.Random(1)
        xs = [FinSeq({1: 2, 2: -1, 3: -1}), FinSeq({5: 1, 6: -3, 7: 2}), FinSeq({9: 4, 10: -4})]
        T = tl.split_map_from_ribe(xs)
        for _ in range(10 ** 4):
            coeffs = [Fraction(rng.randint(-16, 16), 8) for _ in xs]
            v = FinSeq()
            for c, x in zip(coeffs, xs):
                v = v + x * c
            assert abs(float(T(v)) - tl.ribe_eval(v)) <= 1e-10 * (1 + float(v.norm()))

    def test_not_mean_zero_rejected(self):
        with pytest.raises(ValueError):
            tl.split_map_from_ribe([FinSeq({1: 1})])

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            tl.split_map_from_ribe([FinSeq({1: 1, 3: -1}), FinSeq({2: 1, 4: -1})])

    def test_empty(self):
        T = tl.split_map_from_ribe([])
        assert T.basis == []

    def test_not_in_span(self):
        T = tl.split_map_from_ribe([FinSeq({1: 1, 2: -1})])
        with pytest.raises(ValueError):
            T(FinSeq({9: 1}))

    def test_dependent_basis_rejected(self):
        with pytest.raises(ValueError):
            tl.SplitMap([FinSeq.unit(1), FinSeq.unit(1)], [1, 1])


class TestKernelNormalize:
    def test_already_kernel(self):
        xs = [FinSeq({1: 1, 2: -1}), FinSeq({3: 1, 4: -1})]
        T = tl.split_map_from_ribe(xs)
        out = tl.kernel_normalize(T, xs)
        assert out == [xs[0]]

    def test_combination(self):
        basis = [FinSeq.unit(1), FinSeq.unit(2)]
        T = tl.SplitMap(basis, [2, 1])
        out = tl.kernel_normalize(T, basis)
        assert out == [FinSeq({1: 1, 2: -2})]
        assert T(out[0]) == 0

    def test_unsolvable_pair(self):
        T = tl.SplitMap([FinSeq.unit(1), FinSeq.unit(2)], [1, 0])
        with pytest.raises(ValueError):
            tl.kernel_normalize(T, [FinSeq.unit(1), FinSeq.unit(2)])

    def test_odd_count_rejected(self):
        T = tl.SplitMap([FinSeq.unit(1)], [0])
        with pytest.raises(ValueError):
            tl.kernel_normalize(T, [FinSeq.unit(1)])


class TestNormalizeConstant:
    def test_ribe_default(self):
        F = tl.normalize_constant(tl.Ribe())
        assert F.factor == Fraction(1, 4)
        assert F.assumed_constant == 1.0

    def test_already_one(self):
        F = tl.normalize_constant(tl.Ribe(assumed_constant=1.0))
        assert F.factor == 1
        assert F.assumed_constant == 1.0

    def test_weighted(self):
        W = tl.WeightedRibe({1: Fraction(1), 2: Fraction(1, 2)}, 2)
        F = tl.normalize_constant(W)
        assert F.assumed_constant == 1.0
        assert float(F.factor) == pytest.approx(1 / W.holder_bound(), rel=1e-12)

    def test_scaling_acts_on_values(self):
        F = tl.normalize_constant(tl.Ribe())
        x = FinSeq({1: Fraction(1, 2), 2: Fraction(1, 2)})
        assert tl.evaluate(F, x) == pytest.approx(-LN2 / 4, abs=1e-14)

    def test_scaled_constant_scales(self):
        S = tl.Scaled(tl.Ribe(), Fraction(1, 2))
        assert S.assumed_constant == 2.0


class TestIteratedDefect:
    def test_single(self):
        F = tl.normalize_constant(tl.Ribe())
        res = tl.iterated_defect_check(F, [FinSeq({1: 1, 2: 3})])
        assert res.holds

    def test_disjoint_mean_zero(self):
        F = tl.normalize_constant(tl.Ribe())
        us = [FinSeq({1: 1, 2: -1}), FinSeq({3: 2, 4: -2}), FinSeq({5: 1, 6: -1})]
        res = tl.iterated_defect_check(F, us)
        assert res.holds
        assert res.lhs <= 1e-12  # exact additivity on disjoint mean-zero spans

    def test_random_sweep(self):
        F = tl.normalize_constant(tl.Ribe())
        rng = random.Random(3)
        for _ in range(100):
            us = []
            for _ in range(rng.randint(1, 4)):
                us.append(FinSeq({rng.randint(1, 10): Fraction(rng.randint(-8, 8), 4) for _ in range(rng.randint(1, 3))}))
            res = tl.iterated_defect_check(F, us)
            assert res.holds, (res.lhs, res.rhs)


class TestExactLinearAlgebra:
    def test_rank(self):
        assert rank([FinSeq.unit(1), FinSeq.unit(2)]) == 2
        assert rank([FinSeq.unit(1), FinSeq({1: 2})]) == 1
        assert rank([]) == 0

    def test_solve(self):
        basis = [FinSeq({1: 1, 2: 1}), FinSeq({2: 1})]
        target = FinSeq({1: 2, 2: 5})
        coords = solve_in_span(basis, target)
        assert coords == [Fraction(2), Fraction(3)]


class TestDescriptors:
    @pytest.mark.parametrize(
        "F",
        [
            tl.Ribe(),
            tl.WeightedRibe({1: Fraction(1), 3: Fraction(1, 4)}, Fraction(3, 2)),
            tl.UserLinear([FinSeq.unit(2)], [Fraction(5, 3)]),
            tl.Scaled(tl.Ribe(), Fraction(1, 4)),
        ],
    )
    def test_roundtrip(self, F):
        G = functional_from_json(functional_to_json(F))
        x = FinSeq({2: Fraction(3, 7), 5: -2}) if not isinstance(F, tl.UserLinear) else FinSeq({2: 4})
        if isinstance(F, tl.WeightedRibe):
            x = MixedSeq({1: [Fraction(1, 3)], 3: [1, -1, 2]})
        assert tl.evaluate(G, x) == tl.evaluate(F, x)
