import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import twistlab as tl
from twistlab import FinSeq, MixedSeq, MixedSpace, TwistedVec, norm_mixed
from twistlab.quasilinear import (
    NONSPLIT_CAP,
    _ribe_terms,
    functional_from_json,
    quasi_defects,
    rank,
    ribe_error_bound,
    solve_in_span,
)
from twistlab import quasilinear
from twistlab.seqspace import block_entries, block_of, block_position

from .strategies import finseqs, mean_zero_finseqs, mixedseqs, small_scalar
from .test_seqspace import ref_ribe_terms

LN2 = math.log(2)
F0 = Fraction(0)


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


U = 2.0 ** -53  # the unit roundoff of ``_ribe_terms``'s rounding analysis


def decimal_terms(xs, gauge):
    """(sum, sum of |term|, sum of |x|) of the terms x ln|x / gauge| over the
    rationals xs, in 50-digit decimals: ``Decimal.ln`` is correctly rounded,
    so each figure is within a relative 1e-48 of the exact one."""
    with localcontext() as ctx:
        ctx.prec = 50
        ds = [Decimal(x.numerator) / Decimal(x.denominator) for x in xs]
        g = Decimal(gauge.numerator) / Decimal(gauge.denominator)
        terms = [d * (abs(d) / g).ln() for d in ds]
        return sum(terms), sum(map(abs, terms)), sum(map(abs, ds))


def decimal_ribe(xs):
    """``decimal_terms`` with ``_ribe_terms``'s gauge: the coordinate sum, or
    the l1 norm when that is 0."""
    total = sum(xs, F0)
    return decimal_terms(xs, abs(total) if total else sum(map(abs, xs)))


def within(computed, exact, allowance, T, X):
    """|computed - exact| <= allowance, in decimals, with 1e-40 (T + X) for
    the 50-digit reference."""
    return abs(Decimal(computed) - exact) <= Decimal(allowance) + (T + X) * Decimal("1e-40")


@st.composite
def ribe_numerators(draw):
    """Nonzero int numerators of three shapes: mixed signs over a wide range;
    one dominant coordinate, so that |x / g| is near 1 and its log near 0;
    and a coordinate balancing the others to a sum within 2 of 0, so that
    the gauge is the l1 norm or the sum is near 0."""
    kind = draw(st.sampled_from(["mixed", "near_one", "sum_near_zero"]))
    nums = draw(st.lists(st.integers(-10 ** 12, 10 ** 12).filter(bool), min_size=1, max_size=8))
    if kind == "near_one":
        nums = [draw(st.integers(10 ** 9, 10 ** 15))] + [n % 7 - 3 for n in nums]
    elif kind == "sum_near_zero":
        nums.append(draw(st.integers(-2, 2)) - sum(nums))
    return [n for n in nums if n] or [1]


positive_ratios = st.builds(Fraction, st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))


class TestRoundingBound:
    """The bounds derived in ``_ribe_terms``'s docstring against 50-digit
    decimals."""

    @given(ribe_numerators(), st.integers(1, 10 ** 12), positive_ratios)
    @settings(max_examples=300, deadline=None)
    def test_ribe_terms_and_scaled_evaluate(self, nums, den, factor):
        R, T, X = decimal_ribe([Fraction(n, den) for n in nums])
        assert within(_ribe_terms(nums, den), R, 5.02 * U * float(T) + 4.04 * U * float(X), T, X)
        x = FinSeq._raw(dict(enumerate(nums, 1)), den)
        a = Decimal(factor.numerator) / Decimal(factor.denominator)
        scaled = tl.evaluate(tl.Scaled(tl.Ribe(), factor), x)
        assert within(scaled, a * R, float(factor) * (7.04 * U * float(T) + 4.05 * U * float(X)), a * T, a * X)
        assert 7.04 * U * float(T) + 4.05 * U * float(X) < ribe_error_bound(float(T), float(X))

    @given(
        st.lists(st.tuples(ribe_numerators(), st.sampled_from([1, Fraction(-1, 3), Fraction(5, 2)])), min_size=1, max_size=4)
    )
    @settings(max_examples=100, deadline=None)
    def test_weighted_evaluate(self, blocks):
        # block n holds the n-th draw's first n numerators over 64, weighted c
        weights, x, exact, allowance, T_all, X_all = {}, MixedSeq(), Decimal(0), 0.0, Decimal(0), Decimal(0)
        for n, (nums, c) in enumerate(blocks, 1):
            nums = nums[:n]
            weights[n] = c
            x = x + MixedSeq({n: [Fraction(v, 64) for v in nums] + [0] * (n - len(nums))})
            R, T, X = decimal_ribe([Fraction(v, 64) for v in nums])
            exact += Decimal(c.numerator) / Decimal(c.denominator) * R
            allowance += abs(float(c)) * (10.1 * U * float(T) + 4.1 * U * float(X))
            T_all, X_all = T_all + T, X_all + X
        value = tl.evaluate(tl.Scaled(tl.WeightedRibe(weights, 2), Fraction(1, 3)), x)
        assert within(value, exact / 3, allowance / 3, T_all, X_all)


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

    @pytest.mark.parametrize("weights", [{}, {0: 1}, {-3: 1, 2: 1}, {1: 1, NONSPLIT_CAP + 1: 1}])
    def test_malformed_weights_rejected(self, weights):
        with pytest.raises(ValueError, match="weight"):
            tl.WeightedRibe(weights, 2)

    def test_largest_block_accepted(self):
        assert tl.WeightedRibe({NONSPLIT_CAP: 1}, 2).assumed_constant == 1.0

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
        xj, yj = x.to_json(), y.to_json()
        for n in set(xj) | set(yj):
            c = float(self.W[int(n)])
            bx = MixedSeq({n: xj[n]} if n in xj else {})
            by = MixedSeq({n: yj[n]} if n in yj else {})
            gap = abs(
                tl.weighted_ribe_eval(bx + by, self.W)
                - tl.weighted_ribe_eval(bx, self.W)
                - tl.weighted_ribe_eval(by, self.W)
            )
            assert gap <= c * float(bx.norm() + by.norm()) + 1e-9


def every_block_weighted(x, floats):
    """``_weighted_blocks``'s value with ``_ribe_terms`` run on every block,
    one-coordinate blocks included."""
    return math.fsum(floats[n] * _ribe_terms(blk.values(), x.den) for n, blk in block_entries(x).items())


signed_rationals = st.builds(Fraction, st.integers(-(10 ** 6), 10 ** 6).filter(bool), st.integers(1, 10 ** 5))


@st.composite
def sparse_block_vectors(draw, max_width=4):
    """A MixedSeq on blocks 1..12, each holding one to ``max_width`` stored
    coordinates of either sign."""
    entries = {}
    for n in draw(st.lists(st.integers(1, 12), max_size=6, unique=True)):
        width = draw(st.integers(1, min(n, max_width)))
        for i in draw(st.lists(st.integers(1, n), min_size=width, max_size=width, unique=True)):
            entries[block_position(n, i)] = draw(signed_rationals)
    return MixedSeq._raw({}, 1) + FinSeq(entries) if entries else MixedSeq()


class TestOneCoordinateBlocks:
    weights = st.lists(signed_rationals, min_size=12, max_size=12).map(lambda ws: dict(enumerate(ws, 1)))

    @given(sparse_block_vectors(), weights)
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_every_block(self, x, weights):
        # float.hex tells -0.0 from 0.0, which == does not
        F = tl.WeightedRibe(weights, 2)
        assert float.hex(tl.evaluate(F, x)) == float.hex(every_block_weighted(x, F._floats))

    @given(sparse_block_vectors(max_width=1), weights)
    @settings(max_examples=100, deadline=None)
    def test_one_coordinate_blocks_give_plus_zero(self, x, weights):
        F = tl.WeightedRibe(weights, 2)
        assert float.hex(tl.evaluate(F, x)) == float.hex(every_block_weighted(x, F._floats)) == float.hex(0.0)

    def test_negative_terms_still_give_plus_zero(self):
        # -1/3 * ln 1 is -0.0; a negative weight turns +0.0 terms to -0.0
        x = MixedSeq({1: [Fraction(-1, 3)], 2: [0, 5], 3: [0, 0, Fraction(-7, 2)]})
        F = tl.WeightedRibe({1: 1, 2: -2, 3: Fraction(-1, 4)}, 2)
        assert float.hex(every_block_weighted(x, F._floats)) == float.hex(tl.evaluate(F, x)) == "0x0.0p+0"

    def test_missing_weight_still_raises(self):
        with pytest.raises(ValueError, match="missing weight for nonzero block 3"):
            tl.weighted_ribe_eval(MixedSeq({1: [1], 3: [0, 2, 0]}), {1: Fraction(1)})


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
        assert isinstance(T, tl.UserLinear)
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
            tl.UserLinear([FinSeq.unit(1), FinSeq.unit(1)], [1, 1])


class TestKernelNormalize:
    def test_already_kernel(self):
        xs = [FinSeq({1: 1, 2: -1}), FinSeq({3: 1, 4: -1})]
        T = tl.split_map_from_ribe(xs)
        out = tl.kernel_normalize(T, xs)
        assert out == [xs[0]]

    def test_combination(self):
        basis = [FinSeq.unit(1), FinSeq.unit(2)]
        T = tl.UserLinear(basis, [2, 1])
        out = tl.kernel_normalize(T, basis)
        assert out == [FinSeq({1: 1, 2: -2})]
        assert T(out[0]) == 0

    def test_unsolvable_pair(self):
        T = tl.UserLinear([FinSeq.unit(1), FinSeq.unit(2)], [1, 0])
        with pytest.raises(ValueError):
            tl.kernel_normalize(T, [FinSeq.unit(1), FinSeq.unit(2)])

    def test_odd_count_rejected(self):
        T = tl.UserLinear([FinSeq.unit(1)], [0])
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

    def test_derived_constants_are_not_arguments(self):
        # a constant below the derived one would be unsound, so none is taken
        with pytest.raises(TypeError, match="assumed_constant"):
            tl.Scaled(tl.Ribe(), Fraction(1, 2), assumed_constant=0.5)
        with pytest.raises(TypeError, match="assumed_constant"):
            tl.WeightedRibe({1: Fraction(1)}, 2, assumed_constant=0.5)


class TestIteratedDefect:
    def test_single(self):
        F = tl.normalize_constant(tl.Ribe())
        holds, _, _ = tl.iterated_defect_check(F, [FinSeq({1: 1, 2: 3})])
        assert holds

    def test_disjoint_mean_zero(self):
        F = tl.normalize_constant(tl.Ribe())
        us = [FinSeq({1: 1, 2: -1}), FinSeq({3: 2, 4: -2}), FinSeq({5: 1, 6: -1})]
        holds, lhs, _ = tl.iterated_defect_check(F, us)
        assert holds
        assert lhs <= 1e-12  # exact additivity on disjoint mean-zero spans

    def test_random_sweep(self):
        F = tl.normalize_constant(tl.Ribe())
        rng = random.Random(3)
        for _ in range(100):
            us = []
            for _ in range(rng.randint(1, 4)):
                us.append(FinSeq({rng.randint(1, 10): Fraction(rng.randint(-8, 8), 4) for _ in range(rng.randint(1, 3))}))
            holds, lhs, rhs = tl.iterated_defect_check(F, us)
            assert holds, (lhs, rhs)


def reference_blocks(x):
    """x's nonzero entries as Fractions grouped by block."""
    out = {}
    for p, v in x.items():
        out.setdefault(block_of(p)[0], []).append(v)
    return out


def reference_mixed_norm(x, p):
    norms = [sum(map(abs, vals), Fraction(0)) for vals in reference_blocks(x).values()]
    if len(norms) > 1:
        return math.fsum(float(v) ** float(p) for v in norms) ** (1.0 / float(p))
    return float(norms[0]) if norms else 0.0


def reference_evaluate(F, x):
    """``evaluate`` before the value-and-norm kernel: a decode and a weight's
    float per block on every call."""
    if isinstance(F, tl.Scaled):
        return float(F.factor) * reference_evaluate(F.inner, x)
    if isinstance(F, tl.UserLinear):
        return float(F(x))
    if isinstance(F, tl.Ribe):
        return ref_ribe_terms([v for _, v in x.items()])
    return math.fsum(float(F.weights[n]) * ref_ribe_terms(vals) for n, vals in reference_blocks(x).items())


def reference_norm(F, x):
    while isinstance(F, tl.Scaled):
        F = F.inner
    if isinstance(F, tl.WeightedRibe):
        return reference_mixed_norm(x, F.p)
    if isinstance(F, tl.UserLinear) and isinstance(F.space, MixedSpace):
        return reference_mixed_norm(x, F.space.p)
    return sum((abs(v) for _, v in x.items()), Fraction(0))


def reference_quasi_defect(F, x, y):
    denom = reference_norm(F, x) + reference_norm(F, y)
    gap = reference_evaluate(F, x + y) - (reference_evaluate(F, x) + reference_evaluate(F, y))
    return abs(gap) / float(denom)


def _seq_vector(rng):
    return FinSeq({rng.randint(1, 9): Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 8, 12))) for _ in range(rng.randint(0, 5))})


def _mixed_vector(rng, blocks=(1, 2, 3, 5, 6)):
    return MixedSeq({n: [Fraction(rng.randint(-9, 9), rng.choice((1, 4, 6))) for _ in range(n)] for n in rng.sample(blocks, rng.randint(0, 3))})


SEQ_BASIS = [FinSeq({1: 1, 2: -1}), FinSeq({2: Fraction(1, 2), 3: Fraction(1, 3)}), FinSeq({3: Fraction(-1, 4), 5: 2})]
MIXED_BASIS = [MixedSeq({2: [1, Fraction(-1, 2)]}), MixedSeq({1: [Fraction(1, 3)], 3: [0, 1, Fraction(-1, 4)]})]


def _span_vector(basis):
    def draw(rng):
        out = basis[0] * 0
        for b in basis:
            out = out + b * Fraction(rng.randint(-7, 7), rng.choice((1, 2, 5)))
        return out

    return draw


WEIGHTED = tl.WeightedRibe({1: 1, 2: Fraction(1, 2), 3: Fraction(-2, 3), 5: Fraction(1, 7), 6: 3}, Fraction(3, 2))
KERNEL_CASES = {
    "ribe": (tl.Ribe(), _seq_vector),
    "weighted": (WEIGHTED, _mixed_vector),
    "scaled_ribe": (tl.Scaled(tl.Ribe(), Fraction(3, 7)), _seq_vector),
    "scaled_weighted": (tl.Scaled(WEIGHTED, Fraction(5, 2)), _mixed_vector),
    "linear": (tl.UserLinear(SEQ_BASIS, [1, Fraction(-1, 3), Fraction(5, 2)]), _span_vector(SEQ_BASIS)),
    "linear_mixed": (tl.UserLinear(MIXED_BASIS, [1, -2], space=MixedSpace(3)), _span_vector(MIXED_BASIS)),
    "scaled_linear": (tl.Scaled(tl.UserLinear(SEQ_BASIS, [2, 0, -1], 0.5), Fraction(1, 3)), _span_vector(SEQ_BASIS)),
    "twice_scaled_ribe": (tl.Scaled(tl.Scaled(tl.Ribe(), Fraction(3, 7)), Fraction(10, 3)), _seq_vector),
    "twice_scaled_weighted": (tl.Scaled(tl.Scaled(WEIGHTED, Fraction(5, 2)), Fraction(1, 3)), _mixed_vector),
}


class TestScaledLayers:
    @pytest.mark.parametrize("name", ["twice_scaled_ribe", "twice_scaled_weighted", "scaled_linear"])
    def test_one_call_through_the_module_name(self, monkeypatch, name):
        # a wrapper bound over the module-level name sees one call per
        # evaluation however many Scaled layers F has, and the factors still
        # apply innermost first, as ``reference_evaluate``'s recursion does
        F, draw = KERNEL_CASES[name]
        calls = []
        evaluate = quasilinear.evaluate
        monkeypatch.setattr(quasilinear, "evaluate", lambda F, x: calls.append(F) or evaluate(F, x))
        rng = random.Random(name)
        xs = [draw(rng) for _ in range(50)]
        for x in xs:
            assert quasilinear.evaluate(F, x) == reference_evaluate(F, x)
            assert F.value_and_norm(x)[0] == reference_evaluate(F, x)
        assert calls == [F] * len(xs)


class TestKindMethods:
    @pytest.mark.parametrize("name", sorted(KERNEL_CASES))
    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_value_norm_and_descriptor(self, name, seed):
        # each kind evaluates itself: value, value_and_norm and the frozen
        # reference agree to the bit, the norm pair is the space's norm, and
        # the descriptor reads back as the same functional
        F, draw = KERNEL_CASES[name]
        x = draw(random.Random(seed))
        value, a, d = F.value_and_norm(x)
        assert float.hex(F.value(x)) == float.hex(value) == float.hex(reference_evaluate(F, x))
        norm = F.space.norm(x)
        if type(a) is int:
            assert type(norm) is Fraction and Fraction(a, d) == norm
        else:
            assert d == 1 and float.hex(a) == float.hex(norm)
        G = functional_from_json(F.to_json())
        assert type(G) is type(F) and G.to_json() == F.to_json() and G.space.to_json() == F.space.to_json()
        assert float.hex(G.value(x)) == float.hex(value)


class TestKernelAgainstReference:
    @pytest.mark.parametrize("name", sorted(KERNEL_CASES))
    def test_defect_and_value_bit_identical(self, name):
        F, draw = KERNEL_CASES[name]
        rng = random.Random(name)
        checked = 0
        for _ in range(400):
            x, ys = draw(rng), [draw(rng) for _ in range(3)]
            assert tl.evaluate(F, x) == reference_evaluate(F, x)
            ys = [y for y in ys if x or y]
            want = [reference_quasi_defect(F, x, y) for y in ys]
            assert quasi_defects(F, x, ys) == want
            assert [tl.quasi_defect(F, x, y) for y in ys] == want
            checked += len(ys)
        assert checked > 1000

    @pytest.mark.parametrize("name", sorted(KERNEL_CASES))
    def test_quasi_norm_bit_identical(self, name):
        # quasi_norm reads both terms from one value_and_norm; it keeps the
        # bits of the evaluate-plus-space-norm formula
        F, draw = KERNEL_CASES[name]
        rng = random.Random("quasi_norm " + name)
        space = F.space
        for _ in range(400):
            x = draw(rng)
            r = rng.choice((0.0, -1.5, Fraction(7, 3), rng.uniform(-4, 4)))
            assert tl.quasi_norm(F, TwistedVec(r, x)) == abs(float(r) - tl.evaluate(F, x)) + float(space.norm(x))

    def test_weighted_eval_and_norm_bit_identical(self):
        rng = random.Random(11)
        W = {n: Fraction(rng.randint(-5, 5), rng.randint(1, 9)) for n in range(1, 41)}
        for _ in range(1000):
            x = _mixed_vector(rng, blocks=(1, 2, 7, 11, 30, 40))
            assert tl.weighted_ribe_eval(x, W) == reference_evaluate(tl.WeightedRibe(W, 2), x)
            for p in (Fraction(2), Fraction(3, 2), 5):
                assert norm_mixed(x, p) == reference_mixed_norm(x, p)
        # dict orders that interleave blocks, as x + y and combination leave
        # them (y's new positions after x's), with cancelled blocks, blocks of
        # one stored coordinate, and the same entries in a shuffled order
        Fs = [tl.WeightedRibe(W, p) for p in (Fraction(2), Fraction(3, 2), 5)]
        interleaved = cancelled = single = 0
        for _ in range(1000):
            x, y = (_mixed_vector(rng, blocks=(1, 2, 3, 7, 11)) for _ in range(2))
            y = y + MixedSeq._raw({p: rng.randint(-3, 3) or 1 for p in rng.sample(range(1, 67), 3)}, rng.choice((1, 4)))
            gone = rng.choice([block_of(p)[0] for p in x.nums] or [1])  # a block of x that x + cut cancels
            cut = MixedSeq._raw({p: -n for p, n in x.nums.items() if block_of(p)[0] == gone}, x.den)
            cancelled += bool(cut)
            for z in (x + y, x + cut + y, MixedSeq.combination(((x, 3), (y, -2), (cut, 3)), 6)):
                if rng.random() < 0.3:
                    items = list(z.nums.items())
                    rng.shuffle(items)
                    z = MixedSeq._raw(dict(items), z.den)
                runs = [block_of(p)[0] for p in z.nums]
                runs = [n for i, n in enumerate(runs) if not i or n != runs[i - 1]]
                interleaved += len(runs) > len(set(runs))
                single += any(len(vals) == 1 for vals in reference_blocks(z).values())
                for F in Fs:
                    value, norm, d = F.value_and_norm(z)
                    assert (value, norm, d) == (reference_evaluate(F, z), reference_mixed_norm(z, F.p), 1)
        assert min(interleaved, cancelled, single) > 300
        # a missing weight raises for a block that comes after a weighted one
        for z in (
            MixedSeq.unit(2, 1) + MixedSeq.unit(4, 2),
            MixedSeq.unit(2, 1) + MixedSeq.unit(4, 2) + MixedSeq.unit(2, 2),
            MixedSeq.combination(((MixedSeq({2: [1, 1]}), 1), (MixedSeq({4: [0, 1, 0, 1]}), 1), (MixedSeq.unit(1, 1), 1))),
        ):
            with pytest.raises(ValueError, match="missing weight for nonzero block 4"):
                tl.WeightedRibe({1: 1, 2: Fraction(1, 2), 3: 1}, 2).value(z)

    def test_missing_weight_through_the_kernel(self):
        with pytest.raises(ValueError, match="missing weight for nonzero block 4"):
            tl.quasi_defect(WEIGHTED, MixedSeq.unit(1, 1), MixedSeq.unit(4, 2))


def reference_eliminate(cols, tgt):
    """The dense Fraction Gauss-Jordan elimination that the integer rows
    replaced, on dicts of position to value."""
    positions = sorted(set().union(*cols, tgt))
    k = len(cols)
    rows = [[col.get(p, Fraction(0)) for col in cols] + [tgt.get(p, Fraction(0))] for p in positions]
    pivots = []
    for c in range(k):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = prow = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        pivots.append(c)
    return rows, pivots


def reference_solve_in_span(basis, target):
    rows, pivots = reference_eliminate([dict(b.items()) for b in basis], dict(target.items()))
    if any(row[-1] for row in rows[len(pivots):]):
        return None
    sol = [Fraction(0)] * len(basis)
    for row, c in zip(rows, pivots):
        sol[c] = row[-1]
    return sol


def random_sparse_family(rng, mixed=False):
    """Up to 6 sparse vectors on few positions, some made dependent."""
    def vec():
        if mixed:
            return MixedSeq({n: [Fraction(rng.randint(-4, 4), rng.choice((1, 3))) for _ in range(n)] for n in rng.sample(range(1, 4), rng.randint(0, 2))})
        return FinSeq({rng.randint(1, 8): Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 8))) for _ in range(rng.randint(0, 4))})

    family = [vec() for _ in range(rng.randint(0, 6))]
    if len(family) >= 2 and rng.random() < 0.4:
        family.append(family[0] * Fraction(rng.randint(-3, 3), 2) + family[-1])
    rng.shuffle(family)
    return family


class TestExactLinearAlgebra:
    @pytest.mark.parametrize("mixed", [False, True])
    def test_matches_dense_fraction_reference(self, mixed):
        rng = random.Random(5 + mixed)
        solvable = 0
        for _ in range(1500):
            family = random_sparse_family(rng, mixed)
            assert rank(family) == len(reference_eliminate([dict(v.items()) for v in family], {})[1])
            target = random_sparse_family(rng, mixed)[:1]
            if family and rng.random() < 0.5:
                target = [family[0] * 3 + family[-1] * Fraction(-1, 2)]
            target = target[0] if target else (MixedSeq() if mixed else FinSeq())
            expected = reference_solve_in_span(family, target)
            if expected is None:
                with pytest.raises(ValueError):
                    solve_in_span(family, target)
            else:
                assert solve_in_span(family, target) == expected
                solvable += 1
        assert 300 < solvable < 1200

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
        G = functional_from_json(F.to_json())
        x = FinSeq({2: Fraction(3, 7), 5: -2}) if not isinstance(F, tl.UserLinear) else FinSeq({2: 4})
        if isinstance(F, tl.WeightedRibe):
            x = MixedSeq({1: [Fraction(1, 3)], 3: [1, -1, 2]})
        assert tl.evaluate(G, x) == tl.evaluate(F, x)
