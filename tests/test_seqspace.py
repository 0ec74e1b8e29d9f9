import math
from fractions import Fraction

import pytest
from hypothesis import given, settings

from twistlab import (
    FinSeq,
    MixedSeq,
    disjoint_supports,
    in_hyperplane_H,
    james_norm,
    norm_mixed,
)
from twistlab.seqspace import MixedSpace, SeqSpace, block_of, block_position

from .strategies import finseqs, small_scalar


class TestFinSeqBasics:
    def test_canonical_no_zeros(self):
        x = FinSeq({1: 1, 2: 0, 3: Fraction(0)})
        assert x.support == (1,)

    def test_accumulating_pairs(self):
        x = FinSeq([(1, Fraction(1, 2)), (1, Fraction(-1, 2)), (2, 3)])
        assert x == FinSeq({2: 3})

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            FinSeq({1: 0.5})

    def test_nonpositive_index_rejected(self):
        with pytest.raises(ValueError):
            FinSeq({0: 1})

    def test_arithmetic(self):
        x = FinSeq({1: 1, 2: -2})
        y = FinSeq({2: 2, 3: 5})
        assert x + y == FinSeq({1: 1, 3: 5})
        assert x - x == FinSeq()
        assert x * Fraction(1, 2) == FinSeq({1: Fraction(1, 2), 2: -1})
        assert -x == FinSeq({1: -1, 2: 2})


class TestNormL1:
    def test_empty(self):
        assert FinSeq().norm() == 0

    def test_direct_sum(self):
        assert FinSeq({1: 1, 3: -2}).norm() == 3

    def test_single(self):
        assert FinSeq({5: Fraction(1, 2)}).norm() == Fraction(1, 2)


class TestPredicates:
    def test_right_of(self):
        assert FinSeq({5: 1}).is_right_of(4)
        assert not FinSeq({5: 1}).is_right_of(5)
        assert FinSeq().is_right_of(100)

    def test_hyperplane(self):
        assert in_hyperplane_H(FinSeq({1: 1, 2: -1}))
        assert not in_hyperplane_H(FinSeq({1: 1}))
        assert in_hyperplane_H(FinSeq())

    def test_disjoint(self):
        assert disjoint_supports(FinSeq({1: 1}), FinSeq({2: 1}))
        assert not disjoint_supports(FinSeq({1: 1}), FinSeq({1: -1}))
        assert disjoint_supports(FinSeq(), FinSeq({1: 1, 7: 2}))

    @given(finseqs(max_index=6), finseqs(max_index=6))
    @settings(max_examples=80, deadline=None)
    def test_disjoint_additivity(self, x, y):
        if disjoint_supports(x, y):
            assert (x + y).norm() == x.norm() + y.norm()


class TestJamesNorm:
    def test_single_unit(self):
        assert james_norm(FinSeq({1: 1})) == pytest.approx(1.0, abs=1e-15)

    def test_zero(self):
        assert james_norm(FinSeq()) == 0.0

    def test_two_equal_entries(self):
        # Exhaustive enumeration over {1, 2, 3}: the best tuple is any pair
        # hitting the zero past the support, giving gap 1; the full tuple
        # (1,2,3) gives 0 + 1.  Squared sums never exceed 1.
        assert james_norm(FinSeq({1: 1, 2: 1})) == pytest.approx(1.0, abs=1e-15)

    def test_staircase(self):
        # (1,2,3) with values 1, -1, 0: (1-(-1))^2 + (-1-0)^2 = 5
        assert james_norm(FinSeq({1: 1, 2: -1})) == pytest.approx(math.sqrt(5), abs=1e-12)

    def test_gap_lower_bound(self):
        x = FinSeq({1: 3, 4: -2})
        vals = [x[i] for i in (1, 4, 5)]
        gap = max(abs(a - b) for a in vals for b in vals)
        assert james_norm(x) >= gap / math.sqrt(2) - 1e-12

    @given(finseqs(max_index=8, max_entries=4), small_scalar.filter(bool))
    @settings(max_examples=40, deadline=None)
    def test_absolute_homogeneity(self, x, s):
        j = james_norm(x)
        js = james_norm(x * s)
        assert js == pytest.approx(abs(float(s)) * j, rel=1e-12, abs=1e-12)

    def test_support_cap(self):
        big = FinSeq({i: 1 for i in range(1, 20)})
        with pytest.raises(ValueError):
            james_norm(big)


class TestMixed:
    def test_block_length_enforced(self):
        with pytest.raises(ValueError):
            MixedSeq({3: [1, 2]})

    def test_single_block_exact(self):
        assert norm_mixed(MixedSeq({3: [1, 1, 1]}), 2) == 3.0

    def test_two_blocks(self):
        assert norm_mixed(MixedSeq({1: [1], 2: [1, 0]}), 2) == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_zero(self):
        assert norm_mixed(MixedSeq(), 2) == 0.0

    def test_p_rejected(self):
        with pytest.raises(ValueError):
            norm_mixed(MixedSeq({1: [1]}), 1)

    def test_positions(self):
        assert block_position(1, 1) == 1
        assert block_position(2, 1) == 2
        assert block_position(3, 3) == 6
        assert all(block_of(block_position(n, i)) == (n, i) for n in range(1, 60) for i in range(1, n + 1))
        x = MixedSeq({2: [0, 1], 3: [1, 0, 0]})
        assert x.support == (3, 4)
        assert x.is_right_of(2)
        assert not x.is_right_of(3)

    def test_unit_source_layout(self):
        space = MixedSpace(2)
        assert space.unit_source(1) == MixedSeq.unit(1, 1)
        assert space.unit_source(2) == MixedSeq.unit(2, 1)
        assert space.unit_source(3) == MixedSeq.unit(2, 2)
        assert space.unit_source(4) == MixedSeq.unit(3, 1)

    def test_arithmetic_cancels_blocks(self):
        x = MixedSeq({2: [1, -1]})
        assert x - x == MixedSeq()
        assert (x * 2).norm() == 4

    def test_block_view_over_sparse_storage(self):
        x = MixedSeq({3: [0, Fraction(1, 2), 0], 1: [-1]})
        assert isinstance(x, FinSeq) and x != FinSeq(x.items())
        assert dict(x.items()) == {1: -1, 5: Fraction(1, 2)}
        assert x.blocks == {1: (-1,), 3: (0, Fraction(1, 2), 0)}
        assert x.block(2) == (0, 0)
        assert type(x + x) is MixedSeq and type(-x * 3) is MixedSeq

    def test_zero_finseq_operand(self):
        # the JSON zero vector {} loads as FinSeq(); block norms read any FinSeq
        y = FinSeq() + MixedSeq.unit(2, 1)
        assert dict(y.items()) == {2: 1}
        assert norm_mixed(y + MixedSeq.unit(3, 1), 2) == pytest.approx(math.sqrt(2), abs=1e-15)


class TestSerialization:
    @given(finseqs())
    @settings(max_examples=40, deadline=None)
    def test_finseq_roundtrip(self, x):
        assert FinSeq.from_json(x.to_json()) == x

    def test_finseq_json_shape(self):
        obj = FinSeq({2: Fraction(-1, 3)}).to_json()
        assert obj == {"2": "-1/3"}

    def test_mixed_roundtrip(self):
        x = MixedSeq({2: [Fraction(1, 2), 0], 3: [0, 1, -1]})
        assert MixedSeq.from_json(x.to_json()) == x

    def test_space_roundtrip(self):
        from twistlab.seqspace import space_from_json

        assert isinstance(space_from_json(SeqSpace().to_json()), SeqSpace)
        ms = space_from_json(MixedSpace(Fraction(3, 2)).to_json())
        assert ms.p == Fraction(3, 2)
