import itertools
import math
from fractions import Fraction

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from twistlab import (
    FinSeq,
    MixedSeq,
    disjoint_supports,
    in_hyperplane_H,
    james_norm,
    norm_mixed,
    ribe_eval,
    weighted_ribe_eval,
)
from twistlab.seqspace import (
    JAMES_SUPPORT_CAP,
    MixedSpace,
    SeqSpace,
    block_entries,
    block_of,
    block_position,
    frac_str,
    vector_from_json,
)

from .strategies import finseqs, small_scalar


RATIO_EDGE_STRINGS = [
    "1/2", "-3/4", "2/4", "-6/4", "007/3", "-0/5", "0/1", "12345678901234567890123/7",
    "1/0", "-1/0", "0/0", "1/-2", "-1/-2", "--1/2", "+1/2", " 1/2", "1/2 ", "1/2\n", "1 / 2",
    "1_0/3", "1/1_0", "0.5", "7", "-7", "1e3", "inf", "nan", "/5", "5/", "", "-", "1//2",
    "\u0661/\u0662", "1/\u0662", "\u00b2/3", "\uff11/2",
]


def parse_or_error(make):
    try:
        return make()
    except Exception as exc:  # the exception class is what must agree
        return type(exc)


def reference_entries(pairs):
    """The Fraction constructor's entries: values summed by position in
    first-seen order, zeros dropped."""
    data = {}
    for i, v in pairs:
        v = Fraction(v)
        if i in data:
            v += data[i]
            if not v:
                del data[i]
                continue
        if v:
            data[i] = v
    return data


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
        assert james_norm(FinSeq({i: (-1) ** i for i in range(1, JAMES_SUPPORT_CAP + 1)})) == math.sqrt(4 * JAMES_SUPPORT_CAP - 3)
        with pytest.raises(ValueError):
            james_norm(FinSeq({i: 1 for i in range(1, JAMES_SUPPORT_CAP + 2)}))

    @given(finseqs(max_index=16, max_entries=10))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_exhaustive_enumeration(self, x):
        # every increasing tuple of the support's values and the trailing 0
        vals = [x[i] for i in x.support] + [Fraction(0)]
        best = Fraction(0)
        for size in range(2, len(vals) + 1):
            for tup in itertools.combinations(vals, size):
                best = max(best, sum(((a - b) ** 2 for a, b in zip(tup, tup[1:])), Fraction(0)))
        assert james_norm(x) == math.sqrt(best)


class TestMixed:
    def test_block_length_enforced(self):
        # a string has a length and iterates, but it is not a row of coordinates
        for bad in ({3: [1, 2]}, {"3": "123"}, {"1": "7"}):
            with pytest.raises(ValueError):
                MixedSeq(bad)

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

    def test_arithmetic_cancels_blocks(self):
        x = MixedSeq({2: [1, -1]})
        assert x - x == MixedSeq()
        assert (x * 2).norm() == 4

    def test_block_view_over_sparse_storage(self):
        x = MixedSeq({3: [0, Fraction(1, 2), 0], 1: [-1]})
        assert isinstance(x, FinSeq) and x != FinSeq(x.items())
        assert dict(x.items()) == {1: -1, 5: Fraction(1, 2)}
        assert block_entries(x) == {1: {1: -2}, 3: {2: 1}} and x.den == 2
        assert x.to_json() == {"1": ["-1/1"], "3": ["0/1", "1/2", "0/1"]}
        assert repr(x) == "MixedSeq({'1': ['-1/1'], '3': ['0/1', '1/2', '0/1']})"
        assert repr(FinSeq({2: Fraction(-1, 3)})) == "FinSeq({'2': '-1/3'})"
        assert type(x + x) is MixedSeq and type(-x * 3) is MixedSeq

    def test_zero_rows_load_equal(self):
        rows = [MixedSeq({"3": [z, "1/2", z], "2": [z, z]}) for z in ("0", "0/7", "0/1")]
        assert rows[0] == rows[1] == rows[2] == MixedSeq({3: [0, Fraction(1, 2), 0]})
        assert all(x.nums == {5: 1} and x.den == 2 for x in rows)

    def test_zero_finseq_operand(self):
        # the JSON zero vector {} loads as FinSeq(); block norms read any FinSeq
        y = FinSeq() + MixedSeq.unit(2, 1)
        assert dict(y.items()) == {2: 1}
        assert norm_mixed(y + MixedSeq.unit(3, 1), 2) == pytest.approx(math.sqrt(2), abs=1e-15)


@st.composite
def numerator_dicts(draw):
    """(nums, den): int numerators by position over den, as a replay holds
    them: some entries 0, some blocks cancelled to all 0, and den times a
    common factor of the numerators."""
    positions = draw(st.lists(st.integers(1, 21), max_size=8, unique=True))
    nums = {p: draw(st.integers(-9, 9)) for p in positions}
    for n in draw(st.lists(st.integers(1, 6), max_size=2, unique=True)):
        for p in range(block_position(n, 1), block_position(n, n) + 1):
            if p in nums:
                nums[p] = 0
    k = draw(st.integers(1, 4))
    return {p: k * a for p, a in nums.items()}, k * draw(st.integers(1, 12))


def mixed_of(nums, den):
    """The MixedSeq of the nonzero entries of nums over den."""
    blocks: dict = {}
    for p, a in nums.items():
        if a:
            n, i = block_of(p)
            blocks.setdefault(n, [0] * n)[i - 1] = Fraction(a, den)
    return MixedSeq(blocks)


class TestNormOf:
    @given(numerator_dicts())
    @settings(max_examples=200, deadline=None)
    def test_seq_is_the_l1_norm(self, case):
        nums, den = case
        a, d = SeqSpace().norm_of(nums, den)
        assert Fraction(a, d) == SeqSpace().norm(FinSeq({p: Fraction(n, den) for p, n in nums.items() if n}))

    @given(numerator_dicts(), st.sampled_from([Fraction(3, 2), Fraction(2), Fraction(3), Fraction(7, 3)]))
    @settings(max_examples=200, deadline=None)
    def test_mixed_is_norm_mixed_to_the_bit(self, case, p):
        nums, den = case
        norm, one = MixedSpace(p).norm_of(nums, den)
        assert one == 1 and norm.hex() == norm_mixed(mixed_of(nums, den), p).hex()

    def test_one_block_beside_a_cancelled_one(self):
        # block 1 holds 2/10, block 2 cancelled to 0: counting it as a zero
        # block would read 0.20000000000000004 at p = 3
        nums = {1: 2, 2: 0, 3: 0}
        assert MixedSpace(3).norm_of(nums, 10) == (0.2, 1) == (norm_mixed(MixedSeq({1: [Fraction(1, 5)]}), 3), 1)


class TestSerialization:
    @given(finseqs())
    @settings(max_examples=40, deadline=None)
    def test_finseq_roundtrip(self, x):
        assert vector_from_json(x.to_json(), SeqSpace()) == x

    def test_finseq_json_shape(self):
        obj = FinSeq({2: Fraction(-1, 3)}).to_json()
        assert obj == {"2": "-1/3"}

    def test_mixed_roundtrip(self):
        x = MixedSeq({2: [Fraction(1, 2), 0], 3: [0, 1, -1]})
        assert vector_from_json(x.to_json(), MixedSpace(2)) == x

    @pytest.mark.parametrize("text", RATIO_EDGE_STRINGS)
    def test_ratio_strings_parse_as_fraction(self, text):
        # "num/den" in ASCII digits is split into two ints, anything else goes
        # through Fraction: both give Fraction's value or its exception class
        want = parse_or_error(lambda: Fraction(text))
        assert parse_or_error(lambda: FinSeq({1: text})[1]) == want
        assert parse_or_error(lambda: FinSeq([(3, "1/6"), (1, text)])[1]) == want
        assert parse_or_error(lambda: MixedSeq({2: ["0/1", text]})[3]) == want
        if isinstance(want, Fraction):
            x, y = FinSeq({3: "1/6", 1: text}), FinSeq({3: Fraction(1, 6), 1: want})
            assert (x.nums, x.den) == (y.nums, y.den)

    @given(st.lists(st.tuples(st.integers(1, 6), st.integers(-(10**20), 10**20), st.integers(1, 10**6)), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_ratio_strings_match_the_fraction_constructor(self, triples):
        # repeated positions sum in place, a cancelled one is dropped, and the
        # numerators stand over the lcm of the least denominators
        pairs = [(i, "%d/%d" % (n, d)) for i, n, d in triples]
        model = reference_entries(pairs)
        x = FinSeq(pairs)
        assert list(x.items()) == list(model.items())
        assert x.den == math.lcm(*(v.denominator for v in model.values()))

    def test_space_roundtrip(self):
        from twistlab.seqspace import space_from_json

        assert isinstance(space_from_json(SeqSpace().to_json()), SeqSpace)
        ms = space_from_json(MixedSpace(Fraction(3, 2)).to_json())
        assert ms.p == Fraction(3, 2)


# --- reference model: the same operations on plain {position: Fraction} dicts ---

PRIME_64 = 2**61 - 1  # so PRIME_64 * 10007 passes 2^64
wide_den = st.sampled_from([1, 2, 8, 1024, 2**40, 3, 7, 101, 10007, PRIME_64, PRIME_64 * 10007, 6 * PRIME_64 * 10007])
wide_rational = st.builds(Fraction, st.integers(-(10**21), 10**21).filter(bool), wide_den)
positions = st.integers(1, 15)  # blocks 1..5 in the block layout


@st.composite
def models(draw, max_entries=6):
    idxs = draw(st.lists(positions, max_size=max_entries, unique=True))
    return {i: draw(wide_rational) for i in idxs}


def model_add(a, b):
    """The seed FinSeq's addition: a's order, b's new positions appended,
    cancelled positions dropped."""
    out = dict(a)
    for i, v in b.items():
        acc = out.get(i, 0) + v
        if acc:
            out[i] = acc
        else:
            out.pop(i, None)
    return out


def model_scale(a, s):
    return {i: v * s for i, v in a.items()} if s else {}


def ref_ribe_terms(vals):
    total = sum(vals, Fraction(0))
    fvals = [float(v) for v in vals]
    g = float(total) if total else math.fsum(map(abs, fvals))
    return math.fsum(v * math.log(abs(v / g)) for v in fvals)


def model_blocks(a):
    out = {}
    for p, v in a.items():
        n, i = block_of(p)
        out.setdefault(n, {})[i] = v
    return out


def assert_matches(x, model):
    """x holds exactly the model's entries, in the model's order."""
    assert list(x.items()) == list(model.items())
    assert all(type(v) is Fraction for _, v in x.items())
    assert len(x) == len(model) and bool(x) == bool(model)


class TestReferenceModel:
    @given(models(), models())
    @settings(max_examples=150, deadline=None)
    def test_add_sub_neg(self, a, b):
        x, y = FinSeq(a), FinSeq(b)
        assert_matches(x, a)
        assert_matches(x + y, model_add(a, b))
        assert_matches(x - y, model_add(a, model_scale(b, -1)))
        assert_matches(-x, model_scale(a, -1))

    @given(models(), wide_rational | st.just(Fraction(0)))
    @settings(max_examples=150, deadline=None)
    def test_scale_and_divide(self, a, s):
        x = FinSeq(a)
        assert_matches(x * s, model_scale(a, s))
        assert_matches(s * x, model_scale(a, s))
        if s:
            assert_matches(x / s, model_scale(a, 1 / s))

    @given(models(), models())
    @settings(max_examples=150, deadline=None)
    def test_reads(self, a, b):
        x = FinSeq(a) + FinSeq(b)  # an unreduced sum over mixed denominators
        m = model_add(a, b)
        assert x.norm() == sum(map(abs, m.values()), Fraction(0))
        assert x.coord_sum() == sum(m.values(), Fraction(0))
        assert x.support == tuple(sorted(m))
        assert all(x[i] == m.get(i, 0) and type(x[i]) is Fraction for i in range(1, 17))
        assert x.max_support() == max(m, default=0)
        assert x.to_json() == {str(i): frac_str(v) for i, v in sorted(m.items())}
        assert vector_from_json(x.to_json(), SeqSpace()) == x

    @given(models(), models(), wide_rational)
    @settings(max_examples=150, deadline=None)
    def test_equal_values_are_equal_and_hash_equal(self, a, b, s):
        x, y = FinSeq(a), FinSeq(b)
        for same in ((x * s) / s, x + y - y, y + x - y, FinSeq(x.items())):
            assert same == x and hash(same) == hash(x)
        assert (x + y == y + x) and hash(x + y) == hash(y + x)
        assert (x + FinSeq({1: 1})) != x

    def test_halves_sum_to_the_unit(self):
        half = FinSeq({1: Fraction(1, 2)})
        assert half + half == FinSeq.unit(1) and hash(half + half) == hash(FinSeq.unit(1))
        third = FinSeq({1: Fraction(1, 3), 2: Fraction(1, 6)})
        assert third * 6 - FinSeq({2: 1}) == FinSeq({1: 2})

    @given(models(), models())
    @settings(max_examples=150, deadline=None)
    def test_ribe_eval_bit_identical(self, a, b):
        m = model_add(a, b)
        assert ribe_eval(FinSeq(a) + FinSeq(b)) == ref_ribe_terms(list(m.values()))

    @given(models(), models(), st.dictionaries(st.integers(1, 5), wide_rational, min_size=5, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_block_formulas_bit_identical(self, a, b, weights):
        x = MixedSeq() + FinSeq(a) + FinSeq(b)
        blocks = model_blocks(model_add(a, b))
        parts = [float(weights[n]) * ref_ribe_terms(list(blk.values())) for n, blk in blocks.items()]
        assert weighted_ribe_eval(x, weights) == math.fsum(parts)
        norms = [sum(map(abs, blk.values()), Fraction(0)) for blk in blocks.values()]
        for p in (Fraction(2), Fraction(3, 2)):
            if len(norms) > 1:
                expected = math.fsum(float(v) ** float(p) for v in norms) ** (1.0 / float(p))
            else:
                expected = float(norms[0]) if norms else 0.0
            assert norm_mixed(x, p) == expected

    @given(models(), models())
    @settings(max_examples=100, deadline=None)
    def test_mixed_blocks_and_json(self, a, b):
        x = MixedSeq() + FinSeq(a) - FinSeq(b)
        blocks = model_blocks(model_add(a, model_scale(b, -1)))
        dense = {str(n): [frac_str(blk.get(i, Fraction(0))) for i in range(1, n + 1)] for n, blk in sorted(blocks.items())}
        assert type(x) is MixedSeq
        assert {n: {i: Fraction(v, x.den) for i, v in blk.items()} for n, blk in block_entries(x).items()} == blocks
        assert x.to_json() == dense and list(x.to_json()) == list(dense)
        assert vector_from_json(x.to_json(), MixedSpace(2)) == x

    def test_floats_rejected_everywhere(self):
        x = FinSeq({1: 1})
        floats = (lambda: FinSeq({1: 0.5}), lambda: x * 0.5, lambda: x / 0.5, lambda: MixedSeq({1: [0.5]}))
        for bad in (*floats, lambda: MixedSeq({2: [0.0, 1]})):
            with pytest.raises(TypeError):
                bad()
