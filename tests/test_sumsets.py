import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import twistlab as tl
from twistlab import FinSeq, MixedSeq, SumCertificate, SumFamily
from twistlab.seqspace import frac_str
from twistlab.sumsets import (
    certificate_problems,
    family_zero,
    level_counts,
    random_certificate,
)


@pytest.fixture
def fam():
    # three blocks with tiny generator lists; plenty for the calculus laws
    return SumFamily(
        {
            1: [FinSeq({1: 1}), FinSeq({2: 1})],
            2: [FinSeq({3: 1, 4: -1}), FinSeq({5: 2})],
            3: [FinSeq({6: 1}), FinSeq({7: 1}), FinSeq({8: 1})],
        }
    )


class TestValue:
    def test_empty(self, fam):
        assert tl.certificate_value(fam, SumCertificate(())) == FinSeq()

    def test_single(self, fam):
        c = SumCertificate.of([(2, 0, 1)])
        assert tl.certificate_value(fam, c) == FinSeq({3: 1, 4: -1})

    def test_combination(self, fam):
        c = SumCertificate.of([(1, 0, 1), (1, 1, Fraction(1, 2))])
        assert tl.certificate_value(fam, c) == FinSeq({1: 1, 2: Fraction(1, 2)})

    def test_dangling_reference(self, fam):
        with pytest.raises(IndexError):
            tl.certificate_value(fam, SumCertificate.of([(9, 0, 1)]))


class TestValidity:
    def test_budget_two_at_level_two_from_block_three(self, fam):
        c = SumCertificate.of([(3, 0, 1), (3, 1, -1)])
        assert tl.certificate_valid(fam, c, 2)  # budget 2^(3-2) = 2

    def test_budget_exceeded(self, fam):
        c = SumCertificate.of([(3, 0, 1), (3, 1, -1), (3, 2, 1)])
        assert not tl.certificate_valid(fam, c, 2)

    def test_coefficient_too_large(self, fam):
        c = SumCertificate.of([(3, 0, Fraction(3, 2))])
        assert not tl.certificate_valid(fam, c, 2)

    def test_block_below_level(self, fam):
        c = SumCertificate.of([(1, 0, 1)])
        assert not tl.certificate_valid(fam, c, 2)
        assert tl.certificate_valid(fam, c, 1)

    def test_problems_listed(self, fam):
        c = SumCertificate.of([(1, 0, 2), (9, 5, 1)])
        msgs = certificate_problems(fam, c, 2)
        assert any("exceeds 1" in m for m in msgs)
        assert any("below level" in m for m in msgs)
        assert any("dangling" in m for m in msgs)


class TestScale:
    def test_zero_scale(self, fam):
        c = SumCertificate.of([(1, 0, 1)])
        assert tl.certificate_value(fam, tl.scale_certificate(c, 0)) == FinSeq()

    def test_negate(self, fam):
        c = SumCertificate.of([(2, 1, Fraction(1, 2))])
        neg = tl.scale_certificate(c, -1)
        assert tl.certificate_value(fam, neg) == -tl.certificate_value(fam, c)
        assert tl.certificate_valid(fam, neg, 2)

    def test_overscale_rejected(self, fam):
        with pytest.raises(ValueError):
            tl.scale_certificate(SumCertificate.of([(1, 0, 1)]), 2)
        # the bound is on the scaled coefficients, not on the factor
        doubled = tl.scale_certificate(SumCertificate.of([(1, 0, Fraction(1, 2))]), 2)
        assert doubled == SumCertificate.of([(1, 0, 1)])

    @given(st.integers(-8, 8))
    @settings(max_examples=40, deadline=None)
    def test_value_scales_exactly(self, num):
        fam = SumFamily({1: [FinSeq({1: 1, 2: -3})], 2: [FinSeq({4: 5})]})
        s = Fraction(num, 8)
        c = SumCertificate.of([(1, 0, Fraction(1, 2)), (2, 0, -1)])
        assert tl.certificate_value(fam, tl.scale_certificate(c, s)) == tl.certificate_value(fam, c) * s


    @pytest.mark.parametrize(
        "r, s",
        [(Fraction(1, 2), 2), (Fraction(-3, 7), Fraction(-7, 3)), (Fraction(2, 3), Fraction(3, 2)), (1, -1)],
    )
    def test_unit_product_accepted(self, r, s):
        scaled = tl.scale_certificate(SumCertificate.of([(1, 0, r), (2, 1, Fraction(1, 5))]), s)
        assert scaled == SumCertificate.of([(1, 0, r * s), (2, 1, Fraction(1, 5) * s)])
        assert abs(r * s) == 1

    @pytest.mark.parametrize(
        "r, s",
        [
            (Fraction(1, 2), Fraction(2 * 10 ** 12 + 1, 10 ** 12)),
            (Fraction(-3, 7), Fraction(-7 * 10 ** 9 - 1, 3 * 10 ** 9)),
            (1, Fraction(10 ** 15 + 1, 10 ** 15)),
            (Fraction(-1, 64), -65),
        ],
    )
    def test_just_past_one_rejected(self, r, s):
        assert abs(r * s) > 1
        with pytest.raises(ValueError):
            tl.scale_certificate(SumCertificate.of([(2, 1, Fraction(1, 5)), (1, 0, r)]), s)


triples = st.lists(
    st.tuples(
        st.integers(1, 4),
        st.integers(0, 2),
        st.fractions(min_value=-1, max_value=1, max_denominator=10 ** 6),
    ),
    max_size=8,
)


class TestIntegerForm:
    """Certificates store integer numerators over one reduced denominator;
    every kernel must agree with the same sum taken in Fractions."""

    @given(triples)
    @settings(max_examples=100, deadline=None)
    def test_json_roundtrip_and_reduced_strings(self, ts):
        c = SumCertificate.of(ts)
        assert SumCertificate.from_json(c.to_json()) == c
        assert [t["r"] for t in c.to_json()] == [frac_str(Fraction(r)) for _, _, r in ts]
        assert math.gcd(c.den, *(n for _, _, n in c.terms)) == 1

    @given(triples, triples)
    @settings(max_examples=100, deadline=None)
    def test_joined_and_equality_match_fractions(self, ts, us):
        c, d = SumCertificate.of(ts), SumCertificate.of(us)
        assert c.joined(d) == SumCertificate.of(ts + us)
        assert (c == d) == ([(i, j, Fraction(r)) for i, j, r in ts] == [(i, j, Fraction(r)) for i, j, r in us])

    @given(triples, st.fractions(min_value=-2, max_value=2, max_denominator=1000))
    @settings(max_examples=100, deadline=None)
    def test_scale_matches_fractions(self, ts, s):
        c = SumCertificate.of(ts)
        if any(abs(r * s) > 1 for _, _, r in ts):
            with pytest.raises(ValueError):
                tl.scale_certificate(c, s)
        else:
            assert tl.scale_certificate(c, s) == SumCertificate.of((i, j, r * s) for i, j, r in ts)

    @given(triples, st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_value_matches_fraction_sum(self, ts, blocks):
        # generators with unlike denominators, as FinSeqs or as block vectors
        if blocks:
            make = lambda i, j: MixedSeq({j + 1: [Fraction(k - i, 3 * j + i) for k in range(j + 1)]})  # noqa: E731
        else:
            make = lambda i, j: FinSeq({j + 1: Fraction(1, i + j), i + 4: Fraction(j - 1, 7)})  # noqa: E731
        gens = {i: [make(i, j) for j in range(3)] for i in range(1, 5)}
        fam = SumFamily(gens)
        ref = family_zero(fam)
        for i, j, r in ts:
            ref = ref + gens[i][j] * r
        assert tl.certificate_value(fam, SumCertificate.of(ts)) == ref

    def test_random_draws_match_fraction_draws(self, fam):
        # the numerators over 64 take the same rng calls as Fraction(num, 64) did
        for seed in range(40):
            rng, ref = random.Random(seed), random.Random(seed)
            for level in (1, 2, 3):
                drawn = random_certificate(fam, level, rng)
                triples = []
                for i in fam.blocks:
                    if i < level or not len(fam.generators[i]):
                        continue
                    for _ in range(ref.randint(0, level_counts(level)(i))):
                        if ref.random() > 0.7:
                            continue
                        num = ref.randint(-64, 64) or 64
                        triples.append((i, ref.randrange(len(fam.generators[i])), Fraction(num, 64)))
                assert drawn == SumCertificate.of(triples)
            assert rng.random() == ref.random()


class TestRandomCertificateStream:
    def test_same_draws_as_randint(self, state6):
        # ``random_certificate`` draws through ``randrange``; ``randint(a, b)``
        # is ``randrange(a, b + 1)``, so the certificates and the generator's
        # state match the randint draws, here on a depth-6 family
        fam = SumFamily({n: state6.G[n] for n in range(1, 7)})
        for seed in range(200):
            rng, ref = random.Random(seed), random.Random(seed)
            for level in range(1, 5):
                terms = []
                for i in fam.blocks:
                    budget = level_counts(level)(i)
                    n_gens = len(fam.generators[i])
                    if i < level or budget == 0 or n_gens == 0:
                        continue
                    for _ in range(ref.randint(0, budget)):
                        if ref.random() > 0.7:
                            continue
                        num = ref.randint(-64, 64) or 64
                        terms.append((i, ref.randrange(n_gens), num))
                assert random_certificate(fam, level, rng) == SumCertificate(tuple(terms), 64)
            assert rng.random() == ref.random()


class TestMerge:
    def test_empty_merge(self, fam):
        m = tl.merge_certificates(fam, SumCertificate(()), SumCertificate(()), 2)
        assert tl.certificate_valid(fam, m, 1)
        assert not m.terms

    def test_at_budget(self, fam):
        # block 3 at level 3: budget 1 each; merged: 2 = budget at level 2
        c1 = SumCertificate.of([(3, 0, 1)])
        c2 = SumCertificate.of([(3, 2, -Fraction(1, 2))])
        m = tl.merge_certificates(fam, c1, c2, 3)
        assert tl.certificate_valid(fam, m, 2)
        assert not tl.certificate_valid(fam, m, 3)  # over budget one level up

    def test_value_additive(self, fam):
        c1 = SumCertificate.of([(2, 0, 1)])
        c2 = SumCertificate.of([(2, 1, 1), (3, 0, -1)])
        m = tl.merge_certificates(fam, c1, c2, 2)
        assert tl.certificate_value(fam, m) == tl.certificate_value(fam, c1) + tl.certificate_value(fam, c2)

    def test_invalid_input_rejected(self, fam):
        bad = SumCertificate.of([(3, 0, 2)])
        with pytest.raises(ValueError):
            tl.merge_certificates(fam, bad, SumCertificate(()), 2)

    def test_random_merge_law(self, fam):
        rng = random.Random(0)
        for _ in range(300):
            n = rng.choice([1, 2])
            c1 = random_certificate(fam, n + 1, rng)
            c2 = random_certificate(fam, n + 1, rng)
            merged = tl.merge_certificates(fam, c1, c2, n + 1)
            assert tl.certificate_valid(fam, merged, n)


class TestBaseAxioms:
    def test_healthy(self, fam):
        radii = [tl.ball_radius(n) for n in range(1, 5)]
        report = tl.base_axioms_check(radii, fam, 3)
        assert report.passed

    def test_depth_one_trivial(self, fam):
        report = tl.base_axioms_check([Fraction(1)], fam, 1)
        assert report.passed
        assert report.checks == []

    def test_radius_rule_equality_slack(self):
        # rho_n = 4^(1-n) with constant 1: 2*2*rho_{n+1} == rho_n exactly
        radii = [tl.ball_radius(n) for n in range(1, 6)]
        fam = SumFamily({1: [FinSeq({1: 1})]})
        report = tl.base_axioms_check(radii, fam, 5)
        radius_checks = [c for c in report.checks if c.name == "ball_radius_additivity"]
        assert radius_checks and all(c.passed for c in radius_checks)

    def test_sabotaged_budget_detected(self, fam):
        def sabotage(level):
            return lambda i: (2 ** (i - level) if i >= level else 0) + 1

        report = tl.base_axioms_check([tl.ball_radius(n) for n in range(1, 5)], fam, 3, counts_fn=sabotage)
        merge_checks = [c for c in report.checks if c.name == "merge_closure_at_budget"]
        assert any(not c.passed for c in merge_checks)

    def test_bad_radii_detected(self, fam):
        report = tl.base_axioms_check([Fraction(1), Fraction(1, 2)], fam, 2)
        assert not report.passed

    def test_one_exact_merge_entry_per_level(self, fam):
        report = tl.base_axioms_check([tl.ball_radius(n) for n in range(1, 5)], fam, 4)
        merge = [c for c in report.checks if c.name != "ball_radius_additivity"]
        assert [(c.name, c.level, c.passed) for c in merge] == [("merge_closure_at_budget", n, True) for n in (1, 2, 3)]
        assert merge[0].detail == "2 b_2(i) <= b_1(i) on every block i > 1"

    @pytest.mark.parametrize("family", ["a8", "one_per_block"])
    def test_lowered_budget_is_named(self, family):
        # a budget rule that lowers b_n(i) by 1 breaks F_(n+1) + F_(n+1) in F_n
        # at block i and nowhere else, for every level n and block i > n
        if family == "a8":
            xs, ds = tl.make_case_a_inputs(8, 3)
            fam = tl.fn_family(tl.run_construction(tl.normalize_constant(tl.Ribe()), xs, ds, 8))
        else:
            fam = SumFamily({i: [FinSeq({i: 1})] for i in range(1, 9)})
        depth = 9  # as ``verify`` checks a depth-8 state
        radii = [tl.ball_radius(n) for n in range(1, depth + 1)]
        for n in range(1, depth):
            for i in range(n + 1, 9):

                def lowered(level, n=n, i=i):
                    return lambda j: level_counts(level)(j) - (level == n and j == i)

                merge = [c for c in tl.base_axioms_check(radii, fam, depth, counts_fn=lowered).checks if c.name == "merge_closure_at_budget"]
                assert [c.level for c in merge if not c.passed] == [n]
                assert merge[n - 1].detail == "block %d uses %d terms, budget %d" % (i, 2 ** (i - n), 2 ** (i - n) - 1)

    @given(
        st.lists(st.integers(0, 2), min_size=3, max_size=3),
        st.lists(st.lists(st.integers(-1, 2), min_size=3, max_size=3), min_size=3, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_check_against_brute_force(self, sizes, table):
        # blocks 1-3 with 0-2 generators and budget b_n(i) = table[n - 1][i - 1]:
        # the check passes at level n iff every concatenation of two valid
        # level-(n+1) certificates is valid at level n, and names the least
        # block at which one is not
        fam = SumFamily({i: [FinSeq({3 * i + j: 1}) for j in range(k)] for i, k in enumerate(sizes, 1)})

        def counts(level):
            return lambda i: table[level - 1][i - 1] if level <= 3 and 1 <= i <= 3 else 0

        refs = [(i, j) for i in fam.blocks for j in range(len(fam.generators[i]))]
        report = tl.base_axioms_check([Fraction(1)], fam, 3, counts_fn=counts)
        for check in report.checks:
            n = check.level
            certs = [SumCertificate.of((i, j, 1) for i, j in c) for size in range(5) for c in itertools.combinations_with_replacement(refs, size)]
            valid = [c for c in certs if tl.certificate_valid(fam, c, n + 1, counts(n + 1))]
            blocks = {int(p.split()[1]) for c1 in valid for c2 in valid for p in certificate_problems(fam, c1.joined(c2), n, counts(n))}
            assert check.passed == (not blocks)
            if blocks:
                assert check.detail.startswith("block %d uses" % min(blocks))


class TestHull:
    def test_point_in_set(self):
        pts = [FinSeq({1: 1}), FinSeq({2: 1})]
        cert = tl.hull_membership(FinSeq({2: 1}), pts)
        assert cert.member
        assert cert.weights == [Fraction(0), Fraction(1)]

    def test_midpoint(self):
        pts = [FinSeq({1: 1}), FinSeq({1: -1})]
        cert = tl.hull_membership(FinSeq(), pts)
        assert cert.member
        assert sum(cert.weights) == 1
        combo = FinSeq()
        for w, p in zip(cert.weights, pts):
            combo = combo + p * w
        assert combo == FinSeq()

    def test_outside_affine_hull(self):
        pts = [FinSeq({1: 1}), FinSeq({1: -1})]
        cert = tl.hull_membership(FinSeq({2: 1}), pts)
        assert not cert.member
        assert "affine" in cert.reason

    def test_in_affine_hull_but_outside(self):
        pts = [FinSeq({1: 1}), FinSeq({1: 2})]
        cert = tl.hull_membership(FinSeq({1: 3}), pts)
        assert not cert.member

    def test_uniform_hull_of_balanced_family(self):
        # e + m*x over a family summing to zero: uniform weights recover e
        e = FinSeq({1: 1})
        xs = [FinSeq({2: 1}), FinSeq({3: 1}), FinSeq({2: -1, 3: -1})]
        pts = [e + x * 7 for x in xs]
        cert = tl.hull_membership(e, pts)
        assert cert.member
        combo = FinSeq()
        for w, p in zip(cert.weights, pts):
            combo = combo + p * w
        assert combo == e

    def test_empty_set(self):
        cert = tl.hull_membership(FinSeq({1: 1}), [])
        assert not cert.member


class TestHelpers:
    def test_level_counts(self):
        counts = level_counts(2)
        assert counts(2) == 1 and counts(3) == 2 and counts(5) == 8
        assert counts(1) == 0

    def test_family_zero_flavour(self, fam):
        assert family_zero(fam) == FinSeq()

    def test_json_roundtrip(self):
        c = SumCertificate.of([(1, 0, Fraction(-3, 7)), (4, 2, 1)])
        assert SumCertificate.from_json(c.to_json()) == c
        assert c.to_json()[0] == {"i": 1, "j": 0, "r": "-3/7"}
