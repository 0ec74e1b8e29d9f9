import copy
import json
import math
import random
from dataclasses import asdict
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import twistlab as tl
from twistlab import FinSeq, MixedSeq, SumCertificate, TwistedVec, oracles
from twistlab.construction import (
    STRICT_MARGIN,
    BoundReport,
    ChainStep,
    ChainTranscript,
    LadderSums,
    _norm,
    _step,
    fn_family,
    functional_of_state,
    levels_csv_rows,
    state_from_json,
    state_to_json,
    static_state_checks,
)

CROSS_12 = [
    {1: "3/2", 14: "3/4", 15: "6"},
    {2: "-7", 13: "1", 15: "-1/2"},
    {3: "8", 14: "3/2", 15: "2"},
    {4: "2", 13: "-1/2", 14: "-2"},
    {5: "-3", 13: "1/2", 14: "-8"},
    {6: "-7/2", 13: "5/8", 15: "1/2"},
    {7: "7", 13: "1/2", 15: "-7/2"},
    {8: "-1/2", 13: "5/8", 14: "-3/2"},
    {9: "-3/8", 13: "4", 15: "-2"},
    {10: "1/4", 14: "-3/4", 15: "7/8"},
    {11: "1/2", 14: "7", 15: "5/8"},
    {12: "8", 13: "5", 15: "-4"},
]
from twistlab.quasilinear import functional_from_json, ribe_error_bound
from twistlab.seqspace import MixedSpace, block_entries, disjoint_supports
from twistlab.sumsets import certificate_problems, certificate_value, random_certificate, scale_certificate

U = 2.0 ** -53


def evaluate_rounding(F, x):
    """The bound of ``_ribe_terms``'s docstring on |evaluate(F, x) - F(x)| for
    F = Scaled(Ribe) or Scaled(WeightedRibe): the factor times the
    ``ribe_error_bound`` of each block's summed |x ln|x / g|| and |x|, times
    |c_n| for a weighted block."""
    if isinstance(F.inner, tl.WeightedRibe):
        blocks = [(abs(float(F.inner.weights[n])), nums) for n, nums in block_entries(x).items()]
    else:
        blocks = [(1.0, x.nums)]
    total = 0.0
    for c, nums in blocks:
        vals = [n / x.den for n in nums.values()]
        s = sum(nums.values())
        g = abs(s / x.den) if s else math.fsum(map(abs, vals))
        terms = math.fsum(abs(v * math.log(abs(v / g))) for v in vals)
        total += c * ribe_error_bound(terms, math.fsum(map(abs, vals)))
    return float(F.factor) * total


class TestIngredients:
    def test_default_cn(self):
        assert tl.default_cn(1) == Fraction(1, 16)
        assert tl.default_cn(3) == Fraction(1, 64)
        assert sum(tl.default_cn(n) for n in range(1, 60)) < Fraction(1, 4)
        with pytest.raises(ValueError):
            tl.default_cn(0)

    def test_enumerate_e(self):
        assert tl.enumerate_e(2, 5) == [1, 2, 1, 2, 1]
        assert tl.enumerate_e(1, 4) == [1, 1, 1, 1]
        window = tl.enumerate_e(3, 12)
        for start in range(0, 9):
            assert set(window[start : start + 3]) == {1, 2, 3}
        with pytest.raises(ValueError):
            tl.enumerate_e(0, 3)

    def test_normalize_generators(self, ribe_normalized):
        d = FinSeq({1: 2})
        (out,) = tl.normalize_generators(ribe_normalized, [d])
        assert out == FinSeq({1: 1})
        already = FinSeq({2: Fraction(1, 2)})
        assert tl.normalize_generators(ribe_normalized, [already]) == [already]

    def test_normalize_large_f_value(self):
        # ||d|| = 1 but |F(d)| large: scaling is driven by the F bound
        F = tl.Ribe(assumed_constant=1.0)
        d = FinSeq({i: Fraction(1, 64) for i in range(1, 65)})
        fv = abs(tl.evaluate(F, d))
        assert fv > 1
        (out,) = tl.normalize_generators(F, [d])
        assert out.norm() <= 1
        assert abs(tl.evaluate(F, out)) <= 1 + 1e-9

    def test_tail_index(self):
        gens = [FinSeq({1: 1, 7: -2}), FinSeq({3: 5})]
        assert tl.tail_index(gens, FinSeq({2: 1})) == 7
        assert tl.tail_index([], FinSeq({2: 1})) == 2

    def test_tail_index_conclusion_exact(self):
        # anything right of the index cannot shrink the norm of the hull
        gens = [FinSeq({1: 1, 2: -1}), FinSeq({4: 3})]
        e = FinSeq({3: 1})
        s = tl.tail_index(gens, e)
        rng = random.Random(1)
        for _ in range(100):
            x = gens[0] * Fraction(rng.randint(-4, 4), 4) + gens[1] * Fraction(rng.randint(-4, 4), 4)
            x = x + e * Fraction(rng.randint(-16, 16), 4)
            y = FinSeq({s + rng.randint(1, 5): Fraction(rng.randint(-8, 8), 2)})
            assert x.norm() <= (x + y).norm()
            assert x.norm() < (x + y).norm() + Fraction(1, 16)

    def test_basis_constant_disjoint(self):
        assert tl.basis_constant([FinSeq.unit(1), FinSeq.unit(2)]) == 1
        ys = [FinSeq({1: Fraction(1, 2)}), FinSeq({2: 1})]
        assert tl.basis_constant(ys) == 2
        assert tl.basis_constant([FinSeq.unit(5)]) == 1

    def test_basis_constant_block_vectors_need_a_space(self):
        # without a space two disjoint block units once took the l1 closed
        # form 1, while their basis constant under MixedSpace(2) is larger
        ys = [MixedSeq.unit(1, 1), MixedSeq.unit(2, 1)]
        assert tl.basis_constant(ys, MixedSpace(2)) == Fraction(815601, 524288)
        for family in (ys, [FinSeq.unit(1), ys[1]]):
            with pytest.raises(ValueError, match="mixed vectors need an explicit space"):
                tl.basis_constant(family)

    def test_basis_constant_certifies(self):
        # overlapping family: returned M must dominate mass/norm on samples
        ys = [FinSeq({1: 1, 2: 1}), FinSeq({1: 1, 2: -1})]
        M = tl.basis_constant(ys)
        rng = random.Random(0)
        for _ in range(200):
            a = [Fraction(rng.randint(-8, 8), 8) for _ in ys]
            combo = ys[0] * a[0] + ys[1] * a[1]
            mass = sum(abs(v) for v in a)
            assert mass <= M * combo.norm() or combo.norm() == 0 and mass == 0

    def test_basis_constant_sound_past_the_orthant_cap(self):
        # the benchmark's cross_family(1, 12, 0): its exact cross-polytope
        # minimum is 3717/8888 (all 2048 orthant LPs), so no M below
        # 8888/3717 is a basis constant; a float search once gave 2.1712
        ys = [FinSeq({p: Fraction(v) for p, v in row.items()}) for row in CROSS_12]
        assert tl.basis_constant(ys) >= Fraction(8888, 3717)

    def test_basis_constant_dependent_rejected(self):
        # the cross-polytope minimum is an exact 0 on every dependent family:
        # from the orthant LPs, from the left inverse past the orthant cap, and
        # from the l1 relaxation of a mixed family whose blocks overlap
        chain = [FinSeq({i: 1, i + 1: Fraction(1, 2)}) for i in range(1, 10)]
        mixed = [MixedSeq({1: [1], 2: [1, -1]}), MixedSeq({2: [2, 3]}), MixedSeq({1: [2], 2: [4, 1]})]
        for ys, space in (
            ([FinSeq.unit(1), FinSeq({1: 2})], None),
            (chain + [chain[0] - chain[4] * 3 + chain[8] / 2], None),
            (mixed, MixedSpace(2)),
        ):
            with pytest.raises(ValueError, match="linearly independent"):
                tl.basis_constant(ys, space)

    def test_choose_m(self):
        assert tl.choose_m(1, 4, Fraction(1, 32)) == 481
        assert tl.choose_m(1, 2, Fraction(1, 16)) == 145
        # integer bound: the answer is strictly above it
        assert tl.choose_m(1, 2, 9) == 2
        assert tl.choose_m(1, 1, 100) == 1


class TestRunConstruction:
    def test_depth_zero(self, ribe_normalized):
        xs, ds = tl.make_case_a_inputs(1, 2)
        state = tl.run_construction(ribe_normalized, xs, ds, 0)
        assert state.G[0] == [FinSeq()]
        assert state.depth == 0

    def test_depth_three_sizes(self, ribe_normalized):
        xs, ds = tl.make_case_a_inputs(3, 3)
        state = tl.run_construction(ribe_normalized, xs, ds, 3)
        assert [len(state.G[n]) for n in (1, 2, 3)] == [3, 5, 9]
        assert state.m == {1: 145, 2: 481, 3: 1729}
        assert state.M == {1: 1, 2: 1, 3: 1}

    def test_determinism(self, ribe_normalized):
        xs, ds = tl.make_case_a_inputs(3, 3)
        s1 = tl.run_construction(ribe_normalized, xs, ds, 3)
        s2 = tl.run_construction(ribe_normalized, xs, ds, 3)
        assert state_to_json(s1) == state_to_json(s2)

    def test_unnormalized_rejected(self):
        xs, ds = tl.make_case_a_inputs(2, 2)
        with pytest.raises(ValueError):
            tl.run_construction(tl.Ribe(), xs, ds, 2)

    def test_supply_exhaustion(self, ribe_normalized):
        xs, ds = tl.make_case_a_inputs(2, 2)
        with pytest.raises(tl.ConstructionError):
            tl.run_construction(ribe_normalized, xs[:3], ds, 2)

    def test_kernel_precondition_enforced(self, ribe_normalized):
        xs, ds = tl.make_case_a_inputs(2, 2)
        T = tl.UserLinear([xs[0]], [Fraction(1)])  # deliberately nonzero on xs[0]
        with pytest.raises(ValueError):
            tl.run_construction(ribe_normalized, xs, ds, 2, split_map=T)

    def test_forced_small_multiplier_fails_certification(self, ribe_normalized):
        xs, ds = tl.make_case_a_inputs(2, 2)
        with pytest.raises(tl.ConstructionError):
            tl.run_construction(ribe_normalized, xs, ds, 2, m_override={1: 1})

    def test_static_checks_clean(self, state4, ribe_normalized):
        assert all(c.passed for c in static_state_checks(state4, ribe_normalized))

    def test_dependent_level_fails_m_table(self, ribe_normalized):
        # one kernel vector four times over has no basis constant: the
        # M_table step fails instead of raising
        xs, ds = tl.make_case_a_inputs(2, 3)
        state = tl.run_construction(ribe_normalized, xs, ds, 2)
        state.ell[2] = [state.ell[2][0]] * 4
        failed = [(c.name, c.level) for c in static_state_checks(state, ribe_normalized) if not c.passed]
        assert ("M_table", 2) in failed and ("M_table", 1) not in failed

    def test_level_structure(self, state4):
        for n in range(1, 5):
            e_n = state4.e_vector(n)
            xs_n = state4.level_x(n)
            assert all(x.is_right_of(state4.s[n]) for x in xs_n)
            assert state4.ell[n] == sorted(state4.ell[n])
            total = FinSeq()
            for x in xs_n:
                total = total + x
            assert state4.G[n][-1] == e_n - total * state4.m[n]

    def test_e_hull_uniform(self, state4):
        for n in range(1, 5):
            gens = state4.G[n]
            lam = Fraction(1, len(gens))
            combo = FinSeq()
            for g in gens:
                combo = combo + g * lam
            assert combo == state4.e_vector(n)

    def test_state_roundtrip(self, state4):
        back = state_from_json(json.loads(json.dumps(state_to_json(state4), default=lambda v: v.to_json())))
        assert state_to_json(back) == state_to_json(state4)
        assert back.m == state4.m
        assert back.G[2] == state4.G[2]

    def test_levels_csv(self, state4):
        rows = levels_csv_rows(state4)
        assert rows[0] == ("level", "c_n", "s_n", "m_n", "M_n", "G_size")
        assert rows[2][3] == 481

    def test_functional_of_state(self, state4):
        F = functional_of_state(state4)
        assert F.assumed_constant == 1.0

    @pytest.mark.parametrize("case", ["a", "c", "custom"])
    def test_mass_search_gets_the_stored_stretched_vectors(self, monkeypatch, case):
        """``build_level`` hands ``_least_pattern`` the stretched vectors it
        builds G from, and they equal the ones ``verify`` recovers from G.
        The custom kernel vectors share positions, and level 3's e_n is over
        2 while the z built there are over 1, so the recovered z carry a
        denominator the built ones do not."""
        families = []
        search = oracles._least_pattern

        def record(zs, *args, **kwargs):
            families.append(list(zs))
            return search(zs, *args, **kwargs)

        monkeypatch.setattr(oracles, "_least_pattern", record)
        if case == "custom":
            F = tl.normalize_constant(tl.Ribe())
            xs = [FinSeq({3 * i + 1: 1, 3 * i + 2: -1, 3 * i + 4: Fraction(1, 2)}) for i in range(20)]
            ds = [FinSeq({1: 1, 2: 1}), FinSeq({3: 1})]
            state = tl.run_construction(F, xs, ds, 3)
            assert {z.den for z in families[2]} == {1} and {z.den for z in state.level_z(3)} == {2}
        else:
            _, state = case_state(case, 4)
        assert families == [state.level_z(n) for n in range(1, state.depth + 1)]


def searched_levels(build):
    """Run ``build()`` with ``oracles._least_pattern`` recorded; returns the
    (zs, k, space, shape) of every search ``build_level`` ran, the families
    ``build_level`` handed ``_analyze_negsum``, and the ``ConstructionError``
    text the build raised (None when it passed).  ``lemma5_adversary``, the
    search with a witness, must not run at all."""
    searches, detected = [], []
    search, analyze = oracles._least_pattern, oracles._analyze_negsum

    def record_search(zs, k, space, shape):
        searches.append((list(zs), k, space, shape))
        return search(zs, k, space, shape)

    def record_analyze(zs):
        detected.append(list(zs))
        return analyze(zs)

    def no_witness(*args, **kwargs):
        raise AssertionError("build_level built a witness")

    with pytest.MonkeyPatch.context() as m:
        m.setattr(oracles, "_least_pattern", record_search)
        m.setattr(oracles, "_analyze_negsum", record_analyze)
        m.setattr(oracles, "lemma5_adversary", no_witness)
        try:
            build()
            error = None
        except tl.ConstructionError as exc:
            error = str(exc)
    return searches, detected, error


def assert_verdicts_match_the_report(searches, error):
    """Level n's verdict and error text are those ``lemma5_adversary``
    reports on the family ``build_level`` searched: every level before the
    last passes, and the last fails exactly when the build raised."""
    for n, (zs, k, space, _) in enumerate(searches, 1):
        c_n = tl.default_cn(n)
        rep = oracles.lemma5_adversary(zs, k, c_n, space=space)
        if n == len(searches) and error is not None:
            assert rep.best_violation >= 0
            assert error == "level %d mass certification failed: best mass %s against budget %s" % (n, rep.best_value, float(c_n))
        else:
            assert rep.best_violation < 0, n


def l1_custom_inputs(draw, overlapping):
    """Kernel vectors past the generators' positions 1 and 2, each filling
    the start of its window: windows of width 2 two positions apart
    (disjoint), or of width 3 one position apart (overlapping); small
    rational entries, none zero."""
    width, step = (3, 1) if overlapping else (2, 2)
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    xs = []
    for i in range(14):
        base = 3 + step * i
        xs.append(FinSeq({base + j: draw(entry) for j in range(draw(st.integers(1, width)))}))
    return xs, [FinSeq.unit(1), FinSeq.unit(2)]


class TestLevelMassSearch:
    """``build_level`` runs the level-mass search alone, on the shape it
    built when its kernel vectors are nonzero and pairwise disjoint."""

    @pytest.mark.parametrize("case,depth", [("a", d) for d in range(1, 11)] + [("c", d) for d in range(1, 8)])
    def test_passed_shape_is_the_detected_one(self, case, depth):
        searches, detected, error = searched_levels(lambda: case_state(case, depth))
        assert error is None and detected == []
        assert len(searches) == depth
        for n, (zs, k, _, shape) in enumerate(searches, 1):
            assert k == 2 ** n and shape == ("negsum", k) == oracles._analyze_negsum(zs)

    def test_overlapping_chain_takes_detection(self):
        searches, detected, error = searched_levels(custom_state4)
        assert error is None and len(searches) == 4
        assert detected == [zs for zs, *_ in searches]
        for zs, _, _, shape in searches:
            assert shape == oracles._analyze_negsum(zs) != ("negsum", len(zs) - 1)

    @pytest.mark.parametrize("case", ["a", "c"])
    @pytest.mark.parametrize("m_override", [None, {2: 1}, {3: 2}])
    def test_verdicts_match_the_report(self, case, m_override):
        if case == "a":
            F = tl.normalize_constant(tl.Ribe())
            xs, ds = tl.make_case_a_inputs(4, 3)
        else:
            xs, ds, weights = tl.make_case_c_inputs(4, 3)
            F = tl.normalize_constant(tl.WeightedRibe(weights, 2))
        searches, _, error = searched_levels(lambda: tl.run_construction(F, xs, ds, 4, m_override=m_override))
        assert (error is None) == (m_override is None)
        assert len(searches) == (4 if m_override is None else min(m_override))
        assert_verdicts_match_the_report(searches, error)

    @settings(max_examples=30, deadline=None)
    @given(st.data(), st.booleans(), st.integers(1, 3), st.one_of(st.none(), st.integers(1, 40)))
    def test_verdicts_match_the_report_on_custom_l1(self, data, overlapping, depth, m):
        if overlapping:
            depth = min(depth, 2)  # generic patterns take orthant LPs
        xs, ds = l1_custom_inputs(data.draw, overlapping)
        F = tl.normalize_constant(tl.Ribe())
        # a multiplier this small makes the deepest level fail
        override = {depth: m} if m else None
        searches, detected, error = searched_levels(lambda: tl.run_construction(F, xs, ds, depth, m_override=override))
        assert error is None or error.startswith("level %d mass" % len(searches))
        assert_verdicts_match_the_report(searches, error)
        for zs, _, _, shape in searches:
            assert shape == oracles._analyze_negsum(zs)
        # the kernel vectors are the family less its balancing last vector
        assert detected == [zs for zs, *_ in searches if not disjoint_supports(*zs[:-1])]


class TestMixedConstruction:
    def test_case_c_builds(self):
        xs, ds, weights = tl.make_case_c_inputs(2, 2)
        F = tl.normalize_constant(tl.WeightedRibe(weights, 2))
        state = tl.run_construction(F, xs, ds, 2)
        assert isinstance(state.space, MixedSpace)
        assert [len(state.G[n]) for n in (1, 2)] == [3, 5]
        # the zero map splits exactly on the supplied kernel vectors
        for x in xs[:8]:
            assert tl.evaluate(F, x) == 0.0

    def test_mixed_chain_replays(self):
        xs, ds, weights = tl.make_case_c_inputs(2, 2)
        F = tl.normalize_constant(tl.WeightedRibe(weights, 2))
        state = tl.run_construction(F, xs, ds, 2)
        fam = tl.fn_family(state)
        rng = random.Random(4)
        done = 0
        while done < 10:
            cert = random_certificate(fam, 1, rng)
            if not cert.terms:
                continue
            nv = state.space.norm(certificate_value(fam, cert))
            if nv <= 0.999:
                continue
            scale = Fraction(0.999 / nv) * (1 - Fraction(1, 2 ** 30))
            tr = tl.verify_chain(state, F, scale_certificate(cert, scale))
            assert tr.passed, [s.to_json() for s in tr.failures()]
            done += 1

    def test_zero_vectors_load_as_block_vectors(self):
        xs, ds, weights = tl.make_case_c_inputs(2, 2)
        F = tl.normalize_constant(tl.WeightedRibe(weights, 2))
        state = state_from_json(json.loads(json.dumps(state_to_json(tl.run_construction(F, xs, ds, 2)), default=lambda v: v.to_json())))
        assert state.G[0] == [MixedSeq()]
        # a stored final-bound witness with zero u.x reads back as FinSeq()
        u = TwistedVec.from_json({"r": 0.0, "x": {}})
        rep = tl.final_bound_check(state, F, u, SumCertificate.of([(1, 0, Fraction(1, 1000))]))
        assert rep.premises_ok and rep.passed


class TestVerifyChain:
    @pytest.mark.parametrize("case, depth", [("a", 12), ("c", 8)])
    def test_strict_margin_exceeds_the_rounding_error(self, case, depth):
        # unit_f_ladder and f_split compare float sides with STRICT_MARGIN
        # added on the right; a replay of a valid certificate can fail one
        # only if the two sides' rounding errors together exceed the margin.
        # Each float norm is within 8u of its value: an l1 norm is one
        # rounding, a mixed one rounds each block quotient, squares it, sums
        # and takes the root, about 4.5u.  The sums and the margin's addition
        # round at most four times, each within u of a side.
        if case == "a":
            F = tl.normalize_constant(tl.Ribe())
            xs, ds = tl.make_case_a_inputs(depth, 3)
        else:
            xs, ds, weights = tl.make_case_c_inputs(depth, 3)
            F = tl.normalize_constant(tl.WeightedRibe(weights, 2))
        state = tl.run_construction(F, xs, ds, depth)
        fam, space = tl.fn_family(state), state.space
        rng = random.Random(0)
        worst = 0.0
        for _ in range(20):
            cert = random_certificate(fam, 1, rng)
            value = certificate_value(fam, cert)
            if not value:
                continue
            factor = Fraction(999, 1000) / Fraction(space.norm(value))
            cert = scale_certificate(cert, factor) if factor < 1 else cert
            tr = tl.verify_chain(state, F, cert)
            assert tr.passed
            # the replay's vectors: per used level the e-part u_i = r_i e_i
            merged = {}
            for i, j, n in cert.terms:
                level = merged.setdefault(i, {})
                level[j] = level.get(j, 0) + n
            units = [
                (i, state.e_vector(i) * Fraction(sum(level.values()), cert.den))
                for i, level in sorted(merged.items())
                if any(level.values())
            ]
            unit_total = sum((u for _, u in units), space.zero())
            x = certificate_value(fam, cert)
            span_part = x - unit_total
            ladder = sum(abs(tl.evaluate(F, u)) + i * float(space.norm(u)) for i, u in units)
            ladder_err = (
                evaluate_rounding(F, unit_total)
                + sum(evaluate_rounding(F, u) + 10 * U * i * float(space.norm(u)) for i, u in units)
                + 4 * U * (ladder + STRICT_MARGIN)
            )
            norms = float(space.norm(unit_total)) + float(space.norm(span_part))
            split_rhs = abs(tl.evaluate(F, unit_total)) + abs(tl.evaluate(F, span_part)) + norms
            split_err = (
                evaluate_rounding(F, x)
                + evaluate_rounding(F, unit_total)
                + evaluate_rounding(F, span_part)
                + 8 * U * norms
                + 4 * U * (split_rhs + STRICT_MARGIN)
            )
            assert {s.name for s in tr.steps} >= {"unit_f_ladder", "f_split"}
            worst = max(worst, ladder_err, split_err)
        # about 1.5e-14 on a12 and 1.3e-15 on c8
        assert 0 < worst < STRICT_MARGIN / 1000
    def test_zero_certificate(self, state4, ribe_normalized):
        tr = tl.verify_chain(state4, ribe_normalized, SumCertificate(()))
        assert tr.passed
        assert tr.f_value == 0.0
        assert tr.top_level == 0

    def test_invalid_certificate_rejected(self, state4, ribe_normalized):
        bad = SumCertificate.of([(1, 0, 1), (1, 1, 1)])  # budget 1 at level 1
        with pytest.raises(ValueError):
            tl.verify_chain(state4, ribe_normalized, bad)

    def test_norm_precondition(self, state4, ribe_normalized):
        big = SumCertificate.of([(1, 0, 1)])  # norm around m_1
        with pytest.raises(ValueError):
            tl.verify_chain(state4, ribe_normalized, big)

    def test_random_sweep(self, state4, ribe_normalized):
        fam = tl.fn_family(state4)
        rng = random.Random(11)
        target = 1 - Fraction(1, 1000)
        done = 0
        while done < 200:
            cert = random_certificate(fam, 1, rng)
            if not cert.terms:
                continue
            nv = certificate_value(fam, cert).norm()
            if nv <= target:
                continue
            tr = tl.verify_chain(state4, ribe_normalized, scale_certificate(cert, target / nv))
            assert tr.passed, [s.to_json() for s in tr.failures()]
            assert abs(tr.f_value) < 9
            done += 1

    def test_mass_steps_obey_budgets(self, state4, ribe_normalized):
        fam = tl.fn_family(state4)
        rng = random.Random(2)
        cert = None
        while not cert or not cert.terms:
            cert = random_certificate(fam, 1, rng)
        nv = certificate_value(fam, cert).norm()
        tr = tl.verify_chain(state4, ribe_normalized, scale_certificate(cert, Fraction(1, 2) / nv))
        for step in tr.steps:
            if step.name == "level_mass":
                assert step.passed

    def test_tampered_multiplier_breaks_mass_step(self, ribe_normalized):
        xs, ds = tl.make_case_a_inputs(2, 2)
        bad = tl.run_construction(ribe_normalized, xs, ds, 2, m_override={2: 1}, verify_levels=False)
        cert = SumCertificate.of([(2, 0, Fraction(1, 4))])
        tr = tl.verify_chain(bad, ribe_normalized, cert)
        assert not tr.passed
        assert any(s.name == "level_mass" and not s.passed for s in tr.failures())

    def test_transcript_json(self, state4, ribe_normalized):
        tr = tl.verify_chain(state4, ribe_normalized, SumCertificate(()))
        obj = tr.to_json()
        assert obj["passed"] is True
        assert all("margin" in s for s in obj["steps"])

    def test_depth_eight_chains(self, ribe_normalized):
        xs, ds = tl.make_case_a_inputs(8, 3)
        state = tl.run_construction(ribe_normalized, xs, ds, 8)
        fam = tl.fn_family(state)
        rng = random.Random(88)
        target = 1 - Fraction(1, 1000)
        done = 0
        while done < 50:
            cert = random_certificate(fam, 1, rng)
            if not cert.terms:
                continue
            nv = certificate_value(fam, cert).norm()
            if nv <= target:
                continue
            tr = tl.verify_chain(state, ribe_normalized, scale_certificate(cert, target / nv))
            assert tr.passed
            done += 1


class TestFinalBound:
    def test_trivial_decomposition(self, state4, ribe_normalized):
        x = FinSeq({1: Fraction(1, 3), 2: Fraction(1, 5)})
        u = TwistedVec(tl.evaluate(ribe_normalized, x), x)
        rep = tl.final_bound_check(state4, ribe_normalized, u, SumCertificate(()))
        assert rep.premises_ok and rep.passed

    def test_premise_violation_reported_not_raised(self, state4, ribe_normalized):
        x = FinSeq({1: 5})  # quasi-norm 5 > 1 and ||x|| > 1
        u = TwistedVec(0.0, x)
        rep = tl.final_bound_check(state4, ribe_normalized, u, SumCertificate(()))
        assert not rep.premises_ok
        assert not rep.passed

    def test_certified_part(self, state4, ribe_normalized):
        fam = tl.fn_family(state4)
        cert = SumCertificate.of([(1, 0, Fraction(1, 300)), (2, 1, Fraction(1, 600))])
        z = certificate_value(fam, cert)
        nz = z.norm()
        assert nz < 2
        lam = Fraction(1, 2)
        y = z * (lam - 1)
        u = TwistedVec(tl.evaluate(ribe_normalized, y), y)
        if float(y.norm()) <= 1 and float((y + z).norm()) <= 1:
            rep = tl.final_bound_check(state4, ribe_normalized, u, cert)
            assert rep.passed
            assert rep.chain is not None and rep.chain.passed


def reference_verify_chain(state, F, cert):
    """``verify_chain`` as it ran before the running block numerators: each
    level's vector, the prefix, the head prefix + e-part and the stretched
    part vec - e-part built as vectors and normed whole."""
    fam = fn_family(state)
    problems = certificate_problems(fam, cert, 1)
    if problems:
        raise ValueError("certificate invalid at level 1: %s" % problems[0])
    space = state.space
    merged = {}
    for i, j, n in cert.terms:
        lv = merged.setdefault(i, {})
        lv[j] = lv.get(j, 0) + n
    merged = {i: {j: n for j, n in d.items() if n} for i, d in merged.items()}
    top = max((i for i, d in merged.items() if d), default=0)
    den = cert.den
    zero = space.zero()
    rows = []
    x, nx = zero, space.norm(zero)
    for i in range(1, top + 1):
        nums = merged.get(i, {})
        vec = space.vector.combination(((state.G[i][j], n) for j, n in nums.items()), den)
        r_i = Fraction(sum(nums.values()), den)
        rows.append((x, nx, vec, r_i, Fraction(sum(map(abs, nums.values())), den), len(nums)))
        if vec:
            x = x + vec
            nx = space.norm(x)
    if not nx < 1:
        raise ValueError("chain replay needs value norm < 1, got %s" % nx)
    steps = []
    bound = Fraction(1)
    for lv in range(top, 0, -1):
        prefix, prefix_norm, vec, r_l, mass, used = rows[lv - 1]
        c_l = state.c[lv]
        e_part = state.e_vector(lv) * r_l
        head_norm = space.norm(prefix + e_part) if r_l else prefix_norm
        tail_norm = space.norm(vec - e_part)
        steps.append(_step("head_norm", lv, head_norm, bound + c_l))
        steps.append(_step("stretched_norm", lv, tail_norm, 2 * bound + c_l))
        steps.append(_step("stretched_cap", lv, tail_norm, Fraction(3)))
        steps.append(_step("level_mass", lv, mass, c_l, note="%d of %d generators used" % (used, 2 ** lv + 1)))
        steps.append(_step("prefix_norm", lv, prefix_norm, bound + 2 * c_l))
        bound = bound + 2 * c_l
    units = []
    unit_total = zero
    for i, (_, _, _, r_i, _, used) in enumerate(rows, 1):
        if not used:
            continue
        u_i = state.e_vector(i) * r_i
        u_norm, u_f = space.norm(u_i), abs(tl.evaluate(F, u_i))
        units.append((i, u_norm, u_f))
        steps.append(_step("unit_norm", i, u_norm, state.c[i]))
        steps.append(_step("unit_f", i, u_f, Fraction(1, 2 ** i)))
        unit_total = unit_total + u_i
    span_part = x - unit_total
    span_norm = space.norm(span_part)
    c_partial = sum((state.c[i] for i in range(1, top + 1)), Fraction(0))
    steps.append(_step("span_norm_tight", None, span_norm, 1 + c_partial))
    steps.append(_step("span_norm", None, span_norm, Fraction(2)))
    f_span = abs(tl.evaluate(F, span_part))
    steps.append(_step("span_f", None, f_span, 2.0, note="kernel span: splitting map vanishes there"))
    f_unit = abs(tl.evaluate(F, unit_total))
    ladder = math.fsum(f for _, _, f in units) + math.fsum(i * float(n) for i, n, _ in units)
    steps.append(
        _step("unit_f_ladder", None, f_unit, ladder + STRICT_MARGIN, note="additivity ladder bound", strict=False)
    )
    geom = 1 + math.fsum(i * 2.0 ** (-i) for i in range(1, top + 1))
    steps.append(_step("unit_f_total", None, f_unit, 4.0, note="ladder evaluates below %g" % geom))
    f_value = tl.evaluate(F, x)
    split_rhs = f_unit + f_span + float(space.norm(unit_total)) + float(span_norm)
    steps.append(_step("f_split", None, abs(f_value), split_rhs + STRICT_MARGIN, strict=False, note="one additivity application"))
    steps.append(_step("f_total", None, abs(f_value), 9.0))
    return ChainTranscript(
        steps=steps,
        top_level=top,
        value_norm=str(nx),
        f_value=f_value,
        passed=all(s.passed for s in steps),
        min_margin=min((s.margin for s in steps), default=float("inf")),
    )


def case_state(case, depth, p=2):
    """The normalized functional and the built state of case a, or of case
    c in the l_p sum."""
    if case == "a":
        F = tl.normalize_constant(tl.Ribe())
        xs, ds = tl.make_case_a_inputs(depth, 3)
    else:
        xs, ds, weights = tl.make_case_c_inputs(depth, 3)
        F = tl.normalize_constant(tl.WeightedRibe(weights, p))
    return F, tl.run_construction(F, xs, ds, depth)


def below_one(state, cert, target=Fraction(999, 1000)):
    """cert rescaled so that its value has norm about ``target``."""
    return scale_certificate(cert, target / Fraction(state.space.norm(certificate_value(fn_family(state), cert))))


class TestReplayAgainstReference:
    def check(self, state, F, cert):
        # the fuzzer and the final bound replay sums: the reference takes their certificate
        plain = cert.certificate() if isinstance(cert, LadderSums) else cert
        assert tl.verify_chain(state, F, cert).to_json() == reference_verify_chain(state, F, plain).to_json()

    @pytest.mark.parametrize("case, depth", [("a", 6), ("a", 8), ("a", 10), ("c", 6), ("c", 8)])
    def test_fuzzer_ascent_and_final_bound_certificates(self, monkeypatch, case, depth):
        # every replay of a chain fuzzer run: its random certificates and the
        # ascent's (through oracles), the final bound's halves (through
        # construction), each against the reference
        F, state = case_state(case, depth)
        seen = {"oracles": 0, "construction": 0, "sums": 0}

        def checked(module):
            def replay(state, F, cert):
                seen[module] += 1
                seen["sums"] += isinstance(cert, LadderSums)
                self.check(state, F, cert)
                return verify_chain(state, F, cert)

            return replay

        verify_chain = tl.verify_chain
        monkeypatch.setattr("twistlab.oracles.verify_chain", checked("oracles"))
        monkeypatch.setattr("twistlab.construction.verify_chain", checked("construction"))
        rep = tl.chain_fuzzer(state, F, trials=21, seed=0)
        assert rep.best_violation < 0
        assert seen["oracles"] >= 2 and seen["construction"] >= 1 and seen["sums"] >= 2

    def test_empty_and_one_level_certificates(self, state4, ribe_normalized):
        self.check(state4, ribe_normalized, SumCertificate(()))
        self.check(state4, ribe_normalized, below_one(state4, SumCertificate.of([(3, 0, 1), (3, 4, Fraction(-1, 2))])))
        # one generator, whose coefficient sum r is nonzero
        self.check(state4, ribe_normalized, below_one(state4, SumCertificate.of([(4, 2, 1)])))

    def test_zero_e_part_with_a_nonzero_level_vector(self, state4, ribe_normalized):
        # r_2 = 0 but the level's vector is m_2 (x_0 - x_1) / 8
        cert = SumCertificate.of([(1, 0, Fraction(1, 100)), (2, 0, 1), (2, 1, -1), (3, 2, Fraction(1, 3))])
        self.check(state4, ribe_normalized, below_one(state4, cert))

    def test_level_cancelling_to_zero(self, state4, ribe_normalized):
        # one generator drawn twice with opposite coefficients: merged away
        cert = SumCertificate.of([(2, 1, Fraction(1, 10 ** 4)), (2, 1, Fraction(-1, 10 ** 4)), (3, 0, Fraction(1, 10 ** 4))])
        self.check(state4, ribe_normalized, cert)
        # two equal generators with opposite coefficients: a zero level
        # vector from two used generators
        state = copy.copy(state4)
        state.G = {**state4.G, 2: [state4.G[2][0]] * 2 + state4.G[2][2:]}
        cert = SumCertificate.of([(1, 2, Fraction(1, 10 ** 4)), (2, 0, Fraction(1, 3)), (2, 1, Fraction(-1, 3))])
        assert not tl.certificate_value(fn_family(state), SumCertificate.of([(2, 0, 1), (2, 1, -1)]))
        self.check(state, ribe_normalized, cert)

    @pytest.mark.parametrize("case", ["a", "c"])
    def test_generators_with_different_denominators(self, case):
        F, state = case_state(case, 4)
        state.G = {n: [g * Fraction(1, 1 + (n + j) % 5) for j, g in enumerate(gens)] for n, gens in state.G.items()}
        state.d_generators = [d * Fraction(2, 3) for d in state.d_generators]
        assert len({g.den for gens in state.G.values() for g in gens}) >= 4
        rng = random.Random(5)
        done = 0
        while done < 30:
            cert = random_certificate(fn_family(state), 1, rng)
            if certificate_value(fn_family(state), cert):
                self.check(state, F, below_one(state, cert, Fraction(rng.randint(1, 999), 1000)))
                done += 1

    @pytest.mark.parametrize("p", [2, 3])
    def test_mixed_prefix_with_a_cancelled_block(self, p):
        # levels 1 and 4 share e-vector d_1, block 1 of the block layout: with
        # r_4 = -r_1 the head of level 4 and the prefix below level 5 hold a
        # block that cancels to zero, which no l_p sum may count; for p = 2
        # counting it would not show, as sqrt(fl(t^2)) = t
        F, state = case_state("c", 5, p)
        assert state.e_vector(1) == state.e_vector(4)
        fam = fn_family(state)
        cert = below_one(state, SumCertificate.of([(1, 0, 1), (4, 3, -1), (5, 7, 1)]))

        def value_through(top):
            return certificate_value(fam, SumCertificate(tuple(t for t in cert.terms if t[0] <= top), cert.den))

        assert value_through(3)[1] and not value_through(4)[1]
        self.check(state, F, cert)
        # one generator: the stretched part m x keeps one nonzero block
        # beside e's, which cancels
        for n in range(1, 6):
            self.check(state, F, below_one(state, SumCertificate.of([(n, 1, 1)])))


def custom_state4():
    """The functional and the state of the CI's ``construct --case custom
    --depth 4``: y_i on {3i+1, 3i+2, 3i+4} for 40 i, the first three unit
    vectors, Ribe with assumed constant 4 normalized."""
    F = tl.normalize_constant(functional_from_json({"kind": "ribe", "assumed_constant": 4.0}))
    xs = [FinSeq({3 * i + 1: 1, 3 * i + 2: -1, 3 * i + 4: Fraction(1, 2)}) for i in range(40)]
    return F, tl.run_construction(F, xs, [FinSeq.unit(j) for j in (1, 2, 3)], 4)


def parent_final_bound_check(state, F, u, z_cert):
    """``final_bound_check`` as it ran before ``LadderSums``: z is
    ``certificate_value``'s, the half replay takes ``scale_certificate``'s
    certificate."""
    space = state.space
    fam = fn_family(state)
    premises, checks = [], []
    problems = certificate_problems(fam, z_cert, 1)
    premises.append(
        _step("z_certified", None, 0 if not problems else 1, 1, note=problems[0] if problems else "level-1 certificate")
    )
    z = certificate_value(fam, z_cert) if not problems else space.zero()
    x = u.x + z
    f_u, a, d = F.value_and_norm(u.x)
    premises.append(_step("u_in_unit_ball", None, abs(float(u.r) - f_u) + a / d, 1.0 + STRICT_MARGIN, strict=False))
    f_x, a, d = F.value_and_norm(x)
    premises.append(_step("x_norm", None, _norm(a, d), 1, strict=False))
    twisted_norm = abs(float(u.r) - f_x) + a / d
    f_z, a, d = F.value_and_norm(z)
    nz = _norm(a, d)
    half = _step("half_z_in_chain_range", None, nz, 2, note="needed to replay the ladder on z/2")
    premises.append(half)
    premises_ok = all(p.passed for p in premises)
    checks.append(_step("z_norm", None, nz, 2, strict=False))
    chain = None
    if premises_ok and half.passed:
        chain = tl.verify_chain(state, F, scale_certificate(z_cert, Fraction(1, 2)))
        checks.append(
            _step("half_chain", None, 0 if chain.passed else 1, 1, note="ladder on z/2: min margin %g" % chain.min_margin)
        )
    checks.append(_step("f_z", None, abs(f_z), 18.0))
    checks.append(_step("twisted_gap", None, abs(float(u.r) - f_x), 22.0))
    checks.append(_step("twisted_norm", None, twisted_norm, 23.0))
    return BoundReport(
        premises=premises,
        checks=checks,
        chain=chain,
        premises_ok=premises_ok,
        passed=premises_ok and all(c.passed for c in checks) and (chain is None or chain.passed),
    )


@pytest.fixture(scope="module")
def sums_states(state6):
    """(F, state) of a6, a8, c6, c8 and the custom depth-4 construction."""
    F = tl.normalize_constant(tl.Ribe())
    return {"a6": (F, state6), "a8": case_state("a", 8), "c6": case_state("c", 6), "c8": case_state("c", 8), "custom4": custom_state4()}


class TestLadderSums:
    @pytest.mark.parametrize("name", ["a6", "a8", "c6", "c8", "custom4"])
    def test_scaled_sums_replay_as_the_scaled_certificate(self, sums_states, name):
        # seeded draws and the fuzzer's rescale of each, alternating deltas
        # 1e-3 and 1e-6, and a factor above 1 - delta when the norm is below
        F, state = sums_states[name]
        fam, space = fn_family(state), state.space
        rng = random.Random(11)
        replayed = 0
        for t in range(40):
            cert = random_certificate(fam, 1, rng)
            sums = LadderSums.of(state, cert)
            value = certificate_value(fam, cert)
            assert sums.vector(space) == value and sums.vector(space).den == value.den
            if not value:
                continue
            nv = space.norm(value)
            a, d = space.norm_of(sums.value, sums.D)
            assert (Fraction(a, d) if type(a) is int else a) == nv  # space.norm of the value, to the bit
            factor = oracles._exact_scale(1 - (Fraction(1, 1000), Fraction(1, 10 ** 6))[t % 2], nv)
            factor = min(factor, Fraction(rng.randint(1, 999), 1000) / Fraction(nv))
            scaled = sums.scaled(factor)
            assert scaled.certificate() == scale_certificate(cert, factor)
            got = replay_outcome(tl.verify_chain, state, F, scaled)
            assert got == replay_outcome(tl.verify_chain, state, F, scale_certificate(cert, factor))
            replayed += got.startswith("{")
        assert replayed >= 20

    def test_sums_of_a_scaled_certificate(self, sums_states):
        # sums scaled twice, and by a negative factor, are the sums of the
        # certificate scaled by the product
        F, state = sums_states["a6"]
        cert = below_one(state, SumCertificate.of([(1, 0, 1), (3, 2, Fraction(-1, 2)), (5, 7, Fraction(1, 3))]))
        for f, g in ((Fraction(1, 2), Fraction(-2, 3)), (Fraction(-1), Fraction(7, 9))):
            sums = LadderSums.of(state, cert).scaled(f).scaled(g)
            plain = scale_certificate(cert, f * g)
            assert sums.certificate() == plain
            assert tl.verify_chain(state, F, sums).to_json() == tl.verify_chain(state, F, plain).to_json()

    @pytest.mark.parametrize("f", [0, 2, Fraction(-3, 2)])
    def test_scale_outside_the_unit_interval_raises(self, sums_states, f):
        _, state = sums_states["a6"]
        with pytest.raises(ValueError, match="0 < |f| <= 1"):
            LadderSums.of(state, SumCertificate.of([(2, 1, Fraction(1, 4))])).scaled(f)

    @pytest.mark.parametrize(
        "terms",
        [
            [(1, 0, Fraction(3, 2))],  # coefficient above 1
            [(0, 0, Fraction(1, 2))],  # block below level 1
            [(2, 99, Fraction(1, 2))],  # dangling reference
            [(1, 0, Fraction(1, 8)), (1, 1, Fraction(1, 8))],  # over level 1's budget of one term
            [(7, 0, Fraction(1, 2))],  # a block past the depth
        ],
    )
    def test_invalid_certificate_raises_the_same_message(self, sums_states, terms):
        F, state = sums_states["a6"]
        cert = SumCertificate.of(terms)
        with pytest.raises(ValueError) as expected:
            reference_verify_chain(state, F, cert)
        assert str(expected.value).startswith("certificate invalid at level 1: ")
        for replay in (lambda: tl.verify_chain(state, F, cert), lambda: LadderSums.of(state, cert)):
            with pytest.raises(ValueError) as got:
                replay()
            assert str(got.value) == str(expected.value)

    def test_value_norm_of_one_raises_the_same_message(self, sums_states):
        F, state = sums_states["a6"]
        cert = SumCertificate.of([(3, 0, 1), (4, 1, 1)])
        expected = replay_outcome(reference_verify_chain, state, F, cert)
        assert expected.startswith("chain replay needs value norm < 1")
        assert replay_outcome(tl.verify_chain, state, F, LadderSums.of(state, cert)) == expected


class TestFinalBoundOnSums:
    @pytest.mark.parametrize("name", ["a6", "a8", "c6", "c8", "custom4"])
    def test_matches_the_parent_on_fuzzer_decompositions(self, sums_states, name):
        F, state = sums_states[name]
        fam = fn_family(state)
        rng = random.Random(3)
        compared = 0
        while compared < 6:
            cert = random_certificate(fam, 1, rng)
            z = certificate_value(fam, cert)
            decomp = oracles._random_admissible_decomposition(state, F, cert, z, rng) if z else None
            if decomp is not None:
                u, z_cert = decomp
                got = tl.final_bound_check(state, F, u, z_cert)
                assert asdict(got) == asdict(parent_final_bound_check(state, F, u, z_cert))
                assert got.chain is not None
                compared += 1

    @pytest.mark.parametrize(
        "terms, failing",
        [
            ([(1, 0, Fraction(3, 2))], "z_certified"),  # coefficient above 1: z is 0
            ([(0, 0, Fraction(1, 2))], "z_certified"),  # block below level 1
            ([(3, 0, 1), (4, 1, 1), (4, 3, -1)], "half_z_in_chain_range"),  # ||z|| above 2: no half replay
        ],
    )
    def test_matches_the_parent_when_premises_fail(self, sums_states, terms, failing):
        F, state = sums_states["a6"]
        y = FinSeq({40: Fraction(1, 10)})
        u = TwistedVec(tl.evaluate(F, y), y)
        cert = SumCertificate.of(terms)
        got = tl.final_bound_check(state, F, u, cert)
        assert not got.premises_ok and got.chain is None
        assert failing in [p.name for p in got.premises if not p.passed]
        assert asdict(got) == asdict(parent_final_bound_check(state, F, u, cert))


class TestReportsAsDicts:
    def test_to_json_equals_asdict(self, state4, ribe_normalized):
        # the reports build their dicts field by field; they must equal, in
        # key order too, what dataclasses.asdict gives, nested witnesses and
        # transcripts included
        chain = tl.chain_fuzzer(state4, ribe_normalized, trials=21, seed=0)
        mass = tl.lemma5_adversary(state4.level_z(2), 4, state4.c[2])
        assert chain.witness and mass.witness
        cert = below_one(state4, SumCertificate.of([(1, 0, 1), (3, 2, Fraction(-1, 2))]))
        transcript = tl.verify_chain(state4, ribe_normalized, cert)
        for report in (chain, mass, transcript, *transcript.steps):
            assert json.dumps(report.to_json()) == json.dumps(asdict(report))
        for check in tl.base_axioms_check([tl.ball_radius(n) for n in range(1, 6)], fn_family(state4), 5).checks:
            assert json.dumps(vars(check)) == json.dumps(asdict(check))


@pytest.fixture(scope="session")
def depth4_states():
    """``case_state(case, 4)`` of each case."""
    return {case: case_state(case, 4) for case in "ac"}


@st.composite
def level_one_certificates(draw, state):
    """Valid level-1 certificates on a depth-4 state (level i takes up to
    2^(i-1) terms), coefficients k/64, with shapes the replay must treat
    exactly: a (block, generator) pair drawn twice, a level whose
    coefficients sum to r = 0 on distinct generators (a zero e-part beside a
    nonzero stretched part), a level-4 e-part cancelling level 1's (levels 1
    and 4 share d_1), and each level's balancing generator, the last."""
    coef = st.integers(-64, 64)
    last = {i: len(state.G[i]) - 1 for i in range(1, 5)}
    gen = {i: st.integers(0, last[i]) for i in range(1, 5)}
    terms = []
    if draw(st.booleans()):
        terms.append((1, draw(gen[1]), draw(coef)))
    if draw(st.booleans()):  # r_2 = 0 on two distinct generators
        j, k = draw(st.lists(gen[2], min_size=2, max_size=2, unique=True))
        n = draw(coef)
        terms += [(2, j, n), (2, k, -n)]
    else:
        terms += [(2, draw(gen[2]), draw(coef)) for _ in range(draw(st.integers(0, 2)))]
    j = draw(gen[3])  # a pair drawn twice
    terms += [(3, j, draw(coef)), (3, j, draw(coef))]
    terms += [(3, draw(st.sampled_from([0, last[3]])), draw(coef)) for _ in range(draw(st.integers(0, 2)))]
    if terms[0][0] == 1 and draw(st.booleans()):  # r_4 = -r_1: the prefix's coordinate at d_1 cancels
        terms.append((4, draw(gen[4]), -terms[0][2]))
    else:
        terms.append((4, last[4], draw(coef)))
    terms += [(4, draw(gen[4]), draw(coef)) for _ in range(draw(st.integers(0, 6)))]
    cert = SumCertificate(tuple(terms), 64)
    assert not certificate_problems(fn_family(state), cert, 1)
    return cert


def replay_outcome(replay, state, F, cert):
    """A replay's transcript as JSON text, or the message of the ValueError
    it raises on a value of norm 1 or more."""
    try:
        return json.dumps(replay(state, F, cert).to_json())
    except ValueError as exc:
        return str(exc)


class TestReplayOnRandomCertificates:
    @given(st.sampled_from("ac"), st.data(), st.integers(1, 1100))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_reference(self, depth4_states, case, data, target):
        # scaled so the value's norm is about target / 1000 when that scale
        # is at most 1, else left as drawn: a norm of 1 or more must raise
        # the same error on both sides
        F, state = depth4_states[case]
        cert = data.draw(level_one_certificates(state))
        norm = state.space.norm(certificate_value(fn_family(state), cert))
        if norm:
            cert = scale_certificate(cert, min(Fraction(1), (Fraction(target, 1000) / Fraction(norm)).limit_denominator(10 ** 6)))
        assert replay_outcome(tl.verify_chain, state, F, cert) == replay_outcome(reference_verify_chain, state, F, cert)


def reference_step(lhs, rhs, strict):
    """(passed, band) from Python's own mixed comparisons, as ``_step`` made them
    before it compared integer ratios."""
    passed = (lhs < rhs) if strict else (lhs <= rhs)
    return bool(passed), bool(passed and strict and not (lhs < rhs - STRICT_MARGIN))


exact_or_float = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-5, max_value=5, max_denominator=10 ** 12),
    st.floats(min_value=-5, max_value=5),
)


class TestStepReference:
    def check(self, lhs, rhs, strict):
        step = _step("x", None, lhs, rhs, strict=strict)
        assert (step.passed, step.tolerance_band) == reference_step(lhs, rhs, strict), (lhs, rhs, strict)
        if math.isfinite(float(lhs)) and math.isfinite(float(rhs)):
            assert (step.lhs, step.rhs, step.margin) == (float(lhs), float(rhs), float(rhs) - float(lhs))

    @given(exact_or_float, exact_or_float, st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_mixed_types(self, lhs, rhs, strict):
        self.check(lhs, rhs, strict)

    @given(st.fractions(min_value=-3, max_value=3, max_denominator=10 ** 9), st.integers(-2, 2), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_at_the_band_edge(self, rhs, ulps, strict):
        # lhs within a few ulps of the float rhs - STRICT_MARGIN, as a float
        # and as its exact Fraction, against Fraction, float and int rhs
        edge = float(rhs) - STRICT_MARGIN
        for _ in range(abs(ulps)):
            edge = math.nextafter(edge, math.copysign(math.inf, ulps))
        for lhs in (edge, Fraction(edge)):
            for r in (rhs, float(rhs), round(rhs)):
                self.check(lhs, r, strict)

    @pytest.mark.parametrize(
        "lhs, rhs",
        [
            (Fraction(1, 3), Fraction(1, 3)),
            (2, 2),
            (2, 2.0),
            (Fraction(1, 2), 0.5),
            (0.1, Fraction(1, 10)),
            (Fraction(1, 10), 0.1),
            (1 - 1e-9, 1),
            (Fraction(1 - 1e-9), Fraction(1)),
            (0, 1),
            (True, Fraction(1)),
        ],
    )
    @pytest.mark.parametrize("strict", [True, False])
    def test_equal_and_boundary_values(self, lhs, rhs, strict):
        self.check(lhs, rhs, strict)

    @pytest.mark.parametrize(
        "lhs, rhs", [(math.inf, 1), (1, math.inf), (-math.inf, Fraction(1, 3)), (math.nan, 1), (1, math.nan)]
    )
    @pytest.mark.parametrize("strict", [True, False])
    def test_non_finite_floats(self, lhs, rhs, strict):
        self.check(lhs, rhs, strict)

    def test_exact_flag(self):
        assert _step("x", None, Fraction(1, 3), 1).exact
        assert not _step("x", None, Fraction(1, 3), 1.0).exact


def fraction_step(name, level, lhs, rhs, *, strict=True, note=""):
    """``_step`` as it was before it took integer ratio pairs: on ints,
    Fractions and floats only."""
    exact = isinstance(lhs, (Fraction, int)) and isinstance(rhs, (Fraction, int))
    try:
        (a, b), (c, d) = lhs.as_integer_ratio(), rhs.as_integer_ratio()
        lhs_f, rhs_f = a / b, c / d
        e, f = (rhs_f - STRICT_MARGIN).as_integer_ratio()
    except (OverflowError, ValueError):
        lhs_f, rhs_f = float(lhs), float(rhs)
        (a, b), (c, d), (e, f) = (lhs, 1), (rhs, 1), (rhs_f - STRICT_MARGIN, 1)
    passed = (a * d < c * b) if strict else (a * d <= c * b)
    band = passed and strict and not a * f < e * b
    return ChainStep(name, level, lhs_f, rhs_f, passed, exact, band, rhs_f - lhs_f, note)


ratio_pairs = st.tuples(st.integers(-(10 ** 6), 10 ** 6), st.integers(1, 10 ** 6))


def as_number(v):
    return Fraction(*v) if type(v) is tuple else v


class TestRatioStep:
    """``_step`` on integer ratio pairs against ``fraction_step`` on the
    Fractions they stand for; the JSON text compares NaN fields too."""

    def check(self, lhs, rhs, strict):
        got = _step("x", 1, lhs, rhs, strict=strict, note="n")
        want = fraction_step("x", 1, as_number(lhs), as_number(rhs), strict=strict, note="n")
        assert json.dumps(got.to_json()) == json.dumps(want.to_json()), (lhs, rhs, strict)

    @given(
        ratio_pairs,
        st.one_of(ratio_pairs, st.integers(-5, 5), st.fractions(min_value=-5, max_value=5, max_denominator=10 ** 12), st.floats()),
        st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    def test_against_fractions_ints_and_floats(self, lhs, rhs, strict):
        self.check(lhs, rhs, strict)
        if type(rhs) is tuple:
            self.check(rhs, lhs, strict)

    @given(st.fractions(min_value=-3, max_value=3, max_denominator=10 ** 9), st.integers(-2, 2), st.integers(1, 7), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_at_the_band_edge_in_any_terms(self, rhs, ulps, k, strict):
        # lhs within a few ulps of the float rhs - STRICT_MARGIN, in lowest
        # terms and times k/k, against rhs as a pair, a Fraction and a float
        edge = float(rhs) - STRICT_MARGIN
        for _ in range(abs(ulps)):
            edge = math.nextafter(edge, math.copysign(math.inf, ulps))
        n, d = edge.as_integer_ratio()
        for lhs in ((n, d), (n * k, d * k)):
            for r in ((rhs.numerator * k, rhs.denominator * k), rhs, float(rhs)):
                self.check(lhs, r, strict)

    @pytest.mark.parametrize("rhs", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("lhs", [(0, 1), (-7, 3), (10 ** 30, 7)])
    @pytest.mark.parametrize("strict", [True, False])
    def test_non_finite_right_hand_sides(self, lhs, rhs, strict):
        self.check(lhs, rhs, strict)

    def test_exact_flag(self):
        assert _step("x", None, (1, 3), (1, 1)).exact
        assert not _step("x", None, (1, 3), 1.0).exact
        assert not _step("x", None, 0.5, (1, 1)).exact
