import json
import random
from fractions import Fraction

import pytest

import twistlab as tl
from twistlab import FinSeq, MixedSeq, SumCertificate, TwistedVec
from twistlab.construction import (
    ChainTranscript,
    functional_of_state,
    levels_csv_rows,
    state_from_json,
    state_to_json,
    static_state_checks,
)
from twistlab.seqspace import MixedSpace
from twistlab.sumsets import certificate_value, random_certificate, scale_certificate


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

    def test_basis_constant_dependent_rejected(self):
        with pytest.raises(ValueError):
            tl.basis_constant([FinSeq.unit(1), FinSeq({1: 2})])

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
        T = tl.SplitMap([xs[0]], [Fraction(1)])  # deliberately nonzero on xs[0]
        with pytest.raises(ValueError):
            tl.run_construction(ribe_normalized, xs, ds, 2, split_map=T)

    def test_forced_small_multiplier_fails_certification(self, ribe_normalized):
        xs, ds = tl.make_case_a_inputs(2, 2)
        with pytest.raises(tl.ConstructionError):
            tl.run_construction(ribe_normalized, xs, ds, 2, m_override={1: 1})

    def test_static_checks_clean(self, state4, ribe_normalized):
        assert all(c.passed for c in static_state_checks(state4, ribe_normalized))

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
        back = state_from_json(json.loads(json.dumps(state_to_json(state4))))
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
        state = state_from_json(json.loads(json.dumps(state_to_json(tl.run_construction(F, xs, ds, 2)))))
        assert state.G[0] == [MixedSeq()]
        # a stored final-bound witness with zero u.x reads back as FinSeq()
        u = TwistedVec.from_json({"r": 0.0, "x": {}})
        rep = tl.final_bound_check(state, F, u, SumCertificate.of([(1, 0, Fraction(1, 1000))]))
        assert rep.premises_ok and rep.passed


class TestVerifyChain:
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

    def test_transcript_roundtrip(self, state4, ribe_normalized):
        fam = tl.fn_family(state4)
        rng = random.Random(8)
        cert = None
        while not cert or not cert.terms:
            cert = random_certificate(fam, 1, rng)
        nv = certificate_value(fam, cert).norm()
        tr = tl.verify_chain(state4, ribe_normalized, scale_certificate(cert, Fraction(1, 2) / nv))
        back = ChainTranscript.from_json(json.loads(json.dumps(tr.to_json())))
        assert back.passed == tr.passed
        assert back.min_margin == tr.min_margin
        assert [s.name for s in back.steps] == [s.name for s in tr.steps]

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


class TestWitnesses:
    def test_uniform_weights(self, state4, ribe_normalized):
        for n in range(1, 5):
            wb = tl.trivial_dual_witnesses(state4, ribe_normalized, n, 1)
            assert wb.hull.reproduces
            assert wb.hull.weights == [Fraction(1, 2 ** n + 1)] * (2 ** n + 1)

    def test_deep_generator_low_level(self, state6, ribe_normalized):
        wb = tl.trivial_dual_witnesses(state6, ribe_normalized, 3, 1)
        assert wb.hull.reproduces
        assert wb.hull.sum_level == 1
        assert "convex hull" in wb.hull.budget_note

    def test_unit_point_boundary_at_level_one(self, state4, ribe_normalized):
        wb = tl.trivial_dual_witnesses(state4, ribe_normalized, 1, 1)
        assert wb.u_part.status == "boundary"
        assert wb.u_part.point_norm == 1.0
        assert wb.u_part.scaled_member

    def test_deeper_levels_flagged(self, state4, ribe_normalized):
        wb = tl.trivial_dual_witnesses(state4, ribe_normalized, 3, 2)
        assert wb.u_part.status == "radius_dependent"
        assert wb.u_part.scaled_member

    def test_range_checks(self, state4, ribe_normalized):
        with pytest.raises(ValueError):
            tl.trivial_dual_witnesses(state4, ribe_normalized, 5, 1)
        with pytest.raises(ValueError):
            tl.trivial_dual_witnesses(state4, ribe_normalized, 2, 3)
