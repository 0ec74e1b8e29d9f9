"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime.  Tolerances are pinned here, not configurable."""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import twistlab as tl
from twistlab import FinSeq, MixedSeq
from twistlab.cli import main as cli_main
from twistlab.oracles import min_crosspolytope_norm
from twistlab.sumsets import (
    SumCertificate,
    certificate_value,
    merge_certificates,
    random_certificate,
    scale_certificate,
)

WEIGHTS = {n: Fraction(1, 2 ** (n - 1)) for n in range(1, 65)}

# draws a sampling loop may make per accepted sample before its criterion
# fails: with the pinned seeds every loop drew at most one extra sample
ATTEMPTS_PER_SAMPLE = 2


def report(num, name, elapsed, limit):
    print("ACCEPTANCE %2d PASS  %-38s %6.1fs (limit %ds)" % (num, name, elapsed, limit))
    assert elapsed < limit, "criterion %d exceeded its runtime budget" % num


def sample_vector(rng, max_idx=10, max_entries=5, num=16, dens=(1, 2, 4, 8, 16)):
    entries = {}
    for _ in range(rng.randint(1, max_entries)):
        i = rng.randint(1, max_idx)
        v = Fraction(rng.randint(-num, num), rng.choice(dens))
        if v:
            entries[i] = entries.get(i, Fraction(0)) + v
    return FinSeq(entries)


def sample_mean_zero(rng, lo):
    k = rng.randint(1, 4)
    entries = {}
    for j in range(k):
        v = Fraction(rng.randint(-16, 16), rng.choice((1, 2, 4, 8)))
        if v:
            entries[lo + j] = v
    total = sum(entries.values(), Fraction(0))
    if total:
        entries[lo + k] = entries.get(lo + k, Fraction(0)) - total
    return FinSeq(entries)


MIXED_UNITS = {n: [MixedSeq.unit(n, i) for i in range(1, n + 1)] for n in range(1, 6)}


def sample_mixed(rng):
    """One to three blocks of up to 5 sixteenths each, a block drawn twice
    adding up: the numerators are summed as ints and combined once."""
    blocks = {}
    for _ in range(rng.randint(1, 3)):
        n = rng.randint(1, 5)
        vec = [rng.randint(-16, 16) for _ in range(n)]
        blocks[n] = [a + b for a, b in zip(blocks[n], vec)] if n in blocks else vec
    return MixedSeq.combination(((u, a) for n, v in blocks.items() for u, a in zip(MIXED_UNITS[n], v)), 16)


def test_criterion_1_ribe_identities():
    t0 = time.time()
    assert tl.ribe_eval(FinSeq.unit(1)) == 0.0
    for n in (2, 4, 8, 16):
        flat = FinSeq({i: Fraction(1, n) for i in range(1, n + 1)})
        assert abs(tl.ribe_eval(flat) + math.log(n)) <= 1e-12
    F = tl.Ribe()
    rng = random.Random(1001)
    for _ in range(10 ** 4):
        x = sample_vector(rng)
        r = Fraction(rng.randint(-32, 32), rng.choice((1, 2, 4, 8)))
        assert tl.homogeneity_residual(F, x, r) <= 1e-12
    report(1, "ribe identities + homogeneity 1e4", time.time() - t0, 5)


def test_criterion_2_disjoint_mean_zero_additivity():
    t0 = time.time()
    F = tl.Ribe()
    rng = random.Random(1002)
    done = tries = 0
    while done < 10 ** 3:
        tries += 1
        assert tries <= ATTEMPTS_PER_SAMPLE * 10 ** 3, "criterion 2 reached its attempt cap"
        x = sample_mean_zero(rng, 1)
        y = sample_mean_zero(rng, x.max_support() + 1)
        if not x and not y:
            continue
        assert tl.in_hyperplane_H(x) and tl.in_hyperplane_H(y)
        assert tl.disjoint_supports(x, y)
        assert tl.quasi_defect(F, x, y) <= 1e-12
        done += 1
    report(2, "disjoint mean-zero additivity 1e3", time.time() - t0, 5)


def test_criterion_3_weighted_holder_and_witnesses():
    t0 = time.time()
    F = tl.WeightedRibe(WEIGHTS, 2)
    bound = F.assumed_constant + 1e-9
    rng = random.Random(1003)
    done = tries = 0
    while done < 10 ** 5:
        tries += 1
        assert tries <= ATTEMPTS_PER_SAMPLE * 10 ** 5, "criterion 3 reached its attempt cap"
        x = sample_mixed(rng)
        y = sample_mixed(rng)
        if not x and not y:
            continue
        assert tl.quasi_defect(F, x, y) <= bound
        done += 1
    for n in range(1, 65):
        vec, expected = tl.nonsplit_witness(n, WEIGHTS[n])
        assert abs(tl.weighted_ribe_eval(vec, WEIGHTS) - expected) <= 1e-12
        assert abs(expected - (-float(WEIGHTS[n]) * math.log(n))) <= 1e-15
    report(3, "weighted Holder 1e5 + witnesses n<=64", time.time() - t0, 30)


def test_criterion_4_quasi_triangle(ribe_normalized):
    t0 = time.time()
    F = ribe_normalized
    rng = random.Random(1004)
    done = tries = 0
    while done < 10 ** 4:
        tries += 1
        assert tries <= ATTEMPTS_PER_SAMPLE * 10 ** 4, "criterion 4 reached its attempt cap"
        w1 = tl.TwistedVec(rng.uniform(-4, 4), sample_vector(rng))
        w2 = tl.TwistedVec(rng.uniform(-4, 4), sample_vector(rng))
        if tl.quasi_norm(F, w1) + tl.quasi_norm(F, w2) == 0:
            continue
        assert tl.quasi_triangle_ratio(F, w1, w2) <= 2 + 1e-9
        done += 1
    report(4, "quasi-triangle ratio 1e4", time.time() - t0, 10)


def test_criterion_5_construction_soundness(ribe_normalized):
    t0 = time.time()
    xs, ds = tl.make_case_a_inputs(6, 3)
    state = tl.run_construction(ribe_normalized, xs, ds, 6)
    assert state.m[2] == 481
    assert state.M[2] == 1
    assert state.c[2] == Fraction(1, 32)
    for n in range(1, 7):
        rep = tl.lemma5_adversary(state.level_z(n), 2 ** n, state.c[n])
        assert rep.method == "exact"
        assert "exhaustive" in rep.notes
        assert rep.best_violation < 0
    report(5, "construction depth 6 + mass adversary", time.time() - t0, 120)


def test_criterion_6_chain_and_final_bound(state6, ribe_normalized):
    t0 = time.time()
    F = ribe_normalized
    fam = tl.fn_family(state6)
    rng = random.Random(1006)
    target = 1 - Fraction(1, 1000)
    done = tries = 0
    min_margin = float("inf")
    while done < 10 ** 4:
        tries += 1
        assert tries <= ATTEMPTS_PER_SAMPLE * 10 ** 4, "criterion 6 reached its attempt cap"
        cert = random_certificate(fam, 1, rng)
        if not cert.terms:
            continue
        nv = certificate_value(fam, cert).norm()
        if nv <= target:
            continue
        tr = tl.verify_chain(state6, F, scale_certificate(cert, target / nv))
        assert tr.passed
        assert abs(tr.f_value) < 9
        min_margin = min(min_margin, tr.min_margin)
        done += 1
    assert min_margin > 0
    from twistlab.oracles import _random_admissible_decomposition

    done = tries = 0
    while done < 10 ** 3:
        tries += 1
        assert tries <= ATTEMPTS_PER_SAMPLE * 10 ** 3, "criterion 6 reached its attempt cap"
        cert = random_certificate(fam, 1, rng)
        if not cert.terms:
            continue
        decomp = _random_admissible_decomposition(state6, F, cert, certificate_value(fam, cert), rng)
        if decomp is None:
            continue
        u, z_cert = decomp
        rep = tl.final_bound_check(state6, F, u, z_cert)
        assert rep.premises_ok
        assert rep.passed
        w = tl.TwistedVec(u.r, u.x + certificate_value(fam, z_cert))
        assert tl.quasi_norm(F, w) < 23
        done += 1
    report(6, "ladder 1e4 + final bound 1e3", time.time() - t0, 300)


def test_criterion_7_set_calculus(state6):
    t0 = time.time()
    fam = tl.fn_family(state6)
    rng = random.Random(1007)
    for _ in range(10 ** 3):
        n = rng.randint(1, 5)
        c1 = random_certificate(fam, n + 1, rng)
        c2 = random_certificate(fam, n + 1, rng)
        merged = merge_certificates(fam, c1, c2, n + 1)
        assert tl.certificate_valid(fam, merged, n)
        s = Fraction(rng.randint(-8, 8), 8)
        assert tl.certificate_valid(fam, scale_certificate(c1, s), n + 1)
    # the exact at-budget case: saturate every block budget at level n+1
    for n in (1, 3):
        terms = []
        for i in range(n + 1, 7):
            budget = 2 ** (i - (n + 1))
            for kk in range(budget):
                terms.append((i, kk % len(fam.generators[i]), 1))
        full = SumCertificate.of(terms)
        assert tl.certificate_valid(fam, full, n + 1)
        doubled = merge_certificates(fam, full, scale_certificate(full, -1), n + 1)
        assert tl.certificate_valid(fam, doubled, n)
    for n in range(1, 7):
        gens = state6.G[n]
        assert len(gens) == 2 ** n + 1
        lam = Fraction(1, 2 ** n + 1)
        combo = FinSeq()
        for g in gens:
            combo = combo + g * lam
        assert combo == state6.e_vector(n)
    report(7, "set-calculus laws + hulls n<=6", time.time() - t0, 30)


def test_criterion_8_negative_controls(ribe_normalized):
    t0 = time.time()
    xs, ds = tl.make_case_a_inputs(2, 2)
    bad = tl.run_construction(ribe_normalized, xs, ds, 2, m_override={2: 1}, verify_levels=False)
    rep = tl.lemma5_adversary(bad.level_z(2), 4, bad.c[2])
    assert rep.best_violation > 0

    fam = tl.fn_family(bad)

    def sabotage(level):
        return lambda i: (2 ** (i - level) if i >= level else 0) + 1

    radii = [tl.ball_radius(n) for n in range(1, 4)]
    axioms = tl.base_axioms_check(radii, fam, 2, counts_fn=sabotage)
    merge_checks = [c for c in axioms.checks if c.name == "merge_closure_at_budget"]
    assert any(not c.passed for c in merge_checks)
    report(8, "negative controls detected", time.time() - t0, 30)


def test_criterion_9_oracle_self_consistency():
    t0 = time.time()
    rng = random.Random(1009)
    # disjoint inputs: exact closed form both for the minimum and the constant
    for _ in range(20):
        k = rng.randint(1, 5)
        ys = []
        lo = 1
        for _ in range(k):
            width = rng.randint(1, 3)
            ys.append(FinSeq({lo + j: Fraction(rng.randint(1, 8), rng.choice((1, 2, 4))) for j in range(width)}))
            lo += width + 1
        res = min_crosspolytope_norm(ys)
        assert res.method == "exact"
        assert res.value == min(y.norm() for y in ys)
        assert tl.basis_constant(ys) == 1 / min(y.norm() for y in ys)
    # general k <= 3 inputs against the dense grid
    for k in (2, 3):
        for _ in range(3):
            ys = []
            for _ in range(k):
                v = sample_vector(rng, max_idx=4, max_entries=3, num=4, dens=(1, 2))
                ys.append(v if v else FinSeq.unit(1))
            res = min_crosspolytope_norm(ys)
            grid_best = None
            for signs in itertools.product((1, -1), repeat=k):
                for alloc in itertools.product(range(65), repeat=k - 1):
                    if sum(alloc) > 64:
                        continue
                    coeffs = [Fraction(signs[j] * a, 64) for j, a in enumerate(alloc + (64 - sum(alloc),))]
                    combo = FinSeq()
                    for c, y in zip(coeffs, ys):
                        combo = combo + y * c
                    v = combo.norm()
                    if grid_best is None or v < grid_best:
                        grid_best = v
            lip = max(float(y.norm()) for y in ys)
            assert float(res.value) <= float(grid_best) + 1e-12
            assert float(grid_best) - float(res.value) <= lip * k / 64 + 1e-9
    report(9, "cross-polytope oracle vs grid", time.time() - t0, 60)


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    for sub in ("a", "b"):
        code = cli_main(
            ["construct", "--case", "a", "--depth", "6", "--seed", "7", "--out", str(tmp_path / sub)]
        )
        assert code == 0
    b1 = (tmp_path / "a" / "state.json").read_bytes()
    b2 = (tmp_path / "b" / "state.json").read_bytes()
    assert b1 == b2
    report(10, "byte-identical construct runs", time.time() - t0, 60)
