"""Budgeted-sum set calculus with explicit membership certificates.

A family assigns each block index i a finite generator list G_i.  The
level-n set is all sums  sum r_k z_k  with |r_k| <= 1, each z_k drawn from
some G_i with i >= n, and at most 2^(i-n) terms drawn from G_i.  Membership
is always established by certificate -- a list of (block, generator, weight)
terms -- never decided for arbitrary points: the verifiers only ever
manipulate sums they constructed themselves.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .exact_lp import solve_lp
from .quasilinear import rank
from .seqspace import as_fraction

F0 = Fraction(0)
F1 = Fraction(1)


@dataclass(frozen=True)
class CertTerm:
    block: int  # generator-set index i (1-based)
    gen: int  # index into the block's generator list (0-based)
    coeff: Fraction

    def to_json(self):
        return {"i": self.block, "j": self.gen, "r": "%d/%d" % (self.coeff.numerator, self.coeff.denominator)}


@dataclass(frozen=True)
class SumCertificate:
    terms: tuple[CertTerm, ...]

    @classmethod
    def of(cls, triples) -> "SumCertificate":
        return cls(tuple(CertTerm(int(i), int(j), as_fraction(r)) for i, j, r in triples))

    def __len__(self):
        return len(self.terms)

    def to_json(self):
        return [t.to_json() for t in self.terms]

    @classmethod
    def from_json(cls, obj) -> "SumCertificate":
        return cls.of((t["i"], t["j"], Fraction(t["r"])) for t in obj)


@dataclass
class SumFamily:
    """Finite generator lists per block."""

    generators: dict[int, list]

    def gen(self, block: int, index: int):
        try:
            return self.generators[block][index]
        except (KeyError, IndexError):
            raise IndexError("no generator %d in block %d" % (index, block)) from None

    @property
    def blocks(self) -> list[int]:
        return sorted(self.generators)


def level_counts(level: int) -> Callable[[int], int]:
    """Per-block budgets of the level-n set: 2^(i-n) for i >= n, else 0."""

    def counts(i: int) -> int:
        return 2 ** (i - level) if i >= level else 0

    return counts


def family_zero(fam: SumFamily):
    """The zero vector of whatever flavour the family's generators carry."""
    for gens in fam.generators.values():
        for g in gens:
            return g * 0
    from .seqspace import FinSeq

    return FinSeq()


def certificate_value(fam: SumFamily, cert: SumCertificate):
    """Exact value sum r * generator; raises IndexError on a bad reference."""
    total = family_zero(fam)
    for t in cert.terms:
        total = total + fam.gen(t.block, t.gen) * t.coeff
    return total


def _violations(fam: SumFamily, cert: SumCertificate, level: int, counts: Callable[[int], int] | None):
    counts = counts or level_counts(level)
    per_block: dict[int, int] = {}
    for t in cert.terms:
        if abs(t.coeff) > 1:
            yield "coefficient %s exceeds 1 in absolute value" % t.coeff
        if t.block < level:
            yield "block %d lies below level %d" % (t.block, level)
        if t.block not in fam.generators or not 0 <= t.gen < len(fam.generators[t.block]):
            yield "dangling generator reference (%d, %d)" % (t.block, t.gen)
        per_block[t.block] = per_block.get(t.block, 0) + 1
    for i, used in sorted(per_block.items()):
        budget = counts(i)
        if used > budget:
            yield "block %d uses %d terms, budget %d" % (i, used, budget)


def certificate_valid(fam: SumFamily, cert: SumCertificate, level: int, counts=None) -> bool:
    return next(_violations(fam, cert, level, counts), None) is None


def certificate_problems(fam: SumFamily, cert: SumCertificate, level: int, counts=None) -> list[str]:
    return list(_violations(fam, cert, level, counts))


def scale_certificate(cert: SumCertificate, s) -> SumCertificate:
    """Multiply every coefficient by s, |s| <= 1; validity at the same level
    is preserved and the value scales by s."""
    s = as_fraction(s)
    if abs(s) > 1:
        raise ValueError("scaling factor must satisfy |s| <= 1")
    return SumCertificate(tuple(CertTerm(t.block, t.gen, t.coeff * s) for t in cert.terms))


def rescale_certificate(cert: SumCertificate, s) -> SumCertificate:
    """Unrestricted rescaling (for internal renormalization, not set algebra)."""
    s = as_fraction(s)
    return SumCertificate(tuple(CertTerm(t.block, t.gen, t.coeff * s) for t in cert.terms))


def merge_certificates(fam: SumFamily, c1: SumCertificate, c2: SumCertificate, level: int) -> SumCertificate:
    """Concatenate two level-(level) certificates into a level-(level-1) one:
    per block the term counts add, and 2 * 2^(i-(n+1)) = 2^(i-n)."""
    for cert in (c1, c2):
        problems = certificate_problems(fam, cert, level)
        if problems:
            raise ValueError("input invalid at level %d: %s" % (level, problems[0]))
    return SumCertificate(c1.terms + c2.terms)


def random_certificate(fam: SumFamily, level: int, rng: random.Random, coeff_den: int = 64, fill: float = 0.7) -> SumCertificate:
    """Random valid level-n certificate: per block a random number of terms
    within budget, random generator references, coefficients k/coeff_den."""
    terms = []
    for i in fam.blocks:
        if i < level:
            continue
        budget = level_counts(level)(i)
        n_gens = len(fam.generators[i])
        if budget == 0 or n_gens == 0:
            continue
        take = rng.randint(0, budget)
        for _ in range(take):
            if rng.random() > fill:
                continue
            num = rng.randint(-coeff_den, coeff_den)
            if num == 0:
                num = coeff_den
            terms.append(CertTerm(i, rng.randrange(n_gens), Fraction(num, coeff_den)))
    return SumCertificate(tuple(terms))


# --- neighborhood-base axioms -------------------------------------------------


@dataclass
class AxiomCheck:
    name: str
    level: int | None
    passed: bool
    detail: str


@dataclass
class AxiomReport:
    checks: list[AxiomCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[AxiomCheck]:
        return [c for c in self.checks if not c.passed]

    def to_json(self):
        return [
            {"name": c.name, "level": c.level, "passed": c.passed, "detail": c.detail}
            for c in self.checks
        ]


def base_axioms_check(
    ball_radii,
    fam: SumFamily,
    depth: int,
    *,
    triangle_constant: Fraction = F1,
    counts_fn: Callable[[int], Callable[[int], int]] | None = None,
    rng: random.Random | None = None,
    trials: int = 25,
) -> AxiomReport:
    """Verify, level by level, the three base axioms the topology needs:

    * additivity of the metric balls: 2 (C+1) rho_{n+1} <= rho_n;
    * merge closure of the budgeted sums: two level-(n+1) certificates
      concatenate into a valid level-n certificate (checked on random
      certificates and on the exact at-budget case);
    * balancedness: certificates survive scaling by any |s| <= 1.

    ``counts_fn(level)`` overrides the budget rule (the sabotage hook used by
    the negative controls); failures become report entries, never raises.
    """
    rng = rng or random.Random(0)
    counts_fn = counts_fn or level_counts
    checks: list[AxiomCheck] = []
    radii = [as_fraction(r) for r in ball_radii]
    factor = 2 * (triangle_constant + 1)
    for n in range(1, min(depth, len(radii))):
        ok = factor * radii[n] <= radii[n - 1]
        checks.append(
            AxiomCheck(
                "ball_radius_additivity",
                n,
                ok,
                "2(C+1) rho_%d = %s vs rho_%d = %s" % (n + 1, factor * radii[n], n, radii[n - 1]),
            )
        )
    for n in range(1, depth):
        sub_counts = counts_fn(n + 1)
        super_counts = counts_fn(n)
        # exact at-budget case: both certificates saturate every block budget
        saturated = []
        for cert_idx in range(2):
            terms = []
            for i in fam.blocks:
                if i < n + 1:
                    continue
                n_gens = len(fam.generators[i])
                for kk in range(min(sub_counts(i), 4 * n_gens)):
                    terms.append(CertTerm(i, kk % n_gens, F1 if cert_idx else -F1))
            saturated.append(SumCertificate(tuple(terms)))
        merged = SumCertificate(saturated[0].terms + saturated[1].terms)
        problems = certificate_problems(fam, merged, n, super_counts)
        checks.append(
            AxiomCheck(
                "merge_closure_at_budget",
                n,
                not problems,
                problems[0] if problems else "saturated merge stays within budget",
            )
        )
        bad = 0
        for _ in range(trials):
            c1 = random_certificate(fam, n + 1, rng)
            c2 = random_certificate(fam, n + 1, rng)
            merged = SumCertificate(c1.terms + c2.terms)
            if not certificate_valid(fam, merged, n, super_counts):
                bad += 1
            s = Fraction(rng.randint(-4, 4), 4)
            if not certificate_valid(fam, scale_certificate(c1, s), n + 1, sub_counts):
                bad += 1
        checks.append(
            AxiomCheck(
                "merge_and_balance_random",
                n,
                bad == 0,
                "%d failures in %d random trials" % (bad, trials),
            )
        )
    return AxiomReport(checks)


# --- convex hull membership ----------------------------------------------------


@dataclass
class HullCertificate:
    weights: list[Fraction]
    member: bool
    reason: str = ""

    def to_json(self):
        return {
            "member": self.member,
            "weights": ["%d/%d" % (w.numerator, w.denominator) for w in self.weights],
            "reason": self.reason,
        }


def hull_membership(point, points: list) -> HullCertificate:
    """Exact convex weights reproducing the point, or a verified refusal.

    Affine-hull failure is detected by an exact rank comparison; inside the
    affine hull, nonnegativity is decided by an exact feasibility LP.
    """
    if not points:
        return HullCertificate([], False, "empty generating set")
    diffs = [p - points[0] for p in points[1:]]
    shifted = point - points[0]
    if rank(diffs + [shifted]) != rank(diffs):
        return HullCertificate([], False, "point lies outside the affine hull (exact rank check)")
    coords = sorted(set().union(*(p.support for p in points + [point])) or {1})
    A = [[F1] * len(points)]
    b = [F1]
    for c in coords:
        A.append([p[c] for p in points])
        b.append(point[c])
    res = solve_lp([F0] * len(points), A, b)
    if res.status != "optimal":
        return HullCertificate([], False, "no nonnegative convex weights exist (exact phase-1 simplex)")
    return HullCertificate(res.x, True)


__all__ = [
    "CertTerm",
    "SumCertificate",
    "SumFamily",
    "level_counts",
    "family_zero",
    "certificate_value",
    "certificate_valid",
    "certificate_problems",
    "scale_certificate",
    "rescale_certificate",
    "merge_certificates",
    "random_certificate",
    "base_axioms_check",
    "AxiomReport",
    "HullCertificate",
    "hull_membership",
]
