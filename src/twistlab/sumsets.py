"""Budgeted-sum set calculus with explicit membership certificates.

A family assigns each block index i a finite generator list G_i.  The
level-n set is all sums  sum r_k z_k  with |r_k| <= 1, each z_k drawn from
some G_i with i >= n, and at most 2^(i-n) terms drawn from G_i.  Membership
is always established by certificate -- a list of (block, generator, weight)
terms -- never decided for arbitrary points: the verifiers only ever
manipulate sums they constructed themselves.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .exact_lp import solve_lp
from .quasilinear import rank
from .seqspace import FinSeq, as_fraction, ratio_str


@dataclass(frozen=True)
class SumCertificate:
    """Stored the way ``FinSeq`` stores a vector: per term (block i, 1-based;
    generator index j, 0-based; int numerator) over one positive ``den``,
    kept reduced (``den`` is the lcm of the coefficients' least denominators)
    so that equal certificates compare equal."""

    terms: tuple[tuple[int, int, int], ...] = ()
    den: int = 1

    def __post_init__(self):
        g = math.gcd(self.den, *(n for _, _, n in self.terms))
        if g != 1:
            object.__setattr__(self, "terms", tuple((i, j, n // g) for i, j, n in self.terms))
            object.__setattr__(self, "den", self.den // g)

    @classmethod
    def of(cls, triples) -> "SumCertificate":
        rs = [(int(i), int(j), as_fraction(r)) for i, j, r in triples]
        den = math.lcm(*(r.denominator for _, _, r in rs))
        return cls(tuple((i, j, r.numerator * (den // r.denominator)) for i, j, r in rs), den)

    def joined(self, other: "SumCertificate") -> "SumCertificate":
        """Every term of both certificates; the value is the sum of theirs."""
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return SumCertificate(
            tuple((i, j, n * a) for i, j, n in self.terms) + tuple((i, j, n * b) for i, j, n in other.terms), den
        )

    def to_json(self):
        return [{"i": i, "j": j, "r": ratio_str(n, self.den)} for i, j, n in self.terms]

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
    return FinSeq()


def certificate_value(fam: SumFamily, cert: SumCertificate):
    """Exact value sum r * generator, one integer combination of the
    generators; raises IndexError on a bad reference."""
    return type(family_zero(fam)).combination(((fam.gen(i, j), n) for i, j, n in cert.terms), cert.den)


def _violations(fam: SumFamily, cert: SumCertificate, level: int, counts: Callable[[int], int] | None):
    counts = counts or level_counts(level)
    per_block: dict[int, int] = {}
    for i, j, n in cert.terms:
        if abs(n) > cert.den:
            yield "coefficient %s exceeds 1 in absolute value" % Fraction(n, cert.den)
        if i < level:
            yield "block %d lies below level %d" % (i, level)
        if i not in fam.generators or not 0 <= j < len(fam.generators[i]):
            yield "dangling generator reference (%d, %d)" % (i, j)
        per_block[i] = per_block.get(i, 0) + 1
    for i, used in sorted(per_block.items()):
        budget = counts(i)
        if used > budget:
            yield "block %d uses %d terms, budget %d" % (i, used, budget)


def certificate_valid(fam: SumFamily, cert: SumCertificate, level: int, counts=None) -> bool:
    return next(_violations(fam, cert, level, counts), None) is None


def certificate_problems(fam: SumFamily, cert: SumCertificate, level: int, counts=None) -> list[str]:
    return list(_violations(fam, cert, level, counts))


def scale_certificate(cert: SumCertificate, s) -> SumCertificate:
    """Multiply every coefficient by s; the value scales by s.  Every scaled
    coefficient must stay within [-1, 1] (always so for |s| <= 1 on a valid
    certificate), so validity at the same level is preserved."""
    s = as_fraction(s)
    p, den = s.numerator, cert.den * s.denominator
    if max((abs(n) for _, _, n in cert.terms), default=0) * abs(p) > den:
        raise ValueError("scaled coefficient exceeds 1 in absolute value")
    return SumCertificate(tuple((i, j, n * p) for i, j, n in cert.terms), den)


def merge_certificates(fam: SumFamily, c1: SumCertificate, c2: SumCertificate, level: int) -> SumCertificate:
    """Concatenate two level-(level) certificates into a level-(level-1) one:
    per block the term counts add, and 2 * 2^(i-(n+1)) = 2^(i-n)."""
    for cert in (c1, c2):
        problems = certificate_problems(fam, cert, level)
        if problems:
            raise ValueError("input invalid at level %d: %s" % (level, problems[0]))
    return c1.joined(c2)


def random_certificate(fam: SumFamily, level: int, rng: random.Random) -> SumCertificate:
    """Random valid level-n certificate: per block a random number of draws
    within budget, each kept with probability 0.7, random generator
    references, nonzero coefficients k/64; ``randint(a, b)`` would draw the
    same stream, as it is ``randrange(a, b + 1)``."""
    terms = []
    randrange, coin, counts = rng.randrange, rng.random, level_counts(level)
    for i in fam.blocks:
        n_gens = len(fam.generators[i])
        if i < level or n_gens == 0:
            continue
        for _ in range(randrange(counts(i) + 1)):
            if coin() > 0.7:
                continue
            num = randrange(-64, 65) or 64
            terms.append((i, randrange(n_gens), num))
    return SumCertificate(tuple(terms), 64)


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


def base_axioms_check(
    ball_radii,
    fam: SumFamily,
    depth: int,
    *,
    counts_fn: Callable[[int], Callable[[int], int]] | None = None,
) -> AxiomReport:
    """Decide, level by level, the two base axioms the topology needs:

    * additivity of the metric balls: 2 (C+1) rho_{n+1} <= rho_n, with
      triangle constant C = 1;
    * merge closure, F_{n+1} + F_{n+1} in F_n (Lemma 2).  With budgets
      b_n = ``counts_fn(n)``, two valid level-(n+1) certificates always
      concatenate into a valid level-n one iff 2 b_{n+1}(i) <= max(b_n(i), 0)
      on every block i > n holding generators: each has coefficients within
      1 and at most b_{n+1}(i) terms in block i >= n + 1, none below; where
      the comparison fails, b_{n+1}(i) terms (i, 0, 1) joined with themselves
      exceed b_n(i).  The paper's rule holds with equality, 2 * 2^(i-n-1) =
      2^(i-n).  The entry names the first failing block.

    Balancedness, [-1, 1] F_n in F_n, holds for every budget rule, as
    ``scale_certificate`` by |s| <= 1 keeps each coefficient within 1 and
    each count.  ``counts_fn(level)`` overrides the budget rule (the negative
    controls' sabotage hook); failures become report entries, never raises.
    """
    counts_fn = counts_fn or level_counts
    checks: list[AxiomCheck] = []
    radii = [as_fraction(r) for r in ball_radii]
    factor = 4  # 2 (C + 1)
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
        sub, sup = counts_fn(n + 1), counts_fn(n)
        bad = next((i for i in fam.blocks if i > n and fam.generators[i] and 2 * sub(i) > max(sup(i), 0)), None)
        if bad is None:
            detail = "2 b_%d(i) <= b_%d(i) on every block i > %d" % (n + 1, n, n)
        else:
            detail = "block %d uses %d terms, budget %d" % (bad, 2 * sub(bad), sup(bad))
        checks.append(AxiomCheck("merge_closure_at_budget", n, bad is None, detail))
    return AxiomReport(checks)


# --- convex hull membership ----------------------------------------------------


@dataclass
class HullCertificate:
    weights: list[Fraction]
    member: bool
    reason: str = ""


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
    A = [[1] * len(points)] + [[p[c] for p in points] for c in coords]
    b = [1] + [point[c] for c in coords]
    res = solve_lp([0] * len(points), A, b)
    if res.status != "optimal":
        return HullCertificate([], False, "no nonnegative convex weights exist (exact phase-1 simplex)")
    return HullCertificate(res.x, True)

