"""Quasi-linear functionals on the exact sequence spaces.

A functional F here is homogeneous (F(rx) = rF(x)) and nearly additive:
|F(x+y) - F(x) - F(y)| <= C (||x|| + ||y||) for some constant C.  Four kinds
are implemented: the Ribe log functional on sparse l1 vectors, its weighted
block variant on the mixed space, exact linear maps given by values on a
basis, and rational rescalings of any of these.  Each kind names its
``space`` and evaluates itself: ``value(x)``; ``value_and_norm(x)``, which is
(F(x), a, d) to the bit with (a, d) = ``space.norm_of(x.nums, x.den)`` (an
l1 norm's integer numerator over ``x.den``, an l_p norm's float over 1);
``to_json()``, the descriptor ``functional_from_json`` reads back; and
``undefined_on(generators)``, why F has no value at one of a state's
generators, or None.

``evaluate(F, x)`` is ``F.value(x)``.  The Ribe formula (per block, for the
weighted kind) is computed as sum_i x_i ln|x_i / g| with the gauge g the
coordinate sum S of x, which is sum x_i ln|x_i| - S ln|S| term by term.  When
S = 0 the gauge is the l1 norm instead: then sum_i x_i ln g = S ln g = 0, so
the value is unchanged.  Either gauge scales with x, so the ratios x_i / g do
not move when x is scaled and homogeneity over rational scalars holds to a
few ulps by construction instead of by cancellation luck.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar, Union

from .exact_lp import gauss_jordan
from .seqspace import (
    FinSeq,
    MixedSeq,
    MixedSpace,
    SeqSpace,
    as_fraction,
    block_l1,
    frac_str,
    in_hyperplane_H,
    lp_of_blocks,
    space_from_json,
    vector_from_json,
)

F0 = Fraction(0)

# the largest block a weighted functional or nonsplit_witness takes: block n
# holds n entries
NONSPLIT_CAP = 2 ** 16


# --- the functional kinds ---------------------------------------------------


@dataclass
class Ribe:
    """sum_i x_i ln|x_i| - (sum_i x_i) ln|sum_i x_i| on sparse l1 vectors,
    with 0 ln 0 = 0.

    The configured additivity constant 4 is *proven, loose*.  With
    phi(t) = t ln|t|, |phi(s+t) - phi(s) - phi(t)| <= (|s|+|t|) ln 2: for s, t
    of one sign the left side is (s+t) times the binary entropy of s/(s+t)
    in nats; for s > 0 > t with s >= |t| (phi is odd, so this covers the
    rest), it is minus the same-sign defect of u = s + t and |t|, at most
    s ln 2.  The defect of x and y is the coordinate defects minus that of
    the coordinate sums S and T, so it is at most
    ln 2 (||x||_1 + ||y||_1 + |S| + |T|) <= 2 ln 2 (||x||_1 + ||y||_1), and
    2 ln 2 ~ 1.386 <= 4.  Tightening to 2 ln 2 would change every stored
    state and margin.  The supremum of the defect over ||x||_1 + ||y||_1 is
    empirically asinh(1) = ln(1 + sqrt 2) ~ 0.8814, attained at
    x = (-sqrt2/4, 1/2 - sqrt2/4), y = (1/2 - sqrt2/4, sqrt2/4)."""

    assumed_constant: float = 4.0
    space: ClassVar[SeqSpace] = SeqSpace()

    def value(self, x) -> float:
        return ribe_eval(x)

    def value_and_norm(self, x):
        return ribe_eval(x), *self.space.norm_of(x.nums, x.den)

    def to_json(self) -> dict:
        return {"kind": "ribe", "assumed_constant": self.assumed_constant}

    def undefined_on(self, generators) -> str | None:
        return None


@dataclass
class WeightedRibe:
    """Blockwise Ribe values combined with weights: sum_n c_n R(x_n) on the
    mixed space.  The additivity constant is the l_q norm of the weights,
    1/p + 1/q = 1.

    That constant is *empirical*: Hoelder's inequality turns a blockwise
    Ribe constant K into K ||c||_q, so ||c||_q takes K <= 1, while the proven
    K is 2 ln 2 (see ``Ribe``).  K <= 1 rests on the oracle sweeps (the
    measured Ribe supremum is about 0.8814) and on acceptance criterion 3,
    which checks the weighted defect against ||c||_q on 10^5 pairs.
    Weights and p are read-only: the evaluator keeps their floats.

    A block holding one coordinate has Ribe value 0 (x ln|x / x| = 0), and
    the evaluator adds nothing for it: its float term would be +-0.0, which
    leaves the weighted fsum unchanged (proof in ``_ribe_terms``).  Its
    weight is still looked up, so a missing one still raises."""

    weights: dict[int, Fraction]
    p: Fraction
    assumed_constant: float = field(init=False)

    def __post_init__(self):
        self.weights = {int(n): as_fraction(c) for n, c in self.weights.items()}
        if not self.weights:
            raise ValueError("weights must name at least one block")
        if not all(1 <= n <= NONSPLIT_CAP for n in self.weights):
            raise ValueError("weighted block indices must be between 1 and %d" % NONSPLIT_CAP)
        self.space = MixedSpace(self.p)
        self.p = self.space.p
        self.assumed_constant = self.holder_bound()
        self._pf = float(self.p)
        self._floats = {n: float(c) for n, c in self.weights.items()}

    @property
    def q(self) -> Fraction:
        return self.p / (self.p - 1)

    def holder_bound(self) -> float:
        qf = float(self.q)
        return math.fsum(abs(float(c)) ** qf for c in self.weights.values()) ** (1.0 / qf)

    def value(self, x) -> float:
        return _weighted_blocks(x, self._floats)[0]

    def value_and_norm(self, x):
        value, norms = _weighted_blocks(x, self._floats)
        return value, lp_of_blocks(norms, x.den, self._pf), 1

    def to_json(self) -> dict:
        weights = {str(n): frac_str(c) for n, c in sorted(self.weights.items())}
        return {"kind": "weighted_ribe", "weights": weights, "p": frac_str(self.p)}

    def undefined_on(self, generators) -> str | None:
        for v in generators:
            for n in block_l1(v.nums):
                if n not in self.weights:
                    return "the functional has no weight for block %d of a generator" % n
        return None


@dataclass
class UserLinear:
    """Exact linear extension of prescribed values on an independent basis,
    both a functional kind and the splitting map of a construction: calling
    it gives the exact value, ``value`` gives it as a float."""

    basis: list
    values: list[Fraction]
    assumed_constant: float = 0.0
    space: object = field(default_factory=SeqSpace)

    def __post_init__(self):
        self.values = [Fraction(v) for v in self.values]
        if len(self.basis) != len(self.values):
            raise ValueError("one value per basis vector")
        if rank(self.basis) != len(self.basis):
            raise ValueError("basis vectors must be linearly independent")

    def __call__(self, x) -> Fraction:
        coords = solve_in_span(self.basis, x)
        return sum((c * v for c, v in zip(coords, self.values)), F0)

    def value(self, x) -> float:
        return float(self(x))

    def value_and_norm(self, x):
        return float(self(x)), *self.space.norm_of(x.nums, x.den)

    def to_json(self) -> dict:
        basis, values = [b.to_json() for b in self.basis], list(map(frac_str, self.values))
        space, c = self.space.to_json(), self.assumed_constant
        return {"kind": "user_linear", "basis": basis, "values": values, "space": space, "assumed_constant": c}

    def undefined_on(self, generators) -> str | None:
        if rank([*self.basis, *generators]) > len(self.basis):
            return "the functional is not defined on a generator outside the span of its basis"
        return None


@dataclass
class Scaled:
    """factor * inner; the additivity constant scales by the same factor.
    The methods call the inner kind's, not ``evaluate`` (which a tracer may
    wrap), so nested factors apply innermost first."""

    inner: "QuasiFunctional"
    factor: Fraction
    assumed_constant: float = field(init=False)

    def __post_init__(self):
        self.factor = as_fraction(self.factor)
        if self.factor <= 0:
            raise ValueError("scale factor must be positive")
        self.assumed_constant = float(self.factor * Fraction(self.inner.assumed_constant))
        self.space = self.inner.space

    def value(self, x) -> float:
        return float(self.factor) * self.inner.value(x)

    def value_and_norm(self, x):
        value, a, d = self.inner.value_and_norm(x)
        return float(self.factor) * value, a, d

    def to_json(self) -> dict:
        return {"kind": "scaled", "inner": self.inner.to_json(), "factor": frac_str(self.factor)}

    def undefined_on(self, generators) -> str | None:
        return self.inner.undefined_on(generators)


QuasiFunctional = Union[Ribe, WeightedRibe, UserLinear, Scaled]


# --- evaluation -------------------------------------------------------------


def _ribe_terms(nums, den: int) -> float:
    """sum v ln|v / g| over v = n / den, n nonzero ints in any order (int
    division rounds correctly, so v is the float of the rational, and the int
    sum and each fsum are exact or correctly rounded whatever the order), 0.0
    for none; g is the coordinate sum, or the l1 norm when it is 0 (module docstring).

    Rounding error.  Let u = 2^-53 and assume every rounded intermediate is
    zero or normal (no overflow or underflow).  Int and float division and
    products round correctly, ``math.fsum`` returns the correctly rounded
    sum, and libm ``log`` is assumed within 1 ulp (the error glibc lists for
    it), so it returns ln(y)(1 + l) with |l| <= 2u.  Write x for a
    coordinate, t = x ln|x / g| for its exact term, T = sum |t| (at least |R|
    for the exact value R) and X = sum |x|.  Then v = x(1 + a), |a| <= u,
    and the gauge is g(1 + b) with |b| <= u for the sum, 2u + u^2 for the
    fsum of the rounded |v|.  The rounded quotient is (x / g)(1 + e) with
    |e| < 4.01u, so its log is ln|x / g| + h with |h| < 4.02u: an absolute
    error, the one that matters when |x / g| is near 1 and the log near 0.
    The log and the product add relative errors 2u and u, so a computed term
    is within 4.01u |t| + 4.03u |x| of t, and the fsum adds u times the sum:

        |computed - R| < 5.02u T + 4.04u X.

    ``evaluate`` on ``Scaled`` multiplies by float(factor) (one rounding, the
    Fraction's int division) and rounds the product, so it is within
    factor (7.04u T + 4.05u X) of factor R.  A weighted value adds one
    such product per block and one fsum; with T_n, X_n per block it is
    within sum |c_n| (10.1u T_n + 4.1u X_n), times the factor when scaled.

    The coordinate ascent's screen forms R (per block, for the weighted
    kind) as a sum of phi(x) = x ln|x| terms (the same analysis with the
    exact gauge 1): one fsum P over the current vector's terms, then one
    fsum of P, minus the terms at a generator's old coordinates, plus those
    at its new ones, minus phi(S).
    With Theta and Xi the sums of |phi(x)| and |x| over all four groups,
    the two roundings of P and of the final sum give

        |screen - R| < 6.03u Theta + 4.04u Xi.

    ``ribe_error_bound`` turns either estimate into an allowance.

    One coordinate.  For a single finite nonzero v the gauge is the same
    int division n / den, so v / g = 1.0, its log is 0.0, the term is
    v * 0.0 = +-0.0 and the value is fsum([+-0.0]) = +0.0.  ``math.fsum``
    returns the correctly rounded exact sum, +0.0 for a zero sum, so a
    +-0.0 summand (times a finite weight) never changes an fsum's result:
    ``_weighted_blocks`` skips such blocks bit for bit."""
    total = sum(nums)
    fvals = [n / den for n in nums]
    g = total / den if total else math.fsum(map(abs, fvals))
    return math.fsum([v * math.log(abs(v / g)) for v in fvals])


def ribe_error_bound(terms: float, coords: float) -> float:
    """16u (terms + coords), u = 2^-53: an allowance for the rounding error
    of a Ribe value as ``_ribe_terms`` or the ascent's screen forms it, with
    ``terms`` at least the summed |term| (T, or Theta) and ``coords`` the
    summed |coordinate| (X, or Xi) of the docstring there.  Times a
    ``Scaled`` factor, and for a weighted value summed over the blocks with
    weights |c_n|, it bounds ``evaluate``'s error too.  The derived constants
    stay under 14.1u (``_coordinate_ascent``); the rest covers computing
    ``terms`` and ``coords`` from rounded terms, this product, and the
    rounded comparison a caller makes with it."""
    return (terms + coords) * 2.0 ** -49


def ribe_eval(x: FinSeq) -> float:
    """The Ribe formula; exactly 0 for the zero vector."""
    return _ribe_terms(x.nums.values(), x.den)


def _weighted_blocks(x: FinSeq, floats: dict) -> tuple[float, list[int]]:
    """sum_n c_n * (blockwise Ribe value) and the l1 numerators over ``x.den``
    of x's nonzero blocks; ``floats`` maps n to float(c_n).  One pass lists each
    block's numerators in dict order, which ``x + y`` interleaves: no bit moves,
    as ``_ribe_terms`` and fsum (here and in ``lp_of_blocks``) ignore order."""
    den, blocks, parts, norms = x.den, {}, [], []
    lo = hi = 0
    for p, v in x.nums.items():
        if p > hi or p <= lo:
            n = (math.isqrt(8 * p - 7) + 1) // 2
            lo = n * (n - 1) // 2
            hi = lo + n
            blk = blocks.setdefault(n, [])
        blk.append(v)
    for n, blk in blocks.items():
        c = floats.get(n)
        if c is None:
            raise ValueError("missing weight for nonzero block %d" % n)
        if len(blk) > 1:  # a one-coordinate block's term is +-0.0 (see ``_ribe_terms``)
            parts.append(c * _ribe_terms(blk, den))
        norms.append(sum(map(abs, blk)))
    return math.fsum(parts), norms


def weighted_ribe_eval(x: FinSeq, weights) -> float:
    """sum_n c_n * (blockwise Ribe value); every nonzero block needs a weight."""
    return _weighted_blocks(x, {n: float(c) for n, c in weights.items()})[0]


def evaluate(F: QuasiFunctional, x) -> float:
    """``F.value(x)``, positively homogeneous to a few ulps: the one name a
    tracer wraps, called once per evaluation."""
    return F.value(x)


def quasi_defects(F: QuasiFunctional, x, ys) -> list[float]:
    """``quasi_defect(F, x, y)`` for each y of ys, F(x) and ||x|| taken once.
    ||x|| + ||y|| is (a d2 + b d1) / (d1 d2), whose int true division rounds
    as the float of the Fraction sum does."""
    fx, a, d1 = F.value_and_norm(x)
    out = []
    for y in ys:
        fy, b, d2 = F.value_and_norm(y)
        num = a * d2 + b * d1
        if num == 0:
            raise ValueError("defect undefined: both arguments are zero")
        gap = evaluate(F, x + y) - (fx + fy)
        out.append(abs(gap) / (num / (d1 * d2)))
    return out


def quasi_defect(F: QuasiFunctional, x, y) -> float:
    """|F(x+y) - F(x) - F(y)| / (||x|| + ||y||); symmetric in its arguments."""
    return quasi_defects(F, x, (y,))[0]


def homogeneity_residual(F: QuasiFunctional, x, r) -> float:
    r = as_fraction(r)
    return abs(evaluate(F, x * r) - float(r) * evaluate(F, x))


def normalize_constant(F: QuasiFunctional) -> Scaled:
    """Rescale so the assumed additivity constant becomes 1 (a wrapper even
    when it already is, so callers can rely on the Scaled shape)."""
    C = F.assumed_constant
    if C <= 0:
        raise ValueError("assumed constant must be positive")
    return Scaled(F, 1 / Fraction(C))


# --- exact linear algebra on the span ---------------------------------------


def _eliminate(vectors, target):
    """Gauss-Jordan over the numerators: one row per position, one column per
    vector (its values times its ``den``) and target last, on ``exact_lp``'s
    integer rows; row i < len(pivots) is over its entry in pivots[i]."""
    cols = [*vectors, target]
    rows = [[v.nums.get(p, 0) for v in cols] for p in sorted(set().union(*(v.nums for v in cols)))]
    return rows, gauss_jordan(rows, len(vectors))


def solve_in_span(basis, target) -> list[Fraction]:
    """Exact coordinates of target in the span of basis, or ValueError."""
    rows, pivots = _eliminate(basis, target)
    if any(row[-1] for row in rows[len(pivots):]):
        raise ValueError("vector is not in the span of the basis")
    sol = [F0] * len(basis)
    for row, c in zip(rows, pivots):
        sol[c] = Fraction(row[-1] * basis[c].den, row[c] * target.den)
    return sol


def rank(vectors) -> int:
    return len(_eliminate(vectors, FinSeq())[1])


# --- splitting maps ----------------------------------------------------------


def split_map_from_ribe(xs: list[FinSeq]) -> UserLinear:
    """Splitting map for the Ribe functional on a span where it is linear:
    mean-zero generators with pairwise disjoint, strictly increasing supports.
    """
    prev_max = 0
    for x in xs:
        if not x:
            raise ValueError("zero generator not allowed")
        if not in_hyperplane_H(x):
            raise ValueError("generator has nonzero coordinate sum")
        supp = x.support
        if supp[0] <= prev_max:
            raise ValueError("supports must be disjoint and strictly increasing")
        prev_max = supp[-1]
    values = [Fraction(ribe_eval(x)) for x in xs]
    return UserLinear(list(xs), values)


def kernel_normalize(T: UserLinear, xs: list) -> list:
    """Fold consecutive pairs into kernel vectors of T: the pair (a, b)
    becomes a + alpha*b with T(a + alpha*b) = 0 exactly.  A pair with
    T(a) != 0 and T(b) = 0 admits no such alpha and is rejected."""
    if len(xs) % 2:
        raise ValueError("kernel normalization consumes pairs; give an even count")
    out = []
    for i in range(0, len(xs), 2):
        a, b = xs[i], xs[i + 1]
        ta = T(a)
        if ta == 0:
            out.append(a)
            continue
        tb = T(b)
        if tb == 0:
            raise ValueError("pair %d has T(a) != 0 but T(b) = 0; no combination vanishes" % (i // 2))
        out.append(a + (-ta / tb) * b)
    for v in out:
        assert T(v) == 0
    if rank(out) != len(out):
        raise ValueError("kernel-normalized family is linearly dependent")
    return out


# --- assorted checks ----------------------------------------------------------


def iterated_defect_check(F: QuasiFunctional, us: list, tolerance: float = 1e-9) -> tuple[bool, float, float]:
    """(holds, lhs, rhs) of |F(sum u_i)| <= sum |F(u_i)| + sum i * ||u_i||
    (1-based i), the right-nested telescoping bound used with additivity
    constant 1."""
    space = F.space
    total = space.zero()
    for u in us:
        total = total + u
    lhs = abs(evaluate(F, total))
    rhs = math.fsum(abs(evaluate(F, u)) for u in us)
    rhs += math.fsum((i + 1) * float(space.norm(u)) for i, u in enumerate(us))
    return lhs <= rhs + tolerance, lhs, rhs


def nonsplit_witness(n: int, cn) -> tuple[MixedSeq, float]:
    """The flat block vector (1/n, ..., 1/n) in block n and the weighted
    Ribe value -c_n ln n it must evaluate to."""
    if not 1 <= n <= NONSPLIT_CAP:
        raise ValueError("block index must be between 1 and %d" % NONSPLIT_CAP)
    vec = MixedSeq({n: [Fraction(1, n)] * n})
    return vec, -float(as_fraction(cn)) * math.log(n)


# --- JSON descriptors ---------------------------------------------------------


def _assumed_constant(obj: dict, default: float):
    """The descriptor's constant as written (an int stays an int, so the
    descriptor writes back unchanged); anything but a number is refused."""
    c = obj.get("assumed_constant", default)
    if isinstance(c, bool) or not isinstance(c, (int, float)):
        raise ValueError("assumed_constant must be a number, got %r" % (c,))
    return c


def functional_from_json(obj: dict) -> QuasiFunctional:
    kind = obj["kind"]
    if kind == "ribe":
        return Ribe(assumed_constant=_assumed_constant(obj, 4.0))
    if kind == "weighted_ribe":
        return WeightedRibe(
            weights={int(n): Fraction(c) for n, c in obj["weights"].items()},
            p=Fraction(obj["p"]),
        )
    if kind == "user_linear":
        space = space_from_json(obj.get("space", {"kind": "seq"}))
        return UserLinear(
            basis=[vector_from_json(b, space) for b in obj["basis"]],
            values=[Fraction(v) for v in obj["values"]],
            assumed_constant=_assumed_constant(obj, 0.0),
            space=space,
        )
    if kind == "scaled":
        return Scaled(functional_from_json(obj["inner"]), Fraction(obj["factor"]))
    raise ValueError("unknown functional kind %r" % kind)
