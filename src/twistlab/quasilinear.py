"""Quasi-linear functionals on the exact sequence spaces.

A functional F here is homogeneous (F(rx) = rF(x)) and nearly additive:
|F(x+y) - F(x) - F(y)| <= C (||x|| + ||y||) for some constant C.  Four kinds
are implemented: the Ribe log functional on sparse l1 vectors, its weighted
block variant on the mixed space, exact linear maps given by values on a
basis, and rational rescalings of any of these.

``evaluate`` factors every vector as sign * scale * ray, with the scale
taken in the exact coordinate-l1 gauge and the ray canonically signed, and
computes the transcendental part on the ray alone.  Homogeneity over rational scalars then
holds to a couple of ulps by construction instead of by cancellation luck.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

from .seqspace import (
    FinSeq,
    MixedSeq,
    MixedSpace,
    SeqSpace,
    as_fraction,
    block_entries,
    in_hyperplane_H,
)

F0 = Fraction(0)


# --- the functional kinds ---------------------------------------------------


@dataclass
class Ribe:
    """sum_i x_i ln|x_i| - (sum_i x_i) ln|sum_i x_i| on sparse l1 vectors,
    with 0 ln 0 = 0.  The additivity constant is an assumed upper bound,
    certified empirically by the oracle sweeps, never derived."""

    assumed_constant: float = 4.0
    kind = "ribe"


@dataclass
class WeightedRibe:
    """Blockwise Ribe values combined with weights: sum_n c_n R(x_n) on the
    mixed space.  The additivity constant is the l_q norm of the weights,
    1/p + 1/q = 1."""

    weights: dict[int, Fraction]
    p: Fraction
    assumed_constant: float | None = None
    kind = "weighted_ribe"

    def __post_init__(self):
        self.weights = {int(n): as_fraction(c) for n, c in self.weights.items()}
        self.p = as_fraction(self.p)
        if self.p <= 1:
            raise ValueError("p must exceed 1")
        if self.assumed_constant is None:
            self.assumed_constant = self.holder_bound()

    @property
    def q(self) -> Fraction:
        return self.p / (self.p - 1)

    def holder_bound(self) -> float:
        qf = float(self.q)
        return math.fsum(abs(float(c)) ** qf for c in self.weights.values()) ** (1.0 / qf)


@dataclass
class UserLinear:
    """Exact linear extension of prescribed values on an independent basis."""

    basis: list
    values: list[Fraction]
    assumed_constant: float = 0.0
    space: object = field(default_factory=SeqSpace)
    kind = "user_linear"

    def __post_init__(self):
        self.values = [Fraction(v) for v in self.values]
        if len(self.basis) != len(self.values):
            raise ValueError("one value per basis vector")
        if rank(self.basis) != len(self.basis):
            raise ValueError("basis vectors must be linearly independent")

    def exact_value(self, x) -> Fraction:
        coords = solve_in_span(self.basis, x)
        return sum((c * v for c, v in zip(coords, self.values)), F0)


@dataclass
class Scaled:
    """factor * inner; the additivity constant scales by the same factor."""

    inner: "QuasiFunctional"
    factor: Fraction
    assumed_constant: float | None = None
    kind = "scaled"

    def __post_init__(self):
        self.factor = as_fraction(self.factor)
        if self.factor <= 0:
            raise ValueError("scale factor must be positive")
        if self.assumed_constant is None:
            self.assumed_constant = float(self.factor * Fraction(self.inner.assumed_constant))


QuasiFunctional = Union[Ribe, WeightedRibe, UserLinear, Scaled]


def space_of(F: QuasiFunctional):
    if isinstance(F, Scaled):
        return space_of(F.inner)
    if isinstance(F, Ribe):
        return SeqSpace()
    if isinstance(F, WeightedRibe):
        return MixedSpace(F.p)
    return F.space


# --- evaluation -------------------------------------------------------------


def _ribe_terms(vals) -> float:
    """Core formula on a collection of nonzero rationals (sparse storage holds
    no zeros), 0.0 for none; the two branches agree with
    sum v ln|v| - S ln|S| by the 0 ln 0 convention."""
    total = sum(vals, F0)
    if total:
        tf = float(total)
        return math.fsum(v * math.log(abs(v / tf)) for v in map(float, vals))
    return math.fsum(v * math.log(abs(v)) for v in map(float, vals))


def ribe_eval(x: FinSeq) -> float:
    """Direct formula evaluation; exactly 0 for the zero vector."""
    return _ribe_terms([v for _, v in x.items()])


def weighted_ribe_eval(x: FinSeq, weights, p=None) -> float:
    """sum_n c_n * (blockwise Ribe value); every nonzero block needs a weight."""
    parts = []
    for n, blk in block_entries(x).items():
        if n not in weights:
            raise ValueError("missing weight for nonzero block %d" % n)
        parts.append(float(weights[n]) * _ribe_terms(blk.values()))
    return math.fsum(parts)


def _ray_decompose(x):
    """x = sign * scale * ray with rational scale (coordinate-l1 gauge) and
    the ray's first nonzero coordinate positive.  None for the zero vector."""
    scale = x.norm()
    if not scale:
        return None
    sign = 1 if x[x.support[0]] > 0 else -1
    return sign, scale, x * (Fraction(sign) / scale)


def evaluate(F: QuasiFunctional, x) -> float:
    """Value of F at x; positively homogeneous to machine precision."""
    if isinstance(F, Scaled):
        return float(F.factor) * evaluate(F.inner, x)
    if isinstance(F, UserLinear):
        return float(F.exact_value(x))
    decomp = _ray_decompose(x)
    if decomp is None:
        return 0.0
    sign, scale, ray = decomp
    if isinstance(F, Ribe):
        core = ribe_eval(ray)
    else:
        core = weighted_ribe_eval(ray, F.weights)
    return sign * float(scale) * core


def _direct_eval(F: QuasiFunctional, x) -> float:
    """Formula evaluation without the ray factorization: cheaper, and on
    disjoint unions the term sets literally partition, so additivity defects
    carry no scaling noise.  Used where only value differences matter."""
    if isinstance(F, Scaled):
        return float(F.factor) * _direct_eval(F.inner, x)
    if isinstance(F, UserLinear):
        return float(F.exact_value(x))
    if isinstance(F, Ribe):
        return ribe_eval(x)
    return weighted_ribe_eval(x, F.weights)


def quasi_defect(F: QuasiFunctional, x, y) -> float:
    """|F(x+y) - F(x) - F(y)| / (||x|| + ||y||); symmetric in its arguments."""
    space = space_of(F)
    denom = space.norm(x) + space.norm(y)
    if denom == 0:
        raise ValueError("defect undefined: both arguments are zero")
    gap = _direct_eval(F, x + y) - (_direct_eval(F, x) + _direct_eval(F, y))
    return abs(gap) / float(denom)


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


def _eliminate(cols, tgt):
    positions = sorted(set().union(*cols, tgt) if cols else set(tgt))
    k = len(cols)
    rows = [[col.get(p, F0) for col in cols] + [tgt.get(p, F0)] for p in positions]
    pivots = []
    r = 0
    for c in range(k):
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
        r += 1
    return rows, pivots, k


def solve_in_span(basis, target) -> list[Fraction]:
    """Exact coordinates of target in the span of basis, or ValueError."""
    rows, pivots, k = _eliminate([dict(b.items()) for b in basis], dict(target.items()))
    for i in range(len(pivots), len(rows)):
        if rows[i][k]:
            raise ValueError("vector is not in the span of the basis")
    sol = [F0] * k
    for i, c in enumerate(pivots):
        sol[c] = rows[i][k]
    return sol


def rank(vectors) -> int:
    _, pivots, _ = _eliminate([dict(v.items()) for v in vectors], {})
    return len(pivots)


# --- splitting maps ----------------------------------------------------------


@dataclass
class SplitMap:
    """Linear map given by exact values on an independent basis, together
    with the defect bound |T(x) - F(x)| <= defect_bound * ||x|| it is assumed
    to satisfy on the span."""

    basis: list
    values: list[Fraction]
    defect_bound: float = 0.0

    def __post_init__(self):
        self.values = [Fraction(v) for v in self.values]
        if len(self.basis) != len(self.values):
            raise ValueError("one value per basis vector")
        if rank(self.basis) != len(self.basis):
            raise ValueError("basis vectors must be linearly independent")

    def __call__(self, x) -> Fraction:
        coords = solve_in_span(self.basis, x)
        return sum((c * v for c, v in zip(coords, self.values)), F0)


def split_map_from_ribe(xs: list[FinSeq]) -> SplitMap:
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
    return SplitMap(list(xs), values, defect_bound=0.0)


def kernel_normalize(T: SplitMap, xs: list) -> list:
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


@dataclass
class IteratedDefect:
    holds: bool
    lhs: float
    rhs: float
    f_values: list[float]
    norms: list[float]


def iterated_defect_check(F: QuasiFunctional, us: list, tolerance: float = 1e-9) -> IteratedDefect:
    """Check |F(sum u_i)| <= sum |F(u_i)| + sum i * ||u_i|| (1-based i),
    the right-nested telescoping bound used with additivity constant 1."""
    space = space_of(F)
    total = space.zero()
    for u in us:
        total = total + u
    lhs = abs(evaluate(F, total))
    fvals = [abs(evaluate(F, u)) for u in us]
    norms = [float(space.norm(u)) for u in us]
    rhs = math.fsum(fvals) + math.fsum((i + 1) * n for i, n in enumerate(norms))
    return IteratedDefect(lhs <= rhs + tolerance, lhs, rhs, fvals, norms)


def nonsplit_witness(n: int, cn) -> tuple[MixedSeq, float]:
    """The flat block vector (1/n, ..., 1/n) in block n and the weighted
    Ribe value -c_n ln n it must evaluate to."""
    if n < 1:
        raise ValueError("block index must be positive")
    vec = MixedSeq({n: [Fraction(1, n)] * n})
    return vec, -float(as_fraction(cn)) * math.log(n)


# --- JSON descriptors ---------------------------------------------------------


def functional_to_json(F: QuasiFunctional) -> dict:
    if isinstance(F, Ribe):
        return {"kind": "ribe", "assumed_constant": F.assumed_constant}
    if isinstance(F, WeightedRibe):
        return {
            "kind": "weighted_ribe",
            "weights": {str(n): "%d/%d" % (c.numerator, c.denominator) for n, c in sorted(F.weights.items())},
            "p": "%d/%d" % (F.p.numerator, F.p.denominator),
        }
    if isinstance(F, UserLinear):
        return {
            "kind": "user_linear",
            "basis": [b.to_json() for b in F.basis],
            "values": ["%d/%d" % (v.numerator, v.denominator) for v in F.values],
            "space": F.space.to_json(),
            "assumed_constant": F.assumed_constant,
        }
    if isinstance(F, Scaled):
        return {
            "kind": "scaled",
            "inner": functional_to_json(F.inner),
            "factor": "%d/%d" % (F.factor.numerator, F.factor.denominator),
        }
    raise TypeError("unknown functional kind: %r" % (F,))


def functional_from_json(obj: dict) -> QuasiFunctional:
    kind = obj["kind"]
    if kind == "ribe":
        return Ribe(assumed_constant=obj.get("assumed_constant", 4.0))
    if kind == "weighted_ribe":
        return WeightedRibe(
            weights={int(n): Fraction(c) for n, c in obj["weights"].items()},
            p=Fraction(obj["p"]),
        )
    if kind == "user_linear":
        from .seqspace import space_from_json

        space = space_from_json(obj.get("space", {"kind": "seq"}))
        return UserLinear(
            basis=[space.vector.from_json(b) for b in obj["basis"]],
            values=[Fraction(v) for v in obj["values"]],
            assumed_constant=obj.get("assumed_constant", 0.0),
            space=space,
        )
    if kind == "scaled":
        return Scaled(functional_from_json(obj["inner"]), Fraction(obj["factor"]))
    raise ValueError("unknown functional kind %r" % kind)
