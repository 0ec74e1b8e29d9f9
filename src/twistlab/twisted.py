"""The twisted sum of the real line with a sequence space.

Vectors are pairs (r, x); the quasi-norm is |r - F(x)| + ||x|| for the
functional F the caller supplies.  Everything here is a pure function over
immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .quasilinear import QuasiFunctional
from .seqspace import SeqSpace, vector_from_json


@dataclass(frozen=True)
class TwistedVec:
    """Pair (r, x) with componentwise vector operations."""

    r: object  # real scalar: float or Fraction
    x: object  # FinSeq or MixedSeq

    def __add__(self, other: "TwistedVec") -> "TwistedVec":
        return TwistedVec(self.r + other.r, self.x + other.x)

    def __neg__(self) -> "TwistedVec":
        return TwistedVec(-self.r, -self.x)

    def __sub__(self, other: "TwistedVec") -> "TwistedVec":
        return self + (-other)

    def scale(self, s) -> "TwistedVec":
        return TwistedVec(self.r * s, self.x * s)

    def to_json(self) -> dict:
        r = self.r
        return {"r": float(r), "x": self.x.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "TwistedVec":
        return cls(obj["r"], vector_from_json(obj["x"]))


def quasi_norm(F: QuasiFunctional, w: TwistedVec) -> float:
    """|r - F(x)| + ||x||, both terms from one ``F.value_and_norm``; the norm
    a / d rounds as the float of ``F.space.norm(x)`` does."""
    value, a, d = F.value_and_norm(w.x)
    return abs(float(w.r) - value) + a / d


def quasi_triangle_ratio(F: QuasiFunctional, w1: TwistedVec, w2: TwistedVec) -> float:
    """|||w1 + w2||| / (|||w1||| + |||w2|||); bounded by C + 1 when F has
    additivity constant C."""
    denom = quasi_norm(F, w1) + quasi_norm(F, w2)
    if denom == 0:
        raise ValueError("ratio undefined: both vectors are zero")
    return quasi_norm(F, w1 + w2) / denom


def quotient(w: TwistedVec):
    """Projection onto the sequence part; drops the real coordinate."""
    return w.x


def nearly_convex_ball(eps, space=None):
    """Membership predicate for {(r, x) : ||x|| < eps}; blind to r.

    These sets form the neighborhood base of the nearly convex side of the
    topology split.  The norm is the space's own (exact l1 by default).
    """
    if not isinstance(eps, float):
        eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("radius must be positive")
    space = space or SeqSpace()

    def member(w: TwistedVec) -> bool:
        return space.norm(w.x) < eps

    return member


def ball_radius(level: int) -> Fraction:
    """Radius of the level-th quasi-norm neighborhood: 4^(1-level).

    The ratio 1/4 makes two level-(n+1) balls sum into the level-n ball when
    the additivity constant is normalized to 1 (triangle factor 2), and the
    level-1 ball has radius 1.
    """
    if level < 1:
        raise ValueError("levels start at 1")
    return Fraction(4) ** (1 - level)
