"""Finitely supported sequence vectors with exact rational coefficients.

One sparse vector core serves both spaces of the construction.  ``FinSeq``
maps positive positions to nonzero rationals; under the ambient l1 norm it
is a vector of sparse l1.  ``MixedSeq`` is a ``FinSeq`` whose positions are
read in the block layout of ``block_position`` (block n holds the n
positions after n(n-1)/2): a vector of the l_p sum of the l1^n blocks,
normed by ``norm_mixed``.  Its JSON shape stays dense per block,
``{"n": [n coordinates]}``.  Coefficient arithmetic is exact; the only
floating-point quantities anywhere in this module are p-th roots and the
square roots inside the James norm.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Union

RationalLike = Union[int, str, Fraction]


def as_fraction(value) -> Fraction:
    """Coerce to Fraction, rejecting floats (exactness guard)."""
    if isinstance(value, float):
        raise TypeError("coefficients must be exact rationals, got float %r" % value)
    return Fraction(value)


class FinSeq:
    """Sparse rational sequence; zero coefficients are never stored."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[int, RationalLike] | Iterable[tuple[int, RationalLike]] | None = None):
        data: dict[int, Fraction] = {}
        if entries:
            items = entries.items() if isinstance(entries, Mapping) else entries
            for idx, val in items:
                idx = int(idx)
                if idx < 1:
                    raise ValueError("indices are positive integers, got %d" % idx)
                val = as_fraction(val)
                if not val:
                    continue
                if idx in data:
                    val += data[idx]
                    if not val:
                        del data[idx]
                        continue
                data[idx] = val
        self._entries = data

    @classmethod
    def unit(cls, index: int) -> "FinSeq":
        return cls({index: 1})

    @classmethod
    def _raw(cls, data: dict[int, Fraction]) -> "FinSeq":
        out = object.__new__(cls)
        out._entries = data
        return out

    def items(self):
        return self._entries.items()

    def __getitem__(self, index: int) -> Fraction:
        return self._entries.get(index, Fraction(0))

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._entries))

    def max_support(self) -> int:
        """Largest support index, 0 for the zero vector."""
        return max(self._entries) if self._entries else 0

    def is_right_of(self, n: int) -> bool:
        """True iff every support index exceeds n (vacuously true for 0)."""
        return all(i > n for i in self._entries)

    def coord_sum(self) -> Fraction:
        return sum(self._entries.values(), Fraction(0))

    def norm(self) -> Fraction:
        """Exact l1 norm: sum of absolute coefficients."""
        return sum((abs(v) for v in self._entries.values()), Fraction(0))

    def __add__(self, other: "FinSeq") -> "FinSeq":
        data = dict(self._entries)
        for i, v in other._entries.items():
            if i in data:
                acc = data[i] + v
                if acc:
                    data[i] = acc
                else:
                    del data[i]
            else:
                data[i] = v
        return self._raw(data)

    def __neg__(self) -> "FinSeq":
        return self._raw({i: -v for i, v in self._entries.items()})

    def __sub__(self, other: "FinSeq") -> "FinSeq":
        return self + (-other)

    def __mul__(self, scalar) -> "FinSeq":
        s = as_fraction(scalar)
        if not s:
            return self._raw({})
        return self._raw({i: v * s for i, v in self._entries.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "FinSeq":
        return self * (1 / as_fraction(scalar))

    def __eq__(self, other) -> bool:
        """Same entries and same vector type: a MixedSeq never equals a FinSeq."""
        return type(other) is type(self) and self._entries == other._entries

    def __hash__(self) -> int:
        return hash(frozenset(self._entries.items()))

    def __repr__(self) -> str:
        inner = ", ".join("%d: %s" % (i, v) for i, v in sorted(self._entries.items()))
        return "FinSeq({%s})" % inner

    def to_json(self) -> dict[str, str]:
        return {str(i): "%d/%d" % (v.numerator, v.denominator) for i, v in sorted(self._entries.items())}

    @classmethod
    def from_json(cls, obj: Mapping[str, str]) -> "FinSeq":
        return cls({int(i): Fraction(v) for i, v in obj.items()})


def in_hyperplane_H(x: FinSeq) -> bool:
    """True iff the coordinate sum vanishes exactly."""
    return x.coord_sum() == 0


def disjoint_supports(x: FinSeq, y: FinSeq) -> bool:
    a, b = x._entries, y._entries
    if len(b) < len(a):
        a, b = b, a
    return not any(i in b for i in a)


JAMES_SUPPORT_CAP = 16


def james_norm(x: FinSeq) -> float:
    """Sup over increasing index tuples drawn from the support plus one index
    past it, of the root of the summed squared successive differences.

    Exhaustive over subsets of the candidate set; capped at support size
    JAMES_SUPPORT_CAP to keep the enumeration at desk scale.
    """
    supp = x.support
    if not supp:
        return 0.0
    if len(supp) > JAMES_SUPPORT_CAP:
        raise ValueError("james_norm enumerates exhaustively; support is capped at %d" % JAMES_SUPPORT_CAP)
    candidates = list(supp) + [supp[-1] + 1]
    vals = [x[i] for i in candidates]
    best = Fraction(0)
    n = len(candidates)
    for size in range(2, n + 1):
        for tup in combinations(range(n), size):
            acc = Fraction(0)
            for a, b in zip(tup, tup[1:]):
                d = vals[a] - vals[b]
                acc += d * d
            if acc > best:
                best = acc
    return math.sqrt(best)


# --- block vectors for the l_p(l1^n) space ---------------------------------


def block_position(n: int, i: int) -> int:
    """Global 1-based coordinate position of entry i of block n (blocks are
    laid out consecutively, block n holding n coordinates)."""
    if not 1 <= i <= n:
        raise ValueError("block %d has coordinates 1..%d" % (n, n))
    return n * (n - 1) // 2 + i


def block_of(position: int) -> tuple[int, int]:
    """Inverse of ``block_position``: the (block, coordinate) pair holding a
    global position, n being the largest block with n(n-1)/2 < position."""
    n = (math.isqrt(8 * position - 7) + 1) // 2
    return n, position - n * (n - 1) // 2


def block_entries(x: FinSeq) -> dict[int, dict[int, Fraction]]:
    """The entries of any FinSeq grouped by block in the block layout,
    {n: {i: coordinate i of block n}}, nonzero entries only.  A block is
    decoded once per run of its positions in iteration order, not once per
    entry."""
    out: dict[int, dict[int, Fraction]] = {}
    lo = hi = 0
    for p, v in x.items():
        if p > hi or p <= lo:
            n = block_of(p)[0]
            lo = n * (n - 1) // 2
            hi = lo + n
            blk = out.setdefault(n, {})
        blk[p - lo] = v
    return out


class MixedSeq(FinSeq):
    """Block vector: block n is a rational vector of length n, stored
    sparsely at the global positions of ``block_position``.

    Arithmetic, the coordinate-l1 gauge ``norm()``, supports and equality
    are FinSeq's; this class adds the block constructor, the block view and
    the dense per-block JSON shape.
    """

    __slots__ = ()

    # bound in the class body rather than inherited: perfbench's tracer
    # wraps the operators found in each class's own __dict__, which keeps
    # separate counts for block vectors
    __add__ = FinSeq.__add__
    __mul__ = __rmul__ = FinSeq.__mul__

    def __init__(self, blocks: Mapping[int, Iterable[RationalLike]] | None = None):
        data: dict[int, Fraction] = {}
        for n, vec in (blocks or {}).items():
            n, vec = int(n), [as_fraction(v) for v in vec]
            if n < 1:
                raise ValueError("block indices are positive")
            if len(vec) != n:
                raise ValueError("block %d must have exactly %d coordinates" % (n, n))
            data.update((p, v) for p, v in enumerate(vec, n * (n - 1) // 2 + 1) if v)
        self._entries = data

    @classmethod
    def unit(cls, n: int, i: int) -> "MixedSeq":
        return cls._raw({block_position(n, i): Fraction(1)})

    @property
    def blocks(self) -> dict[int, tuple[Fraction, ...]]:
        """The nonzero blocks as dense tuples in block order, built on each access."""
        zero = Fraction(0)
        return {n: tuple(blk.get(i, zero) for i in range(1, n + 1)) for n, blk in sorted(block_entries(self).items())}

    def block(self, n: int) -> tuple[Fraction, ...]:
        base = n * (n - 1) // 2
        return tuple(self[base + i] for i in range(1, n + 1))

    def __repr__(self) -> str:
        inner = ", ".join("%d: (%s)" % (n, ", ".join(map(str, vec))) for n, vec in self.blocks.items())
        return "MixedSeq({%s})" % inner

    def to_json(self) -> dict[str, list[str]]:
        return {str(n): ["%d/%d" % (v.numerator, v.denominator) for v in vec] for n, vec in self.blocks.items()}

    @classmethod
    def from_json(cls, obj: Mapping[str, Iterable[str]]) -> "MixedSeq":
        return cls({int(n): [Fraction(v) for v in vec] for n, vec in obj.items()})


def norm_mixed(x: FinSeq, p) -> float:
    """(sum_n ||x_n||_1^p)^(1/p) over the blocks of x; exact when a single
    block is nonzero."""
    p = as_fraction(p)
    if p <= 1:
        raise ValueError("norm_mixed requires p > 1")
    norms = [sum(map(abs, blk.values()), Fraction(0)) for blk in block_entries(x).values()]
    if not norms:
        return 0.0
    if len(norms) == 1:
        return float(norms[0])
    pf = float(p)
    return math.fsum(float(a) ** pf for a in norms) ** (1.0 / pf)


def vector_from_json(obj):
    """Dispatch FinSeq vs MixedSeq JSON by value shape (strings vs lists).
    The empty object is the zero FinSeq, which adds to vectors of either
    type; a caller that knows the space loads through ``space.vector``."""
    if not obj:
        return FinSeq()
    sample = next(iter(obj.values()))
    if isinstance(sample, str):
        return FinSeq.from_json(obj)
    return MixedSeq.from_json(obj)


# --- space adapters: the handful of norms/positions the level construction
#     needs, shared between the two spaces ---------------------------------


class SeqSpace:
    """The finitely supported l1 vectors under the exact l1 norm."""

    kind = "seq"
    vector = FinSeq

    def norm(self, x: FinSeq) -> Fraction:
        return x.norm()

    def zero(self) -> FinSeq:
        return FinSeq()

    def unit_source(self, j: int) -> FinSeq:
        return FinSeq.unit(j)

    def to_json(self):
        return {"kind": "seq"}


class MixedSpace:
    """Span of the block unit vectors in the l_p sum of l1 blocks."""

    kind = "mixed"
    vector = MixedSeq

    def __init__(self, p):
        p = as_fraction(p)
        if p <= 1:
            raise ValueError("p must exceed 1")
        self.p = p

    def norm(self, x: FinSeq) -> float:
        return norm_mixed(x, self.p)

    def zero(self) -> MixedSeq:
        return MixedSeq()

    def unit_source(self, j: int) -> MixedSeq:
        # the j-th basis vector in block layout order sits at position j
        return MixedSeq.unit(*block_of(j))

    def to_json(self):
        return {"kind": "mixed", "p": "%d/%d" % (self.p.numerator, self.p.denominator)}


def space_from_json(obj):
    if obj["kind"] == "seq":
        return SeqSpace()
    return MixedSpace(Fraction(obj["p"]))
