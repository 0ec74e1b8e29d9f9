"""Finitely supported sequence vectors with exact rational coefficients.

One sparse vector core serves both spaces of the construction.  ``FinSeq``
maps positive positions to nonzero rationals; under the ambient l1 norm it
is a vector of sparse l1.  ``MixedSeq`` is a ``FinSeq`` whose positions are
read in the block layout of ``block_position`` (block n holds the n
positions after n(n-1)/2): a vector of the l_p sum of the l1^n blocks,
normed by ``norm_mixed``.  Its JSON shape stays dense per block,
``{"n": [n coordinates]}``, but only the stored entries are formatted or
parsed: the rest of a row is the literal ``"0/1"``.  Coefficient arithmetic
is exact; the only floating-point quantities anywhere in this module are
p-th roots and the square roots inside the James norm.

A vector stores integer numerators over one positive denominator: the
kernels run on ints, the reads hand out ``Fraction``s.  Reduction is lazy (a
sum keeps the lcm of its operands' denominators, a scalar product reduces
once, equality and hashing reduce first), since reducing every sum makes a
level's running sums over thousands of generators quadratic.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction

RationalLike = int | str | Fraction

_ASCII_RATIO = re.compile(r"-?[0-9]+/[0-9]+").fullmatch


def as_fraction(value) -> Fraction:
    """Coerce to Fraction, rejecting floats (exactness guard)."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("coefficients must be exact rationals, got float %r" % value)
    return Fraction(value)


def frac_str(v: Fraction) -> str:
    """A rational's JSON form, "num/den" (an integer keeps its "/1")."""
    return "%d/%d" % (v.numerator, v.denominator)


def ratio_str(n: int, den: int) -> str:
    """``frac_str(Fraction(n, den))`` for den > 0, without the Fraction."""
    g = math.gcd(n, den)
    return "%d/%d" % (n // g, den // g)


class FinSeq:
    """Sparse rational sequence: nonzero int numerators ``nums`` by position
    over one positive, not always least, denominator ``den``; both read-only."""

    __slots__ = ("nums", "den")

    def __init__(self, entries: Mapping[int, RationalLike] | Iterable[tuple[int, RationalLike]] | None = None):
        data: dict[int, tuple[int, int]] = {}  # least (numerator, denominator) by position
        if entries:
            items = entries.items() if isinstance(entries, Mapping) else entries
            for idx, val in items:
                idx = int(idx)
                if idx < 1:
                    raise ValueError("indices are positive integers, got %d" % idx)
                if type(val) is str and _ASCII_RATIO(val):  # the JSON form, parsed without Fraction
                    n, d = map(int, val.split("/"))
                    if not d:
                        raise ZeroDivisionError("Fraction(%d, 0)" % n)
                else:
                    n, d = as_fraction(val).as_integer_ratio()
                if idx in data:
                    m, e = data[idx]
                    n, d = n * e + m * d, d * e
                    if not n:
                        del data[idx]
                if n:
                    g = math.gcd(n, d)
                    data[idx] = (n // g, d // g)
        self.den = den = math.lcm(*(d for _, d in data.values()))
        self.nums = {i: n * (den // d) for i, (n, d) in data.items()}

    @classmethod
    def unit(cls, index: int) -> "FinSeq":
        return cls({index: 1})

    @classmethod
    def _raw(cls, nums: dict[int, int], den: int) -> "FinSeq":
        out = object.__new__(cls)
        out.nums, out.den = nums, den
        return out

    @classmethod
    def combination(cls, pairs: Iterable[tuple["FinSeq", int]], den: int = 1) -> "FinSeq":
        """sum n v / den over (v, n) pairs, n an int: one integer combination
        over den times the lcm of the vectors' denominators, reduced once."""
        pairs = list(pairs)
        lcm = math.lcm(*(v.den for v, _ in pairs))
        acc: dict[int, int] = {}
        get = acc.get
        for v, n in pairs:
            f = n * (lcm // v.den)
            for i, a in v.nums.items():
                acc[i] = get(i, 0) + f * a
        return cls._raw({i: a for i, a in acc.items() if a}, lcm * den)._reduced()

    def _reduced(self) -> "FinSeq":
        """Divide out the common factor of ``den`` and the numerators, in place."""
        g = math.gcd(self.den, *self.nums.values())
        if g != 1:
            self.nums, self.den = {i: n // g for i, n in self.nums.items()}, self.den // g
        return self

    def items(self) -> list[tuple[int, Fraction]]:
        return [(i, Fraction(n, self.den)) for i, n in self.nums.items()]

    def __getitem__(self, index: int) -> Fraction:
        return Fraction(self.nums.get(index, 0), self.den)

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __len__(self) -> int:
        return len(self.nums)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.nums))

    def max_support(self) -> int:
        """Largest support index, 0 for the zero vector."""
        return max(self.nums) if self.nums else 0

    def is_right_of(self, n: int) -> bool:
        """True iff every support index exceeds n (vacuously true for 0)."""
        return all(i > n for i in self.nums)

    def coord_sum(self) -> Fraction:
        return Fraction(sum(self.nums.values()), self.den)

    def norm(self) -> Fraction:
        """Exact l1 norm: sum of absolute coefficients."""
        return Fraction(sum(map(abs, self.nums.values())), self.den)

    def __add__(self, other: "FinSeq") -> "FinSeq":
        den = math.lcm(self.den, other.den)
        mine, theirs = den // self.den, den // other.den
        data = dict(self.nums) if mine == 1 else {i: n * mine for i, n in self.nums.items()}
        for i, v in other.nums.items():
            v *= theirs
            if i in data:
                acc = data[i] + v
                if acc:
                    data[i] = acc
                else:
                    del data[i]
            else:
                data[i] = v
        return self._raw(data, den)

    def __neg__(self) -> "FinSeq":
        return self._raw({i: -n for i, n in self.nums.items()}, self.den)

    def __sub__(self, other: "FinSeq") -> "FinSeq":
        return self + (-other)

    def __mul__(self, scalar) -> "FinSeq":
        p, q = (scalar, 1) if type(scalar) is int else as_fraction(scalar).as_integer_ratio()
        if not p:
            return self._raw({}, 1)
        return self._raw({i: n * p for i, n in self.nums.items()}, self.den * q)._reduced()

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "FinSeq":
        return self * (1 / as_fraction(scalar))

    def __eq__(self, other) -> bool:
        """Same entries and same vector type: a MixedSeq never equals a FinSeq."""
        return type(other) is type(self) and self._reduced().den == other._reduced().den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self._reduced().den, frozenset(self.nums.items())))

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, self.to_json())

    def to_json(self) -> dict[str, str]:
        return {str(i): ratio_str(n, self.den) for i, n in sorted(self.nums.items())}


def in_hyperplane_H(x: FinSeq) -> bool:
    """True iff the coordinate sum vanishes exactly."""
    return x.coord_sum() == 0


def disjoint_supports(*vectors: FinSeq) -> bool:
    """True iff no position is in the support of two of the vectors (a pair
    or a whole family); one pass over all stored entries."""
    seen: set[int] = set()
    for v in vectors:
        if not seen.isdisjoint(v.nums):
            return False
        seen.update(v.nums)
    return True


JAMES_SUPPORT_CAP = 16  # bounds the input of ``eval james-norm``; the work grows as its square


def james_norm(x: FinSeq) -> float:
    """Sup over increasing index tuples drawn from the support plus one index
    past it, of the root of the summed squared successive differences.  A
    tuple is a path over the support's values v_j and the trailing 0, so the
    best sum of one ending at j is ends[j] = max over i < j of ends[i] +
    (v_i - v_j)^2, a longest-path recurrence run in exact arithmetic; the
    norm is the root of the largest."""
    supp = x.support
    if not supp:
        return 0.0
    if len(supp) > JAMES_SUPPORT_CAP:
        raise ValueError("james_norm takes a support of at most %d entries" % JAMES_SUPPORT_CAP)
    vals = [x[i] for i in supp] + [0]
    ends = []
    for v in vals:
        ends.append(max((e + (u - v) ** 2 for u, e in zip(vals, ends)), default=0))
    return math.sqrt(max(ends))


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


def block_entries(x: FinSeq) -> dict[int, dict[int, int]]:
    """The numerators of any FinSeq grouped by block in the block layout,
    {n: {i: numerator of coordinate i of block n}} over ``x.den``, nonzero
    entries only.  A block is decoded (``block_of``, inline) once per run of
    its positions in iteration order, not once per entry."""
    out: dict[int, dict[int, int]] = {}
    lo = hi = 0
    for p, v in x.nums.items():
        if p > hi or p <= lo:
            n = (math.isqrt(8 * p - 7) + 1) // 2
            lo = n * (n - 1) // 2
            hi = lo + n
            blk = out.setdefault(n, {})
        blk[p - lo] = v
    return out


def block_l1(nums: Mapping[int, int]) -> dict[int, int]:
    """{n: sum of |numerator| over the positions of block n} for numerators
    by position, in one pass that decodes a block as ``block_entries`` does;
    a block whose numerators are all zero maps to 0."""
    out: dict[int, int] = {}
    get = out.get
    lo = hi = n = 0
    for p, v in nums.items():
        if p > hi or p <= lo:
            n = (math.isqrt(8 * p - 7) + 1) // 2
            lo = n * (n - 1) // 2
            hi = lo + n
        out[n] = get(n, 0) + abs(v)
    return out


class MixedSeq(FinSeq):
    """Block vector: block n is a rational vector of length n, stored
    sparsely at the global positions of ``block_position``.

    Arithmetic, the coordinate-l1 gauge ``norm()``, supports and equality
    are FinSeq's; this class adds the block constructor and the dense
    per-block JSON shape, which it reads and writes through the stored
    entries only.
    """

    __slots__ = ()

    # bound in the class body rather than inherited: perfbench's tracer
    # wraps the operators found in each class's own __dict__, which keeps
    # separate counts for block vectors
    __add__ = FinSeq.__add__
    __mul__ = __rmul__ = FinSeq.__mul__

    def __init__(self, blocks: Mapping[int, Sequence[RationalLike]] | None = None):
        data: dict[int, RationalLike] = {}
        for n, row in (blocks or {}).items():
            n = int(n)
            if n < 1:
                raise ValueError("block indices are positive")
            if isinstance(row, str) or len(row) != n:
                raise ValueError("block %d must be a list of exactly %d coordinates" % (n, n))
            # the JSON zero is skipped unparsed, and the type test keeps Fraction
            # rows off Fraction.__eq__; FinSeq drops every other zero
            data.update((p, v) for p, v in enumerate(row, n * (n - 1) // 2 + 1) if type(v) is not str or v != "0/1")
        super().__init__(data)

    @classmethod
    def unit(cls, n: int, i: int) -> "MixedSeq":
        return cls._raw({block_position(n, i): 1}, 1)

    def to_json(self) -> dict[str, list[str]]:
        den, out = self.den, {}
        for n, blk in sorted(block_entries(self).items()):
            row = out[str(n)] = ["0/1"] * n
            for i, num in blk.items():
                row[i - 1] = ratio_str(num, den)
        return out


def norm_mixed(x: FinSeq, p) -> float:
    """(sum_n ||x_n||_1^p)^(1/p) over the blocks of x; exact when a single
    block is nonzero."""
    p = as_fraction(p)
    if p <= 1:
        raise ValueError("norm_mixed requires p > 1")
    return lp_of_blocks(list(block_l1(x.nums).values()), x.den, p)


def lp_of_blocks(norms: list[int], den: int, p) -> float:
    """``norm_mixed`` from the l1 numerators over ``den`` of the nonzero
    blocks; p (or its float) is converted only for two blocks or more."""
    if not norms:
        return 0.0
    if len(norms) == 1:
        return norms[0] / den
    pf = float(p)
    return math.fsum((a / den) ** pf for a in norms) ** (1.0 / pf)


def vector_from_json(obj, space=None):
    """The one reader of vector JSON, which must be an object (null, a number
    or a list of pairs is no vector): read in ``space`` when it is known, else
    by value shape (strings vs lists), ``{}`` being the zero FinSeq."""
    if not isinstance(obj, dict):
        raise TypeError("a vector is a JSON object, got %s" % type(obj).__name__)
    if space is not None:
        return space.vector(obj)
    if not obj:
        return FinSeq()
    return FinSeq(obj) if isinstance(next(iter(obj.values())), str) else MixedSeq(obj)


# --- space adapters: the handful of norms/positions the level construction
#     needs, shared between the two spaces ---------------------------------


class SeqSpace:
    """The finitely supported l1 vectors under the exact l1 norm."""

    vector = FinSeq

    def norm(self, x: FinSeq) -> Fraction:
        return x.norm()

    def norm_of(self, nums: Mapping[int, int], den: int) -> tuple[int, int]:
        """The l1 norm of numerators by position over den (zeros allowed),
        as the ratio pair (numerator, den)."""
        return sum(map(abs, nums.values())), den

    def zero(self) -> FinSeq:
        return FinSeq()

    def to_json(self):
        return {"kind": "seq"}


class MixedSpace:
    """Span of the block unit vectors in the l_p sum of l1 blocks."""

    vector = MixedSeq

    def __init__(self, p):
        p = as_fraction(p)
        if p <= 1:
            raise ValueError("p must exceed 1")
        self.p = p

    def norm(self, x: FinSeq) -> float:
        return norm_mixed(x, self.p)

    def norm_of(self, nums: Mapping[int, int], den: int) -> tuple[float, int]:
        """``norm`` of numerators by position over den, as (float, 1); zeros
        are allowed, and a block whose numerators are all 0 is absent."""
        return lp_of_blocks([a for a in block_l1(nums).values() if a], den, self.p), 1

    def zero(self) -> MixedSeq:
        return MixedSeq()

    def to_json(self):
        return {"kind": "mixed", "p": frac_str(self.p)}


def space_from_json(obj):
    """The space a ``to_json`` names; an unknown kind is refused, not read as mixed."""
    if obj["kind"] == "seq":
        return SeqSpace()
    if obj["kind"] == "mixed":
        return MixedSpace(Fraction(obj["p"]))
    raise ValueError("unknown space kind %r" % (obj["kind"],))
