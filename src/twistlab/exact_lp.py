"""Exact linear algebra on integer rows, and a two-phase simplex.

A row of ints stands for itself over its entry in its basis column, kept
positive (the reduced-cost row over an implicit positive factor).  A pivot
forms ``line * pc - f * prow`` on the pivot row's nonzero columns and divides
by the gcd, fraction-free as in Bareiss (Math. Comp. 22, 1968): Bland's rule
sees a ``Fraction`` tableau's values and takes its pivots.  ``solve_lp``
takes the equality form min c.x s.t. A x = b, x >= 0; callers write their
own slack columns.  Its phase 1 only finds a feasible basis: a caller that
knows one (the cross-polytope orthant walk in ``oracles``) builds the
tableau itself, prices it with ``_price`` and runs ``_run_simplex`` on it.
Meant for desk-scale problems, not LP workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: Fraction | None
    x: list[Fraction] | None


def _integer_row(values) -> list[int]:
    """The rationals ``values`` times the lcm of their denominators."""
    fracs = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    scale = lcm(*(v.denominator for v in fracs))
    return [v.numerator * (scale // v.denominator) for v in fracs]


def pivot_rows(rows, r, col) -> None:
    """Make rows[r][col] = pc positive, negating row r if needed, and replace
    every other row with f = line[col] != 0 by ``line * pc - f * rows[r]``
    over its gcd, subtracting on row r's nonzero columns only."""
    prow = rows[r]
    if prow[col] < 0:
        prow = rows[r] = [-v for v in prow]
    nonzero = [j for j, v in enumerate(prow) if v]
    for i, line in enumerate(rows):
        f = line[col]
        if i == r or not f:
            continue
        g = gcd(prow[col], f)
        pc, f = prow[col] // g, f // g
        if pc != 1:
            line = [v * pc for v in line]
        for j in nonzero:
            line[j] -= f * prow[j]
        g = gcd(*line)
        rows[i] = [v // g for v in line] if g > 1 else line


def gauss_jordan(rows, ncols) -> list[int]:
    """Reduce ``rows`` in place on their first ``ncols`` columns, left to
    right, pivoting on the first remaining row with a nonzero entry.  Returns
    the pivot columns; row i < len(pivots) is over its entry in pivots[i],
    which is positive, and the other rows are zero in those columns."""
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is not None:
            rows[r], rows[pr] = rows[pr], rows[r]
            pivot_rows(rows, r, c)
            pivots.append(c)
    return pivots


def _pivot(T, basis, row, col):
    pivot_rows(T, row, col)
    basis[row] = col


def _price(T, basis, costs):
    """Append the reduced-cost row of ``costs``: pivoting again on each basic
    column changes only the new row, as the basic columns are unit columns."""
    T.append(_integer_row(costs + [0]))
    for i, col in enumerate(basis):
        pivot_rows(T, i, col)


def _run_simplex(T, basis, m, n):
    """Iterate on an (m+1) x (n+1) tableau whose last row holds reduced costs
    (minimization, optimal when none are negative).  Bland's rule throughout;
    the ratio test cross-multiplies, as the row denominators cancel."""
    while True:
        cost = T[m]
        col = next((j for j in range(n) if cost[j] < 0), None)
        if col is None:
            return "optimal"
        row = None
        for i in range(m):
            a = T[i][col]
            if a > 0:
                d = 1 if row is None else T[row][n] * a - T[i][n] * T[row][col]
                if d > 0 or (d == 0 and basis[i] < basis[row]):
                    row = i
        if row is None:
            return "unbounded"
        _pivot(T, basis, row, col)


def solve_lp(c, A, b) -> LPResult:
    """Minimize c.x subject to A x = b, x >= 0 (all entries rational)."""
    m = len(A)
    n = len(c)
    if len(b) != m or any(len(line) != n for line in A):
        raise ValueError("A must have one row per entry of b and one column per entry of c")
    c = [Fraction(v) for v in c]

    # Phase 1: artificial basis, cost = sum of artificials.
    T = []
    for i in range(m):
        *line, scale, bi = _integer_row([*A[i], 1, b[i]])
        sign = -1 if bi < 0 else 1
        T.append([sign * v for v in line] + [scale * (j == i) for j in range(m)] + [sign * bi])
    basis = [n + i for i in range(m)]
    _price(T, basis, [0] * n + [1] * m)
    _run_simplex(T, basis, m, n + m)
    if T[m][n + m] != 0:
        return LPResult("infeasible", None, None)

    # Drive any lingering artificials out of the basis; drop redundant rows.
    keep = []
    for i in range(m):
        if basis[i] >= n:
            piv = next((j for j in range(n) if T[i][j] != 0), None)
            if piv is None:
                continue  # redundant constraint
            _pivot(T, basis, i, piv)
        keep.append(i)
    T = [T[i][:n] + [T[i][n + m]] for i in keep]
    basis = [basis[i] for i in keep]
    m = len(T)

    # Phase 2: true costs, reduced against the current basis.
    _price(T, basis, c)
    if _run_simplex(T, basis, m, n) == "unbounded":
        return LPResult("unbounded", None, None)
    x = [Fraction(0)] * n
    for i, col in enumerate(basis):
        x[col] = Fraction(T[i][n], T[i][col])
    return LPResult("optimal", sum((c[j] * x[j] for j in basis), Fraction(0)), x)
