"""Two-phase simplex over exact rationals.

Dense Fraction tableaus with Bland's anti-cycling rule.  The one entry
point, ``solve_lp``, takes the standard equality form min c.x s.t. A x = b,
x >= 0; a caller with inequalities writes its own slack columns.  Meant for
the desk-scale certification problems in this package (tens of variables
and constraints), not for serious LP workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: Fraction | None
    x: list[Fraction] | None


def _pivot(T, basis, row, col):
    piv = T[row][col]
    inv = 1 / piv
    T[row] = [v * inv for v in T[row]]
    prow = T[row]
    for i, line in enumerate(T):
        if i == row:
            continue
        f = line[col]
        if f:
            T[i] = [a - f * b for a, b in zip(line, prow)]
    basis[row] = col


def _run_simplex(T, basis, m, n):
    """Iterate on an (m+1) x (n+1) tableau whose last row holds reduced costs
    (minimization, optimal when none are negative).  Bland's rule throughout."""
    while True:
        col = None
        cost = T[m]
        for j in range(n):
            if cost[j] < 0:
                col = j
                break
        if col is None:
            return "optimal"
        row = None
        best = None
        for i in range(m):
            a = T[i][col]
            if a > 0:
                ratio = T[i][n] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[row]):
                    best = ratio
                    row = i
        if row is None:
            return "unbounded"
        _pivot(T, basis, row, col)


def solve_lp(c, A, b) -> LPResult:
    """Minimize c.x subject to A x = b, x >= 0 (all entries rational)."""
    m = len(A)
    n = len(c)
    c = [Fraction(v) for v in c]
    rows = []
    rhs = []
    for i in range(m):
        line = [Fraction(v) for v in A[i]]
        bi = Fraction(b[i])
        if bi < 0:
            line = [-v for v in line]
            bi = -bi
        rows.append(line)
        rhs.append(bi)

    # Phase 1: artificial basis, cost = sum of artificials.
    T = []
    for i in range(m):
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        T.append(rows[i] + art + [rhs[i]])
    zrow = [Fraction(0)] * (n + m + 1)
    for i in range(m):
        for j in range(n):
            zrow[j] -= T[i][j]
        zrow[n + m] -= T[i][n + m]
    T.append(zrow)
    basis = [n + i for i in range(m)]
    _run_simplex(T, basis, m, n + m)
    if -T[m][n + m] != 0:
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
    T = [[T[i][j] for j in range(n)] + [T[i][n + m]] for i in keep]
    basis = [basis[i] for i in keep]
    m = len(T)

    # Phase 2: true costs, reduced against the current basis.
    zrow = list(c) + [Fraction(0)]
    for i in range(m):
        cb = c[basis[i]]
        if cb:
            zrow = [a - cb * v for a, v in zip(zrow, T[i])]
    T.append(zrow)
    status = _run_simplex(T, basis, m, n)
    if status == "unbounded":
        return LPResult("unbounded", None, None)
    x = [Fraction(0)] * n
    for i in range(m):
        x[basis[i]] = T[i][n]
    obj = sum((ci * xi for ci, xi in zip(c, x)), Fraction(0))
    return LPResult("optimal", obj, x)

