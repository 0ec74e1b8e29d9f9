import random
from fractions import Fraction

import pytest

from twistlab.exact_lp import solve_lp

scipy_linprog = pytest.importorskip("scipy.optimize").linprog


def test_simple_equality():
    # min x + y  s.t.  x + 2y = 4
    res = solve_lp([1, 1], [[1, 2]], [4])
    assert res.status == "optimal"
    assert res.objective == 2
    assert res.x == [Fraction(0), Fraction(2)]


def test_infeasible():
    # x = -1 with x >= 0 is infeasible
    res = solve_lp([1], [[1]], [-1])
    assert res.status == "infeasible"


def test_unbounded():
    # min -x s.t. x - y = 0: both can grow
    res = solve_lp([-1, 0], [[1, -1]], [0])
    assert res.status == "unbounded"


def test_redundant_rows():
    res = solve_lp([1, 1], [[1, 1], [2, 2]], [3, 6])
    assert res.status == "optimal"
    assert res.objective == 3


def with_slacks(c, A):
    """The equality form of A x <= b: one identity slack column per row."""
    m = len(A)
    return list(c) + [0] * m, [list(row) + [int(i == r) for i in range(m)] for r, row in enumerate(A)]


def test_degenerate_does_not_cycle():
    # classic degenerate vertex: multiple constraints meet at the optimum
    c, A = with_slacks(
        [-Fraction(3, 4), 150, -Fraction(1, 50), 6],
        [
            [Fraction(1, 4), -60, -Fraction(1, 25), 9],
            [Fraction(1, 2), -90, -Fraction(1, 50), 3],
            [0, 0, 1, 0],
        ],
    )
    res = solve_lp(c, A, [0, 0, 1])
    assert res.status == "optimal"
    assert res.objective == Fraction(-1, 20)


def test_matches_scipy_on_random_instances():
    rng = random.Random(42)
    for trial in range(25):
        n, m = rng.randint(2, 5), rng.randint(1, 3)
        c = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
        A = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
        b = [Fraction(rng.randint(0, 8)) for _ in range(m)]
        mine = solve_lp(*with_slacks(c, A), b)
        ref = scipy_linprog(
            [float(v) for v in c],
            A_ub=[[float(v) for v in row] for row in A],
            b_ub=[float(v) for v in b],
            bounds=[(0, None)] * n,
            method="highs",
        )
        if mine.status == "optimal":
            assert ref.status == 0
            assert float(mine.objective) == pytest.approx(ref.fun, abs=1e-9)
        elif mine.status == "unbounded":
            assert ref.status == 3
        else:
            assert ref.status == 2
