import random
from fractions import Fraction

import pytest

from twistlab import exact_lp, oracles
from twistlab.exact_lp import LPResult, solve_lp
from twistlab.seqspace import FinSeq


def _reference_pivot(T, basis, row, col):
    inv = 1 / T[row][col]
    T[row] = [v * inv for v in T[row]]
    prow = T[row]
    for i, line in enumerate(T):
        if i == row:
            continue
        f = line[col]
        if f:
            T[i] = [a - f * b for a, b in zip(line, prow)]
    basis[row] = col


def _reference_simplex(T, basis, m, n):
    while True:
        col = next((j for j in range(n) if T[m][j] < 0), None)
        if col is None:
            return "optimal"
        row = best = None
        for i in range(m):
            a = T[i][col]
            if a > 0:
                ratio = T[i][n] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[row]):
                    best, row = ratio, i
        if row is None:
            return "unbounded"
        _reference_pivot(T, basis, row, col)


def reference_solve_lp(c, A, b) -> LPResult:
    """The dense Fraction two-phase simplex with Bland's rule that the integer
    tableau replaced: the same pivots must give the same result."""
    m, n = len(A), len(c)
    c = [Fraction(v) for v in c]
    T = []
    for i in range(m):
        line, bi = [Fraction(v) for v in A[i]], Fraction(b[i])
        if bi < 0:
            line, bi = [-v for v in line], -bi
        T.append(line + [Fraction(int(j == i)) for j in range(m)] + [bi])
    zrow = [Fraction(0)] * (n + m + 1)
    for line in T:
        for j in list(range(n)) + [n + m]:
            zrow[j] -= line[j]
    T.append(zrow)
    basis = [n + i for i in range(m)]
    _reference_simplex(T, basis, m, n + m)
    if T[m][n + m] != 0:
        return LPResult("infeasible", None, None)
    keep = []
    for i in range(m):
        if basis[i] >= n:
            piv = next((j for j in range(n) if T[i][j] != 0), None)
            if piv is None:
                continue
            _reference_pivot(T, basis, i, piv)
        keep.append(i)
    T = [T[i][:n] + [T[i][n + m]] for i in keep]
    basis = [basis[i] for i in keep]
    m = len(T)
    zrow = c + [Fraction(0)]
    for i in range(m):
        zrow = [a - c[basis[i]] * v for a, v in zip(zrow, T[i])]
    T.append(zrow)
    if _reference_simplex(T, basis, m, n) == "unbounded":
        return LPResult("unbounded", None, None)
    x = [Fraction(0)] * n
    for i in range(m):
        x[basis[i]] = T[i][n]
    return LPResult("optimal", sum((ci * xi for ci, xi in zip(c, x)), Fraction(0)), x)


def outcome(res):
    return res.status, res.objective, res.x


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
    scipy_linprog = pytest.importorskip("scipy.optimize").linprog
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


@pytest.mark.parametrize(
    "A, b",
    [
        ([[1, 2]], [4, 5]),  # one b entry too many
        ([[1, 2], [1, 1]], [4]),  # one too few
        ([[1, 2, 7]], [4]),  # a row longer than c
        ([[1]], [4]),  # a row shorter than c
        ([[1, 2], [1]], [4, 1]),  # ragged rows
    ],
)
def test_shape_mismatch_is_refused(A, b):
    with pytest.raises(ValueError):
        solve_lp([1, 1], A, b)


def random_lp(rng):
    """A small LP whose rows are often dependent (with right-hand sides that
    agree or not) and whose b has both signs, so phase 1 ends infeasible or
    with artificials left to drive out, sometimes on a negative entry."""
    n, m = rng.randint(1, 6), rng.randint(1, 5)
    entry = lambda: Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) if rng.random() < 0.7 else 0  # noqa: E731
    A = [[entry() for _ in range(n)] for _ in range(m)]
    b = [Fraction(rng.randint(-5, 8), rng.choice((1, 2))) for _ in range(m)]
    for i in range(1, m):
        if rng.random() < 0.35:
            j = rng.randrange(i)
            f = Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))
            A[i] = [f * v for v in A[j]]
            b[i] = f * b[j] if rng.random() < 0.8 else b[i]
    c = [Fraction(rng.randint(-3, 5), rng.choice((1, 2))) for _ in range(n)]
    return c, A, b


def test_matches_dense_fraction_reference_on_random_lps(monkeypatch):
    negative_pivots = []
    pivot = exact_lp._pivot

    def watch(T, basis, row, col):
        negative_pivots.append(T[row][col] < 0)
        pivot(T, basis, row, col)

    monkeypatch.setattr(exact_lp, "_pivot", watch)
    rng = random.Random(2024)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(1500):
        c, A, b = random_lp(rng)
        res = solve_lp(c, A, b)
        assert outcome(res) == outcome(reference_solve_lp(c, A, b)), (c, A, b)
        statuses[res.status] += 1
    assert min(statuses.values()) >= 150, statuses
    assert any(negative_pivots)


def test_degenerate_ties_match_dense_fraction_reference():
    # inequality LPs with right-hand sides 0 and 1 tie often in the ratio
    # test, where Bland's rule takes the row of least basic column; a few of
    # these LPs end at another vertex if a tie goes to another row
    rng = random.Random(4)
    for _ in range(1500):
        n, m = rng.randint(2, 5), rng.randint(3, 5)
        A = [[rng.randint(-2, 2) if rng.random() < 0.7 else 0 for _ in range(n)] for _ in range(m)]
        c, A = with_slacks([rng.randint(-3, 3) for _ in range(n)], A)
        b = [rng.choice((0, 0, 1, 2)) for _ in range(m)]
        assert outcome(solve_lp(c, A, b)) == outcome(reference_solve_lp(c, A, b)), (c, A, b)


def overlapping_family(rng, k):
    """k sparse dyadic vectors, each with a private coordinate and two of
    three shared ones, so any two overlap and the family is independent."""
    dyadic = lambda: Fraction(rng.choice((-1, 1)) * rng.randint(1, 8), 1 << rng.randint(0, 3))  # noqa: E731
    family = []
    for j in range(1, k + 1):
        entries = {j: dyadic()}
        for c in rng.sample(range(k + 1, k + 4), 2):
            entries[c] = dyadic()
        family.append(FinSeq(entries))
    return family


def test_orthant_lps_match_dense_fraction_reference(monkeypatch):
    compared = []

    def both(c, A, b):
        res = solve_lp(c, A, b)
        assert outcome(res) == outcome(reference_solve_lp(c, A, b))
        compared.append(res.status)
        return res

    monkeypatch.setattr(oracles, "solve_lp", both)
    rng = random.Random(11)
    # fewer large families: the reference takes about 0.4 s on 6 vectors
    sizes = [2] * 50 + [3] * 50 + [4] * 30 + [5] * 14 + [6] * 6
    for k in sizes:
        oracles._orthant_lp_min(overlapping_family(rng, k))
    assert len(compared) == sum(2 ** (k - 1) for k in sizes) and set(compared) == {"optimal"}
