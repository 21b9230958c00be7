import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalprod.combinatorics import (
    CATALAN_RECURRENCE_TOP,
    PASCAL_TOP,
    DyckQuery,
    binomial,
    catalan_general,
    catalan_recurrence_holds,
    enumerate_dyck,
    fibonacci,
    pascal,
)

# first classical Catalan numbers, independent of catalan_general
CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012]


def test_binomial_values():
    assert binomial(5, 2) == 10
    assert binomial(3, -1) == 0
    assert binomial(3, 4) == 0
    assert binomial(0, 0) == 1
    assert binomial(-2, 0) == 0


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40))
def test_binomial_symmetry(m, n):
    if n <= m:
        assert binomial(m, n) == binomial(m, m - n)


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=60))
def test_binomial_pascal_rule(m, n):
    assert binomial(m, n) == binomial(m - 1, n - 1) + binomial(m - 1, n)


def test_catalan_general_values():
    assert catalan_general(0, 0, 0) == 1
    assert catalan_general(3, 3, 0) == 5
    assert catalan_general(2, 2, 1) == binomial(4, 2) - binomial(4, 4)
    assert catalan_general(2, 2, 1) == 5


def test_catalan_general_is_zero_for_negative_total():
    assert catalan_general(-2, 1, 0) == 0  # m + n < 0


def test_catalan_diagonal_is_classical():
    for n in range(13):
        assert catalan_general(n, n, 0) == CATALAN[n]


def test_fibonacci():
    assert fibonacci(3) == 2
    assert fibonacci(7) == 13
    assert fibonacci(2) == 1
    assert fibonacci(1) == 1
    assert fibonacci(40) == 102334155
    with pytest.raises(ValueError):
        fibonacci(0)


def test_enumerate_dyck_smallest():
    walks = enumerate_dyck(DyckQuery(alpha=0, m=1, n=1, p=0))
    assert walks == [(1, -1)]


def test_enumerate_dyck_counts():
    assert len(enumerate_dyck(DyckQuery(0, 3, 3, 0))) == catalan_general(3, 3, 0)
    assert len(enumerate_dyck(DyckQuery(0, 2, 3, 1))) == binomial(5, 2) - binomial(5, 4)
    assert len(enumerate_dyck(DyckQuery(0, 2, 3, 1))) == 5


def test_enumerate_dyck_walk_validity():
    q = DyckQuery(alpha=1, m=2, n=3, p=1)
    for walk in enumerate_dyck(q):
        heights = [q.alpha]
        for step in walk:
            heights.append(heights[-1] + step)
        assert walk.count(1) == q.m and walk.count(-1) == q.n
        assert min(heights) >= -q.p
        assert heights[-1] == q.alpha + q.m - q.n


@settings(max_examples=150)
@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
def test_dyck_census_matches_catalan(m, n, p):
    if m - n >= -p - 1:
        assert len(enumerate_dyck(DyckQuery(0, m, n, p))) == catalan_general(m, n, p)


def test_dyck_query_validation():
    with pytest.raises(ValueError):
        DyckQuery(-1, 0, 0, 0)
    with pytest.raises(ValueError):
        enumerate_dyck(DyckQuery(0, 40, 40, 0))


def test_catalan_recurrence_examples():
    # m=2, n=0, p=2 reduces to the classical sum C_k C_{2-k} = C_3
    assert catalan_recurrence_holds(2, 0, 2)
    # negative p: both sides empty/zero
    assert catalan_recurrence_holds(3, 1, -1)
    assert catalan_recurrence_holds(4, 2, 1)


def test_catalan_recurrence_rejects_unmet_hypotheses():
    with pytest.raises(ValueError):
        catalan_recurrence_holds(1, -1, 0)
    with pytest.raises(ValueError):
        catalan_recurrence_holds(1, 0, 2)
    with pytest.raises(ValueError):
        catalan_recurrence_holds(-4, 0, -8)


@given(st.integers(-8, 8), st.integers(0, 8), st.integers(-8, 8))
def test_catalan_recurrence_on_valid_range(m, n, p):
    if m >= p and m + n + p + 1 >= 0:
        assert catalan_recurrence_holds(m, n, p)


def _catalan_reference(m, n, p):
    """C(m+n, m) - C(m+n, m+p+1) at one triple, in Python ints on binomial."""
    return binomial(m + n, m) - binomial(m + n, m + p + 1)


def _recurrence_reference(m, n, p):
    """The Catalan product recurrence at one triple, in Python ints: the per-triple form."""
    lhs = sum(_catalan_reference(k + n, k, 0) * _catalan_reference(m - k, p - k, 0)
              for k in range((m + p) // 2 + 1))
    return lhs == _catalan_reference(m + n + 1, p, 0)


def test_pascal_matches_binomial_on_and_off_the_table():
    n, k = np.arange(-3, PASCAL_TOP + 1)[:, None], np.arange(-3, PASCAL_TOP + 4)
    table = pascal(n, k)
    assert table.dtype == np.int64
    assert table.tolist() == [[binomial(a, b) for b in k.tolist()] for a in n[:, 0].tolist()]
    assert pascal(PASCAL_TOP, PASCAL_TOP // 2) == binomial(66, 33) < 2 ** 63 <= binomial(67, 33)
    with pytest.raises(OverflowError):
        pascal(np.array([3, PASCAL_TOP + 1]), 1)


def test_catalan_general_broadcasts_and_keeps_int_scalars():
    m, n, p = np.mgrid[-4:12, -4:12, -3:6]
    assert catalan_general(m, n, p).tolist() == np.vectorize(_catalan_reference)(m, n, p).tolist()
    assert type(catalan_general(3, 3, 0)) is int


# verify's grid: |m|, n, |p| <= 8 under the recurrence's hypotheses
VERIFY_GRID = np.array([(m, n, p) for m in range(-8, 9) for n in range(9)
                        for p in range(-8, m + 1) if m + n + p + 1 >= 0]).T
# m + n + p == CATALAN_RECURRENCE_TOP, the largest weight the int64 sums are proved to hold
BOUND_GRID = np.array([(CATALAN_RECURRENCE_TOP - n - p, n, p) for n in range(0, 62, 3)
                       for p in range(-2, 31) if CATALAN_RECURRENCE_TOP - n - p >= p]).T


@pytest.mark.parametrize("grid", [VERIFY_GRID, BOUND_GRID], ids=["verify-grid", "int64-bound"])
def test_broadcast_recurrence_matches_per_triple_check(grid):
    held = catalan_recurrence_holds(*grid)
    assert held.dtype == bool and held.shape == grid[0].shape
    assert held.tolist() == [_recurrence_reference(*t) for t in grid.T.tolist()]
    assert held.all()


def test_recurrence_grid_of_verify_has_1039_triples():
    assert VERIFY_GRID.shape == (3, 1039)


def test_recurrence_refuses_past_its_int64_bound_and_keeps_bool_scalars():
    assert catalan_recurrence_holds(2, 0, 2) is True
    with pytest.raises(OverflowError):
        catalan_recurrence_holds(31, 1, 30)  # m + n + p = 62
    with pytest.raises(ValueError, match=r"unmet for \(1, -1, 0\)"):
        catalan_recurrence_holds(np.array([2, 1]), np.array([0, -1]), np.array([2, 0]))
