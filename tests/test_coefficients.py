import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalprod.coefficients import (
    _identity_table,
    _rank_census,
    anticausal_series,
    causal_series,
    forward_count_brute,
    forward_count_closed,
    reversed_count_brute,
    reversed_count_closed,
    truncated_kernel,
    unitarity_identity_residual,
    unitarity_identity_residuals,
)
from causalprod.combinatorics import catalan_general
from causalprod.config import COEFF_TABLE_CAP, VERIFY_IDENTITY_CAP
from causalprod.lattice import enumerate_linear_extensions, enumerate_paths, essential_order
from series_oracle import (
    corrupted_count,
    forward_count_reference,
    isometry_series_defects,
    reversed_count_reference,
    unitarity_identity_residual_slow,
)

# degree-1..3 series slices, frozen as (m, n, p) -> {q: coefficient}
EXPECTED_CAUSAL = {
    1: {(0, 0, 0): {1: 1}},
    2: {(0, 0, 1): {1: 1}, (1, 0, 0): {1: 1}, (0, 1, 0): {2: 1}},
    3: {(0, 2, 0): {2: 1, 3: 1}, (0, 1, 1): {2: 1}, (1, 1, 0): {2: 1}, (1, 0, 1): {1: 1}},
}
EXPECTED_ANTICAUSAL = {
    1: {(0, 0, 0): {0: 1}},
    2: {},
    3: {(1, 0, 1): {1: 1}},
}


def test_closed_form_examples():
    assert forward_count_closed(0, 0, 0, 1) == 1
    assert forward_count_closed(0, 1, 0, 2) == 1
    assert forward_count_closed(1, 0, 1, 1) == 1  # 2q == m+n+p branch
    assert forward_count_closed(0, 0, 0, 0) == 0
    assert reversed_count_closed(1, 0, 1, 1) == 1
    assert reversed_count_closed(0, 0, 0, 0) == 1
    assert reversed_count_closed(1, 1, 1, 1) == 0


def _reference_table(count, index):
    """count at each column of the (4, K) index, one Python call per index."""
    return [count(*idx) for idx in index.T.tolist()]


# every index the identity pass reads at verify's cap: weight <= 20, q in [-21, 22]
CAP_WINDOW = np.array([(m, n, p, q) for m in range(21) for n in range(21 - m)
                       for p in range(21 - m - n) for q in range(-21, 23)]).T
# every index the coeffs command reads at its cap: degree s <= 8, q in [0, s]
COEFFS_INDEX = np.array([(m, n, s - 1 - m - n, q) for s in range(1, COEFF_TABLE_CAP + 1)
                         for m in range(s) for n in range(s - m) for q in range(s + 1)]).T


@pytest.mark.parametrize("index", [CAP_WINDOW, COEFFS_INDEX], ids=["identity-window", "coeffs"])
def test_broadcast_closed_forms_match_per_index_reference(index):
    """The closed forms over the int64 Pascal table equal the per-index Python-int forms."""
    forward, reversed_ = forward_count_closed(*index), reversed_count_closed(*index)
    assert forward.dtype == reversed_.dtype == np.int64 and forward.shape == index[0].shape
    assert forward.tolist() == _reference_table(forward_count_reference, index)
    assert reversed_.tolist() == _reference_table(reversed_count_reference, index)
    assert forward.any() and reversed_.any()


def test_closed_forms_broadcast_columns_against_rows_and_keep_int_scalars():
    m, n, p = np.array([[1, 0, 1], [0, 2, 0], [2, 1, 1]]).T[:, :, None]
    q = np.arange(-1, 5)
    table = forward_count_closed(m, n, p, q)
    assert table.shape == (3, 6)
    assert table.tolist() == [[forward_count_reference(*k, t) for t in q.tolist()]
                              for k in ([1, 0, 1], [0, 2, 0], [2, 1, 1])]
    assert type(forward_count_closed(0, 0, 0, 1)) is int
    assert type(reversed_count_closed(1, 0, 1, 1)) is int
    assert type(forward_count_brute(0, 0, 0, 1)) is int
    with pytest.raises(ValueError, match=r"got \(0, -1, 0\)"):
        forward_count_closed(np.array([0, 0]), np.array([1, -1]), 0, 2)


def test_brute_counts_broadcast_as_census_lookups():
    forward, reversed_ = forward_count_brute(*COEFFS_INDEX), reversed_count_brute(*COEFFS_INDEX)
    assert forward.dtype == reversed_.dtype == np.int64
    assert forward.tolist() == _reference_table(forward_count_brute, COEFFS_INDEX)
    assert reversed_.tolist() == _reference_table(reversed_count_brute, COEFFS_INDEX)
    with pytest.raises(ValueError, match="exceeds brute-force cap"):
        forward_count_brute(np.array([0, 4]), np.array([0, 4]), np.array([0, 4]), 6)


def test_rank_census_matches_a_tally_of_linear_extensions():
    """The census tallied from bare sequences equals one tallied from LinearExtension objects."""
    for s in range(1, COEFF_TABLE_CAP + 1):
        tally = Counter((path.upper_count, ext.rank, ext.forward) for path in enumerate_paths(s)
                        for ext in enumerate_linear_extensions(essential_order(path)))
        assert _rank_census(s) == tally


def test_brute_examples():
    assert forward_count_brute(0, 0, 0, 1) == 1
    assert forward_count_brute(1, 2, 1, 2) == 1
    assert forward_count_brute(0, 2, 0, 2) == 1
    assert reversed_count_brute(0, 0, 0, 0) == 1
    assert reversed_count_brute(1, 0, 1, 1) == 1
    assert all(reversed_count_brute(0, 1, 0, q) == 0 for q in range(0, 3))


def test_brute_matches_closed_small():
    for w in range(0, 6):
        for m in range(w + 1):
            for n in range(w + 1 - m):
                p = w - m - n
                for q in range(0, w + 2):
                    assert forward_count_brute(m, n, p, q) == forward_count_closed(m, n, p, q)
                    assert reversed_count_brute(m, n, p, q) == reversed_count_closed(m, n, p, q)


@settings(max_examples=200)
@given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7), st.integers(0, 8))
def test_mirror_symmetry(m, n, p, q):
    if m + n + p <= 7:
        assert forward_count_closed(m, n, p, q) == forward_count_closed(p, n, m, q)
        assert forward_count_brute(m, n, p, q) == forward_count_brute(p, n, m, q)


@given(st.integers(0, 10), st.integers(0, 10), st.integers(0, 10), st.integers(-2, 12))
def test_vanishing_below_half_weight(m, n, p, q):
    if 2 * q < m + n + p:
        assert forward_count_closed(m, n, p, q) == 0


def test_case_identities_closed_form():
    for k in range(0, 7):
        assert forward_count_closed(0, 2 * k, 0, k + 1) == catalan_general(k, k, 0)
        for n in range(0, 2 * k + 2):
            assert forward_count_closed(0, n, 2 * k - n + 1, k + 1) == catalan_general(k, n - k, 0)
            assert forward_count_closed(2 * k - n + 1, n, 0, k + 1) == catalan_general(k, n - k, 0)
        for r in range(0, k + 2):
            for r_prime in range(0, 2 * k - r + 1):
                assert forward_count_closed(r, 2 * k - r - r_prime, r_prime, k) == \
                    catalan_general(k - r, k - r_prime, r - 1)
                assert catalan_general(k - r, k - r_prime, r - 1) == \
                    catalan_general(k - r_prime, k - r, r_prime - 1)


def test_case_identities_brute_small():
    for k in range(0, 3):
        assert forward_count_brute(0, 2 * k, 0, k + 1) == catalan_general(k, k, 0)
        for r in range(0, k + 1):
            for r_prime in range(0, 2 * k - r + 1):
                assert forward_count_brute(r, 2 * k - r - r_prime, r_prime, k) == \
                    catalan_general(k - r, k - r_prime, r - 1)


def test_brute_bounds():
    with pytest.raises(ValueError):
        forward_count_brute(4, 4, 4, 6)
    with pytest.raises(ValueError):
        reversed_count_brute(0, 8, 0, 4)  # degree 9, past COEFF_TABLE_CAP
    with pytest.raises(ValueError):
        reversed_count_brute(-1, 0, 0, 0)
    with pytest.raises(ValueError):
        forward_count_closed(-1, 0, 0, 0)
    with pytest.raises(ValueError):
        reversed_count_closed(0, -1, 0, 0)
    with pytest.raises(ValueError, match="need degree s >= 1"):
        causal_series(0)
    with pytest.raises(ValueError, match="need degree s >= 1"):
        anticausal_series(0)


def test_series_slices_match_frozen_tables():
    for s, expected in EXPECTED_CAUSAL.items():
        assert causal_series(s).coeff_map() == expected
    for s, expected in EXPECTED_ANTICAUSAL.items():
        assert anticausal_series(s).coeff_map() == expected
    assert not anticausal_series(2).terms  # no even-degree anticausal slice


def test_series_polynomial_evaluation():
    # degree-1 causal slice is the constant -conj(nu)
    nu = 0.8 + 0.3j
    val = causal_series(1).evaluate(0.2, 0.7, nu)
    assert abs(val - (-nu.conjugate())) < 1e-15
    # degree-1 anticausal slice is the constant +nu
    val = anticausal_series(1).evaluate(0.7, 0.2, nu)
    assert abs(val - nu) < 1e-15


def test_truncated_kernel_diagonal_zero():
    assert truncated_kernel(0.4, 0.4, 0.0, 1.0, 1 + 0.5j, 10) == 0j


def test_identity_residual_examples():
    assert unitarity_identity_residual(0, 0, 1, 1) == 0
    assert unitarity_identity_residual(1, 0, 1, 1) == 0
    assert unitarity_identity_residual(2, 1, 2, 3) == 0


def test_identity_residual_rejects_negative_indices():
    with pytest.raises(ValueError):
        unitarity_identity_residual(-1, 0, 0, 0)


def test_identity_residual_detects_corruption():
    def corrupted(m, n, p, q):
        return forward_count_closed(m, n, p, q) + ((m == 1) & (n == 0) & (p == 1) & (q == 1))

    assert unitarity_identity_residual(1, 0, 1, 1, forward_count=corrupted) != 0


# (1, 0, 1, 1): a nonzero entry of low weight;
# (0, 0, 0, -5): negative q, read for s <= 8 only as the right-hand factor;
# (0, 8, 0, 10): q = s + 2, the top edge of the table window at s = 8;
# (0, 0, 0, -8): the lowest q whose count moves a residual at s = 8 and xi <= 10
IDENTITY_CORRUPTIONS = [(1, 0, 1, 1), (0, 0, 0, -5), (0, 8, 0, 10), (0, 0, 0, -8)]


def test_identity_triples_order():
    triples, res = unitarity_identity_residuals(8, 10, forward_count_closed)
    assert triples.dtype == res.dtype == np.int64 and res.shape == (165, 11)
    keys = [tuple(t) for t in triples.tolist()]
    assert len(set(keys)) == 165 and triples.min() == 0 and triples.sum(axis=1).max() == 8
    assert keys == sorted(keys, key=lambda t: (sum(t), t))
    assert unitarity_identity_residuals(0, 2, forward_count_closed)[0].tolist() == [[0, 0, 0]]


def test_identity_pass_rejects_negative_weight_or_xi():
    with pytest.raises(ValueError):
        unitarity_identity_residuals(-1, 2, forward_count_closed)
    with pytest.raises(ValueError):
        unitarity_identity_residuals(2, -1, forward_count_closed)


# the fast pass reads the broadcast closed form (or a hook on it), the slow oracle the
# per-index reference closed form (or the same hook on it)
@pytest.mark.parametrize("at", [None, *IDENTITY_CORRUPTIONS])
def test_identity_batched_matches_slow_oracle(at):
    count = forward_count_closed if at is None else corrupted_count(at)
    slow = forward_count_reference if at is None else corrupted_count(at, forward_count_reference)
    triples, fast = unitarity_identity_residuals(8, 10, count)
    assert fast.shape == (len(triples), 11)
    for (alpha, beta, gamma), row in zip(triples.tolist(), fast.tolist()):
        assert row == [unitarity_identity_residual_slow(alpha, beta, gamma, xi, slow)
                       for xi in range(11)]
    assert fast.any() == (at is not None)


@pytest.mark.parametrize("at", [None, (1, 0, 1, 1), (0, 0, 0, -3)])
def test_identity_scalar_matches_slow_oracle(at):
    hook = None if at is None else corrupted_count(at)
    slow = forward_count_reference if at is None else corrupted_count(at, forward_count_reference)
    for alpha, beta, gamma in unitarity_identity_residuals(4, 0, forward_count_closed)[0].tolist():
        for xi in range(9):
            assert unitarity_identity_residual(alpha, beta, gamma, xi, hook) == \
                unitarity_identity_residual_slow(alpha, beta, gamma, xi, slow)


def test_identity_pass_memory_at_the_cap():
    """At verify's cap the pass holds under 8 MB of Python and numpy memory at its peak."""
    tracemalloc.start()
    try:
        unitarity_identity_residuals(VERIFY_IDENTITY_CAP, VERIFY_IDENTITY_CAP + 2,
                                     forward_count_closed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_identity_tabulates_each_count_once_per_call():
    """One count call per pass covers each index of the window once; no pass reuses a table."""
    calls = []

    def spy(m, n, p, q):
        calls.append(Counter(zip(*(a.ravel().tolist() for a in np.broadcast_arrays(m, n, p, q)))))
        return forward_count_closed(m, n, p, q)

    # w = 6 and X = 8: q in [min(-w - 1, 1 - X), max(X, w)] = [-7, 8]
    triples, first = unitarity_identity_residuals(6, 8, spy)
    window = Counter((m, n, p, q) for m, n, p in triples.tolist() for q in range(-7, 9))
    assert len(window) == 1344 and calls == [window]
    second = unitarity_identity_residuals(6, 8, spy)[1]
    assert calls == [window, window]
    assert np.array_equal(first, second) and not first.any()


def test_identity_table_has_one_row_per_triple_by_weight():
    keys, tab, row, q_lo = _identity_table(forward_count_closed, 6, 8)
    triples = unitarity_identity_residuals(6, 8, forward_count_closed)[0]
    assert np.array_equal(keys, triples)
    assert tab.shape == (84, 16) and q_lo == -7 and (row >= 0).sum() == 84
    assert row[tuple(keys.T)].tolist() == list(range(84))
    assert tab.tolist() == [[forward_count_closed(*k, q) for q in range(-7, 9)]
                            for k in keys.tolist()]


def _count_with(at, value, count=forward_count_closed):
    """``count`` with the entry ``at`` set to ``value``, as Python ints in an object array.

    Broadcasts over int arrays; on ints, ``[()]`` unwraps the 0-d array to a Python int.
    """
    def hooked(m, n, p, q):
        hit = (m == at[0]) & (n == at[1]) & (p == at[2]) & (q == at[3])
        return np.where(hit, value, np.asarray(count(m, n, p, q), dtype=object))[()]
    return hooked


def test_identity_overflow_guard_refuses():
    """A count of 2**61 lifts the bound on the int64 sums to 2**62: refused, never wrapped."""
    count = _count_with((1, 0, 1, 1), 2 ** 61)
    with pytest.raises(ArithmeticError):
        unitarity_identity_residuals(6, 8, count)
    with pytest.raises(ArithmeticError):
        unitarity_identity_residual(2, 0, 2, 3, count)
    with pytest.raises(ArithmeticError, match="does not fit in int64"):  # not in int64 at all
        unitarity_identity_residuals(2, 4, _count_with((1, 0, 1, 1), 2 ** 63))
    with pytest.raises(ArithmeticError):  # read only as the right-hand factor of the 5-fold sum
        unitarity_identity_residuals(6, 8, _count_with((0, 0, 0, -5), 2 ** 61))
    # far below the bound the same corruptions are residuals like any other
    at = (1, 0, 1, 1)
    assert unitarity_identity_residual(2, 0, 2, 3, _count_with(at, 2 ** 40)) == \
        unitarity_identity_residual_slow(2, 0, 2, 3,
                                         _count_with(at, 2 ** 40, forward_count_reference)) != 0
    at = (0, 0, 0, -5)
    triples, res = unitarity_identity_residuals(6, 8, _count_with(at, 2 ** 40))
    slow = _count_with(at, 2 ** 40, forward_count_reference)
    assert res.any() and res.tolist() == [
        [unitarity_identity_residual_slow(alpha, beta, gamma, xi, slow) for xi in range(9)]
        for alpha, beta, gamma in triples.tolist()]


def test_isometry_series_oracle_exact():
    """Truncated series satisfies the isometry identity exactly through degree 7."""
    assert isometry_series_defects(8) == []
