from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalprod.coefficients import (
    _identity_table,
    anticausal_series,
    causal_series,
    forward_count_brute,
    forward_count_closed,
    identity_triples,
    reversed_count_brute,
    reversed_count_closed,
    truncated_kernel,
    unitarity_identity_residual,
    unitarity_identity_residuals,
)
from causalprod.combinatorics import catalan_general
from series_oracle import (
    corrupted_count,
    isometry_series_defects,
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


def test_series_slices_match_frozen_tables():
    for s, expected in EXPECTED_CAUSAL.items():
        assert causal_series(s).coeff_map() == expected
    for s, expected in EXPECTED_ANTICAUSAL.items():
        assert anticausal_series(s).coeff_map() == expected
    assert not anticausal_series(2).terms  # no even-degree anticausal slice


def test_series_polynomial_evaluation():
    # degree-1 causal slice is the constant -conj(nu)
    nu = 0.8 + 0.3j
    val = causal_series(1).evaluate(0.2, 0.7, 0.0, 1.0, nu)
    assert abs(val - (-nu.conjugate())) < 1e-15
    # degree-1 anticausal slice is the constant +nu
    val = anticausal_series(1).evaluate(0.7, 0.2, 0.0, 1.0, nu)
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
        val = forward_count_closed(m, n, p, q)
        return val + 1 if (m, n, p, q) == (1, 0, 1, 1) else val

    assert unitarity_identity_residual(1, 0, 1, 1, forward_count=corrupted) != 0


# (1, 0, 1, 1): a nonzero entry of low weight;
# (0, 0, 0, -5): negative q, read for s <= 8 only as the right-hand factor;
# (0, 8, 0, 10): q = s + 2, the top edge of the table window at s = 8;
# (0, 0, 0, -8): the lowest q whose count moves a residual at s = 8 and xi <= 10
IDENTITY_CORRUPTIONS = [(1, 0, 1, 1), (0, 0, 0, -5), (0, 8, 0, 10), (0, 0, 0, -8)]


def test_identity_triples_order():
    triples = identity_triples(8)
    assert len(triples) == 165 and triples.sum(axis=1).max() == 8
    assert [tuple(t) for t in triples] == sorted(map(tuple, triples))
    assert identity_triples(0).tolist() == [[0, 0, 0]]


@pytest.mark.parametrize("at", [None, *IDENTITY_CORRUPTIONS])
def test_identity_batched_matches_slow_oracle(at):
    count = forward_count_closed if at is None else corrupted_count(at)
    triples = identity_triples(8)
    fast = unitarity_identity_residuals(triples, 10, count)
    assert fast.shape == (len(triples), 11)
    for (alpha, beta, gamma), row in zip(triples.tolist(), fast.tolist()):
        assert row == [unitarity_identity_residual_slow(alpha, beta, gamma, xi, count)
                       for xi in range(11)]
    assert fast.any() == (at is not None)


@pytest.mark.parametrize("at", [None, (1, 0, 1, 1), (0, 0, 0, -3)])
def test_identity_scalar_matches_slow_oracle(at):
    hook = None if at is None else corrupted_count(at)
    count = hook or forward_count_closed
    for alpha, beta, gamma in identity_triples(4).tolist():
        for xi in range(9):
            assert unitarity_identity_residual(alpha, beta, gamma, xi, hook) == \
                unitarity_identity_residual_slow(alpha, beta, gamma, xi, count)


def test_identity_tabulates_each_count_once_per_call():
    """Every index of the window is counted once per call, and no call reuses another's table."""
    calls = Counter()

    def spy(m, n, p, q):
        calls[m, n, p, q] += 1
        return forward_count_closed(m, n, p, q)

    # w = 6 and X = 8: q in [min(-w - 1, 1 - X), max(X, w)] = [-7, 8]
    window = Counter((m, n, p, q) for m, n, p in identity_triples(6).tolist() for q in range(-7, 9))
    assert len(window) == 1344
    first = unitarity_identity_residuals(identity_triples(6), 8, spy)
    assert calls == window
    second = unitarity_identity_residuals(identity_triples(6), 8, spy)
    assert calls == window + window
    assert np.array_equal(first, second) and not first.any()


def test_identity_table_has_one_row_per_triple_by_weight():
    tab, row, q_lo = _identity_table(forward_count_closed, 6, 8)
    keys = sorted(map(tuple, identity_triples(6).tolist()), key=sum)  # by weight, then m, then n
    assert tab.shape == (84, 16) and q_lo == -7 and (row >= 0).sum() == 84
    assert row[tuple(np.array(keys).T)].tolist() == list(range(84))
    assert tab.tolist() == [[forward_count_closed(*k, q) for q in range(-7, 9)] for k in keys]


def _count_with(at, value):
    def count(m, n, p, q):
        return value if (m, n, p, q) == at else forward_count_closed(m, n, p, q)
    return count


def test_identity_overflow_guard_refuses():
    """A count of 2**61 lifts the bound on the int64 sums to 2**62: refused, never wrapped."""
    count = _count_with((1, 0, 1, 1), 2 ** 61)
    with pytest.raises(ArithmeticError):
        unitarity_identity_residuals(identity_triples(6), 8, count)
    with pytest.raises(ArithmeticError):
        unitarity_identity_residual(2, 0, 2, 3, count)
    with pytest.raises(ArithmeticError):  # does not fit in int64 at all
        unitarity_identity_residuals(identity_triples(2), 4, _count_with((1, 0, 1, 1), 2 ** 63))
    # far below the bound the same corruption is a residual like any other
    count = _count_with((1, 0, 1, 1), 2 ** 40)
    assert unitarity_identity_residual(2, 0, 2, 3, count) == \
        unitarity_identity_residual_slow(2, 0, 2, 3, count) != 0


def test_isometry_series_oracle_exact():
    """Truncated series satisfies the isometry identity exactly through degree 7."""
    assert isometry_series_defects(8) == []
