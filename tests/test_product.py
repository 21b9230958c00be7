import math
import tracemalloc

import numpy as np
import pytest

from causalprod import product
from causalprod.kernel import DEFAULT_TOL, ComplexParam, Interval, limit_kernel
from causalprod.product import (
    PairOrdering,
    PiecewisePolynomial,
    apply_product,
    bilinear_form,
    chain_count_matrix,
    convergence_study,
    double_product,
    first_excluded_term_bound,
    kernel_estimate,
    limit_bilinear_form,
    linearized_product,
    midpoints,
)
from kernel_oracle import limit_bilinear_form_slow
from product_oracle import anticausal_column, product_columns
from unitarity import unitarity_defect

IV = Interval(0.0, 1.0)
NU = ComplexParam(1.0, 0.5)


# for n = 2 the product is the single rotation factor on the pair (1, 2)
def test_rotation_factor_two_by_two_real():
    u = double_product(2, IV, ComplexParam(1.0, 0.0))
    theta = 0.5  # (b - a) |nu| / n
    expected = np.array([[math.cos(theta), -math.sin(theta)],
                         [math.sin(theta), math.cos(theta)]])
    assert np.allclose(u, expected, atol=1e-15)


def test_rotation_factor_imaginary_parameter():
    u = double_product(2, IV, ComplexParam(0.0, 1.0))
    theta = 0.5
    assert u[0, 1] == pytest.approx(1j * math.sin(theta), abs=1e-15)
    assert u[1, 0] == pytest.approx(1j * math.sin(theta), abs=1e-15)
    assert u[0, 0] == pytest.approx(math.cos(theta), abs=1e-15)


def test_rotation_factor_unitary():
    for nu in (NU, ComplexParam(-2.0, 3.0), ComplexParam(0.0, -1.3)):
        assert unitarity_defect(double_product(2, IV, nu)) < 1e-15


def test_pair_orderings_allowed():
    for n in (2, 5, 9):
        assert PairOrdering.row_major(n).is_allowed()
        assert PairOrdering.column_major(n).is_allowed()
        assert PairOrdering.random_allowed(n, seed=3).is_allowed()
    bad = PairOrdering(4, tuple(reversed(PairOrdering.row_major(4).pairs)))
    assert not bad.is_allowed()
    missing = PairOrdering(4, PairOrdering.row_major(4).pairs[:-1])
    assert not missing.is_allowed()
    assert not PairOrdering(3, ((1, 3), (1, 2), (2, 3))).is_allowed()  # (1, 3) before (1, 2)


def test_random_allowed_deterministic():
    assert PairOrdering.random_allowed(8, seed=5) == PairOrdering.random_allowed(8, seed=5)
    assert PairOrdering.random_allowed(8, seed=5) != PairOrdering.random_allowed(8, seed=6)


def test_double_product_single_factor():
    w = double_product(2, IV, NU)
    theta = 0.5 * NU.modulus
    phase = NU.value / NU.modulus
    expected = np.array([[math.cos(theta), -phase.conjugate() * math.sin(theta)],
                         [phase * math.sin(theta), math.cos(theta)]])
    assert np.allclose(w, expected, atol=1e-16)


def test_double_product_ordering_independence():
    for n in (3, 16):
        w_row = double_product(n, IV, NU, PairOrdering.row_major(n))
        w_col = double_product(n, IV, NU, PairOrdering.column_major(n))
        w_rnd = double_product(n, IV, NU, PairOrdering.random_allowed(n, seed=11))
        assert np.max(np.abs(w_row - w_col)) < 1e-14
        assert np.max(np.abs(w_row - w_rnd)) < 1e-14


def test_double_product_rejects_bad_ordering():
    bad = PairOrdering(4, tuple(reversed(PairOrdering.row_major(4).pairs)))
    with pytest.raises(ValueError):
        double_product(4, IV, NU, bad)
    with pytest.raises(ValueError):
        double_product(4, IV, NU, PairOrdering.row_major(5))
    with pytest.raises(ValueError):
        double_product(600, IV, NU)


@pytest.mark.parametrize("product", [double_product, linearized_product])
def test_zero_parameter_product_checks_ordering(product):
    zero = ComplexParam(0.0, 0.0)
    assert np.array_equal(product(4, IV, zero), np.eye(4))
    bad = PairOrdering(4, tuple(reversed(PairOrdering.row_major(4).pairs)))
    for ordering in (bad, PairOrdering.row_major(5)):
        with pytest.raises(ValueError):
            product(4, IV, zero, ordering)
    with pytest.raises(ValueError):
        product(1, IV, zero)


def test_double_product_unitary():
    assert unitarity_defect(double_product(8, IV, NU)) < 1e-13


def test_double_product_persymmetric():
    """W = J W^T J with J the index reversal (ROADMAP item 11)."""
    w = double_product(64, IV, NU)
    assert np.max(np.abs(w - w[::-1, ::-1].T)) < 1e-14


def test_double_product_real_orthogonal_for_real_parameter():
    w = double_product(10, IV, ComplexParam(0.7, 0.0))
    assert np.max(np.abs(w.imag)) == 0.0
    assert np.max(np.abs(w.T @ w - np.eye(10))) < 1e-14


def test_double_product_conjugation_symmetry():
    w_plus = double_product(9, IV, ComplexParam(0.0, 1.0))
    w_minus = double_product(9, IV, ComplexParam(0.0, -1.0))
    assert np.array_equal(np.conj(w_plus), w_minus)


def test_linearized_product_two_by_two():
    m = linearized_product(2, IV, NU)
    delta = 0.5
    expected = np.array([[1.0, -NU.value.conjugate() * delta], [NU.value * delta, 1.0]])
    assert np.allclose(m, expected, atol=1e-16)


def test_linearized_product_zero_parameter():
    assert np.array_equal(linearized_product(6, IV, ComplexParam(0.0, 0.0)), np.eye(6))


def test_linearized_gap_is_first_order():
    g50 = np.max(np.abs(linearized_product(50, IV, NU) - double_product(50, IV, NU)))
    g100 = np.max(np.abs(linearized_product(100, IV, NU) - double_product(100, IV, NU)))
    assert 1.6 <= g50 / g100 <= 2.4


def test_chain_count_matrix_trivial_slice():
    n = 12
    m = chain_count_matrix(n, 1, 0, 0, IV)
    expected = np.triu(np.ones((n, n)), k=1) * (IV.width / n)
    assert np.array_equal(m, expected)


def test_chain_count_matrix_entry_formula():
    from causalprod.combinatorics import binomial

    n, s, r, rp = 30, 4, 1, 1
    m = chain_count_matrix(n, s, r, rp, IV)
    scale = (IV.width / n) ** s
    for j, k in [(3, 10), (5, 25), (1, 2)]:
        expected = scale * binomial(j - 1, r) * binomial(k - j - 1, s - 1 - r - rp) \
            * binomial(n - k, rp)
        assert m[j - 1, k - 1] == expected
    assert np.array_equal(np.tril(m), np.zeros((n, n)))


def test_chain_count_matrix_reversed_branch():
    from causalprod.combinatorics import binomial

    n, s, r, rp = 20, 3, 2, 2  # r + r' > s: support on the lower triangle
    m = chain_count_matrix(n, s, r, rp, IV)
    assert np.array_equal(np.triu(m), np.zeros((n, n)))
    scale = (IV.width / n) ** s
    j, k = 9, 4
    expected = scale * binomial(k - 1, s - rp) * binomial(j - k - 1, r + rp - s - 1) \
        * binomial(n - j, s - r)
    assert m[j - 1, k - 1] == expected


def test_chain_count_matrix_validation():
    with pytest.raises(ValueError):
        chain_count_matrix(10, 4, 2, 2, IV)  # r + r' == s
    with pytest.raises(ValueError):
        chain_count_matrix(10, 12, 1, 1, IV)  # s > n - 1
    with pytest.raises(ValueError, match="out of range"):
        chain_count_matrix(10, 3, 4, 0, IV)  # r > s


def _chain_midpoint_error(n, s, r, rp):
    m = chain_count_matrix(n, s, r, rp, IV) * (n / IV.width)
    mids = midpoints(n, IV)
    n_mid = s - 1 - r - rp
    norm = math.factorial(r) * math.factorial(n_mid) * math.factorial(rp)
    worst = 0.0
    for j in range(0, n, 7):
        for k in range(j + 1, n, 7):
            x, y = mids[j], mids[k]
            mono = x**r * (y - x) ** n_mid * (1 - y) ** rp / norm
            worst = max(worst, abs(m[j, k] - mono))
    return worst


def test_chain_count_matrix_midpoint_convergence():
    e200 = _chain_midpoint_error(200, 4, 1, 1)
    e400 = _chain_midpoint_error(400, 4, 1, 1)
    assert e400 < e200 * 0.65  # first-order decay
    assert e400 < 1e-3


def test_kernel_estimate_zero_parameter():
    w = double_product(10, IV, ComplexParam(0.0, 0.0))
    _, est = kernel_estimate(w, IV)
    assert np.array_equal(est, np.zeros((10, 10)))


def test_kernel_estimate_both_regions():
    n = 100
    mids, est = kernel_estimate(double_product(n, IV, NU), IV)
    worst_lower, worst_upper = 0.0, 0.0
    for j in range(10, n, 13):
        for k in range(5, n, 17):
            if j == k:
                continue
            exact = limit_kernel(float(mids[j]), float(mids[k]), IV, NU)
            err = abs(est[j, k] - exact)
            if j < k:
                worst_lower = max(worst_lower, err)
            else:
                worst_upper = max(worst_upper, err)
    assert worst_lower < 0.05
    assert worst_upper < 0.05


def test_convergence_study_rates():
    study = convergence_study((25, 50, 100), IV, NU)
    assert all(e1 > e2 for e1, e2 in zip(study.max_errors, study.max_errors[1:]))
    for e1, e2 in zip(study.max_errors, study.max_errors[1:]):
        assert 1.5 <= e1 / e2 <= 2.5
    assert 0.8 <= study.fitted_rate <= 1.2
    for n_val, err, bound in zip(study.ns, study.max_errors, study.bounds):
        assert err <= bound
        assert bound == first_excluded_term_bound(n_val, IV, NU)


def test_convergence_study_evaluates_the_kernel_once_for_the_ladder(monkeypatch):
    # one limit_kernel call holds the sampled cells of every size in turn; each
    # size's values must equal its own call bit for bit, and so must the study
    from causalprod import product

    ns, iv, nu = (8, 16, 32, 64), Interval(-0.5, 1.5), ComplexParam(2.0, -1.5)
    steps = [iv.width / n for n in ns]  # the cells of size n, as the study maps them
    counts = [sum(min(int((u - iv.a) / step), n - 1) != min(int((v - iv.a) / step), n - 1)
                  for u, v in product.sample_points(iv)) for n, step in zip(ns, steps)]
    calls = []

    def per_size(x, y, iv, nu):
        calls.append(x.size)
        parts = np.split(np.arange(x.size), np.cumsum(counts)[:-1])
        values = np.concatenate([limit_kernel(x[p], y[p], iv, nu) for p in parts])
        assert np.array_equal(values, limit_kernel(x, y, iv, nu))
        return values

    batched = convergence_study(ns, iv, nu)
    monkeypatch.setattr(product, "limit_kernel", per_size)
    assert convergence_study(ns, iv, nu) == batched
    assert calls == [sum(counts)]


def test_convergence_study_validation():
    with pytest.raises(ValueError):
        convergence_study((50, 50), IV, NU)


def test_convergence_study_rejects_sizes_below_two():
    with pytest.raises(ValueError):
        convergence_study((1, 2), IV, NU)


def test_convergence_study_needs_two_sizes():
    # a rate is fitted to the ladder, and one size would leave it undetermined
    with pytest.raises(ValueError):
        convergence_study((64,), IV, NU)


def test_convergence_study_large_sizes():
    study = convergence_study((256, 512, 1024, 2048, 4096), IV, NU)
    assert all(e1 > e2 for e1, e2 in zip(study.max_errors, study.max_errors[1:]))
    assert 0.9 <= study.fitted_rate <= 1.1
    assert all(err <= bound for err, bound in zip(study.max_errors, study.bounds))


def _units(n, cols):
    """Unit columns ``cols`` of the n x n identity, without forming the identity."""
    units = np.zeros((n, len(cols)))
    units[cols, np.arange(len(cols))] = 1.0
    return units


def _orderings(n):
    return (PairOrdering.row_major(n), PairOrdering.column_major(n),
            PairOrdering.random_allowed(n, seed=7))


@pytest.mark.parametrize("n", [2, 3, 16, 64, 128])
def test_apply_product_match_dense_product(n):
    cols = sorted({0, 1, n // 2, n - 1})
    fast = apply_product(n, IV, NU, _units(n, cols))
    assert fast.shape == (n, len(cols))
    for ordering in _orderings(n):
        dense = double_product(n, IV, NU, ordering)[:, cols]
        assert np.max(np.abs(fast - dense)) < 1e-13


@pytest.mark.parametrize("n", [2, 9, 10, 57, 128])
def test_apply_product_random_block(n):
    """A dense random complex block, not unit columns, and a single vector."""
    rng = np.random.default_rng(n)
    block = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    w = double_product(n, IV, NU)
    assert np.max(np.abs(apply_product(n, IV, NU, block) - w @ block)) < 1e-13
    assert np.max(np.abs(apply_product(n, IV, NU, block[:, 0]) - w @ block[:, 0])) < 1e-13


@pytest.mark.parametrize("nu", [NU, 1.5, math.pi / 2, 3.0],
                         ids=["1+0.5i", "angle1.5", "angle_pi_over_2", "angle3.0"])
def test_apply_product_matches_dense_for_every_tile_shape(nu):
    """Every n in 2..80: group sizes g = 1..9 with every lead size
    1 + (n-1) % g in [1, g], 1..8 groups, and anti-diagonals of one and of
    several tiles.  A float nu is the rotation angle per factor: at pi/2
    (c ~ 6e-17) the chain's powers of c vanish, and at 3.0 (c < 0) they
    alternate in sign."""
    rng = np.random.default_rng(80)
    for n in range(2, 81):
        nu_n = nu if isinstance(nu, ComplexParam) else ComplexParam(0.0, nu * n / IV.width)
        w = double_product(n, IV, nu_n)
        block = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        assert np.max(np.abs(apply_product(n, IV, nu_n, np.eye(n)) - w)) < 1e-13, n
        assert np.max(np.abs(apply_product(n, IV, nu_n, block) - w @ block)) < 1e-13, n


def test_apply_product_memory_is_linear_in_n():
    """The peak holds no n x n array and no table of more than n rows (1.8 MB measured)."""
    units = _units(4096, [0, 1, 2047, 4095])
    tracemalloc.start()
    try:
        apply_product(4096, IV, NU, units)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


@pytest.mark.parametrize("theta, n", [(math.pi / 2, 200), (1.5, 200), (2.34, 200)])
def test_apply_product_coarse_angles(theta, n):
    """Rotation angles far from small, where powers of cos(theta) are extreme."""
    nu = ComplexParam(0.0, theta * n / IV.width)
    c = math.cos(IV.width * nu.modulus / n)
    if theta == math.pi / 2:
        assert abs(c) < 1e-15
    cols = [0, 5, n // 3, n - 2, n - 1]
    fast = apply_product(n, IV, nu, _units(n, cols))
    assert np.all(np.isfinite(fast))
    dense = double_product(n, IV, nu)[:, cols]
    assert np.max(np.abs(fast - dense)) < 1e-13


# at nu = 1 + 0.5i and n = 4096, forming the powers of cos(theta) by repeated
# squaring put 1.1e-13 on the diagonal; the scan's own error there is 1.7e-14
@pytest.mark.parametrize("nu", [ComplexParam(0.6, 0.8), ComplexParam(3.0, -4.0), NU])
@pytest.mark.parametrize("n, cols", [(1024, [0, 511]), (4096, [0, 1, 2047, 4095])])
def test_apply_product_matches_scan_beyond_dense_cap(n, cols, nu):
    fast = apply_product(n, IV, nu, _units(n, cols))
    assert np.max(np.abs(fast - product_columns(n, IV, nu, cols))) < 1e-13


# at theta = pi/2 the scan's blocks shrink to single factors, ~25 us each in
# Python: n = 1000 would take ~13 s there, so that angle runs just above the
# dense cap instead
@pytest.mark.parametrize("theta, n", [(math.pi / 2, 520), (1.5, 1000), (2.34, 1000)])
def test_apply_product_matches_scan_at_coarse_angles(theta, n):
    nu = ComplexParam(0.0, theta * n / IV.width)
    cols = [0, 5, n // 3, n - 2, n - 1]
    fast = apply_product(n, IV, nu, _units(n, cols))
    assert np.max(np.abs(fast - product_columns(n, IV, nu, cols))) < 1e-13


# Beyond the dense cap apply_product still owes the product's exact symmetries:
# W = J W^T J pairs W[j, k] with W[n-1-k, n-1-j], and its columns are
# orthonormal.  A column set closed under k -> n-1-k holds both partners.
@pytest.mark.parametrize("nu", [NU, ComplexParam(3.0, -4.0), None],
                         ids=["1+0.5i", "3-4i", "angle1.5"])
@pytest.mark.parametrize("n", [1000, 4096])
def test_apply_product_persymmetric_with_orthonormal_columns(n, nu):
    nu = nu or ComplexParam(0.0, 1.5 * n / IV.width)
    cols = sorted({k for j in (0, 1, 2, n // 3) for k in (j, n - 1 - j)})
    w = apply_product(n, IV, nu, _units(n, cols))
    at = {k: i for i, k in enumerate(cols)}
    partners = np.array([[w[n - 1 - k, at[n - 1 - j]] for k in cols] for j in cols])
    assert np.max(np.abs(w[cols] - partners)) < 1e-14
    assert unitarity_defect(w) < 1e-12


def test_apply_product_where_the_rotation_angle_underflows():
    """sin(theta) = 0 with nu != 0: every factor is the identity, and nothing divides by it."""
    block = np.random.default_rng(5).standard_normal((64, 3)) + 1j
    out = apply_product(64, Interval(0.0, 1e-12), ComplexParam(1e-310, 1e-310), block)
    assert np.all(np.isfinite(out))
    assert np.array_equal(out, block)


def test_apply_product_zero_parameter():
    cols = [0, 3, 9]
    assert np.array_equal(apply_product(10, IV, ComplexParam(0.0, 0.0), np.eye(10)[:, cols]),
                          np.eye(10)[:, cols])


def test_apply_product_validation():
    with pytest.raises(ValueError):
        apply_product(1, IV, NU, np.ones((1, 1)))
    with pytest.raises(ValueError):
        apply_product(5, IV, NU, np.ones((4, 2)))
    with pytest.raises(ValueError):
        apply_product(5, IV, NU, np.ones((5, 2, 2)))
    with pytest.raises(ValueError):
        apply_product(4097, IV, NU, np.ones(4097))
    assert apply_product(10, IV, NU, np.zeros((10, 0))).shape == (10, 0)


def _int_sweep(n, c, up, lo):
    """apply_product's row sweep on the reversed n x n identity block, over Python ints.

    Sweep r has accumulator row r and steps through rows 0..r-1; each step
    maps (a, v) to (c a + up v, lo a + c v).  Returns the rows in that
    reversed order, which is the transpose of _grouped_sweep's state.
    """
    rows = [np.array([int(i == n - 1 - t) for i in range(n)], dtype=object) for t in range(n)]
    for r in range(1, n):
        a = rows[r]
        for t in range(r):
            a, rows[t] = c * a + up * rows[t], lo * a + c * rows[t]
        rows[r] = a
    return np.array(rows)


# With integer (c, up, lo) and lo = +-1 the sweep is a polynomial whose every float
# operation is exact while the entries stay below 2**53 (up to n = 40 at c = 1, n = 20
# at c = 2), so the tiles, the lead and D are checked at zero tolerance.
@pytest.mark.parametrize("c, up, lo, n_max", [(1, 1, -1, 40), (1, -1, 1, 40), (1, 2, -1, 40),
                                              (2, 1, 1, 20)])
def test_grouped_sweep_is_exact_at_integer_factors(c, up, lo, n_max):
    for n in range(2, n_max + 1):
        exact = _int_sweep(n, c, up, lo)
        assert max(abs(int(x)) for x in exact.flat) < 2 ** 53
        u = np.eye(n, dtype=complex)[::-1].T.copy()
        product._grouped_sweep(u, float(c), complex(up), complex(lo))
        assert np.array_equal(u.T, exact.astype(complex)), n


# Below the diagonal, W is a Jacobi polynomial per entry (product_oracle.anticausal_column)
@pytest.mark.parametrize("n", [5, 17, 64, 200])
def test_anticausal_entries_match_the_jacobi_form(n):
    w = double_product(n, IV, NU)
    for k in range(n - 1):
        assert np.max(np.abs(anticausal_column(n, IV, NU, k) - w[k + 1:, k])) < 1e-13, k


@pytest.mark.parametrize("nu", [NU, ComplexParam(3.0, -4.0), ComplexParam(9.0, 12.0),
                                ComplexParam(0.0, 0.6 * 4096 / IV.width)],
                         ids=["1+0.5i", "3-4i", "9+12i", "angle0.6"])
def test_apply_product_anticausal_entries_match_the_jacobi_form(nu):
    n, cols = 4096, [0, 1, 2047, 4000]
    fast = apply_product(n, IV, nu, _units(n, cols))
    for i, k in enumerate(cols):
        assert np.max(np.abs(anticausal_column(n, IV, nu, k) - fast[k + 1:, i])) < 1e-13, k


def test_anticausal_column_validation():
    assert np.array_equal(anticausal_column(6, IV, ComplexParam(0.0, 0.0), 2), np.zeros(3))
    assert anticausal_column(6, IV, NU, 5).shape == (0,)
    with pytest.raises(ValueError):
        anticausal_column(6, IV, NU, 6)
    with pytest.raises(ValueError):  # past angle 0.6 the Jacobi polynomials outgrow float64
        anticausal_column(10, IV, ComplexParam(0.0, 6.1), 0)


# The per-sweep scan in product_oracle is the slow oracle for apply_product
# beyond the dense cap; these tests keep it checked against the dense product.
@pytest.mark.parametrize("n", [2, 3, 16, 64, 128])
def test_product_columns_match_dense_product(n):
    cols = sorted({0, 1, n // 2, n - 1})
    fast = product_columns(n, IV, NU, cols)
    assert fast.shape == (n, len(cols))
    for ordering in _orderings(n):
        dense = double_product(n, IV, NU, ordering)[:, cols]
        assert np.max(np.abs(fast - dense)) < 1e-13


@pytest.mark.parametrize("theta, n", [(math.pi / 2, 200), (1.5, 200), (2.34, 200)])
def test_product_columns_coarse_angles(theta, n):
    """Rotation angles far from small, where the scan's powers of cos(theta) are extreme."""
    nu = ComplexParam(0.0, theta * n / IV.width)
    c = math.cos(IV.width * nu.modulus / n)
    if theta == math.pi / 2:
        assert abs(c) < 1e-15
    cols = [0, 5, n // 3, n - 2, n - 1]
    fast = product_columns(n, IV, nu, cols)
    assert np.all(np.isfinite(fast))
    dense = double_product(n, IV, nu)[:, cols]
    assert np.max(np.abs(fast - dense)) < 1e-13


def test_product_columns_zero_parameter():
    cols = [0, 3, 9]
    assert np.array_equal(product_columns(10, IV, ComplexParam(0.0, 0.0), cols),
                          np.eye(10)[:, cols])


def test_product_columns_validation():
    with pytest.raises(ValueError):
        product_columns(1, IV, NU, [0])
    with pytest.raises(ValueError):
        product_columns(5, IV, NU, [5])
    with pytest.raises(ValueError):
        product_columns(5, IV, NU, [-1])


def test_convergence_study_zero_parameter():
    study = convergence_study((10, 20), IV, ComplexParam(0.0, 0.0))
    assert study.max_errors == (0.0, 0.0)
    assert study.fitted_rate == 0.0


def test_piecewise_polynomial():
    f = PiecewisePolynomial(0.2, 0.8, (0.5, 1.0))  # 0.5 + x on the support
    assert f(0.5) == pytest.approx(1.0)
    assert f(0.1) == 0.0 and f(0.9) == 0.0
    assert f.integral(0.0, 1.0) == pytest.approx(0.5 * 0.6 + (0.64 - 0.04) / 2)
    assert f.integral(0.7, 0.75) == pytest.approx(0.5 * 0.05 + (0.75**2 - 0.7**2) / 2)
    with pytest.raises(ValueError):
        PiecewisePolynomial(0.5, 0.5, (1.0,))


def test_bilinear_form_exact_components():
    # constant test functions on aligned cells reduce to sums of entries
    n = 10
    w = double_product(n, IV, NU)
    left = PiecewisePolynomial(0.0, 0.2, (1.0,))
    right = PiecewisePolynomial(0.5, 0.7, (1.0,))
    expected = sum(
        (w[j, k] - (1.0 if j == k else 0.0)) * (IV.width / n)
        for j in (0, 1) for k in (5, 6)
    )
    assert bilinear_form(n, IV, NU, left, right) == pytest.approx(expected, abs=1e-15)


def test_weak_convergence_of_bilinear_forms():
    """The literal weak-convergence check: matrix elements against test functions."""
    left = PiecewisePolynomial(0.1, 0.6, (1.0,))
    right = PiecewisePolynomial(0.3, 0.9, (0.5, 1.0))
    exact = limit_bilinear_form(left, right, IV, NU)
    gaps = [abs(bilinear_form(n, IV, NU, left, right) - exact) for n in (25, 50, 100)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert 1.5 <= gaps[0] / gaps[1] <= 2.5
    assert 1.5 <= gaps[1] / gaps[2] <= 2.5


def test_weak_convergence_up_to_4096():
    # the O(1/N) rate stays clean only while the limit form's own error is far below the gap
    left = PiecewisePolynomial(0.1, 0.6, (1.0,))
    right = PiecewisePolynomial(0.3, 0.9, (0.5, 1.0))
    exact = limit_bilinear_form(left, right, IV, NU)
    gaps = [abs(bilinear_form(n, IV, NU, left, right) - exact)
            for n in (256, 512, 1024, 2048, 4096)]
    assert all(1.9 <= g0 / g1 <= 2.1 for g0, g1 in zip(gaps, gaps[1:]))


@pytest.mark.parametrize("left, right, iv, nu", [
    (PiecewisePolynomial(0.1, 0.6, (1.0,)), PiecewisePolynomial(0.3, 0.9, (0.5, 1.0)),
     IV, ComplexParam(1.0, 0.5)),
    # the right support ends at b
    (PiecewisePolynomial(0.0, 1.0, (1.0,)), PiecewisePolynomial(0.5, 1.0, (1.0, -2.0)),
     IV, ComplexParam(0.6, -0.8)),
    # disjoint supports: only the anticausal branch applies
    (PiecewisePolynomial(0.5, 0.7, (1.0,)), PiecewisePolynomial(-0.2, 0.4, (1.0,)),
     Interval(-0.25, 1.0), ComplexParam(0.0, 1.7)),
    # the same support on both sides
    (PiecewisePolynomial(0.2, 0.3, (1.0, 2.0)), PiecewisePolynomial(0.2, 0.3, (1.0,)),
     IV, ComplexParam(1.0, 0.0)),
])
def test_limit_bilinear_form_matches_the_two_branch_slow_form(left, right, iv, nu):
    fast = limit_bilinear_form(left, right, iv, nu)
    slow = limit_bilinear_form_slow(left, right, iv, nu, product._PANEL_NODES, DEFAULT_TOL)
    assert abs(fast - slow) <= 1e-13 * max(1.0, abs(slow))


def test_limit_bilinear_form_zero_parameter():
    left = PiecewisePolynomial(0.1, 0.4, (1.0,))
    assert limit_bilinear_form(left, left, IV, ComplexParam(0.0, 0.0)) == 0j
