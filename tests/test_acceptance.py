"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""
import math
import time

import numpy as np

from causalprod.coefficients import (
    anticausal_series,
    causal_series,
    forward_count_brute,
    forward_count_closed,
    reversed_count_brute,
    reversed_count_closed,
    truncated_kernel,
    unitarity_identity_residual,
)
from causalprod.combinatorics import (
    DyckQuery,
    catalan_general,
    catalan_recurrence_holds,
    enumerate_dyck,
    fibonacci,
)
from causalprod.kernel import (
    ComplexParam,
    Interval,
    isometry_residual,
    limit_kernel,
    lommel_residual,
    sonine_gegenbauer_residual,
    bessel_series,
)
from causalprod.lattice import enumerate_paths
from causalprod.product import PairOrdering, convergence_study, double_product
from unitarity import unitarity_defect

IV = Interval(0.0, 1.0)
NU = ComplexParam(1.0, 0.5)


def _report(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_coefficient_oracle_equivalence():
    t0 = time.time()
    checked = 0
    ok = True
    for w in range(0, 8):
        for m in range(w + 1):
            for n in range(w + 1 - m):
                p = w - m - n
                for q in range(0, w + 2):
                    ok = ok and forward_count_brute(m, n, p, q) == forward_count_closed(m, n, p, q)
                    ok = ok and reversed_count_brute(m, n, p, q) == reversed_count_closed(m, n, p, q)
                    checked += 2
    elapsed = time.time() - t0
    _report(1, "coefficient oracle equivalence",
            ok and elapsed < 60.0, f"{checked} comparisons in {elapsed:.1f}s")


def test_criterion_02_low_degree_series_tables():
    expected_causal = {
        1: {(0, 0, 0): {1: 1}},
        2: {(0, 0, 1): {1: 1}, (1, 0, 0): {1: 1}, (0, 1, 0): {2: 1}},
        3: {(0, 2, 0): {2: 1, 3: 1}, (0, 1, 1): {2: 1}, (1, 1, 0): {2: 1}, (1, 0, 1): {1: 1}},
    }
    # degree-1 anticausal slice carries coefficient 1 at q = 0, i.e. the value +nu
    expected_anticausal = {1: {(0, 0, 0): {0: 1}}, 2: {}, 3: {(1, 0, 1): {1: 1}}}
    ok = all(causal_series(s).coeff_map() == exp for s, exp in expected_causal.items())
    ok = ok and all(anticausal_series(s).coeff_map() == exp
                    for s, exp in expected_anticausal.items())
    nu = 0.3 + 1.1j
    ok = ok and abs(anticausal_series(1).evaluate(0.6, 0.2, nu) - nu) < 1e-15
    _report(2, "degree 1-3 series tables", ok)


def test_criterion_03_path_census():
    ok = all(len(enumerate_paths(s)) == fibonacci(s + 2) for s in range(1, 19))
    _report(3, "path census vs Fibonacci", ok, "s = 1..18")


def test_criterion_04_dyck_catalan():
    ok = True
    for m in range(8):
        for n in range(8):
            for p in range(8):
                if m - n >= -p - 1:
                    ok = ok and len(enumerate_dyck(DyckQuery(0, m, n, p))) == \
                        catalan_general(m, n, p)
    checked = 0
    for m in range(-8, 9):
        for n in range(0, 9):
            for p in range(-8, 9):
                if m >= p and m + n + p + 1 >= 0:
                    ok = ok and catalan_recurrence_holds(m, n, p)
                    checked += 1
    _report(4, "Dyck census and Catalan recurrence", ok, f"{checked} recurrence triples")


def test_criterion_05_case_identities():
    ok = True
    for k in range(0, 7):
        ok = ok and forward_count_closed(0, 2 * k, 0, k + 1) == catalan_general(k, k, 0)
        for n in range(0, 2 * k + 2):
            ok = ok and forward_count_closed(0, n, 2 * k - n + 1, k + 1) == \
                catalan_general(k, n - k, 0)
            ok = ok and forward_count_closed(2 * k - n + 1, n, 0, k + 1) == \
                catalan_general(k, n - k, 0)
        for r in range(0, k + 1):
            for rp in range(0, 2 * k - r + 1):
                val = forward_count_closed(r, 2 * k - r - rp, rp, k)
                ok = ok and val == catalan_general(k - r, k - rp, r - 1)
                ok = ok and val == catalan_general(k - rp, k - r, rp - 1)
    _report(5, "closed-form case identities", ok, "k <= 6")


def test_criterion_06_discrete_unitarity():
    defects = {n: unitarity_defect(double_product(n, IV, NU)) for n in (8, 16, 32, 64)}
    ok = all(d < 1e-12 for d in defects.values())
    _report(6, "discrete unitarity", ok,
            "max defect %.2e" % max(defects.values()))


def test_criterion_07_ordering_independence():
    n = 16
    mats = [
        double_product(n, IV, NU, ordering)
        for ordering in (PairOrdering.row_major(n), PairOrdering.column_major(n),
                         PairOrdering.random_allowed(n, seed=2024))
    ]
    spread = max(np.max(np.abs(a - b)) for a in mats for b in mats)
    _report(7, "ordering independence", spread < 1e-14, "spread %.2e" % spread)


def test_criterion_08_convergence_rate():
    t0 = time.time()
    study = convergence_study((50, 100, 200), IV, NU)
    r1 = study.max_errors[0] / study.max_errors[1]
    r2 = study.max_errors[1] / study.max_errors[2]
    elapsed = time.time() - t0
    ok = 1.6 <= r1 <= 2.4 and 1.6 <= r2 <= 2.4 and elapsed < 120.0
    _report(8, "first-order convergence rate", ok,
            f"ratios {r1:.2f}, {r2:.2f}; rate {study.fitted_rate:.2f}; {elapsed:.1f}s")


def test_criterion_09_series_vs_closed_kernel():
    worst = 0.0
    for lam, mu in ((1.0, 0.5), (2 * math.cos(math.pi / 3), 2 * math.sin(math.pi / 3))):
        nu = ComplexParam(lam, mu)
        assert IV.width * nu.modulus <= 2.0 + 1e-12
        for i in range(1, 12):
            for j in range(1, 12):
                x, y = i / 12, j / 12
                ser = truncated_kernel(x, y, IV.a, IV.b, nu.value, 30)
                clo = limit_kernel(x, y, IV, nu)
                worst = max(worst, abs(ser - clo))
    _report(9, "series kernel vs closed form", worst < 1e-10, "max diff %.2e" % worst)


def _interior_pairs():
    pairs = []
    for i in range(5):
        for j in range(5):
            x = 0.05 + 0.17 * i
            y = x + (0.95 - x) * (0.15 + 0.2 * j)
            pairs.append((x, y))
    return pairs


def test_criterion_10_unitarity_integral_identity():
    worst = 0.0
    for nu in (ComplexParam(math.cos(math.pi / 6), math.sin(math.pi / 6)),
               ComplexParam(0.0, 1.0)):
        for x, y in _interior_pairs():
            worst = max(worst, abs(isometry_residual(x, y, IV, nu)))
    _report(10, "unitarity integral identity", worst < 1e-8,
            "max |residual| %.2e over 50 evaluations" % worst)


def test_criterion_11_integral_identities():
    lom = max(
        lommel_residual(al, be, x)
        for al, be in ((1.0, 2.0), (0.5, 1.5), (3.0, 1.0))
        for x in (0.5, 1.0, 2.0)
    )
    sg = max(
        sonine_gegenbauer_residual(be, z)
        for be in (0.5, 1.0, 2.0)
        for z in (0.4, 1.0, 1.6)
    )
    ok = lom < 1e-9 and sg < 1e-9
    _report(11, "Lommel and Sonine-Gegenbauer integrals", ok,
            f"residuals {lom:.2e}, {sg:.2e}")


def test_criterion_12_combinatorial_identity():
    worst = 0
    for alpha in range(7):
        for beta in range(7 - alpha):
            for gamma in range(7 - alpha - beta):
                for xi in range(0, 9):
                    worst = max(worst, abs(unitarity_identity_residual(alpha, beta, gamma, xi)))
    _report(12, "combinatorial unitarity identity", worst == 0,
            "max |residual| %d" % worst)


def test_criterion_13_bessel_derivative_order():
    pts = [(0.6, 1.1), (1.3, 0.7), (1.9, 1.6)]
    orders = []
    for j in range(0, 6):
        for x, y in pts:
            # d/dx B_j = -B_{j-1}, where B_{-1}(x, y) = -B_1(y, x)
            exact_x = bessel_series(1, y, x) if j == 0 else -bessel_series(j - 1, x, y)
            exact_y = bessel_series(j + 1, x, y)
            errs_x, errs_y = [], []
            for h in (1e-3, 5e-4):
                fd_x = (bessel_series(j, x + h, y) - bessel_series(j, x - h, y)) / (2 * h)
                fd_y = (bessel_series(j, x, y + h) - bessel_series(j, x, y - h)) / (2 * h)
                errs_x.append(abs(fd_x - exact_x))
                errs_y.append(abs(fd_y - exact_y))
            if errs_x[1] > 1e-12:
                orders.append(math.log2(errs_x[0] / errs_x[1]))
            if errs_y[1] > 1e-12:
                orders.append(math.log2(errs_y[0] / errs_y[1]))
    ok = bool(orders) and min(orders) >= 1.9
    _report(13, "derivative finite-difference order", ok,
            "min observed order %.3f" % min(orders))
