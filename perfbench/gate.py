"""Correctness gate: checks each CLI artifact against independent references.

The gate runs in the benchmark's driver process, after the child that wrote
the artifact has exited, so none of its cost lands in a timed region.  The
kernel values are compared with an mpmath evaluation of

    B_j(x, y) = (-1)^j (x/y)^{j/2} J_j(2 sqrt(xy)),

which shares no code with the package's power-series evaluator.  A full grid
check costs tens of seconds, so each artifact is checked on a seeded subset
of its grid points.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

import mpmath

KERNEL_TOL = 1e-8        # closed-form kernel vs mpmath, absolute
SERIES_TOL = 1e-10       # max_series_diff, as in acceptance criterion 09
RATE_RANGE = (0.9, 1.1)  # fitted O(1/N) convergence rate
REFIT_TOL = 1e-9         # fitted_rate vs a refit from the artifact's own rows
GRID_TOL = 1e-12         # grid coordinates vs the expected interior grid
KERNEL_SAMPLE = 40       # grid points per kernel artifact checked against mpmath
REF_DIGITS = 30
VERIFY_CHECKS = {"catalan_recurrence", "unitarity_coefficient_identity", "isometry_identity",
                 "lommel_integral", "sonine_gegenbauer_integral"}


@dataclass(frozen=True)
class Op:
    """One CLI command of a workload: its arguments and the parameters they encode."""

    command: str
    argv: tuple[str, ...]
    params: dict = field(hash=False)


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    max_abs_err: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.problems

    def require(self, cond: bool, message: str) -> None:
        if not cond:
            self.problems.append(message)


def check(op: Op, returncode: int | None, text: str | None, rng: random.Random) -> Verdict:
    """Check one operation's exit code and artifact text; never raises on bad input."""
    verdict = Verdict()
    verdict.require(returncode == 0, f"exit code {returncode}")
    if text is None:
        verdict.require(False, "artifact missing")
        return verdict
    try:
        doc = json.loads(text)
    except ValueError as exc:
        verdict.require(False, f"artifact is not JSON: {exc}")
        return verdict
    if not isinstance(doc, dict) or doc.get("schema") != 1:
        verdict.require(False, "artifact lacks \"schema\": 1")
        return verdict
    try:
        CHECKS[op.command](op.params, doc, verdict, rng)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        verdict.require(False, f"malformed {op.command} artifact: {exc!r}")
    return verdict


def _check_coeffs(params: dict, doc: dict, v: Verdict, rng: random.Random) -> None:
    rows = doc["rows"]
    v.require(doc["s_max"] == params["s_max"], "s_max differs from the request")
    v.require(doc["all_match"] is True, "all_match is not true")
    v.require(len(rows) > 0, "no table rows")
    bad = [r for r in rows
           if r["match"] != 1 or r["D_closed"] != r["D_brute"] or r["E_closed"] != r["E_brute"]]
    v.require(not bad, f"{len(bad)} rows where closed and brute-force counts or match flag disagree")


def _check_verify(params: dict, doc: dict, v: Verdict, rng: random.Random) -> None:
    rows = doc["rows"]
    cfg = doc["config"]
    for key, want in (("a", params["a"]), ("b", params["b"]), ("lambda", params["lam"]),
                      ("mu", params["mu"]), ("s_max", params["s_max"])):
        v.require(cfg[key] == want, f"config {key}={cfg[key]!r}, requested {want!r}")
    v.require(doc["all_pass"] is True, "all_pass is not true")
    v.require({r["name"] for r in rows} == VERIFY_CHECKS, "the set of checks differs")
    for r in rows:
        v.require(r["pass"] == 1 and r["residual"] <= r["tolerance"],
                  f"{r['name']}: residual {r['residual']} vs tolerance {r['tolerance']}")
        v.max_abs_err = max(v.max_abs_err, abs(r["residual"]))


def _check_converge(params: dict, doc: dict, v: Verdict, rng: random.Random) -> None:
    rows = doc["rows"]
    ns = [r["n"] for r in rows]
    errors = [r["max_error"] for r in rows]
    rate = doc["fitted_rate"]
    v.require(ns == list(params["n_list"]), f"sizes {ns}, requested {list(params['n_list'])}")
    v.require(doc["all_pass"] is True, "all_pass is not true")
    v.require(all(e > 0 for e in errors), "an error is not positive")
    v.require(all(e1 > e2 for e1, e2 in zip(errors, errors[1:])), f"errors do not decrease: {errors}")
    v.require(RATE_RANGE[0] <= rate <= RATE_RANGE[1], f"fitted rate {rate} outside {RATE_RANGE}")
    v.require(all(r["fitted_rate"] == rate for r in rows), "row rates differ from the top-level rate")
    if all(e > 0 for e in errors) and len(ns) >= 2:
        refit = -_slope([math.log(n) for n in ns], [math.log(e) for e in errors])
        v.max_abs_err = abs(refit - rate)
        v.require(v.max_abs_err <= REFIT_TOL,
                  f"fitted rate {rate} but the rows give {refit}")


def _slope(xs: list[float], ys: list[float]) -> float:
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def _check_kernel(params: dict, doc: dict, v: Verdict, rng: random.Random) -> None:
    n, s_max = params["n"], params["s_max"]
    a, b = params["a"], params["b"]
    rows = doc["rows"]
    v.require(doc["n"] == n and doc["s_max"] == s_max, "n or s_max differs from the request")
    if len(rows) != n * n:
        v.require(False, f"{len(rows)} grid rows, expected {n * n}")
        return
    step = (b - a) / (n + 1)
    off_grid = sum(1 for i, r in enumerate(rows)
                   if abs(r["x"] - (a + (i // n + 1) * step)) > GRID_TOL
                   or abs(r["y"] - (a + (i % n + 1) * step)) > GRID_TOL)
    v.require(off_grid == 0, f"{off_grid} rows off the expected grid")
    if s_max >= 1:
        worst = max(r["abs_diff"] for r in rows)
        v.require(doc["max_series_diff"] == worst, "max_series_diff is not the largest abs_diff")
        v.require(worst <= SERIES_TOL, f"series vs closed form differ by {worst} > {SERIES_TOL}")
    wrong = 0
    for i in rng.sample(range(len(rows)), min(KERNEL_SAMPLE, len(rows))):
        r = rows[i]
        ref = reference_kernel(r["x"], r["y"], a, b, params["lam"], params["mu"])
        err = abs(complex(r["re"], r["im"]) - ref)
        v.max_abs_err = max(v.max_abs_err, err)
        wrong += err > KERNEL_TOL
    v.require(wrong == 0, f"{wrong} sampled kernel values off mpmath by more than {KERNEL_TOL}"
                          f" (largest {v.max_abs_err:.3g})")


CHECKS = {"coeffs": _check_coeffs, "verify": _check_verify,
          "converge": _check_converge, "kernel": _check_kernel}


def _bessel_b(j: int, x, y):
    """B_j(x, y) for x, y > 0 through mpmath's J_j."""
    return (-1) ** j * (x / y) ** (mpmath.mpf(j) / 2) * mpmath.besselj(j, 2 * mpmath.sqrt(x * y))


def reference_kernel(x: float, y: float, a: float, b: float, lam: float, mu: float) -> complex:
    """Limit kernel at (x, y) on [a, b)^2 in REF_DIGITS-digit arithmetic."""
    if x == y:
        return 0j
    with mpmath.workdps(REF_DIGITS):
        x, y, a, b = (mpmath.mpf(t) for t in (x, y, a, b))
        nu = mpmath.mpc(lam, mu)
        r = abs(nu)
        total = nu * _bessel_b(0, (y - a) * r, (b - x) * r)
        if x < y:
            total += r * _bessel_b(1, (b - a) * r, (y - x) * r)
            acc, weight, quiet, q = mpmath.mpc(0), mpmath.mpc(1), 0, 0
            eps = mpmath.mpf(10) ** (-REF_DIGITS + 5)
            while quiet < 3:
                bq = _bessel_b(q, (y - x) * r, (b - a) * r)
                acc += bq * weight
                quiet = quiet + 1 if abs(bq) < eps else 0
                weight *= mpmath.conj(nu) / r
                q += 1
            total -= 2 * nu.real * acc
        return complex(total)
