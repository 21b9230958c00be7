"""Command-line front end: coefficient tables, identity checks, studies, kernel grids.

All artifacts are deterministic functions of the flags: CSV with LF line
endings, JSON with sorted keys and a top-level ``"schema": 1`` field.  Complex
values are always split into re/im columns.  Exit status is 0 iff every check
of the invoked command passed at the configured tolerance, 1 when a check
failed or a value could not be computed (an ArithmeticError), and 2 when the
arguments or RunConfig, which holds each command's limits, refuse the run or the
artifact cannot be written.  Every non-zero exit prints one stderr line; a
failed check prints it after the artifact, naming what failed.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from typing import NoReturn, Sequence

import numpy as np

from . import coefficients as coeff
from . import kernel as ker
from . import product as prod
from .combinatorics import catalan_recurrence_holds
from .config import RunConfig, parse_sizes

SCHEMA_VERSION = 1


def _finite(value) -> bool:
    """False if value is, or holds in nested dicts and lists, a non-finite float."""
    if isinstance(value, (dict, list)):
        return all(map(_finite, value.values() if isinstance(value, dict) else value))
    return not isinstance(value, float) or math.isfinite(value)


def _emit(cfg: RunConfig, headers: Sequence[str], rows: list[dict], extra: dict,
          failed: Sequence[str]) -> int:
    """Write the artifact unless a float is non-finite; return 0, or 2 if --out fails.

    With failed checks, one line naming them follows the artifact, and the status is 1.
    """
    if not _finite([rows, extra]):
        raise ArithmeticError("a reported value is not finite")
    if cfg.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers)
        for row in rows:
            writer.writerow([row[h] for h in headers])
        text = buf.getvalue()
    else:
        payload = {"schema": SCHEMA_VERSION, **extra, "rows": rows}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if not cfg.out:
        sys.stdout.write(text)
    else:
        try:
            with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(f"cannot write artifact: {exc}\n")
            return 2
    if failed:
        sys.stderr.write(f"check failed: {'; '.join(failed)}\n")
        return 1
    return 0


def cmd_coeffs(cfg: RunConfig) -> int:
    """Closed-form vs brute-force coefficient tables for degrees up to s_max."""
    rows = []
    for s in range(1, cfg.s_max + 1):
        for m, n, p in coeff.degree_terms(s):
            for q in range(0, s + 1):
                dc = coeff.forward_count_closed(m, n, p, q)
                db = coeff.forward_count_brute(m, n, p, q)
                ec = coeff.reversed_count_closed(m, n, p, q)
                eb = coeff.reversed_count_brute(m, n, p, q)
                if max(abs(dc), abs(db), abs(ec), abs(eb)) == 0:
                    continue
                match = dc == db and ec == eb
                rows.append({"m": m, "n": n, "p": p, "q": q,
                             "D_closed": dc, "D_brute": db,
                             "E_closed": ec, "E_brute": eb,
                             "match": int(match)})
    headers = ["m", "n", "p", "q", "D_closed", "D_brute", "E_closed", "E_brute", "match"]
    bad = [(r["m"], r["n"], r["p"], r["q"]) for r in rows if not r["match"]]
    failed = [f"counts differ in {len(bad)} rows, first (m, n, p, q) = {bad[0]}"] if bad else []
    return _emit(cfg, headers, rows, {"s_max": cfg.s_max, "all_match": not bad}, failed)


def cmd_verify(cfg: RunConfig) -> int:
    """Run every identity check and emit a pass/fail report."""
    iv, nu = cfg.interval, cfg.param
    rows: list[dict] = []

    failures = sum(not catalan_recurrence_holds(m, n, p)
                   for m in range(-8, 9) for n in range(9) for p in range(-8, min(m, 8) + 1)
                   if m + n + p + 1 >= 0)
    rows.append({"name": "catalan_recurrence", "params": "|m|,|n|,|p| <= 8",
                 "residual": float(failures), "tolerance": 0.0, "pass": int(failures == 0)})

    triples, xi_max = coeff.identity_triples(cfg.s_max), cfg.s_max + 2
    res = coeff.unitarity_identity_residuals(triples, xi_max, coeff.forward_count_closed)
    # each triple is checked for xi <= alpha + beta + gamma + 2
    checked = np.arange(xi_max + 1) <= triples.sum(axis=1, keepdims=True) + 2
    worst = int(np.abs(res[checked]).max())
    rows.append({"name": "unitarity_coefficient_identity",
                 "params": f"alpha+beta+gamma <= {cfg.s_max}",
                 "residual": float(worst), "tolerance": 0.0, "pass": int(worst == 0)})

    u, v = np.array(((0.15, 0.25, 0.4, 0.1, 0.55), (0.45, 0.75, 0.6, 0.9, 0.85)))
    # the defect has units of 1/length; (b - a) times it is scale-free, as tol is
    iso = iv.width * float(np.abs(ker.isometry_residual(iv.a + u * iv.width, iv.a + v * iv.width,
                                                        iv, nu)).max())
    rows.append({"name": "isometry_identity", "params": f"nu={nu.value}, 5 points",
                 "residual": iso, "tolerance": cfg.tol, "pass": int(iso < cfg.tol)})

    alpha, beta = np.array([[1.0], [0.5], [3.0]]), np.array([[2.0], [1.5], [1.0]])
    lom = float(ker.lommel_residual(alpha, beta, np.array([0.5, 1.0, 2.0])).max())
    rows.append({"name": "lommel_integral", "params": "3x3 grid",
                 "residual": lom, "tolerance": cfg.tol, "pass": int(lom < cfg.tol)})

    sg = float(ker.sonine_gegenbauer_residual(np.array([[0.5], [1.0], [2.0]]),
                                              np.array([0.4, 1.0, 1.6])).max())
    rows.append({"name": "sonine_gegenbauer_integral", "params": "3x3 grid",
                 "residual": sg, "tolerance": cfg.tol, "pass": int(sg < cfg.tol)})

    failed = [r["name"] for r in rows if not r["pass"]]
    return _emit(cfg, ["name", "params", "residual", "tolerance", "pass"], rows,
                 {"config": {"a": cfg.a, "b": cfg.b, "lambda": cfg.lam, "mu": cfg.mu,
                             "tol": cfg.tol, "s_max": cfg.s_max}, "all_pass": not failed},
                 failed)


def cmd_converge(cfg: RunConfig) -> int:
    """Convergence ladder of the product's kernel estimate toward the limit kernel."""
    study = prod.convergence_study(cfg.n_list, cfg.interval, cfg.param)
    rows = [{"n": n, "max_error": err, "fitted_rate": study.fitted_rate}
            for n, err in zip(study.ns, study.max_errors)]
    errs = study.max_errors
    failed = [] if all(e1 >= e2 for e1, e2 in zip(errs, errs[1:])) else ["max_error rises with n"]
    over = [str(n) for n, e, b in zip(study.ns, errs, study.bounds) if not e <= b]
    failed += [f"max_error above its bound at n = {', '.join(over)}"] if over else []
    return _emit(cfg, ["n", "max_error", "fitted_rate"], rows,
                 {"bounds": list(study.bounds), "fitted_rate": study.fitted_rate,
                  "all_pass": not failed}, failed)


def cmd_kernel(cfg: RunConfig) -> int:
    """Kernel values on an n x n interior grid, with optional series comparison."""
    iv, nu = cfg.interval, cfg.param
    step = iv.width / (cfg.n + 1)
    pts = [iv.a + i * step for i in range(1, cfg.n + 1)]
    rows = []
    worst = 0.0
    for x in pts:
        for y in pts:
            val = ker.limit_kernel(x, y, iv, nu)
            row = {"x": x, "y": y, "re": val.real, "im": val.imag}
            if cfg.s_max >= 1:
                ser = coeff.truncated_kernel(x, y, iv.a, iv.b, nu.value, cfg.s_max)
                row["series_re"] = ser.real
                row["series_im"] = ser.imag
                row["abs_diff"] = abs(ser - val)
                worst = max(worst, row["abs_diff"])
            rows.append(row)
    headers = ["x", "y", "re", "im"]
    if cfg.s_max >= 1:
        headers += ["series_re", "series_im", "abs_diff"]
    extra = {"n": cfg.n, "s_max": cfg.s_max, "max_series_diff": worst}
    return _emit(cfg, headers, rows, extra, ())


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are one stderr line and exit status 2.

    It reads a negative number in exponent form (``--lambda -1e-3``) as a value,
    as argparse reads ``-1`` and ``-0.5``.  Subparsers are built with the class
    of their parent, so they inherit both.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"invalid arguments: {message}\n")


_FLAGS = {"--a": {"type": float}, "--b": {"type": float},
          "--lambda": {"dest": "lam", "type": float}, "--mu": {"type": float},
          "--n": {"type": int}, "--n-list": {"help": "comma-separated product sizes"},
          "--s-max": {"type": int}, "--tol": {"type": float},
          "--format": {"dest": "fmt", "choices": ("csv", "json")}, "--out": {}}
_NU = ("--a", "--b", "--lambda", "--mu")
# each command with its help and the flags it reads, besides --format and --out
_COMMANDS = {
    "coeffs": (cmd_coeffs, "closed-form vs brute-force coefficient tables", ("--s-max",)),
    "verify": (cmd_verify, "run all identity checks", (*_NU, "--s-max", "--tol")),
    "converge": (cmd_converge, "product-to-kernel convergence study", (*_NU, "--n-list")),
    "kernel": (cmd_kernel, "kernel values on a grid", (*_NU, "--n", "--s-max")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="causalprod",
        description="Verification lab for causal rotation products and their limit kernel.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text, flags) in _COMMANDS.items():
        # an absent flag stays off the namespace, so RunConfig supplies its default
        cmd = sub.add_parser(command, help=text, argument_default=argparse.SUPPRESS)
        for flag in (*flags, "--format", "--out"):
            cmd.add_argument(flag, **_FLAGS[flag])
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """RunConfig of the parsed command and its flags; the rest keep RunConfig's defaults."""
    fields = dict(vars(args))
    if "n_list" in fields:
        fields["n_list"] = parse_sizes(fields["n_list"])
    return RunConfig(**fields)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
    except ValueError as exc:
        sys.stderr.write(f"invalid configuration: {exc}\n")
        return 2
    try:
        # an overflowing or invalid float operation fails the check (FloatingPointError)
        with np.errstate(over="raise", invalid="raise"):
            return _COMMANDS[args.command][0](cfg)
    except ArithmeticError as exc:  # a series or estimate that cannot be computed
        sys.stderr.write(f"check failed: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
