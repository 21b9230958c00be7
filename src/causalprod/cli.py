"""Command-line front end: coefficient tables, identity checks, studies, kernel grids.

``causalprod <command> --flag value ...`` (or ``--flag=value``) runs one command; ``-h`` or
``--help`` prints its flags.  All artifacts are deterministic functions of the flags: CSV with LF
line endings, JSON with sorted keys and a top-level ``"schema": 1`` field.  Complex values are
always split into re/im columns.  Exit status is 0 iff every check of the invoked command passed
at the configured tolerance, 1 when a check failed or a value could not be computed (an
ArithmeticError), and 2 when the arguments or RunConfig, which holds each command's limits,
refuse the run or the artifact cannot be written.  Every non-zero exit prints one stderr line; a
failed check prints it after the artifact, naming what failed.
"""
from __future__ import annotations

import csv
import io
import json
import math
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
    if cfg.out is None:
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
    index = np.array([(m, n, p, q) for s in range(1, cfg.s_max + 1)
                      for m, n, p in coeff.degree_terms(s) for q in range(s + 1)],
                     dtype=np.int64).reshape(-1, 4).T
    cols = np.array([coeff.forward_count_closed(*index), coeff.forward_count_brute(*index),
                     coeff.reversed_count_closed(*index), coeff.reversed_count_brute(*index)])
    keep = cols.any(axis=0)
    match = (cols[0] == cols[1]) & (cols[2] == cols[3])
    headers = ["m", "n", "p", "q", "D_closed", "D_brute", "E_closed", "E_brute", "match"]
    rows = [dict(zip(headers, vals))
            for vals in np.vstack([index, cols, match]).T[keep].tolist()]
    bad = [(r["m"], r["n"], r["p"], r["q"]) for r in rows if not r["match"]]
    failed = [f"counts differ in {len(bad)} rows, first (m, n, p, q) = {bad[0]}"] if bad else []
    return _emit(cfg, headers, rows, {"s_max": cfg.s_max, "all_match": not bad}, failed)


def cmd_verify(cfg: RunConfig) -> int:
    """Run every identity check and emit a pass/fail report."""
    iv, nu = cfg.interval, cfg.param
    rows: list[dict] = []

    m, n, p = np.mgrid[-8:9, 0:9, -8:9].reshape(3, -1)
    grid = (p <= m) & (m + n + p + 1 >= 0)
    failures = int((~catalan_recurrence_holds(m[grid], n[grid], p[grid])).sum())
    rows.append({"name": "catalan_recurrence", "params": "|m|,|n|,|p| <= 8",
                 "residual": float(failures), "tolerance": 0.0, "pass": int(failures == 0)})

    xi_max = cfg.s_max + 2
    triples, res = coeff.unitarity_identity_residuals(cfg.s_max, xi_max, coeff.forward_count_closed)
    # each triple is checked for xi <= alpha + beta + gamma + 2
    checked = np.arange(xi_max + 1) <= triples.sum(axis=1, keepdims=True) + 2
    worst = int(np.abs(res[checked]).max())
    rows.append({"name": "unitarity_coefficient_identity",
                 "params": f"alpha+beta+gamma <= {cfg.s_max}",
                 "residual": float(worst), "tolerance": 0.0, "pass": int(worst == 0)})

    u, v = np.array(((0.15, 0.25, 0.4, 0.1, 0.55), (0.45, 0.75, 0.6, 0.9, 0.85)))
    # (b - a) times the defect on [a, b), which has units of 1/length, is exactly the defect
    # on [0, 1) at nu (b - a): scale-free, as tol is, and with no quadrature node on [a, b)
    nu_unit = ker.ComplexParam(nu.lam * iv.width, nu.mu * iv.width)
    iso = float(np.abs(ker.isometry_residual(u, v, ker.Interval(0.0, 1.0), nu_unit)).max())
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


def _format(text: str) -> str:
    if text not in ("csv", "json"):
        raise ValueError(text)
    return text


# each flag with the RunConfig field it sets, the conversion of its value and that value's name
_FLAGS = {"--a": ("a", float, "FLOAT"), "--b": ("b", float, "FLOAT"),
          "--lambda": ("lam", float, "FLOAT"), "--mu": ("mu", float, "FLOAT"),
          "--n": ("n", int, "INT"), "--n-list": ("n_list", str, "N1,N2,..."),
          "--s-max": ("s_max", int, "INT"), "--tol": ("tol", float, "FLOAT"),
          "--format": ("fmt", _format, "{csv,json}"), "--out": ("out", str, "PATH")}
_NU, _IO = ("--a", "--b", "--lambda", "--mu"), ("--format", "--out")
# each command with its help and the flags it reads
_COMMANDS = {
    "coeffs": (cmd_coeffs, "closed-form vs brute-force coefficient tables", ("--s-max", *_IO)),
    "verify": (cmd_verify, "run all identity checks", (*_NU, "--s-max", "--tol", *_IO)),
    "converge": (cmd_converge, "product-to-kernel convergence study", (*_NU, "--n-list", *_IO)),
    "kernel": (cmd_kernel, "kernel values on a grid", (*_NU, "--n", "--s-max", *_IO)),
}


def _refuse(message: str) -> NoReturn:
    sys.stderr.write(f"invalid arguments: {message}\n")
    raise SystemExit(2)


def _help(command: str | None) -> NoReturn:
    if command is None:
        about = "Verification lab for causal rotation products and their limit kernel."
        rows = [f"{name:<10}{text}" for name, (_, text, _) in _COMMANDS.items()]
    else:
        about = f"{_COMMANDS[command][1]}; a VALUE is the token after its FLAG, or FLAG=VALUE"
        rows = ["-h, --help", *(f"{flag} {_FLAGS[flag][2]}" for flag in _COMMANDS[command][2])]
    sys.stdout.write(f"usage: causalprod {command or '<command>'} [-h] [FLAG VALUE ...]\n\n"
                     f"{about}\n\n" + "".join(f"  {row}\n" for row in rows))
    raise SystemExit(0)


def _parse(argv: Sequence[str]) -> tuple[str, dict]:
    """The command and the RunConfig fields its flags set, each at its last value; or SystemExit."""
    command, *rest = argv or [""]
    if command in ("-h", "--help"):
        _help(None)
    if command not in _COMMANDS:
        _refuse(f"need a command ({', '.join(_COMMANDS)}), got {command!r}")
    if "-h" in rest or "--help" in rest:
        _help(command)
    fields = {}
    tokens = iter(rest)
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in _COMMANDS[command][2]:
            _refuse(f"{command} reads no flag {flag!r}")
        # the value is the next token as written (none reads as "--"): --lambda -1e-3 is negative
        if not eq and (value := next(tokens, "--")).startswith("--"):
            _refuse(f"{flag} needs a value")
        field, convert, kind = _FLAGS[flag]
        try:
            fields[field] = convert(value)
        except ValueError:
            _refuse(f"{flag} needs {kind}, got {value!r}")
    return command, fields


def main(argv: Sequence[str] | None = None) -> int:
    command, fields = _parse(sys.argv[1:] if argv is None else argv)
    try:
        if "n_list" in fields:
            fields["n_list"] = parse_sizes(fields["n_list"])
        cfg = RunConfig(command, **fields)
    except ValueError as exc:
        sys.stderr.write(f"invalid configuration: {exc}\n")
        return 2
    try:
        # an overflowing or invalid float operation fails the check (FloatingPointError)
        with np.errstate(over="raise", invalid="raise"):
            return _COMMANDS[command][0](cfg)
    except ArithmeticError as exc:  # a series or estimate that cannot be computed
        sys.stderr.write(f"check failed: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
