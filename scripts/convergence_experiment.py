#!/usr/bin/env python3
"""Convergence-rate sweep over several generator parameters.

For each parameter the max midpoint error between the discrete product's
kernel estimate and the limit kernel is tabulated over a size ladder, with
the fitted decay exponent.  Writes one CSV and prints a summary.

Usage:
    python scripts/convergence_experiment.py [--out sweep.csv] [--n-list 25,50,100,200]
"""
from __future__ import annotations

import argparse
import csv
import sys

from causalprod.config import RunConfig, parse_sizes
from causalprod.kernel import ComplexParam
from causalprod.product import convergence_study

PARAMS = [
    ("real", ComplexParam(1.0, 0.0)),
    ("mixed", ComplexParam(1.0, 0.5)),
    ("imaginary", ComplexParam(0.0, 1.0)),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="convergence_sweep.csv")
    ap.add_argument("--n-list", default="25,50,100,200")
    ap.add_argument("--a", type=float, default=0.0)
    ap.add_argument("--b", type=float, default=1.0)
    args = ap.parse_args()

    try:
        cfg = RunConfig("converge", a=args.a, b=args.b, n_list=parse_sizes(args.n_list))
    except ValueError as exc:
        sys.stderr.write(f"invalid configuration: {exc}\n")
        return 2

    rows = []
    for tag, nu in PARAMS:
        study = convergence_study(cfg.n_list, cfg.interval, nu)
        for n, err, bound in zip(study.ns, study.max_errors, study.bounds):
            rows.append({"param": tag, "n": n, "max_error": err,
                         "bound": bound, "fitted_rate": study.fitted_rate})
        print(f"{tag:10s} rate {study.fitted_rate:+.3f}  "
              + "  ".join(f"e({n})={e:.3e}" for n, e in zip(study.ns, study.max_errors)))

    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.DictWriter(fh, fieldnames=["param", "n", "max_error", "bound", "fitted_rate"],
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    print("wrote", args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
