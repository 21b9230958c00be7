"""Smoke tests of the two scripts under scripts/, each run in its own interpreter."""
import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_convergence_experiment(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = _run_script("convergence_experiment.py", "--n-list", "64,128,256", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    rates = {row["param"]: float(row["fitted_rate"]) for row in rows}
    # for real nu the O(1/N) error term vanishes and the midpoint error falls like 1/N^2
    assert 1.8 <= rates["real"] <= 2.2
    assert 0.9 <= rates["mixed"] <= 1.1
    assert 0.9 <= rates["imaginary"] <= 1.1


def test_convergence_experiment_refuses_a_bad_ladder(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = _run_script("convergence_experiment.py", "--n-list", "8,4", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.startswith("invalid configuration:") and proc.stderr.count("\n") == 1
    assert not out.exists()


def test_full_verification(tmp_path):
    outdir = tmp_path / "artifacts"
    proc = _run_script("full_verification.py", "--outdir", str(outdir))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for name in ("coefficient_tables.csv", "verify_report.json", "convergence.csv",
                 "kernel_grid.json"):
        assert (outdir / name).stat().st_size > 0
