"""Tests of the benchmark itself: the gate's negative controls, the generator, the tracer.

    python3 -m pytest perfbench -q

Each negative control first shows that the gate accepts the untouched
artifact, then that it rejects the defective one.
"""
from __future__ import annotations

import json
import math
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from causalprod import cli  # noqa: E402
from gate import Op, check  # noqa: E402
from run import END_TO_END, WORKLOADS, generate, per_layer_names  # noqa: E402
from spans import summarize  # noqa: E402


def _artifact(tmp_path: Path, op: Op) -> str:
    out = tmp_path / "artifact.json"
    rc = cli.main([*op.argv, "--out", str(out)])
    assert rc == 0
    return out.read_text()


def _op(command: str, argv: list[str], **params) -> Op:
    return Op(command, (command, *argv), params)


def test_gate_rejects_kernel_beyond_stable_range(tmp_path):
    # |nu|(b - a) = 20: the power series loses every digit to cancellation.
    op = _op("kernel", ["--lambda", "20", "--mu", "0", "--n", "41", "--s-max", "0"],
             a=0.0, b=1.0, lam=20.0, mu=0.0, n=41, s_max=0)
    verdict = check(op, 0, _artifact(tmp_path, op), random.Random(0))
    assert not verdict.ok
    assert "off mpmath" in verdict.problems[0]
    assert verdict.max_abs_err > 1e-3


def test_gate_accepts_kernel_at_workload_size(tmp_path):
    op = generate("kernel-wide", 0)[0]
    verdict = check(op, 0, _artifact(tmp_path, op), random.Random(0))
    assert verdict.ok, verdict.problems
    assert verdict.max_abs_err < 1e-9


def test_gate_rejects_perturbed_converge_error(tmp_path):
    base = generate("converge", 0)[0]
    op = Op("converge", (*base.argv[:-1], "25,50,100,200"), {**base.params, "n_list": (25, 50, 100, 200)})
    text = _artifact(tmp_path, op)
    assert check(op, 0, text, random.Random(0)).ok
    doc = json.loads(text)
    doc["rows"][1]["max_error"] *= 1.01  # still decreasing, rate still near 1
    verdict = check(op, 0, json.dumps(doc), random.Random(0))
    assert not verdict.ok
    assert any("fitted rate" in p for p in verdict.problems)


def test_gate_rejects_flipped_coefficient_match(tmp_path):
    op = generate("verify", 0)[0]
    text = _artifact(tmp_path, op)
    assert check(op, 0, text, random.Random(0)).ok
    doc = json.loads(text)
    doc["rows"][len(doc["rows"]) // 2]["match"] = 0
    verdict = check(op, 0, json.dumps(doc), random.Random(0))
    assert not verdict.ok


@pytest.mark.parametrize("returncode, text", [(1, "{\"schema\": 1}"), (0, None), (0, "[]"), (0, "{")])
def test_gate_rejects_bad_exit_or_unreadable_artifact(returncode, text):
    verdict = check(generate("verify", 0)[0], returncode, text, random.Random(0))
    assert not verdict.ok


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_seeded_and_keeps_the_work_fixed(workload):
    first, again, other = generate(workload, 7), generate(workload, 7), generate(workload, 8)
    assert first == again
    assert [op.argv for op in first] != [op.argv for op in other]
    (lam0, mu0), _ = WORKLOADS[workload]
    for op in first + other:
        p = op.params
        assert p["b"] - p["a"] == 1.0
        assert math.isclose(math.hypot(p["lam"], p["mu"]), math.hypot(lam0, mu0), rel_tol=1e-12)
        assert abs(p["lam"]) >= 0.25 * math.hypot(lam0, mu0)


def test_traced_child_records_spans_and_counts(tmp_path):
    report, prefix = tmp_path / "report.json", tmp_path / "trace"
    argv = ["kernel", "--n", "5", "--s-max", "2", "--out", str(tmp_path / "k.json")]
    subprocess.run([sys.executable, str(HERE / "child.py"), str(report), repr(time.monotonic()),
                    str(prefix), *argv], cwd=ROOT, check=True, timeout=60)
    assert json.loads(report.read_text())["rc"] == 0
    layers = summarize(prefix)
    assert layers["kernel.limit_kernel"]["calls"] == 25
    assert layers["coefficients.truncated_kernel"]["calls"] == 25
    assert layers["coefficients.SeriesPolynomial.evaluate"]["calls"] == 2 * 20
    assert layers["combinatorics.binomial"]["calls"] > 0
    assert layers["counters"]["coefficients.series_terms"] > 0
    for span in ("cli", "kernel.limit_kernel", "kernel.bessel_series"):
        assert 0 < layers[span]["self_s"] <= layers[span]["incl_s"]


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_names()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
