"""Cold-process benchmark of the causalprod command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Every operation is one ``causalprod.cli.main(argv)`` call in a fresh
interpreter, one child at a time: users run one command per process, so each
operation pays the cold cache fills, and nothing is warmed.  A pass runs the
workload's operations once; passes repeat until S seconds have gone by.
After each child exits, the correctness gate (gate.py) checks its artifact,
outside the timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics from the traced
ones (spans.py), with ``trace.overhead`` = traced / untraced mean pass time.
``--workload all`` runs every workload both ways and prints every metric.

Human-readable lines come first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.  The exit code is
non-zero when the gate fails or the checkout holds no ``src/causalprod``.
Each run's result, with the environment, is saved under .perfbench_work/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 120
SETUP_PROBES = 5     # import-only children per run, besides the operation children
MIN_PASSES = 3       # untraced passes per run, however long they take
# |cos| and |sin| of the phase of nu stay at least this large: lambda != 0 keeps the
# kernel's q-sum in play, and mu != 0 keeps converge's fitted rate near 1 (for
# real nu the O(1/N) error term vanishes and the rate is 2).
MIN_AXIS_COS = 0.25

sys.path.insert(0, str(HERE))
from gate import Op, check  # noqa: E402
from spans import COUNTERS, summarize  # noqa: E402

# Per workload: the seed-default nu and its operations as (command, takes nu and
# the interval, fixed flags).  The seed keeps |nu| and b - a = 1 and moves the
# phase of nu and the offset a, so the work per operation does not depend on it.
# BENCHMARK.json gates only converge and verify, which between them reach every
# layer: on a 2-vCPU shared host a pass varies up to ~2x in time, and only runs
# of about a minute average that out, which the run budget affords for two
# workloads.
# kernel-series and kernel-wide stay runnable by name and under --workload all.
WORKLOADS = {
    "converge": ((1.0, 0.5), [("converge", True, {"n_list": (64, 128, 256, 512)})]),
    "kernel-series": ((1.0, 0.5), [("kernel", True, {"n": 41, "s_max": 30})]),
    "verify": ((1.0, 0.5), [("coeffs", False, {"s_max": 8}), ("verify", True, {"s_max": 10})]),
    "kernel-wide": ((4.8, 6.4), [("kernel", True, {"n": 121, "s_max": 0})]),
}
FLAGS = {"n": "--n", "s_max": "--s-max", "n_list": "--n-list"}

# The span that should carry each workload's time, and its stated share.
DOMINANT = {"converge": ("product.double_product", 0.95),
            "kernel-series": ("coefficients.SeriesPolynomial.evaluate", 0.95),
            "verify": ("coefficients.unitarity_identity_residual", 0.90),
            "kernel-wide": ("kernel.limit_kernel", 0.89)}
SHARE_SLACK = 0.05  # a share up to this far below the stated one still covers it

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

SPAN_METRICS = [
    ("product.double_product", ("calls", "self_s")),
    ("product.kernel_estimate", ("self_s",)),
    ("product.ordering", ("self_s",)),
    ("product.convergence_study", ("self_s",)),
    ("coefficients.SeriesPolynomial.evaluate", ("calls", "self_s")),
    ("coefficients.truncated_kernel", ("calls", "self_s")),
    ("coefficients.causal_series", ("self_s",)),
    ("coefficients.unitarity_identity_residual", ("calls", "self_s")),
    ("coefficients.forward_count_closed", ("calls",)),
    ("coefficients.forward_count_brute", ("calls", "self_s")),
    ("coefficients.reversed_count_brute", ("calls", "self_s")),
    ("kernel.limit_kernel", ("calls", "self_s")),
    ("kernel.kernel_causal", ("calls", "self_s")),
    ("kernel.kernel_anticausal", ("calls", "self_s")),
    ("kernel.bessel_series", ("calls", "self_s")),
    ("kernel.gauss_legendre", ("calls", "self_s")),
    ("kernel.bessel_profile", ("calls", "self_s")),
    ("kernel.isometry_residual", ("self_s",)),
    ("kernel.lommel_residual", ("self_s",)),
    ("kernel.sonine_gegenbauer_residual", ("self_s",)),
    ("lattice.enumerate_paths", ("calls", "self_s")),
    ("lattice.essential_order", ("calls", "self_s")),
    ("lattice.enumerate_linear_extensions", ("calls", "self_s")),
    ("combinatorics.binomial", ("calls",)),
    ("combinatorics.catalan_recurrence_holds", ("calls", "self_s")),
    ("cli", ("self_s",)),
]


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    out = [(f"{span}.{kind}", "count" if kind == "calls" else "s")
           for span, kinds in SPAN_METRICS for kind in kinds]
    out += list(COUNTERS.items())
    out += [("cli.artifact_bytes", "B"), ("proc.cpu_s", "s"), ("trace.overhead", "ratio"),
            ("trace.dominant_share", "ratio"), ("check.max_abs_err", "1")]
    return out


def generate(workload: str, seed: int) -> list[Op]:
    """The workload's operations for this seed; the same seed gives the same operations."""
    rng = random.Random(f"{workload}/{seed}")
    default_nu, commands = WORKLOADS[workload]
    r = math.hypot(*default_nu)
    while True:
        theta = rng.uniform(-math.pi, math.pi)
        if min(abs(math.cos(theta)), abs(math.sin(theta))) >= MIN_AXIS_COS:
            break
    a = rng.randint(-64, 64) / 64  # dyadic, so b - a is exactly 1
    nu = {"a": a, "b": a + 1.0, "lam": r * math.cos(theta), "mu": r * math.sin(theta)}
    nu_argv = ["--a", repr(nu["a"]), "--b", repr(nu["b"]),
               "--lambda", repr(nu["lam"]), "--mu", repr(nu["mu"])]
    ops = []
    for command, takes_nu, params in commands:
        argv = [command, *(nu_argv if takes_nu else ())]
        for key, value in params.items():
            argv += [FLAGS[key], ",".join(map(str, value)) if isinstance(value, tuple) else str(value)]
        ops.append(Op(command, tuple(argv), {**nu, **params}))
    return ops


@dataclass
class Pass:
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    artifact_bytes: int = 0
    setups: list[float] = field(default_factory=list)
    rss_kb: list[int] = field(default_factory=list)
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    max_abs_err: float = 0.0
    layers: list[dict] = field(default_factory=list)


def spawn(workdir: Path, tag: str, argv: tuple[str, ...], trace_prefix: str) -> dict | None:
    """Run one child to completion; its report, or None if it wrote none."""
    report = workdir / f"{tag}.report.json"
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(report),
                               repr(time.monotonic()), trace_prefix, *argv],
                              cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0 or not report.exists():
        sys.stdout.write(f"child failed (exit {proc.returncode}): {proc.stderr.strip()[-400:]}\n")
        return None
    return json.loads(report.read_text())


def run_pass(ops: list[Op], traced: bool, workdir: Path, gate_rng: random.Random,
             index: int) -> Pass:
    res = Pass(traced=traced)
    for i, op in enumerate(ops):
        tag = f"p{index}-{i}"
        artifact = workdir / f"{tag}.artifact.json"
        prefix = str(workdir / f"{tag}.trace") if traced else "-"
        rep = spawn(workdir, tag, (*op.argv, "--out", str(artifact)), prefix)
        text = artifact.read_text() if artifact.exists() else None
        verdict = check(op, rep["rc"] if rep else None, text, gate_rng)
        if rep:
            res.wall_s += rep["command_s"]
            res.cpu_s += rep["cpu_s"]
            res.setups.append(rep["setup_s"])
            res.rss_kb.append(rep["maxrss_kb"])
            if traced:
                res.layers.append(summarize(Path(prefix)))
        if text is not None:
            res.artifact_bytes += len(text.encode())
        if not verdict.ok:
            res.failed += 1
            res.problems += [f"{op.command}: {p}" for p in verdict.problems]
        res.max_abs_err = max(res.max_abs_err, verdict.max_abs_err)
        for stale in workdir.glob(f"{tag}.*"):
            stale.unlink()
    return res


def environment() -> dict:
    src = ROOT / "src" / "causalprod"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "git": git_hash(),
            "source_sha256": digest.hexdigest()[:16]}


def git_hash() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def spread(values: list[float]) -> dict:
    """Sample count, mean, median, quartiles and the highest percentile with >= 10 samples beyond it."""
    vals = sorted(values)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
    tail = [p for p in (50, 75, 90, 95, 99) if len(vals) * (100 - p) / 100 >= 10]
    top = None
    if tail:
        p = tail[-1]
        top = {"p": p, "value": statistics.quantiles(vals, n=100)[p - 1]}
    return {"n": len(vals), "mean": statistics.fmean(vals), "median": statistics.median(vals),
            "q1": q1, "q3": q3, "top": top}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the workload for `seconds` and return its metrics, counts and gate outcome."""
    ops = generate(workload, seed)
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        workdir = Path(tmp)
        # The first probe only fills the bytecode cache, which users have warm.
        probes = [spawn(workdir, f"probe{k}", (), "-") for k in range(1 + SETUP_PROBES)]
        if None in probes:
            raise RuntimeError("causalprod.cli does not import in a child process")
        setups = [p["setup_s"] for p in probes[1:]]
        gate_rng = random.Random(f"gate/{workload}/{seed}")
        passes: list[Pass] = []
        start = time.monotonic()
        while True:
            traced = trace and len(passes) % 2 == 1
            passes.append(run_pass(ops, traced, workdir, gate_rng, len(passes)))
            enough = len({p.traced for p in passes}) == 2 if trace else len(passes) >= MIN_PASSES
            if enough and time.monotonic() - start >= seconds:
                break
    plain = [p for p in passes if not p.traced]
    attempted = len(ops) * len(passes)
    failed = sum(p.failed for p in passes)
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": {**environment(), "numpy": probes[0]["numpy"]},
        "operations": [" ".join(op.argv) for op in ops],
        "attempted": attempted, "failed": failed,
        "problems": sorted({m for p in passes for m in p.problems}),
        "pass_wall_s": [p.wall_s for p in plain],
        "wall": spread([p.wall_s for p in plain]),
        "setup": spread(setups + [s for p in plain for s in p.setups]),
        "max_abs_err": max(p.max_abs_err for p in passes),
    }
    if trace:
        result["dominant"] = dominant_report(workload, passes)
        result["layers"] = layer_metrics(passes, result["dominant"]["share"])
        metrics = {name: result["layers"][name] for name, _ in per_layer_names()}
        units = dict(per_layer_names())
    else:
        # The host alternates for seconds at a time between two speeds ~1.8x apart.
        # The median pass jumps between them; the mean moves with the share of
        # time spent in each, so it is the steadier figure per run.
        metrics = {"wall_s": result["wall"]["mean"],
                   "setup_s": result["setup"]["median"],
                   "peak_rss_mb": max((kb for p in plain for kb in p.rss_kb), default=0) / 1024}
        units = dict(END_TO_END)
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return result


def layer_metrics(passes: list[Pass], dominant_share: float) -> dict[str, float]:
    """Per-layer metrics: medians over traced passes of per-pass sums."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    per_pass: list[dict[str, float]] = []
    for p in traced:
        sums: dict[str, float] = {}
        for layer in p.layers:
            for span, kinds in SPAN_METRICS:
                for kind in kinds:
                    key = f"{span}.{kind}"
                    sums[key] = sums.get(key, 0) + layer[span][kind]
            for key, value in layer["counters"].items():
                if key.endswith("_max"):
                    sums[key] = max(sums.get(key, 0), value)
                else:
                    sums[key] = sums.get(key, 0) + value
        per_pass.append(sums)
    out = {key: statistics.median(s[key] for s in per_pass) for key in per_pass[0]}
    out["cli.artifact_bytes"] = statistics.median(p.artifact_bytes for p in traced)
    out["proc.cpu_s"] = statistics.median(p.cpu_s for p in plain)
    out["trace.overhead"] = (statistics.fmean(p.wall_s for p in traced)
                             / statistics.fmean(p.wall_s for p in plain))
    out["trace.dominant_share"] = dominant_share
    out["check.max_abs_err"] = max(p.max_abs_err for p in passes)
    return out


def dominant_report(workload: str, passes: list[Pass]) -> dict:
    span, stated = DOMINANT[workload]
    shares = [sum(layer[span]["incl_s"] for layer in p.layers) / p.wall_s
              for p in passes if p.traced and not p.failed]
    share = statistics.median(shares) if shares else 0.0
    return {"span": span, "stated": stated, "share": share,
            "covers": share >= stated - SHARE_SLACK}


def print_result(res: dict) -> None:
    out = sys.stdout
    out.write(f"== {res['workload']} seed={res['seed']} trace={res['trace']} "
              f"seconds={res['seconds']}\n")
    out.write(f"env {json.dumps(res['env'], sort_keys=True)}\n")
    for line in res["operations"]:
        out.write(f"op  causalprod {line}\n")
    w = res["wall"]
    top = (f"p{w['top']['p']}={w['top']['value']:.4f}" if w["top"]
           else "no percentile has >=10 samples beyond it")
    out.write(f"passes {w['n']} untraced; wall_s is their mean; median={w['median']:.4f} "
              f"q1={w['q1']:.4f} q3={w['q3']:.4f}; {top}\n")
    s = res["setup"]
    out.write(f"setup_s n={s['n']} q1={s['q1']:.4f} q3={s['q3']:.4f}\n")
    out.write(f"{'fail_share':<48} {res['failed'] / res['attempted']:<14.6g} 1 "
              f"({res['failed']} of {res['attempted']} operations)\n")
    for name, m in res["metrics"].items():
        out.write(f"{name:<48} {m['value']:<14.6g} {m['unit']}\n")
    if "dominant" in res:
        d = res["dominant"]
        verdict = "covers it" if d["covers"] else "DOES NOT cover it"
        out.write(f"dominant span {d['span']}: {d['share']:.1%} of traced wall time; "
                  f"stated ~{d['stated']:.0%}, so it {verdict}\n")
    gate = "ok" if not res["problems"] else "FAILED"
    out.write(f"gate {gate}; max_abs_err {res['max_abs_err']:.3g}\n")
    for problem in res["problems"]:
        out.write(f"  gate: {problem}\n")


def save(res: dict) -> None:
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{res['workload']}-seed{res['seed']}-trace{res['trace']}-{time.time_ns()}.json"
    (results / name).write_text(json.dumps(res, indent=1, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "causalprod" / "cli.py").is_file():
        sys.stderr.write(f"no src/causalprod/cli.py under {ROOT}; nothing to benchmark\n")
        return 2
    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    results = []
    try:
        for workload, trace in runs:
            res = measure(workload, args.seed, args.seconds, trace)
            save(res)
            print_result(res)
            results.append(res)
    except RuntimeError as exc:
        sys.stderr.write(f"benchmark could not run: {exc}\n")
        return 2
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
