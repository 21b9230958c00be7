"""Run one causalprod CLI command in this fresh interpreter and report its own timings.

    python3 perfbench/child.py REPORT SPAWN_T TRACE_PREFIX [CLI ARGS...]

SPAWN_T is the parent's ``time.monotonic()`` just before it started this
process; CLOCK_MONOTONIC is system-wide, so ``setup_s`` covers interpreter
start-up and the import of ``causalprod.cli``.  ``command_s`` runs from the
import to ``cli.main`` returning, artifact written.  TRACE_PREFIX ``-``
runs untraced; otherwise spans are recorded and written to that prefix
after the command returns.  The report is one JSON object written to REPORT.
"""
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    report_path, spawn_t, trace_prefix, *argv = sys.argv[1:]
    sys.path.insert(0, str(ROOT / "src"))
    import causalprod.cli as cli
    imported = time.monotonic()
    module = Path(cli.__file__).resolve()
    if not module.is_relative_to(ROOT / "src"):
        sys.stderr.write(f"imported {module}, not the checkout's src/\n")
        return 3
    recorder = None
    if trace_prefix != "-":
        from spans import Recorder
        recorder = Recorder()
        recorder.install()
    import numpy
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv) if argv else 0
    except SystemExit as exc:  # argparse rejects its input this way
        rc = exc.code if isinstance(exc.code, int) else 2
    t1 = time.perf_counter()
    cpu1 = time.process_time()
    if recorder is not None:
        recorder.dump(Path(trace_prefix))
    report = {
        "rc": rc,
        "setup_s": imported - float(spawn_t),
        "command_s": t1 - t0,
        "cpu_s": cpu1 - cpu0,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    Path(report_path).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
