"""One benchmark pass in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR --result FILE
                                [--trace 0|1] [--setup-only]

Imports ``sirctl`` from ``src/`` of the checkout, builds the CLI parser and
resolves the workload's preset; the clock readings at that point end
set-up. It then makes the workload's CLI calls through ``sirctl.cli.main``,
records the peak resident memory, and only afterwards hashes and checks the
files the calls wrote. The result goes to FILE as JSON.

Peak memory is VmHWM from /proc/self/status (Linux), not ``ru_maxrss``:
Linux carries the launching process's peak into ``ru_maxrss`` across exec,
so run.py, which holds many results, would inflate it.

Times are CPU times of this process (see calibrate.py for why). Set-up is
the CPU time from launch until the first call can begin. A
``calibrate.SpeedProbe`` samples the host's speed throughout the pass;
``cpu_s`` is the pass's CPU time less the probe's own, divided by the
host's slowdown over the pass, and so are the traced self times. Right
after set-up the worker runs ``calibrate.SETUP_PROBES`` kernels, which
run.py uses to scale the set-up time the same way. Wall times, read with
``time.perf_counter`` (the system-wide monotonic clock, so run.py can
subtract its own launch time), are recorded unscaled for reference.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy
    import sirctl
    import sirctl.cli
    import sirctl.scenarios
    location = Path(sirctl.__file__).resolve()
    if src.resolve() not in location.parents:
        raise ImportError(f"sirctl was imported from {location}, not from {src}")
    return numpy, sirctl


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM in /proc/self/status")


def _outputs(op_dir: Path) -> dict:
    """SHA-256, bytes and data rows of every CSV a call wrote."""
    files = {}
    for path in sorted(op_dir.rglob("*.csv")):
        sha, size, lines = hashlib.sha256(), 0, 0
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                sha.update(block)
                size += len(block)
                lines += block.count(b"\n")
        files[str(path.relative_to(op_dir))] = {
            "sha256": sha.hexdigest(), "bytes": size, "rows": lines - 1}
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    numpy, sirctl = _import_program()
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    calls = workload.calls(args.seed, args.out)
    cli_parser = sirctl.cli.build_parser()
    for call in calls:
        cli_parser.parse_args(call)
    workload.resolve(sirctl, args.seed)
    ready, setup_cpu = time.perf_counter(), time.process_time()
    import calibrate

    result = {"ready": ready, "setup_cpu_s": setup_cpu,
              "setup_probes": calibrate.sample(calibrate.SETUP_PROBES),
              "python": sys.version.split()[0], "numpy": numpy.__version__}
    if not args.setup_only:
        result.update(_run_pass(workload, calls, sirctl, args))
    args.result.write_text(json.dumps(result))
    return 0


def _run_pass(workload, calls, sirctl, args) -> dict:
    from calibrate import SpeedProbe, slowdown
    probe = SpeedProbe()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(clock=probe.clock)
        tracer.install()
    entry = sirctl.cli.main

    outcomes = []
    probe.start()
    start, wall_start = probe.clock(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for call in calls:
                try:
                    outcomes.append({"exit": entry(call)})
                except Exception:
                    outcomes.append({"error": traceback.format_exc()})
        cpu = probe.clock() - start
        wall = time.perf_counter() - wall_start
    finally:
        probe.stop()
    slow = slowdown(probe.samples)
    peak_rss_mb = _peak_rss_mb()

    accuracy = []
    for call, outcome in zip(calls, outcomes):
        op_dir = Path(call[call.index("--out") + 1])
        problems = []
        if outcome.get("exit") != 0:
            problems.append(outcome.get("error") or f"exit code {outcome['exit']}")
        else:
            try:
                problems += workload.check(op_dir)
                accuracy.append(workload.accuracy(op_dir))
            except (OSError, ValueError, KeyError, StopIteration) as exc:
                problems.append(f"unreadable output: {exc!r}")
        outcome["problems"] = problems
        outcome["files"] = _outputs(op_dir) if op_dir.exists() else {}

    result = {"cpu_s": cpu / slow, "cpu_raw_s": cpu, "wall_raw_s": wall, "slowdown": slow,
              "probes": len(probe.samples), "probe_cpu_s": probe.spent,
              "peak_rss_mb": peak_rss_mb, "ops": outcomes, "accuracy": accuracy}
    if tracer is not None:
        files = [f for o in outcomes for f in o["files"].values()]
        result["layers"] = tracer.layer_metrics(
            bytes_written=sum(f["bytes"] for f in files),
            rows_written=sum(f["rows"] for f in files), slowdown=slow)
        result["spans"] = tracer.spans
    return result


if __name__ == "__main__":
    sys.exit(main())
