"""sirctl benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Runs from the root of a checkout. One workload run is a closed loop with
one client: each pass is a fresh single-threaded Python process (see
worker.py) that makes the workload's CLI calls, and the next pass starts
only when the previous one has ended. Passes repeat, at least twice, while
the next one is expected to end within S seconds of the start; every pass
uses the same seed, so all passes must write byte-identical CSVs. Processes
that only set up run at the start and before every pass, so set-up is
sampled across the whole run.

Times are CPU seconds of the pass process at a fixed reference speed of
the host (see calibrate.py): each pass and each set-up is divided by the
host's slowdown, measured by a fixed kernel at the same time. On a shared
2-vCPU VM that lost up to 4% of its time to other tenants and whose speed
drifted by 15-50% within minutes, the middle half of ten runs' wall times
spread by 12-34% of their median; of their scaled CPU times, by 3-4%.
``cpu_s`` and ``setup_s`` are the medians over the run's untraced passes
and set-ups.
Raw CPU and wall times and the slowdowns are kept in the results file.

With ``--trace 0`` every pass is untraced and the end-to-end metrics are
reported. With ``--trace 1`` untraced and traced passes alternate; the
per-layer metrics come from the traced ones, the tracing overhead from the
difference, and traced CSVs must equal untraced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A run whose output
checks fail prints it with ``correct`` false and exits 1. A run that cannot
set the program up prints no result and exits 2. Every run also writes its
passes, checks and environment to ``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
# set-up-only processes at the start, after one unmeasured warm-up; set-up
# varies by a quarter from launch to launch, so a run needs many samples
FIRST_PROBES = 16
MIN_PASSES = 2
RUN_LIMIT_S = 170.0  # a run must end within 180 s
LIMITS = [
    "The page cache is not controlled: caches cannot be dropped without changing the machine.",
    "Each pass writes its CSVs to a fresh temporary directory in the checkout and deletes "
    "it after hashing.",
    "The machine may be shared; the CPU frequency and other tenants are not controlled.",
    "Times are CPU times of the pass process, which exclude time the hypervisor gives to "
    "other tenants, divided by the host's slowdown as a fixed kernel measures it; a pass "
    "is interrupted by that kernel about every 50 ms.",
]
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class SetupFailed(RuntimeError):
    """The program could not be imported or set up; no result is printed."""


def _spawn(workload: str, seed: int, work_dir: Path, deadline: float,
           trace: int = 0, setup_only: bool = False) -> tuple[dict | None, float, str]:
    """Run one worker; returns (its result or None, launch time, error text).

    The kernel runs ``calibrate.SETUP_PROBES`` times just before the launch
    and the worker runs it as often right after set-up; their mean scales
    the set-up time.
    """
    result_file = work_dir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(work_dir / "out"),
           "--result", str(result_file), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, **WORKER_ENV}
    speed = calibrate.sample(calibrate.SETUP_PROBES)
    launched = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired:
        return None, launched, "the pass timed out"
    if proc.returncode != 0 or not result_file.exists():
        return None, launched, proc.stderr[-4000:] or f"exit code {proc.returncode}"
    result = json.loads(result_file.read_text())
    result["setup_wall_s"] = result.pop("ready") - launched
    result["setup_s"] = result["setup_cpu_s"] / calibrate.slowdown(speed + result.pop("setup_probes"))
    return result, launched, ""


def _env_record(seed: int, worker: dict) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": worker.get("python"),
            "numpy": worker.get("numpy"), "platform": platform.platform(),
            "git_commit": commit, "seed": seed}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    RESULTS.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=RESULTS))
    try:
        setups, info = [], {}

        def probe() -> None:
            nonlocal info
            work_dir = Path(tempfile.mkdtemp(dir=scratch))
            info, launched, error = _spawn(name, seed, work_dir, deadline, setup_only=True)
            if info is None:
                raise SetupFailed(error)
            setups.append((info["setup_s"], info["setup_wall_s"]))

        for _ in range(FIRST_PROBES + 1):
            probe()
        del setups[0]  # the first launch also fills the bytecode cache

        passes, last = [], 0.0
        while len(passes) < MIN_PASSES or time.perf_counter() - start + last < seconds:
            began = time.perf_counter()
            probe()
            traced = bool(trace and len(passes) % 2)
            work_dir = Path(tempfile.mkdtemp(dir=scratch))
            res, launched, error = _spawn(name, seed, work_dir, deadline, trace=int(traced))
            shutil.rmtree(work_dir)
            if res is None:
                passes.append({"traced": traced, "error": error})
                break  # a crashed or timed-out pass ends the run
            res["traced"] = traced
            passes.append(res)
            setups.append((res["setup_s"], res["setup_wall_s"]))
            last = time.perf_counter() - began
            if time.perf_counter() + 2.0 * last > deadline:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return _report(name, seed, seconds, trace, passes, setups, info)


def _report(name, seed, seconds, trace, passes, setups, info) -> dict:
    n_ops = len(WORKLOADS[name].calls(seed, Path(".")))
    checks = []
    reference = None
    for k, p in enumerate(passes):
        if "error" in p:
            checks.append(f"pass {k}: {p['error']}")
            p["failed_ops"] = n_ops
            continue
        digests = [{f: v["sha256"] for f, v in op["files"].items()} for op in p["ops"]]
        bad = [o for o in p["ops"] if o["problems"]]
        checks += [f"pass {k}: {problem}" for o in bad for problem in o["problems"]]
        if reference is None:
            reference = digests
        elif digests != reference:
            kind = "traced" if p["traced"] else "untraced"
            checks.append(f"pass {k} ({kind}): CSV digests differ from pass 0")
            bad = p["ops"]
        p["failed_ops"] = len(bad)
    attempted = n_ops * len(passes)
    failed = sum(p["failed_ops"] for p in passes)

    ok = [p for p in passes if "error" not in p]
    plain = [p for p in ok if not p["traced"]]
    traced = [p for p in ok if p["traced"]]
    end_to_end, per_layer, wall_raw = {}, {}, None
    if plain:
        end_to_end = {
            "cpu_s": statistics.median(p["cpu_s"] for p in plain),
            "setup_s": statistics.median(scaled for scaled, _ in setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        accuracy = [a for p in plain for a in p["accuracy"]]
        if accuracy:
            end_to_end["oracle_rel_err"] = statistics.median(accuracy)
        wall_raw = statistics.median(p["wall_raw_s"] for p in plain)
    if trace and traced and plain:
        per_layer = {m: statistics.median(p["layers"][m] for p in traced)
                     for m in traced[0]["layers"]}
        per_layer["trace_overhead_s"] = (statistics.median(p["cpu_s"] for p in traced)
                                         - end_to_end["cpu_s"])
    elif trace:
        checks.append("no traced pass completed")

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "env": _env_record(seed, info), "limits": LIMITS,
        "correct": failed == 0 and not checks, "attempted": attempted, "failed": failed,
        "checks_failed": checks, "metrics": per_layer if trace else end_to_end,
        "end_to_end": end_to_end, "wall_raw_s_median": wall_raw,
        "setup_samples_s": [scaled for scaled, _ in setups],
        "setup_wall_samples_s": [raw for _, raw in setups],
        "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes],
    }
    stem = f"{name}-seed{seed}-trace{trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if trace:
        spans = [{"pass": k, "spans": p["spans"]} for k, p in enumerate(passes) if "spans" in p]
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(spans))
    return record


def _declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _summary(record: dict) -> str:
    m = record["end_to_end"]
    accuracy = ("estimate_rel_err" if record["workload"] == "estimate-sweep"
                else "optimal_cost_rel_err")
    fail_frac = record["failed"] / record["attempted"] if record["attempted"] else 1.0
    line = (f"[{record['workload']} seed={record['seed']} trace={record['trace']}] "
            f"cpu_s={m.get('cpu_s', float('nan')):.4f} s  "
            f"(wall, unscaled: {record['wall_raw_s_median'] or float('nan'):.4f} s)  "
            f"setup_s={m.get('setup_s', float('nan')):.4f} s  "
            f"peak_rss_mb={m.get('peak_rss_mb', float('nan')):.1f} MB  "
            f"{accuracy}={m.get('oracle_rel_err', float('nan')):.4e}  "
            f"fail_frac={fail_frac:.4g} ({record['failed']}/{record['attempted']})  "
            f"passes={len(record['passes'])}")
    checks = record["checks_failed"]
    return line + ("\n  checks: all passed" if not checks else
                   "".join(f"\n  check failed: {c.strip()}" for c in checks))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    declared = _declared_metrics(args.trace)
    records = []
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, args.trace)
        except SetupFailed as exc:
            print(f"{name}: set-up failed, no result:\n{exc}", file=sys.stderr)
            return 2
        if set(record["metrics"]) != set(declared) and record["correct"]:
            print(f"{name}: metrics {sorted(record['metrics'])} do not match "
                  f"BENCHMARK.json {sorted(declared)}", file=sys.stderr)
            return 2
        print(_summary(record), flush=True)
        records.append(record)

    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": ({m: {"value": v, "unit": declared[m]}
                     for m, v in records[0]["metrics"].items() if m in declared}
                    if len(records) == 1 else
                    {f"{r['workload']}.{m}": {"value": v, "unit": declared[m]}
                     for r in records for m, v in r["metrics"].items() if m in declared}),
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
