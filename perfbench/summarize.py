"""Summarize benchmark results files across seeds.

    python3 perfbench/summarize.py [--results DIR] [--write-baseline FILE]

For every workload, reads the untraced results files in DIR (default
``perfbench/results``; one file per seed) and prints, per end-to-end metric,
the median over seeds, the first and third quartile as
``statistics.quantiles(values, n=4)`` gives them, and their distance as a
share of the median, against the metric's bound in BENCHMARK.json. Traced
results files contribute the median of each per-layer metric, listed with
the end-to-end metric and workloads it should move. ``--write-baseline``
stores all of it, with each workload's reason and the environment record of
the runs, as a JSON reference for later changes.
"""
from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def summarize(results: Path) -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    records = [json.loads(p.read_text()) for p in sorted(results.glob("*-trace[01].json"))]
    summary = {}
    for workload, why in ((w["name"], w["why"]) for w in spec["workloads"]):
        plain = [r for r in records if r["workload"] == workload and r["trace"] == 0]
        traced = [r for r in records if r["workload"] == workload and r["trace"] == 1]
        entry = {"why": why, "seeds": sorted(r["seed"] for r in plain),
                 "all_correct": all(r["correct"] for r in plain + traced),
                 "end_to_end": {}, "per_layer": {}}
        if len(plain) >= 2:
            for metric in spec["end_to_end"]:
                values = [r["metrics"][metric["name"]] for r in plain]
                entry["end_to_end"][metric["name"]] = {
                    **_quartiles(values), "bound": metric["bound"], "unit": metric["unit"]}
        for metric in spec["per_layer"] if traced else ():
            entry["per_layer"][metric["name"]] = {
                "median": statistics.median(r["metrics"][metric["name"]] for r in traced),
                "unit": metric["unit"], "should_move": LAYER_METRICS[metric["name"]][2]}
        if plain:
            entry["env"] = {k: v for k, v in plain[0]["env"].items() if k != "seed"}
        summary[workload] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results", type=Path, default=HERE / "results")
    parser.add_argument("--write-baseline", type=Path)
    args = parser.parse_args(argv)
    summary = summarize(args.results)
    for workload, entry in summary.items():
        print(f"{workload}: {len(entry['seeds'])} seeds, all correct: {entry['all_correct']}")
        for name, q in entry["end_to_end"].items():
            flag = "" if q["spread"] < q["bound"] / 3 else "  <-- above a third of the bound"
            print(f"  {name:15s} median {q['median']:.6g} {q['unit']}  "
                  f"q1 {q['q1']:.6g}  q3 {q['q3']:.6g}  "
                  f"spread {q['spread']:.4f} (bound {q['bound']}){flag}")
    if args.write_baseline:
        args.write_baseline.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
