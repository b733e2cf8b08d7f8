"""BENCHMARK.json agrees with the metrics and workloads the benchmark code defines."""
import json

from conftest import BENCH
from tracer import LAYER_METRICS
from workloads import WORKLOADS

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["paths"] == ["perfbench"]


def test_workloads():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]


def test_per_layer_metrics():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _) in LAYER_METRICS.items()]


def test_end_to_end_metrics():
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert names == ["cpu_s", "setup_s", "peak_rss_mb", "oracle_rel_err"]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
