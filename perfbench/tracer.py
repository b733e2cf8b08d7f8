"""Spans and counters recorded around sirctl's public entry points.

Tracing lives entirely in the benchmark: ``install`` replaces each traced
function or method with a wrapper, in every loaded ``sirctl`` module that
imported it, so calls between modules pass through the wrapper. A wrapper
records a span (name, start, end, parent) or, for the hottest leaf methods,
only a call count. Spans stay in memory until the pass ends.

A name that no longer exists in the program raises ``LookupError``: a
renamed entry point must fail the benchmark, not report zero.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

# span name -> (module, attribute path) of the traced entry point
SPANS = {
    "cli.main": ("sirctl.cli", "main"),
    "scenarios.run_scenario": ("sirctl.scenarios", "run_scenario"),
    "scenarios.sweep_h": ("sirctl.scenarios", "sweep_h"),
    "scenarios.gap_table": ("sirctl.scenarios", "gap_table"),
    "control.simulate_closed_loop": ("sirctl.control", "simulate_closed_loop"),
    "noise.build": ("sirctl.noise", "MeasurementNoise.build"),
    "noise.measured_series_for": ("sirctl.noise", "measured_series_for"),
    "noise.inject_noise": ("sirctl.noise", "inject_noise"),
    "core.integrate": ("sirctl.core", "integrate"),
    "estimation.build_regressor_batch": ("sirctl.estimation", "build_regressor_batch"),
    "estimation.estimate_params": ("sirctl.estimation", "estimate_params"),
    "estimation.estimation_error_bound": ("sirctl.estimation", "estimation_error_bound"),
    "analysis.build_cost_report": ("sirctl.analysis", "build_cost_report"),
    "analysis.gap_from_states": ("sirctl.analysis", "gap_from_states"),
    "analysis.gap_closed_form": ("sirctl.analysis", "gap_closed_form"),
    "csvio.emit_csv": ("sirctl.csvio", "emit_csv"),
    "csvio.write_trajectory_csv": ("sirctl.csvio", "write_trajectory_csv"),
    "csvio.write_trace_csv": ("sirctl.csvio", "write_trace_csv"),
    "csvio.write_estimates_csv": ("sirctl.csvio", "write_estimates_csv"),
    "csvio.write_costs_csv": ("sirctl.csvio", "write_costs_csv"),
}

# counter name -> method called too often per pass to keep a span per call
COUNTED = {
    "noise.measure.calls": ("sirctl.noise", "MeasurementNoise.measure"),
    "analysis.state_at.calls": ("sirctl.core", "Trajectory.state_at"),
}

# per-layer metric -> (unit, better, the end-to-end metric and workloads it should move)
LAYER_METRICS = {
    "control.simulate_closed_loop.calls": ("count", "lower", "cpu_s on policy-compare, gap-grid"),
    "control.simulate_closed_loop.steps": ("count", "lower", "cpu_s on policy-compare, gap-grid"),
    "control.simulate_closed_loop.self_s": ("s", "lower", "cpu_s on policy-compare, gap-grid"),
    "control.trace_rows": ("count", "lower", "cpu_s on policy-compare, gap-grid"),
    "control.events": ("count", "lower", "cpu_s on policy-compare, gap-grid"),
    "control.clamp_events": ("count", "lower", "cpu_s on policy-compare, gap-grid"),
    "control.optimal_runs": ("count", "lower", "cpu_s on gap-grid"),
    "scenarios.optimal_useful_ratio": ("ratio", "higher", "cpu_s on gap-grid"),
    "noise.measure.calls": ("count", "lower", "cpu_s on policy-compare"),
    "noise.build.self_s": ("s", "lower", "cpu_s on policy-compare"),
    "noise.measured_series_for.self_s": ("s", "lower", "cpu_s on policy-compare"),
    "noise.inject_noise.self_s": ("s", "lower", "cpu_s on policy-compare"),
    "core.integrate.calls": ("count", "lower", "cpu_s on estimate-sweep"),
    "core.integrate.steps": ("count", "lower", "cpu_s on estimate-sweep"),
    "core.integrate.self_s": ("s", "lower", "cpu_s on estimate-sweep"),
    "estimation.build_regressor_batch.self_s": ("s", "lower", "cpu_s on estimate-sweep"),
    "estimation.estimate_params.self_s": ("s", "lower", "cpu_s on estimate-sweep"),
    "estimation.estimation_error_bound.self_s": ("s", "lower", "cpu_s on estimate-sweep"),
    "estimation.singular": ("ratio", "lower", "cpu_s on estimate-sweep"),
    "analysis.build_cost_report.self_s": ("s", "lower", "cpu_s on gap-grid"),
    "analysis.gap_from_states.self_s": ("s", "lower", "cpu_s on gap-grid"),
    "analysis.gap_closed_form.self_s": ("s", "lower", "cpu_s on gap-grid"),
    "analysis.state_at.calls": ("count", "lower", "cpu_s on gap-grid"),
    "csvio.emit_csv.self_s": ("s", "lower", "cpu_s, peak_rss_mb on policy-compare"),
    "csvio.write_trajectory_csv.self_s": ("s", "lower", "cpu_s, peak_rss_mb on policy-compare"),
    "csvio.write_trace_csv.self_s": ("s", "lower", "cpu_s, peak_rss_mb on policy-compare"),
    "csvio.write_estimates_csv.self_s": ("s", "lower", "cpu_s on estimate-sweep"),
    "csvio.write_costs_csv.self_s": ("s", "lower", "cpu_s on policy-compare, gap-grid"),
    "csvio.bytes_written": ("bytes", "lower", "cpu_s, peak_rss_mb on policy-compare"),
    "csvio.rows_written": ("count", "lower", "cpu_s, peak_rss_mb on policy-compare"),
    "scenarios.run_scenario.self_s": ("s", "lower", "cpu_s, setup_s on all workloads"),
    "scenarios.sweep_h.self_s": ("s", "lower", "cpu_s, setup_s on all workloads"),
    "scenarios.gap_table.self_s": ("s", "lower", "cpu_s, setup_s on all workloads"),
    "cli.main.self_s": ("s", "lower", "cpu_s, setup_s on all workloads"),
    "trace_overhead_s": ("s", "lower", "none: traced cpu_s minus untraced cpu_s"),
}


def _resolve(module: str, path: str):
    """(owner, attribute name, raw attribute) of a traced name, or LookupError."""
    owner = sys.modules.get(module)
    if owner is None:
        raise LookupError(f"traced module {module} is not loaded")
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name, None)
        if owner is None:
            raise LookupError(f"traced name {module}.{path} no longer exists")
    raw = inspect.getattr_static(owner, attr, None)
    if raw is None:
        raise LookupError(f"traced name {module}.{path} no longer exists")
    return owner, attr, raw


class Tracer:
    """Spans, call counts and per-call result counters of one traced pass."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.optimal_configs: set[str] = set()
        self._open: list[int] = []

    def _span(self, name: str, fn, on_return=None, on_raise=None):
        spans, stack, clock = self.spans, self._open, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_raise is not None:
                    on_raise(exc)
                raise
            finally:
                spans[sid] = (name, start, clock(), parent)
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Patch every traced entry point of the loaded ``sirctl`` package."""
        hooks = self._hooks()
        for name, (module, path) in SPANS.items():
            self._patch(module, path,
                        lambda fn, n=name: self._span(n, fn, *hooks.get(n, (None, None))))
        for name, (module, path) in COUNTED.items():
            self._patch(module, path, lambda fn, n=name: self._counted(n, fn))

    @staticmethod
    def _patch(module: str, path: str, make) -> None:
        owner, attr, raw = _resolve(module, path)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
            return
        if isinstance(owner, type):
            setattr(owner, attr, make(raw))
            return
        wrapped = make(raw)
        # rebind the name wherever it was imported, so cross-module calls trace
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded_name == "sirctl" or loaded_name.startswith("sirctl."):
                for key, value in list(vars(loaded).items()):
                    if value is raw:
                        setattr(loaded, key, wrapped)

    def _hooks(self) -> dict:
        counts = self.counts
        from sirctl.estimation import SingularRegressorsError
        loop_signature = inspect.signature(_resolve("sirctl.control",
                                                    "simulate_closed_loop")[2])

        def closed_loop_done(args, kwargs, result) -> None:
            counts["control.steps"] += len(result.trajectory) - 1
            counts["control.trace_rows"] += len(result.trace.t)
            switching = result.trace.switching
            counts["control.events"] += (switching.t_b is not None) + (switching.t_h is not None)
            counts["control.clamp_events"] += result.trace.clamp_events
            bound = loop_signature.bind(*args, **kwargs).arguments
            if getattr(bound["kind"], "value", bound["kind"]) == "optimal":
                counts["control.optimal_runs"] += 1
                # the optimal policy ignores measurements, so noise is not part of its config
                self.optimal_configs.add(repr(sorted(
                    (k, v) for k, v in bound.items() if k != "noise")))

        def integrate_done(args, kwargs, result) -> None:
            counts["core.steps"] += len(result) - 1

        def estimate_failed(exc: BaseException) -> None:
            if isinstance(exc, SingularRegressorsError):
                counts["estimation.singular"] += 1

        return {
            "control.simulate_closed_loop": (closed_loop_done, None),
            "core.integrate": (integrate_done, None),
            "estimation.estimate_params": (None, estimate_failed),
        }

    def layer_metrics(self, bytes_written: int, rows_written: int,
                      slowdown: float = 1.0) -> dict[str, float]:
        """Per-layer metrics of this pass; ``trace_overhead_s`` is added by run.py.

        Self times are divided by ``slowdown``, the host's slowdown against
        the reference speed during the pass (see calibrate.py).
        """
        calls = Counter(span[0] for span in self.spans)
        self_s = self_times(self.spans)
        c = self.counts
        optimal_runs = c["control.optimal_runs"]
        estimates = calls["estimation.estimate_params"]
        metrics = {f"{name}.self_s": self_s.get(name, 0.0) / slowdown for name in SPANS}
        metrics.update({
            "control.simulate_closed_loop.calls": calls["control.simulate_closed_loop"],
            "control.simulate_closed_loop.steps": c["control.steps"],
            "control.trace_rows": c["control.trace_rows"],
            "control.events": c["control.events"],
            "control.clamp_events": c["control.clamp_events"],
            "control.optimal_runs": optimal_runs,
            "scenarios.optimal_useful_ratio":
                len(self.optimal_configs) / optimal_runs if optimal_runs else 1.0,
            "noise.measure.calls": c["noise.measure.calls"],
            "core.integrate.calls": calls["core.integrate"],
            "core.integrate.steps": c["core.steps"],
            "estimation.singular": c["estimation.singular"] / estimates if estimates else 0.0,
            "analysis.state_at.calls": c["analysis.state_at.calls"],
            "csvio.bytes_written": bytes_written,
            "csvio.rows_written": rows_written,
        })
        return {name: metrics[name] for name in LAYER_METRICS if name != "trace_overhead_s"}


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, float] = {}
    for sid, (name, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
    return totals
