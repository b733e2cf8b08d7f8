"""What a scenario run keeps: each full-length array once, shared as read-only views."""
from __future__ import annotations

from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from sirctl import csvio, noise
from sirctl.core import IntegratorConfig
from sirctl.noise import MeasuredSeries, NoiseConfig
from sirctl.scenarios import gap_table, preset, run_scenario


def _reachable(obj) -> list:
    """``obj`` and everything reachable from it through dataclass fields, dicts
    and tuples."""
    if is_dataclass(obj) and not isinstance(obj, type):
        children = [getattr(obj, f.name) for f in fields(obj)]
    elif isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (tuple, list)):
        children = list(obj)
    else:
        children = []
    return [obj] + [x for child in children for x in _reachable(child)]


def _arrays(obj) -> list[np.ndarray]:
    """Every ndarray reachable from ``obj``."""
    return [x for x in _reachable(obj) if isinstance(x, np.ndarray)]


def _buffers(arrays: list[np.ndarray], nodes: int) -> list[np.ndarray]:
    """One representative per group of memory-sharing arrays of at least ``nodes``
    rows; a zero-stride broadcast holds one value and no per-node memory."""
    groups: list[np.ndarray] = []
    for a in arrays:
        if a.ndim == 1 and len(a) >= nodes and a.strides[0] != 0:
            if not any(np.shares_memory(a, g) for g in groups):
                groups.append(a)
    return groups


SHORT = IntegratorConfig(step=0.01, horizon=150.0)
CASES = {
    # policy -> (distinct full-length buffers the run holds, of which its own)
    "fig1": (replace(preset("fig1"), integrator=SHORT),
             {"optimal": (6, 6), "robust": (8, 7)}),
    "fig1-noise-free": (replace(preset("fig1"), integrator=SHORT,
                                noise=NoiseConfig(kind="none")),
                        {"optimal": (6, 6), "robust": (6, 5)}),
    "policy-compare": (replace(preset("policy-compare"), integrator=SHORT),
                       {"optimal": (6, 6), "robust": (8, 7), "misestimated": (8, 7)}),
}


@pytest.fixture(scope="module", params=list(CASES))
def case(request):
    cfg, expected = CASES[request.param]
    return run_scenario(cfg), expected


class TestRetention:
    def test_distinct_full_length_buffers_per_policy(self, case):
        # optimal: t, s, i, r, u, stage (its signals are s and i); a policy
        # that reads noise adds its two signals and takes the optimal run's
        # time grid; no run holds its measured series
        art, expected = case
        earlier: list[np.ndarray] = []
        counts = {}
        for name, run in art.runs.items():
            held = _buffers(_arrays(run), len(run.result.trajectory))
            own = [b for b in held if not any(np.shares_memory(b, e) for e in earlier)]
            counts[name] = (len(held), len(own))
            earlier += own
        assert counts == expected

    def test_views_shared_with_the_trajectory(self, case):
        art, _ = case
        optimal = art.runs["optimal"].result
        for name, run in art.runs.items():
            traj, trace = run.result.trajectory, run.result.trace
            assert trace.node_t is traj.t and trace.node_u is traj.u
            assert trace.node_stage.dtype == np.int8
            assert np.shares_memory(traj.t, optimal.trajectory.t)
            reads = name != "optimal" and art.config.noise.kind != "none"
            assert (trace.node_s_seen is traj.s) is not reads
            assert (trace.node_i_seen is traj.i) is not reads

    def test_full_rows_splice_the_switch_rows(self, case):
        art, _ = case
        for run in art.runs.values():
            trace = run.result.trace
            t = trace.t
            assert len(t) == len(trace.node_t) + len(trace.switch_rows)
            assert np.all(np.diff(t) >= 0.0)
            nodes = np.ones(len(t), dtype=bool)
            nodes[[pos + k for k, (pos, *_) in enumerate(trace.switch_rows)]] = False
            for full, node in ((t, trace.node_t), (trace.u, trace.node_u),
                               (trace.stage, trace.node_stage),
                               (trace.s_seen, trace.node_s_seen),
                               (trace.i_seen, trace.node_i_seen)):
                assert full[nodes].tobytes() == node.tobytes()


class TestReadOnly:
    def test_writing_to_a_shared_array_raises(self, case):
        art, _ = case
        for run in art.runs.values():
            traj, trace = run.result.trajectory, run.result.trace
            for a in (traj.t, traj.s, traj.i, traj.r, traj.u,
                      trace.node_stage, trace.node_s_seen, trace.node_i_seen):
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 0.5


class TestMeasuredSeries:
    def test_built_only_where_written(self, case, monkeypatch, tmp_path):
        # neither a scenario run nor a gap table builds or holds a measured
        # series, and the trajectory writer builds none either: it measures
        # each run's nodes block by block, one call per block of rows, in order
        art, _ = case
        assert not any(isinstance(x, MeasuredSeries) for x in _reachable(art))
        built, measured = [], []
        original, measure = noise.measured_series_for, noise.MeasurementNoise.measure

        def spy(*args, **kwargs):
            built.append(args[1])
            return original(*args, **kwargs)

        def measure_spy(self, k, *args, **kwargs):
            measured.append(k)
            return measure(self, k, *args, **kwargs)

        monkeypatch.setattr(noise, "measured_series_for", spy)
        monkeypatch.setattr(noise.MeasurementNoise, "measure", measure_spy)
        art = run_scenario(art.config)
        rows = gap_table(art.config, [(1.1, 0.9), (1.0, 1.0)])
        assert len(rows) == 3 and built == []
        assert not any(isinstance(x, MeasuredSeries) for x in _reachable(rows))
        measured.clear()
        csvio.emit_csv(art, tmp_path)
        n, chunk = len(art.runs["optimal"].result.trajectory), csvio._CHUNK_ROWS
        assert built == []
        assert measured == [slice(lo, min(lo + chunk, n))
                            for lo in range(0, n, chunk)] * len(art.runs)
