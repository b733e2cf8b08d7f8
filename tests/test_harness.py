"""Noise injection, scenario orchestration, CSV schemas, and the CLI."""
from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sirctl import csvio, scenarios
from sirctl.cli import main
from sirctl.control import (
    ClosedLoopResult,
    FeasibilityReport,
    PolicyKind,
    PolicyTrace,
    SwitchingTimes,
)
from sirctl.core import EpidemicParams, IntegratorConfig, SirState, Trajectory, integrate
from sirctl.csvio import (
    COSTS_HEADER,
    ESTIMATES_HEADER,
    SEEN_HEADER,
    TRACE_HEADER,
    TRAJECTORY_HEADER,
    emit_csv,
    read_costs_csv,
    read_estimates_csv,
    read_trajectory_csv,
    write_costs_csv,
    write_estimates_csv,
    write_trace_csv,
    write_trajectory_csv,
)
from sirctl.core import rhs
from sirctl.estimation import (
    BoundInputs,
    MeasuredSample,
    SingularRegressorsError,
    build_regressor_batch,
    composite_constant,
    estimate_params,
    estimation_error_bound,
)
from sirctl.noise import (
    MeasurementNoise,
    NoiseConfig,
    derive_seed,
    inject_noise,
    measured_series_for,
    standard_draws,
)
from sirctl.scenarios import (
    ConfigError,
    CostRow,
    EstimateRow,
    EstimationWindow,
    InflationConfig,
    PRESETS,
    PolicyRun,
    ScenarioConfig,
    bound_sweep_noisy_config,
    gap_table,
    preset,
    run_scenario,
    sweep_h,
    sweep_trajectory,
)


@pytest.fixture(scope="module")
def short_traj():
    params = EpidemicParams(beta=0.16, gamma=1.0 / 30.0)
    init = SirState(t=0.0, s=1.0 - 1e-5, i=1e-5, r=0.0)
    return integrate(params, 0.0, init, IntegratorConfig(step=0.01, horizon=60.0))


@pytest.fixture(scope="module")
def small_scenario():
    """Reduced-horizon three-policy scenario for fast orchestration tests."""
    return replace(preset("policy-compare"), name="compare-small",
                   integrator=IntegratorConfig(step=0.01, horizon=250.0))


class TestInjectNoise:
    def test_none_is_identity(self, short_traj):
        meas = inject_noise(short_traj, NoiseConfig(kind="none"), seed=1)
        assert np.array_equal(meas.s_hat, short_traj.s)
        assert np.array_equal(meas.i_hat, short_traj.i)
        assert meas.v_max_bound == 0.0

    def test_reproducible_under_seed(self, short_traj):
        cfg = NoiseConfig(kind="snr_db", snr_db=55.0)
        a = inject_noise(short_traj, cfg, seed=7)
        b = inject_noise(short_traj, cfg, seed=7)
        c = inject_noise(short_traj, cfg, seed=8)
        assert np.array_equal(a.s_hat, b.s_hat)
        assert not np.array_equal(a.s_hat, c.s_hat)

    def test_truncated_at_three_sigma(self, short_traj):
        cfg = NoiseConfig(kind="snr_db", snr_db=30.0)
        meas = inject_noise(short_traj, cfg, seed=5)
        v_s = np.abs(meas.s_hat - short_traj.s)
        assert np.max(v_s) <= 3.0 * meas.sigma_s[0] + 1e-15

    def test_snr_power_close_to_target(self, short_traj):
        cfg = NoiseConfig(kind="snr_db", snr_db=40.0)
        meas = inject_noise(short_traj, cfg, seed=5)
        v = meas.s_hat - short_traj.s
        snr = 10.0 * math.log10(float(np.mean(short_traj.s ** 2) / np.mean(v ** 2)))
        assert abs(snr - 40.0) <= 1.0

    def test_scaled_variance_tracks_state(self, short_traj):
        cfg = NoiseConfig(kind="scaled_variance", divisor=100.0)
        meas = inject_noise(short_traj, cfg, seed=5)
        assert meas.sigma_s[0] == pytest.approx(math.sqrt(short_traj.s[0] / 100.0))

    @pytest.mark.parametrize("noise_cfg", [
        NoiseConfig(kind="none"),
        NoiseConfig(kind="snr_db", snr_db=55.0),
        NoiseConfig(kind="scaled_variance", divisor=1e4),
    ], ids=lambda c: c.kind)
    def test_series_equals_per_node_measure(self, noise_cfg, monkeypatch, tmp_path):
        # the offline vector form reproduces the loop's online reads, the
        # per-node offsets of ``offset_reader``, bitwise
        cfg = replace(preset("fig1"), noise=noise_cfg,
                      policies=("optimal", "robust", "misestimated"),
                      integrator=IntegratorConfig(step=0.01, horizon=150.0))
        optimal, noise = scenarios._optimal_run(cfg)
        runs = scenarios._run_policies(cfg, optimal, noise).runs
        assert runs["robust"].result.trace.switching.t_b is not None
        written: dict[str, np.ndarray] = {}
        # the writer's blocks of column slices, joined into whole columns
        monkeypatch.setattr(csvio, "_write", lambda path, header, kinds, blocks:
                            written.update(zip(header, map(np.concatenate, zip(*blocks)))))
        for name, run in runs.items():
            traj, trace = run.result.trajectory, run.result.trace
            # the columns the trajectory writer formats, signed zeros included
            write_trajectory_csv(tmp_path / f"trajectory_{name}.csv", run)
            if noise_cfg.kind == "none":
                # a noise-free loop reads nothing: the measured columns are the nodes
                assert written["S_meas"].tobytes() == traj.s.tobytes()
                assert written["I_meas"].tobytes() == traj.i.tobytes()
            else:
                # the offsets without and with delta at every node
                reads = {}
                for margin in (False, True):
                    read = noise.offset_reader(margin)
                    reads[margin] = np.array([read(k, s, i) for k, (s, i) in
                                              enumerate(zip(traj.s.tolist(), traj.i.tolist()))])
                assert (written["S_meas"] - traj.s).tobytes() == reads[False][:, 0].tobytes()
                assert (written["I_meas"] - traj.i).tobytes() == reads[False][:, 1].tobytes()
            series = measured_series_for(noise, traj)
            assert series.s_hat.tobytes() == written["S_meas"].tobytes()
            assert series.i_hat.tobytes() == written["I_meas"].tobytes()
            # the sigma columns: a slice of epochs reads as their index array
            stds = noise.measure(np.arange(len(traj)), traj.s, traj.i, std=True)[2:]
            assert np.array_equal(series.sigma_s, stds[0])
            assert np.array_equal(series.sigma_i, stds[1])
            # delta reaches the loop through the robust signals: the node rows
            # (the last trace row at each node time) hold min(x + offset, 1)
            if name == "optimal" or noise_cfg.kind == "none":
                off_s = off_i = np.zeros(len(traj))
            else:
                off_s, off_i = reads[name == "robust"].T
            rows = np.searchsorted(trace.t, traj.t, side="right") - 1
            assert np.minimum(traj.s + off_s, 1.0).tobytes() == trace.s_seen[rows].tobytes()
            assert np.minimum(traj.i + off_i, 1.0).tobytes() == trace.i_seen[rows].tobytes()

    @pytest.mark.parametrize("noise_cfg", [
        NoiseConfig(kind="none"),
        NoiseConfig(kind="snr_db", snr_db=20.0),
        NoiseConfig(kind="scaled_variance", divisor=10.0),
    ], ids=lambda c: c.kind)
    @pytest.mark.parametrize("margin", [False, True])
    def test_array_measure_equals_scalar_measure(self, noise_cfg, margin):
        # the per-node reader is the array form's offsets in every output
        # bit, signed zeros and NaN included
        s = np.array([0.0, -0.0, -1e-3, np.nan, 1.5, 0.5, 1e-320, -1e-320, 1.0, 0.25])
        i = np.array([-0.0, 0.0, np.nan, -2.0, 0.1, 1.2, 0.0, 3e-6, -1e-320, 1e-9])
        noise = MeasurementNoise.build(noise_cfg, len(s) + 3, seed=11,
                                       reference=self._reference())
        nodes = (np.arange(3, 3 + len(s)), slice(3, 3 + len(s)))
        if noise_cfg.kind == "none":
            # no reader: the array form passes the states through with zero deltas
            with pytest.raises(ValueError, match="none"):
                noise.offset_reader(margin)
            for k in nodes:
                s_hat, i_hat, d_s, d_i = noise.measure(k, s, i)
                assert s_hat.tobytes() == s.tobytes() and i_hat.tobytes() == i.tobytes()
                assert not np.any(d_s) and not np.any(d_i)
            return
        read = noise.offset_reader(margin)
        scalars = np.array([read(k, ss, ii) for k, ss, ii
                            in zip(range(3, 3 + len(s)), s.tolist(), i.tolist())])
        for k in nodes:
            arrays = noise.measure(k, s, i)
            assert all(isinstance(a, np.ndarray) and a.shape == s.shape for a in arrays)
            for col, off in enumerate(self._offsets(arrays, s, i, margin)):
                assert off.tobytes() == scalars[:, col].tobytes(), col

    @staticmethod
    def _reference() -> Trajectory:
        # the signal-power reference of snr_db noise
        return integrate(EpidemicParams(beta=0.16, gamma=0.063), 0.0,
                         SirState(t=0.0, s=0.99, i=0.01, r=0.0),
                         IntegratorConfig(step=0.1, horizon=1.0))

    @staticmethod
    def _offsets(reads, s, i, margin):
        # the closed loop's offsets from an array read, as it forms them
        s_hat, i_hat, d_s, d_i = reads
        off_s, off_i = s_hat - s, i_hat - i
        if margin:
            off_s += d_s
            off_i += d_i
        return off_s, off_i

    def test_reader_bitwise_equal_to_array_measure(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        values = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0),
                           st.floats(-1e-300, 1e-300))
        configs = st.one_of(
            st.builds(lambda db: NoiseConfig(kind="snr_db", snr_db=db), st.floats(-20.0, 80.0)),
            st.builds(lambda d: NoiseConfig(kind="scaled_variance", divisor=d),
                      st.floats(1e-3, 1e6)))
        reference = self._reference()

        @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @hypothesis.given(cfg=configs, margin=st.booleans(), seed=st.integers(0, 2**32),
                          first=st.integers(0, 3),
                          states=st.lists(st.tuples(values, values), min_size=1, max_size=10))
        def check(cfg, margin, seed, first, states):
            noise = MeasurementNoise.build(cfg, first + len(states), seed, reference=reference)
            s, i = np.array(states).T
            offsets = self._offsets(noise.measure(slice(first, None), s, i), s, i, margin)
            read = noise.offset_reader(margin)
            scalars = np.array([read(first + k, ss, ii) for k, (ss, ii) in enumerate(states)])
            assert offsets[0].tobytes() == scalars[:, 0].tobytes()
            assert offsets[1].tobytes() == scalars[:, 1].tobytes()

        check()

    def test_vanishing_noise_recovers_noise_free_estimates(self):
        cfg = replace(preset("param-est"),
                      estimation=EstimationWindow(alphas=(1, 50)),
                      noise=NoiseConfig(kind="snr_db", snr_db=300.0))
        quiet = sweep_h(cfg)
        clean = sweep_h(replace(cfg, noise=NoiseConfig(kind="none")))
        for q, c in zip(quiet, clean):
            assert abs(q.beta_hat - c.beta_hat) <= 1e-6
            assert abs(q.gamma_hat - c.gamma_hat) <= 1e-6


class TestRunScenario:
    def test_zero_noise_zero_inflation_collapses_policies(self):
        cfg = replace(preset("policy-compare"), name="compare-collapse",
                      integrator=IntegratorConfig(step=0.01, horizon=200.0),
                      noise=NoiseConfig(kind="none"),
                      inflation=InflationConfig(beta_mult=1.0, gamma_mult=1.0),
                      misestimation=InflationConfig(beta_mult=1.0, gamma_mult=1.0))
        art = run_scenario(cfg)
        i_opt = art.runs["optimal"].result.trajectory.i
        for name in ("robust", "misestimated"):
            assert np.array_equal(art.runs[name].result.trajectory.i, i_opt)

    def test_estimation_derived_bounds_bracket_truth(self):
        cfg = replace(
            preset("policy-compare"), name="compare-estimated",
            integrator=IntegratorConfig(step=0.01, horizon=120.0),
            noise=NoiseConfig(kind="none"),
            inflation=InflationConfig(mode="estimated"),
            estimation=EstimationWindow(i=80.0, j=90.0, alphas=(1,)),
            policies=("optimal", "robust"))
        art = run_scenario(cfg)
        assumed = art.runs["robust"].assumed
        assert 0.0 < cfg.params.beta <= assumed.beta
        assert 0.0 < assumed.gamma <= cfg.params.gamma
        assert art.runs["robust"].result.report.feasible

    def test_nonphysical_estimated_interval_is_config_error(self):
        # the default window (80, 90), inside the optimal run's stage 2, gives
        # (beta_max, gamma_min) = (2,238.86, -2,238.56) at alpha 10; with
        # gamma_min < 0 the planned herd condition beta*S <= gamma can never fire
        cfg = replace(preset("policy-compare"),
                      integrator=IntegratorConfig(step=0.01, horizon=120.0),
                      inflation=InflationConfig(mode="estimated"),
                      estimation=EstimationWindow(alphas=(10,)),
                      policies=("optimal", "robust"))
        with pytest.raises(ConfigError, match="estimation gives .*gamma_min=-"):
            run_scenario(cfg)

    @staticmethod
    def _through_json(cfg):
        return ScenarioConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))

    def test_config_roundtrip_through_dict(self, small_scenario):
        assert self._through_json(small_scenario) == small_scenario

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_roundtrip_through_json(self, name):
        assert self._through_json(preset(name)) == preset(name)

    def test_random_config_roundtrip_through_json(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        from test_control import mults, noises

        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
        @hypothesis.given(name=st.sampled_from(sorted(PRESETS)), noise=noises,
                          inflation=mults, misestimation=mults,
                          i_bar=st.floats(0.005, 0.3), u_max=st.floats(0.01, 1.0),
                          seed=st.integers(0, 2**63))
        def check(name, **changes):
            cfg = replace(preset(name), **changes)
            assert self._through_json(cfg) == cfg

        check()

    def test_dict_edits_leave_the_config_untouched(self):
        # --set edits this dict; fig1 shares the class-level misestimation default
        raw = preset("fig1").to_dict()
        raw["inflation"]["beta_mult"] = raw["misestimation"]["gamma_mult"] = 2.5
        assert preset("fig1").inflation.beta_mult == 1.05
        assert preset("fig1").misestimation.gamma_mult == 1.05

    def test_rejects_bad_policy_name(self):
        with pytest.raises(ConfigError):
            replace(preset("fig1"), policies=("optimal", "bogus"))

    def test_rejects_bad_threshold(self):
        with pytest.raises(ConfigError):
            replace(preset("fig1"), i_bar=0.0)


class TestGapTable:
    PAIRS = [(1.02, 0.98), (1.1, 0.9)]  # the second never reaches its herd condition

    @pytest.fixture(scope="class")
    def counted(self):
        """gap_table over PAIRS with every closed-loop call recorded by kind."""
        cfg = replace(preset("fig1"), name="fig1-gap-table",
                      integrator=IntegratorConfig(step=0.01, horizon=200.0))
        real = scenarios.simulate_closed_loop
        kinds = Counter()

        def counting(kind, *args, **kwargs):
            kinds[kind] += 1
            return real(kind, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scenarios, "simulate_closed_loop", counting)
            rows = gap_table(cfg, self.PAIRS)
        return cfg, rows, kinds

    def test_optimal_loop_runs_once_for_all_pairs(self, counted):
        _, _, kinds = counted
        assert kinds == {PolicyKind.OPTIMAL: 1, PolicyKind.ROBUST: len(self.PAIRS)}

    def test_rows_match_run_scenario_per_pair(self, counted):
        cfg, rows, _ = counted
        assert [r.policy for r in rows] == ["optimal", "robust_bx1.02_gx0.98",
                                            "robust_bx1.1_gx0.9"]
        for (bm, gm), row in zip(self.PAIRS, rows[1:]):
            alone = run_scenario(replace(
                cfg, inflation=InflationConfig(beta_mult=bm, gamma_mult=gm),
                policies=("optimal", "robust")))
            optimal_row, robust_row = alone.cost_rows
            assert repr(rows[0]) == repr(optimal_row)  # NaN-tolerant equality
            assert repr(row) == repr(replace(robust_row, policy=row.policy))


def per_alpha_rows(config: ScenarioConfig, traj: Trajectory) -> list[EstimateRow]:
    """The sample-step sweep as one scalar (n = 1) estimator call per alpha."""
    est = config.estimation
    meas = inject_noise(traj, config.noise, derive_seed(config.seed, config.name + ":sweep"))
    ki, kj = traj.index_at(est.i), traj.index_at(est.j)

    def sample(k):
        return MeasuredSample(t=float(meas.t[k]), s_hat=float(meas.s_hat[k]),
                              i_hat=float(meas.i_hat[k]), u=float(meas.u[k]))

    def norm(v):
        return math.sqrt(sum(x * x for x in v))

    f_max = max(norm(rhs(traj.sample(k), traj.params, float(traj.u[k]))) for k in (ki, kj))
    x_max = max(norm((float(traj.s[k]), float(traj.i[k]), float(traj.r[k])))
                for k in (ki, kj))
    u_loc = max(abs(float(traj.u[ki])), abs(float(traj.u[kj])))
    c = composite_constant(config.params, float(meas.s_hat[ki]), float(meas.s_hat[kj]),
                           float(meas.i_hat[ki]), float(meas.i_hat[kj]),
                           meas.v_max_bound, u_loc)
    theta = np.array([config.params.beta, config.params.gamma])
    nan = float("nan")
    rows = []
    for a in est.alphas:
        h = a * est.h_unit
        batch = build_regressor_batch(sample(ki), sample(ki + a), sample(kj),
                                      sample(kj + a), h)
        try:
            point = estimate_params(batch)
        except SingularRegressorsError:
            rows.append(EstimateRow(a, h, nan, nan, nan, nan, False))
            continue
        bound = estimation_error_bound(BoundInputs(
            h=h, zeta=est.zeta, f_max=f_max, v_max=meas.v_max_bound, u_max_local=u_loc,
            x_max=x_max, r=est.r, c=c, lambda_min=batch.lambda_min()))
        err = float(np.linalg.norm(point.as_row() - theta))
        rows.append(EstimateRow(a, h, point.beta_hat, point.gamma_hat, err, bound.value,
                                err <= bound.value))
    return rows


SWEEP_CONFIGS = {
    "param-est": lambda seed: preset("param-est", seed),
    "bound-sweep": lambda seed: preset("bound-sweep", seed),
    "bound-sweep-100db": lambda seed: replace(bound_sweep_noisy_config(), seed=seed),
}


class TestSweep:
    @pytest.mark.parametrize("seed", [0, 7, 2026])
    @pytest.mark.parametrize("name", sorted(SWEEP_CONFIGS))
    def test_rows_equal_per_alpha_calls(self, name, seed):
        cfg = SWEEP_CONFIGS[name](seed)
        traj = sweep_trajectory(cfg)
        # repr compares NaN rows too, and every bit of each float
        assert [repr(r) for r in sweep_h(cfg, traj)] == \
            [repr(r) for r in per_alpha_rows(cfg, traj)]

    def test_rows_equal_per_alpha_calls_on_random_windows(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        base = replace(preset("param-est"),
                       integrator=IntegratorConfig(step=0.01, horizon=60.0))
        traj = sweep_trajectory(base)
        last = base.integrator.n_steps - 200  # room for the largest alpha
        noises = st.builds(
            lambda noisy, db: NoiseConfig(kind="snr_db", snr_db=db) if noisy else NoiseConfig(),
            st.booleans(), st.floats(30.0, 140.0))

        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
        @hypothesis.given(
            ks=st.lists(st.integers(0, last), min_size=2, max_size=2, unique=True),
            alphas=st.lists(st.integers(1, 200), min_size=1, max_size=40, unique=True),
            noise=noises, seed=st.integers(0, 2**31))
        def check(ks, alphas, noise, seed):
            cfg = replace(base, noise=noise, seed=seed, estimation=EstimationWindow(
                i=float(traj.t[ks[0]]), j=float(traj.t[ks[1]]), alphas=tuple(alphas)))
            assert [repr(r) for r in sweep_h(cfg, traj)] == \
                [repr(r) for r in per_alpha_rows(cfg, traj)]

        check()

    def test_reproduce_bound_sweep_integrates_once(self, tmp_path, monkeypatch):
        calls = Counter()

        def counted(*args, **kwargs):
            calls["integrate"] += 1
            return integrate(*args, **kwargs)

        monkeypatch.setattr(scenarios, "integrate", counted)
        assert main(["reproduce", "bound-sweep", "--out", str(tmp_path)]) == 0
        assert calls["integrate"] == 1
        assert len(read_estimates_csv(tmp_path / "bound-sweep" / "estimates_snr100.csv")) == 200

    def test_single_alpha_single_row(self):
        cfg = replace(preset("param-est"), estimation=EstimationWindow(alphas=(1,)))
        rows = sweep_h(cfg)
        assert len(rows) == 1 and rows[0].alpha == 1

    def test_singular_window_flagged_not_raised(self):
        cfg = replace(preset("param-est"), name="no-epidemic",
                      init=SirState(t=0.0, s=1.0, i=0.0, r=0.0),
                      estimation=EstimationWindow(alphas=(1, 2)))
        rows = sweep_h(cfg)
        assert len(rows) == 2
        assert all(math.isnan(r.beta_hat) and not r.contained for r in rows)

    def test_horizon_too_short_rejected(self):
        cfg = replace(preset("param-est"),
                      integrator=IntegratorConfig(step=0.01, horizon=91.0),
                      estimation=EstimationWindow(alphas=(200,)))
        with pytest.raises(ConfigError, match="too short"):
            sweep_h(cfg)

    def test_missing_estimation_block_rejected(self):
        cfg = replace(preset("param-est"), estimation=None)
        with pytest.raises(ConfigError):
            sweep_h(cfg)

    def test_h_unit_off_the_horizon_grid_is_config_error(self):
        cfg = replace(preset("param-est"),
                      estimation=EstimationWindow(h_unit=0.03, alphas=(1,)))
        with pytest.raises(ConfigError, match="h_unit"):
            sweep_h(cfg)


class TestCsv:
    def test_headers_and_roundtrip(self, small_scenario, tmp_path):
        art = run_scenario(small_scenario)
        paths = emit_csv(art, tmp_path)
        names = {p.name for p in paths}
        assert {"trajectory_optimal.csv", "trajectory_robust.csv",
                "trajectory_misestimated.csv", "costs.csv"} <= names

        # the robust run read noise, so its file holds its seen signals; the
        # optimal run's signals are its true S and I
        table = read_trajectory_csv(tmp_path / "trajectory_robust.csv")
        assert list(table) == SEEN_HEADER
        n_expected = small_scenario.integrator.n_steps + 1
        assert len(table["t"]) == n_expected
        assert np.all(table["s_seen"] >= np.minimum(table["S_meas"], 1.0))
        assert list(read_trajectory_csv(tmp_path / "trajectory_optimal.csv")) == \
            TRAJECTORY_HEADER

        rows = read_costs_csv(tmp_path / "costs.csv")
        assert [r.policy for r in rows] == ["optimal", "robust", "misestimated"]
        write_costs_csv(tmp_path / "costs_again.csv", rows)
        assert (tmp_path / "costs.csv").read_bytes() == \
            (tmp_path / "costs_again.csv").read_bytes()

    @pytest.mark.parametrize("fixture", ["compare_artifacts", "fig1_noisy_artifacts"])
    def test_no_fact_lost(self, request, fixture, tmp_path):
        # the node rows plus each switch row put back at the searchsorted
        # position of its time are the full trace, bit for bit; the seen
        # signals are the true S and I where the trajectory file has none
        art = request.getfixturevalue(fixture)
        emit_csv(art, tmp_path)
        for name, run in art.runs.items():
            traj, trace = run.result.trajectory, run.result.trace
            rows = trace.switch_rows
            own = trace.node_s_seen is not traj.s
            assert own is (trace.node_i_seen is not traj.i)
            with open(tmp_path / f"trajectory_{name}.csv") as fh:
                assert fh.readline() == ",".join(SEEN_HEADER if own else TRAJECTORY_HEADER) + "\n"
            with open(tmp_path / f"policy_trace_{name}.csv") as fh:
                assert len(fh.readlines()) == len(rows) + 1
            at = np.searchsorted(traj.t, [row[1] for row in rows], side="left")
            s_seen, i_seen = (trace.node_s_seen, trace.node_i_seen) if own else (traj.s, traj.i)
            for k, (node, full) in enumerate(((traj.t, trace.t), (traj.u, trace.u),
                                              (run.result.node_stage, trace.stage),
                                              (s_seen, trace.s_seen), (i_seen, trace.i_seen))):
                rebuilt = np.insert(node, at, [row[k + 1] for row in rows])
                assert rebuilt.dtype == full.dtype and rebuilt.tobytes() == full.tobytes()

    def test_trajectory_reader_takes_two_headers(self, tmp_path):
        path = tmp_path / "trajectory.csv"
        for header in (TRAJECTORY_HEADER, SEEN_HEADER):
            path.write_text(",".join(header) + "\n" + ",".join("1" * len(header)) + "\n")
            assert list(read_trajectory_csv(path)) == header
        for header in (TRAJECTORY_HEADER + ["s_seen"], TRAJECTORY_HEADER + ["i_seen", "s_seen"],
                       TRAJECTORY_HEADER[:-1], SEEN_HEADER + ["x"], TRACE_HEADER):
            path.write_text(",".join(header) + "\n" + ",".join("1" * len(header)) + "\n")
            with pytest.raises(ValueError, match="unexpected header"):
                read_trajectory_csv(path)

    def test_readme_headers_are_the_writers(self):
        # each artifact bullet of the README names its file and header
        text = (Path(__file__).parents[1] / "README.md").read_text()
        section = text[text.index("## CSV artifacts"):]
        section = section[:section.index("\n## ")]
        documented = {name: header.split(",") for name, header in
                      re.findall(r"^\* `(\S+\.csv)` — `([^`]+)`", section, re.M)}
        assert documented == {"trajectory_<policy>.csv": TRAJECTORY_HEADER,
                              "policy_trace_<policy>.csv": TRACE_HEADER,
                              "estimates.csv": ESTIMATES_HEADER,
                              "costs.csv": COSTS_HEADER}
        assert f"`{','.join(SEEN_HEADER)}`" in section

    def test_reemit_identical_bytes(self, small_scenario, tmp_path):
        art = run_scenario(small_scenario)
        emit_csv(art, tmp_path / "a")
        emit_csv(art, tmp_path / "b")
        for name in ("trajectory_robust.csv", "costs.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_fixed_seed_byte_identical_csvs(self, small_scenario, tmp_path):
        emit_csv(run_scenario(small_scenario), tmp_path / "run1")
        emit_csv(run_scenario(small_scenario), tmp_path / "run2")
        for p in sorted((tmp_path / "run1").glob("*.csv")):
            assert p.read_bytes() == (tmp_path / "run2" / p.name).read_bytes()

    def test_estimates_roundtrip(self, tmp_path):
        cfg = replace(preset("param-est"), estimation=EstimationWindow(alphas=(1, 10)))
        rows = sweep_h(cfg)
        path = tmp_path / "estimates.csv"
        write_estimates_csv(path, rows)
        parsed = read_estimates_csv(path)
        assert [r.alpha for r in parsed] == [1, 10]
        assert parsed[0].beta_hat == pytest.approx(rows[0].beta_hat, rel=1e-11)
        write_estimates_csv(tmp_path / "again.csv", parsed)
        assert path.read_bytes() == (tmp_path / "again.csv").read_bytes()

    def test_empty_tables_are_header_only(self, tmp_path):
        write_estimates_csv(tmp_path / "e.csv", [])
        write_costs_csv(tmp_path / "c.csv", [])
        assert (tmp_path / "e.csv").read_text() == ",".join(ESTIMATES_HEADER) + "\n"
        assert (tmp_path / "c.csv").read_text() == ",".join(COSTS_HEADER) + "\n"


class TestCsvFormat:
    """The writers' bytes follow the per-value rule of the CSV schema."""

    CHUNK = getattr(csvio, "_CHUNK_ROWS", 1024)  # rows the writer formats at once
    EDGES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e300,
             -1e300, 0.1 + 0.2, 1.0000000000005, 123456789012.5, 999999999999.5,
             0.12345678901249999, 2.0 / 3.0, 1e-7, 1e16, 12345678901234567890.0,
             # a tie rounded to even (3.81469726562e-06), values at and next to
             # a power of ten (9.9999999999996 rounds up to 10, past the
             # exponent of its log10), and both ends of the block formatter's range
             2.0**-18, 99999999999.95, 9.999999999995e-05, -1e-05,
             9.9999999999996, -9.9999999999996e-07,
             math.nextafter(1e-10, 0.0), math.nextafter(1e11, 0.0), 1e11]

    @staticmethod
    def cell(v) -> str:
        """The reference rule: one formatting decision per value."""
        if isinstance(v, (bool, np.bool_)):
            return "true" if v else "false"
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, str):
            return v
        v = float(v)
        return "nan" if math.isnan(v) else f"{v:.12g}"

    def expected(self, header, rows) -> list[str]:
        return [",".join(header)] + [",".join(self.cell(v) for v in row) for row in rows]

    def floats(self, n, seed) -> np.ndarray:
        """Doubles of every magnitude, with the edge cases at both ends."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
        k = min(n, len(self.EDGES))
        x[:k] = self.EDGES[:k]
        x[n - k:] = self.EDGES[len(self.EDGES) - k:]
        return x

    @pytest.fixture(params=["empty", "one row", "one chunk", "one chunk plus one row"])
    def n(self, request):
        return {"empty": 0, "one row": 1, "one chunk": self.CHUNK,
                "one chunk plus one row": self.CHUNK + 1}[request.param]

    REPORT = FeasibilityReport(feasible=True, required_rate_at_tb=math.nan, u_max=0.1,
                               max_infection_attained=0.0, clamp_events=0, i_bar=0.1)

    def test_trajectory_and_trace(self, tmp_path, n):
        # the seen signals are written as trajectory columns only when they
        # are not the true S and I; a trace without switch rows is a header
        t = 1.0 / 3.0 + 0.01 * np.arange(n)
        s, i, r, u, s_seen, i_seen = (self.floats(n, seed) for seed in range(6))
        stage = np.random.default_rng(8).integers(1, 4, n)
        traj = Trajectory(t=t, s=s, i=i, r=r, u=u, step=0.01,
                          params=EpidemicParams(beta=0.16, gamma=1.0 / 30.0))
        # unit-sigma snr_db noise: the measured columns are s and i plus the draws
        z = standard_draws(n, seed=9)
        noise = MeasurementNoise(NoiseConfig(kind="snr_db", snr_db=0.0), z, 1.0, 1.0)
        s_hat, i_hat = s + z[:, 0], i + z[:, 1]
        trace = PolicyTrace(node_t=t, node_u=u, node_stage=stage, node_s_seen=s_seen,
                            node_i_seen=i_seen, switch_rows=(), switching=SwitchingTimes(),
                            clamp_events=0, kind=PolicyKind.ROBUST)
        run = PolicyRun(PolicyKind.ROBUST, ClosedLoopResult(traj, trace, self.REPORT),
                        noise, assumed=None)
        write_trajectory_csv(tmp_path / "trajectory.csv", run)
        write_trace_csv(tmp_path / "trace.csv", run)
        assert (tmp_path / "trajectory.csv").read_text().split("\n") == self.expected(
            SEEN_HEADER, zip(t, s, i, r, s_hat, i_hat, u, stage, s_seen, i_seen)) + [""]
        assert (tmp_path / "trace.csv").read_text() == ",".join(TRACE_HEADER) + "\n"

        blind = replace(trace, node_s_seen=s, node_i_seen=i)
        run = PolicyRun(PolicyKind.OPTIMAL, ClosedLoopResult(traj, blind, self.REPORT),
                        noise, assumed=None)
        write_trajectory_csv(tmp_path / "blind.csv", run)
        assert (tmp_path / "blind.csv").read_text().split("\n") == self.expected(
            TRAJECTORY_HEADER, zip(t, s, i, r, s_hat, i_hat, u, stage)) + [""]

    def test_trace_switch_rows_are_spliced(self, tmp_path, n):
        # the file holds the switch rows alone, in row order, whatever the
        # node rows they are spliced into on reading
        t, u, s_seen, i_seen = (self.floats(n, seed) for seed in range(4))
        stage = np.random.default_rng(4).integers(1, 4, n).astype(np.int8)
        cells = self.floats(4 * n, 5).tolist()
        switch_rows = tuple((k, *cells[4 * k:4 * k + 2], k % 3 + 1, *cells[4 * k + 2:4 * k + 4])
                            for k in range(n))
        trace = PolicyTrace(node_t=t, node_u=u, node_stage=stage, node_s_seen=s_seen,
                            node_i_seen=i_seen, switch_rows=switch_rows,
                            switching=SwitchingTimes(), clamp_events=0,
                            kind=PolicyKind.ROBUST)
        run = PolicyRun(PolicyKind.ROBUST, ClosedLoopResult(None, trace, self.REPORT),
                        None, assumed=None)
        write_trace_csv(tmp_path / "trace.csv", run)
        assert (tmp_path / "trace.csv").read_text().split("\n") == self.expected(
            TRACE_HEADER, (row[1:] for row in switch_rows)) + [""]

    def test_estimates_and_costs(self, tmp_path, n):
        x = [self.floats(n, seed).tolist() for seed in range(7)]
        estimates = [EstimateRow(alpha=k + 1 + (k % 2) * 10**15, h=x[0][k], beta_hat=x[1][k],
                                 gamma_hat=x[2][k], err_norm=x[3][k],
                                 bound_b=x[4][k], contained=k % 3 == 0)
                     for k in range(n)]
        costs = [CostRow(policy=f"robust_bx{1 + k / 7:g}_gx{1 - k / 9:g}",
                         total_cost=x[0][k], gap_direct=x[1][k], gap_lemma4=x[2][k],
                         gap_thm4=x[3][k], gap_upper=x[4][k], t_b=x[5][k],
                         t_h=x[6][k], feasible=k % 2 == 0)
                 for k in range(n)]
        write_estimates_csv(tmp_path / "estimates.csv", estimates)
        write_costs_csv(tmp_path / "costs.csv", costs)
        assert (tmp_path / "estimates.csv").read_text().split("\n") == self.expected(
            ESTIMATES_HEADER, ((r.alpha, r.h, r.beta_hat, r.gamma_hat, r.err_norm,
                                r.bound_b, r.contained) for r in estimates)) + [""]
        assert (tmp_path / "costs.csv").read_text().split("\n") == self.expected(
            COSTS_HEADER, ((r.policy, r.total_cost, r.gap_direct, r.gap_lemma4,
                            r.gap_thm4, r.gap_upper, r.t_b, r.t_h, r.feasible)
                           for r in costs)) + [""]

    @staticmethod
    def column(path, kind, values) -> list[str]:
        """The cells of a one-column file written through the writer."""
        csvio._write(path, ["x"], kind, csvio._slices([values]))
        return path.read_text().split("\n")[1:-1]

    def test_any_float_or_integer_matches_the_reference_rule(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        # st.floats() draws nan, inf and subnormals too; the ranges are the
        # array formatter's own cells, which a full block of rows goes through
        floats = st.one_of(st.floats(), st.floats(1e-10, 1e11), st.floats(-1e11, -1e-10))

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @hypothesis.given(xs=st.lists(floats, min_size=1, max_size=20),
                          ks=st.lists(st.integers(0, 10**6), min_size=1, max_size=20))
        def check(xs, ks):
            for kind, values, rule in (("g", xs, "{:.12g}"), ("d", ks, "{:d}")):
                block = (values * self.CHUNK)[:self.CHUNK]
                for column in (values, block):
                    assert self.column(tmp_path / "x.csv", kind, column) == list(
                        map(rule.format, column))

        check()


class TestCli:
    def _write_config(self, tmp_path, **overrides) -> Path:
        cfg = replace(preset("policy-compare"), name="compare-cli",
                      integrator=IntegratorConfig(step=0.01, horizon=150.0))
        raw = cfg.to_dict()
        raw.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        return path

    def test_simulate_success(self, tmp_path):
        cfg = self._write_config(tmp_path)
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "costs.csv").exists()

    def test_simulate_set_override(self, tmp_path):
        cfg = self._write_config(tmp_path)
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o2"),
                     "--set", "integrator.horizon=100.0",
                     "--set", "policies=[\"optimal\"]"])
        assert code == 0
        table = read_trajectory_csv(tmp_path / "o2" / "trajectory_optimal.csv")
        assert len(table["t"]) == 10001

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path)]) == 2

    def test_unreadable_config_is_config_error(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2

    def test_bad_override_is_config_error(self, tmp_path):
        cfg = self._write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path),
                     "--set", "i_bar=-1"]) == 2

    @pytest.mark.parametrize("spec, named", [
        ("integrator.horizon=Infinity", "horizon"),
        ("integrator.horizon=300.005", "horizon"),
        ("early_stp=true", "early_stp"),
        ("measurement_interval=0.5", "measurement_interval"),  # removed knob
        ("init.sx=0.5", "sx"),
        ("init.s=NaN", "not finite"),
        ("init.t=Infinity", "init.t"),
        ("inflation.beta_mult=NaN", "beta_mult"),
        ("inflation.beta_mult=-1", "beta_mult"),
        ("misestimation.gamma_mult=Infinity", "gamma_mult"),
        ("noise.divisor=NaN", "divisor"),
        ("integrator.method=euler", "method"),  # removed knob: one RK4 integrator
        ("estimation.zeta=NaN", "zeta"),
        ("estimation.zeta=-1", "zeta"),
        ("estimation.zeta=1", "zeta"),  # zeta * h >= 1 at the largest alpha
        ("estimation.r=Infinity", "estimation.r"),
        ("estimation.r=-1", "estimation.r"),
        ("estimation.i=NaN", "estimation.i"),
        # an estimation base time before the grid start
        pytest.param(("inflation.mode=estimated", "estimation.i=-5"), "estimation.i",
                     id="estimation.i-before-the-grid"),
        pytest.param(("inflation.mode=estimated", "estimation.j=-5"), "estimation.j",
                     id="estimation.j-before-the-grid"),
        ("estimation.h_unit=NaN", "h_unit"),
        ("estimation.alphas=[1.5]", "alphas"),
        # a removed knob: every run spans its scenario's grid
        pytest.param("early_stop=no", "unknown config keys: early_stop",
                     id="early_stop=no-early_stop"),
        ("seed=1.5", "seed"),
        ("seed=NaN", "seed"),
        # a value of the wrong JSON type; a bool is not a number
        ("name=5", "name"),
        ("u_max=true", "u_max"),
        ("params.beta=true", "params.beta"),
        ("inflation.beta_mult=true", "inflation.beta_mult"),
        ("estimation.alphas=[true,2]", "estimation.alphas"),
        ('i_bar="0.1"', "i_bar"),
        # a step below the spacing of doubles at init.t: the grid would repeat times
        pytest.param(("init.t=1000", "integrator.step=1e-14", "integrator.horizon=1e-12"),
                     "integrator.step", id="step-below-spacing-at-t1000"),
        # no policy to run (this wrote nothing and exited 0), or one named
        # twice (this ran it once)
        ("policies=[]", "policies"),
        ('policies=["optimal","optimal"]', "policies"),
    ])
    def test_rejected_override_names_the_field(self, tmp_path, capsys, spec, named):
        specs = spec if isinstance(spec, tuple) else (spec,)
        code = main(["simulate", "--preset", "fig1", "--out", str(tmp_path),
                     *(arg for one in specs for arg in ("--set", one))])
        assert code == 2
        assert named in capsys.readouterr().err

    def test_estimate_rejects_a_mistyped_name(self, tmp_path, capsys):
        code = main(["estimate", "--preset", "param-est", "--set", "name=5",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "name: expected a string" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["estimate", "--preset", "param-est"],
        ["simulate", "--preset", "policy-compare", "--set", "inflation.mode=estimated",
         "--set", "estimation.alphas=[10]", "--set", "integrator.horizon=250"],
    ], ids=["estimate", "estimated-inflation"])
    def test_noise_too_large_to_estimate_names_the_noise(self, tmp_path, capsys, command):
        # 0 dB pushes a sample far outside [0, 1], where the estimator refuses it
        code = main([*command, "--set", "noise.kind=snr_db", "--set", "noise.snr_db=0",
                     "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "noise.snr_db" in err and "too far outside [0, 1]" in err

    @pytest.mark.parametrize("command, exit_code", [
        (["simulate", "--preset", "fig1", "--set", "inflation.beta_mult=1.0586",
          "--set", "inflation.gamma_mult=1.0889"], 3),
        (["gap", "--preset", "fig1", "--inflations", "1.0586:1.0889"], 0),
    ], ids=["simulate", "gap"])
    def test_switching_times_out_of_theorem_4_order_give_nan(self, tmp_path, command,
                                                              exit_code):
        # gamma planned above the truth: the robust run reaches herd immunity
        # before the optimal one (t_h < t*_h), so Theorem 4's closed form and
        # its bound do not apply; the other gaps are still written
        code = main([*command, "--set", "i_bar=0.2", "--set", "noise.kind=none",
                     "--out", str(tmp_path)])
        assert code == exit_code
        optimal, robust = read_costs_csv(tmp_path / "costs.csv")
        assert robust.t_h < optimal.t_h
        assert math.isnan(robust.gap_thm4) and math.isnan(robust.gap_upper)
        assert not math.isnan(robust.gap_direct) and not math.isnan(robust.gap_lemma4)

    def test_infeasible_robust_run_exits_three(self, tmp_path):
        cfg = self._write_config(tmp_path, u_max=0.05)
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o3")])
        assert code == 3

    def test_estimate_subcommand(self, tmp_path):
        cfg = replace(preset("param-est"), estimation=EstimationWindow(alphas=(1, 5)))
        path = tmp_path / "est.json"
        path.write_text(json.dumps(cfg.to_dict()))
        code = main(["estimate", "--config", str(path), "--out", str(tmp_path / "oe")])
        assert code == 0
        assert len(read_estimates_csv(tmp_path / "oe" / "estimates.csv")) == 2

    def test_gap_subcommand(self, tmp_path):
        code = main(["gap", "--preset", "fig1", "--out", str(tmp_path / "og"),
                     "--set", "noise.kind=none",
                     "--set", "integrator.horizon=260.0",
                     "--inflations", "1.02:0.98,1.05:0.95"])
        assert code == 0
        rows = read_costs_csv(tmp_path / "og" / "costs.csv")
        labels = [r.policy for r in rows]
        assert labels[0] == "optimal"
        assert any("1.02" in l for l in labels) and any("1.05" in l for l in labels)
        gaps = [r.gap_direct for r in rows if r.policy != "optimal"]
        assert gaps == sorted(gaps)  # wider inflation costs more

    @pytest.mark.parametrize("inflations", ["1.02:0.98,1.02:0.98",
                                            "1.0200001:0.98,1.02:0.98"],
                             ids=["same-pair", "same-name"])
    def test_gap_rejects_a_repeated_row_name(self, tmp_path, capsys, inflations):
        # %g keeps 6 digits, so 1.0200001 and 1.02 both name robust_bx1.02_gx0.98
        code = main(["gap", "--preset", "fig1", "--inflations", inflations,
                     "--out", str(tmp_path)])
        assert code == 2
        assert "robust_bx1.02_gx0.98" in capsys.readouterr().err
        assert not (tmp_path / "costs.csv").exists()

    def test_reproduce_param_est(self, tmp_path):
        code = main(["reproduce", "param-est", "--out", str(tmp_path)])
        assert code == 0
        rows = read_estimates_csv(tmp_path / "param-est" / "estimates.csv")
        assert len(rows) == 200

    def test_reproduce_bound_sweep_writes_both_tables(self, tmp_path):
        code = main(["reproduce", "bound-sweep", "--out", str(tmp_path)])
        assert code == 0
        out = tmp_path / "bound-sweep"
        clean = read_estimates_csv(out / "estimates.csv")
        noisy = read_estimates_csv(out / "estimates_snr100.csv")
        assert len(clean) == len(noisy) == 200
        assert all(r.contained for r in clean)

    def test_reproduce_sir_wave_is_uncontrolled(self, tmp_path):
        code = main(["reproduce", "sir-wave", "--out", str(tmp_path)])
        assert code == 0
        table = read_trajectory_csv(tmp_path / "sir-wave" / "trajectory_optimal.csv")
        assert np.all(table["u_applied"] == 0.0)
        assert np.all(table["stage"] == 1)
        assert table["I_true"].max() == pytest.approx(0.4649, abs=1e-3)

    def test_reproduce_unknown_name_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["reproduce", "unknown-preset", "--out", str(tmp_path)])
