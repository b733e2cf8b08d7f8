"""Policies, state bounds, feasibility, and the closed loop."""
from __future__ import annotations

import math

import numpy as np
import pytest

from sirctl import core
from sirctl.control import (
    ControlBounds,
    PolicyKind,
    simulate_closed_loop,
    stage_two_rate,
)
from sirctl.core import (
    EpidemicParams,
    IntegratorConfig,
    NonFiniteDynamicsError,
    SirState,
    _rk4_step,
    integrate,
    locate_event,
)
from sirctl.noise import MeasurementNoise, NoiseConfig, measured_series_for
from sirctl.scenarios import InflationConfig

from helpers import node_state

try:
    from hypothesis import strategies as st
except ImportError:  # the property tests skip themselves
    pass
else:
    # valid noise models and inflation pairs for the property tests
    noises = st.one_of(
        st.just(NoiseConfig(kind="none")),
        st.builds(lambda db: NoiseConfig(kind="snr_db", snr_db=db), st.floats(20.0, 80.0)),
        st.builds(lambda d: NoiseConfig(kind="scaled_variance", divisor=d),
                  st.floats(1e2, 1e6)))
    mults = st.builds(lambda b, g: InflationConfig(beta_mult=b, gamma_mult=g),
                      st.floats(0.85, 1.15), st.floats(0.85, 1.15))

PARAMS_F1 = EpidemicParams(beta=0.16, gamma=0.063)
BOUNDS = ControlBounds(u_max=0.2)


class TestOptimalRate:
    """The optimal policy's stage-two rate: ``stage_two_rate`` on the true
    (beta, gamma) and S, clamped to the budget."""

    @staticmethod
    def _rate(s, bounds=BOUNDS):
        return bounds.clamp(stage_two_rate(PARAMS_F1.beta, PARAMS_F1.gamma, s))

    def test_stage_two_hand_value(self):
        assert self._rate(0.9) == pytest.approx(0.081, abs=1e-12)

    def test_zero_at_herd_immunity_level(self):
        assert self._rate(PARAMS_F1.gamma / PARAMS_F1.beta) == pytest.approx(0.0, abs=1e-15)

    def test_clamped_to_budget(self):
        assert self._rate(0.9, ControlBounds(u_max=0.05)) == 0.05


class TestRobustRate:
    def test_stage_two_hand_value(self):
        u = BOUNDS.clamp(stage_two_rate(0.168, 0.05985, 0.98))
        assert u == pytest.approx(0.10479, abs=1e-12)


class TestStateBounds:
    """The robust policy's state bounds are its trace's s_seen and i_seen:
    the measurement plus the amplitude bound delta, capped at 1."""

    CONFIG = IntegratorConfig(step=0.01, horizon=20.0)

    def _robust_run(self, noise):
        # i_bar above any infection reached: no event, one trace row per node
        params = EpidemicParams(beta=0.16, gamma=1.0 / 30.0)
        return simulate_closed_loop(
            PolicyKind.ROBUST, params, EpidemicParams(params.beta * 1.05, params.gamma * 0.95),
            SirState(t=0.0, s=1.0 - 1e-5, i=1e-5, r=0.0), noise, self.CONFIG,
            i_bar=0.5, bounds=ControlBounds(u_max=0.15))

    def test_zero_amplitude_collapses_to_measurements(self):
        noise = MeasurementNoise.build(NoiseConfig(kind="none"),
                                       self.CONFIG.n_steps + 1, seed=0)
        res = self._robust_run(noise)
        series = measured_series_for(noise, res.trajectory)
        assert np.array_equal(res.trace.t, series.t)
        assert np.array_equal(res.trace.s_seen, series.s_hat)
        assert np.array_equal(res.trace.i_seen, series.i_hat)

    def test_clipping_at_physical_range(self):
        # zero draws and delta = 0.005 on both series
        n = self.CONFIG.n_steps + 1
        noise = MeasurementNoise(NoiseConfig(kind="snr_db", snr_db=50.0),
                                 np.zeros((n, 2)), 0.005 / 3.0, 0.005 / 3.0)
        trace = self._robust_run(noise).trace
        assert trace.s_seen[0] == 1.0
        assert np.all(trace.s_seen <= 1.0)
        assert trace.i_seen[0] == pytest.approx(1e-5 + 0.005, abs=1e-15)

    @pytest.mark.parametrize("fixture", [
        "compare_artifacts",  # snr_db noise
        # scaled_variance noise: delta is taken from the measured value, not
        # the true one, so the envelope misses the truth at 60 S and 985 I
        # nodes of 30,001 (a known defect, not fixed yet)
        pytest.param("fig1_noisy_artifacts", marks=pytest.mark.xfail(
            raises=AssertionError, strict=True,
            reason="scaled_variance delta comes from the measured value")),
    ], ids=["policy-compare", "fig1"])
    def test_true_state_inside_the_robust_signals(self, request, fixture):
        # count the nodes where the robust run's own signals fall below the
        # true state they are meant to bound
        res = request.getfixturevalue(fixture).runs["robust"]
        traj, trace = res.trajectory, res.trace
        misses = {"s": int(np.count_nonzero(traj.s > trace.node_s_seen)),
                  "i": int(np.count_nonzero(traj.i > trace.node_i_seen))}
        assert misses == {"s": 0, "i": 0}


class TestClosedLoop:
    CONFIG = IntegratorConfig(step=0.01, horizon=260.0)
    INIT = SirState(t=0.0, s=1.0 - 1e-5, i=1e-5, r=0.0)

    def test_threshold_event_matches_the_open_loop_oracle(self, dop853):
        # stage one is uncontrolled: the loop's threshold event is the u = 0
        # wave's crossing of i_bar
        params = EpidemicParams(beta=0.16, gamma=1.0 / 30.0)
        res = simulate_closed_loop(
            PolicyKind.OPTIMAL, params, None, self.INIT, None,
            IntegratorConfig(step=0.01, horizon=60.0), 0.01, ControlBounds(u_max=0.15))
        t_b = res.trace.switching.t_b
        t_ref, bound = dop853.threshold_time(params, self.INIT, 0.01, 60.0)
        assert abs(t_b - t_ref) <= bound
        assert t_b == 54.66169921875

    def test_collapse_with_exact_bounds(self, fig1_collapse_artifacts):
        runs = fig1_collapse_artifacts.runs
        opt, rob = runs["optimal"], runs["robust"]
        assert np.max(np.abs(rob.trajectory.i - opt.trajectory.i)) <= 1e-8
        assert np.max(np.abs(rob.trajectory.s - opt.trajectory.s)) <= 1e-8
        assert rob.trace.switching.t_b == opt.trace.switching.t_b
        assert rob.trace.switching.t_h == opt.trace.switching.t_h

    def test_no_event_when_peak_below_threshold(self):
        # uncontrolled peak ~0.24 < 0.5: best strategy never isolates
        res = simulate_closed_loop(PolicyKind.OPTIMAL, PARAMS_F1, None, self.INIT,
                                   None, self.CONFIG, i_bar=0.5,
                                   bounds=BOUNDS)
        assert np.all(res.trajectory.u == 0.0)
        assert res.trace.switching.t_b is None
        assert res.report.feasible

    def test_optimal_pins_infection_at_threshold(self, fig1_noise_free_artifacts):
        opt = fig1_noise_free_artifacts.runs["optimal"]
        sw = opt.trace.switching
        traj = opt.trajectory
        stage2 = (traj.t >= sw.t_b) & (traj.t <= sw.t_h)
        assert np.max(np.abs(traj.i[stage2] - 0.1)) <= 1e-4

    def test_switching_time_ordering_under_inflation(self, fig1_noisy_artifacts):
        opt = fig1_noisy_artifacts.runs["optimal"].trace.switching
        rob = fig1_noisy_artifacts.runs["robust"].trace.switching
        assert rob.t_b <= opt.t_b <= opt.t_h <= rob.t_h

    def test_robust_dominates_optimal_pointwise(self, fig1_noisy_artifacts):
        opt = fig1_noisy_artifacts.runs["optimal"].trace
        rob = fig1_noisy_artifacts.runs["robust"].trace
        grid = np.union1d(opt.t, rob.t)
        gap = np.interp(grid, rob.t, rob.u) - np.interp(grid, opt.t, opt.u)
        assert np.min(gap) >= -1e-9

    def test_robust_feasible_under_bracketing_bounds(self, fig1_noisy_artifacts):
        rep = fig1_noisy_artifacts.runs["robust"].report
        assert rep.feasible
        assert rep.max_infection_attained <= 0.1 + 1e-6

    def test_misestimated_run_breaks_threshold(self, compare_artifacts):
        rep = compare_artifacts.runs["misestimated"].report
        assert not rep.feasible
        assert rep.max_infection_attained > 0.01 + 1e-3

    def test_required_rate_reported_at_crossing(self, compare_artifacts):
        rep = compare_artifacts.runs["optimal"].report
        # S barely declines before the crossing, so the required rate is
        # close to beta - gamma
        assert 0.1 < rep.required_rate_at_tb < 0.13
        assert rep.required_rate_at_tb <= compare_artifacts.config.u_max

    def test_saturated_budget_recorded_and_infeasible(self):
        params = EpidemicParams(beta=0.16, gamma=1.0 / 30.0)
        res = simulate_closed_loop(
            PolicyKind.ROBUST, params,
            EpidemicParams(params.beta * 1.05, params.gamma * 0.95), self.INIT, None,
            IntegratorConfig(step=0.01, horizon=150.0), i_bar=0.01,
            bounds=ControlBounds(u_max=0.05))
        assert res.trace.clamp_events == 5866
        assert len(res.trace.t) == 15003
        assert not res.report.feasible

    def test_same_seed_reproduces_run(self):
        from sirctl.noise import MeasurementNoise, NoiseConfig

        params = EpidemicParams(beta=0.16, gamma=1.0 / 30.0)
        cfg = IntegratorConfig(step=0.01, horizon=120.0)
        ref = simulate_closed_loop(PolicyKind.OPTIMAL, params, None, self.INIT,
                                   None, cfg, i_bar=0.01, bounds=ControlBounds(0.15))

        def run():
            noise = MeasurementNoise.build(NoiseConfig(kind="snr_db", snr_db=55.0),
                                           cfg.n_steps + 1, seed=42,
                                           reference=ref.trajectory)
            return simulate_closed_loop(
                PolicyKind.ROBUST, params,
                EpidemicParams(params.beta * 1.05, params.gamma * 0.95), self.INIT,
                noise, cfg, i_bar=0.01, bounds=ControlBounds(0.15))

        a, b = run(), run()
        assert np.array_equal(a.trajectory.i, b.trajectory.i)
        assert np.array_equal(a.trace.u, b.trace.u)

    def test_first_nonfinite_node_reported(self):
        # RK4 at beta*h = 6 overflows in stage 1 before the infection reaches
        # i_bar; the error names the time of the first node holding inf or
        # NaN, also when an earlier run filled the memo's stage 1 past it
        params = EpidemicParams(beta=6.0, gamma=0.1)
        init = SirState(t=0.0, s=0.999, i=0.001, r=0.0)
        x, k = (init.s, init.i, init.r), 0
        while all(map(math.isfinite, x)):
            x = _rk4_step(*x, params.beta, params.gamma, 0.0, 1.0)
            k += 1
        assert k == 6
        config = IntegratorConfig(step=1.0, horizon=20.0)
        noise = MeasurementNoise.build(NoiseConfig(kind="scaled_variance", divisor=1e6),
                                       config.n_steps + 1, seed=3)
        for kind, source, filled in ((PolicyKind.OPTIMAL, None, False),
                                     (PolicyKind.OPTIMAL, None, True),
                                     (PolicyKind.ROBUST, noise, True)):
            core._memo.clear()
            if filled:
                # a run on the same grid that leaves stage 1 after node 1 and,
                # isolating at up to u = 1, stays finite
                first = simulate_closed_loop(PolicyKind.OPTIMAL, params, None, init, None,
                                             config, 0.5, ControlBounds(u_max=1.0))
                assert first.trace.node_stage[:3].tolist() == [1, 1, 2]
            with pytest.raises(NonFiniteDynamicsError, match=rf"at t={float(k)}$"):
                simulate_closed_loop(kind, params, params, init, source, config, 0.95, BOUNDS)

    def test_infeasibility_is_recorded_not_raised(self, compare_artifacts):
        # the misestimated run exceeded the cap without aborting the run
        traj = compare_artifacts.runs["misestimated"].trajectory
        assert len(traj) == 120001


class TestTraceLayout:
    """A trace is the node rows plus two rows per switch located inside a
    step and one per switch that fired at a node, in time order."""

    @pytest.fixture(scope="class")
    def node_event_artifacts(self):
        # I(0) > i_bar fires the threshold at node 0; noisy signals move the
        # herd condition onto nodes; every run ends in stage 3
        from dataclasses import replace

        from sirctl.scenarios import preset, run_scenario

        cfg = replace(preset("fig1"), name="node-events",
                      init=SirState(t=0.0, s=0.8, i=0.2, r=0.0),
                      params=EpidemicParams(beta=0.5, gamma=0.2), u_max=0.5,
                      policies=("optimal", "robust", "misestimated"),
                      integrator=IntegratorConfig(step=0.1, horizon=400.0))
        return run_scenario(cfg)

    @staticmethod
    def _switch_kinds(result):
        """'node' or 'step' for each switch that fired, checking the row count."""
        traj, trace = result.trajectory, result.trace
        kinds = ["node" if tau in traj.t else "step"
                 for tau in (trace.switching.t_b, trace.switching.t_h) if tau is not None]
        assert len(trace.t) == len(traj) + sum(1 if k == "node" else 2 for k in kinds)
        assert np.all(np.diff(trace.t) >= 0.0)
        return kinds

    def test_node_switches(self, node_event_artifacts):
        kinds = [self._switch_kinds(run)
                 for run in node_event_artifacts.runs.values()]
        assert kinds == [["node", "step"], ["node", "node"], ["node", "node"]]
        # every run spans the grid, however early it reaches stage 3
        assert all(len(run.trajectory) == 4001
                   and run.trace.node_stage[-1] == 3
                   for run in node_event_artifacts.runs.values())

    def test_herd_fires_at_the_threshold_node(self, tmp_path):
        # beta*S(0) < gamma and I(0) > i_bar: both events fire at node 0, and
        # the herd event is not left to a bracket whose start already fires
        from sirctl.cli import main
        from sirctl.csvio import read_costs_csv

        code = main(["simulate", "--preset", "fig1", "--set", "init.s=0.3",
                     "--set", "init.i=0.2", "--set", "init.r=0.5",
                     "--set", "integrator.horizon=10", "--set", "noise.kind=none",
                     "--out", str(tmp_path)])
        assert code == 3  # I(0) is above the cap
        rows = read_costs_csv(tmp_path / "costs.csv")
        assert [(r.policy, r.t_b, r.t_h) for r in rows] == \
            [("optimal", 0.0, 0.0), ("robust", 0.0, 0.0)]

    def test_herd_fires_at_a_threshold_inside_a_step(self, monkeypatch):
        # the misestimated rates see herd immunity (S < 0.435) before the true
        # peak (S = 0.394), where i_bar just below the peak is crossed
        from dataclasses import replace

        from sirctl import control
        from sirctl.scenarios import preset, run_scenario

        def checked(gap, s0, i0, *args):
            assert gap(s0, i0) < 0.0, "bracket starts where the event already fired"
            return locate_event(gap, s0, i0, *args)

        monkeypatch.setattr(control, "locate_event", checked)
        cfg = replace(preset("fig1"), i_bar=0.238, noise=NoiseConfig(kind="none"),
                      policies=("optimal", "misestimated"),
                      integrator=IntegratorConfig(step=0.01, horizon=130.0))
        result = run_scenario(cfg).runs["misestimated"]
        switching = result.trace.switching
        assert switching.t_b is not None and switching.t_h == switching.t_b
        assert self._switch_kinds(result) == ["step", "step"]

    def test_headline_runs(self, fig1_noisy_artifacts, compare_artifacts):
        kinds = [kind for art in (fig1_noisy_artifacts, compare_artifacts)
                 for run in art.runs.values() for kind in self._switch_kinds(run)]
        assert kinds.count("step") == 6 and kinds.count("node") == 3


class TestCumulativeOrdering:
    def test_robust_keeps_more_susceptibles(self, fig1_noisy_artifacts):
        opt = fig1_noisy_artifacts.runs["optimal"]
        rob = fig1_noisy_artifacts.runs["robust"]
        t_h_star = opt.trace.switching.t_h
        mask = opt.trajectory.t <= t_h_star
        assert np.all(rob.trajectory.s[mask] >= opt.trajectory.s[mask] - 1e-9)


class TestSharedStageOne:
    """A loop run after the optimal run tests the memo's stage-1 nodes and
    starts where its own threshold can fire; its run is bitwise the run
    from an empty memo."""

    @staticmethod
    def _assert_same_run(a, b):
        ta, tb = a.trajectory, b.trajectory
        for x, y in ((ta.t, tb.t), (ta.s, tb.s), (ta.i, tb.i), (ta.r, tb.r), (ta.u, tb.u),
                     (a.trace.node_stage, b.trace.node_stage), (a.trace.t, b.trace.t),
                     (a.trace.u, b.trace.u), (a.trace.stage, b.trace.stage),
                     (a.trace.s_seen, b.trace.s_seen), (a.trace.i_seen, b.trace.i_seen)):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        # repr compares every bit of the floats, NaN included
        assert repr(a.trace.switching) == repr(b.trace.switching)
        assert a.trace.clamp_events == b.trace.clamp_events
        assert repr(a.report) == repr(b.report)

    @classmethod
    def _check_policies(cls, cfg):
        """Run every non-optimal policy of ``cfg`` after the optimal run and
        from an empty memo."""
        from sirctl.scenarios import _assumed_rates, _optimal_run

        optimal, noise = _optimal_run(cfg)
        calls = [(kind, cfg.params, _assumed_rates(cfg, inflation, optimal.trajectory),
                  cfg.init, noise, cfg.integrator, cfg.i_bar, ControlBounds(cfg.u_max))
                 for kind, inflation in ((PolicyKind.ROBUST, cfg.inflation),
                                         (PolicyKind.MISESTIMATED, cfg.misestimation))]
        results = [simulate_closed_loop(*args) for args in calls]
        for args, shared in zip(calls, results):
            core._memo.clear()
            cls._assert_same_run(shared, simulate_closed_loop(*args))
        return optimal, results

    @pytest.mark.parametrize("overrides", [
        {},
        {"init": SirState(t=0.0, s=0.8, i=0.2, r=0.0)},  # threshold at node 0
        {"i_bar": 0.3},  # no policy reaches the threshold
        {"noise": NoiseConfig(kind="snr_db", snr_db=30.0)},
        {"noise": NoiseConfig(kind="none")},
        {"params": EpidemicParams(beta=0.5, gamma=0.2), "u_max": 0.5,
         "integrator": IntegratorConfig(step=0.1, horizon=400.0)},
    ], ids=["fig1", "threshold-at-node-0", "never-fires", "snr", "noise-free", "stage-three"])
    def test_fig1_runs_equal_the_runs_from_node_0(self, overrides):
        from dataclasses import replace

        from sirctl.scenarios import preset

        self._check_policies(replace(preset("fig1"), **overrides))

    @pytest.mark.parametrize("overrides", [
        {"integrator": IntegratorConfig(step=0.01, horizon=250.0)},
        # the misestimated threshold fires at t = 54.67, after the optimal
        # run's last stage-1 node: the loop starts there
        {"seed": 12, "noise": NoiseConfig(kind="snr_db", snr_db=40.0),
         "integrator": IntegratorConfig(step=0.01, horizon=120.0)},
    ], ids=["policy-compare-250", "late-misestimated-threshold"])
    def test_policy_compare_runs_equal_the_runs_from_node_0(self, overrides):
        from dataclasses import replace

        from sirctl.scenarios import preset

        optimal, (robust, misestimated) = self._check_policies(
            replace(preset("policy-compare"), **overrides))
        if "seed" in overrides:
            assert misestimated.trace.switching.t_b == 54.67
            last_open = int(np.argmax(optimal.trace.node_stage != 1)) - 1
            assert optimal.trajectory.t[last_open] < 54.67 < optimal.trajectory.t[last_open + 2]

    def test_stage_one_is_not_integrated_again(self, monkeypatch):
        from dataclasses import replace

        from sirctl import control
        from sirctl.core import _rk4_fill
        from sirctl.scenarios import _optimal_run, preset

        cfg = replace(preset("fig1"), policies=("optimal", "robust"))
        optimal, noise = _optimal_run(cfg)
        steps, fills = [], []
        monkeypatch.setattr(control, "_rk4_step",
                            lambda *a: steps.append(1) or _rk4_step(*a))
        for module in (core, control):
            monkeypatch.setattr(module, "_rk4_fill", lambda ss, ii, rr, k0, end, *a: (
                fills.append((k0, end)) or _rk4_fill(ss, ii, rr, k0, end, *a)))
        args = (PolicyKind.ROBUST, cfg.params, EpidemicParams(0.168, 0.05985), cfg.init,
                noise, cfg.integrator, cfg.i_bar, BOUNDS)
        result = simulate_closed_loop(*args)
        shared, shared_fills = len(steps), fills[:]
        steps.clear()
        fills.clear()
        core._memo.clear()
        simulate_closed_loop(*args)
        # the loop starts at the node where the threshold fires, or at the
        # start of the step in which it does
        t, t_b = result.trajectory.t, result.trace.switching.t_b
        start = int(np.searchsorted(t, t_b))
        start -= t[start] != t_b
        assert start > 9000
        # from an empty memo, stage 1 is filled in consecutive blocks up to
        # the one whose tests fire at start; after the optimal run, no
        # stage-1 node is integrated again: both runs fill only stage 3 from
        # its first node and take the same steps from start on
        *blocks, stage_three = fills
        assert [b[0] for b in blocks] == [0] + [b[1] - 1 for b in blocks[:-1]]
        assert blocks[-1][0] <= start < blocks[-1][1] - 1
        k3 = int(np.argmax(result.trace.node_stage == 3))
        assert shared_fills == [stage_three] == [(k3, cfg.integrator.n_steps + 1)]
        assert shared == len(steps)

    @pytest.mark.parametrize("workload, fills", [
        ("gap-grid", (17, 97_045)), ("policy-compare", (8, 110_615))],
        ids=["gap-grid", "policy-compare"])
    def test_no_node_is_filled_twice(self, monkeypatch, workload, fills):
        # the calls of the u = 0 stepper and the steps they take, the optimal
        # run's stage-1 blocks and one stage-3 fill per run: a memo that
        # fills nodes again, or skips some, changes them
        from sirctl import control
        from sirctl.core import _rk4_fill
        from sirctl.scenarios import gap_table, preset, run_scenario

        steps = []
        for module in (core, control):
            monkeypatch.setattr(module, "_rk4_fill", lambda ss, ii, rr, k0, end, *a: (
                steps.append(end - 1 - k0) or _rk4_fill(ss, ii, rr, k0, end, *a)))
        if workload == "gap-grid":
            gap_table(preset("fig1", 1), [(1.01, 0.99), (1.015, 0.985), (1.02, 0.98),
                                          (1.03, 0.97), (1.04, 0.96), (1.05, 0.95), (1.1, 0.9)])
        else:
            run_scenario(preset("policy-compare", 1))
        assert (len(steps), sum(steps)) == fills

    def test_random_configs_equal_the_runs_from_node_0(self):
        hypothesis = pytest.importorskip("hypothesis")
        from dataclasses import replace

        from sirctl.scenarios import preset

        @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
        @hypothesis.given(name=st.sampled_from(["fig1", "policy-compare"]), noise=noises,
                          inflation=mults, misestimation=mults,
                          i_bar=st.floats(0.005, 0.3), seed=st.integers(0, 2**31))
        def check(name, noise, inflation, misestimation, i_bar, seed):
            horizon = 300.0 if name == "fig1" else 400.0
            self._check_policies(replace(
                preset(name), noise=noise, inflation=inflation, misestimation=misestimation,
                i_bar=i_bar, seed=seed,
                integrator=IntegratorConfig(step=0.1, horizon=horizon)))

        check()

    @pytest.mark.parametrize("change", [
        {"params": EpidemicParams(beta=math.nextafter(0.16, 1.0), gamma=0.063)},
        {"init": SirState(t=0.0, s=1.0 - 1e-5, i=1e-5, r=-0.0)},
        {"integrator": IntegratorConfig(step=0.02, horizon=300.0)},
        {"integrator": IntegratorConfig(step=0.01, horizon=150.0)},
    ], ids=["beta-one-ulp", "r-minus-zero", "step", "horizon"])
    def test_other_inputs_miss_the_memo(self, change):
        # the memo is keyed on the exact bits of the inputs: a run whose
        # inputs differ from the fig1 run's, if only by an ulp or the sign
        # of a zero, is bitwise its run from an empty memo
        from dataclasses import replace

        from sirctl.scenarios import preset, run_scenario

        fig1 = preset("fig1")
        run_scenario(fig1)
        cfg = replace(fig1, **change)
        args = (PolicyKind.ROBUST, cfg.params, EpidemicParams(0.168, 0.05985), cfg.init, None,
                cfg.integrator, cfg.i_bar, BOUNDS)
        after_fig1 = simulate_closed_loop(*args)
        core._memo.clear()
        self._assert_same_run(after_fig1, simulate_closed_loop(*args))


class TestStageOneFill:
    """A run fills stage 1 by ``integrate``'s stepper in blocks and tests
    each block as arrays; the loop takes over at the node where its
    threshold fires. Where the blocks fall changes no bit of the run."""

    PARAMS = EpidemicParams(beta=0.5, gamma=0.1)
    INIT = SirState(t=0.0, s=0.999, i=0.001, r=0.0)
    GRID = IntegratorConfig(step=0.1, horizon=30.0)

    @classmethod
    def _first_firing(cls, noise, i_bar):
        """(node, test) where the threshold first fires on the u = 0 epidemic,
        by the loop's per-node tests under the unenveloped offsets."""
        free = integrate(cls.PARAMS, 0.0, cls.INIT, cls.GRID)
        read_i, i = noise.offset_reader(1, False), free.i.tolist()
        for k in range(len(i)):
            o_i = read_i(k, i[k])
            if min(i[k] + o_i, 1.0) - i_bar >= 0.0:
                return k, "node"
            if k + 1 < len(i) and min(i[k + 1] + o_i, 1.0) - i_bar >= 0.0:
                return k, "end-of-step"
        return None

    def test_optimal_stage_one_is_integrate(self):
        # the optimal run's nodes up to the threshold node are integrate's
        # bitwise, for every preset grid
        from sirctl.scenarios import preset

        for name in ("fig1", "policy-compare"):
            cfg = preset(name)
            res = simulate_closed_loop(PolicyKind.OPTIMAL, cfg.params, None, cfg.init, None,
                                       cfg.integrator, cfg.i_bar, ControlBounds(cfg.u_max))
            core._memo.clear()
            free = integrate(cfg.params, 0.0, cfg.init, cfg.integrator)
            m1 = int(np.argmax(res.trace.node_stage != 1))
            assert m1 > 1000
            for x, y in ((res.trajectory.s, free.s), (res.trajectory.i, free.i),
                         (res.trajectory.r, free.r)):
                assert x[:m1].tobytes() == y[:m1].tobytes()

    def test_threshold_at_the_edges_of_a_block(self, monkeypatch):
        # the node test and the end-of-step test fire at the first and at
        # the last node of a block; the end-of-step test of a block's last
        # node reads the first node of the next block; each run fills its
        # stage 1 from an empty memo
        from sirctl import control

        free = integrate(self.PARAMS, 0.0, self.INIT, self.GRID)
        noise = MeasurementNoise.build(NoiseConfig(kind="snr_db", snr_db=20.0),
                                       self.GRID.n_steps + 1, seed=4, reference=free)
        bounds = ControlBounds(u_max=0.5)
        cases = {}
        for i_bar in np.linspace(0.05, 0.45, 81).tolist():
            first = self._first_firing(noise, i_bar)
            if first is not None and first[0] >= 40:
                cases.setdefault(first, i_bar)
        seen = set()
        for (f, test), i_bar in sorted(cases.items())[:12]:
            args = (PolicyKind.MISESTIMATED, self.PARAMS, EpidemicParams(0.5, 0.1), self.INIT,
                    noise, self.GRID, i_bar, bounds)
            one_block = simulate_closed_loop(*args)
            for size in range(1, 9):
                monkeypatch.setattr(control, "_FILL", size)
                core._memo.clear()
                res = simulate_closed_loop(*args)
                TestSharedStageOne._assert_same_run(res, one_block)
                if f % size == 0:
                    seen.add((test, "first"))
                if f % size == size - 1:
                    seen.add((test, "last"))
            monkeypatch.undo()
            t, t_b = one_block.trajectory.t, one_block.trace.switching.t_b
            if test == "node":
                assert t_b == t[f]
            else:
                assert t[f] < t_b <= t[f + 1]
            for x, y in ((one_block.trajectory.s, free.s), (one_block.trajectory.i, free.i)):
                assert x[:f + 1].tobytes() == y[:f + 1].tobytes()
        assert seen == {(test, edge) for test in ("node", "end-of-step")
                        for edge in ("first", "last")}

    def test_memo_and_own_blocks_share_one_test(self, monkeypatch):
        # the misestimated threshold fires after the optimal run's last
        # stage-1 node: the memo's nodes are tested in blocks, then the run
        # fills the memo on from there, after the optimal run and from an
        # empty memo
        from dataclasses import replace

        from sirctl import control
        from sirctl.scenarios import preset

        cfg = replace(preset("policy-compare"), seed=12,
                      noise=NoiseConfig(kind="snr_db", snr_db=40.0),
                      integrator=IntegratorConfig(step=0.01, horizon=120.0))
        optimal, runs = TestSharedStageOne._check_policies(cfg)
        last_open = int(np.argmax(optimal.trace.node_stage != 1)) - 1
        assert runs[1].trace.switching.t_b >= optimal.trajectory.t[last_open + 1]
        monkeypatch.setattr(control, "_READ", 1000)
        monkeypatch.setattr(control, "_FILL", 3)
        for res, small in zip(runs, TestSharedStageOne._check_policies(cfg)[1]):
            TestSharedStageOne._assert_same_run(res, small)

    @pytest.mark.parametrize("size", [1, 2, 5, 1024])
    def test_overflow_after_the_crossing_does_not_raise(self, monkeypatch, size):
        # RK4 at beta*h = 6 overflows the u = 0 epidemic at node 6; a run
        # that crosses at node 1 and isolates stays finite, though its fill
        # block may step the u = 0 epidemic past the overflow
        from sirctl import control

        params = EpidemicParams(beta=6.0, gamma=0.1)
        init = SirState(t=0.0, s=0.999, i=0.001, r=0.0)
        config = IntegratorConfig(step=1.0, horizon=20.0)
        with pytest.raises(NonFiniteDynamicsError, match=r"at t=6\.0$"):
            integrate(params, 0.0, init, config)
        monkeypatch.setattr(control, "_FILL", size)
        noise = MeasurementNoise.build(NoiseConfig(kind="scaled_variance", divisor=1e6),
                                       config.n_steps + 1, seed=3)
        for kind, source in ((PolicyKind.OPTIMAL, None), (PolicyKind.ROBUST, noise)):
            res = simulate_closed_loop(kind, params, EpidemicParams(6.0, 0.1), init, source,
                                       config, 0.5, ControlBounds(u_max=1.0))
            assert res.trace.node_stage[:3].tolist() == [1, 1, 2]
            assert np.isfinite(res.trajectory.i).all()
            assert np.isfinite(res.trace.node_i_seen).all()

    def test_inf_in_a_block_raises_only_the_run_error(self):
        # at beta*h = 50 the u = 0 epidemic reaches S = inf at node 3 without
        # crossing; reading the noise over the block warns of nothing, and
        # the run names the node
        import warnings

        params = EpidemicParams(beta=50.0, gamma=0.1)
        init = SirState(t=0.0, s=0.999, i=0.001, r=0.0)
        config = IntegratorConfig(step=1.0, horizon=20.0)
        noise = MeasurementNoise.build(NoiseConfig(kind="scaled_variance", divisor=1e6),
                                       config.n_steps + 1, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteDynamicsError, match=r"at t=3\.0$"):
                simulate_closed_loop(PolicyKind.ROBUST, params, EpidemicParams(50.0, 0.1), init,
                                     noise, config, 0.5, ControlBounds(u_max=1.0))


class TestStageBoundaries:
    """Stages 1 and 3 are the u = 0 epidemic, stepped by ``integrate``'s own
    stepper: stage 1 is bitwise ``integrate`` from the initial state, and
    stage 3 bitwise ``integrate`` from the run's first stage-3 node."""

    THREE = ("optimal", "robust", "misestimated")

    @staticmethod
    def _assert_open_loop_stages(cfg, res):
        traj, stage = res.trajectory, res.trace.node_stage
        h, n = cfg.integrator.step, cfg.integrator.n_steps
        free = integrate(cfg.params, 0.0, cfg.init, cfg.integrator)
        m1 = int(np.argmax(stage != 1)) if np.any(stage != 1) else len(traj)
        for x, y in ((traj.s, free.s), (traj.i, free.i), (traj.r, free.r)):
            assert x[:m1].tobytes() == y[:m1].tobytes()
        if not np.any(stage == 3):
            return None
        k3 = int(np.argmax(stage == 3))
        assert np.all(stage[k3:] == 3) and not np.any(traj.u[k3:])
        if k3 < n:
            tail = integrate(cfg.params, 0.0, node_state(traj, k3),
                             IntegratorConfig(step=h, horizon=(n - k3) * h))
            for x, y in ((traj.s, tail.s), (traj.i, tail.i), (traj.r, tail.r)):
                assert x[k3:].tobytes() == y.tobytes()
        return k3

    # the policy-compare runs end in stage 2 (the optimal t_h is 1027.5)
    @pytest.mark.parametrize("name, overrides, stage_three", [
        ("fig1", {}, True),
        ("policy-compare", {"integrator": IntegratorConfig(step=0.01, horizon=250.0)}, False),
        ("policy-compare", {"seed": 12, "noise": NoiseConfig(kind="snr_db", snr_db=40.0),
                            "integrator": IntegratorConfig(step=0.01, horizon=120.0)}, False),
        ("fig1", {"params": EpidemicParams(beta=0.5, gamma=0.2),
                  "u_max": 0.5, "integrator": IntegratorConfig(step=0.1, horizon=400.0)}, True),
        ("fig1", {"init": SirState(t=0.0, s=0.8, i=0.2, r=0.0),
                  "integrator": IntegratorConfig(step=0.01, horizon=100.0)}, True),
    ], ids=["fig1", "policy-compare-250", "late-threshold", "stage-three-fig1",
            "threshold-at-start"])
    def test_stages_one_and_three_are_integrate(self, name, overrides, stage_three):
        from dataclasses import replace

        from sirctl.scenarios import preset, run_scenario

        cfg = replace(preset(name), policies=self.THREE, **overrides)
        art = run_scenario(cfg)
        firsts = [self._assert_open_loop_stages(cfg, run) for run in art.runs.values()]
        assert any(k3 is not None for k3 in firsts) == stage_three

    def test_stage_column_follows_the_switching_times(self):
        # node_stage is 1 before the t_b node, 2 from it up to the first
        # stage-3 node, and 3 from there on (an event inside a step puts its
        # stage on the step's end node)
        from dataclasses import replace

        from sirctl.scenarios import preset, run_scenario

        short = IntegratorConfig(step=0.01, horizon=100.0)
        cases = {
            "fig1": replace(preset("fig1"), policies=self.THREE),
            "policy-compare-250": replace(preset("policy-compare"), policies=self.THREE,
                                          integrator=IntegratorConfig(step=0.01,
                                                                      horizon=250.0)),
            "threshold-at-start-fig1": replace(preset("fig1"), policies=self.THREE,
                                               init=SirState(t=0.0, s=0.8, i=0.2, r=0.0),
                                               integrator=short),
            "stage-three-fig1": replace(preset("fig1"), policies=self.THREE,
                                        params=EpidemicParams(beta=0.5, gamma=0.2), u_max=0.5,
                                        integrator=IntegratorConfig(step=0.1, horizon=400.0)),
            # beta*S(0) < gamma and I(0) > i_bar: both events at node 0
            "herd-at-threshold-node": replace(preset("fig1"), policies=self.THREE,
                                              init=SirState(t=0.0, s=0.3, i=0.2, r=0.5),
                                              noise=NoiseConfig(kind="none"),
                                              integrator=IntegratorConfig(step=0.01,
                                                                          horizon=10.0)),
        }
        switches = []
        for cfg in cases.values():
            for res in run_scenario(cfg).runs.values():
                t, sw = res.trajectory.t, res.trace.switching
                t_b = np.inf if sw.t_b is None else sw.t_b
                t_h = np.inf if sw.t_h is None else sw.t_h
                expected = 1 + (t >= t_b).astype(int) + (t >= t_h).astype(int)
                assert res.trace.node_stage.dtype == np.int8
                assert res.trace.node_stage.tolist() == expected.tolist()
                switches.append((sw.t_b, sw.t_h))
        assert (0.0, 0.0) in switches  # the herd event at the threshold node, node 0
        assert any(t_b == 0.0 and t_h is not None and t_h > 0.0 for t_b, t_h in switches)
        assert any(t_b is not None and t_h is None for t_b, t_h in switches)

    def test_herd_event_in_the_last_step(self):
        from dataclasses import replace

        from sirctl.scenarios import preset, run_scenario

        # t_h = 144.4927 lies in the last step: the first stage-3 node is the
        # last node, and the stepper takes no step
        cfg = replace(preset("fig1"), policies=self.THREE,
                      integrator=IntegratorConfig(step=0.01, horizon=144.5))
        art = run_scenario(cfg)
        assert 144.49 < art.runs["optimal"].trace.switching.t_h < 144.5
        firsts = {name: self._assert_open_loop_stages(cfg, run)
                  for name, run in art.runs.items()}
        assert firsts["optimal"] == cfg.integrator.n_steps


class TestStageTwoLoop:
    """Stage 2's inner loop, which writes the RK4 step, the rate law and its
    clamp inline, against the reference forms: ``_rk4_step``,
    ``stage_two_rate`` and ``ControlBounds.clamp``."""

    @staticmethod
    def _bits(*xs):
        return np.array(xs, dtype=float).tobytes()

    @classmethod
    def _check_run(cls, res, cfg, plan):
        traj, trace, stage = res.trajectory, res.trace, res.trace.node_stage
        beta, gamma = cfg.params.beta, cfg.params.gamma
        beta_plan, gamma_plan = plan.beta, plan.gamma
        bounds, h = ControlBounds(cfg.u_max), cfg.integrator.step
        ss, ii, rr, uu, s_seen = traj.s, traj.i, traj.r, traj.u, trace.node_s_seen
        # a split step adds a pre- and a post-switch row at its end node, an
        # event at a node one row
        rows_at = np.bincount([row[0] for row in trace.switch_rows], minlength=len(traj))
        clamps = 0
        for k in np.flatnonzero(stage == 2):
            raw = stage_two_rate(beta_plan, gamma_plan, float(s_seen[k]))
            assert cls._bits(uu[k]) == cls._bits(bounds.clamp(raw))
            clamps += raw > cfg.u_max
            if k + 1 < len(traj) and rows_at[k + 1] < 2:
                step = _rk4_step(float(ss[k]), float(ii[k]), float(rr[k]), beta, gamma,
                                 float(uu[k]), h)
                assert cls._bits(ss[k + 1], ii[k + 1], rr[k + 1]) == cls._bits(*step)
        # the rate decided at a threshold switch: a stage-2 row at the instant
        # of the threshold's row (inside a step; at a node it is the herd's)
        rows = trace.switch_rows
        for before, row in zip(rows, rows[1:]):
            if before[3] == 1 and row[3] == 2 and row[1] == before[1]:
                clamps += stage_two_rate(beta_plan, gamma_plan, row[4]) > cfg.u_max
        assert trace.clamp_events == clamps
        cls._check_first_integral(res)
        return clamps

    @classmethod
    def _check_first_integral(cls, res) -> tuple[int, int, int]:
        """The SIR first integral Phi = S + I - (gamma/beta) ln S on every step.

        dPhi/dt = -u I, so a step of length dt held at u lowers Phi by the
        trapezoid u (I_a + I_b) dt / 2, up to that rule's error
        u dt^3 |I''| / 12, RK4's local error and the rounding of Phi; at
        u = 0 by nothing. |I''| <= (max(beta, gamma + u)^2 + beta^2) I. A
        split step, one with a switch row inside it, is stepped again from
        its first node with ``_rk4_step`` piece by piece, to each switch
        instant and then to its end node, each piece under its held rate:
        the first node's, then the last row's at each instant. The pieces
        must give the end node's bits, and each meets the held-step bound
        over its own length (measured: at most 0.14 of it, 5e-13 on the
        presets and 6e-9 at step 0.1). Returns the numbers of u = 0, held
        and split steps.
        """
        traj, h = res.trajectory, res.trajectory.step
        beta, gamma = traj.params.beta, traj.params.gamma
        ss, ii, rr, uu = traj.s, traj.i, traj.r, res.trace.node_u[:-1]

        def phi(s, i):
            return s + i - gamma / beta * np.log(s)

        def excess(u, dt, s0, i0, s1, i1):
            """|dPhi + trapezoid| over the held-step bound; <= 0 where it holds."""
            residual = phi(s1, i1) - phi(s0, i0) + u * (i0 + i1) * dt / 2.0
            curv = np.maximum(beta, gamma + u) ** 2 + beta ** 2
            return np.abs(residual) - (tol + u * dt ** 3 * curv * np.maximum(i0, i1) / 12.0)

        # 4 ulps of Phi, and RK4's local error (1.5e-14 at beta h = 0.016)
        tol = 4.0 * np.finfo(float).eps * np.max(np.abs(phi(ss, ii))) + 1e-4 * (beta * h) ** 5
        pieces: dict[int, list] = {}  # a split step's first node -> its switch rows' (t, u)
        for pos, t, u, *_ in res.trace.switch_rows:
            if t < traj.t[pos]:
                pieces.setdefault(pos - 1, []).append((t, u))
        held = np.ones(len(uu), dtype=bool)
        held[list(pieces)] = False
        assert np.all(excess(uu, h, ss[:-1], ii[:-1], ss[1:], ii[1:])[held] <= 0.0)
        for k, rows in pieces.items():
            t, u, state = traj.t[k], uu[k], (ss[k], ii[k], rr[k])
            for tau, after in [*rows, (traj.t[k + 1], None)]:
                if tau > t:
                    end = _rk4_step(*state, beta, gamma, u, tau - t)
                    assert excess(u, tau - t, *state[:2], *end[:2]) <= 0.0
                    t, state = tau, end
                u = after
            assert cls._bits(*state) == cls._bits(ss[k + 1], ii[k + 1], rr[k + 1])
        zero = int(np.count_nonzero(held & (uu == 0.0)))
        return zero, int(np.count_nonzero(held)) - zero, len(pieces)

    @pytest.mark.parametrize("fixture", ["compare_artifacts", "fig1_noisy_artifacts"],
                             ids=["policy-compare", "fig1"])
    def test_first_integral_on_every_step_of_the_presets(self, request, fixture):
        counts = [self._check_first_integral(run)
                  for run in request.getfixturevalue(fixture).runs.values()]
        # every run has u = 0 and held steps; fig1's robust threshold fires
        # at a node, so its run has no split step
        assert all(zero and held for zero, held, _ in counts)
        assert any(split for *_, split in counts)

    def test_random_configs_match_the_reference_step_and_rate(self):
        hypothesis = pytest.importorskip("hypothesis")
        from dataclasses import replace

        from sirctl.scenarios import preset, run_scenario

        settings = {"fig1": ("fig1", 0.2, 300.0),
                    "policy-compare": ("policy-compare", 0.15, 400.0),
                    "saturated-policy-compare": ("policy-compare", 0.05, 150.0)}
        clamped = []

        @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
        @hypothesis.given(name=st.sampled_from(sorted(settings)), noise=noises,
                          inflation=mults, misestimation=mults,
                          i_bar=st.floats(0.005, 0.3), seed=st.integers(0, 2**31))
        def check(name, noise, inflation, misestimation, i_bar, seed):
            base, u_max, horizon = settings[name]
            cfg = replace(preset(base), noise=noise, inflation=inflation,
                          misestimation=misestimation, i_bar=i_bar, seed=seed, u_max=u_max,
                          policies=("optimal", "robust", "misestimated"),
                          integrator=IntegratorConfig(step=0.1, horizon=horizon))
            for run in run_scenario(cfg).runs.values():
                clamped.append(self._check_run(run, cfg, run.trace.plan))

        check()
        assert sum(c > 0 for c in clamped) >= 10


    def test_switch_rows_hold_the_offsets_of_their_step(self):
        # a switch row's signals are the state at its instant plus the
        # offsets held over its step, read at the step's first node (the
        # node itself for an event at a node); the loop reads the I offset
        # of a herd event apart, since stage 2 decides on S alone
        from dataclasses import replace

        from sirctl.scenarios import preset, run_scenario

        herd_inside = 0
        for noise in (NoiseConfig(kind="scaled_variance", divisor=1e12),
                      NoiseConfig(kind="snr_db", snr_db=60.0)):
            cfg = replace(preset("fig1"), noise=noise, policies=("robust", "misestimated"),
                          integrator=IntegratorConfig(step=0.1, horizon=300.0))
            art = run_scenario(cfg)
            for name, run in art.runs.items():
                traj, rows = run.trajectory, run.trace.switch_rows
                read_s, read_i = (art.noise.offset_reader(col, name == "robust")
                                  for col in (0, 1))
                for pos, tau, _, stage, s_seen, i_seen in rows:
                    if len({row[1] for row in rows if row[0] == pos}) > 1:
                        continue  # a second split of one step starts off the node
                    k = pos if tau == traj.t[pos] else pos - 1
                    herd_inside += k < pos and stage == 2
                    s, i, _ = traj.state_at(tau)
                    o_s, o_i = read_s(k, float(traj.s[k])), read_i(k, float(traj.i[k]))
                    assert (s_seen, i_seen) == (min(s + o_s, 1.0), min(i + o_i, 1.0))
        assert herd_inside >= 2


class TestSplitSteps:
    """The end node of a split step, one in which a threshold or herd event
    fires, against its sub-step chain: one ``_rk4_step`` up to each switch
    instant under the rate that the switch rows record before it, then the
    rest of the step under the last post-switch rate. ``TestStageTwoLoop``
    skips these nodes; the R pass restarts at them."""

    @staticmethod
    def _check_run(res) -> list[int]:
        """The number of switch instants of each split step of a run."""
        traj, rows = res.trajectory, res.trace.switch_rows
        beta, gamma = traj.params.beta, traj.params.gamma
        # the rows inside a step come before its end node's row; an event at
        # a node has the node's time
        inside = [row for row in rows if row[1] < traj.t[row[0]]]
        instants = []
        for end in sorted({row[0] for row in inside}):
            step = [row for row in inside if row[0] == end]
            t = float(traj.t[end - 1])
            state = (float(traj.s[end - 1]), float(traj.i[end - 1]), float(traj.r[end - 1]))
            for before, row in zip([None] + step, step):
                if before is None or row[1] != before[1]:  # the first row at an instant
                    state = _rk4_step(*state, beta, gamma, row[2], row[1] - t)
                    t = row[1]
            state = _rk4_step(*state, beta, gamma, step[-1][2], float(traj.t[end]) - t)
            assert np.array([traj.s[end], traj.i[end], traj.r[end]]).tobytes() == \
                np.array(state).tobytes()
            instants.append(len({row[1] for row in step}))
        return instants

    def test_random_configs_end_on_the_sub_step_chain(self):
        hypothesis = pytest.importorskip("hypothesis")
        from dataclasses import replace

        from sirctl.scenarios import preset, run_scenario

        instants = []

        @hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
        @hypothesis.given(name=st.sampled_from(["fig1", "policy-compare"]), noise=noises,
                          inflation=mults, misestimation=mults,
                          i_bar=st.floats(0.005, 0.3), seed=st.integers(0, 2**31))
        def check(name, noise, inflation, misestimation, i_bar, seed):
            cfg = replace(preset(name), noise=noise, inflation=inflation,
                          misestimation=misestimation, i_bar=i_bar, seed=seed,
                          policies=("optimal", "robust", "misestimated"),
                          integrator=IntegratorConfig(step=0.1, horizon=300.0))
            for run in run_scenario(cfg).runs.values():
                instants.extend(self._check_run(run))

        check()
        assert len(instants) >= 60

    def test_threshold_and_herd_inside_one_step(self):
        # i_bar just below the u = 0 peak: the herd event follows the
        # threshold inside the same step of 2
        from dataclasses import replace

        from sirctl.scenarios import preset, run_scenario

        cfg = replace(preset("fig1"), i_bar=0.239, noise=NoiseConfig(kind="none"),
                      policies=("optimal",), integrator=IntegratorConfig(step=2.0, horizon=300.0))
        assert self._check_run(run_scenario(cfg).runs["optimal"]) == [2]


class TestHorizonCut:
    """A run is causal: cut its grid at node m, and it is the first m + 1
    nodes of the uncut run bitwise, with the switch rows up to node m."""

    def test_random_configs_cut_around_each_switch(self):
        hypothesis = pytest.importorskip("hypothesis")
        from dataclasses import replace

        from sirctl.scenarios import preset, run_scenario

        # no snr_db: its sigma is the signal power over the whole horizon
        prefix_noises = st.one_of(
            st.just(NoiseConfig(kind="none")),
            st.builds(lambda d: NoiseConfig(kind="scaled_variance", divisor=d),
                      st.floats(1e2, 1e6)))
        # (stage, at the last node or inside the last step) of a cut run's
        # switch rows at its last node
        ends, cut_runs = set(), []

        @hypothesis.settings(max_examples=12, deadline=None, derandomize=True, database=None)
        @hypothesis.given(name=st.sampled_from(["fig1", "policy-compare"]),
                          noise=prefix_noises, inflation=mults, misestimation=mults,
                          i_bar=st.floats(0.005, 0.3), seed=st.integers(0, 2**31))
        def check(name, noise, inflation, misestimation, i_bar, seed):
            h, n = 0.1, 3000 if name == "fig1" else 4000
            cfg = replace(preset(name), noise=noise, inflation=inflation,
                          misestimation=misestimation, i_bar=i_bar, seed=seed,
                          policies=("optimal", "robust", "misestimated"),
                          integrator=IntegratorConfig(step=h, horizon=n * h))
            full = run_scenario(cfg).runs
            cuts = {row[0] + d for run in full.values() for row in run.trace.switch_rows
                    for d in (-1, 0, 1, 2)}
            for m in sorted(m for m in cuts if 1 <= m < n):
                cut = run_scenario(replace(
                    cfg, integrator=IntegratorConfig(step=h, horizon=m * h))).runs
                for policy, run in full.items():
                    a, b = run, cut[policy]
                    cut_runs.append(m)
                    ta, tb = a.trajectory, b.trajectory
                    for x, y in ((ta.t, tb.t), (ta.s, tb.s), (ta.i, tb.i), (ta.r, tb.r),
                                 (ta.u, tb.u),
                                 (a.trace.node_stage, b.trace.node_stage),
                                 (a.trace.node_s_seen, b.trace.node_s_seen),
                                 (a.trace.node_i_seen, b.trace.node_i_seen)):
                        assert x.dtype == y.dtype and x[:m + 1].tobytes() == y.tobytes()
                    # repr compares every bit of the floats
                    kept = tuple(row for row in a.trace.switch_rows if row[0] <= m)
                    assert repr(kept) == repr(b.trace.switch_rows)
                    ends.update((row[3], row[1] == float(tb.t[m]))
                                for row in b.trace.switch_rows if row[0] == m)

        check()
        # threshold events (stage-1 rows) and herd events (a stage-2 row at a
        # node, a stage-3 row inside a step) at the last node and inside the
        # last step
        assert {(1, True), (1, False), (2, True), (3, False)} <= ends
        assert len(cut_runs) >= 100


class TestOpenLoopOracle:
    """Stages 1 and 3 against scipy's DOP853 on the u = 0 epidemic."""

    def test_threshold_time(self, fig1_noisy_artifacts, dop853):
        cfg = fig1_noisy_artifacts.config
        t_b, bound = dop853.threshold_time(cfg.params, cfg.init, cfg.i_bar,
                                           cfg.integrator.horizon)
        assert abs(fig1_noisy_artifacts.runs["optimal"].trace.switching.t_b
                   - t_b) <= bound

    @pytest.mark.parametrize("policy", ["optimal", "robust"])
    def test_stage_three_nodes(self, fig1_noisy_artifacts, dop853, policy):
        res = fig1_noisy_artifacts.runs[policy]
        traj = res.trajectory
        k3 = int(np.argmax(res.trace.node_stage == 3))
        assert res.trace.node_stage[k3] == 3
        t = traj.t[k3:]
        _, sol = dop853.solve(traj.params, (t[0], t[-1]), [traj.s[k3], traj.i[k3]],
                              dense_output=True)
        ref = sol.sol(t)
        # each integrator's error is at most its per-step error times its
        # number of steps, on fractions <= 1: rounding of ~eps per RK4 step
        # (RK4's truncation error at h = 0.01 is ~1e-16 here), and rtol per
        # DOP853 step
        bound = (len(t) - 1) * np.finfo(float).eps + (len(sol.t) - 1) * dop853.RTOL
        assert np.max(np.abs(ref[0] - traj.s[k3:])) <= bound
        assert np.max(np.abs(ref[1] - traj.i[k3:])) <= bound


class TestFormedSignals:
    """A trace forms its seen signals where they are read: whole, over a
    window of nodes, or per block of the trajectory writer. Every read has
    the bits of the loop's per-node reader, ``min(x + offset_reader(k, x), 1)``."""

    SETTINGS = {"fig1": ("fig1", 0.2, 300.0),
                "policy-compare": ("policy-compare", 0.15, 400.0),
                "saturated-policy-compare": ("policy-compare", 0.05, 150.0)}

    @staticmethod
    def _rows(trace, lo, hi):
        """The full rows of node rows lo..hi-1 and the switch rows before them."""
        before = [row[0] for row in trace.switch_rows]
        return slice(lo + sum(p < lo for p in before), hi + sum(p < hi for p in before))

    def test_random_configs_form_the_readers_signals(self, monkeypatch, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        from dataclasses import replace

        from sirctl import csvio
        from sirctl.scenarios import preset, run_scenario

        # writer blocks of a few rows, so blocks straddle t_b and t_h
        monkeypatch.setattr(csvio, "_CHUNK_ROWS", 7)
        covered = set()

        @hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
        @hypothesis.given(name=st.sampled_from(sorted(self.SETTINGS)), noise=noises,
                          inflation=mults, misestimation=mults, i_bar=st.floats(0.005, 0.3),
                          seed=st.integers(0, 2**31), width=st.integers(1, 9))
        def check(name, noise, inflation, misestimation, i_bar, seed, width):
            base, u_max, horizon = self.SETTINGS[name]
            cfg = replace(preset(base), noise=noise, inflation=inflation,
                          misestimation=misestimation, i_bar=i_bar, seed=seed, u_max=u_max,
                          policies=("robust", "misestimated"),
                          integrator=IntegratorConfig(step=0.1, horizon=horizon))
            art = run_scenario(cfg)
            for policy, run in art.runs.items():
                traj, trace = run.trajectory, run.trace
                n = len(traj)
                assert (trace.noise is None) is (noise.kind == "none")
                full = trace.read()
                # every stage-2 node against the per-node reader (no reader
                # and zero offsets for a policy that read no noise)
                readers = [(lambda k, x: 0.0) if trace.noise is None
                           else art.noise.offset_reader(col, policy == "robust")
                           for col in (0, 1)]
                nodes = np.flatnonzero(trace.node_stage == 2)
                for x, seen, read in zip((traj.s, traj.i), full[2:], readers):
                    expected = [min(v + read(k, v), 1.0)
                                for k, v in zip(nodes.tolist(), x[nodes].tolist())]
                    assert seen[nodes].tobytes() == np.array(expected, dtype=float).tobytes()
                if len(nodes):
                    covered.add((noise.kind, policy))
                # windows around each switch row's node, and the closed form's
                # window from the node at or before t_b to the node after t_h
                switches = {row[0] for row in trace.switch_rows}
                windows = {(max(p - d, 0), min(p + e, n)) for p in switches
                           for d in (0, width) for e in (1, width)}
                sw = trace.switching
                if sw.complete:
                    windows.add((int(np.searchsorted(traj.t, sw.t_b, side="right")) - 1,
                                 min(int(np.searchsorted(traj.t, sw.t_h, side="right")) + 1, n)))
                full_t, full_s = trace.t, trace.s_seen
                for lo, hi in windows:
                    for part, whole in zip(trace.read(slice(lo, hi)), full):
                        assert part.tobytes() == whole[lo:hi].tobytes()
                    rows = self._rows(trace, lo, hi)
                    t_w, s_w = trace.s_seen_rows(lo, hi)
                    assert t_w.tobytes() == full_t[rows].tobytes()
                    assert s_w.tobytes() == full_s[rows].tobytes()
                # the trajectory file, written in blocks of 7 rows, parsed back
                path = tmp_path / f"trajectory_{policy}.csv"
                csvio.write_trajectory_csv(path, run, art.noise)
                table = csvio.read_trajectory_csv(path)
                assert ("s_seen" in table) is (trace.noise is not None)
                if trace.noise is not None:
                    for col, seen in (("s_seen", full[2]), ("i_seen", full[3])):
                        cells = np.array([float(f"{v:.12g}") for v in seen.tolist()])
                        assert table[col].tobytes() == cells.tobytes()

        check()
        assert covered == {(kind, policy) for kind in ("none", "snr_db", "scaled_variance")
                           for policy in ("robust", "misestimated")}
