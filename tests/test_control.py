"""Policies, state bounds, feasibility, and the closed loop."""
from __future__ import annotations

import math

import numpy as np
import pytest

from sirctl.control import (
    AssumedRates,
    ControlBounds,
    PolicyKind,
    feasibility_check,
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


def _state(s, i, t=0.0):
    return SirState(t=t, s=s, i=i, r=1.0 - s - i)


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
            PolicyKind.ROBUST, params, AssumedRates.from_multipliers(params, 1.05, 0.95),
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
        res = request.getfixturevalue(fixture).runs["robust"].result
        traj, trace = res.trajectory, res.trace
        misses = {"s": int(np.count_nonzero(traj.s > trace.node_s_seen)),
                  "i": int(np.count_nonzero(traj.i > trace.node_i_seen))}
        assert misses == {"s": 0, "i": 0}


class TestFeasibilityCheck:
    def test_hand_value_feasible(self):
        required, ok = feasibility_check(PARAMS_F1, _state(0.9, 0.01), u_max=0.2)
        assert required == pytest.approx(0.081, abs=1e-12)
        assert ok

    def test_budget_too_small(self):
        required, ok = feasibility_check(PARAMS_F1, _state(0.9, 0.01), u_max=0.05)
        assert required == pytest.approx(0.081, abs=1e-12)
        assert not ok

    def test_trivially_feasible_below_herd_level(self):
        required, ok = feasibility_check(PARAMS_F1, _state(0.3, 0.01), u_max=0.05)
        assert required <= 0.0
        assert ok


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
        opt, rob = runs["optimal"].result, runs["robust"].result
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
        opt = fig1_noise_free_artifacts.runs["optimal"].result
        sw = opt.trace.switching
        traj = opt.trajectory
        stage2 = (traj.t >= sw.t_b) & (traj.t <= sw.t_h)
        assert np.max(np.abs(traj.i[stage2] - 0.1)) <= 1e-4

    def test_switching_time_ordering_under_inflation(self, fig1_noisy_artifacts):
        opt = fig1_noisy_artifacts.runs["optimal"].result.trace.switching
        rob = fig1_noisy_artifacts.runs["robust"].result.trace.switching
        assert rob.t_b <= opt.t_b <= opt.t_h <= rob.t_h

    def test_robust_dominates_optimal_pointwise(self, fig1_noisy_artifacts):
        opt = fig1_noisy_artifacts.runs["optimal"].result.trace
        rob = fig1_noisy_artifacts.runs["robust"].result.trace
        grid = np.union1d(opt.t, rob.t)
        gap = np.interp(grid, rob.t, rob.u) - np.interp(grid, opt.t, opt.u)
        assert np.min(gap) >= -1e-9

    def test_robust_feasible_under_bracketing_bounds(self, fig1_noisy_artifacts):
        rep = fig1_noisy_artifacts.runs["robust"].result.report
        assert rep.feasible
        assert rep.max_infection_attained <= 0.1 + 1e-6

    def test_misestimated_run_breaks_threshold(self, compare_artifacts):
        rep = compare_artifacts.runs["misestimated"].result.report
        assert not rep.feasible
        assert rep.max_infection_attained > 0.01 + 1e-3

    def test_required_rate_reported_at_crossing(self, compare_artifacts):
        rep = compare_artifacts.runs["optimal"].result.report
        # S barely declines before the crossing, so the required rate is
        # close to beta - gamma
        assert 0.1 < rep.required_rate_at_tb < 0.13
        assert rep.required_rate_at_tb <= rep.u_max

    def test_saturated_budget_recorded_and_infeasible(self):
        params = EpidemicParams(beta=0.16, gamma=1.0 / 30.0)
        res = simulate_closed_loop(
            PolicyKind.ROBUST, params,
            AssumedRates.from_multipliers(params, 1.05, 0.95), self.INIT, None,
            IntegratorConfig(step=0.01, horizon=150.0), i_bar=0.01,
            bounds=ControlBounds(u_max=0.05))
        assert res.report.clamp_events == 5866
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
                AssumedRates.from_multipliers(params, 1.05, 0.95), self.INIT,
                noise, cfg, i_bar=0.01, bounds=ControlBounds(0.15))

        a, b = run(), run()
        assert np.array_equal(a.trajectory.i, b.trajectory.i)
        assert np.array_equal(a.trace.u, b.trace.u)

    def test_first_nonfinite_node_reported(self):
        # RK4 at beta*h = 6 overflows in stage 1 before the infection reaches
        # i_bar; the error names the time of the first node holding inf or
        # NaN, also when the loop starts at a prefix run's last stage-1 node
        params = EpidemicParams(beta=6.0, gamma=0.1)
        init = SirState(t=0.0, s=0.999, i=0.001, r=0.0)
        x, k = (init.s, init.i, init.r), 0
        while all(map(math.isfinite, x)):
            x = _rk4_step(*x, params.beta, params.gamma, 0.0, 1.0)
            k += 1
        assert k == 6
        config = IntegratorConfig(step=1.0, horizon=20.0)
        # a prefix on the same grid that leaves stage 1 after node 1 and,
        # isolating at up to u = 1, stays finite
        prefix = simulate_closed_loop(PolicyKind.OPTIMAL, params, None, init, None,
                                      config, 0.5, ControlBounds(u_max=1.0))
        assert prefix.node_stage[:3].tolist() == [1, 1, 2]
        noise = MeasurementNoise.build(NoiseConfig(kind="scaled_variance", divisor=1e6),
                                       config.n_steps + 1, seed=3)
        for kind, source, start in ((PolicyKind.OPTIMAL, None, None),
                                    (PolicyKind.OPTIMAL, None, prefix),
                                    (PolicyKind.ROBUST, noise, prefix)):
            with pytest.raises(NonFiniteDynamicsError, match=rf"at t={float(k)}$"):
                simulate_closed_loop(kind, params, AssumedRates(params.beta, params.gamma),
                                     init, source, config, 0.95, BOUNDS, prefix=start)

    def test_infeasibility_is_recorded_not_raised(self, compare_artifacts):
        # the misestimated run exceeded the cap without aborting the run
        traj = compare_artifacts.runs["misestimated"].result.trajectory
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
        kinds = [self._switch_kinds(run.result)
                 for run in node_event_artifacts.runs.values()]
        assert kinds == [["node", "step"], ["node", "node"], ["node", "node"]]
        # every run spans the grid, however early it reaches stage 3
        assert all(len(run.result.trajectory) == 4001
                   and run.result.node_stage[-1] == 3
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
        result = run_scenario(cfg).runs["misestimated"].result
        switching = result.trace.switching
        assert switching.t_b is not None and switching.t_h == switching.t_b
        assert self._switch_kinds(result) == ["step", "step"]

    def test_headline_runs(self, fig1_noisy_artifacts, compare_artifacts):
        kinds = [kind for art in (fig1_noisy_artifacts, compare_artifacts)
                 for run in art.runs.values() for kind in self._switch_kinds(run.result)]
        assert kinds.count("step") == 6 and kinds.count("node") == 3


class TestCumulativeOrdering:
    def test_robust_keeps_more_susceptibles(self, fig1_noisy_artifacts):
        opt = fig1_noisy_artifacts.runs["optimal"].result
        rob = fig1_noisy_artifacts.runs["robust"].result
        t_h_star = opt.trace.switching.t_h
        mask = opt.trajectory.t <= t_h_star
        assert np.all(rob.trajectory.s[mask] >= opt.trajectory.s[mask] - 1e-9)


class TestSharedStageOne:
    """A loop given the optimal run as ``prefix`` starts where its own
    threshold can fire; its run is bitwise the run from node 0."""

    @staticmethod
    def _assert_same_run(a, b):
        ta, tb = a.trajectory, b.trajectory
        for x, y in ((ta.t, tb.t), (ta.s, tb.s), (ta.i, tb.i), (ta.r, tb.r), (ta.u, tb.u),
                     (a.node_stage, b.node_stage), (a.trace.t, b.trace.t),
                     (a.trace.u, b.trace.u), (a.trace.stage, b.trace.stage),
                     (a.trace.s_seen, b.trace.s_seen), (a.trace.i_seen, b.trace.i_seen)):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        # repr compares every bit of the floats, NaN included
        assert repr(a.trace.switching) == repr(b.trace.switching)
        assert a.trace.clamp_events == b.trace.clamp_events
        assert repr(a.report) == repr(b.report)

    @classmethod
    def _check_policies(cls, cfg):
        """Run every non-optimal policy of ``cfg`` with and without the prefix."""
        from sirctl.scenarios import _assumed_rates, _optimal_run

        optimal, noise = _optimal_run(cfg)
        results = []
        for kind, inflation in ((PolicyKind.ROBUST, cfg.inflation),
                                (PolicyKind.MISESTIMATED, cfg.misestimation)):
            args = (kind, cfg.params, _assumed_rates(cfg, inflation, optimal.trajectory),
                    cfg.init, noise, cfg.integrator, cfg.i_bar, ControlBounds(cfg.u_max))
            shared = simulate_closed_loop(*args, prefix=optimal)
            cls._assert_same_run(shared, simulate_closed_loop(*args))
            results.append(shared)
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
            last_open = int(np.argmax(optimal.node_stage != 1)) - 1
            assert optimal.trajectory.t[last_open] < 54.67 < optimal.trajectory.t[last_open + 2]

    def test_stage_one_is_not_integrated_again(self, monkeypatch):
        from dataclasses import replace

        from sirctl import control
        from sirctl.scenarios import _optimal_run, preset

        cfg = replace(preset("fig1"), policies=("optimal", "robust"))
        optimal, noise = _optimal_run(cfg)
        steps = []
        monkeypatch.setattr(control, "_rk4_step",
                            lambda *a: steps.append(1) or _rk4_step(*a))
        args = (PolicyKind.ROBUST, cfg.params, AssumedRates(0.168, 0.05985), cfg.init,
                noise, cfg.integrator, cfg.i_bar, BOUNDS)
        simulate_closed_loop(*args)
        from_zero = len(steps)
        steps.clear()
        result = simulate_closed_loop(*args, prefix=optimal)
        # the loop starts at the node where the threshold fires, or at the
        # start of the step in which it does
        t, t_b = result.trajectory.t, result.trace.switching.t_b
        start = int(np.searchsorted(t, t_b))
        start -= t[start] != t_b
        assert from_zero - len(steps) == start > 9000

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

    @pytest.mark.parametrize("change", ["params", "init", "step", "horizon"])
    def test_mismatched_prefix_raises(self, change):
        init = _state(1.0 - 1e-5, 1e-5)
        grid = IntegratorConfig(step=0.1, horizon=200.0)
        prefix = simulate_closed_loop(PolicyKind.OPTIMAL, PARAMS_F1, None, init, None, grid,
                                      0.1, BOUNDS)
        params, other_init, other_grid = PARAMS_F1, init, grid
        if change == "params":
            params = EpidemicParams(beta=0.17, gamma=0.063)
        elif change == "init":
            other_init = _state(1.0 - 2e-5, 2e-5)
        elif change == "step":
            other_grid = IntegratorConfig(step=0.05, horizon=200.0)
        else:
            other_grid = IntegratorConfig(step=0.1, horizon=100.0)
        with pytest.raises(ValueError, match="prefix"):
            simulate_closed_loop(PolicyKind.ROBUST, params, AssumedRates(0.17, 0.06),
                                 other_init, None, other_grid, 0.1, BOUNDS, prefix=prefix)


class TestStageBoundaries:
    """Stages 1 and 3 are the u = 0 epidemic, stepped by ``integrate``'s own
    stepper: stage 1 is bitwise ``integrate`` from the initial state, and
    stage 3 bitwise ``integrate`` from the run's first stage-3 node."""

    THREE = ("optimal", "robust", "misestimated")

    @staticmethod
    def _assert_open_loop_stages(cfg, res):
        traj, stage = res.trajectory, res.node_stage
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
            tail = integrate(cfg.params, 0.0, traj.sample(k3),
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
        firsts = [self._assert_open_loop_stages(cfg, run.result) for run in art.runs.values()]
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
            for run in run_scenario(cfg).runs.values():
                res = run.result
                t, sw = res.trajectory.t, res.trace.switching
                t_b = np.inf if sw.t_b is None else sw.t_b
                t_h = np.inf if sw.t_h is None else sw.t_h
                expected = 1 + (t >= t_b).astype(int) + (t >= t_h).astype(int)
                assert res.node_stage.dtype == np.int8
                assert res.node_stage.tolist() == expected.tolist()
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
        assert 144.49 < art.runs["optimal"].result.trace.switching.t_h < 144.5
        firsts = {name: self._assert_open_loop_stages(cfg, run.result)
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
    def _check_run(cls, res, cfg, assumed):
        traj, trace, stage = res.trajectory, res.trace, res.node_stage
        beta, gamma = cfg.params.beta, cfg.params.gamma
        beta_plan, gamma_plan = (beta, gamma) if assumed is None else (assumed.beta,
                                                                       assumed.gamma)
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
        return clamps

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
                clamped.append(self._check_run(run.result, cfg, run.assumed))

        check()
        assert sum(c > 0 for c in clamped) >= 10


class TestOpenLoopOracle:
    """Stages 1 and 3 against scipy's DOP853 on the u = 0 epidemic."""

    def test_threshold_time(self, fig1_noisy_artifacts, dop853):
        cfg = fig1_noisy_artifacts.config
        t_b, bound = dop853.threshold_time(cfg.params, cfg.init, cfg.i_bar,
                                           cfg.integrator.horizon)
        assert abs(fig1_noisy_artifacts.runs["optimal"].result.trace.switching.t_b
                   - t_b) <= bound

    @pytest.mark.parametrize("policy", ["optimal", "robust"])
    def test_stage_three_nodes(self, fig1_noisy_artifacts, dop853, policy):
        res = fig1_noisy_artifacts.runs[policy].result
        traj = res.trajectory
        k3 = int(np.argmax(res.node_stage == 3))
        assert res.node_stage[k3] == 3
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
