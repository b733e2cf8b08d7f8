"""Cost integrals and the three gap formulas."""
from __future__ import annotations

import importlib.util
import math
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sirctl.analysis import (
    build_cost_report,
    cumulative_infected_check,
    gap_direct,
    gap_from_states,
    gap_closed_form,
    grid_mismatch,
    total_cost,
)
from sirctl.control import (
    AssumedRates,
    PolicyKind,
    PolicyTrace,
    SwitchingTimes,
)
from sirctl.core import (EpidemicParams, IntegratorConfig, SirState, Trajectory, _rk4_step,
                         integrate)
from sirctl.scenarios import preset, run_scenario

PARAMS = EpidemicParams(beta=0.16, gamma=1.0 / 30.0)


def make_trace(t, u, kind=PolicyKind.OPTIMAL, switching=SwitchingTimes(),
               s_seen=None):
    t = np.asarray(t, dtype=float)
    u = np.asarray(u, dtype=float)
    filler = np.zeros_like(t)
    s_seen = filler.copy() if s_seen is None else np.asarray(s_seen, dtype=float)
    # every row a node row: the duplicated switch instants are given as nodes
    return PolicyTrace(node_t=t, node_u=u, node_stage=np.ones_like(t, dtype=np.int8),
                       node_s_seen=s_seen, node_i_seen=filler, switch_rows=(),
                       switching=switching, clamp_events=0, kind=kind)


def make_traj(t, s, i, u=None):
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    i = np.asarray(i, dtype=float)
    u = np.zeros_like(t) if u is None else np.asarray(u, dtype=float)
    return Trajectory(t=t, s=s, i=i, r=1.0 - s - i, u=u,
                      step=float(t[1] - t[0]), params=PARAMS)


class TestTotalCost:
    def test_zero_rate_costs_nothing(self):
        trace = make_trace([0.0, 10.0, 20.0], [0.0, 0.0, 0.0])
        assert total_cost(trace) == 0.0

    def test_rectangle_pulse(self):
        # piecewise-constant 0.1 on [10, 20]: stage switches are duplicated nodes
        t = [0.0, 10.0, 10.0, 20.0, 20.0, 30.0]
        u = [0.0, 0.0, 0.1, 0.1, 0.0, 0.0]
        assert total_cost(make_trace(t, u)) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("fixture", ["compare_artifacts", "fig1_noisy_artifacts",
                                         "fig1_noise_free_artifacts"])
    def test_within_ulps_of_the_spliced_rows(self, request, fixture):
        # the segment sums round differently from one trapezoid over all rows
        for run in request.getfixturevalue(fixture).runs.values():
            trace = run.result.trace
            ref = float(np.trapezoid(trace.u, trace.t))
            assert abs(total_cost(trace) - ref) <= 4 * np.spacing(ref)

    def test_switch_row_groups_and_first_row(self):
        # switch rows before node 0, a group of three between two nodes and a
        # single one; the rate rows they add change the integral
        t = np.arange(11.0)
        trace = replace(make_trace(t, np.where(t < 5.0, 0.0, 0.1)),
                        switch_rows=((0, 0.0, 0.2, 2, 0.0, 0.0),
                                     (5, 4.5, 0.0, 1, 0.0, 0.0), (5, 4.5, 0.2, 2, 0.0, 0.0),
                                     (5, 4.5, 0.1, 2, 0.0, 0.0), (8, 7.5, 0.3, 2, 0.0, 0.0)))
        assert len(trace.t) == 16
        assert total_cost(trace) == pytest.approx(
            float(np.trapezoid(trace.u, trace.t)), rel=1e-15)

    def test_allocates_less_than_two_columns(self):
        # the spliced t and u alone are two columns
        n = 120_000
        t = np.arange(n) * 0.01
        trace = replace(make_trace(t, np.linspace(0.0, 0.1, n)),
                        switch_rows=((0, 0.0, 0.0, 1, 0.0, 0.0), (500, 4.995, 0.1, 2, 0.0, 0.0),
                                     (500, 4.995, 0.0, 3, 0.0, 0.0)))
        tracemalloc.start()
        try:
            total_cost(trace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * t.nbytes


class TestGapDirect:
    def test_identical_traces_have_zero_gap(self):
        trace = make_trace([0.0, 5.0, 10.0], [0.0, 0.1, 0.0])
        assert gap_direct(trace, trace) == 0.0

    def test_rectangle_difference(self):
        a = make_trace([0.0, 10.0, 10.0, 20.0, 20.0, 30.0],
                       [0.0, 0.0, 0.2, 0.2, 0.0, 0.0])
        b = make_trace([0.0, 12.0, 12.0, 18.0, 18.0, 30.0],
                       [0.0, 0.0, 0.1, 0.1, 0.0, 0.0])
        assert gap_direct(a, b) == pytest.approx(0.2 * 10 - 0.1 * 6, abs=1e-12)

    def test_grid_mismatch_rejected(self):
        a = make_trace([0.0, 10.0], [0.0, 0.0])
        b = make_trace([0.0, 12.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="grids disagree"):
            gap_direct(a, b)

    def test_ends_differ_rejected_also_at_rate_zero_in_stage_three(self):
        # a trace that ends in stage 3 at rate zero, against a longer one:
        # every run spans its scenario's grid, so the horizons must agree
        a = make_trace([0.0, 5.0, 5.0, 8.0, 8.0, 10.0], [0.0, 0.0, 0.1, 0.1, 0.0, 0.0])
        a = replace(a, node_stage=np.array([1, 1, 2, 2, 3, 3], dtype=np.int8))
        b = make_trace([0.0, 12.0], [0.1, 0.1])
        for pair in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="at the end: "):
                gap_direct(*pair)
        with pytest.raises(ValueError, match="at the start"):
            gap_direct(replace(a, node_t=a.node_t + 1.0), b)

    @pytest.mark.parametrize("t_other, where", [([0.0, 12.0], "end"), ([1.0, 10.0], "start")])
    def test_cost_report_rejects_traces_on_different_grids(self, t_other, where):
        # the report writes gap_direct, so it raises where gap_direct does
        a, b = make_trace([0.0, 10.0], [0.0, 0.0]), make_trace(t_other, [0.0, 0.0])
        traj = make_traj([0.0, 10.0], [0.9, 0.9], [0.01, 0.01])
        for pair in ((a, b), (b, a)):
            with pytest.raises(ValueError, match=f"grids disagree at the {where}"):
                build_cost_report(pair[0], traj, pair[1], traj, PARAMS, 0.168, 0.03)


class TestGridMismatch:
    @pytest.mark.parametrize("fixture", ["compare_artifacts", "fig1_noisy_artifacts"])
    def test_node_ends_are_the_row_ends(self, request, fixture):
        # grid_mismatch reads only node columns: a switch row is never the
        # last row, and one at position 0 has the first node's time
        for run in request.getfixturevalue(fixture).runs.values():
            trace = run.result.trace
            assert trace.switch_rows
            assert (trace.t[0], trace.t[-1]) == (trace.node_t[0], trace.node_t[-1])
            assert (trace.u[-1], trace.stage[-1]) == (trace.node_u[-1], trace.node_stage[-1])

    def test_allocates_less_than_one_column(self):
        n = 120_000
        a = replace(make_trace(np.arange(n) * 0.01, np.zeros(n)),
                    switch_rows=((0, 0.0, 0.0, 1, 0.0, 0.0), (500, 4.995, 0.1, 2, 0.0, 0.0)))
        b = replace(a, switch_rows=((700, 6.995, 0.1, 2, 0.0, 0.0),))
        tracemalloc.start()
        try:
            assert grid_mismatch(a, b) == ""
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < a.node_t.nbytes


class TestStateOnGrid:
    @pytest.fixture(scope="class")
    def traj(self):
        # rate 0.1 on [30, 90] and 0 elsewhere, so sub-steps there use u != 0
        state, parts = SirState(t=0.0, s=1.0 - 1e-5, i=1e-5, r=0.0), []
        for u, span in ((0.0, 30.0), (0.1, 60.0), (0.0, 60.0)):
            parts.append(integrate(PARAMS, u, state, IntegratorConfig(step=0.01, horizon=span)))
            state = parts[-1].sample(-1)
        cols = {c: np.concatenate([getattr(p, c)[:-1] for p in parts[:-1]]
                                  + [getattr(parts[-1], c)]) for c in "tsiru"}
        return Trajectory(**cols, step=0.01, params=PARAMS)

    def test_node_values_on_a_node_one_sub_step_between(self, traj):
        # a time within 1e-12 below a node reads that node; any later time
        # before the next node is one RK4 step from the node, bit for bit
        def bits(state):
            return np.array(state, dtype=float).tobytes()

        beta, gamma = PARAMS.beta, PARAMS.gamma
        assert traj.u[3500] == 0.1
        rng = np.random.default_rng(0)
        for k in [0, 3500, len(traj) - 1, *rng.integers(0, len(traj) - 1, 300).tolist()]:
            t_k, node = float(traj.t[k]), (float(traj.s[k]), float(traj.i[k]),
                                           float(traj.r[k]))
            for time in (t_k, t_k - 9e-13):
                assert bits(traj.state_at(time)) == bits(node)
            after = [t_k + 5e-10] if k == len(traj) - 1 else [
                t_k + 1e-13, t_k + rng.uniform(0.001, 0.009)]
            for time in after:
                step = _rk4_step(*node, beta, gamma, float(traj.u[k]), time - t_k)
                assert bits(traj.state_at(time)) == bits(step)

    @pytest.mark.parametrize("times, first", [([-1.0], "-1.0"),
                                              ([10.0, 150.1, 151.0], "150.1"),
                                              ([10.0, math.nan, 151.0], "nan")])
    def test_time_outside_range_names_the_first(self, traj, times, first):
        # looked up one at a time, the first time outside the grid raises
        with pytest.raises(ValueError, match=f"time {first} outside trajectory range"):
            for time in times:
                traj.state_at(time)


class TestGapFromStates:
    def test_identical_runs_give_zero(self):
        t = np.arange(0.0, 20.1, 0.1)
        traj = make_traj(t, np.full_like(t, 0.9), np.full_like(t, 0.01))
        times = SwitchingTimes(t_b=5.0, t_h=15.0)
        assert gap_from_states(traj, traj, PARAMS.beta, times) == pytest.approx(0.0, abs=1e-14)

    def test_hand_built_susceptible_gap(self):
        # S gap of 0.01 over 10 time units, equal terminal infection:
        # beta * 0.01 * 10 = 0.016
        t = np.arange(0.0, 20.1, 0.1)
        rob = make_traj(t, np.full_like(t, 0.90), np.full_like(t, 0.01))
        opt = make_traj(t, np.full_like(t, 0.89), np.full_like(t, 0.01))
        times = SwitchingTimes(t_b=5.0, t_h=15.0)
        assert gap_from_states(rob, opt, 0.16, times) == pytest.approx(0.016, abs=1e-12)

    @pytest.mark.parametrize("on_nodes", [False, True], ids=["between", "on"])
    def test_integrates_the_run_nodes(self, on_nodes):
        # beta*trapezoid of S - S* over [t_b, the nodes inside, t_h], bit for
        # bit, with the run's own node values and one state_at at each end;
        # the nodes are off the multiples of the step
        t = 0.05 + 0.1 * np.arange(201)
        t_b, t_h = (float(t[50]), float(t[150])) if on_nodes else (5.03, 14.97)
        rob = make_traj(t, 0.9 - 0.01 * np.sin(t), 0.01 + 0.001 * np.cos(t))
        opt = make_traj(t, 0.89 - 0.02 * np.sin(t), 0.012 + 0.001 * np.sin(t))
        inside = (t > t_b) & (t < t_h)
        grid = np.concatenate(([t_b], t[inside], [t_h]))

        def susceptible(traj):
            return np.concatenate(([traj.state_at(t_b)[0]], traj.s[inside],
                                   [traj.state_at(t_h)[0]]))

        want = float(0.16 * np.trapezoid(susceptible(rob) - susceptible(opt), grid)
                     - math.log(rob.state_at(t_h)[1]) + math.log(opt.state_at(t_h)[1]))
        assert len(grid) == (101 if on_nodes else 102)
        got = gap_from_states(rob, opt, 0.16, SwitchingTimes(t_b=t_b, t_h=t_h))
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("grid", [np.arange(0.0, 20.0, 0.1), np.arange(0.1, 20.15, 0.1),
                                      np.arange(0.0, 20.25, 0.1)],
                             ids=["shorter", "later-start", "longer"])
    def test_rejects_runs_on_different_grids(self, grid):
        t = np.arange(0.0, 20.1, 0.1)
        traj = make_traj(t, np.full_like(t, 0.9), np.full_like(t, 0.01))
        other = make_traj(grid, np.full_like(grid, 0.9), np.full_like(grid, 0.01))
        times = SwitchingTimes(t_b=5.0, t_h=15.0)
        for pair in ((traj, other), (other, traj)):
            with pytest.raises(ValueError, match="different grids"):
                gap_from_states(*pair, 0.16, times)

    def test_rejects_vanishing_infection(self):
        t = np.arange(0.0, 20.1, 0.1)
        rob = make_traj(t, np.full_like(t, 0.9), np.full_like(t, 1e-13))
        times = SwitchingTimes(t_b=5.0, t_h=15.0)
        with pytest.raises(ValueError, match="too small"):
            gap_from_states(rob, rob, 0.16, times)

    def test_requires_complete_switching_times(self):
        t = np.arange(0.0, 20.1, 0.1)
        traj = make_traj(t, np.full_like(t, 0.9), np.full_like(t, 0.01))
        with pytest.raises(ValueError):
            gap_from_states(traj, traj, 0.16, SwitchingTimes(t_b=5.0, t_h=None))


class TestGapClosedForm:
    def _robust(self, t, s, switching):
        """A robust trace whose consumed susceptible signal is ``s``."""
        return make_trace(t, np.zeros_like(t), kind=PolicyKind.ROBUST,
                          switching=switching, s_seen=s)

    def test_collapse_gives_zero_gap(self):
        t = np.arange(0.0, 20.1, 0.1)
        s = np.full_like(t, 0.9)
        traj = make_traj(t, s, np.full_like(t, 0.01))
        times = SwitchingTimes(t_b=5.0, t_h=15.0)
        c, c_bar = gap_closed_form(self._robust(t, s, times), PARAMS.beta, PARAMS.gamma,
                            PARAMS.beta, PARAMS.gamma, traj, times)
        assert c == pytest.approx(0.0, abs=1e-12)
        assert c <= c_bar + 1e-12

    def test_rejects_inverted_ordering(self):
        t = np.arange(0.0, 20.1, 0.1)
        s = np.full_like(t, 0.9)
        traj = make_traj(t, s, np.full_like(t, 0.01))
        with pytest.raises(ValueError, match="out of order"):
            gap_closed_form(self._robust(t, s, SwitchingTimes(t_b=6.0, t_h=14.0)),
                     0.168, 0.06, 0.16, 0.063, traj, SwitchingTimes(t_b=5.0, t_h=15.0))

    def test_wider_beta_inflation_raises_both_values(self, fig1_noise_free_artifacts):
        from sirctl.scenarios import InflationConfig, preset, run_scenario
        from sirctl.noise import NoiseConfig

        base = fig1_noise_free_artifacts
        wide_cfg = replace(preset("fig1"), name="fig1-wide",
                           noise=NoiseConfig(kind="none"),
                           inflation=InflationConfig(beta_mult=1.10, gamma_mult=0.95))
        wide = run_scenario(wide_cfg)
        assert wide.cost_report.gap_closed_form > base.cost_report.gap_closed_form
        assert wide.cost_report.gap_upper > base.cost_report.gap_upper


class TestCrossFormulaConsistency:
    def test_three_way_agreement_noise_free(self, fig1_noise_free_artifacts):
        cr = fig1_noise_free_artifacts.cost_report
        assert cr.gap_direct > 0.0
        assert abs(cr.gap_direct - cr.gap_from_states) / cr.gap_direct <= 1e-3
        assert abs(cr.gap_direct - cr.gap_closed_form) / cr.gap_direct <= 1e-3
        assert cr.gap_closed_form <= cr.gap_upper + 1e-6

    def test_three_way_agreement_with_noise(self, fig1_noisy_artifacts):
        cr = fig1_noisy_artifacts.cost_report
        assert abs(cr.gap_direct - cr.gap_from_states) / cr.gap_direct <= 1e-3
        assert abs(cr.gap_direct - cr.gap_closed_form) / cr.gap_direct <= 1e-3

    def test_costs_ordered(self, fig1_noisy_artifacts):
        cr = fig1_noisy_artifacts.cost_report
        assert cr.total_cost >= cr.optimal_cost
        assert cr.gap_direct >= -1e-6

    def test_robust_envelope_feeds_closed_form(self, fig1_noisy_artifacts):
        art = fig1_noisy_artifacts
        rob, opt = art.runs["robust"], art.runs["optimal"].result
        params = art.config.params

        def closed_form(trace):
            return gap_closed_form(trace, rob.assumed.beta, rob.assumed.gamma,
                                   params.beta, params.gamma, opt.trajectory,
                                   opt.trace.switching)

        trace = rob.result.trace
        cr = art.cost_report
        assert closed_form(trace) == (cr.gap_closed_form, cr.gap_upper)
        wider = replace(trace, node_s_seen=np.minimum(trace.node_s_seen + 0.01, 1.0),
                        switch_rows=tuple((*row[:4], min(row[4] + 0.01, 1.0), row[5])
                                          for row in trace.switch_rows))
        assert np.array_equal(wider.s_seen, np.minimum(trace.s_seen + 0.01, 1.0))
        assert closed_form(wider)[0] > cr.gap_closed_form


class TestCumulativeCheck:
    def test_identical_runs_zero_margin(self):
        t = np.arange(0.0, 10.1, 0.1)
        traj = make_traj(t, np.linspace(0.9, 0.5, len(t)), np.full_like(t, 0.01))
        out = cumulative_infected_check(traj, traj, t_h_star=8.0)
        assert out.max_violation == 0.0
        assert out.ok

    def test_flags_violation(self):
        t = np.arange(0.0, 10.1, 0.1)
        good = make_traj(t, np.full_like(t, 0.9), np.full_like(t, 0.01))
        bad = make_traj(t, np.full_like(t, 0.88), np.full_like(t, 0.01))
        out = cumulative_infected_check(bad, good, t_h_star=8.0)
        assert out.max_violation == pytest.approx(0.02, abs=1e-12)
        assert not out.ok

    @pytest.mark.parametrize("grid", [np.arange(0.0, 10.0, 0.1), np.arange(0.1, 10.15, 0.1),
                                      np.arange(0.0, 10.25, 0.1)],
                             ids=["shorter", "later-start", "longer"])
    def test_rejects_runs_on_different_grids(self, grid):
        # the check compares nodes one by one, so it never truncates a run
        t = np.arange(0.0, 10.1, 0.1)
        traj = make_traj(t, np.full_like(t, 0.9), np.full_like(t, 0.01))
        other = make_traj(grid, np.full_like(grid, 0.9), np.full_like(grid, 0.01))
        for pair in ((traj, other), (other, traj)):
            with pytest.raises(ValueError, match="different grids"):
                cumulative_infected_check(*pair, t_h_star=8.0)


class TestClosedFormOptimum:
    def test_error_halves_with_the_step(self, monkeypatch):
        # J* of Miclo, Spiro & Weibull (2020), from the benchmark's oracle; the
        # rate is sampled at nodes and held, so the drift is first order in h
        path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
        spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
        oracle = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, oracle)  # its dataclass looks itself up
        spec.loader.exec_module(oracle)
        cfg = replace(preset("fig1"), policies=("optimal",))
        j_star = oracle.optimal_cost(oracle.CappedSir(
            beta=cfg.params.beta, gamma=cfg.params.gamma, s0=cfg.init.s, i0=cfg.init.i,
            i_bar=cfg.i_bar, u_max=cfg.u_max))

        def error(step):
            run = replace(cfg, integrator=IntegratorConfig(step=step, horizon=300.0))
            return run_scenario(run).cost_rows[0].total_cost - j_star

        coarse, fine = error(0.02), error(0.01)
        assert fine > 0.0
        assert 1.9 <= coarse / fine <= 2.1

    def test_stage_two_errors_halve_with_the_step(self):
        # in stage 2 the optimal rate beta*S - gamma holds I at i_bar, so
        # S(t) = S_b*exp(-beta*i_bar*(t - t_b)) and beta*S reaches gamma at
        # t*_h = t_b + ln(beta*S_b/gamma)/(beta*i_bar) (Miclo, Spiro & Weibull
        # 2020); the held rate makes each error first order in h
        cfg = replace(preset("fig1"), policies=("optimal",))
        beta, gamma, i_bar = cfg.params.beta, cfg.params.gamma, cfg.i_bar

        def errors(step):
            run = replace(cfg, integrator=IntegratorConfig(step=step, horizon=300.0))
            res = run_scenario(run).runs["optimal"].result
            traj, (t_b, t_h) = res.trajectory, (res.trace.switching.t_b,
                                                res.trace.switching.t_h)
            s_b = traj.state_at(t_b)[0]
            held = res.node_stage == 2
            s_cf = s_b * np.exp(-beta * i_bar * (traj.t[held] - t_b))
            return np.array([abs(t_h - (t_b + math.log(beta * s_b / gamma) / (beta * i_bar))),
                             np.max(np.abs(traj.s[held] - s_cf)),
                             np.max(np.abs(traj.i[held] - i_bar))])

        coarse, fine, finest = errors(0.02), errors(0.01), errors(0.005)
        for ratio in (coarse / fine, fine / finest):
            assert np.all((1.9 <= ratio) & (ratio <= 2.1)), ratio
