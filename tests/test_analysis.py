"""Cost integrals and the three gap formulas."""
from __future__ import annotations

import importlib.util
import inspect
import math
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sirctl import analysis, scenarios
from sirctl.analysis import (
    build_cost_report,
    cumulative_infected_check,
    gap_from_states,
    gap_closed_form,
    total_cost,
)
from sirctl.control import (
    ClosedLoopResult,
    FeasibilityReport,
    PolicyKind,
    PolicyTrace,
    SwitchingTimes,
)
from sirctl.core import (EpidemicParams, IntegratorConfig, SirState, Trajectory, _rk4_step,
                         integrate)
from sirctl.scenarios import preset, run_scenario

from helpers import node_state

PARAMS = EpidemicParams(beta=0.16, gamma=1.0 / 30.0)
REPORT = FeasibilityReport(feasible=True, required_rate_at_tb=math.nan,
                           max_infection_attained=0.01)
TIMES = SwitchingTimes(t_b=5.0, t_h=15.0)


def make_trace(t, u, kind=PolicyKind.OPTIMAL, switching=SwitchingTimes(),
               s_seen=None, plan=PARAMS):
    t = np.asarray(t, dtype=float)
    u = np.asarray(u, dtype=float)
    filler = np.zeros_like(t)
    s_seen = filler.copy() if s_seen is None else np.asarray(s_seen, dtype=float)
    # every row a node row: the duplicated switch instants are given as nodes;
    # a trace that read no noise sees its node S and I, so the signal is node_s
    return PolicyTrace(node_t=t, node_u=u, node_stage=np.ones_like(t, dtype=np.int8),
                       node_s=s_seen, node_i=filler, noise=None, switch_rows=(),
                       switching=switching, clamp_events=0, kind=kind, plan=plan)


def make_traj(t, s, i, u=None, params=PARAMS):
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    i = np.asarray(i, dtype=float)
    u = np.zeros_like(t) if u is None else np.asarray(u, dtype=float)
    return Trajectory(t=t, s=s, i=i, r=1.0 - s - i, u=u,
                      step=float(t[1] - t[0]), params=params)


def make_run(t, s, i, switching=SwitchingTimes(), plan=PARAMS, params=PARAMS):
    """A run at rate zero whose consumed susceptible signal is its true S."""
    trace = make_trace(t, np.zeros(len(t)), switching=switching, s_seen=s, plan=plan)
    return ClosedLoopResult(make_traj(t, s, i, params=params), trace, REPORT)


def flat_run(t, s=0.9, i=0.01, switching=TIMES, **kwargs):
    """``make_run`` with constant S and I."""
    t = np.asarray(t, dtype=float)
    return make_run(t, np.full_like(t, s), np.full_like(t, i), switching, **kwargs)


def robust_and_optimal_rows(art):
    rows = {row.policy: row for row in art.cost_rows}
    return rows["robust"], rows["optimal"]


class TestTotalCost:
    def test_zero_rate_costs_nothing(self):
        trace = make_trace([0.0, 10.0, 20.0], [0.0, 0.0, 0.0])
        assert total_cost(trace) == 0.0

    def test_rectangle_pulse(self):
        # piecewise-constant pulses: stage switches are duplicated nodes
        for (on, off), rate in (((10.0, 20.0), 0.1), ((10.0, 20.0), 0.2), ((12.0, 18.0), 0.1)):
            t = [0.0, on, on, off, off, 30.0]
            u = [0.0, 0.0, rate, rate, 0.0, 0.0]
            assert total_cost(make_trace(t, u)) == pytest.approx(rate * (off - on), abs=1e-15)

    @pytest.mark.parametrize("fixture", ["compare_artifacts", "fig1_noisy_artifacts",
                                         "fig1_noise_free_artifacts"])
    def test_within_ulps_of_the_spliced_rows(self, request, fixture):
        # the segment sums round differently from one trapezoid over all rows
        for run in request.getfixturevalue(fixture).runs.values():
            trace = run.trace
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
    def test_formed_once_from_one_cost_per_run(self, monkeypatch):
        # one cost path: each run's trace is integrated once, by the cost
        # rows, and the analysis module integrates none
        calls = Counter()

        def spy(module):
            real = module.total_cost

            def counting(trace):
                calls[module.__name__] += 1
                return real(trace)

            monkeypatch.setattr(module, "total_cost", counting)

        spy(scenarios)
        spy(analysis)
        cfg = replace(preset("policy-compare"), name="compare-small",
                      integrator=IntegratorConfig(step=0.01, horizon=250.0))
        art = run_scenario(cfg)
        assert set(art.runs) == {"optimal", "robust", "misestimated"}
        assert calls == {"sirctl.scenarios": 3}
        opt_cost = robust_and_optimal_rows(art)[1].total_cost
        for row in art.cost_rows:
            assert row.gap_direct == row.total_cost - opt_cost

    def test_rectangle_difference(self):
        # gap_direct is the difference of the two cost integrals, the
        # optimal run's given to each row; the robust row is built without
        # its optimal run, so no formula gap needs the trajectories
        a = make_trace([0.0, 10.0, 10.0, 20.0, 20.0, 30.0],
                       [0.0, 0.0, 0.2, 0.2, 0.0, 0.0], kind=PolicyKind.ROBUST)
        b = make_trace([0.0, 12.0, 12.0, 18.0, 18.0, 30.0],
                       [0.0, 0.0, 0.1, 0.1, 0.0, 0.0])
        robust, optimal = (ClosedLoopResult(None, trace, REPORT) for trace in (a, b))
        opt_cost = total_cost(b)
        row = scenarios._cost_row("robust", robust, None, opt_cost)
        assert row.gap_direct == pytest.approx(0.2 * 10 - 0.1 * 6, abs=1e-12)
        assert scenarios._cost_row("optimal", optimal, optimal, opt_cost).gap_direct == 0.0

    @pytest.mark.parametrize("t_other, where", [([0.0, 12.0], "end"), ([1.0, 10.0], "start")])
    def test_cost_report_rejects_traces_on_different_grids(self, t_other, where):
        # gap_direct is formed without a check of its own, since the runs of
        # a scenario share one grid; the report of the pair is where runs
        # whose grids differ at the start or the end raise
        a = make_run([0.0, 10.0], [0.9, 0.9], [0.01, 0.01])
        b = make_run(t_other, [0.9, 0.9], [0.01, 0.01])
        for pair in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="runs on different grids"):
                build_cost_report(*pair)


class TestTraceEnds:
    @pytest.mark.parametrize("fixture", ["compare_artifacts", "fig1_noisy_artifacts"])
    def test_node_ends_are_the_row_ends(self, request, fixture):
        # total_cost relies on this: a switch row is never the last row, and
        # one at position 0 has the first node's time
        for run in request.getfixturevalue(fixture).runs.values():
            trace = run.trace
            assert trace.switch_rows
            assert (trace.t[0], trace.t[-1]) == (trace.node_t[0], trace.node_t[-1])
            assert (trace.u[-1], trace.stage[-1]) == (trace.node_u[-1], trace.node_stage[-1])


class TestBuildCostReport:
    @pytest.mark.parametrize("robust_times", [SwitchingTimes(t_b=5.0 + 5e-10, t_h=15.0),
                                              SwitchingTimes(t_b=5.0, t_h=15.0 - 5e-10)],
                             ids=["t_b-after-optimal", "t_h-before-optimal"])
    def test_order_broken_by_half_a_nanosecond_gives_nan(self, robust_times):
        # Theorem 4's order is tested exactly, as the closed form integrates
        # it: a robust t_b just after t*_b, or t_h just before t*_h, makes
        # the closed form and its bound NaN, not an inverted segment
        t = np.arange(0.0, 20.1, 0.1)
        s, i = np.full_like(t, 0.9), np.full_like(t, 0.01)
        robust = make_run(t, s, i, robust_times, plan=EpidemicParams(0.168, 0.03))
        optimal = make_run(t, s, i, TIMES)
        l4, c, c_bar = build_cost_report(robust, optimal)
        assert math.isnan(c) and math.isnan(c_bar)
        assert math.isfinite(l4)


class TestStateOnGrid:
    @pytest.fixture(scope="class")
    def traj(self):
        # rate 0.1 on [30, 90] and 0 elsewhere, so sub-steps there use u != 0
        state, parts = SirState(t=0.0, s=1.0 - 1e-5, i=1e-5, r=0.0), []
        for u, span in ((0.0, 30.0), (0.1, 60.0), (0.0, 60.0)):
            parts.append(integrate(PARAMS, u, state, IntegratorConfig(step=0.01, horizon=span)))
            state = node_state(parts[-1], -1)
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
        run = flat_run(np.arange(0.0, 20.1, 0.1))
        assert gap_from_states(run, run) == pytest.approx(0.0, abs=1e-14)

    def test_hand_built_susceptible_gap(self):
        # S gap of 0.01 over 10 time units, equal terminal infection:
        # beta * 0.01 * 10 = 0.016
        t = np.arange(0.0, 20.1, 0.1)
        rob, opt = flat_run(t, s=0.90), flat_run(t, s=0.89)
        assert gap_from_states(rob, opt) == pytest.approx(0.016, abs=1e-12)

    @pytest.mark.parametrize("on_nodes", [False, True], ids=["between", "on"])
    def test_integrates_the_run_nodes(self, on_nodes):
        # beta*trapezoid of S - S* over [t_b, the nodes inside, t_h], bit for
        # bit, with the run's own node values and one state_at at each end;
        # the nodes are off the multiples of the step
        t = 0.05 + 0.1 * np.arange(201)
        t_b, t_h = (float(t[50]), float(t[150])) if on_nodes else (5.03, 14.97)
        times = SwitchingTimes(t_b=t_b, t_h=t_h)
        rob = make_run(t, 0.9 - 0.01 * np.sin(t), 0.01 + 0.001 * np.cos(t), times)
        opt = make_run(t, 0.89 - 0.02 * np.sin(t), 0.012 + 0.001 * np.sin(t))
        inside = (t > t_b) & (t < t_h)
        grid = np.concatenate(([t_b], t[inside], [t_h]))

        def susceptible(traj):
            return np.concatenate(([traj.state_at(t_b)[0]], traj.s[inside],
                                   [traj.state_at(t_h)[0]]))

        r_traj, o_traj = rob.trajectory, opt.trajectory
        want = float(0.16 * np.trapezoid(susceptible(r_traj) - susceptible(o_traj), grid)
                     - math.log(r_traj.state_at(t_h)[1]) + math.log(o_traj.state_at(t_h)[1]))
        assert len(grid) == (101 if on_nodes else 102)
        got = gap_from_states(rob, opt)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("grid", [np.arange(0.0, 20.0, 0.1), np.arange(0.1, 20.15, 0.1),
                                      np.arange(0.0, 20.25, 0.1)],
                             ids=["shorter", "later-start", "longer"])
    def test_rejects_runs_on_different_grids(self, grid):
        run, other = flat_run(np.arange(0.0, 20.1, 0.1)), flat_run(grid)
        for pair in ((run, other), (other, run)):
            with pytest.raises(ValueError, match="different grids"):
                gap_from_states(*pair)

    def test_rejects_vanishing_infection(self):
        rob = flat_run(np.arange(0.0, 20.1, 0.1), i=1e-13)
        with pytest.raises(ValueError, match="too small"):
            gap_from_states(rob, rob)

    def test_requires_complete_switching_times(self):
        run = flat_run(np.arange(0.0, 20.1, 0.1), switching=SwitchingTimes(t_b=5.0, t_h=None))
        with pytest.raises(ValueError):
            gap_from_states(run, run)


class TestGapClosedForm:
    def test_collapse_gives_zero_gap(self):
        # a robust run that plans with the true rates on the true states
        run = flat_run(np.arange(0.0, 20.1, 0.1))
        c, c_bar = gap_closed_form(run, run)
        assert c == pytest.approx(0.0, abs=1e-12)
        assert c <= c_bar + 1e-12

    def test_rejects_inverted_ordering(self):
        t = np.arange(0.0, 20.1, 0.1)
        robust = flat_run(t, switching=SwitchingTimes(t_b=6.0, t_h=14.0),
                          plan=EpidemicParams(0.168, 0.03))
        with pytest.raises(ValueError, match="out of order"):
            gap_closed_form(robust, flat_run(t))

    def test_wider_beta_inflation_raises_both_values(self, fig1_noise_free_artifacts):
        from sirctl.scenarios import InflationConfig, preset, run_scenario
        from sirctl.noise import NoiseConfig

        base = fig1_noise_free_artifacts
        wide_cfg = replace(preset("fig1"), name="fig1-wide",
                           noise=NoiseConfig(kind="none"),
                           inflation=InflationConfig(beta_mult=1.10, gamma_mult=0.95))
        wide = robust_and_optimal_rows(run_scenario(wide_cfg))[0]
        narrow = robust_and_optimal_rows(base)[0]
        assert wide.gap_thm4 > narrow.gap_thm4
        assert wide.gap_upper > narrow.gap_upper


class TestCrossFormulaConsistency:
    def test_three_way_agreement_noise_free(self, fig1_noise_free_artifacts):
        cr = robust_and_optimal_rows(fig1_noise_free_artifacts)[0]
        direct = cr.gap_direct
        assert direct > 0.0
        assert abs(direct - cr.gap_lemma4) / direct <= 1e-3
        assert abs(direct - cr.gap_thm4) / direct <= 1e-3
        assert cr.gap_thm4 <= cr.gap_upper + 1e-6

    def test_three_way_agreement_with_noise(self, fig1_noisy_artifacts):
        cr = robust_and_optimal_rows(fig1_noisy_artifacts)[0]
        direct = cr.gap_direct
        assert abs(direct - cr.gap_lemma4) / direct <= 1e-3
        assert abs(direct - cr.gap_thm4) / direct <= 1e-3

    def test_costs_ordered(self, fig1_noisy_artifacts):
        robust, optimal = robust_and_optimal_rows(fig1_noisy_artifacts)
        assert robust.total_cost >= optimal.total_cost
        assert robust.gap_direct >= -1e-6

    def test_robust_envelope_feeds_closed_form(self, fig1_noisy_artifacts):
        art = fig1_noisy_artifacts
        rob, opt = art.runs["robust"], art.runs["optimal"]

        def closed_form(trace):
            return gap_closed_form(replace(rob, trace=trace), opt)

        trace = rob.trace
        cr = robust_and_optimal_rows(art)[0]
        assert closed_form(trace) == (cr.gap_thm4, cr.gap_upper)
        # the wider envelope is the node S of a trace that read no noise
        wider = replace(trace, node_s=np.minimum(trace.node_s_seen + 0.01, 1.0), noise=None,
                        switch_rows=tuple((*row[:4], min(row[4] + 0.01, 1.0), row[5])
                                          for row in trace.switch_rows))
        assert np.array_equal(wider.s_seen, np.minimum(trace.s_seen + 0.01, 1.0))
        assert closed_form(wider)[0] > cr.gap_thm4


class TestCumulativeCheck:
    T = np.arange(0.0, 10.1, 0.1)
    T_H = SwitchingTimes(t_b=2.0, t_h=8.0)  # the optimal run's t*_h is 8

    def test_identical_runs_zero_margin(self):
        t = self.T
        run = make_run(t, np.linspace(0.9, 0.5, len(t)), np.full_like(t, 0.01), self.T_H)
        out = cumulative_infected_check(run, run)
        assert out.max_violation == 0.0
        assert out.ok

    def test_flags_violation(self):
        good, bad = flat_run(self.T, switching=self.T_H), flat_run(self.T, s=0.88)
        out = cumulative_infected_check(bad, good)
        assert out.max_violation == pytest.approx(0.02, abs=1e-12)
        assert not out.ok

    @pytest.mark.parametrize("excess, ok", [(5e-7, True), (2e-6, False)],
                             ids=["below-1e-6", "above-1e-6"])
    def test_tolerance_is_1e_6(self, excess, ok):
        good, bad = flat_run(self.T, switching=self.T_H), flat_run(self.T, s=0.9 - excess)
        out = cumulative_infected_check(bad, good)
        assert out.max_violation == pytest.approx(excess, rel=1e-9)
        assert out.ok is ok

    @pytest.mark.parametrize("grid", [np.arange(0.0, 10.0, 0.1), np.arange(0.1, 10.15, 0.1),
                                      np.arange(0.0, 10.25, 0.1)],
                             ids=["shorter", "later-start", "longer"])
    def test_rejects_runs_on_different_grids(self, grid):
        # the check compares nodes one by one, so it never truncates a run
        run, other = flat_run(self.T, switching=self.T_H), flat_run(grid, switching=self.T_H)
        for pair in ((run, other), (other, run)):
            with pytest.raises(ValueError, match="different grids"):
                cumulative_infected_check(*pair)

    def test_requires_the_optimal_herd_time(self):
        # t*_h bounds the comparison; the robust run's own t_h is not read
        robust = flat_run(self.T, switching=self.T_H)
        optimal = flat_run(self.T, switching=SwitchingTimes(t_b=2.0))
        with pytest.raises(ValueError, match="optimal run's t_h"):
            cumulative_infected_check(robust, optimal)


class TestPairRule:
    FORMULAS = [build_cost_report, gap_from_states, gap_closed_form, cumulative_infected_check]

    @pytest.mark.parametrize("formula", FORMULAS, ids=lambda f: f.__name__)
    def test_reads_only_the_two_runs(self, formula):
        # rates and switching times come from the runs, not from the caller
        assert list(inspect.signature(formula).parameters) == ["robust", "optimal"]

    @pytest.mark.parametrize("formula", FORMULAS, ids=lambda f: f.__name__)
    def test_rejects_runs_of_another_epidemic(self, formula):
        # a pair whose true beta differs by one ulp is not a matched pair
        t = np.arange(0.0, 20.1, 0.1)
        off = EpidemicParams(beta=math.nextafter(PARAMS.beta, 1.0), gamma=PARAMS.gamma)
        robust, optimal = flat_run(t, params=off), flat_run(t)
        formula(optimal, optimal)  # the same pair on equal rates is accepted
        for pair in ((robust, optimal), (optimal, robust)):
            with pytest.raises(ValueError, match="runs of different epidemics"):
                formula(*pair)


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

    @pytest.mark.xfail(raises=AssertionError, strict=True, reason=(
        "the stage-2 rate is sampled at each node and held over the step, so "
        "the run over-isolates: 1.392814079 against 1.392635498"))
    def test_optimal_cost_matches_stage_two_closed_form(self, fig1_noise_free_artifacts):
        # holding I at i_bar from t_b costs (S_b - S_h)/i_bar -
        # gamma/(beta*i_bar)*ln(S_b/S_h) until beta*S reaches gamma at S_h
        art = fig1_noise_free_artifacts
        beta, gamma, i_bar = art.config.params.beta, art.config.params.gamma, art.config.i_bar
        optimal = art.runs["optimal"]
        s_b = optimal.trajectory.state_at(optimal.trace.switching.t_b)[0]
        s_h = gamma / beta
        closed = (s_b - s_h) / i_bar - gamma / (beta * i_bar) * math.log(s_b / s_h)
        assert abs(robust_and_optimal_rows(art)[1].total_cost - closed) <= 1e-6

    def test_stage_two_errors_halve_with_the_step(self):
        # in stage 2 the optimal rate beta*S - gamma holds I at i_bar, so
        # S(t) = S_b*exp(-beta*i_bar*(t - t_b)) and beta*S reaches gamma at
        # t*_h = t_b + ln(beta*S_b/gamma)/(beta*i_bar) (Miclo, Spiro & Weibull
        # 2020); the held rate makes each error first order in h
        cfg = replace(preset("fig1"), policies=("optimal",))
        beta, gamma, i_bar = cfg.params.beta, cfg.params.gamma, cfg.i_bar

        def errors(step):
            run = replace(cfg, integrator=IntegratorConfig(step=step, horizon=300.0))
            res = run_scenario(run).runs["optimal"]
            traj, (t_b, t_h) = res.trajectory, (res.trace.switching.t_b,
                                                res.trace.switching.t_h)
            s_b = traj.state_at(t_b)[0]
            held = res.trace.node_stage == 2
            s_cf = s_b * np.exp(-beta * i_bar * (traj.t[held] - t_b))
            return np.array([abs(t_h - (t_b + math.log(beta * s_b / gamma) / (beta * i_bar))),
                             np.max(np.abs(traj.s[held] - s_cf)),
                             np.max(np.abs(traj.i[held] - i_bar))])

        coarse, fine, finest = errors(0.02), errors(0.01), errors(0.005)
        for ratio in (coarse / fine, fine / finest):
            assert np.all((1.9 <= ratio) & (ratio <= 2.1)), ratio
