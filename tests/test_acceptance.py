"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are fixed here, not calibrated elsewhere.
"""
from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from sirctl.analysis import cumulative_infected_check
from sirctl.core import (
    EpidemicParams,
    IntegratorConfig,
    SirState,
    euler_step,
    peak_infection,
)
from sirctl.csvio import emit_csv
from sirctl.estimation import build_regressor_batch, estimate_params
from sirctl.noise import NoiseConfig
from sirctl.scenarios import (
    EstimationWindow,
    bound_sweep_noisy_config,
    preset,
    run_scenario,
    sweep_h,
)

from helpers import max_conservation_error
from test_core import _random_scenario, simulated_peak
from test_estimation import euler_chain, samples_from_states


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _robust_row(art):
    """The robust run's costs.csv row, which holds its ``gap_direct``."""
    return next(row for row in art.cost_rows if row.policy == "robust")


def test_criterion_01_peak_infection_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        params, init, u_fix = _random_scenario(seed)
        gap = abs(peak_infection(params, init, u_fix)
                  - simulated_peak(params, init, u_fix))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    _report(1, worst <= 1e-4 and elapsed < 5.0,
            f"peak formula vs simulation on 100 random scenarios: "
            f"worst |gap| = {worst:.2e} (tol 1e-4), {elapsed:.2f}s")


def test_criterion_02_exact_recovery():
    t0 = time.perf_counter()
    params = EpidemicParams(beta=0.16, gamma=1.0 / 30.0)
    states = euler_chain(params, SirState(t=0.0, s=0.7, i=0.2, r=0.1),
                         u=0.03, h=0.05, n=12)
    batch = build_regressor_batch(*samples_from_states(states, 0.03, 0, 9), 0.05)
    est = estimate_params(batch)
    err = math.hypot(est.beta_hat - params.beta, est.gamma_hat - params.gamma)
    elapsed = time.perf_counter() - t0
    _report(2, err <= 1e-10 and elapsed < 1.0,
            f"estimator on noise-free Euler data: error = {err:.2e} "
            f"(tol 1e-10), {elapsed:.2f}s")


def test_criterion_03_bound_validity_sweeps():
    t0 = time.perf_counter()
    alphas = (1, 10, 50, 100, 200)
    clean = sweep_h(replace(preset("param-est"),
                            estimation=EstimationWindow(alphas=alphas)))
    contained = all(r.contained for r in clean)
    errs = [r.err_norm for r in clean]
    bs = [r.bound_b for r in clean]
    monotone = (all(a <= b for a, b in zip(errs, errs[1:]))
                and all(a <= b for a, b in zip(bs, bs[1:])))

    noisy = sweep_h(replace(bound_sweep_noisy_config(),
                            estimation=EstimationWindow(alphas=alphas)))
    contained_noisy = all(r.contained for r in noisy)
    bn = [r.bound_b for r in noisy]
    k = bn.index(min(bn))
    interior = 0 < k < len(bn) - 1
    elapsed = time.perf_counter() - t0
    _report(3, contained and monotone and contained_noisy and interior
            and elapsed < 10.0,
            f"noise-free: contained={contained}, monotone={monotone}; "
            f"100 dB: contained={contained_noisy}, bound argmin at "
            f"alpha={alphas[k]} (interior={interior}); {elapsed:.2f}s")


def test_criterion_04_feasibility_dichotomy(request):
    t0 = time.perf_counter()
    art = request.getfixturevalue("compare_artifacts")
    rob = art.runs["robust"].report
    mis = art.runs["misestimated"].report
    robust_ok = rob.max_infection_attained <= 0.01 + 1e-6
    misest_breaks = mis.max_infection_attained > 0.01 + 1e-3
    elapsed = time.perf_counter() - t0
    _report(4, robust_ok and misest_breaks and elapsed < 10.0,
            f"robust max I = {rob.max_infection_attained:.8f} (cap 0.01+1e-6), "
            f"misestimated max I = {mis.max_infection_attained:.5f} "
            f"(margin {mis.max_infection_attained - 0.01:.4f} > 1e-3); "
            f"{elapsed:.2f}s")


def test_criterion_05_dominance_and_switch_ordering(request):
    compare = request.getfixturevalue("compare_artifacts")
    fig1 = request.getfixturevalue("fig1_noisy_artifacts")

    def min_gap(art):
        rob, opt = art.runs["robust"].trace, art.runs["optimal"].trace
        grid = np.union1d(rob.t, opt.t)
        return float(np.min(np.interp(grid, rob.t, rob.u)
                            - np.interp(grid, opt.t, opt.u)))

    gaps = (min_gap(compare), min_gap(fig1))
    dominance = all(g >= -1e-9 for g in gaps)

    rob = fig1.runs["robust"].trace.switching
    opt = fig1.runs["optimal"].trace.switching
    ordering = rob.t_b <= opt.t_b <= opt.t_h <= rob.t_h
    # the robust herd condition did not fire within the horizon on the
    # policy-compare scenario, which satisfies t_h_hat >= t_h_star vacuously
    rob_cmp = compare.runs["robust"].trace.switching
    opt_cmp = compare.runs["optimal"].trace.switching
    ordering_cmp = rob_cmp.t_b <= opt_cmp.t_b and (rob_cmp.t_h is None
                                             or rob_cmp.t_h >= opt_cmp.t_h)
    _report(5, dominance and ordering and ordering_cmp,
            f"min(u_robust - u_optimal) = {min(gaps):.2e} (tol -1e-9); "
            f"ordering {rob.t_b:.2f} <= {opt.t_b:.2f} <= {opt.t_h:.2f} "
            f"<= {rob.t_h:.2f}")


def test_criterion_06_stage_two_pinning(request):
    art = request.getfixturevalue("compare_artifacts")
    opt = art.runs["optimal"]
    sw = opt.trace.switching
    traj = opt.trajectory
    mask = (traj.t >= sw.t_b) & (traj.t <= sw.t_h)
    worst = float(np.max(np.abs(traj.i[mask] - 0.01)))
    _report(6, worst <= 1e-4,
            f"optimal run holds |I - 0.01| <= {worst:.2e} on "
            f"[{sw.t_b:.2f}, {sw.t_h:.2f}] (tol 1e-4)")


def test_criterion_07_gap_consistency(request):
    t0 = time.perf_counter()
    art = request.getfixturevalue("fig1_noise_free_artifacts")
    cr = _robust_row(art)
    direct = cr.gap_direct
    rel_states = abs(direct - cr.gap_lemma4) / direct
    rel_closed = abs(direct - cr.gap_thm4) / direct
    bounded = cr.gap_thm4 <= cr.gap_upper + 1e-6
    elapsed = time.perf_counter() - t0
    _report(7, rel_states <= 1e-3 and rel_closed <= 1e-3 and bounded,
            f"gap_direct = {direct:.6f}; state-identity gap off by "
            f"{rel_states:.2e} rel, closed-form gap off by {rel_closed:.2e} rel "
            f"(tol 1e-3); "
            f"C = {cr.gap_thm4:.4f} <= C_bar = {cr.gap_upper:.4f}; {elapsed:.2f}s")


def test_criterion_08_zero_at_truth_collapse(request):
    art = request.getfixturevalue("fig1_collapse_artifacts")
    opt = art.runs["optimal"].trajectory
    rob = art.runs["robust"].trajectory
    worst_state = max(float(np.max(np.abs(rob.i - opt.i))),
                      float(np.max(np.abs(rob.s - opt.s))))
    cr = _robust_row(art)
    worst_gap = max(abs(cr.gap_direct), abs(cr.gap_lemma4), abs(cr.gap_thm4))
    _report(8, worst_state <= 1e-8 and worst_gap <= 1e-6,
            f"with b=0, delta=0: max trace difference = {worst_state:.2e} "
            f"(tol 1e-8), max |gap| = {worst_gap:.2e} (tol 1e-6)")


def test_criterion_09_cumulative_infection_ordering(request):
    compare = request.getfixturevalue("compare_artifacts")
    fig1 = request.getfixturevalue("fig1_noisy_artifacts")
    worst = max(cumulative_infected_check(art.runs["robust"], art.runs["optimal"]).max_violation
                for art in (compare, fig1))
    _report(9, worst <= 1e-6,
            f"max (I+R) - (I*+R*) before t*_h across both scenarios = "
            f"{worst:.2e} (tol 1e-6)")


def test_criterion_10_conservation_and_determinism(request, tmp_path):
    arts = [request.getfixturevalue(name) for name in
            ("compare_artifacts", "fig1_noisy_artifacts",
             "fig1_noise_free_artifacts", "fig1_collapse_artifacts")]
    worst = max(max_conservation_error(run.trajectory)
                for art in arts for run in art.runs.values())

    cfg = replace(preset("policy-compare"), name="determinism-check",
                  integrator=IntegratorConfig(step=0.01, horizon=250.0))
    emit_csv(run_scenario(cfg), tmp_path / "run1")
    emit_csv(run_scenario(cfg), tmp_path / "run2")
    files = sorted((tmp_path / "run1").glob("*.csv"))
    identical = bool(files) and all(
        p.read_bytes() == (tmp_path / "run2" / p.name).read_bytes()
        for p in files)
    _report(10, worst <= 1e-9 and identical,
            f"max |S+I+R-1| = {worst:.2e} (tol 1e-9); "
            f"{len(files)} CSVs byte-identical across two seeded runs: "
            f"{identical}")
