"""Cost functionals and optimality-gap accounting for matched policy runs.

The objective is the cumulative isolation rate, the integral of u over time.
The extra cost of a robust run over the matched optimal run can be computed
three ways that must agree: directly as the integral of the rate difference,
through the state-based identity (the rate inversion u = -(1/I) dI/dt +
beta*S - gamma integrates to a susceptible-gap term plus log-infection
terms), and through the piecewise closed form built from the robust
envelope, which also yields an endpoint-only upper bound.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

import numpy as np

from .core import EpidemicParams, Trajectory
from .control import PolicyTrace, SwitchingTimes

_MIN_INFECTION = 1e-12


@dataclass(frozen=True)
class CostReport:
    """Costs and cross-checked optimality gaps for a robust/optimal pair."""

    total_cost: float  # robust run
    optimal_cost: float
    gap_direct: float
    gap_from_states: float
    gap_closed_form: float
    gap_upper: float


@dataclass(frozen=True)
class CumulativeCheck:
    """Worst violation of I+R <= I*+R* up to the optimal herd-immunity time."""

    max_violation: float
    ok: bool


def total_cost(trace: PolicyTrace, warn: bool = True) -> float:
    """Trapezoidal integral of the applied rate over the trace.

    Switch instants are duplicated rows in the trace, so the piecewise
    stage boundaries integrate exactly. The node columns are integrated
    segment by segment between the switch rows, and each group of switch
    rows adds the trapezoids that join it to its neighbouring nodes, so no
    full-length row column is built (a switch row never comes last). Warns when the rate is still non-zero
    at the end of the horizon (truncated, unconverged cost); internal table
    assembly passes warn=False because the truncation is visible in the
    switching-time columns.
    """
    t, u = trace.node_t, trace.node_u
    if len(t) == 0:
        return 0.0
    if warn and u[-1] > 0.0:
        warnings.warn(
            f"isolation rate is {u[-1]:.3e} at the end of the horizon; "
            "the cost integral is truncated, not converged",
            stacklevel=2,
        )
    cost = 0.0
    lo = 0  # the first node row not yet integrated
    for at, rows in groupby(trace.switch_rows, key=itemgetter(0)):
        # node rows lo..at-1, this group of switch rows, then node row at
        cost += np.trapezoid(u[lo:at], t[lo:at])
        pts = [(t[at - 1], u[at - 1])] if at > 0 else []
        pts += [(row[1], row[2]) for row in rows] + [(t[at], u[at])]
        cost += sum((t1 - t0) * (u1 + u0) / 2.0
                    for (t0, u0), (t1, u1) in zip(pts, pts[1:]))
        lo = at
    return float(cost + np.trapezoid(u[lo:], t[lo:]))


def grid_mismatch(trace_a: PolicyTrace, trace_b: PolicyTrace) -> str:
    """Why the rates of two traces cannot be compared; empty if they can.

    The starts and the ends must agree. Only node values are read: a switch
    row never comes last, and one that comes first is at the first node's
    time.
    """
    t_a, t_b = trace_a.node_t, trace_b.node_t
    for a, b, what in ((t_a[0], t_b[0], "start"), (t_a[-1], t_b[-1], "end")):
        if abs(a - b) > 1e-9 * max(1.0, abs(float(b))):
            return f"trace grids disagree at the {what}: {a} vs {b}"
    return ""


def gap_direct(trace_robust: PolicyTrace, trace_optimal: PolicyTrace) -> float:
    """Integral of the pointwise rate difference over the common horizon.

    Both traces duplicate their switch nodes, so integrating each on its own
    grid and subtracting equals the integral of the difference exactly (the
    rates are piecewise linear between duplicated nodes). The traces must
    span the same horizon (``grid_mismatch``).
    """
    mismatch = grid_mismatch(trace_robust, trace_optimal)
    if mismatch:
        raise ValueError(mismatch)
    return total_cost(trace_robust, warn=False) - total_cost(trace_optimal, warn=False)


def _segment_grid(lo: float, hi: float, step: float) -> np.ndarray:
    if hi < lo:
        raise ValueError(f"inverted integration segment [{lo}, {hi}]")
    inner = np.arange(math.ceil(lo / step) * step, hi, step)
    inner = inner[(inner > lo) & (inner < hi)]
    return np.concatenate(([lo], inner, [hi]))


def gap_from_states(traj_robust: Trajectory, traj_optimal: Trajectory,
               beta: float, times: SwitchingTimes) -> float:
    """State-based gap over [t_b, t_h] of the robust run:

        beta * integral(S - S*) - log I(t_h) + log I*(t_h).

    Uses true states of both runs and the bisection-refined switch times.
    """
    if not times.complete:
        raise ValueError("gap_from_states needs both switching times of the robust run")
    t_lo, t_hi = times.t_b, times.t_h
    grid = _segment_grid(t_lo, t_hi, traj_robust.step)
    s_gap = traj_robust.state_at(grid)[0] - traj_optimal.state_at(grid)[0]
    i_rob = traj_robust.state_at(t_hi)[1]
    i_opt = traj_optimal.state_at(t_hi)[1]
    if i_rob < _MIN_INFECTION or i_opt < _MIN_INFECTION:
        raise ValueError(
            f"infection at t_h too small for the log terms ({i_rob:.3e}, {i_opt:.3e})"
        )
    return float(beta * np.trapezoid(s_gap, grid) - math.log(i_rob) + math.log(i_opt))


def theorem4_order(times_robust: SwitchingTimes, times_optimal: SwitchingTimes) -> bool:
    """Whether t_b <= t*_b <= t*_h <= t_h (to 1e-9), the order Theorem 4 assumes.

    It holds when the robust plan overestimates the epidemic; with a
    planned gamma above the truth or a beta below it, the robust run can,
    for example, reach its herd condition first (t_h < t*_h).
    """
    tb_h, th_h = times_robust.t_b, times_robust.t_h
    tb_s, th_s = times_optimal.t_b, times_optimal.t_h
    return tb_h <= tb_s + 1e-9 and tb_s <= th_s and th_s <= th_h + 1e-9


def gap_closed_form(robust: PolicyTrace, beta_max: float, gamma_min: float,
             beta: float, gamma: float, s_star: Trajectory,
             times_optimal: SwitchingTimes) -> tuple[float, float]:
    """Closed-form gap C and its endpoint upper bound C_bar.

    The robust trace is the envelope: S_max is its ``s_seen``, interpolated
    in time, and t_b, t_h are its switching times. C integrates the robust
    envelope rate beta_max*S_max - gamma_min over the three segments
    [t_b, t*_b], [t*_b, t*_h], [t*_h, t_h], subtracting the optimal rate on
    the middle one. C_bar freezes S_max at t_b and S* at t*_h. Requires
    t_b <= t*_b <= t*_h <= t_h.
    """
    times_robust = robust.switching
    if not (times_robust.complete and times_optimal.complete):
        raise ValueError("gap_closed_form needs all four switching times")
    tb_h, th_h = times_robust.t_b, times_robust.t_h
    tb_s, th_s = times_optimal.t_b, times_optimal.t_h
    if not theorem4_order(times_robust, times_optimal):
        raise ValueError(
            f"switching times out of order: {tb_h}, {tb_s}, {th_s}, {th_h}"
        )
    step = s_star.step

    g1 = _segment_grid(tb_h, tb_s, step)
    g2 = _segment_grid(tb_s, th_s, step)
    g3 = _segment_grid(th_s, min(th_h, float(s_star.t[-1])), step)

    t_r, s_max = robust.t, robust.s_seen
    smax_1 = np.interp(g1, t_r, s_max)
    smax_2 = np.interp(g2, t_r, s_max)
    smax_3 = np.interp(g3, t_r, s_max)
    sstar_2 = s_star.state_at(g2)[0]

    c = (-gamma_min * (tb_s - tb_h + th_h - th_s)
         + (gamma - gamma_min) * (th_s - tb_s)
         + beta_max * (float(np.trapezoid(smax_1, g1)) + float(np.trapezoid(smax_3, g3)))
         + float(np.trapezoid(smax_2 * beta_max - sstar_2 * beta, g2)))

    smax_tb = float(np.interp(tb_h, t_r, s_max))
    sstar_th = float(sstar_2[-1])  # g2 ends at t*_h
    c_bar = ((smax_tb * beta_max - gamma_min) * (tb_s - tb_h + th_h - th_s)
             + (smax_tb * beta_max - gamma_min - sstar_th * beta + gamma)
             * (th_s - tb_s))
    return c, c_bar


def cumulative_infected_check(traj_robust: Trajectory, traj_optimal: Trajectory,
                              t_h_star: float, tol: float = 1e-6) -> CumulativeCheck:
    """Verify I+R <= I*+R* (equivalently S >= S*) for all t up to t*_h.

    The runs are compared node by node, so they must share one grid: a
    different length or endpoint raises ValueError.
    """
    t_r, t_o = traj_robust.t, traj_optimal.t
    if len(t_r) != len(t_o) or t_r[0] != t_o[0] or t_r[-1] != t_o[-1]:
        raise ValueError(f"runs on different grids: {len(t_r)} nodes on [{t_r[0]}, "
                         f"{t_r[-1]}] vs {len(t_o)} on [{t_o[0]}, {t_o[-1]}]")
    mask = t_r <= t_h_star + 1e-12
    cum_robust = traj_robust.i[mask] + traj_robust.r[mask]
    cum_optimal = traj_optimal.i[mask] + traj_optimal.r[mask]
    worst = float(np.max(cum_robust - cum_optimal, initial=-math.inf))
    return CumulativeCheck(max_violation=worst, ok=bool(worst <= tol))


def build_cost_report(robust_trace: PolicyTrace, robust_traj: Trajectory,
                      optimal_trace: PolicyTrace, optimal_traj: Trajectory,
                      true_params: EpidemicParams, beta_max: float,
                      gamma_min: float) -> CostReport:
    """Assemble the full cost/gap report for one matched pair of runs.

    ``gap_direct`` is exact and reported whenever ``grid_mismatch`` allows
    it (the same horizon); it is NaN otherwise. The other gap formulas need
    all four switching times; when a herd condition never fired within the
    horizon they are NaN, and the total costs and ``gap_direct`` are
    integrals truncated at the horizon.
    The closed form and its bound (``gap_closed_form``, ``gap_upper``) also
    need Theorem 4's order t_b <= t*_b <= t*_h <= t_h (``theorem4_order``)
    and are NaN when the four times break it.
    """
    cost_r = total_cost(robust_trace, warn=False)
    cost_o = total_cost(optimal_trace, warn=False)
    nan = float("nan")
    direct = l4 = c = c_bar = nan
    if not grid_mismatch(robust_trace, optimal_trace):
        direct = cost_r - cost_o  # gap_direct, from the costs already integrated
    if robust_trace.switching.complete and optimal_trace.switching.complete:
        l4 = gap_from_states(robust_traj, optimal_traj, true_params.beta,
                        robust_trace.switching)
        if theorem4_order(robust_trace.switching, optimal_trace.switching):
            c, c_bar = gap_closed_form(robust_trace, beta_max, gamma_min,
                                true_params.beta, true_params.gamma, optimal_traj,
                                optimal_trace.switching)
    return CostReport(total_cost=cost_r, optimal_cost=cost_o, gap_direct=direct,
                      gap_from_states=l4, gap_closed_form=c, gap_upper=c_bar)
