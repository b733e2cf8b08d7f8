"""Isolation policies and closed-loop simulation with stage switching.

Both the optimal and the robust policy run in three stages: no isolation
while the (possibly overestimated) infection signal is below the threshold
i_bar, then the rate that pins the infection derivative at zero for the
assumed worst case, then zero again once the assumed herd-immunity condition
fires. The optimal policy consumes true states and true parameters; the
robust policy consumes upper envelopes of measured states together with an
upper transmission-rate / lower removal-rate pair; the misestimated variant
feeds arbitrary point estimates and raw measurements into the optimal form,
which is how underestimation is shown to break feasibility.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np

from .core import (
    ControlBounds,
    EpidemicParams,
    IntegratorConfig,
    NonFiniteDynamicsError,
    SirState,
    Trajectory,
    _rk4_step,
    locate_event,
)
from .estimation import ParamIntervals
from .noise import MeasurementNoise

FEASIBILITY_SLACK = 1e-6


class PolicyKind(str, Enum):
    OPTIMAL = "optimal"
    ROBUST = "robust"
    MISESTIMATED = "misestimated"


@dataclass(frozen=True)
class AssumedRates:
    """The (beta, gamma) pair a policy plans with.

    For the robust policy this is (beta_max, gamma_min) from estimation
    intervals or inflation multipliers; for the misestimated policy it is
    whatever wrong point estimate is being studied.
    """

    beta: float
    gamma: float

    @classmethod
    def from_intervals(cls, intervals: ParamIntervals) -> "AssumedRates":
        return cls(beta=intervals.beta_max, gamma=intervals.gamma_min)

    @classmethod
    def from_multipliers(cls, params: EpidemicParams, beta_mult: float,
                         gamma_mult: float) -> "AssumedRates":
        return cls(beta=params.beta * beta_mult, gamma=params.gamma * gamma_mult)


@dataclass(frozen=True)
class SwitchingTimes:
    """Threshold-reach time t_b and herd-immunity time t_h (None if not fired)."""

    t_b: Optional[float] = None
    t_h: Optional[float] = None

    def __post_init__(self) -> None:
        if self.t_b is not None and self.t_h is not None and self.t_h < self.t_b:
            raise ValueError(f"t_h={self.t_h} precedes t_b={self.t_b}")

    @property
    def complete(self) -> bool:
        return self.t_b is not None and self.t_h is not None


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of one closed-loop run against the infection cap."""

    feasible: bool
    required_rate_at_tb: float  # beta*S(t_b) - gamma from true states; nan if no t_b
    u_max: float
    max_infection_attained: float
    clamp_events: int
    i_bar: float


@dataclass(frozen=True)
class PolicyTrace:
    """Applied rate, stage label and consumed state signal over time.

    Switch instants appear as duplicated time nodes (pre- and post-switch
    values) so piecewise integration of the rate is exact.
    """

    t: np.ndarray
    u: np.ndarray
    stage: np.ndarray
    s_seen: np.ndarray
    i_seen: np.ndarray
    switching: SwitchingTimes
    clamp_events: int
    kind: PolicyKind


@dataclass(frozen=True)
class ClosedLoopResult:
    trajectory: Trajectory
    trace: PolicyTrace
    report: FeasibilityReport
    node_stage: np.ndarray


def stage_two_rate(beta: float, gamma: float, s_seen: float) -> float:
    """Unclamped stage-two rate beta*S_seen - gamma.

    It holds dI/dt at zero under the planning rates (beta, gamma) and the
    consumed susceptible signal; its negation is the herd-immunity gap.
    """
    return beta * s_seen - gamma


def optimal_rate(t: float, state: SirState, params: EpidemicParams,
                 times: SwitchingTimes, bounds: ControlBounds) -> float:
    """Three-stage optimal rate: the robust rate law fed the true state and
    the true (beta, gamma)."""
    return robust_rate(t, state.s, params.beta, params.gamma, times, bounds)


def robust_rate(t: float, s_max_at_t: float, beta_max: float, gamma_min: float,
                times: SwitchingTimes, bounds: ControlBounds) -> float:
    """Three-stage rate: 0, then beta_max * S_max(t) - gamma_min, then 0.

    Stage membership is decided from the precomputed switching times; the
    stage-two value is clamped to [0, u_max].
    """
    if times.t_b is None or t < times.t_b:
        return 0.0
    if times.t_h is not None and t >= times.t_h:
        return 0.0
    return bounds.clamp(stage_two_rate(beta_max, gamma_min, s_max_at_t))


def feasibility_check(params: EpidemicParams, state_at_tb: SirState,
                      u_max: float) -> tuple[float, bool]:
    """Required rate beta*S(t_b) - gamma and whether it fits under u_max.

    A non-positive required rate means the infection is already
    non-increasing at the crossing, which is trivially feasible.
    """
    required = stage_two_rate(params.beta, params.gamma, state_at_tb.s)
    return required, required <= u_max


def simulate_closed_loop(kind: PolicyKind, true_params: EpidemicParams,
                         assumed: Union[AssumedRates, ParamIntervals, None],
                         init: SirState, noise: Optional[MeasurementNoise],
                         config: IntegratorConfig, i_bar: float,
                         bounds: ControlBounds,
                         early_stop: bool = False) -> ClosedLoopResult:
    """Drive the true dynamics with a policy that sees only its own signals.

    A policy plans with the true (beta, gamma) if it is optimal and with
    ``assumed`` otherwise. Its signals are the true states plus offsets
    held over each step: zero for the optimal policy, the measurement error
    for the misestimated one, and that error plus the amplitude bound delta
    for the robust one, whose signals are thus upper envelopes. Both
    signals are capped at 1.

    The trajectory advances on the uniform grid; measurements are read at
    every grid node and held over the step. Stage switches are located by
    ``locate_event`` inside the bracketing step, the state is advanced
    exactly to the switch instant, and integration lands back on the grid,
    so switching times are resolved to the event tolerance while the output
    grid stays uniform. Infeasibility is recorded in the
    report, never raised.
    """
    if not (0.0 < i_bar < 1.0):
        raise ValueError("i_bar must lie in (0, 1)")
    if config.method != "rk4":
        raise ValueError("closed-loop simulation uses the rk4 ground-truth integrator")
    if isinstance(assumed, ParamIntervals):
        assumed = AssumedRates.from_intervals(assumed)

    h = config.step
    n = config.n_steps
    beta, gamma = true_params.beta, true_params.gamma
    if kind is PolicyKind.OPTIMAL:
        beta_plan, gamma_plan = beta, gamma
    elif assumed is None:
        raise ValueError(f"{kind.value} policy needs assumed rates")
    else:
        beta_plan, gamma_plan = assumed.beta, assumed.gamma
    reads = kind is not PolicyKind.OPTIMAL and noise is not None
    margin = kind is PolicyKind.ROBUST
    u_max = bounds.u_max

    s, i, r = init.s, init.i, init.r
    t0 = init.t
    ts = np.empty(n + 1)
    ss = np.empty(n + 1)
    ii = np.empty(n + 1)
    rr = np.empty(n + 1)
    uu = np.empty(n + 1)
    node_stage = np.empty(n + 1, dtype=np.int64)

    tr_t: list[float] = []
    tr_u: list[float] = []
    tr_stage: list[int] = []
    tr_s: list[float] = []
    tr_i: list[float] = []

    stage = 1
    clamp_events = 0
    off_s = off_i = 0.0  # measurement offsets held over the current step
    t_b: Optional[float] = None
    t_h: Optional[float] = None
    state_at_tb: Optional[SirState] = None
    max_i = i
    n_recorded = n + 1

    def rate(s: float) -> float:
        nonlocal clamp_events
        if stage != 2:
            return 0.0
        raw = stage_two_rate(beta_plan, gamma_plan, min(s + off_s, 1.0))
        if raw > u_max:
            clamp_events += 1
        return bounds.clamp(raw)

    def threshold_gap(s: float, i: float) -> float:
        """Positive once the infection signal has reached i_bar (stage-1 event)."""
        return min(i + off_i, 1.0) - i_bar

    def herd_gap(s: float, i: float) -> float:
        """Positive once the planned herd-immunity condition fires (stage-2 event)."""
        return -stage_two_rate(beta_plan, gamma_plan, min(s + off_s, 1.0))

    def record_trace(tt: float, u: float) -> None:
        tr_t.append(tt)
        tr_u.append(u)
        tr_stage.append(stage)
        tr_s.append(min(s + off_s, 1.0))
        tr_i.append(min(i + off_i, 1.0))

    k = 0
    while k <= n:
        t_node = t0 + k * h
        if reads:
            s_hat, i_hat, d_s, d_i = noise.measure(k, s, i)
            off_s = s_hat - s
            off_i = i_hat - i
            if margin:
                off_s += d_s
                off_i += d_i

        # an event can fire exactly at a node (including k == 0)
        if stage == 1 and threshold_gap(s, i) >= 0.0:
            t_b = t_node
            state_at_tb = SirState(t=t_node, s=s, i=i, r=r)
            record_trace(t_node, 0.0)
            stage = 2
        if stage == 2 and herd_gap(s, i) >= 0.0 and t_b is not None and t_b < t_node:
            t_h = t_node
            record_trace(t_node, rate(s))
            stage = 3

        u = rate(s)
        ts[k], ss[k], ii[k], rr[k], uu[k] = t_node, s, i, r, u
        node_stage[k] = stage
        record_trace(t_node, u)
        if i > max_i:
            max_i = i
        if k == n:
            break
        if early_stop and stage == 3 and i < 1e-8:
            n_recorded = k + 1
            break

        # advance one grid step, splitting at stage switches
        sub_t = t_node
        t_next = t0 + (k + 1) * h
        while sub_t < t_next - 1e-15:
            span = t_next - sub_t
            s2, i2, r2 = _rk4_step(s, i, r, beta, gamma, u, span)
            if not (math.isfinite(s2) and math.isfinite(i2) and math.isfinite(r2)):
                raise NonFiniteDynamicsError(f"state became non-finite near t={sub_t}")
            if stage == 1 and threshold_gap(s2, i2) >= 0.0:
                gap = threshold_gap
            elif stage == 2 and herd_gap(s2, i2) >= 0.0:
                gap = herd_gap
            else:
                s, i, r = s2, i2, r2
                sub_t = t_next
                break

            tau = locate_event(gap, s, i, r, beta, gamma, u, sub_t, t_next)
            s, i, r = _rk4_step(s, i, r, beta, gamma, u, tau - sub_t)
            sub_t = tau
            record_trace(tau, u)
            if stage == 1:
                t_b = tau
                state_at_tb = SirState(t=tau, s=s, i=i, r=r)
                stage = 2
                if i > max_i:
                    max_i = i
            else:
                t_h = tau
                stage = 3
            u = rate(s)
            record_trace(tau, u)
        k += 1

    times = SwitchingTimes(t_b=t_b, t_h=t_h)
    traj = Trajectory(t=ts[:n_recorded], s=ss[:n_recorded], i=ii[:n_recorded],
                      r=rr[:n_recorded], u=uu[:n_recorded], step=h, params=true_params)
    trace = PolicyTrace(t=np.array(tr_t), u=np.array(tr_u),
                        stage=np.array(tr_stage, dtype=np.int64),
                        s_seen=np.array(tr_s), i_seen=np.array(tr_i),
                        switching=times, clamp_events=clamp_events, kind=kind)
    if state_at_tb is not None:
        required, _ = feasibility_check(true_params, state_at_tb, u_max)
    else:
        required = float("nan")
    report = FeasibilityReport(
        feasible=bool(max_i <= i_bar + FEASIBILITY_SLACK),
        required_rate_at_tb=required, u_max=u_max,
        max_infection_attained=max_i, clamp_events=clamp_events, i_bar=i_bar,
    )
    return ClosedLoopResult(trajectory=traj, trace=trace, report=report,
                            node_stage=node_stage[:n_recorded])
