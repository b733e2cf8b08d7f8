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

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .core import (
    ControlBounds,
    EpidemicParams,
    IntegratorConfig,
    SirState,
    Trajectory,
    _rk4_fill,
    _rk4_step,
    locate_event,
    read_only,
    require_finite,
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

    The rows are the run's grid nodes with switch rows spliced in: a stage
    switch adds rows at the switch instant (pre- and post-switch values),
    so piecewise integration of the rate is exact. Only the switch rows
    are the trace's own. The node columns are held by reference: ``node_t``
    and ``node_u`` are the trajectory's ``t`` and ``u``, ``node_stage`` is
    the run's int8 stage per node, and ``node_s_seen``/``node_i_seen`` are
    the trajectory's ``s``/``i`` when the signals have their bits (a policy
    that reads no noise), else arrays of their own. ``switch_rows`` holds
    one ``(position, t, u, stage, s_seen, i_seen)`` per switch row, in row
    order; the row comes right before node row ``position``. All node
    arrays are read-only.

    ``t``, ``u``, ``stage``, ``s_seen`` and ``i_seen`` are the full-row
    columns. Each access splices the switch rows into a new array, so
    take a column once and let it go when done.
    """

    node_t: np.ndarray
    node_u: np.ndarray
    node_stage: np.ndarray
    node_s_seen: np.ndarray
    node_i_seen: np.ndarray
    switch_rows: tuple[tuple[int, float, float, int, float, float], ...]
    switching: SwitchingTimes
    clamp_events: int
    kind: PolicyKind

    def __post_init__(self) -> None:
        read_only(self.node_t, self.node_u, self.node_stage, self.node_s_seen,
                  self.node_i_seen)

    def _spliced(self, nodes: np.ndarray, col: int) -> np.ndarray:
        rows = self.switch_rows
        at = np.array([row[0] for row in rows], dtype=np.intp)
        return np.insert(nodes, at, [row[col] for row in rows])

    @property
    def t(self) -> np.ndarray:
        return self._spliced(self.node_t, 1)

    @property
    def u(self) -> np.ndarray:
        return self._spliced(self.node_u, 2)

    @property
    def stage(self) -> np.ndarray:
        return self._spliced(self.node_stage, 3)

    @property
    def s_seen(self) -> np.ndarray:
        return self._spliced(self.node_s_seen, 4)

    @property
    def i_seen(self) -> np.ndarray:
        return self._spliced(self.node_i_seen, 5)


@dataclass(frozen=True)
class ClosedLoopResult:
    trajectory: Trajectory
    trace: PolicyTrace
    report: FeasibilityReport

    @property
    def node_stage(self) -> np.ndarray:
        """The int8 stage in effect at each grid node (the trace's node column)."""
        return self.trace.node_stage


def stage_two_rate(beta: float, gamma: float, s_seen: float) -> float:
    """Unclamped stage-two rate beta*S_seen - gamma.

    It holds dI/dt at zero under the planning rates (beta, gamma) and the
    consumed susceptible signal; its negation is the herd-immunity gap.
    """
    return beta * s_seen - gamma


def feasibility_check(params: EpidemicParams, state_at_tb: SirState,
                      u_max: float) -> tuple[float, bool]:
    """Required rate beta*S(t_b) - gamma and whether it fits under u_max.

    A non-positive required rate means the infection is already
    non-increasing at the crossing, which is trivially feasible.
    """
    required = stage_two_rate(params.beta, params.gamma, state_at_tb.s)
    return required, required <= u_max


def _threshold_gap(i_bar: float, off_i: float):
    """Stage-1 event gap: >= 0 once the infection signal has reached i_bar."""
    return lambda s, i: min(i + off_i, 1.0) - i_bar


def _herd_gap(beta: float, gamma: float, off_s: float):
    """Stage-2 event gap: >= 0 once the planned herd-immunity condition fires."""
    return lambda s, i: -stage_two_rate(beta, gamma, min(s + off_s, 1.0))


def _read_offsets(noise: MeasurementNoise, margin: bool, nodes: slice, ss: np.ndarray,
                  ii: np.ndarray, off_s: np.ndarray, off_i: np.ndarray) -> None:
    """The loop's held offsets at ``nodes``, from one array call of ``measure``."""
    s_hat, i_hat, d_s, d_i = noise.measure(nodes, ss[nodes], ii[nodes])
    np.subtract(s_hat, ss[nodes], out=off_s[nodes])
    np.subtract(i_hat, ii[nodes], out=off_i[nodes])
    if margin:
        off_s[nodes] += d_s
        off_i[nodes] += d_i


def _shared_stage_one(prefix: ClosedLoopResult, params: EpidemicParams, init: SirState,
                      h: float, n: int, noise: Optional[MeasurementNoise], margin: bool,
                      i_bar: float, off_s: np.ndarray, off_i: np.ndarray) -> int:
    """The first node where this policy's threshold can fire, found on ``prefix``.

    The leading stage-1 nodes of any run with the same parameters, initial
    state and grid are the u = 0 epidemic, the same for every policy. This
    policy's offsets there come from one array read into ``off_s`` and
    ``off_i`` (``noise`` is None when the policy reads none), and the loop's
    two stage-1 tests run as arrays: at each node, and at the end of each
    step the prefix took unsplit. Returns the first node where either test
    fires, else the prefix's last stage-1 node (0 if it has none).
    """
    traj = prefix.trajectory
    if not (traj.params == params and traj.step == h and len(traj) == n + 1
            and (float(traj.t[0]), float(traj.s[0]), float(traj.i[0]), float(traj.r[0]))
            == (init.t, init.s, init.i, init.r)):
        raise ValueError("prefix run has other parameters, initial state or time grid")
    later = prefix.node_stage != 1
    m = int(np.argmax(later)) if later.any() else len(traj)
    if m == 0:
        return 0
    if noise is not None:
        _read_offsets(noise, margin, slice(0, m), traj.s, traj.i, off_s, off_i)
    i_open, o_i = traj.i[:m], off_i[:m]
    fires = np.minimum(i_open + o_i, 1.0) - i_bar >= 0.0
    fires[:-1] |= np.minimum(i_open[1:] + o_i[:-1], 1.0) - i_bar >= 0.0
    return int(np.argmax(fires)) if fires.any() else m - 1


def simulate_closed_loop(kind: PolicyKind, true_params: EpidemicParams,
                         assumed: Optional[AssumedRates],
                         init: SirState, noise: Optional[MeasurementNoise],
                         config: IntegratorConfig, i_bar: float,
                         bounds: ControlBounds,
                         prefix: Optional[ClosedLoopResult] = None) -> ClosedLoopResult:
    """Drive the true dynamics with a policy that sees only its own signals.

    A policy plans with the true (beta, gamma) if it is optimal and with
    ``assumed`` otherwise. Its signals are the true states plus offsets
    held over each step: zero for the optimal policy, the measurement error
    for the misestimated one, and that error plus the amplitude bound delta
    for the robust one, whose signals are thus upper envelopes. Both
    signals are capped at 1.

    Only stage 2 needs feedback; stages 1 and 3 are the u = 0 epidemic.
    The loop takes RK4 steps of exactly h between grid nodes. It reads the
    noise at each node with the noise source's ``offset_reader``, built
    once per run, and holds it over the step, and it tests the stage's
    event at each node and at the end of each step. A step in which the
    test fires is split at the switch that ``locate_event`` finds and then
    ends on the node. Stage 2's unsplit steps run in one inner loop, with
    the RK4 step, the rate law and its clamp written inline; a policy that
    reads no noise holds zero offsets, so its end-of-step rate is the next
    node's rate and is computed once. The loop stops at the first stage-3
    node, from which ``integrate``'s stepper fills the run to the horizon:
    every run spans the grid's n + 1 nodes. The loop steps on through inf
    and NaN and tests its nodes once it ends: NonFiniteDynamicsError names
    the first non-finite node's time. With ``prefix`` (a run of the same
    parameters, initial state and grid, usually the optimal run) the loop
    starts at the first node where this policy's threshold can fire
    (``_shared_stage_one``). The stage-1 and stage-3 offsets are read as
    arrays with ``measure``, bitwise equal to the per-node reader.
    Infeasibility is recorded in the report, never raised.

    The loop writes each node's state, rate and offsets through
    memoryviews of the run's arrays; the stage column, which only rises, is
    filled from its first stage-2 node and the loop's last node once the
    loop ends. The trace's node columns are the run's own read-only arrays
    (see ``PolicyTrace``); a policy that reads no noise allocates no offsets. A
    switch adds rows at its instant: one (the pre-switch stage at rate 0
    for a threshold, the stage-2 rate for a herd event) before the node row
    when it fires at a node, and a pre- and a post-switch row after the
    node row when it fires inside the step.
    """
    if not (0.0 < i_bar < 1.0):
        raise ValueError("i_bar must lie in (0, 1)")

    h = config.step
    n = config.n_steps
    beta, gamma = true_params.beta, true_params.gamma
    if kind is PolicyKind.OPTIMAL:
        beta_plan, gamma_plan = beta, gamma
    elif assumed is None:
        raise ValueError(f"{kind.value} policy needs assumed rates")
    else:
        beta_plan, gamma_plan = assumed.beta, assumed.gamma
    # noise-free measurements leave every offset at zero
    reads = kind is not PolicyKind.OPTIMAL and noise is not None and noise.kind != "none"
    margin = kind is PolicyKind.ROBUST
    u_max = bounds.u_max
    clamp = bounds.clamp

    s, i, r = init.s, init.i, init.r
    t0 = init.t
    if prefix is not None:
        ts = prefix.trajectory.t  # the same grid, once _shared_stage_one accepts the prefix
    else:
        ts = t0 + np.arange(n + 1) * h
    ss = np.empty(n + 1)
    ii = np.empty(n + 1)
    rr = np.empty(n + 1)
    uu = np.zeros(n + 1)
    node_stage = np.full(n + 1, 3, dtype=np.int8)  # the nodes after the loop's last are stage 3
    # memoryviews take a float faster than numpy's scalar setitem
    ss_w, ii_w, rr_w, uu_w = (memoryview(a) for a in (ss, ii, rr, uu))
    if reads:
        off_s = np.zeros(n + 1)  # measurement offsets held over each step
        off_i = np.zeros(n + 1)
        off_s_w, off_i_w = memoryview(off_s), memoryview(off_i)
        read = noise.offset_reader(margin)
    else:
        off_s = off_i = np.broadcast_to(0.0, n + 1)  # all zero, in no memory
    # switch rows: (trace position among the node rows, t, u, stage, s_seen, i_seen)
    switch_rows: list[tuple[int, float, float, int, float, float]] = []

    stage = 1
    clamp_events = 0
    o_s = o_i = 0.0
    t_b: Optional[float] = None
    t_h: Optional[float] = None
    state_at_tb: Optional[SirState] = None
    start = 0
    k_b = n + 1  # the first node of stage 2 or later
    if prefix is not None:
        # the nodes before start are the prefix's, at rate 0 in stage 1
        start = _shared_stage_one(prefix, true_params, init, h, n, noise if reads else None,
                                  margin, i_bar, off_s, off_i)
        p = prefix.trajectory
        ss[:start], ii[:start], rr[:start] = p.s[:start], p.i[:start], p.r[:start]
        s, i, r = float(p.s[start]), float(p.i[start]), float(p.r[start])
    hh = 0.5 * h
    h6 = h / 6.0

    k = start
    while True:
        t_node = t0 + k * h
        if reads:
            o_s, o_i = read(k, s, i)
            off_s_w[k] = o_s
            off_i_w[k] = o_i

        # an event can fire exactly at a node (including k == 0); the signals
        # are capped at 1 (``1.0 if x > 1.0 else x`` is ``min(x, 1.0)``)
        if stage == 1:
            i_seen = i + o_i
            if (1.0 if i_seen > 1.0 else i_seen) - i_bar >= 0.0:
                t_b = t_node
                k_b = k
                state_at_tb = SirState(t=t_node, s=s, i=i, r=r)
                switch_rows.append((k, t_node, 0.0, 1, min(s + o_s, 1.0),
                                    min(i + o_i, 1.0)))
                stage = 2
        if stage == 2:
            # stage 2 from node k, one node per pass, with the rate law
            # (``stage_two_rate``), its clamp (``ControlBounds.clamp``) and
            # the RK4 step (``_rk4_step``, in its operation order) inline; the
            # end-of-step herd test under the held offsets is the next node's
            # rate unless a read changes them
            s_seen = s + o_s
            raw = beta_plan * (1.0 if s_seen > 1.0 else s_seen) - gamma_plan
            while True:
                ss_w[k] = s
                ii_w[k] = i
                rr_w[k] = r
                if -raw >= 0.0:
                    # the herd event fires at node k, also where the threshold
                    # just did (t_h == t_b): the locator needs gap < 0 at a node
                    t_h = t0 + k * h
                    switch_rows.append((k, t_h, 0.0 if raw < 0.0 else raw, 2,
                                        min(s + o_s, 1.0), min(i + o_i, 1.0)))
                    stage = 3
                    break
                if raw > u_max:
                    clamp_events += 1
                    u = u_max
                else:
                    u = 0.0 if raw < 0.0 else raw
                uu_w[k] = u
                if k == n:
                    break
                g = gamma + u
                n1 = beta * s * i
                m1 = g * i
                d1 = n1 - m1
                s2 = s - hh * n1
                i2 = i + hh * d1
                n2 = beta * s2 * i2
                m2 = g * i2
                d2 = n2 - m2
                s3 = s - hh * n2
                i3 = i + hh * d2
                n3 = beta * s3 * i3
                m3 = g * i3
                d3 = n3 - m3
                s4 = s - h * n3
                i4 = i + h * d3
                n4 = beta * s4 * i4
                m4 = g * i4
                s = s + h6 * (-n1 + 2.0 * -n2 + 2.0 * -n3 + -n4)
                i = i + h6 * (d1 + 2.0 * d2 + 2.0 * d3 + (n4 - m4))
                r = r + h6 * (m1 + 2.0 * m2 + 2.0 * m3 + m4)
                s_seen = s + o_s
                raw = beta_plan * (1.0 if s_seen > 1.0 else s_seen) - gamma_plan
                if -raw >= 0.0:
                    # the herd event fires inside the step: back to node k,
                    # whose step the split below takes again
                    s, i, r = ss_w[k], ii_w[k], rr_w[k]
                    break
                k += 1
                if reads:
                    o_s, o_i = read(k, s, i)
                    off_s_w[k] = o_s
                    off_i_w[k] = o_i
                    s_seen = s + o_s
                    raw = beta_plan * (1.0 if s_seen > 1.0 else s_seen) - gamma_plan
        else:
            u = 0.0
            ss_w[k] = s
            ii_w[k] = i
            rr_w[k] = r
        if stage == 3 or k == n:
            break

        # advance by one step of h to the next node, in stage 1 or in a stage-2
        # step whose end-of-step test fired; a step in which the stage's event
        # test fires is split at the located switch instant
        sub_t = t0 + k * h
        t_node = t0 + (k + 1) * h
        dt = h
        while True:
            s2, i2, r2 = _rk4_step(s, i, r, beta, gamma, u, dt)
            if stage == 1:
                i_seen = i2 + o_i
                fired = (1.0 if i_seen > 1.0 else i_seen) - i_bar >= 0.0
            else:
                s_seen = s2 + o_s
                fired = -stage_two_rate(beta_plan, gamma_plan,
                                        1.0 if s_seen > 1.0 else s_seen) >= 0.0
            if not fired:
                break

            gap = (_threshold_gap(i_bar, o_i) if stage == 1
                   else _herd_gap(beta_plan, gamma_plan, o_s))
            tau = locate_event(gap, s, i, r, beta, gamma, u, sub_t, t_node)
            s, i, r = _rk4_step(s, i, r, beta, gamma, u, tau - sub_t)
            sub_t, dt = tau, t_node - tau
            s_seen, i_seen = min(s + o_s, 1.0), min(i + o_i, 1.0)
            switch_rows.append((k + 1, tau, u, stage, s_seen, i_seen))
            if stage == 1:
                t_b = tau
                k_b = k + 1
                state_at_tb = SirState(t=tau, s=s, i=i, r=r)
                stage = 2
                raw = stage_two_rate(beta_plan, gamma_plan, s_seen)
                if raw > u_max:
                    clamp_events += 1
                u = clamp(raw)
                switch_rows.append((k + 1, tau, u, stage, s_seen, i_seen))
                if not -raw >= 0.0:
                    continue
                # the herd condition holds at t_b already, so it fires there
                # too: the locator needs gap < 0 at the start of its bracket
                switch_rows.append((k + 1, tau, u, stage, s_seen, i_seen))
            t_h = tau
            stage = 3
            u = 0.0
            switch_rows.append((k + 1, tau, u, stage, s_seen, i_seen))
            s2, i2, r2 = _rk4_step(s, i, r, beta, gamma, u, dt)
            break
        s, i, r = s2, i2, r2
        k += 1

    # the loop steps on through inf and NaN; its nodes are tested once here
    require_finite(ts, ss, ii, rr, start, k + 1)
    # the stage only rises: 1 before node k_b, 2 from there to the last node k
    node_stage[:k_b], node_stage[k_b:k], node_stage[k] = 1, 2, stage
    # stage 3 is the u = 0 epidemic from its first node k, on integrate's stepper
    if stage == 3:
        _rk4_fill(ss, ii, rr, ts, k, beta, gamma, 0.0, h)
        if reads and k < n:
            # stage 3 decides nothing; its offsets only feed the trace signals
            _read_offsets(noise, margin, slice(k + 1, n + 1), ss, ii, off_s, off_i)
    max_i = max(float(np.max(ii)), state_at_tb.i if state_at_tb is not None else 0.0)
    traj = Trajectory(t=ts, s=ss, i=ii, r=rr, u=uu, step=h, params=true_params)

    def signal(node: np.ndarray, off: np.ndarray) -> np.ndarray:
        # min(node + offset, 1): formed in the offset buffer of a policy that
        # read noise; otherwise the node array itself if it has the same bits
        # (compared as bits: -0.0 + 0.0 is 0.0, which == does not see)
        if reads:
            return np.minimum(np.add(node, off, out=off), 1.0, out=off)
        seen = node + 0.0
        np.minimum(seen, 1.0, out=seen)
        return node if np.array_equal(seen.view(np.int64), node.view(np.int64)) else seen

    trace = PolicyTrace(node_t=traj.t, node_u=traj.u, node_stage=node_stage,
                        node_s_seen=signal(traj.s, off_s), node_i_seen=signal(traj.i, off_i),
                        switch_rows=tuple(switch_rows),
                        switching=SwitchingTimes(t_b=t_b, t_h=t_h),
                        clamp_events=clamp_events, kind=kind)
    if state_at_tb is not None:
        required, _ = feasibility_check(true_params, state_at_tb, u_max)
    else:
        required = float("nan")
    report = FeasibilityReport(
        feasible=bool(max_i <= i_bar + FEASIBILITY_SLACK),
        required_rate_at_tb=required, u_max=u_max,
        max_infection_attained=max_i, clamp_events=clamp_events, i_bar=i_bar,
    )
    return ClosedLoopResult(trajectory=traj, trace=trace, report=report)
