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
    _epidemic,
    _rk4_fill,
    _rk4_removals,
    _rk4_step,
    locate_event,
    read_only,
    require_finite,
)
from .noise import MeasurementNoise

FEASIBILITY_SLACK = 1e-6
_READ = 8192  # memo nodes per stage-1 scan block, one array read of the noise each
_FILL = 1024  # nodes per stage-1 fill block, which may step this far past the crossing


class PolicyKind(str, Enum):
    OPTIMAL = "optimal"
    ROBUST = "robust"
    MISESTIMATED = "misestimated"


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
    max_infection_attained: float


@dataclass(frozen=True)
class PolicyTrace:
    """Applied rate, stage label and consumed state signal over time.

    The rows are the run's grid nodes with switch rows spliced in: a stage
    switch adds rows at the switch instant (pre- and post-switch values),
    so piecewise integration of the rate is exact. Only the switch rows
    are the trace's own. The node columns are held by reference: ``node_t``,
    ``node_u``, ``node_s`` and ``node_i`` are the trajectory's ``t``, ``u``,
    ``s`` and ``i``, and ``node_stage`` is the run's int8 stage per node.
    ``switch_rows`` holds one ``(position, t, u, stage, s_seen, i_seen)``
    per switch row, in row order; the row comes right before node row
    ``position``. All node arrays are read-only.

    ``noise`` is the source the policy read, None for one that read none.
    The seen signals are not held: ``read`` forms them from it over a node
    range, and the margin delta follows from ``kind`` (the robust policy's).

    ``plan`` is the (beta, gamma) the policy planned with: the true
    parameters themselves for the optimal policy, the assumed ones otherwise.

    ``t``, ``u``, ``stage``, ``s_seen`` and ``i_seen`` are the full-row
    columns, and ``node_s_seen``/``node_i_seen`` the seen signals at every
    node. Each access forms a new array, so take a column once and let it
    go when done.
    """

    node_t: np.ndarray
    node_u: np.ndarray
    node_stage: np.ndarray
    node_s: np.ndarray
    node_i: np.ndarray
    noise: Optional[MeasurementNoise]
    switch_rows: tuple[tuple[int, float, float, int, float, float], ...]
    switching: SwitchingTimes
    clamp_events: int
    kind: PolicyKind
    plan: EpidemicParams

    def __post_init__(self) -> None:
        read_only(self.node_t, self.node_u, self.node_stage, self.node_s, self.node_i)

    def read(self, nodes: slice = slice(None)) -> tuple[np.ndarray, ...]:
        """Measured S and I at ``nodes`` and the seen signals formed from them.

        One ``measure`` call of ``noise`` gives x_hat and delta, and the
        signal is ``min(x + ((x_hat - x) + delta), 1)``, with delta for the
        robust policy only: the bits of the offsets the loop held. A policy
        that read no noise saw its states: x_hat is x, and its signal is
        ``min(x + 0.0, 1)``. Every output is read-only.
        """
        s, i = self.node_s, self.node_i
        if nodes != slice(None):
            s, i = s[nodes], i[nodes]
        if self.noise is None:
            out = s, i, np.minimum(s + 0.0, 1.0), np.minimum(i + 0.0, 1.0)
        else:
            # a run's nodes are finite; an infinite state's offset is inf - inf,
            # NaN, which its signal keeps
            with np.errstate(invalid="ignore"):
                s_hat, i_hat, off_s, off_i = _offsets(
                    self.noise, self.kind is PolicyKind.ROBUST, nodes, s, i)
            out = (s_hat, i_hat, np.minimum(np.add(s, off_s, out=off_s), 1.0, out=off_s),
                   np.minimum(np.add(i, off_i, out=off_i), 1.0, out=off_i))
        read_only(*out)
        return out

    def _spliced(self, nodes: np.ndarray, col: int, lo: int = 0) -> np.ndarray:
        """``nodes``, the column at node rows lo.., with the switch rows that
        come before those node rows spliced in."""
        rows = [row for row in self.switch_rows if lo <= row[0] < lo + len(nodes)]
        at = np.array([row[0] - lo for row in rows], dtype=np.intp)
        return np.insert(nodes, at, [row[col] for row in rows])

    def s_seen_rows(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """``t`` and ``s_seen`` of the rows from node row lo to node row hi - 1,
        with the switch rows among them; the signal is read at those nodes only."""
        nodes = slice(lo, hi)
        return (self._spliced(self.node_t[nodes], 1, lo),
                self._spliced(self.read(nodes)[2], 4, lo))

    @property
    def node_s_seen(self) -> np.ndarray:
        return self.read()[2]

    @property
    def node_i_seen(self) -> np.ndarray:
        return self.read()[3]

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


def stage_two_rate(beta: float, gamma: float, s_seen: float) -> float:
    """Unclamped stage-two rate beta*S_seen - gamma.

    It holds dI/dt at zero under the planning rates (beta, gamma) and the
    consumed susceptible signal; its negation is the herd-immunity gap.
    """
    return beta * s_seen - gamma


def _threshold_gap(i_bar: float, off_i: float):
    """Stage-1 event gap: >= 0 once the infection signal has reached i_bar."""
    return lambda s, i: min(i + off_i, 1.0) - i_bar


def _herd_gap(beta: float, gamma: float, off_s: float):
    """Stage-2 event gap: >= 0 once the planned herd-immunity condition fires."""
    return lambda s, i: -stage_two_rate(beta, gamma, min(s + off_s, 1.0))


def _offsets(noise: MeasurementNoise, margin: bool, nodes: slice, s: np.ndarray,
             i: np.ndarray) -> tuple[np.ndarray, ...]:
    """Measured S and I at ``nodes`` (``s`` and ``i`` are the states there)
    and the offsets a policy holds at them, ``(x_hat - x) + delta`` with
    delta when ``margin`` is set, from one array call of ``measure``."""
    s_hat, i_hat, d_s, d_i = noise.measure(nodes, s, i)
    off_s, off_i = s_hat - s, i_hat - i
    if margin:
        off_s += d_s
        off_i += d_i
    return s_hat, i_hat, off_s, off_i


def _threshold_node(ss: np.ndarray, ii: np.ndarray, lo: int, end: int,
                    noise: Optional[MeasurementNoise], margin: bool, i_bar: float) -> int:
    """The first node in lo..end-1 where the threshold fires, else ``end``.

    Nodes lo..end hold the u = 0 epidemic. This policy's I offsets at
    lo..end-1 come from one array read (``noise`` is None when the policy
    reads none, and its offsets are zero), and the loop's two stage-1 tests
    run as arrays: at each node, and at the end of its step. A fill may
    have stepped on into inf or NaN, which the run reports once it ends, so
    the arithmetic here warns of neither.
    """
    with np.errstate(all="ignore"):
        nodes = slice(lo, end)
        o_i = 0.0 if noise is None else _offsets(noise, margin, nodes, ss[nodes], ii[nodes])[3]
        i_open = ii[lo:end + 1]
        fires = np.minimum(i_open[:-1] + o_i, 1.0) - i_bar >= 0.0
        fires |= np.minimum(i_open[1:] + o_i, 1.0) - i_bar >= 0.0
    return lo + int(np.argmax(fires)) if fires.any() else end


def _herd_split(rows: list, k: int, t_lo: float, t_hi: float, s: float, i: float,
                r: float, u: float, params: EpidemicParams, plan: EpidemicParams,
                o_s: float, o_i: float) -> tuple[float, tuple[float, float, float]]:
    """Split the step from node k, held at rate u from (s, i, r) at t_lo, at the herd event.

    The event fires at t_lo where the herd condition holds there already
    (a threshold's instant), else where ``locate_event`` finds it. Appends
    its pre- and post-switch rows to ``rows`` and returns t_h and node
    k + 1, at t_hi, under u = 0.
    """
    beta, gamma = params.beta, params.gamma
    gap = _herd_gap(plan.beta, plan.gamma, o_s)
    t_h = t_lo
    if not gap(s, i) >= 0.0:
        t_h = locate_event(gap, s, i, r, beta, gamma, u, t_lo, t_hi)
        s, i, r = _rk4_step(s, i, r, beta, gamma, u, t_h - t_lo)
    seen = min(s + o_s, 1.0), min(i + o_i, 1.0)
    rows.extend(((k + 1, t_h, u, 2, *seen), (k + 1, t_h, 0.0, 3, *seen)))
    return t_h, _rk4_step(s, i, r, beta, gamma, 0.0, t_hi - t_h)


def simulate_closed_loop(kind: PolicyKind, true_params: EpidemicParams,
                         assumed: Optional[EpidemicParams],
                         init: SirState, noise: Optional[MeasurementNoise],
                         config: IntegratorConfig, i_bar: float,
                         bounds: ControlBounds) -> ClosedLoopResult:
    """Drive the true dynamics with a policy that sees only its own signals.

    A policy plans with the true (beta, gamma) if it is optimal and with
    ``assumed`` otherwise; its trace records them as ``plan``. Its signals
    are the true states plus offsets held over each step: zero for the
    optimal policy, the measurement error for the misestimated one, and
    that error plus the amplitude bound delta for the robust one, whose
    signals are thus upper envelopes. Both signals are capped at 1.

    Only stage 2 needs feedback; stages 1 and 3 are the u = 0 epidemic.
    The grid and stage 1 are the memo's u = 0 epidemic (``core._epidemic``),
    which every run and ``integrate`` call on the same parameters, initial
    state and grid shares, filled only as far as a run tests it.
    ``_threshold_node`` tests it in blocks as arrays, and the run copies its
    nodes up to node k, the first where this policy's threshold can fire.
    Each stage then runs once, in order, on RK4 steps of exactly h between
    grid nodes. The threshold fires at node k, inside the step from it
    (split where ``locate_event`` finds it), or never. Stage 2 runs in one
    ``for`` loop, with the RK4 step of S and I, the rate law and its clamp
    written inline; it tests the herd condition at each node and at the end
    of each step, and ``_herd_split`` splits a step in which it fires. The
    law reads the susceptible signal alone, so the loop reads the S offset
    at each node with the noise source's ``offset_reader``, and the I
    offset only at its first node and at a herd event, for the switch rows.
    Stage 3 is filled from its first node to the horizon by ``_rk4_fill``.
    The steps run on through inf and NaN, and the nodes are tested once at
    the end: NonFiniteDynamicsError names the first non-finite node's time.
    The run holds no signal buffer: its trace keeps the node S and I and
    the noise source it read, and forms the seen signals where they are
    read (``PolicyTrace.read``), with ``measure`` as arrays, bitwise equal
    to the per-node readers. Infeasibility is recorded in the report, never
    raised.

    The R pass ``_rk4_removals`` fills R over each stretch of stage 2 once
    the stretch ends, since no rate, event test or later step reads R; a
    split step's end node holds the R of its ``_rk4_step`` sub-steps. The
    trace's node columns are the run's own read-only arrays (see
    ``PolicyTrace``). A switch adds rows at its instant: one (the pre-switch
    stage at rate 0 for a threshold, the stage-2 rate for a herd event)
    before the node row when it fires at a node, and a pre- and a
    post-switch row after the node row when it fires inside the step.
    """
    if not (0.0 < i_bar < 1.0):
        raise ValueError("i_bar must lie in (0, 1)")

    h = config.step
    n = config.n_steps
    beta, gamma = true_params.beta, true_params.gamma
    plan = true_params if kind is PolicyKind.OPTIMAL else assumed
    if plan is None:
        raise ValueError(f"{kind.value} policy needs assumed rates")
    beta_plan, gamma_plan = plan.beta, plan.gamma
    # noise-free measurements leave every offset at zero
    reads = kind is not PolicyKind.OPTIMAL and noise is not None and noise.kind != "none"
    margin = kind is PolicyKind.ROBUST
    u_max = bounds.u_max
    clamp = bounds.clamp

    t0 = init.t
    epi = _epidemic(true_params, 0.0, init, config)  # stage 1, shared with earlier runs
    ts = epi.ts
    ss = np.empty(n + 1)
    ii = np.empty(n + 1)
    rr = np.empty(n + 1)
    uu = np.zeros(n + 1)
    node_stage = np.full(n + 1, 3, dtype=np.int8)  # the nodes after the loop's last are stage 3
    # memoryviews take a float faster than numpy's scalar setitem
    ss_w, ii_w, rr_w, uu_w = (memoryview(a) for a in (ss, ii, rr, uu))
    if reads:
        read_s, read_i = noise.offset_reader(0, margin), noise.offset_reader(1, margin)
    # switch rows: (trace position among the node rows, t, u, stage, s_seen, i_seen)
    switch_rows: list[tuple[int, float, float, int, float, float]] = []

    clamp_events = 0
    o_s = o_i = 0.0
    t_b: Optional[float] = None
    t_h: Optional[float] = None
    s_b = i_b = 0.0  # S and I at t_b
    k_b = n + 1  # the first node of stage 2 or later
    # stage 1: the memo's blocks, filled on past its last node, are tested up
    # to node k, the first where the threshold can fire
    k = end = 0
    while k == end < n:
        end = min(k + _READ, epi.last) if k < epi.last else min(k + _FILL, n)
        epi.fill(end)
        k = _threshold_node(epi.ss, epi.ii, k, end, noise if reads else None, margin, i_bar)
    nodes = slice(0, k + 1)
    ss[nodes], ii[nodes], rr[nodes] = epi.ss[nodes], epi.ii[nodes], epi.rr[nodes]
    s, i, r = ss_w[k], ii_w[k], rr_w[k]
    if reads:
        o_s, o_i = read_s(k, s), read_i(k, i)

    # the threshold fires at node k (the signals are capped at 1, and
    # ``1.0 if x > 1.0 else x`` is ``min(x, 1.0)``), inside the step from
    # node k, whose end-of-step test ``_threshold_node`` saw fire, or never
    i_seen = i + o_i
    if (1.0 if i_seen > 1.0 else i_seen) - i_bar >= 0.0:
        t_b, k_b, s_b, i_b = t0 + k * h, k, s, i
        switch_rows.append((k, t_b, 0.0, 1, min(s + o_s, 1.0), min(i + o_i, 1.0)))
    elif k < n:
        t_lo, t_hi = t0 + k * h, t0 + (k + 1) * h
        t_b = locate_event(_threshold_gap(i_bar, o_i), s, i, r, beta, gamma, 0.0, t_lo, t_hi)
        s, i, r = _rk4_step(s, i, r, beta, gamma, 0.0, t_b - t_lo)
        s_b, i_b = s, i
        s_seen, i_seen = min(s + o_s, 1.0), min(i + o_i, 1.0)
        raw = stage_two_rate(beta_plan, gamma_plan, s_seen)
        if raw > u_max:
            clamp_events += 1
        u = clamp(raw)
        switch_rows += [(k + 1, t_b, 0.0, 1, s_seen, i_seen), (k + 1, t_b, u, 2, s_seen, i_seen)]
        # the rest of the step under u, split again where the herd event
        # fires at t_b or in it
        node = _rk4_step(s, i, r, beta, gamma, u, t_hi - t_b)
        if -raw >= 0.0 or -stage_two_rate(beta_plan, gamma_plan, min(node[0] + o_s, 1.0)) >= 0.0:
            t_h, node = _herd_split(switch_rows, k, t_b, t_hi, s, i, r, u, true_params, plan,
                                    o_s, o_i)
        k_b = k = k + 1
        ss_w[k], ii_w[k], rr_w[k] = s, i, r = node
        if reads and t_h is None:
            o_s, o_i = read_s(k, s), read_i(k, i)

    if t_b is not None and t_h is None:
        # stage 2 from node k, carrying S and I: the rate law
        # (``stage_two_rate``), its clamp (``ControlBounds.clamp``) and the
        # RK4 step (``_rk4_step``, in its operation order) are inline, and
        # the R pass fills the pass's nodes once it ends. The end-of-step
        # herd test under the held offsets is the next node's herd test,
        # so that runs again only where a read changes the S offset
        hh = 0.5 * h
        h6 = h / 6.0
        entry = k
        rr_w[k] = r
        s_seen = s + o_s
        raw = beta_plan * (1.0 if s_seen > 1.0 else s_seen) - gamma_plan
        herd = -raw >= 0.0  # at node k
        if not herd:
            for k in range(k, n):
                ss_w[k] = s
                ii_w[k] = i
                if raw > u_max:
                    clamp_events += 1
                    u = u_max
                else:
                    u = 0.0 if raw < 0.0 else raw
                uu_w[k] = u
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
                s = s + h6 * (-n1 - 2.0 * n2 - 2.0 * n3 - n4)
                i = i + h6 * (d1 + 2.0 * d2 + 2.0 * d3 + (n4 - m4))
                s_seen = s + o_s
                raw = beta_plan * (1.0 if s_seen > 1.0 else s_seen) - gamma_plan
                if -raw >= 0.0:
                    # the herd event fires inside the step: back to node k,
                    # whose step the split below takes again
                    s, i = ss_w[k], ii_w[k]
                    break
                if reads:
                    o_s = read_s(k + 1, s)
                    s_seen = s + o_s
                    raw = beta_plan * (1.0 if s_seen > 1.0 else s_seen) - gamma_plan
                    herd = -raw >= 0.0  # at node k + 1
                    if herd:
                        break
            else:
                # node n, whose herd test passed at the end of its step or after its read
                k = n
                ss_w[k] = s
                ii_w[k] = i
                if raw > u_max:
                    clamp_events += 1
                uu_w[k] = clamp(raw)
            if herd:
                k += 1  # the node after the last step
        if herd:
            # the herd event fires at node k, also where the threshold
            # just did (t_h == t_b): the locator needs gap < 0 at a node
            ss_w[k] = s
            ii_w[k] = i
            t_h = t0 + k * h
            if reads:
                o_i = read_i(k, i)  # for the switch row: stage 2 reads S alone
            switch_rows.append((k, t_h, 0.0 if raw < 0.0 else raw, 2,
                                min(s + o_s, 1.0), min(i + o_i, 1.0)))
        _rk4_removals(ss, ii, rr, entry, k + 1, beta, gamma, uu, h)
        if not herd and k < n:
            # the herd event fires inside the step from node k
            if reads:
                o_i = read_i(k, i)
            t_h, node = _herd_split(switch_rows, k, t0 + k * h, t0 + (k + 1) * h, s, i, rr_w[k],
                                    u, true_params, plan, o_s, o_i)
            k += 1
            ss_w[k], ii_w[k], rr_w[k] = node

    # stage 3 is the u = 0 epidemic from its first node k, on integrate's
    # stepper; the fills and the loop step on through inf and NaN, and the
    # nodes are tested once here
    if t_h is not None:
        _rk4_fill(ss, ii, rr, k, n + 1, beta, gamma, 0.0, h)
    require_finite(ts, ss, ii, rr, 0, n + 1)
    # the stage only rises: 1 before node k_b, 2 from there to the last node k
    stage = 1 if t_b is None else 2 if t_h is None else 3
    node_stage[:k_b], node_stage[k_b:k], node_stage[k] = 1, 2, stage
    max_i = max(float(np.max(ii)), i_b)
    traj = Trajectory(t=ts, s=ss, i=ii, r=rr, u=uu, step=h, params=true_params)
    trace = PolicyTrace(node_t=traj.t, node_u=traj.u, node_stage=node_stage, node_s=traj.s,
                        node_i=traj.i, noise=noise if reads else None,
                        switch_rows=tuple(switch_rows),
                        switching=SwitchingTimes(t_b=t_b, t_h=t_h),
                        clamp_events=clamp_events, kind=kind, plan=plan)
    report = FeasibilityReport(
        feasible=bool(max_i <= i_bar + FEASIBILITY_SLACK),
        required_rate_at_tb=float("nan") if t_b is None else stage_two_rate(beta, gamma, s_b),
        max_infection_attained=max_i)
    return ClosedLoopResult(trajectory=traj, trace=trace, report=report)
