"""Continuous-time SIR dynamics with an isolation control input.

The model tracks population fractions (S, I, R) with transmission rate beta,
removal rate gamma, and an isolation rate u acting on the infected group:

    dS/dt = -beta*S*I
    dI/dt =  beta*S*I - (gamma + u)*I
    dR/dt =  (gamma + u)*I

This module provides the right-hand side, the fixed-step RK4 integrator of
the ground truth, the one-step Euler map used by the sampled-data estimator,
the closed-form peak-infection value, and the bisection event locator of
the closed loop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

CONSERVATION_TOL = 1e-9
EVENT_TOL = 1e-8
_EVENT_MAX_ITERS = 80
HORIZON_RTOL = 1e-9  # horizon / step may miss a whole number by this much


class NonFiniteDynamicsError(RuntimeError):
    """The state or the isolation rate became NaN/inf during integration."""


@dataclass(frozen=True)
class EpidemicParams:
    """Transmission rate beta and removal rate gamma, both per unit time."""

    beta: float
    gamma: float

    def __post_init__(self) -> None:
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")


@dataclass(frozen=True)
class SirState:
    """Population fractions at time t (keyword-only, 0 by default); s + i + r must equal 1."""

    t: float = field(default=0.0, kw_only=True)
    s: float
    i: float
    r: float

    def __post_init__(self) -> None:
        for name, v in (("s", self.s), ("i", self.i), ("r", self.r)):
            if not math.isfinite(v):
                raise NonFiniteDynamicsError(f"{name} is not finite at t={self.t}")
            if v < -1e-12 or v > 1.0 + 1e-12:
                raise ValueError(f"{name}={v} outside [0, 1] at t={self.t}")
        if abs(self.s + self.i + self.r - 1.0) > CONSERVATION_TOL:
            raise ValueError(
                f"fractions sum to {self.s + self.i + self.r} at t={self.t}"
            )


@dataclass(frozen=True)
class ControlBounds:
    """Admissible isolation rates [0, u_max]."""

    u_max: float

    def __post_init__(self) -> None:
        if not (0.0 < self.u_max <= 1.0):
            raise ValueError(f"u_max must lie in (0, 1], got {self.u_max}")

    def clamp(self, u: float) -> float:
        """``min(max(u, 0.0), u_max)``, written as comparisons for the closed loop."""
        if u > self.u_max:
            return self.u_max
        return 0.0 if u < 0.0 else u


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 integration settings."""

    step: float = 0.01
    horizon: float = 1200.0

    def __post_init__(self) -> None:
        if not (self.step > 0.0 and math.isfinite(self.step)):
            raise ValueError(f"step must be positive and finite, got {self.step}")
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        n = self.n_steps
        if n < 1 or abs(n * self.step - self.horizon) > HORIZON_RTOL * self.horizon:
            raise ValueError(
                f"horizon {self.horizon} is not a whole number of steps {self.step}")

    @property
    def n_steps(self) -> int:
        return round(self.horizon / self.step)


def rhs(state: SirState, params: EpidemicParams, u: float) -> tuple[float, float, float]:
    """Time derivatives (dS, dI, dR) at a state under isolation rate u."""
    return _rhs(state.s, state.i, params.beta, params.gamma, u)


def _rhs(s: float, i: float, beta: float, gamma: float, u: float):
    new_inf = beta * s * i
    removal = (gamma + u) * i
    return -new_inf, new_inf - removal, removal


def _rk4_step(s, i, r, beta, gamma, u, h):
    """One classical RK4 step of size h under the held rate u.

    The stages are written out as locals: stage k has new infections
    ``nk = beta*S*I``, removals ``mk = (gamma + u)*I`` and ``dk = nk - mk``,
    i.e. the derivative (-nk, dk, mk) of ``_rhs``, and every floating-point
    operation runs in the order of ``_rhs``. A stage state is ``s - c*nk``,
    which is ``s + c*-nk`` bit for bit; the final sums keep their negations,
    since ``-(a + b)`` differs from ``-a + -b`` in the sign of an exact zero.
    Works elementwise on numpy arrays too. The reference step: ``_rk4_fill``
    and the closed loop's stage-2 loop run the same operations inline.
    """
    g = gamma + u
    hh = 0.5 * h
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
    h6 = h / 6.0
    return (
        s + h6 * (-n1 + 2.0 * -n2 + 2.0 * -n3 + -n4),
        i + h6 * (d1 + 2.0 * d2 + 2.0 * d3 + (n4 - m4)),
        r + h6 * (m1 + 2.0 * m2 + 2.0 * m3 + m4),
    )


def euler_step(state: SirState, params: EpidemicParams, u: float, h: float) -> SirState:
    """One forward-Euler step of size h; the exact model class of the estimator.

    S(t+h) = S - h*beta*S*I
    I(t+h) = I + h*beta*S*I - h*(gamma+u)*I
    R(t+h) = R + h*(gamma+u)*I
    """
    if not h > 0.0:
        raise ValueError("step h must be positive")
    d = rhs(state, params, u)
    return SirState(t=state.t + h, s=state.s + h * d[0], i=state.i + h * d[1],
                    r=state.r + h * d[2])


def read_only(*arrays) -> None:
    """Make the numpy arrays among ``arrays`` read-only, in place.

    Results hand out their arrays as shared views (a measured series holds
    its trajectory's time grid, a later run its prefix's); a read-only view
    cannot carry a write from one result into another.
    """
    for a in arrays:
        if isinstance(a, np.ndarray):
            a.flags.writeable = False


@dataclass(frozen=True)
class Trajectory:
    """An integrated path on a uniform time grid.

    ``u[k]`` is the isolation rate applied on [t[k], t[k+1]) (zero-order
    hold); the last entry repeats the rate in effect at the final node.
    Immutable once produced: its arrays are read-only, since measured
    series, policy traces and later runs may hold them as views. Carries the
    parameters it was integrated with so events can be refined by local
    re-integration.
    """

    t: np.ndarray
    s: np.ndarray
    i: np.ndarray
    r: np.ndarray
    u: np.ndarray
    step: float
    params: EpidemicParams = field(repr=False)

    def __post_init__(self) -> None:
        read_only(self.t, self.s, self.i, self.r, self.u)
        if len(self.t) == 0:
            return
        if np.any(np.diff(self.t) <= 0.0):
            raise ValueError("time stamps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.t)

    def sample(self, k: int) -> SirState:
        return SirState(t=float(self.t[k]), s=float(self.s[k]), i=float(self.i[k]),
                        r=float(self.r[k]))

    def index_at(self, time: float) -> int:
        """Index of the last grid node with t[k] <= time (to 1e-12).

        A time outside the grid, or NaN, raises ValueError.
        """
        k = int(np.searchsorted(self.t, time + 1e-12, side="right")) - 1
        if k < 0 or not time <= self.t[-1] + 1e-9:
            raise ValueError(f"time {float(time)} outside trajectory range")
        return k

    def state_at(self, time: float) -> tuple[float, float, float]:
        """(S, I, R) at one time: the node values on a node, else one RK4 sub-step.

        The sub-step runs from the last node before the time under that
        node's held rate.
        """
        k = self.index_at(time)
        s, i, r = float(self.s[k]), float(self.i[k]), float(self.r[k])
        dt = time - float(self.t[k])
        if dt <= 0.0:
            return s, i, r
        return _rk4_step(s, i, r, self.params.beta, self.params.gamma, float(self.u[k]), dt)

    def max_conservation_error(self) -> float:
        return float(np.max(np.abs(self.s + self.i + self.r - 1.0)))


def integrate(params: EpidemicParams, u: float, init: SirState,
              config: IntegratorConfig) -> Trajectory:
    """Integrate the SIR dynamics by RK4 on a fixed grid under the constant rate u.

    The grid is ``init.t + k*step``, as in the closed loop. Raises
    NonFiniteDynamicsError if u or the state becomes NaN/inf, and
    ValueError if u lies outside [0, 1].
    """
    u = float(u)
    if not math.isfinite(u):
        raise NonFiniteDynamicsError(f"isolation rate {u} is not finite")
    if u < 0.0 or u > 1.0:
        raise ValueError(f"isolation rate {u} outside [0, 1]")
    h = config.step
    n = config.n_steps
    ts = init.t + np.arange(n + 1) * h
    ss = np.empty(n + 1)
    ii = np.empty(n + 1)
    rr = np.empty(n + 1)
    ss[0], ii[0], rr[0] = init.s, init.i, init.r
    _rk4_fill(ss, ii, rr, ts, 0, params.beta, params.gamma, u, h)
    return Trajectory(t=ts, s=ss, i=ii, r=rr, u=np.full(n + 1, u), step=h, params=params)


def _rk4_fill(ss, ii, rr, ts, k0, beta, gamma, u, h) -> None:
    """Fill nodes k0+1.. of ss, ii, rr in place by RK4 steps of h from node k0.

    The constant-rate node loop: ``integrate`` runs it from node 0 and the
    closed loop from its first stage-3 node; the closed loop's stage-2 loop
    is the one other inline copy of the step. Each step is ``_rk4_step``
    written inline, with its operation order kept, so the nodes are bitwise
    its repeated steps; the rate terms ``gamma + u``, ``0.5*h`` and ``h/6``
    are formed once. Nodes are written through memoryviews, which take a
    float faster than numpy's scalar setitem. Raises NonFiniteDynamicsError
    naming the time ``ts[k]`` of the first non-finite node.
    """
    ss_w, ii_w, rr_w = memoryview(ss), memoryview(ii), memoryview(rr)
    s, i, r = ss_w[k0], ii_w[k0], rr_w[k0]
    g = gamma + u
    hh = 0.5 * h
    h6 = h / 6.0
    for k in range(k0 + 1, len(ss)):
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
        ss_w[k] = s = s + h6 * (-n1 + 2.0 * -n2 + 2.0 * -n3 + -n4)
        ii_w[k] = i = i + h6 * (d1 + 2.0 * d2 + 2.0 * d3 + (n4 - m4))
        rr_w[k] = r = r + h6 * (m1 + 2.0 * m2 + 2.0 * m3 + m4)
    require_finite(ts, ss, ii, rr, k0, len(ss))


def require_finite(ts, ss, ii, rr, lo, end) -> None:
    """Raise NonFiniteDynamicsError naming ``ts[k]`` of the first non-finite node in lo..end-1.

    Float arithmetic carries inf and NaN on without raising, so a loop can
    step on and test its nodes once at the end.
    """
    ok = np.isfinite(ss[lo:end]) & np.isfinite(ii[lo:end]) & np.isfinite(rr[lo:end])
    if not ok.all():
        raise NonFiniteDynamicsError(f"state became non-finite at t={ts[lo + np.argmin(ok)]}")


def peak_infection(params: EpidemicParams, start: SirState, u_fix: float) -> float:
    """Peak infected fraction under the constant rate u_fix, in closed form.

    I(t_p) = rho*(ln(rho) - 1 - ln(S_a)) + S_a + I_a  with
    rho = (gamma + u_fix)/beta. If beta*S_a <= gamma + u_fix the infection is
    already non-increasing and the peak is the starting value.
    """
    if start.s <= 0.0:
        raise ValueError("peak_infection requires S > 0 (log undefined)")
    if u_fix < 0.0 or u_fix > 1.0:
        raise ValueError(f"u_fix {u_fix} outside [0, 1]")
    rho = (params.gamma + u_fix) / params.beta
    if params.beta * start.s <= params.gamma + u_fix:
        return start.i
    return rho * (math.log(rho) - 1.0 - math.log(start.s)) + start.s + start.i


def locate_event(gap: Callable[[float, float], float], s0: float, i0: float,
                 r0: float, beta: float, gamma: float, u: float, t_lo: float,
                 t_hi: float) -> float:
    """First time in (t_lo, t_hi] at which gap(S, I) turns >= 0, by bisection.

    The state at a trial time is one RK4 sub-step from (s0, i0, r0) at t_lo
    under the held rate u. The caller guarantees gap < 0 at t_lo and >= 0 at
    t_hi. Stops once |gap| <= EVENT_TOL, or after _EVENT_MAX_ITERS halvings
    with the upper end of the bracket.
    """
    lo, hi = t_lo, t_hi
    for _ in range(_EVENT_MAX_ITERS):
        mid = 0.5 * (lo + hi)
        sm, im, _ = _rk4_step(s0, i0, r0, beta, gamma, u, mid - t_lo)
        g = gap(sm, im)
        if g >= 0.0:
            hi = mid
        else:
            lo = mid
        if abs(g) <= EVENT_TOL:
            return mid
    return hi
