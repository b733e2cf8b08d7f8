"""Closed-form oracles for the benchmark's accuracy metric.

Independent of the program under test: nothing here imports ``sirctl``.

Optimal cost of an ICU-capped SIR (Miclo, Spiro & Weibull, "Optimal
epidemic suppression under an ICU constraint", 2020). Stage 1 is the
uncontrolled epidemic, along which S + I - rho*ln S stays constant
(rho = gamma/beta); it ends when I reaches the cap i_bar at S = S_b. In
stage 2 the rate beta*S - gamma pins I at i_bar, so dS/dt = -beta*S*i_bar,
until S falls to rho. Integrating the rate over stage 2 gives

    J* = (S_b - rho - rho*ln(S_b/rho)) / i_bar,

valid while the stage-2 rate fits the budget, beta*S_b - gamma <= u_max.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

_BISECT_ITERS = 200


@dataclass(frozen=True)
class CappedSir:
    """The true epidemic of one closed-loop workload."""

    beta: float
    gamma: float
    s0: float
    i0: float
    i_bar: float
    u_max: float


def stage_one_exit(model: CappedSir) -> float:
    """S_b: the susceptible fraction at which uncontrolled I first reaches i_bar.

    Bisection for S in [rho, S0] on the stage-1 invariant, which increases
    in S above rho. Raises ValueError if the uncontrolled peak stays below
    the cap (stage 2 never starts).
    """
    rho = model.gamma / model.beta
    level = model.s0 + model.i0 - rho * math.log(model.s0)

    def excess(s: float) -> float:
        return s + model.i_bar - rho * math.log(s) - level

    lo, hi = rho, model.s0
    if not (excess(lo) < 0.0 < excess(hi)):
        raise ValueError("the uncontrolled epidemic never reaches the cap")
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if excess(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def optimal_cost(model: CappedSir) -> float:
    """J*, the closed-form minimum of the integrated isolation rate."""
    rho = model.gamma / model.beta
    s_b = stage_one_exit(model)
    if model.beta * s_b - model.gamma > model.u_max:
        raise ValueError("the stage-2 rate exceeds u_max; the closed form does not apply")
    return (s_b - rho - rho * math.log(s_b / rho)) / model.i_bar


def relative_error(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)
