"""Shared fixtures: the headline scenarios are expensive enough to run once."""
from __future__ import annotations

from dataclasses import replace

import pytest

from sirctl import core
from sirctl.core import EVENT_TOL, EpidemicParams, IntegratorConfig, SirState, integrate
from sirctl.scenarios import InflationConfig, NoiseConfig, preset, run_scenario


class OpenLoopOracle:
    """scipy's DOP853 on the u = 0 epidemic, an integrator independent of RK4."""

    RTOL = 1e-12

    def __init__(self, integrate_ivp):
        self._ivp = integrate_ivp

    def solve(self, params, t_span, y0, **kwargs):
        """The right-hand side ``rhs(t, [s, i])`` and solve_ivp's solution from [s0, i0]."""
        beta, gamma = params.beta, params.gamma

        def rhs(t, y):
            return [-beta * y[0] * y[1], beta * y[0] * y[1] - gamma * y[1]]

        return rhs, self._ivp.solve_ivp(rhs, t_span, y0, method="DOP853", rtol=self.RTOL,
                                        atol=1e-20, **kwargs)

    def threshold_time(self, params, init, i_bar, t_end):
        """The first time I reaches i_bar, and how far a located crossing may lie from it.

        The locator stops once |I - i_bar| <= EVENT_TOL, which moves the
        crossing by up to EVENT_TOL/(dI/dt); RK4's own error in I there
        (~3e-14 at h = 0.01) is far below EVENT_TOL.
        """
        def crossing(t, y):
            return y[1] - i_bar

        crossing.terminal, crossing.direction = True, 1
        rhs, sol = self.solve(params, (init.t, t_end), [init.s, init.i], events=crossing)
        t_b, y_b = sol.t_events[0][0], sol.y_events[0][0]
        return t_b, EVENT_TOL / rhs(t_b, y_b)[1]


@pytest.fixture(autouse=True)
def empty_integrate_memo():
    """Each test starts with ``integrate``'s memo empty, so no test depends on
    the order the tests run in."""
    core._memo.clear()


@pytest.fixture(scope="session")
def dop853():
    """The open-loop oracle; a test that asks for it skips without scipy."""
    return OpenLoopOracle(pytest.importorskip("scipy.integrate"))


@pytest.fixture(scope="session")
def wave_traj():
    """Uncontrolled epidemic wave: beta=0.16, gamma=1/30, horizon 110."""
    params = EpidemicParams(beta=0.16, gamma=1.0 / 30.0)
    init = SirState(t=0.0, s=1.0 - 1e-5, i=1e-5, r=0.0)
    return integrate(params, 0.0, init, IntegratorConfig(step=0.01, horizon=110.0))


@pytest.fixture(scope="session")
def compare_artifacts():
    """The three-policy comparison: beta=0.16, gamma=1/30, i_bar=0.01,
    u_max=0.15, I(0)=1e-5, 55 dB measurement noise."""
    return run_scenario(preset("policy-compare"))


@pytest.fixture(scope="session")
def fig1_noise_free_artifacts():
    """Robust-vs-optimal setup (beta=0.16, gamma=0.063, i_bar=0.1, u_max=0.2,
    5% parameter inflation) without measurement noise."""
    cfg = replace(preset("fig1"), name="fig1-noise-free",
                  noise=NoiseConfig(kind="none"))
    return run_scenario(cfg)


@pytest.fixture(scope="session")
def fig1_noisy_artifacts():
    """The same setup with state-scaled measurement noise."""
    return run_scenario(preset("fig1"))


@pytest.fixture(scope="session")
def fig1_collapse_artifacts():
    """Exact parameters and exact states: the robust policy must reduce to
    the optimal one."""
    cfg = replace(preset("fig1"), name="fig1-collapse",
                  noise=NoiseConfig(kind="none"),
                  inflation=InflationConfig(beta_mult=1.0, gamma_mult=1.0))
    return run_scenario(cfg)
