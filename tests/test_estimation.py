"""Two-sample least squares, the error decomposition, and the bound terms."""
from __future__ import annotations

import math
import re
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest

from sirctl.core import EpidemicParams, SirState, euler_step, integrate, rhs
from sirctl.estimation import (
    ErrorBound,
    MeasuredSample,
    SingularRegressorsError,
    build_regressor_batch,
    composite_constant,
    discretization_error_bound,
    estimation_error_bound,
    estimate_params,
    lipschitz_constant,
    measurement_error_term,
    param_intervals,
)
from sirctl.scenarios import PRESETS, bound_sweep_noisy_config, preset

from helpers import node_state

PARAMS = EpidemicParams(beta=0.16, gamma=1.0 / 30.0)
STEPS = np.array([0.01, 0.1, 0.5, 1.0, 2.0, 10.0])  # zeta*h < 1 at zeta = 0.055
BOUND_INPUTS = dict(h=0.1, zeta=0.055, f_max=0.03, v_max=0.0, c=0.2, lambda_min=1.4e-3)
# each checked input of the bound functions, with valid values for the others
CHECKED_INPUTS = [(fn, valid, name) for fn, valid in (
    (estimation_error_bound, BOUND_INPUTS),
    (discretization_error_bound, dict(h=0.1, zeta=0.055, f_max=0.03)),
    (partial(lipschitz_constant, PARAMS), dict(x_max=1.0, r=0.1, u_max_local=0.0)),
) for name in valid]


def euler_chain(params, init, u, h, n):
    states = [init]
    for _ in range(n):
        states.append(euler_step(states[-1], params, u, h))
    return states


def samples_from_states(states, u, ki, kj, noise=None):
    """MeasuredSample quadruple at base indices ki, kj (one step apart)."""
    def mk(k):
        v_s, v_i = (0.0, 0.0) if noise is None else noise[k]
        st = states[k]
        return MeasuredSample(t=st.t, s_hat=st.s + v_s, i_hat=st.i + v_i, u=u)
    return mk(ki), mk(ki + 1), mk(kj), mk(kj + 1)


class TestBatchConstruction:
    def test_euler_data_satisfies_model_exactly(self):
        states = euler_chain(PARAMS, SirState(t=0.0, s=0.6, i=0.3, r=0.1), 0.02, 0.05, 10)
        si, sih, sj, sjh = samples_from_states(states, 0.02, 0, 7)
        batch = build_regressor_batch(si, sih, sj, sjh, 0.05)
        theta = np.array([[PARAMS.beta, PARAMS.gamma]])
        residual = batch.L - theta @ batch.Z * batch.h
        assert np.max(np.abs(residual)) <= 1e-15

    def test_rejects_mismatched_time_stamps(self):
        states = euler_chain(PARAMS, SirState(t=0.0, s=0.6, i=0.3, r=0.1), 0.0, 0.05, 10)
        si, sih, sj, sjh = samples_from_states(states, 0.0, 0, 7)
        with pytest.raises(ValueError):
            build_regressor_batch(si, sih, sj, sjh, 0.04)

    def test_rejects_equal_base_times(self):
        states = euler_chain(PARAMS, SirState(t=0.0, s=0.6, i=0.3, r=0.1), 0.0, 0.05, 10)
        si, sih, _, _ = samples_from_states(states, 0.0, 0, 7)
        with pytest.raises(ValueError):
            build_regressor_batch(si, sih, si, sih, 0.05)

    @pytest.mark.parametrize("nan_at", [(0,), (1,), (2,), (3,), (0, 1, 2, 3)],
                             ids=["base-i", "ahead-i", "base-j", "ahead-j", "all"])
    def test_rejects_nan_sample_times(self, nan_at):
        states = euler_chain(PARAMS, SirState(t=0.0, s=0.6, i=0.3, r=0.1), 0.0, 0.05, 10)
        samples = [replace(x, t=math.nan) if k in nan_at else x
                   for k, x in enumerate(samples_from_states(states, 0.0, 0, 7))]
        with pytest.raises(ValueError, match="nan"):
            build_regressor_batch(*samples, 0.05)

    @pytest.mark.parametrize("steps, bad", [([0.1, 0.0], "0.0"), ([0.1, math.nan, 0.0], "nan"),
                                            (math.nan, "nan")],
                             ids=["stacked-zero", "stacked-nan", "nan"])
    def test_names_the_first_bad_step(self, steps, bad):
        # the Euler bound's step check, with its message
        h = np.array(steps)
        base = lambda t: MeasuredSample(t=t, s_hat=0.6, i_hat=0.3, u=0.0)
        ahead = lambda t: MeasuredSample(t=t + h, s_hat=np.full_like(h, 0.6),
                                         i_hat=np.full_like(h, 0.3), u=np.zeros_like(h))
        with pytest.raises(ValueError) as batch_error:
            build_regressor_batch(base(0.0), ahead(0.0), base(1.0), ahead(1.0), h)
        with pytest.raises(ValueError) as euler_error:
            discretization_error_bound(h, 0.055, 0.03)
        assert str(batch_error.value) == str(euler_error.value) == f"h = {bad} must be positive"

    def test_zero_infections_give_singular_batch(self):
        mk = lambda t: MeasuredSample(t=t, s_hat=0.9, i_hat=0.0, u=0.0)
        batch = build_regressor_batch(mk(0.0), mk(0.1), mk(1.0), mk(1.1), 0.1)
        with pytest.raises(SingularRegressorsError):
            estimate_params(batch)


class TestEstimator:
    def test_exact_recovery_on_euler_data(self):
        states = euler_chain(PARAMS, SirState(t=0.0, s=0.7, i=0.2, r=0.1), 0.03, 0.05, 12)
        batch = build_regressor_batch(*samples_from_states(states, 0.03, 0, 9), 0.05)
        est = estimate_params(batch)
        assert abs(est.beta_hat - PARAMS.beta) <= 1e-10
        assert abs(est.gamma_hat - PARAMS.gamma) <= 1e-10
        assert est.beta_hat >= 0.0 and est.gamma_hat >= 0.0

    def test_normal_equations_residual(self):
        states = euler_chain(PARAMS, SirState(t=0.0, s=0.7, i=0.2, r=0.1), 0.0, 0.05, 12)
        batch = build_regressor_batch(*samples_from_states(states, 0.0, 0, 9), 0.05)
        est = estimate_params(batch)
        theta = np.array([[est.beta_hat, est.gamma_hat]])
        lhs = theta * batch.h @ batch.Z @ batch.Z.T
        rhs_ = batch.L @ batch.Z.T
        assert np.max(np.abs(lhs - rhs_)) <= 1e-10 * max(1.0, np.max(np.abs(rhs_)))

    def test_error_shrinks_with_step(self, wave_traj):
        def estimate_at(alpha):
            ki, kj = 8000, 9000
            def mk(k):
                return MeasuredSample(t=float(wave_traj.t[k]), s_hat=float(wave_traj.s[k]),
                                      i_hat=float(wave_traj.i[k]), u=0.0)
            h = alpha * 0.01
            batch = build_regressor_batch(mk(ki), mk(ki + alpha), mk(kj), mk(kj + alpha), h)
            est = estimate_params(batch)
            return np.linalg.norm(est.as_row() - np.array([PARAMS.beta, PARAMS.gamma]))

        assert estimate_at(1) < estimate_at(200)

    def test_decomposition_identity(self, wave_traj):
        # continuous-time truth plus crafted noise: E and W reconstructed from
        # their definitions must explain the estimation error exactly
        ki, kj, alpha = 8000, 9000, 40
        h = alpha * 0.01
        noise = {ki: (2e-4, -1e-4), ki + alpha: (-1e-4, 1.5e-4),
                 kj: (-2.5e-4, 5e-5), kj + alpha: (1e-4, -2e-4)}

        def mk(k):
            v = noise[k]
            return MeasuredSample(t=float(wave_traj.t[k]),
                                  s_hat=float(wave_traj.s[k]) + v[0],
                                  i_hat=float(wave_traj.i[k]) + v[1], u=0.0)

        batch = build_regressor_batch(mk(ki), mk(ki + alpha), mk(kj), mk(kj + alpha), h)
        est = estimate_params(batch)

        def e_i(k):
            pred = euler_step(node_state(wave_traj, k), PARAMS, 0.0, h)
            return float(wave_traj.i[k + alpha]) - pred.i

        def w(k):
            return measurement_error_term(
                PARAMS, s_hat=float(wave_traj.s[k]) + noise[k][0],
                i_hat=float(wave_traj.i[k]) + noise[k][1], u=0.0, h=h,
                v_s=noise[k][0], v_i=noise[k][1], v_i_plus_h=noise[k + alpha][1])

        E = np.array([[e_i(ki), e_i(kj)]])
        W = np.array([[w(ki), w(kj)]])
        theta = np.array([[PARAMS.beta, PARAMS.gamma]])

        # the split L = Theta Z h + E + W must balance exactly
        assert np.max(np.abs(batch.L - (theta @ batch.Z * h + E + W))) <= 1e-12

        reconstructed = (E + W) @ batch.Z.T @ np.linalg.inv(batch.zzt()) / h
        direct = est.as_row() - theta[0]
        assert np.max(np.abs(direct - reconstructed[0])) <= 1e-10


class TestLipschitzAndDiscretization:
    def test_zero_rates_give_zero(self):
        tiny = EpidemicParams(beta=1e-300, gamma=1e-300)
        assert lipschitz_constant(tiny, 0.0, 0.0, 0.0) == pytest.approx(0.0, abs=1e-290)

    def test_hand_evaluated_constant(self):
        z = lipschitz_constant(PARAMS, x_max=1.0, r=0.1, u_max_local=0.0)
        assert z == pytest.approx(0.7706667, abs=1e-6)

    def test_bound_quadratic_in_small_h(self):
        b1 = discretization_error_bound(1e-4, 0.055, 0.05)
        b2 = discretization_error_bound(2e-4, 0.055, 0.05)
        assert b2 / b1 == pytest.approx(4.0, rel=1e-4)

    def test_hand_evaluated_bound(self):
        assert discretization_error_bound(1.0, 0.055, 0.05) == pytest.approx(
            0.00291005, abs=1e-8)

    def test_rejects_step_beyond_validity(self):
        with pytest.raises(ValueError):
            discretization_error_bound(20.0, 0.055, 0.05)

    def test_array_of_steps_matches_each_float_step(self):
        bounds = discretization_error_bound(STEPS, 0.055, 0.05)
        assert bounds.tolist() == [discretization_error_bound(h, 0.055, 0.05)
                                   for h in STEPS.tolist()]

    def test_euler_error_within_bound_on_wave(self, wave_traj):
        # empirical check of the one-step bound with the working constant
        zeta = 0.055
        for base in (8000, 9000):
            state = node_state(wave_traj, base)
            d = rhs(state, PARAMS, 0.0)
            f_norm = math.sqrt(d[0] ** 2 + d[1] ** 2 + d[2] ** 2)
            for alpha in (1, 5, 20, 50, 100, 150, 200):
                h = alpha * 0.01
                pred = euler_step(state, PARAMS, 0.0, h)
                truth = node_state(wave_traj, base + alpha)
                gap = math.sqrt((pred.s - truth.s) ** 2 + (pred.i - truth.i) ** 2
                                + (pred.r - truth.r) ** 2)
                assert gap <= discretization_error_bound(h, zeta, f_norm)


def _jacobian(beta, gamma, u, s, i) -> np.ndarray:
    """The Jacobian of (dS, dI, dR) in (S, I, R) under the rate u."""
    g = gamma + u
    return np.array([[-beta * i, -beta * s, 0.0], [beta * i, beta * s - g, 0.0],
                     [0.0, g, 0.0]])


def _jacobian_box_bound(beta, gamma, u, s, i, r) -> float:
    """An upper bound on ||J||_2 over the box [s - r, s + r] x [i - r, i + r].

    J does not depend on R, so the box holds the r-ball around (s, i, R).
    With M the entrywise maxima of |J| over the box, ||J||_2 <= || |J| ||_2
    <= ||M||_2 <= ||M||_F. Each entry is affine in one coordinate, so its
    largest magnitude lies at an end of that interval.
    """
    g = gamma + u
    beta_i, beta_s = beta * (abs(i) + r), beta * (abs(s) + r)
    net = max(abs(beta * (s - r) - g), abs(beta * (s + r) - g))
    return math.sqrt(2.0 * beta_i * beta_i + beta_s * beta_s + net * net + g * g)


# every scenario that runs the estimator: the presets with an estimation block
# and the 100 dB half of bound-sweep
ESTIMATION_CONFIGS = [cfg for cfg in map(preset, sorted(PRESETS)) if cfg.estimation] + [
    bound_sweep_noisy_config()]


def _base_balls(cfg):
    """Each base time of the sweep and (beta, gamma, u, S, I, r) of the ball around its sample."""
    est, traj = cfg.estimation, integrate(cfg.params, 0.0, cfg.init, cfg.integrator)
    for time in (est.i, est.j):
        k = traj.index_at(time)
        yield time, (cfg.params.beta, cfg.params.gamma, float(traj.u[k]), float(traj.s[k]),
                     float(traj.i[k]), est.r)


class TestPresetLipschitz:
    """The error bound takes estimation.zeta as a Lipschitz constant of the
    dynamics over the r-balls around the two base samples."""

    @pytest.mark.xfail(raises=AssertionError, strict=True, reason=(
        "the hand-set zeta = 0.055 is below the sup of ||J||_2 over the balls "
        "(bounded by 0.188 at t = 80 and 0.158 at t = 90 on the u = 0 wave)"))
    def test_zeta_bounds_the_jacobian_norm(self):
        short = {(cfg.name, time): bound for cfg in ESTIMATION_CONFIGS
                 for time, ball in _base_balls(cfg)
                 if (bound := _jacobian_box_bound(*ball)) > cfg.estimation.zeta}
        assert short == {}

    @pytest.mark.parametrize("cfg", ESTIMATION_CONFIGS, ids=lambda cfg: cfg.name)
    def test_box_bound_exceeds_the_norm_inside_each_ball(self, cfg):
        rng = np.random.default_rng(11)
        for _, (beta, gamma, u, s, i, r) in _base_balls(cfg):
            bound = _jacobian_box_bound(beta, gamma, u, s, i, r)
            # uniform points of the 3-ball; R is free, since J does not read it
            step = rng.normal(size=(500, 3))
            step *= r * rng.random((500, 1)) ** (1.0 / 3.0) / np.linalg.norm(
                step, axis=1, keepdims=True)
            norms = [np.linalg.norm(_jacobian(beta, gamma, u, s + ds, i + di), 2)
                     for ds, di, _ in step]
            assert max(norms) <= bound


class TestErrorBound:
    def _bound(self, **overrides):
        return estimation_error_bound(**{**BOUND_INPUTS, **overrides})

    def test_noise_free_reduces_to_sampling_term(self):
        bound = self._bound()
        assert bound.value == bound.term_sampling
        assert bound.term_noise_fast == 0.0 and bound.term_noise_slow == 0.0

    def test_three_term_sum(self):
        bound = self._bound(v_max=1e-4)
        assert bound.value == pytest.approx(
            bound.term_sampling + bound.term_noise_fast + bound.term_noise_slow)

    def test_noise_free_bound_increasing_in_h(self):
        bs = [self._bound(h=h).value for h in (0.01, 0.1, 1.0, 2.0)]
        assert all(a < b for a, b in zip(bs, bs[1:]))

    def test_noisy_bound_has_interior_minimum(self):
        hs = np.geomspace(0.005, 2.0, 25)
        bs = [self._bound(h=float(h), v_max=1e-4).value for h in hs]
        k = int(np.argmin(bs))
        assert 0 < k < len(bs) - 1

    def test_rejects_nonpositive_lambda_min(self):
        with pytest.raises(ValueError):
            self._bound(lambda_min=0.0)

    def test_rejects_zeta_h_at_one(self):
        with pytest.raises(ValueError):
            self._bound(h=20.0)

    def test_rejects_a_zero_step(self):
        with pytest.raises(ValueError, match=r"h = 0\.0 must be positive"):
            self._bound(h=0.0)

    def test_rejects_the_first_bad_step_of_an_array(self):
        with pytest.raises(ValueError, match="h = nan must be positive"):
            self._bound(h=np.array([0.1, math.nan, 0.0]))

    def test_rejects_an_infinite_lambda_min(self):
        with pytest.raises(ValueError, match="lambda_min must be positive"):
            self._bound(v_max=1e-4, lambda_min=math.inf)

    @pytest.mark.parametrize("bad", [math.nan, -0.5], ids=["nan", "negative"])
    @pytest.mark.parametrize("fn, valid, name", CHECKED_INPUTS,
                             ids=[f"{getattr(fn, 'func', fn).__name__}-{name}"
                                  for fn, _, name in CHECKED_INPUTS])
    def test_rejects_a_nan_or_negative_input(self, fn, valid, name, bad):
        # each message names its input
        with pytest.raises(ValueError, match=rf"^{name}\b"):
            fn(**{**valid, name: bad})

    def test_array_of_steps_matches_each_float_step_bitwise(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @hypothesis.given(steps=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=8),
                          zeta=st.floats(0.0, 0.99), f_max=st.floats(0.0, 10.0),
                          v_max=st.floats(0.0, 1.0), c=st.floats(0.0, 10.0),
                          lambda_min=st.floats(1e-12, 10.0))
        def check(steps, **inputs):
            # zeta*h <= 0.99 < 1 for every step
            stacked = estimation_error_bound(h=np.array(steps), **inputs)
            for k, h in enumerate(steps):
                one = estimation_error_bound(h=h, **inputs)
                for field in fields(ErrorBound):
                    got = np.broadcast_to(getattr(stacked, field.name), len(steps))[k]
                    assert np.float64(got).tobytes() == \
                        np.float64(getattr(one, field.name)).tobytes(), (field.name, k)

        check()

    def test_a_bad_step_is_reported_before_a_bad_lambda_min(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=50, deadline=None, derandomize=True, database=None)
        @hypothesis.given(steps=st.lists(st.floats(1e-6, 1.0), max_size=4),
                          at=st.integers(0, 4), bad=st.sampled_from([0.0, -1.0, math.nan]),
                          lambda_min=st.sampled_from([0.0, -1.0, math.nan, math.inf]))
        def check(steps, at, bad, lambda_min):
            steps.insert(min(at, len(steps)), bad)
            with pytest.raises(ValueError, match=re.escape(f"h = {bad} must be positive")):
                self._bound(h=np.array(steps), lambda_min=lambda_min)

        check()

    def test_sampling_term_is_twice_the_euler_error_over_h(self):
        bound = self._bound(h=STEPS)
        euler = discretization_error_bound(STEPS, 0.055, 0.03)
        assert bound.term_sampling.tolist() == (
            2.0 * euler / (STEPS * math.sqrt(1.4e-3))).tolist()

    def test_composite_constant_hand_value(self):
        c = composite_constant(PARAMS, 0.5, 0.4, 0.2, 0.3, 0.01, 0.05)
        expected = 2 * 0.05 + 2 * PARAMS.gamma + PARAMS.beta * (0.5 + 0.4 + 0.02 + 0.2 + 0.3)
        assert c == pytest.approx(expected, abs=1e-15)

    def test_lambda_min_matches_resolvent_norm(self):
        # lambda_min(ZZ') must equal 1 / ||Z'(ZZ')^{-1}||^2
        rng = np.random.default_rng(3)
        for _ in range(20):
            Z = rng.uniform(-1.0, 1.0, size=(2, 2))
            zzt = Z @ Z.T
            lam_min = np.linalg.eigvalsh(zzt)[0]
            if lam_min < 1e-6:
                continue
            norm = np.linalg.norm(Z.T @ np.linalg.inv(zzt), 2)
            assert lam_min == pytest.approx(1.0 / norm ** 2, rel=1e-9)


class TestParamIntervals:
    def test_degenerate_intervals_at_zero_bound(self):
        from sirctl.estimation import ParamEstimate
        est = ParamEstimate(beta_hat=0.2, gamma_hat=0.05)
        iv = param_intervals(est, 0.0)
        assert iv.beta_lo == iv.beta_hi == 0.2
        assert iv.gamma_lo == iv.gamma_hi == 0.05

    def test_hand_evaluated_intervals(self):
        from sirctl.estimation import ParamEstimate
        est = ParamEstimate(beta_hat=0.16, gamma_hat=1.0 / 30.0)
        iv = param_intervals(est, 0.01)
        assert iv.beta_lo == pytest.approx(0.15) and iv.beta_hi == pytest.approx(0.17)
        assert iv.gamma_lo == pytest.approx(0.0233333, abs=1e-6)
        assert iv.gamma_hi == pytest.approx(0.0433333, abs=1e-6)

    def test_widths_match_twice_bound(self):
        from sirctl.estimation import ParamEstimate
        iv = param_intervals(ParamEstimate(0.3, 0.1), 0.02)
        assert iv.beta_hi - iv.beta_lo == pytest.approx(0.04)
        assert iv.gamma_hi - iv.gamma_lo == pytest.approx(0.04)

    def test_rejects_negative_bound(self):
        from sirctl.estimation import ParamEstimate
        with pytest.raises(ValueError):
            param_intervals(ParamEstimate(0.3, 0.1), -0.1)
