"""Two-sample least squares, the error decomposition, and the bound terms."""
from __future__ import annotations

import math

import numpy as np
import pytest

from sirctl.core import EpidemicParams, SirState, euler_step, rhs
from sirctl.estimation import (
    BoundInputs,
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

PARAMS = EpidemicParams(beta=0.16, gamma=1.0 / 30.0)


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
            pred = euler_step(wave_traj.sample(k), PARAMS, 0.0, h)
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

    def test_euler_error_within_bound_on_wave(self, wave_traj):
        # empirical check of the one-step bound with the working constant
        zeta = 0.055
        for base in (8000, 9000):
            state = wave_traj.sample(base)
            d = rhs(state, PARAMS, 0.0)
            f_norm = math.sqrt(d[0] ** 2 + d[1] ** 2 + d[2] ** 2)
            for alpha in (1, 5, 20, 50, 100, 150, 200):
                h = alpha * 0.01
                pred = euler_step(state, PARAMS, 0.0, h)
                truth = wave_traj.sample(base + alpha)
                gap = math.sqrt((pred.s - truth.s) ** 2 + (pred.i - truth.i) ** 2
                                + (pred.r - truth.r) ** 2)
                assert gap <= discretization_error_bound(h, zeta, f_norm)


class TestErrorBound:
    def _inputs(self, **overrides):
        base = dict(h=0.1, zeta=0.055, f_max=0.03, v_max=0.0, u_max_local=0.0,
                    x_max=1.0, r=0.1, c=0.2, lambda_min=1.4e-3)
        base.update(overrides)
        return BoundInputs(**base)

    def test_noise_free_reduces_to_sampling_term(self):
        bound = estimation_error_bound(self._inputs())
        assert bound.value == bound.term_sampling
        assert bound.term_noise_fast == 0.0 and bound.term_noise_slow == 0.0

    def test_three_term_sum(self):
        bound = estimation_error_bound(self._inputs(v_max=1e-4))
        assert bound.value == pytest.approx(
            bound.term_sampling + bound.term_noise_fast + bound.term_noise_slow)

    def test_noise_free_bound_increasing_in_h(self):
        bs = [estimation_error_bound(self._inputs(h=h)).value for h in (0.01, 0.1, 1.0, 2.0)]
        assert all(a < b for a, b in zip(bs, bs[1:]))

    def test_noisy_bound_has_interior_minimum(self):
        hs = np.geomspace(0.005, 2.0, 25)
        bs = [estimation_error_bound(self._inputs(h=float(h), v_max=1e-4)).value for h in hs]
        k = int(np.argmin(bs))
        assert 0 < k < len(bs) - 1

    def test_rejects_nonpositive_lambda_min(self):
        with pytest.raises(ValueError):
            self._inputs(lambda_min=0.0)

    def test_rejects_zeta_h_at_one(self):
        with pytest.raises(ValueError):
            self._inputs(h=20.0)

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
        assert iv.beta_max == iv.beta_hi
        assert iv.gamma_min == iv.gamma_lo

    def test_widths_match_twice_bound(self):
        from sirctl.estimation import ParamEstimate
        iv = param_intervals(ParamEstimate(0.3, 0.1), 0.02)
        assert iv.beta_hi - iv.beta_lo == pytest.approx(0.04)
        assert iv.gamma_hi - iv.gamma_lo == pytest.approx(0.04)

    def test_rejects_negative_bound(self):
        from sirctl.estimation import ParamEstimate
        with pytest.raises(ValueError):
            param_intervals(ParamEstimate(0.3, 0.1), -0.1)
