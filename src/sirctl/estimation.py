"""Least-squares estimation of (beta, gamma) from two sampled state pairs.

The infected-state difference equation is linear in the parameters: with
l(t) = I^(t+h) - I^(t) + h*u(t)*I^(t) and regressor z(t) = [S^(t)*I^(t),
-I^(t)]', two base times i != j give the 1x2 / 2x2 batch L = Theta*Z*h + E +
W, where E collects discretization errors and W the aggregated measurement
errors. The estimator is the unregularized least-squares solution

    Theta_hat = L Z' (Z Z')^{-1} / h,

and the error-bound machinery turns a Lipschitz constant, a dynamics norm,
and a measurement-error amplitude into a half-width b with
|beta_hat - beta| <= b and |gamma_hat - gamma| <= b.

Z depends only on the two base samples, not on h. A sweep over n steps
therefore stacks its batches: L is n x 2, Z Z' is formed and tested once,
and the estimates and bounds are arrays with one entry per step. A single
step is the case n = 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .core import EpidemicParams

_SINGULAR_RTOL = 1e-12

Value = Union[float, np.ndarray]  # a float, or one entry per step of a stack


class SingularRegressorsError(ValueError):
    """Z Z' is numerically singular; the two samples carry no information."""


def _first(flags) -> Optional[int]:
    """Index of the first set flag in a flag array (or a single flag), or None."""
    hits = np.flatnonzero(flags)
    return int(hits[0]) if hits.size else None


def _at(value: Value, k: int) -> Value:
    """Entry k of a stacked value; a single value is the same at every k."""
    return np.ravel(value)[k] if np.ndim(value) else value


def _require_steps(h: Value) -> None:
    """Reject the first step of h that is not positive (NaN too), naming it."""
    k = _first(np.logical_not(h > 0.0))
    if k is not None:
        raise ValueError(f"h = {_at(h, k)} must be positive")


def _require_non_negative(**inputs: float) -> None:
    """Reject the first of ``inputs`` that is negative or NaN, naming it."""
    for name, x in inputs.items():
        if not x >= 0.0:
            raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class MeasuredSample:
    """A noisy (S, I) measurement at time t with the applied rate u.

    The fields may also be equal-length arrays: a stack of samples, one per
    step of a sweep. Each range check reports the first offending entry.
    """

    t: Value
    s_hat: Value
    i_hat: Value
    u: Value

    def __post_init__(self) -> None:
        s, i, u = self.s_hat, self.i_hat, self.u
        k = _first(np.logical_not((-0.1 <= s) & (s <= 1.1) & (-0.1 <= i) & (i <= 1.1)))
        if k is not None:
            raise ValueError(
                f"measured fractions ({_at(s, k)}, {_at(i, k)}) too far outside [0, 1]"
            )
        k = _first(np.logical_not((0.0 <= u) & (u <= 1.0)))
        if k is not None:
            raise ValueError(f"u={_at(u, k)} outside [0, 1]")


@dataclass(frozen=True)
class RegressionBatch:
    """Batch matrices L (n x 2) and Z (2x2) built from two sample pairs.

    Row k of L is the 1x2 batch at step h[k] (n = 1 for a single step h);
    all rows share Z.
    """

    L: np.ndarray
    Z: np.ndarray
    h: Value

    def zzt(self) -> np.ndarray:
        return self.Z @ self.Z.T

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of Z Z' in ascending order."""
        return np.linalg.eigvalsh(self.zzt())

    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])


@dataclass(frozen=True)
class ParamEstimate:
    """The least-squares row Theta_hat = [beta_hat, gamma_hat].

    For a stacked batch both fields are arrays, one entry per step.
    Negative entries are possible under noise; they are kept, not clamped,
    so error-decomposition identities stay exact.
    """

    beta_hat: Value
    gamma_hat: Value

    def as_row(self) -> np.ndarray:
        """[beta_hat, gamma_hat], or one such row per step for a stack."""
        return np.stack([self.beta_hat, self.gamma_hat], axis=-1)


@dataclass(frozen=True)
class ErrorBound:
    """Estimation-error bound with its three reportable terms.

    term_sampling grows with the step h (discretization), term_noise_fast
    decays like 1/h (differencing amplifies noise), term_noise_slow is the
    h-independent noise contribution. Each is an array, one entry per step,
    when h is.
    """

    value: Value
    term_sampling: Value
    term_noise_fast: Value
    term_noise_slow: Value


@dataclass(frozen=True)
class ParamIntervals:
    """Intervals [estimate - b, estimate + b] for both parameters."""

    half_width: float
    beta_lo: float
    beta_hi: float
    gamma_lo: float
    gamma_hi: float


def build_regressor_batch(sample_i: MeasuredSample, sample_i_plus_h: MeasuredSample,
                          sample_j: MeasuredSample, sample_j_plus_h: MeasuredSample,
                          h: Value) -> RegressionBatch:
    """Assemble L and Z from two measured sample pairs a step h apart.

    h may be an array of n steps, with the two ahead samples stacked to
    match: row k of L is then the batch at step h[k]. A single step is the
    case n = 1. Each check reports the first offending step.
    """
    _require_steps(h)
    pairs = ((sample_i, sample_i_plus_h), (sample_j, sample_j_plus_h))
    late = [np.logical_not(np.abs(ahead.t - (base.t + h)) <= 1e-9 * max(1.0, abs(base.t)))
            for base, ahead in pairs]
    k = _first(late[0] | late[1])
    if k is not None:
        base, ahead = pairs[0] if _at(late[0], k) else pairs[1]
        raise ValueError(
            f"sample at t={_at(ahead.t, k)} is not h={_at(h, k)} ahead of base t={base.t}"
        )
    if not abs(sample_i.t - sample_j.t) >= 1e-12:
        raise ValueError("the two base times must differ")

    def l_of(base: MeasuredSample, ahead: MeasuredSample) -> Value:
        return ahead.i_hat - base.i_hat + h * base.u * base.i_hat

    def z_of(base: MeasuredSample) -> tuple[float, float]:
        return base.s_hat * base.i_hat, -base.i_hat

    zi, zj = z_of(sample_i), z_of(sample_j)
    L = np.stack([l_of(sample_i, sample_i_plus_h), l_of(sample_j, sample_j_plus_h)],
                 axis=-1).reshape(-1, 2)
    Z = np.array([[zi[0], zj[0]], [zi[1], zj[1]]])
    return RegressionBatch(L=L, Z=Z, h=h)


def estimate_params(batch: RegressionBatch) -> ParamEstimate:
    """Closed-form least squares Theta_hat = L Z' (Z Z')^{-1} / h, per row of L.

    Raises SingularRegressorsError when the smallest eigenvalue of Z Z' is
    below 1e-12 of the largest (e.g. both infected measurements are zero).
    Z Z' is shared by the rows, so one test covers every step. The rows are
    solved by one stacked ``np.linalg.solve``, one right-hand side each, so
    every row gets the same bits as a batch of its own. A single step gives
    float estimates, a stack of steps arrays.
    """
    lam = batch.eigenvalues
    if lam[0] <= _SINGULAR_RTOL * max(lam[1], 1e-300):
        raise SingularRegressorsError(
            f"regressor Gram matrix is singular (eigenvalues {lam[0]:.3e}, {lam[1]:.3e})"
        )
    rhs = (batch.L[:, None, :] @ batch.Z.T).transpose(0, 2, 1)  # row k: (L_k Z')'
    theta = np.linalg.solve(batch.zzt(), rhs)[..., 0] / np.reshape(batch.h, (-1, 1))
    if np.ndim(batch.h) == 0:
        return ParamEstimate(beta_hat=float(theta[0, 0]), gamma_hat=float(theta[0, 1]))
    return ParamEstimate(beta_hat=theta[:, 0], gamma_hat=theta[:, 1])


def lipschitz_constant(params_guess: EpidemicParams, x_max: float, r: float,
                       u_max_local: float) -> float:
    """Jacobian-norm bound 4*beta*(x_max + r) + 2*u_max + 2*gamma."""
    _require_non_negative(x_max=x_max, r=r, u_max_local=u_max_local)
    return 4.0 * params_guess.beta * (x_max + r) + 2.0 * u_max_local + 2.0 * params_guess.gamma


def discretization_error_bound(h: Value, zeta: float, f_max: float) -> Value:
    """One-step Euler error bound h^2 * zeta * f_max / (1 - zeta*h).

    f_max is an upper bound on ||f||. Valid for zeta*h < 1 (zero-order-hold
    input, locally Lipschitz dynamics). Rejects h <= 0 or NaN, a negative or
    NaN zeta or f_max, and steps outside that threshold, naming the first
    bad step or input. Elementwise in h: an array of steps gives one bound
    per step.
    """
    _require_steps(h)
    _require_non_negative(zeta=zeta, f_max=f_max)
    zeta_h = zeta * h
    k = _first(zeta_h >= 1.0)
    if k is not None:
        raise ValueError(f"zeta*h = {_at(zeta_h, k)} >= 1: outside the validity threshold "
                         "of the discretization error bound")
    return h * h * zeta * f_max / (1.0 - zeta_h)


def composite_constant(params_guess: EpidemicParams, s_hat_i: float, s_hat_j: float,
                       i_hat_i: float, i_hat_j: float, v_max: float,
                       u_max_local: float) -> float:
    """The measurement-error multiplier c entering the slow noise term."""
    return (2.0 * u_max_local + 2.0 * params_guess.gamma
            + params_guess.beta * (s_hat_i + s_hat_j + 2.0 * v_max + i_hat_i + i_hat_j))


def estimation_error_bound(*, h: Value, zeta: float, f_max: float, v_max: float,
                           c: float, lambda_min: float) -> ErrorBound:
    """Three-term estimation error bound; ||Theta_hat - Theta|| <= b.

    b = 2*e(h) / (h*sqrt(lam_min))
      + 4*v_max / (h*sqrt(lam_min))
      + v_max*c / sqrt(lam_min)

    with e(h) = ``discretization_error_bound(h, zeta, f_max)``. zeta must be
    a valid Lipschitz constant of the dynamics, and f_max an upper bound on
    the dynamics norm, over balls around the two sample states; v_max is an
    amplitude bound on all eight measurement errors entering the batch, and
    c the multiplier of ``composite_constant``. The first bad input in
    that order is reported. Elementwise in h: an array of steps gives one
    bound per step.
    """
    e = discretization_error_bound(h, zeta, f_max)
    _require_non_negative(v_max=v_max, c=c)
    if not 0.0 < lambda_min < math.inf:
        raise ValueError("lambda_min must be positive and finite")
    sq = math.sqrt(lambda_min)
    term1 = 2.0 * e / (h * sq)
    term2 = 4.0 * v_max / (h * sq)
    term3 = v_max * c / sq
    return ErrorBound(value=term1 + term2 + term3, term_sampling=term1,
                      term_noise_fast=term2, term_noise_slow=term3)


def param_intervals(est: ParamEstimate, b: float) -> ParamIntervals:
    """Center intervals of half-width b on the point estimates."""
    if b < 0.0:
        raise ValueError("b must be non-negative")
    return ParamIntervals(half_width=b, beta_lo=est.beta_hat - b,
                          beta_hi=est.beta_hat + b,
                          gamma_lo=est.gamma_hat - b, gamma_hi=est.gamma_hat + b)


def measurement_error_term(params: EpidemicParams, s_hat: float, i_hat: float,
                           u: float, h: float, v_s: float, v_i: float,
                           v_i_plus_h: float) -> float:
    """Exact aggregated measurement error w(t) for one regression row.

    Substituting S = S^ - v_S, I = I^ - v_I into l(t) = Theta z(t) h + e_I(t)
    + w(t) gives

        w(t) = v_I(t+h) - v_I(t) + h*u*v_I(t)
             + h*[beta, gamma] . [-S^ v_I - v_S I^ + v_S v_I,  v_I].

    (The sign of the second-order v_S*v_I term follows from the expansion;
    its magnitude is bounded by v_max^2 either way, so the error bound is
    unaffected.)
    """
    bracket_top = -s_hat * v_i - v_s * i_hat + v_s * v_i
    return (v_i_plus_h - v_i + h * u * v_i
            + h * (params.beta * bracket_top + params.gamma * v_i))
