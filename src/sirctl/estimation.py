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
    indices: tuple[float, float]  # the two base times (i, j)

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
class BoundInputs:
    """Everything the error bound consumes.

    zeta must be a valid Lipschitz constant of the dynamics over balls of
    radius r around the two sample states, f_max an upper bound on the
    dynamics norm there, and v_max an amplitude bound on all eight
    measurement errors entering the batch. h may be an array of steps, and
    each check reports the first offending one.
    """

    h: Value
    zeta: float
    f_max: float
    v_max: float
    u_max_local: float
    x_max: float
    r: float
    c: float
    lambda_min: float

    def __post_init__(self) -> None:
        for name in ("h", "zeta", "f_max", "v_max", "u_max_local", "x_max", "r", "c"):
            if np.any(getattr(self, name) < 0.0):
                raise ValueError(f"{name} must be non-negative")
        zeta_h = self.zeta * self.h
        k = _first(zeta_h >= 1.0)
        if k is not None:
            raise ValueError(
                f"zeta*h = {_at(zeta_h, k)} >= 1: outside the validity "
                "threshold of the discretization error bound"
            )
        if self.lambda_min <= 0.0:
            raise ValueError("lambda_min must be positive")


@dataclass(frozen=True)
class ParamIntervals:
    """Intervals [estimate - b, estimate + b] for both parameters."""

    half_width: float
    beta_lo: float
    beta_hi: float
    gamma_lo: float
    gamma_hi: float

    @property
    def beta_max(self) -> float:
        """Upper parameter bound fed to the robust policy."""
        return self.beta_hi

    @property
    def gamma_min(self) -> float:
        """Lower parameter bound fed to the robust policy."""
        return self.gamma_lo


def build_regressor_batch(sample_i: MeasuredSample, sample_i_plus_h: MeasuredSample,
                          sample_j: MeasuredSample, sample_j_plus_h: MeasuredSample,
                          h: Value) -> RegressionBatch:
    """Assemble L and Z from two measured sample pairs a step h apart.

    h may be an array of n steps, with the two ahead samples stacked to
    match: row k of L is then the batch at step h[k]. A single step is the
    case n = 1. Each check reports the first offending step.
    """
    if not np.all(h > 0.0):
        raise ValueError("h must be positive")
    pairs = ((sample_i, sample_i_plus_h), (sample_j, sample_j_plus_h))
    late = [np.abs(ahead.t - (base.t + h)) > 1e-9 * max(1.0, abs(base.t))
            for base, ahead in pairs]
    k = _first(late[0] | late[1])
    if k is not None:
        base, ahead = pairs[0] if _at(late[0], k) else pairs[1]
        raise ValueError(
            f"sample at t={_at(ahead.t, k)} is not h={_at(h, k)} ahead of base t={base.t}"
        )
    if abs(sample_i.t - sample_j.t) < 1e-12:
        raise ValueError("the two base times must differ")

    def l_of(base: MeasuredSample, ahead: MeasuredSample) -> Value:
        return ahead.i_hat - base.i_hat + h * base.u * base.i_hat

    def z_of(base: MeasuredSample) -> tuple[float, float]:
        return base.s_hat * base.i_hat, -base.i_hat

    zi, zj = z_of(sample_i), z_of(sample_j)
    L = np.stack([l_of(sample_i, sample_i_plus_h), l_of(sample_j, sample_j_plus_h)],
                 axis=-1).reshape(-1, 2)
    Z = np.array([[zi[0], zj[0]], [zi[1], zj[1]]])
    return RegressionBatch(L=L, Z=Z, h=h, indices=(sample_i.t, sample_j.t))


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
    if x_max < 0.0 or r < 0.0 or u_max_local < 0.0:
        raise ValueError("x_max, r, u_max_local must be non-negative")
    return 4.0 * params_guess.beta * (x_max + r) + 2.0 * u_max_local + 2.0 * params_guess.gamma


def discretization_error_bound(h: float, zeta: float, f_norm: float) -> float:
    """One-step Euler error bound h^2 * zeta * ||f|| / (1 - zeta*h).

    Valid for zeta*h < 1 (zero-order-hold input, locally Lipschitz dynamics);
    rejects steps outside that threshold.
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    if zeta < 0.0 or f_norm < 0.0:
        raise ValueError("zeta and f_norm must be non-negative")
    if zeta * h >= 1.0:
        raise ValueError(f"zeta*h = {zeta * h} >= 1: bound not valid at this step")
    return h * h * zeta * f_norm / (1.0 - zeta * h)


def composite_constant(params_guess: EpidemicParams, s_hat_i: float, s_hat_j: float,
                       i_hat_i: float, i_hat_j: float, v_max: float,
                       u_max_local: float) -> float:
    """The measurement-error multiplier c entering the slow noise term."""
    return (2.0 * u_max_local + 2.0 * params_guess.gamma
            + params_guess.beta * (s_hat_i + s_hat_j + 2.0 * v_max + i_hat_i + i_hat_j))


def estimation_error_bound(inputs: BoundInputs) -> ErrorBound:
    """Three-term estimation error bound; ||Theta_hat - Theta|| <= b.

    b = 2*h*zeta*f_max / (sqrt(lam_min)*(1 - zeta*h))
      + 4*v_max / (h*sqrt(lam_min))
      + v_max*c / sqrt(lam_min)

    Elementwise in h: an array of steps gives one bound per step.
    """
    sq = math.sqrt(inputs.lambda_min)
    term1 = 2.0 * inputs.h * inputs.zeta * inputs.f_max / (sq * (1.0 - inputs.zeta * inputs.h))
    term2 = 4.0 * inputs.v_max / (inputs.h * sq)
    term3 = inputs.v_max * inputs.c / sq
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
