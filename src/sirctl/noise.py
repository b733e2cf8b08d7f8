"""Measurement-noise models and noisy sampling of trajectories.

Two noise modes beyond "none":

* ``snr_db`` — zero-mean Gaussian per series, with the per-series power set
  so that 10*log10(signal power / noise power) equals the configured value.
  Signal power is the mean square of the noise-free series over the full
  horizon.
* ``scaled_variance`` — per-step variance state/divisor, so the noise shrinks
  with the state.

All draws are truncated at 3 sigma (by clipping), which is what makes finite
amplitude bounds delta = 3*sigma available to the envelope construction.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import Trajectory, read_only

TRUNCATION_SIGMAS = 3.0

Value = Union[float, np.ndarray]  # a scalar, or an array of per-node values


@dataclass(frozen=True)
class NoiseConfig:
    """Measurement-noise settings; kind is "none", "snr_db" or "scaled_variance"."""

    kind: str = "none"
    snr_db: Optional[float] = None
    divisor: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ("none", "snr_db", "scaled_variance"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind == "snr_db" and (self.snr_db is None or not math.isfinite(self.snr_db)):
            raise ValueError("snr_db mode requires a finite snr_db value")
        if self.kind == "scaled_variance" and not (
                self.divisor is not None and self.divisor > 0.0):  # NaN fails too
            raise ValueError("scaled_variance mode requires a positive divisor")


def derive_seed(base_seed: int, label: str) -> int:
    """Stable per-scenario RNG seed from a base seed and a scenario id."""
    digest = hashlib.sha256(f"{base_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def standard_draws(n_epochs: int, seed: int) -> np.ndarray:
    """(n_epochs, 2) standard-normal draws clipped at +/-3, per (S, I) series."""
    rng = np.random.default_rng(seed)
    return np.clip(rng.standard_normal((n_epochs, 2)), -TRUNCATION_SIGMAS,
                   TRUNCATION_SIGMAS)


def _nonneg(x: float) -> float:
    """``max(x, 0.0)`` as a comparison: same value, signed zeros and NaN included."""
    return 0.0 if x < 0.0 else x


def _nonneg_array(x: np.ndarray) -> np.ndarray:
    """``_nonneg`` elementwise."""
    return np.where(x < 0.0, 0.0, x)


_SCALAR_OPS = (math.sqrt, _nonneg)
_ARRAY_OPS = (np.sqrt, _nonneg_array)


class MeasurementNoise:
    """Deterministic per-epoch noise source with known amplitude bounds."""

    def __init__(self, config: NoiseConfig, z: Optional[np.ndarray],
                 sigma_s: float, sigma_i: float):
        self.config = config
        self.z = z
        self.sigma_s = sigma_s
        self.sigma_i = sigma_i
        # read on every closed-loop call of ``measure``: plain attributes,
        # and each draw column as a memoryview, which indexes to a float
        self.kind = config.kind
        self.divisor = config.divisor
        if z is not None:
            self._zs, self._zi = memoryview(z[:, 0]), memoryview(z[:, 1])

    @classmethod
    def build(cls, config: NoiseConfig, n_epochs: int, seed: int,
              reference: Optional[Trajectory] = None) -> "MeasurementNoise":
        """Resolve a noise config against a reference (noise-free) trajectory."""
        if config.kind == "none":
            return cls(config, None, 0.0, 0.0)
        z = standard_draws(n_epochs, seed)
        if config.kind == "snr_db":
            if reference is None:
                raise ValueError("snr_db noise needs a reference trajectory for signal power")
            ratio = 10.0 ** (config.snr_db / 10.0)
            sigma_s = math.sqrt(float(np.mean(reference.s ** 2)) / ratio)
            sigma_i = math.sqrt(float(np.mean(reference.i ** 2)) / ratio)
            return cls(config, z, sigma_s, sigma_i)
        return cls(config, z, 0.0, 0.0)  # scaled_variance: sigmas are per-state

    def measure(self, k: Union[int, slice, np.ndarray], s_true: Value, i_true: Value,
                std: bool = False) -> tuple[Value, Value, Value, Value]:
        """Measured (s, i) at epoch k plus the amplitude bounds (delta_s, delta_i).

        Elementwise. ``k`` is either an int with float states (the closed
        loop reads one grid node per call) or an index array or slice of
        epochs with equal-length state arrays, and then every output is an
        array of that length. Both forms evaluate the same expressions, with
        ``math`` or numpy primitives, so they agree bitwise. The noise std is
        sigma for snr_db and sqrt(max(x, 0)/divisor) for scaled_variance;
        ``std=True`` returns it in place of delta = 3*std. Array outputs are
        not copied where they hold one value or the input: the std of snr_db
        and the zero deltas of kind "none" are read-only broadcasts, and kind
        "none" returns the state arrays themselves.
        """
        kind = self.kind
        scalar = isinstance(k, int)
        if kind == "none":
            if scalar:
                return s_true, i_true, 0.0, 0.0
            zero = np.broadcast_to(0.0, np.shape(s_true))
            return np.asarray(s_true, dtype=float), np.asarray(i_true, dtype=float), zero, zero
        if scalar:
            zs, zi = self._zs[k], self._zi[k]
            sqrt, nonneg = _SCALAR_OPS
        else:
            zs, zi = self.z[k, 0], self.z[k, 1]
            sqrt, nonneg = _ARRAY_OPS
        div = self.divisor
        if kind == "snr_db":
            sd_s, sd_i = self.sigma_s, self.sigma_i
            if not scalar:
                sd_s = np.broadcast_to(sd_s, np.shape(s_true))
                sd_i = np.broadcast_to(sd_i, np.shape(i_true))
        else:
            sd_s = sqrt(nonneg(s_true) / div)
            sd_i = sqrt(nonneg(i_true) / div)
        s_hat = s_true + zs * sd_s
        i_hat = i_true + zi * sd_i
        if std:
            return s_hat, i_hat, sd_s, sd_i
        if kind == "scaled_variance":
            # amplitude bounds from the measured value: exact containment
            # would need the true state, which the controller does not have
            sd_s = sqrt(nonneg(s_hat) / div)
            sd_i = sqrt(nonneg(i_hat) / div)
        return s_hat, i_hat, TRUNCATION_SIGMAS * sd_s, TRUNCATION_SIGMAS * sd_i


@dataclass(frozen=True)
class MeasuredSeries:
    """Noisy samples of a trajectory on its grid, with noise metadata.

    ``t`` and ``u`` are the sampled trajectory's own arrays (views, not
    copies); ``s_hat`` and ``i_hat`` are arrays of their own, or the
    trajectory's ``s`` and ``i`` when the noise kind is "none". The sigma
    columns are the per-sample noise std (zero when noise-free, a read-only
    broadcast of one value for snr_db), or None when the series was built
    without them. Every array is read-only.
    """

    t: np.ndarray
    s_hat: np.ndarray
    i_hat: np.ndarray
    u: np.ndarray
    sigma_s: Optional[np.ndarray] = None
    sigma_i: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        read_only(self.t, self.s_hat, self.i_hat, self.u, self.sigma_s, self.sigma_i)

    def __len__(self) -> int:
        return len(self.t)

    @property
    def v_max_bound(self) -> float:
        """Truncation-based amplitude bound on every noise sample."""
        if self.sigma_s is None or self.sigma_i is None:
            raise ValueError("the amplitude bound needs the sigma columns")
        big = max(float(np.max(self.sigma_s, initial=0.0)),
                  float(np.max(self.sigma_i, initial=0.0)))
        return TRUNCATION_SIGMAS * big


def measured_series_for(noise: MeasurementNoise, traj: Trajectory,
                        sigma: bool = False) -> MeasuredSeries:
    """The per-node measurements a controller driven by this noise source saw.

    One array call of ``noise.measure`` over every grid node, so bitwise
    equal to ``noise.measure(k, s[k], i[k])`` at each node k. The series
    holds the trajectory's ``t`` and ``u`` by reference. ``sigma=True``
    keeps the noise std of each sample as the sigma columns, which the
    estimator's amplitude bound reads; a policy run's series leaves them out.
    """
    s_hat, i_hat, sigma_s, sigma_i = noise.measure(slice(0, len(traj)), traj.s, traj.i,
                                                   std=True)
    if not sigma:
        sigma_s = sigma_i = None
    return MeasuredSeries(t=traj.t, s_hat=s_hat, i_hat=i_hat, u=traj.u,
                          sigma_s=sigma_s, sigma_i=sigma_i)


def inject_noise(traj: Trajectory, config: NoiseConfig, seed: int) -> MeasuredSeries:
    """Sample a trajectory at every grid node under a noise model; the
    trajectory itself is the reference for SNR-mode signal power."""
    return measured_series_for(
        MeasurementNoise.build(config, len(traj), seed, reference=traj), traj, sigma=True)
