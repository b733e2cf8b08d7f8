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
from typing import Optional

import numpy as np

from .core import Trajectory

TRUNCATION_SIGMAS = 3.0


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


class MeasurementNoise:
    """Deterministic per-epoch noise source with known amplitude bounds."""

    def __init__(self, config: NoiseConfig, z: Optional[np.ndarray],
                 sigma_s: float, sigma_i: float):
        self.config = config
        self.z = z
        self.sigma_s = sigma_s
        self.sigma_i = sigma_i

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

    def measure(self, k: int, s_true: float, i_true: float
                ) -> tuple[float, float, float, float]:
        """Measured (s, i) at epoch k plus the amplitude bounds (delta_s, delta_i).

        Called once per grid node by the closed loop, so ``max(x, 0.0)`` is
        written as the comparison ``0.0 if x < 0.0 else x`` (same value,
        signed zeros and NaN included).
        """
        kind = self.config.kind
        if kind == "none":
            return s_true, i_true, 0.0, 0.0
        zs, zi = self.z[k].tolist()
        if kind == "snr_db":
            s_hat = s_true + zs * self.sigma_s
            i_hat = i_true + zi * self.sigma_i
            return (s_hat, i_hat, TRUNCATION_SIGMAS * self.sigma_s,
                    TRUNCATION_SIGMAS * self.sigma_i)
        div = self.config.divisor
        s_hat = s_true + zs * math.sqrt((0.0 if s_true < 0.0 else s_true) / div)
        i_hat = i_true + zi * math.sqrt((0.0 if i_true < 0.0 else i_true) / div)
        # amplitude bounds from the measured value: exact containment would
        # need the true state, which the controller does not have
        d_s = TRUNCATION_SIGMAS * math.sqrt((0.0 if s_hat < 0.0 else s_hat) / div)
        d_i = TRUNCATION_SIGMAS * math.sqrt((0.0 if i_hat < 0.0 else i_hat) / div)
        return s_hat, i_hat, d_s, d_i


@dataclass(frozen=True)
class MeasuredSeries:
    """Noisy samples of a trajectory on its grid, with noise metadata."""

    t: np.ndarray
    s_hat: np.ndarray
    i_hat: np.ndarray
    u: np.ndarray
    sigma_s: np.ndarray  # per-sample noise std, zero when noise-free
    sigma_i: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    @property
    def v_max_bound(self) -> float:
        """Truncation-based amplitude bound on every noise sample."""
        big = max(float(np.max(self.sigma_s, initial=0.0)),
                  float(np.max(self.sigma_i, initial=0.0)))
        return TRUNCATION_SIGMAS * big


def measured_series_for(noise: MeasurementNoise, traj: Trajectory) -> MeasuredSeries:
    """The per-node measurements a controller driven by this noise source saw.

    Bitwise equal to ``noise.measure(k, s[k], i[k])`` at every grid node k
    (same draws, same scaling). Both forms stay on purpose: the scalar
    ``measure`` is the online path, called once per grid node inside the
    closed loop while the trajectory is still being integrated; this vector
    form is the offline path over a finished trajectory.
    """
    n = len(traj)
    if noise.config.kind == "none":
        zero = np.zeros(n)
        return MeasuredSeries(t=traj.t.copy(), s_hat=traj.s.copy(),
                              i_hat=traj.i.copy(), u=traj.u.copy(),
                              sigma_s=zero, sigma_i=zero.copy())
    z = noise.z[:n]
    if noise.config.kind == "snr_db":
        sigma_s = np.full(n, noise.sigma_s)
        sigma_i = np.full(n, noise.sigma_i)
    else:
        div = noise.config.divisor
        sigma_s = np.sqrt(np.maximum(traj.s, 0.0) / div)
        sigma_i = np.sqrt(np.maximum(traj.i, 0.0) / div)
    return MeasuredSeries(t=traj.t.copy(), s_hat=traj.s + z[:, 0] * sigma_s,
                          i_hat=traj.i + z[:, 1] * sigma_i, u=traj.u.copy(),
                          sigma_s=sigma_s, sigma_i=sigma_i)


def inject_noise(traj: Trajectory, config: NoiseConfig, seed: int) -> MeasuredSeries:
    """Sample a trajectory at every grid node under a noise model; the
    trajectory itself is the reference for SNR-mode signal power."""
    return measured_series_for(
        MeasurementNoise.build(config, len(traj), seed, reference=traj), traj)
