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
from typing import Callable, Optional, Union

import numpy as np

from .core import Trajectory, read_only

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


def _nonneg(x: np.ndarray) -> np.ndarray:
    """``max(x, 0.0)`` elementwise as a comparison: same value, signed zeros and NaN included."""
    return np.where(x < 0.0, 0.0, x)


class MeasurementNoise:
    """Deterministic per-epoch noise source with known amplitude bounds."""

    def __init__(self, config: NoiseConfig, z: Optional[np.ndarray],
                 sigma_s: float, sigma_i: float):
        self.config = config
        self.z = z
        self.sigma_s = sigma_s
        self.sigma_i = sigma_i
        self.kind = config.kind

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

    def measure(self, k: Union[slice, np.ndarray], s_true: np.ndarray,
                i_true: np.ndarray, std: bool = False) -> tuple[np.ndarray, ...]:
        """Measured (s, i) at epochs k plus the amplitude bounds (delta_s, delta_i).

        Elementwise: ``k`` is an index array or slice of epochs with
        equal-length state arrays, and every output is an array of that
        length. The noise std is sigma for snr_db and sqrt(max(x, 0)/divisor)
        for scaled_variance; ``std=True`` returns it in place of delta =
        3*std. Outputs are not copied where they hold one value or the
        input: the std of snr_db and the zero deltas of kind "none" are
        read-only broadcasts, and kind "none" returns the state arrays
        themselves. ``offset_reader`` is the same formula for one node.
        """
        kind = self.kind
        if kind == "none":
            zero = np.broadcast_to(0.0, np.shape(s_true))
            return np.asarray(s_true, dtype=float), np.asarray(i_true, dtype=float), zero, zero
        zs, zi = self.z[k, 0], self.z[k, 1]
        div = self.config.divisor
        if kind == "snr_db":
            sd_s = np.broadcast_to(self.sigma_s, np.shape(s_true))
            sd_i = np.broadcast_to(self.sigma_i, np.shape(i_true))
        else:
            sd_s = np.sqrt(_nonneg(s_true) / div)
            sd_i = np.sqrt(_nonneg(i_true) / div)
        s_hat = s_true + zs * sd_s
        i_hat = i_true + zi * sd_i
        if std:
            return s_hat, i_hat, sd_s, sd_i
        if kind == "scaled_variance":
            # amplitude bounds from the measured value: exact containment
            # would need the true state, which the controller does not have
            sd_s = np.sqrt(_nonneg(s_hat) / div)
            sd_i = np.sqrt(_nonneg(i_hat) / div)
        return s_hat, i_hat, TRUNCATION_SIGMAS * sd_s, TRUNCATION_SIGMAS * sd_i

    def offset_reader(self, margin: bool) -> Callable[[int, float, float], tuple[float, float]]:
        """The closed loop's read of one node: ``(k, s, i) -> (o_s, o_i)``.

        The offsets are ``s_hat - s`` and ``i_hat - i`` of ``measure`` at
        epoch k, plus delta when ``margin`` is set (the robust policy's
        envelope). The reader is built once per run, bound to the noise kind
        and ``margin``, and evaluates ``measure``'s expressions on floats:
        ``math.sqrt`` for ``np.sqrt`` and inline comparisons for ``_nonneg``,
        so it agrees with the array form bitwise. Kind "none" has no reader:
        a noise-free loop reads nothing.
        """
        kind = self.kind
        if kind == "none":
            raise ValueError("noise kind 'none' has no offsets to read")
        # each draw column as a memoryview, which indexes to a float
        zs, zi = memoryview(self.z[:, 0]), memoryview(self.z[:, 1])
        three = TRUNCATION_SIGMAS
        if kind == "snr_db":
            sd_s, sd_i = self.sigma_s, self.sigma_i
            if not margin:
                return lambda k, s, i: (s + zs[k] * sd_s - s, i + zi[k] * sd_i - i)
            d_s, d_i = three * sd_s, three * sd_i
            return lambda k, s, i: (s + zs[k] * sd_s - s + d_s, i + zi[k] * sd_i - i + d_i)
        div = self.config.divisor
        sqrt = math.sqrt

        def read(k: int, s: float, i: float) -> tuple[float, float]:
            s_hat = s + zs[k] * sqrt((0.0 if s < 0.0 else s) / div)
            i_hat = i + zi[k] * sqrt((0.0 if i < 0.0 else i) / div)
            if not margin:
                return s_hat - s, i_hat - i
            return (s_hat - s + three * sqrt((0.0 if s_hat < 0.0 else s_hat) / div),
                    i_hat - i + three * sqrt((0.0 if i_hat < 0.0 else i_hat) / div))
        return read


@dataclass(frozen=True)
class MeasuredSeries:
    """Noisy samples of a trajectory on its grid, with noise metadata.

    ``t`` and ``u`` are the sampled trajectory's own arrays (views, not
    copies); ``s_hat`` and ``i_hat`` are arrays of their own, or the
    trajectory's ``s`` and ``i`` when the noise kind is "none". The sigma
    columns are the per-sample noise std (zero when noise-free, a read-only
    broadcast of one value for snr_db). Every array is read-only.
    """

    t: np.ndarray
    s_hat: np.ndarray
    i_hat: np.ndarray
    u: np.ndarray
    sigma_s: np.ndarray
    sigma_i: np.ndarray

    def __post_init__(self) -> None:
        read_only(self.t, self.s_hat, self.i_hat, self.u, self.sigma_s, self.sigma_i)

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

    One array call of ``noise.measure`` over every grid node, so
    ``s_hat - s`` and ``i_hat - i`` are bitwise the offsets the loop's
    ``offset_reader`` read at each node. The series holds the trajectory's
    ``t`` and ``u`` by reference, and the noise std of each sample as the
    sigma columns, which the estimator's amplitude bound reads.
    """
    s_hat, i_hat, sigma_s, sigma_i = noise.measure(slice(0, len(traj)), traj.s, traj.i,
                                                   std=True)
    return MeasuredSeries(t=traj.t, s_hat=s_hat, i_hat=i_hat, u=traj.u,
                          sigma_s=sigma_s, sigma_i=sigma_i)


def inject_noise(traj: Trajectory, config: NoiseConfig, seed: int) -> MeasuredSeries:
    """Sample a trajectory at every grid node under a noise model; the
    trajectory itself is the reference for SNR-mode signal power."""
    return measured_series_for(
        MeasurementNoise.build(config, len(traj), seed, reference=traj), traj)
