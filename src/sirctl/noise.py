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
# the noise levels whose arithmetic stays finite with room to spare: a std
# within 1e+-50 of the signal's rms, or at most 1e50 on a fraction near 1
SNR_DB_LIMIT = 1000.0
MIN_DIVISOR = 1e-100


@dataclass(frozen=True)
class NoiseConfig:
    """Measurement-noise settings; kind is "none", "snr_db" or "scaled_variance"."""

    kind: str = "none"
    snr_db: Optional[float] = None
    divisor: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ("none", "snr_db", "scaled_variance"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind == "snr_db" and not (
                self.snr_db is not None and abs(self.snr_db) <= SNR_DB_LIMIT):  # NaN fails too
            raise ValueError(f"snr_db mode requires |snr_db| <= {SNR_DB_LIMIT:g} dB")
        if self.kind == "scaled_variance" and not (
                self.divisor is not None and MIN_DIVISOR <= self.divisor < math.inf):
            raise ValueError(f"scaled_variance mode requires a finite divisor >= {MIN_DIVISOR:g}")


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
        self.sigmas = (sigma_s, sigma_i)  # per draw column: S, I
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
        themselves. S and I are one formula on their own draw column, and
        ``offset_reader`` is that formula for one node of one series.
        """
        if self.kind == "none":
            zero = np.broadcast_to(0.0, np.shape(s_true))
            return np.asarray(s_true, dtype=float), np.asarray(i_true, dtype=float), zero, zero
        (s_hat, d_s), (i_hat, d_i) = (self._series(col, k, x, std)
                                      for col, x in ((0, s_true), (1, i_true)))
        return s_hat, i_hat, d_s, d_i

    def _series(self, col: int, k: Union[slice, np.ndarray], x: np.ndarray,
                std: bool) -> tuple[np.ndarray, np.ndarray]:
        """``measure`` of one series: its measured values and std or delta."""
        div = self.config.divisor
        if self.kind == "snr_db":
            sd = np.broadcast_to(self.sigmas[col], np.shape(x))
        else:
            sd = np.sqrt(_nonneg(x) / div)
        x_hat = x + self.z[k, col] * sd
        if std:
            return x_hat, sd
        if self.kind == "scaled_variance":
            # amplitude bounds from the measured value: exact containment
            # would need the true state, which the controller does not have
            sd = np.sqrt(_nonneg(x_hat) / div)
        return x_hat, TRUNCATION_SIGMAS * sd

    def offset_reader(self, col: int, margin: bool) -> Callable[[int, float], float]:
        """The closed loop's read of one series at one node: ``(k, x) -> offset``.

        ``col`` is the series' column of the draws, 0 for S and 1 for I.
        The offset is ``x_hat - x`` of ``measure`` at epoch k, plus delta
        when ``margin`` is set (the robust policy's envelope). The reader is
        built once per run and series, bound to the noise kind and
        ``margin``, and evaluates ``measure``'s expressions on floats:
        ``math.sqrt`` for ``np.sqrt`` and inline comparisons for
        ``_nonneg``, so it agrees with the array form bitwise. Kind "none"
        has no reader: a noise-free loop reads nothing.
        """
        if self.kind == "none":
            raise ValueError("noise kind 'none' has no offsets to read")
        z = memoryview(self.z[:, col])  # indexes to a float
        three = TRUNCATION_SIGMAS
        if self.kind == "snr_db":
            sd = self.sigmas[col]
            if not margin:
                return lambda k, x: x + z[k] * sd - x
            d = three * sd
            return lambda k, x: x + z[k] * sd - x + d
        div = self.config.divisor
        sqrt = math.sqrt
        if not margin:
            return lambda k, x: x + z[k] * sqrt((0.0 if x < 0.0 else x) / div) - x

        def read(k: int, x: float) -> float:
            x_hat = x + z[k] * sqrt((0.0 if x < 0.0 else x) / div)
            return x_hat - x + three * sqrt((0.0 if x_hat < 0.0 else x_hat) / div)
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
    ``offset_reader`` reads at a node. The series holds the trajectory's
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
