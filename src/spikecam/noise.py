"""Physics-based noise model for integrate-and-fire spike pixels.

Sources modeled:

* shot noise: photon arrivals, Poisson with the ideal intensity as mean
* dark current: Poisson with a per-pixel equivalent-intensity mean
* response nonuniformity: per-pixel multiplicative ratio on the discharge
* quantization: discharge times land on the tick grid, uniform(-1, 1) jitter
  in tick units
* truncation: a finite readout window cuts the spike train, so the measured
  rate is one of two neighbors of the true rate (see
  truncation_distribution)

Sampling uses the counter-based Philox generator so draws are reproducible
and child streams can be split off without correlation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import CalibrationData
from .streams import FULL_SCALE, validate_image

_U64_MAX = 2**64 - 1

# Discharge periods are floored here after jitter so a very bright pixel
# cannot produce a nonpositive discharge time.
_MIN_DISCHARGE = 1e-9


def make_rng(seed: int) -> np.random.Generator:
    """Seeded counter-based generator (Philox)."""
    if not (0 <= int(seed) <= _U64_MAX):
        raise ValueError(f"seed must fit in 64 bits, got {seed}")
    return np.random.Generator(np.random.Philox(int(seed)))


def split_rng(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """n independent child generators; deterministic given the parent state."""
    return rng.spawn(n)


@dataclass(frozen=True)
class NoiseConfig:
    """Which noise sources are active, plus the stream seed."""

    enable_shot: bool = True
    enable_dark: bool = True
    enable_nonuniformity: bool = True
    enable_quantization: bool = True
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not (0 <= int(self.rng_seed) <= _U64_MAX):
            raise ValueError(f"rng_seed must fit in 64 bits, got {self.rng_seed}")

    @classmethod
    def all(cls, seed: int = 0) -> "NoiseConfig":
        return cls(rng_seed=seed)

    @classmethod
    def none(cls, seed: int = 0) -> "NoiseConfig":
        return cls(
            enable_shot=False,
            enable_dark=False,
            enable_nonuniformity=False,
            enable_quantization=False,
            rng_seed=seed,
        )

    @property
    def any_enabled(self) -> bool:
        return (
            self.enable_shot
            or self.enable_dark
            or self.enable_nonuniformity
            or self.enable_quantization
        )


# ----------------------------------------------------------------------
# samplers


def sample_shot(mean_intensity, rng: np.random.Generator):
    """Poisson photon count with the given mean; scalar or array."""
    mean = np.asarray(mean_intensity, dtype=np.float64)
    if not np.isfinite(mean).all() or (mean < 0).any():
        raise ValueError("shot noise mean must be finite and nonnegative")
    out = rng.poisson(mean)
    return out if mean.ndim else int(out)


def sample_dark(dark_map, rng: np.random.Generator):
    """Per-pixel Poisson dark counts for one tick."""
    return sample_shot(dark_map, rng)


def sample_quantization(shape, rng: np.random.Generator):
    """Tick-grid jitter, uniform on (-1, 1)."""
    return rng.uniform(-1.0, 1.0, size=shape)


def _effective_gain(calib: CalibrationData, cfg: NoiseConfig) -> tuple[np.ndarray, np.ndarray]:
    """Flat per-pixel (gain, counts-per-spike) under the active flags.

    With nonuniformity disabled the sensor is ideal: unit gain and a
    full well of 255 counts everywhere.
    """
    if cfg.enable_nonuniformity:
        return calib.R.ravel(), calib.Q_r.ravel()
    n = calib.R.size
    return np.ones(n), np.full(n, FULL_SCALE)


# ----------------------------------------------------------------------
# truncation by a finite window


@dataclass(frozen=True)
class TruncationDistribution:
    """Measured-rate distribution for an exact period d cut by a window l.

    outcomes is a tuple of (rate, probability) pairs in descending rate
    order; zero-probability outcomes are dropped.  The expectation is the
    true rate 1/d.
    """

    period: float
    window: int
    outcomes: tuple[tuple[float, float], ...]

    def expected_rate(self) -> float:
        return sum(r * p for r, p in self.outcomes)

    def sample(self, rng: np.random.Generator, size=None) -> float | np.ndarray:
        rates = np.array([r for r, _ in self.outcomes])
        probs = np.array([p for _, p in self.outcomes])
        picked = rng.choice(rates, size=size, p=probs)
        return picked if size is not None else float(picked)


def _bracket_index(period: float | np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer k with k*period < window <= (k+1)*period, as float, and
    P(count = k+1) = (window - k*period) / period, elementwise."""
    k = np.ceil(window / period) - 1.0
    # float division can land one step off near exact multiples; repair
    # against the defining inequalities evaluated in float
    k = np.where(k * period >= window, k - 1.0, k)
    k = np.where((k + 1.0) * period < window, k + 1.0, k)
    return k, (window - k * period) / period


def truncation_distribution(period: float, window: int) -> TruncationDistribution:
    """Distribution of spikes/tick measured over a window of `window` ticks.

    A pixel discharging every `period` ticks (period need not be integer)
    shows either k or k+1 spikes in a window of length `window`, where
    k*period < window <= (k+1)*period.  Uniform window placement gives

        P(count = k+1) = (window - k*period) / period
        P(count = k)   = ((k+1)*period - window) / period

    and the measured rate is count/window.  The expectation telescopes to
    exactly 1/period.
    """
    if not (period > 0 and np.isfinite(period)):
        raise ValueError(f"period must be positive and finite, got {period}")
    if not (isinstance(window, (int, np.integer)) and window > 0):
        raise ValueError(f"window must be a positive integer, got {window!r}")
    k, p_hi = _bracket_index(period, window)
    k = int(k)
    p_lo = ((k + 1) * period - window) / period
    outcomes: list[tuple[float, float]] = [((k + 1) / window, float(p_hi))]
    if p_lo > 0.0:
        outcomes.append((k / window, p_lo))
    return TruncationDistribution(period=float(period), window=int(window), outcomes=tuple(outcomes))


# ----------------------------------------------------------------------
# one-shot combined model


def apply_imaging_model(
    intensity: np.ndarray,
    calibration: CalibrationData,
    config: NoiseConfig,
    window: int,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Single noisy window-rate observation of an ideal intensity image.

    Drawn in closed form: one Poisson count of signal plus dark and one
    quantization jitter per pixel set a period Q_r / (signal + dark) +
    jitter for the whole window, and the rate is drawn from its truncation
    distribution.  So it matches the simulator's mean rate over `window`
    ticks but not its spread (std 7.13 against 0.61 at 64x64, L = 51, window
    256, shot noise only).  With every noise flag off it returns the input
    exactly (the expected rate is 1/period regardless of window).

    Returns digital intensities (255 * rate), capped at one spike per tick.
    """
    img = validate_image(intensity, "intensity")
    calibration.require_shape(img.shape)
    if not (isinstance(window, (int, np.integer)) and window > 0):
        raise ValueError(f"window must be a positive integer, got {window!r}")
    if rng is None:
        rng = make_rng(config.rng_seed)

    signal = rng.poisson(img).astype(np.float64) if config.enable_shot else img
    if config.enable_dark:
        dark = rng.poisson(calibration.L_d).astype(np.float64)
    elif config.enable_nonuniformity:
        dark = calibration.L_d
    else:
        dark = 0.0
    total = signal + dark

    if not config.any_enabled:
        return total.copy()

    _, q_r = _effective_gain(calibration, config)
    alive = total > 0
    total_safe = np.where(alive, total, 1.0)
    period = q_r.reshape(img.shape) / total_safe
    if config.enable_quantization:
        period = period + rng.uniform(-1.0, 1.0, size=img.shape)
        np.maximum(period, _MIN_DISCHARGE, out=period)

    k, p_hi = _bracket_index(period, window)
    pick_hi = rng.random(img.shape) < p_hi
    rate = np.where(pick_hi, (k + 1.0) / window, k / window)
    rate = np.where(alive, rate, 0.0)
    np.clip(rate, 0.0, 1.0, out=rate)
    return FULL_SCALE * rate
