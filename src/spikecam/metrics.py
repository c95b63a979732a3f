"""Full-reference image quality metrics on the 0..255 intensity scale."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .streams import FULL_SCALE

__all__ = ["psnr", "ssim"]

_SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5
_C1 = (0.01 * FULL_SCALE) ** 2
_C2 = (0.03 * FULL_SCALE) ** 2


def _check_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"expected 2-d images, got shapes {a.shape} and {b.shape}")
    if a.shape != b.shape:
        raise ValueError(f"image shapes differ: {a.shape} vs {b.shape}")
    return a, b


def psnr(a, b) -> float:
    """Peak signal-to-noise ratio in dB against a 255 peak; inf when equal."""
    a, b = _check_pair(a, b)
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(FULL_SCALE * FULL_SCALE / mse))


def _gaussian_taps(size: int, sigma: float) -> np.ndarray:
    r = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    taps = np.exp(-(r * r) / (2.0 * sigma * sigma))
    return taps / taps.sum()


_TAPS = _gaussian_taps(_SSIM_WINDOW, _SSIM_SIGMA)


def _local_mean(image: np.ndarray) -> np.ndarray:
    """Separable valid-mode Gaussian filtering."""
    v = sliding_window_view(image, _SSIM_WINDOW, axis=0) @ _TAPS
    return sliding_window_view(v, _SSIM_WINDOW, axis=1) @ _TAPS


def ssim(a, b) -> float:
    """Mean structural similarity with the standard 11x11 Gaussian window.

    Window statistics are computed in valid mode (no padding), so images
    must be at least 11 pixels on each side.
    """
    a, b = _check_pair(a, b)
    if min(a.shape) < _SSIM_WINDOW:
        raise ValueError(
            f"images must be at least {_SSIM_WINDOW}x{_SSIM_WINDOW} for ssim, "
            f"got {a.shape}"
        )
    mu_a = _local_mean(a)
    mu_b = _local_mean(b)
    var_a = _local_mean(a * a) - mu_a * mu_a
    var_b = _local_mean(b * b) - mu_b * mu_b
    cov = _local_mean(a * b) - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + _C1) * (2.0 * cov + _C2)
    den = (mu_a * mu_a + mu_b * mu_b + _C1) * (var_a + var_b + _C2)
    return float(np.mean(num / den))
