"""Orthonormal single-step 2-d Haar transform and a 3-level pyramid.

The 2x2 analysis of a block [[a, b], [c, d]] is

    ll = (a + b + c + d) / 2      lh = (a + b - c - d) / 2
    hl = (a - b + c - d) / 2      hh = (a - b - c + d) / 2

with the matching synthesis a = (ll + lh + hl + hh) / 2 and so on.  The /2
normalization makes the transform orthonormal: energy is preserved exactly
(up to float rounding) at every level, so detail-band thresholds are
comparable across levels and Parseval checks are cheap.

The pyramid keeps the three detail bands of every level and only the deepest
approximation band; shallower approximations are implied by synthesis from
below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

PYRAMID_LEVELS = 3


class Subbands(NamedTuple):
    ll: np.ndarray
    lh: np.ndarray
    hl: np.ndarray
    hh: np.ndarray


class DetailBands(NamedTuple):
    lh: np.ndarray
    hl: np.ndarray
    hh: np.ndarray


def dwt_forward(image: np.ndarray) -> Subbands:
    """One analysis step.  Image dimensions must be even."""
    x = np.asarray(image, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-d image, got shape {x.shape}")
    h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"image dimensions must be even for a 2x2 transform, got {h}x{w}")
    a = x[0::2, 0::2]
    b = x[0::2, 1::2]
    c = x[1::2, 0::2]
    d = x[1::2, 1::2]
    ll = (a + b + c + d) * 0.5
    lh = (a + b - c - d) * 0.5
    hl = (a - b + c - d) * 0.5
    hh = (a - b - c + d) * 0.5
    return Subbands(ll, lh, hl, hh)


def dwt_inverse(bands: Subbands) -> np.ndarray:
    """One synthesis step; exact inverse of dwt_forward."""
    ll, lh, hl, hh = (np.asarray(b, dtype=np.float64) for b in bands)
    if not (ll.shape == lh.shape == hl.shape == hh.shape):
        raise ValueError("subband shapes differ")
    h, w = ll.shape
    out = np.empty((2 * h, 2 * w), dtype=np.float64)
    out[0::2, 0::2] = (ll + lh + hl + hh) * 0.5
    out[0::2, 1::2] = (ll + lh - hl - hh) * 0.5
    out[1::2, 0::2] = (ll - lh + hl - hh) * 0.5
    out[1::2, 1::2] = (ll - lh - hl + hh) * 0.5
    return out


@dataclass(frozen=True)
class WaveletPyramid:
    """3-level decomposition: detail bands per level plus the deepest ll.

    details[n] holds the (lh, hl, hh) bands of level n; level 0 is the
    finest.  Band dimensions at level n are image_shape / 2**(n+1).
    """

    details: tuple[DetailBands, ...]
    ll: np.ndarray

    def __post_init__(self) -> None:
        if len(self.details) != PYRAMID_LEVELS:
            raise ValueError(f"expected {PYRAMID_LEVELS} detail levels, got {len(self.details)}")

    @property
    def image_shape(self) -> tuple[int, int]:
        h, w = self.details[0].lh.shape
        return 2 * h, 2 * w

    def map_coeffs(self, fn: Callable[[np.ndarray], np.ndarray]) -> "WaveletPyramid":
        """Apply fn to every stored band (details and deepest ll)."""
        new_details = tuple(DetailBands(*(fn(b) for b in lvl)) for lvl in self.details)
        return WaveletPyramid(details=new_details, ll=fn(self.ll))

    def energy(self) -> float:
        total = float(np.sum(self.ll * self.ll))
        for lvl in self.details:
            for band in lvl:
                total += float(np.sum(band * band))
        return total


def check_pyramid_shape(shape: tuple[int, int]) -> None:
    """Raise ValueError unless both sides of an (h, w) shape divide by 2**PYRAMID_LEVELS."""
    h, w = shape
    div = 2**PYRAMID_LEVELS
    if h % div or w % div:
        raise ValueError(
            f"sensor dimensions must be divisible by {div} for the wavelet pyramid, got {w}x{h}"
        )


def build_pyramid(image: np.ndarray) -> WaveletPyramid:
    """Decompose an image whose dimensions are divisible by 2**PYRAMID_LEVELS."""
    x = np.asarray(image, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-d image, got shape {x.shape}")
    check_pyramid_shape(x.shape)
    details = []
    approx = x
    for _ in range(PYRAMID_LEVELS):
        ll, lh, hl, hh = dwt_forward(approx)
        details.append(DetailBands(lh, hl, hh))
        approx = ll
    return WaveletPyramid(details=tuple(details), ll=approx)


def collapse_pyramid(pyramid: WaveletPyramid) -> np.ndarray:
    """Synthesize back to an image; exact inverse of build_pyramid."""
    approx = pyramid.ll
    for lvl in reversed(pyramid.details):
        if lvl.lh.shape != approx.shape:
            raise ValueError(
                f"detail band shape {lvl.lh.shape} does not match approximation {approx.shape}"
            )
        approx = dwt_inverse(Subbands(approx, *lvl))
    return approx
