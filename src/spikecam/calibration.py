"""Per-pixel sensor calibration from three uniform-illumination recordings.

The procedure needs a dark recording (lens capped) and two recordings under
known uniform intensities L_1 < L_2.  From per-pixel mean firing intervals:

* dark equivalent intensity:  L_d = L_1 * T_1 / (T_d - T_1)
* response ratio vs a reference pixel m:
      R = (L_2 + L_d[m]) * T_2[m] / ((L_2 + L_d) * T_2)
* charge per discharge in digital units:  Q_r = 255 / R
* dark discharge period:  D_dark = Q_r / L_d  (inf where L_d == 0)

The reference pixel is the one whose interval is closest to the sensor
mean, so Q_r == 255 there and the ideal model is recovered exactly at the
reference.  Pixels whose recordings are unusable (too few spikes, or a dark
interval not longer than the lit one) are masked and given neutral values.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .streams import FULL_SCALE, ClockParams, SpikeStream

log = logging.getLogger(__name__)


def _derived_maps(L_d: np.ndarray, R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q_r = 255 / R and D_dark = Q_r / L_d (inf where L_d == 0)."""
    with np.errstate(divide="ignore"):
        Q_r = FULL_SCALE / R
        return Q_r, np.where(L_d > 0, Q_r / L_d, np.inf)


class CalibrationError(ValueError):
    """Calibration inputs are unusable."""


class CalibrationQualityError(CalibrationError):
    """Too many pixels failed calibration to trust the result."""


@dataclass(frozen=True)
class CalibrationData:
    """Per-pixel calibration maps, all float64 with shape (height, width).

    reference_pixel is (x, y).  Q_r and D_dark are redundant with R and L_d
    and are validated to match exactly so serialized data cannot drift.
    """

    L_d: np.ndarray
    R: np.ndarray
    Q_r: np.ndarray
    D_dark: np.ndarray
    reference_pixel: tuple[int, int]
    clock: ClockParams = field(default_factory=ClockParams)

    def __post_init__(self) -> None:
        maps = {}
        for name in ("L_d", "R", "Q_r", "D_dark"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.ndim != 2:
                raise ValueError(f"{name} must be 2-d, got shape {arr.shape}")
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
            maps[name] = arr
        shp = maps["L_d"].shape
        for name, arr in maps.items():
            if arr.shape != shp:
                raise ValueError(f"{name} shape {arr.shape} does not match L_d shape {shp}")
        if not np.isfinite(maps["L_d"]).all() or (maps["L_d"] < 0).any():
            raise ValueError("L_d must be finite and nonnegative")
        if not np.isfinite(maps["R"]).all() or (maps["R"] <= 0).any():
            raise ValueError("R must be finite and positive")
        Q_r, D_dark = _derived_maps(maps["L_d"], maps["R"])
        if not np.array_equal(maps["Q_r"], Q_r):
            raise ValueError("Q_r must equal 255 / R elementwise")
        if not np.array_equal(maps["D_dark"], D_dark):
            raise ValueError("D_dark must equal Q_r / L_d (inf where L_d == 0)")
        x, y = self.reference_pixel
        h, w = shp
        if not (0 <= x < w and 0 <= y < h):
            raise ValueError(f"reference_pixel {self.reference_pixel} outside {w}x{h} sensor")
        object.__setattr__(self, "reference_pixel", (int(x), int(y)))

    @property
    def shape(self) -> tuple[int, int]:
        return self.L_d.shape

    @property
    def width(self) -> int:
        return self.L_d.shape[1]

    @property
    def height(self) -> int:
        return self.L_d.shape[0]

    def require_shape(self, shape: tuple[int, int]) -> None:
        if self.shape != tuple(shape):
            raise ValueError(f"calibration shape {self.shape} does not match data shape {tuple(shape)}")


def identity_calibration(
    width: int, height: int, clock: ClockParams | None = None
) -> CalibrationData:
    """Ideal sensor: no dark current, uniform response."""
    return make_calibration(np.zeros((height, width)), np.ones((height, width)), clock=clock)


def make_calibration(
    L_d: np.ndarray,
    R: np.ndarray,
    reference_pixel: tuple[int, int] = (0, 0),
    clock: ClockParams | None = None,
) -> CalibrationData:
    """Build a consistent CalibrationData from just L_d and R maps."""
    clock = clock or ClockParams()
    L_d = np.asarray(L_d, dtype=np.float64)
    R = np.asarray(R, dtype=np.float64)
    Q_r, D_dark = _derived_maps(L_d, R)
    return CalibrationData(
        L_d=L_d, R=R, Q_r=Q_r, D_dark=D_dark, reference_pixel=reference_pixel, clock=clock
    )


# ----------------------------------------------------------------------
# estimation steps


def mean_interval_map(stream: SpikeStream) -> np.ndarray:
    """Per-pixel mean inter-spike interval in ticks.

    Computed as (last spike - first spike) / (count - 1) so partial head and
    tail periods do not bias the estimate.  Pixels with fewer than two
    spikes get inf.
    """
    count = stream.count_map(0, stream.length)
    first = stream.spike_edge_map(0, stream.length)[0]
    last = stream.spike_edge_map(0, stream.length, from_end=True)[0]
    with np.errstate(invalid="ignore", divide="ignore"):
        interval = (last - first) / np.maximum(count - 1, 1)
    return np.where(count >= 2, interval, np.inf)


def estimate_dark_equivalent(T_d: np.ndarray, T_1: np.ndarray, L_1: float) -> np.ndarray:
    """Dark-current equivalent intensity L_d = L_1 * T_1 / (T_d - T_1).

    T_d is the dark-recording interval map, T_1 the interval map under known
    uniform intensity L_1.  A silent dark pixel (T_d = inf) means no
    measurable dark current, L_d = 0.  Pixels where T_d <= T_1 or where T_1
    is not finite are masked with NaN.
    """
    if not (np.isscalar(L_1) and L_1 > 0 and np.isfinite(L_1)):
        raise ValueError(f"L_1 must be a positive finite scalar, got {L_1!r}")
    T_d = np.asarray(T_d, dtype=np.float64)
    T_1 = np.asarray(T_1, dtype=np.float64)
    if T_d.shape != T_1.shape:
        raise ValueError(f"interval map shapes differ: {T_d.shape} vs {T_1.shape}")
    valid = np.isfinite(T_1) & (T_1 > 0) & (T_d > T_1)
    with np.errstate(invalid="ignore", divide="ignore"):
        L_d = L_1 * T_1 / (T_d - T_1)  # T_d = inf gives exactly 0
    return np.where(valid, L_d, np.nan)


def select_reference_pixel(T_2: np.ndarray) -> tuple[int, int]:
    """Pixel whose interval is closest to the mean of finite intervals.

    Ties resolve to the smallest (y, x) in row-major order.  Raises
    CalibrationError when no pixel has a finite interval.
    """
    T_2 = np.asarray(T_2, dtype=np.float64)
    finite = np.isfinite(T_2)
    if not finite.any():
        raise CalibrationError("no pixel has a finite interval; cannot pick a reference")
    mean = T_2[finite].mean()
    dist = np.where(finite, np.abs(T_2 - mean), np.inf)
    flat = int(np.argmin(dist))  # first occurrence = smallest (y, x)
    y, x = divmod(flat, T_2.shape[1])
    return (x, y)


def estimate_nonuniformity(
    T_2: np.ndarray,
    L_d: np.ndarray,
    L_2: float,
    reference_pixel: tuple[int, int],
) -> np.ndarray:
    """Response ratio R relative to the reference pixel.

    R = (L_2 + L_d[ref]) * T_2[ref] / ((L_2 + L_d) * T_2).  Masked inputs
    (NaN L_d or non-finite T_2) stay NaN; the reference itself must be
    clean.  Multiplying all intervals by a constant leaves R unchanged.
    """
    if not (np.isscalar(L_2) and L_2 > 0 and np.isfinite(L_2)):
        raise ValueError(f"L_2 must be a positive finite scalar, got {L_2!r}")
    T_2 = np.asarray(T_2, dtype=np.float64)
    L_d = np.asarray(L_d, dtype=np.float64)
    if T_2.shape != L_d.shape:
        raise ValueError(f"map shapes differ: {T_2.shape} vs {L_d.shape}")
    x, y = reference_pixel
    ref_T = T_2[y, x]
    ref_L = L_d[y, x]
    if not (np.isfinite(ref_T) and ref_T > 0 and np.isfinite(ref_L)):
        raise CalibrationError(f"reference pixel {reference_pixel} has unusable calibration data")
    with np.errstate(invalid="ignore"):
        R = (L_2 + ref_L) * ref_T / ((L_2 + L_d) * T_2)
    return np.where(np.isfinite(T_2) & (T_2 > 0), R, np.nan)


def build_calibration(
    dark_stream: SpikeStream,
    light1_stream: SpikeStream,
    L_1: float,
    light2_stream: SpikeStream,
    L_2: float,
    clock: ClockParams | None = None,
    max_masked_fraction: float = 0.1,
) -> CalibrationData:
    """Full calibration from one dark and two lit uniform recordings.

    Masked pixels (unusable in any step) are given neutral values L_d = 0,
    R = 1 and counted in a warning.  If more than max_masked_fraction of the
    sensor is masked, CalibrationQualityError is raised.
    """
    clock = clock or dark_stream.clock
    shape = (dark_stream.height, dark_stream.width)
    for name, s in (("light1", light1_stream), ("light2", light2_stream)):
        if (s.height, s.width) != shape:
            raise ValueError(
                f"{name} stream is {s.width}x{s.height}, dark stream is "
                f"{shape[1]}x{shape[0]}"
            )

    T_d = mean_interval_map(dark_stream)
    T_1 = mean_interval_map(light1_stream)
    T_2 = mean_interval_map(light2_stream)

    L_d = estimate_dark_equivalent(T_d, T_1, L_1)
    # the reference must survive every step; hide pixels with a bad L_d
    selectable = np.where(np.isnan(L_d), np.inf, T_2)
    reference = select_reference_pixel(selectable)
    R = estimate_nonuniformity(T_2, L_d, L_2, reference)

    masked = np.isnan(L_d) | np.isnan(R)
    n_masked = int(masked.sum())
    n_total = masked.size
    if n_masked:
        log.warning(
            "calibration masked %d of %d pixels (%.1f%%); they get neutral values",
            n_masked,
            n_total,
            100.0 * n_masked / n_total,
        )
    if n_masked > max_masked_fraction * n_total:
        raise CalibrationQualityError(
            f"{n_masked} of {n_total} pixels ({100.0 * n_masked / n_total:.1f}%) failed "
            f"calibration; limit is {100.0 * max_masked_fraction:.0f}%"
        )
    L_d = np.where(masked, 0.0, L_d)
    R = np.where(masked, 1.0, R)
    return make_calibration(L_d, R, reference, clock)
