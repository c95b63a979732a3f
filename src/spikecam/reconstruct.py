"""Spike-to-image restoration.

Two classical baselines read intensity straight off the stream: tfp
(windowed firing rate) and tfi (inverse inter-spike interval).  On top
of those sits the recurrent pipeline: an adaptive spike transform whose
per-pixel window length follows local spike density, closed-form
fixed-pattern correction from calibration data, and a wavelet-domain
fuse / denoise / refine cascade that carries a fused pyramid from step
to step as recurrent state.

The fusion, denoising, and refinement stages are deterministic
operators with the dataflow of their learned counterparts: each is a
small function of the current and previous pyramids, so a trained model
can replace any of them without changing the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calibration import CalibrationData
from .streams import FULL_SCALE, SpikeStream, TickGroupRing, validate_image
from .wavelet import (
    PYRAMID_LEVELS,
    DetailBands,
    Subbands,
    WaveletPyramid,
    build_pyramid,
    check_pyramid_shape,
    collapse_pyramid,
    dwt_inverse,
)

__all__ = [
    "METHODS",
    "RestorerParams",
    "RestorerState",
    "RecurrentRestorer",
    "StepResult",
    "adaptive_transform",
    "ast_window",
    "check_method",
    "correct_fixed_pattern",
    "fusion_mask",
    "reconstruct",
    "refine",
    "restore_recurrent",
    "temporal_fuse",
    "tfi",
    "tfp",
    "wavelet_denoise",
]


# ----------------------------------------------------------------------
# classical baselines


def _check_tick(stream: SpikeStream, t: int) -> int:
    t = int(t)
    if not 0 <= t < stream.length:
        raise IndexError(f"tick {t} outside stream of length {stream.length}")
    return t


def tfp(stream: SpikeStream, t: int, w: int) -> np.ndarray:
    """Windowed firing rate: 255 * count / window, centered at t.

    The window is clipped at the stream boundaries; the divisor is the
    clipped length, so edge estimates stay unbiased for constant rates.
    """
    w = int(w)
    if w < 1:
        raise ValueError(f"window must be >= 1, got {w}")
    lo = int(t) - w // 2
    lo, hi = stream._clip_ticks(lo, lo + w)
    # 255 * count / n, in this order: 255 * (count / n) differs in the last bit
    return FULL_SCALE * stream.count_map(lo, hi) / float(hi - lo)


def tfi(stream: SpikeStream, t: int) -> np.ndarray:
    """Inverse inter-spike interval at tick t.

    Per pixel the interval is taken between the nearest spike at or
    before t and the nearest after it.  A pixel with all its spikes on
    one side of t uses its two spikes nearest to t on that side; a
    pixel with fewer than two spikes in the stream reads 0.
    """
    t = _check_tick(stream, t)
    p1, p2 = stream.spike_edge_map(0, t + 1, from_end=True, n=2)
    n1, n2 = stream.spike_edge_map(t + 1, stream.length, n=2)
    no_prev = p1 < 0
    no_next = n1 < 0
    isi = np.where(no_prev, n2 - n1, np.where(no_next, p1 - p2, n1 - p1)).astype(np.float64)
    lacking = (no_prev & (n2 < 0)) | (no_next & (p2 < 0))

    with np.errstate(divide="ignore"):
        out = FULL_SCALE / isi
    return np.where(lacking, 0.0, out)


# ----------------------------------------------------------------------
# adaptive spike transform


def ast_window(density):
    """Window length for a local spike density in [0, 1].

    A falling sigmoid centered at density 0.1 maps dark regions (sparse
    spikes) to long windows and bright regions to short ones:
    floor(257 - 249 / (1 + exp(-75 * density + 7.5))), always in
    [8, 256].
    """
    d = np.asarray(density, dtype=np.float64)
    if not np.isfinite(d).all() or (d < 0).any() or (d > 1).any():
        raise ValueError("density must lie in [0, 1]")
    win = np.floor(257.0 - 249.0 / (1.0 + np.exp(-75.0 * d + 7.5)))
    out = win.astype(np.int64)
    return int(out) if d.ndim == 0 else out


@dataclass
class RestorerState:
    """Recurrent state: last fused pyramid plus the density estimate.

    tick_groups keeps the transposed ticks the last adaptive transform
    read, so the next one transposes only the ticks it has not seen.
    """

    density_map: np.ndarray
    prev_fused: WaveletPyramid | None = None
    tick_groups: TickGroupRing = field(default_factory=TickGroupRing, repr=False, compare=False)


def adaptive_transform(
    stream: SpikeStream,
    t: int,
    state: RestorerState,
    *,
    causal: bool = False,
    window_override: int | None = None,
) -> np.ndarray:
    """Firing rate over a per-pixel window sized by local density.

    Each pixel averages its spikes over ast_window(density) ticks
    centered at t (or ending at t when causal), clipped to the stream.
    The state's density map is then pulled halfway toward the densities
    just measured, so window lengths track slow illumination changes.
    window_override forces one fixed window length for every pixel,
    which turns the operator into plain tfp plus the density refresh.
    """
    t = _check_tick(stream, t)
    density = np.asarray(state.density_map, dtype=np.float64)
    if density.shape != (stream.height, stream.width):
        raise ValueError(
            f"density map shape {density.shape} does not match sensor "
            f"{stream.height}x{stream.width}"
        )
    if window_override is not None:
        if int(window_override) < 1:
            raise ValueError(f"window_override must be >= 1, got {window_override}")
        win = np.full(density.shape, int(window_override), dtype=np.int64)
    else:
        win = ast_window(density)

    if causal:
        a = t + 1 - win
        b = np.full_like(win, t + 1)
    else:
        a = t - win // 2
        b = a + win
    np.clip(a, 0, stream.length, out=a)
    np.clip(b, 0, stream.length, out=b)

    rate = state.tick_groups.window_counts(stream, a, b) / (b - a)
    state.density_map = 0.5 * density + 0.5 * rate
    return FULL_SCALE * rate


def correct_fixed_pattern(image: np.ndarray, calib: CalibrationData) -> np.ndarray:
    """Invert the pixel response: undo per-pixel gain, subtract dark rate.

    A measured rate r spikes/tick corresponds to r * Q_r accumulated
    intensity per tick, of which L_d is dark current.
    """
    img = validate_image(image, "image")
    calib.require_shape(img.shape)
    rate = img / FULL_SCALE
    corrected = rate * calib.Q_r - calib.L_d
    return np.clip(corrected, 0.0, FULL_SCALE)


# ----------------------------------------------------------------------
# recurrent fuse / denoise / refine


@dataclass(frozen=True)
class RestorerParams:
    """Tuning knobs of the recurrent pipeline."""

    fusion_tau: float = 0.2
    fusion_floor: float = 0.125
    denoise_k: float = 3.0
    refine_beta: float = 0.15
    bootstrap_window: int = 64

    def __post_init__(self) -> None:
        if not (np.isfinite(self.fusion_tau) and self.fusion_tau > 0):
            raise ValueError(f"fusion_tau must be positive, got {self.fusion_tau}")
        if not 0 < self.fusion_floor <= 1:
            raise ValueError(f"fusion_floor must be in (0, 1], got {self.fusion_floor}")
        if not (np.isfinite(self.denoise_k) and self.denoise_k >= 0):
            raise ValueError(f"denoise_k must be >= 0, got {self.denoise_k}")
        if not 0 <= self.refine_beta <= 1:
            raise ValueError(f"refine_beta must be in [0, 1], got {self.refine_beta}")
        if int(self.bootstrap_window) < 1:
            raise ValueError(
                f"bootstrap_window must be >= 1, got {self.bootstrap_window}"
            )


def fusion_mask(cur_ll, prev_ll, params: RestorerParams) -> np.ndarray:
    """Per-coefficient weight on the current frame, in [floor, 1].

    Coefficients that moved by fusion_tau * 255 or more since the last
    step are treated as motion and taken entirely from the present;
    still regions keep a floor's worth of the present so the recurrence
    never locks up.
    """
    diff = np.abs(np.asarray(cur_ll, dtype=np.float64) - prev_ll)
    m = diff / (params.fusion_tau * FULL_SCALE) + params.fusion_floor
    return np.clip(m, params.fusion_floor, 1.0)


def _blend_bands(m: np.ndarray, cur: DetailBands, prev: DetailBands) -> DetailBands:
    return DetailBands(*(m * c + (1.0 - m) * p for c, p in zip(cur, prev)))


def temporal_fuse(
    cur: WaveletPyramid, prev: WaveletPyramid, params: RestorerParams
) -> tuple[WaveletPyramid, tuple[np.ndarray, ...]]:
    """Blend the current pyramid with the previous fused one.

    Runs coarse to fine.  The deepest level masks on its stored
    approximation bands; each finer level synthesizes the approximation
    implied by the fusion below it and masks the current frame's
    implied approximation against that, so decisions at fine scales see
    the partially fused result rather than the raw previous frame.
    Returns the fused pyramid and the masks, finest level first.
    """
    if cur.image_shape != prev.image_shape:
        raise ValueError(
            f"pyramid shapes differ: {cur.image_shape} vs {prev.image_shape}"
        )
    m_deep = fusion_mask(cur.ll, prev.ll, params)
    fused_ll = m_deep * cur.ll + (1.0 - m_deep) * prev.ll
    fused_details: list[DetailBands] = [None] * PYRAMID_LEVELS
    fused_details[-1] = _blend_bands(m_deep, cur.details[-1], prev.details[-1])
    masks = [m_deep]

    ll_cur = cur.ll
    ll_fused = fused_ll
    for level in range(PYRAMID_LEVELS - 1, 0, -1):
        ll_cur = dwt_inverse(Subbands(ll_cur, *cur.details[level]))
        ll_fused = dwt_inverse(Subbands(ll_fused, *fused_details[level]))
        m = fusion_mask(ll_cur, ll_fused, params)
        fused_details[level - 1] = _blend_bands(
            m, cur.details[level - 1], prev.details[level - 1]
        )
        masks.append(m)

    fused = WaveletPyramid(details=tuple(fused_details), ll=fused_ll)
    return fused, tuple(reversed(masks))


def _soft_threshold(band: np.ndarray, lam: float) -> np.ndarray:
    return np.sign(band) * np.maximum(np.abs(band) - lam, 0.0)


def wavelet_denoise(pyramid: WaveletPyramid, k: float) -> WaveletPyramid:
    """Soft-threshold detail bands; approximation passes through.

    Each level estimates its own noise scale from the median absolute
    HH coefficient (sigma = MAD / 0.6745, exact for Gaussian noise) and
    shrinks all three detail bands by k * sigma.
    """
    k = float(k)
    if not (np.isfinite(k) and k >= 0):
        raise ValueError(f"k must be >= 0, got {k}")
    new_details = []
    for bands in pyramid.details:
        sigma = float(np.median(np.abs(bands.hh))) / 0.6745
        lam = k * sigma
        new_details.append(DetailBands(*(_soft_threshold(b, lam) for b in bands)))
    return WaveletPyramid(details=tuple(new_details), ll=pyramid.ll)


def refine(
    fused: WaveletPyramid, denoised: WaveletPyramid, beta: float
) -> WaveletPyramid:
    """Blend a fraction beta of the fused detail back over the denoised.

    Guards against overshoot from aggressive thresholding: beta = 0
    trusts the denoiser fully, beta = 1 undoes it.
    """
    beta = float(beta)
    if not 0 <= beta <= 1:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    if fused.image_shape != denoised.image_shape:
        raise ValueError(
            f"pyramid shapes differ: {fused.image_shape} vs {denoised.image_shape}"
        )
    details = tuple(
        _blend_bands(beta, f, d) for f, d in zip(fused.details, denoised.details)
    )
    ll = beta * fused.ll + (1.0 - beta) * denoised.ll
    return WaveletPyramid(details=details, ll=ll)


# ----------------------------------------------------------------------
# the full pipeline


@dataclass(frozen=True)
class StepResult:
    """Every stage's image for one restored tick.

    adaptive and corrected are the rate-domain and model-inverted
    inputs; fused and denoised are the collapsed intermediate wavelet
    stages; output collapses the refined pyramid.  All are clamped to
    [0, 255] for reporting (the recurrent pyramid state itself is
    not).  masks are the fusion masks, finest level first.
    """

    tick: int
    adaptive: np.ndarray
    corrected: np.ndarray
    fused: np.ndarray
    denoised: np.ndarray
    output: np.ndarray
    masks: tuple[np.ndarray, ...] = field(repr=False, default=())


class RecurrentRestorer:
    """Stateful restorer: call step() with increasing ticks.

    The density map bootstraps from the stream's opening ticks and is
    refreshed by every step; the fused pyramid feeds back as the
    previous frame.  The first step, having no history, fuses the
    current pyramid with itself.
    """

    def __init__(
        self,
        stream: SpikeStream,
        calib: CalibrationData,
        params: RestorerParams | None = None,
        *,
        causal: bool = False,
        window_override: int | None = None,
    ) -> None:
        self.params = params if params is not None else RestorerParams()
        calib.require_shape((stream.height, stream.width))
        check_pyramid_shape((stream.height, stream.width))
        self.stream = stream
        self.calib = calib
        self.causal = causal
        self.window_override = window_override
        boot = stream.density_map(0, int(self.params.bootstrap_window))
        self.state = RestorerState(density_map=boot)

    def step(self, t: int) -> StepResult:
        t = _check_tick(self.stream, t)
        adaptive = adaptive_transform(
            self.stream,
            t,
            self.state,
            causal=self.causal,
            window_override=self.window_override,
        )
        corrected = correct_fixed_pattern(adaptive, self.calib)
        pyramid = build_pyramid(corrected)
        prev = self.state.prev_fused if self.state.prev_fused is not None else pyramid
        fused, masks = temporal_fuse(pyramid, prev, self.params)
        denoised = wavelet_denoise(fused, self.params.denoise_k)
        refined = refine(fused, denoised, self.params.refine_beta)
        self.state.prev_fused = fused
        return StepResult(
            tick=t,
            adaptive=adaptive,
            corrected=corrected,
            fused=np.clip(collapse_pyramid(fused), 0.0, FULL_SCALE),
            denoised=np.clip(collapse_pyramid(denoised), 0.0, FULL_SCALE),
            output=np.clip(collapse_pyramid(refined), 0.0, FULL_SCALE),
            masks=masks,
        )


def restore_recurrent(
    stream: SpikeStream,
    calib: CalibrationData,
    params: RestorerParams | None = None,
    ticks=(),
    **kwargs,
) -> list[np.ndarray]:
    """Run the pipeline over strictly increasing ticks; returns outputs."""
    ticks = [int(t) for t in ticks]
    if not ticks:
        raise ValueError("at least one tick is required")
    if any(b <= a for a, b in zip(ticks, ticks[1:])):
        raise ValueError("ticks must be strictly increasing")
    restorer = RecurrentRestorer(stream, calib, params, **kwargs)
    return [restorer.step(t).output for t in ticks]


# ----------------------------------------------------------------------
# method dispatch

METHODS = ("tfp", "tfi", "ast", "recurrent")


def check_method(method: str, window: int | None) -> None:
    """Reject an unknown method; tfp needs a positive window, the others take none."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    if method == "tfp":
        if window is None or window < 1:
            raise ValueError("tfp needs a positive window")
    elif window is not None:
        raise ValueError(f"{method} does not take a window")


def reconstruct(
    stream: SpikeStream,
    method: str,
    ticks,
    calib: CalibrationData,
    *,
    window: int | None = None,
) -> list[np.ndarray]:
    """One image per tick, in tick order, by the named method.

    Every image is finite and in [0, 255], bounded by the method itself:
    tfp and tfi by their arithmetic, ast and recurrent by their own clips.
    A tick outside the stream raises IndexError before any image is made.
    ast bootstraps its density map as RecurrentRestorer does and refreshes
    it from tick to tick; recurrent is restore_recurrent with default params.
    """
    check_method(method, window)
    ticks = [_check_tick(stream, t) for t in ticks]
    if method == "tfp":
        return [tfp(stream, t, window) for t in ticks]
    elif method == "tfi":
        return [tfi(stream, t) for t in ticks]
    elif method == "ast":
        boot = stream.density_map(0, RestorerParams().bootstrap_window)
        state = RestorerState(density_map=boot)
        return [
            correct_fixed_pattern(adaptive_transform(stream, t, state), calib)
            for t in ticks
        ]
    return restore_recurrent(stream, calib, ticks=ticks)
