"""Benchmark harness: synthetic scenes, method sweeps, per-stage metrics.

The harness simulates each scene in two illumination regimes (exposure
chosen so the peak spike density lands near 0.03 and 0.25), runs every
requested reconstruction method on the shared stream, and reports PSNR,
SSIM, and runtime per (scene, illumination, method) cell.  The recurrent
method additionally records metrics for each pipeline stage so ablation
trends are visible in one table.  Every cell's simulation draws from its
own split generator, so the report is deterministic for a given seed and
independent of execution order; cells run concurrently on the CPUs the
process may use.
"""

from __future__ import annotations

import logging
import math
import os
import time
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .calibration import CalibrationData, make_calibration
from .metrics import psnr, ssim
from .noise import NoiseConfig, make_rng, split_rng
from .reconstruct import RecurrentRestorer, check_method, reconstruct
from .simulate import SimulationRequest, simulate
from .streams import SpikeStream, validate_image
from .wavelet import PYRAMID_LEVELS

log = logging.getLogger(__name__)

LOW_DENSITY_TARGET = 0.03
HIGH_DENSITY_TARGET = 0.25
# measured peak density at or above this counts as the high-light class
DENSITY_CLASS_THRESHOLD = 0.1

STAGE_NAMES = ("input", "fpn", "fuse", "denoise", "refine")

_FULL_SCALE = 255.0


def theta_for_density(image: np.ndarray, density: float) -> float:
    """Exposure factor that puts the brightest pixel at the given density."""
    image = validate_image(image)
    peak = float(image.max())
    if peak <= 0:
        raise ValueError("image has no positive pixels; cannot set an exposure")
    if not 0 < density <= 1:
        raise ValueError(f"target density must be in (0, 1], got {density}")
    return density * _FULL_SCALE / peak


# ----------------------------------------------------------------------
# synthetic scenes


@dataclass(frozen=True)
class Scene:
    """A named test image in the 0..255 intensity domain."""

    name: str
    image: np.ndarray

    def __post_init__(self) -> None:
        img = validate_image(self.image, self.name)
        img.flags.writeable = False
        object.__setattr__(self, "image", img)


def make_scenes(size: int = 96) -> list[Scene]:
    """Five deterministic analytic scenes with values in [64, 255].

    The floor keeps every pixel firing at a usable rate even in the
    low-light regime; shapes cover smooth blobs, ramps, periodic bars,
    rings, and a hard-edged plateau.
    """
    if size % 2**PYRAMID_LEVELS:
        raise ValueError(f"scene size must be divisible by {2**PYRAMID_LEVELS}, got {size}")
    axis = np.arange(size) / (size - 1)
    xx, yy = np.meshgrid(axis, axis)
    lo, span = 64.0, 191.0

    def bump(cx: float, cy: float, s: float) -> np.ndarray:
        return np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * s * s))

    blobs = bump(0.3, 0.35, 0.14) + 0.8 * bump(0.72, 0.6, 0.11) + 0.6 * bump(0.45, 0.8, 0.08)
    dots = np.zeros_like(xx)
    for i, cx in enumerate((0.15, 0.38, 0.6, 0.82)):
        for j, cy in enumerate((0.2, 0.45, 0.7)):
            dots += (0.5 + 0.5 * ((i + j) % 2)) * bump(cx, cy, 2.5 / size)
    scenes = [
        Scene("blobs", lo + span * np.clip(blobs, 0.0, 1.0)),
        Scene("ramp", lo + span * xx * (0.7 + 0.3 * yy)),
        Scene("bars", lo + span * (0.5 + 0.5 * np.tanh(2.5 * np.sin(2 * np.pi * 3 * xx)))),
        Scene("dots", lo + span * np.clip(dots, 0.0, 1.0)),
        Scene("plateau", lo + span * 0.5 * (np.tanh(12 * (xx - 0.33)) - np.tanh(12 * (xx - 0.67)))),
    ]
    return scenes


def synthetic_calibration(
    width: int, height: int, seed: int = 0
) -> CalibrationData:
    """Plausible nonuniform sensor: R in [0.9, 1.1], L_d in [0.2, 2.0]."""
    rng = np.random.default_rng(seed)
    R = rng.uniform(0.9, 1.1, (height, width))
    L_d = rng.uniform(0.2, 2.0, (height, width))
    return make_calibration(L_d, R, reference_pixel=(width // 2, height // 2))


def make_translating_sequence(
    image: np.ndarray, length: int, dx_per_tick: float
) -> np.ndarray:
    """Per-tick frames of the image under wraparound horizontal motion.

    Shifts are whole pixels (floor of the accumulated displacement), so a
    slow dx produces long static runs punctuated by single-pixel jumps.
    """
    image = validate_image(image)
    if length < 1:
        raise ValueError(f"length must be at least 1, got {length}")
    shifts = np.floor(dx_per_tick * np.arange(length)).astype(int)
    frames = np.empty((length,) + image.shape, dtype=np.float64)
    for t, s in enumerate(shifts):
        frames[t] = np.roll(image, s, axis=1)
    return frames


# ----------------------------------------------------------------------
# method specs


@dataclass(frozen=True)
class MethodSpec:
    """One reconstruction method to benchmark.

    kind 'tfp' needs a window; 'tfi' and 'ast' are single-shot; the
    'recurrent' pipeline runs `steps` evenly spaced recurrent updates
    ending at the evaluation tick and reports the final output.
    """

    kind: str
    window: int | None = None
    steps: int = 8

    def __post_init__(self) -> None:
        check_method(self.kind, self.window)
        if self.kind == "recurrent" and self.steps < 1:
            raise ValueError(f"recurrent needs at least one step, got {self.steps}")

    @property
    def label(self) -> str:
        if self.kind == "tfp":
            return f"tfp(w={self.window})"
        return self.kind

    @property
    def parameter(self) -> str:
        return "" if self.window is None else str(self.window)


# The sweep `spikecam bench` runs.
DEFAULT_METHODS = tuple(MethodSpec("tfp", w) for w in (32, 64, 128, 256)) + tuple(
    MethodSpec(kind) for kind in ("tfi", "ast", "recurrent")
)


# ----------------------------------------------------------------------
# report


@dataclass(frozen=True)
class BenchRow:
    """Metrics for one (scene, illumination, method) cell.

    stages holds (name, psnr, ssim) triples for the recurrent pipeline's
    intermediate images; error is set (and metrics are nan) when the
    method raised instead of producing an image.
    """

    scene: str
    illumination: str
    method: str
    parameter: str
    psnr: float
    ssim: float
    runtime: float
    stages: tuple[tuple[str, float, float], ...] = ()
    error: str | None = None

    def __post_init__(self) -> None:
        if self.illumination not in ("low", "high"):
            raise ValueError(f"illumination must be low or high, got {self.illumination!r}")
        if self.error is None:
            if not (self.psnr >= 0 or math.isinf(self.psnr)):
                raise ValueError(f"psnr must be nonnegative or inf, got {self.psnr}")
            if not -1.0 <= self.ssim <= 1.0:
                raise ValueError(f"ssim must lie in [-1, 1], got {self.ssim}")


@dataclass(frozen=True)
class BenchmarkReport:
    """All rows of one benchmark run plus the metadata to rerun it."""

    seed: int
    scenes: tuple[str, ...]
    rows: tuple[BenchRow, ...] = field(default=())

    def to_csv(self) -> str:
        cols = ["scene", "illumination", "method", "parameter", "psnr", "ssim", "runtime_s"]
        cols += [f"stage_{name}_psnr" for name in STAGE_NAMES]
        cols.append("error")
        out = [",".join(cols)]
        for row in self.rows:
            stage_psnr = {name: p for name, p, _ in row.stages}
            cells = [
                row.scene,
                row.illumination,
                row.method,
                row.parameter,
                _fmt(row.psnr, 4),
                _fmt(row.ssim, 6),
                _fmt(row.runtime, 3),
            ]
            cells += [_fmt(stage_psnr.get(name), 4) for name in STAGE_NAMES]
            cells.append(row.error or "")
            out.append(",".join(cells))
        return "\n".join(out) + "\n"

    def to_text(self) -> str:
        out = [
            "spikebench 1",
            f"seed {self.seed}",
            "scenes " + " ".join(self.scenes),
        ]
        for row in self.rows:
            head = (
                f"row scene={row.scene} illumination={row.illumination} "
                f"method={row.method} psnr={_fmt(row.psnr, 4)} "
                f"ssim={_fmt(row.ssim, 6)} runtime_s={_fmt(row.runtime, 3)}"
            )
            if row.error is not None:
                head += f" error={row.error!r}"
            out.append(head)
            for name, p, s in row.stages:
                out.append(f"  stage {name} psnr={_fmt(p, 4)} ssim={_fmt(s, 6)}")
        return "\n".join(out) + "\n"

    def to_summary(self) -> str:
        """Per-method mean PSNR (low, high, all cells) and SSIM; failed cells left out."""
        ok = [row for row in self.rows if row.error is None]
        out = [
            f"{len(self.rows)} cells, {len(self.rows) - len(ok)} failed",
            f"{'method':<12} {'low dB':>8} {'high dB':>8} {'mean dB':>8} {'ssim':>7}",
        ]
        for method in dict.fromkeys(row.method for row in self.rows):
            picked = [row for row in ok if row.method == method]
            if not picked:
                out.append(f"{method:<12} {'all cells failed':>26}")
                continue
            by_illum = [[r.psnr for r in picked if r.illumination == i] for i in ("low", "high")]
            low, high = (f"{np.mean(p):8.2f}" if p else f"{'-':>8}" for p in by_illum)
            mean_psnr = np.mean([r.psnr for r in picked])
            mean_ssim = np.mean([r.ssim for r in picked])
            out.append(f"{method:<12} {low} {high} {mean_psnr:8.2f} {mean_ssim:7.4f}")
        return "\n".join(out) + "\n"


def _fmt(value: float | None, digits: int) -> str:
    if value is None:
        return ""
    if math.isinf(value):
        return "inf"
    return str(round(value, digits))


# ----------------------------------------------------------------------
# harness


def run_benchmark(
    scenes: list[Scene],
    calib: CalibrationData,
    methods: Sequence[MethodSpec],
    seed: int,
    *,
    noise: NoiseConfig | None = None,
    length: int = 768,
    eval_tick: int = 512,
) -> BenchmarkReport:
    """Simulate every scene in both regimes and score every method.

    Each (scene, regime) cell simulates once from its own split rng and
    shares the stream across methods, mirroring a fixed test recording.
    Ground truth is the exposed scene theta*L clamped to full scale.
    An unusable scene raises before any cell is simulated.  Method
    failures are recorded in the row and the sweep continues; a
    simulation failure ends the sweep and propagates.

    Cells run concurrently, one thread per CPU this process may use:
    the simulator's draws release the interpreter lock, and each
    simulation draws into one reused buffer of at most 64 ticks of
    float64 deposits, so cells overlap without a cell's memory growing.
    Rows come back in cell order and, because every cell draws only from
    its own rng, are the same as a serial sweep's apart from runtime,
    which is the wall time of a method while other cells run alongside
    it.
    """
    if not scenes:
        raise ValueError("at least one scene is required")
    if not methods:
        raise ValueError("at least one method is required")
    if not 0 <= eval_tick < length:
        raise ValueError(f"eval_tick {eval_tick} outside stream of length {length}")
    cfg = noise if noise is not None else NoiseConfig.all(seed)
    for scene in scenes:
        ssim(scene.image, scene.image)  # rejects a scene under ssim's window
    targets = (LOW_DENSITY_TARGET, HIGH_DENSITY_TARGET)
    cells = [(scene, theta_for_density(scene.image, t)) for scene in scenes for t in targets]
    cell_rngs = split_rng(make_rng(seed), len(cells))

    def run_cell(cell: tuple[Scene, float], rng: np.random.Generator):
        scene, theta = cell
        req = SimulationRequest(
            source=scene.image, theta=theta, length=length, calib=calib, noise=cfg
        )
        stream = simulate(req, rng)
        gt = np.clip(theta * scene.image, 0.0, _FULL_SCALE)
        peak_density = float(stream.density_map(0, length).max())
        illum = "high" if peak_density >= DENSITY_CLASS_THRESHOLD else "low"
        return [
            _score_method(spec, stream, calib, gt, eval_tick, scene.name, illum)
            for spec in methods
        ]

    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        cell_rows = list(pool.map(run_cell, cells, cell_rngs))
    return BenchmarkReport(
        seed=seed,
        scenes=tuple(scene.name for scene in scenes),
        rows=tuple(row for rows in cell_rows for row in rows),
    )


def _score_method(
    spec: MethodSpec,
    stream: SpikeStream,
    calib: CalibrationData,
    gt: np.ndarray,
    eval_tick: int,
    scene_name: str,
    illumination: str,
) -> BenchRow:
    cell = dict(
        scene=scene_name, illumination=illumination, method=spec.label, parameter=spec.parameter
    )
    start = time.perf_counter()
    stages: tuple[tuple[str, float, float], ...] = ()
    try:
        if spec.kind == "recurrent":
            # Stepped here, not through reconstruct, for the per-stage images.
            spacing = max(1, eval_tick // spec.steps)
            ticks = [eval_tick - (spec.steps - 1 - i) * spacing for i in range(spec.steps)]
            ticks = [t for t in ticks if t >= 0]
            restorer = RecurrentRestorer(stream, calib)
            result = None
            for t in ticks:
                result = restorer.step(t)
            image = result.output
            images = (result.adaptive, result.corrected, result.fused, result.denoised, image)
            stages = tuple(
                (name, psnr(gt, stage), ssim(gt, stage))
                for name, stage in zip(STAGE_NAMES, images)
            )
        else:
            image = reconstruct(stream, spec.kind, [eval_tick], calib, window=spec.window)[0]
    except Exception as exc:
        log.warning("method %s failed on scene %s: %s", spec.label, scene_name, exc)
        return BenchRow(
            **cell,
            psnr=float("nan"),
            ssim=float("nan"),
            runtime=time.perf_counter() - start,
            error=f"{type(exc).__name__}: {exc}",
        )
    runtime = time.perf_counter() - start
    return BenchRow(
        **cell, psnr=psnr(gt, image), ssim=ssim(gt, image), runtime=runtime, stages=stages
    )
