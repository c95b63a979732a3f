"""The benchmark's workloads: restore, calibrate and sweep.

Each workload turns the seed into input files (set-up) and runs passes
over them, checking every op's output.  With tracing off a pass calls the
composite public entry points a user calls (RecurrentRestorer.step,
build_calibration, run_benchmark).  With tracing on it replays the same
work one public stage function at a time, with a span around each call;
the replay must reproduce the plain pass bit for bit.

Why these three: restore is where the adaptive spike transform (AST)
dominates at real sensor size; calibrate is bound by simulation and full
length stream scans and never runs reconstruct or wavelet, so an AST
change must leave it unchanged; sweep is the `spikecam bench` default,
bound by the per-tick simulator on small frames, with every
reconstruction method and both metrics.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spikecam import (
    CalibrationQualityError,
    MethodSpec,
    NoiseConfig,
    RecurrentRestorer,
    RestorerState,
    Scene,
    SimulationRequest,
    SpikeStream,
    StepResult,
    adaptive_transform,
    ast_window,
    build_calibration,
    build_pyramid,
    collapse_pyramid,
    correct_fixed_pattern,
    estimate_dark_equivalent,
    estimate_nonuniformity,
    make_calibration,
    make_rng,
    make_scenes,
    psnr,
    read_calibration,
    read_stream,
    refine,
    run_benchmark,
    select_reference_pixel,
    simulate,
    split_rng,
    ssim,
    synthetic_calibration,
    temporal_fuse,
    tfi,
    tfp,
    theta_for_density,
    wavelet_denoise,
    write_calibration,
    write_stream,
)
from spikecam import bench as bench_mod

from measure import Tracer

_FULL_SCALE = 255.0
_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


@dataclass
class Pass:
    """One pass: wall time, named phases and the outcome of each op.

    keys[i] digests op i's output (None when it raised) and reasons[i]
    says why op i failed (None when it passed its check).  op_s holds
    per-op latencies where the pass times each op from outside (restore
    frames).  Ops are judged as they finish, outside the timed parts, so
    a pass keeps no outputs alive.
    """

    wall: float
    phases: dict[str, float]
    keys: list[str | None] = field(default_factory=list)
    reasons: list[str | None] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)

    def judge(self, wl, inp, output, error: str | None = None) -> None:
        """Record one op's outcome: its digest and why it failed, if it did."""
        if output is None:
            self.keys.append(None)
            self.reasons.append(error or "op produced no output")
            return
        try:
            reason = wl.check(inp, output)
        except Exception as exc:
            reason = f"check raised {_error(exc)}"
        self.keys.append(wl.key(output))
        self.reasons.append(reason)


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def traced_simulate(
    tracer: Tracer, request: str, req: SimulationRequest, rng: np.random.Generator
) -> SpikeStream:
    # Quantization is what sends simulate down its per-tick path in every
    # workload here; without it the static scenes take the arrival path.
    name = "simulate.ticks" if req.noise.enable_quantization else "simulate.arrivals"
    h, w = req.frame_shape
    with tracer.span(name, request, alloc=True, pixel_ticks=h * w * req.length) as attrs:
        stream = simulate(req, rng)
    if tracer.enabled:
        attrs["spikes"] = int(_POPCOUNT[stream.bits].sum(dtype=np.int64))
        attrs["stream_bytes"] = stream.bits.nbytes
    return stream


def traced_read_stream(tracer: Tracer, request: str, path: Path) -> SpikeStream:
    with tracer.span(
        "formats.read_stream", request, alloc=True, file_bytes=path.stat().st_size
    ):
        return read_stream(path)


def replay_step(tracer: Tracer, request: str, restorer: RecurrentRestorer, t: int) -> StepResult:
    """restorer.step(t), one public stage function at a time.

    Covers the restorer as the workloads build it: centred windows and no
    window override.
    """
    stream, state, params = restorer.stream, restorer.state, restorer.params
    attrs = {}
    if tracer.enabled:
        win = ast_window(state.density_map)
        lo = t - win // 2
        span_ticks = int(np.clip(lo + win, 0, stream.length).max()) - int(
            np.clip(lo, 0, stream.length).min()
        )
        attrs = {
            "span_ticks": span_ticks,
            "unpacked_bytes": span_ticks * stream.width * stream.height,
            "mean_window": float(win.mean()),
        }
    with tracer.span("reconstruct.ast", request, alloc=True, **attrs):
        adaptive = adaptive_transform(stream, t, state)
    with tracer.span("reconstruct.fpn", request):
        corrected = correct_fixed_pattern(adaptive, restorer.calib)
    with tracer.span("wavelet.pyramid", request):
        pyramid = build_pyramid(corrected)
    prev = state.prev_fused if state.prev_fused is not None else pyramid
    with tracer.span("reconstruct.fuse", request) as fuse_attrs:
        fused, masks = temporal_fuse(pyramid, prev, params)
    if tracer.enabled:
        fuse_attrs["mask_mean"] = float(masks[0].mean())
    with tracer.span("reconstruct.denoise", request):
        denoised = wavelet_denoise(fused, params.denoise_k)
    with tracer.span("reconstruct.refine", request):
        refined = refine(fused, denoised, params.refine_beta)
    state.prev_fused = fused
    images = []
    for pyr in (fused, denoised, refined):
        with tracer.span("wavelet.collapse", request):
            images.append(np.clip(collapse_pyramid(pyr), 0.0, _FULL_SCALE))
    return StepResult(
        tick=t,
        adaptive=adaptive,
        corrected=corrected,
        fused=images[0],
        denoised=images[1],
        output=images[2],
        masks=masks,
    )


# ----------------------------------------------------------------------
# restore


class Restore:
    """RSIR restoration of a static scene at the cropped 400x248 sensor size."""

    name = "restore"
    op_label = "frame"
    width, height, length = 400, 248, 2048
    # The set-up simulates the sensor in horizontal bands of rows: pixels
    # are independent, and a band keeps the arrival path's per-spike
    # temporaries under a gigabyte.
    bands = 4
    ticks = tuple(range(256, 2048, 16))
    peak_density = 0.25
    # Lowest per-frame PSNR (dB) allowed against the exposed scene.  The
    # first frame is the worst; it read 33.4-35.6 dB on seeds 0, 3, 6 and 9
    # when this floor was set.
    psnr_floor = 30.0

    @staticmethod
    def scene(seed: int, width: int, height: int) -> np.ndarray:
        """Analytic scene in [64, 255]: a faint ramp under six Gaussian blobs."""
        rng = np.random.default_rng(seed)
        x = np.linspace(0.0, 1.0, width)[None, :]
        y = np.linspace(0.0, 1.0, height)[:, None] * (height / width)
        field = 0.15 * x
        for _ in range(6):
            cx, cy = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9) * (height / width)
            sigma, amp = rng.uniform(0.03, 0.09), rng.uniform(0.5, 1.0)
            field = field + amp * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2 * sigma**2))
        return 64.0 + 191.0 * np.clip(field, 0.0, 1.0)

    def setup(self, seed: int, workdir: Path, tracer: Tracer) -> None:
        scene = self.scene(seed, self.width, self.height)
        theta = theta_for_density(scene, self.peak_density)
        calib = synthetic_calibration(self.width, self.height, seed=seed)
        cfg = NoiseConfig(enable_quantization=False, rng_seed=seed)
        rows = self.height // self.bands
        parts = []
        for band, rng in enumerate(split_rng(make_rng(seed), self.bands)):
            sl = slice(band * rows, (band + 1) * rows)
            req = SimulationRequest(
                source=scene[sl],
                theta=theta,
                length=self.length,
                calib=make_calibration(calib.L_d[sl], calib.R[sl]),
                noise=cfg,
            )
            parts.append(traced_simulate(tracer, "setup", req, rng).bits)
        stream = SpikeStream.from_packed(
            np.concatenate(parts, axis=1), self.width, self.height, clock=calib.clock
        )
        with tracer.span("formats.write_stream", "setup"):
            write_stream(stream, workdir / "restore.spk")
        with tracer.span("formats.calibration_io", "setup"):
            write_calibration(calib, workdir / "restore.cal")
        np.save(workdir / "restore_truth.npy", np.clip(theta * scene, 0.0, _FULL_SCALE))

    def load(self, workdir: Path, seed: int) -> dict:
        return {
            "path": workdir / "restore.spk",
            "calib": read_calibration(workdir / "restore.cal"),
            "truth": np.load(workdir / "restore_truth.npy"),
        }

    def run_pass(self, inp: dict, tracer: Tracer) -> Pass:
        p = Pass(0.0, {})
        judging = 0.0
        start = time.perf_counter()
        stream = traced_read_stream(tracer, "load", inp["path"])
        p.phases["load_s"] = time.perf_counter() - start
        with tracer.span("streams.count_map", "load"):
            restorer = RecurrentRestorer(stream, inp["calib"])  # bootstraps the density map
        for t in self.ticks:
            t0 = time.perf_counter()
            try:
                if tracer.enabled:
                    output = replay_step(tracer, f"tick{t}", restorer, t).output
                else:
                    output = restorer.step(t).output
                error = None
            except Exception as exc:
                output, error = None, _error(exc)
            t1 = time.perf_counter()
            p.op_s.append(t1 - t0)
            p.judge(self, inp, output, error)
            judging += time.perf_counter() - t1
        p.wall = time.perf_counter() - start - judging
        return p

    def key(self, output) -> str:
        return _digest(output)

    def check(self, inp: dict, output) -> str | None:
        if not np.isfinite(output).all():
            return "frame has non-finite values"
        if output.min() < 0.0 or output.max() > _FULL_SCALE:
            return "frame outside [0, 255]"
        quality = psnr(inp["truth"], output)
        if quality < self.psnr_floor:
            return f"PSNR {quality:.2f} dB below the {self.psnr_floor} dB floor"
        return None


# ----------------------------------------------------------------------
# calibrate


class Calibrate:
    """Criterion 03 at a shorter length: record three scenes, then calibrate."""

    name = "calibrate"
    op_label = "calibration"
    side = 64
    length = 2048
    levels = (0.0, 30.0, 60.0)
    rms_r_max, rms_l_max = 0.02, 0.05

    def setup(self, seed: int, workdir: Path, tracer: Tracer) -> None:
        rng = np.random.default_rng(seed)
        R = rng.uniform(0.9, 1.1, (self.side, self.side))
        L_d = rng.uniform(0.5, 20.0, (self.side, self.side))
        ref = (self.side // 2, self.side // 2)
        # Criterion 03 divides R by its value at the reference pixel, which
        # scales the whole sensor's gain, and with it the spike count, time
        # and memory of this workload, by up to 10% from seed to seed.
        # Pinning R there to 1 keeps the same gauge at a steady total gain.
        R[ref[1], ref[0]] = 1.0
        with tracer.span("formats.calibration_io", "setup"):
            write_calibration(
                make_calibration(L_d, R, reference_pixel=ref), workdir / "planted.cal"
            )

    def load(self, workdir: Path, seed: int) -> dict:
        truth = read_calibration(workdir / "planted.cal")
        cfg = NoiseConfig(enable_quantization=False, rng_seed=seed)
        requests = [
            SimulationRequest(
                source=np.full((self.side, self.side), level),
                length=self.length,
                calib=truth,
                noise=cfg,
            )
            for level in self.levels
        ]
        return {"truth": truth, "requests": requests, "seed": seed, "workdir": workdir}

    def run_pass(self, inp: dict, tracer: Tracer) -> Pass:
        paths = [inp["workdir"] / f"scene{k}.spk" for k in range(len(self.levels))]
        cal_path = inp["workdir"] / "recovered.cal"
        request = "calibration"
        output = error = None
        start = recorded = time.perf_counter()
        try:
            rngs = split_rng(make_rng(inp["seed"]), len(self.levels))
            for req, rng, path in zip(inp["requests"], rngs, paths):
                stream = traced_simulate(tracer, request, req, rng)
                with tracer.span("formats.write_stream", request):
                    write_stream(stream, path)
            recorded = time.perf_counter()
            dark, light1, light2 = (traced_read_stream(tracer, request, p) for p in paths)
            L_1, L_2 = self.levels[1], self.levels[2]
            if tracer.enabled:
                calib = replay_build_calibration(tracer, request, dark, light1, L_1, light2, L_2)
            else:
                calib = build_calibration(dark, light1, L_1, light2, L_2)
            with tracer.span("formats.calibration_io", request):
                write_calibration(calib, cal_path)
                output = (calib, read_calibration(cal_path))
        except Exception as exc:
            error = _error(exc)
        end = time.perf_counter()
        p = Pass(end - start, {"record_s": recorded - start, "calibrate_s": end - recorded})
        p.judge(self, inp, output, error)
        return p

    def key(self, output) -> str:
        calib, _ = output
        return _digest(calib.L_d, calib.R, calib.Q_r, calib.D_dark, np.array(calib.reference_pixel))

    def check(self, inp: dict, output) -> str | None:
        calib, back = output
        truth = inp["truth"]
        rx, ry = calib.reference_pixel
        R_gauge = truth.R / truth.R[ry, rx]
        rms_r = float(np.sqrt(np.mean(((calib.R - R_gauge) / R_gauge) ** 2)))
        rms_l = float(np.sqrt(np.mean(((calib.L_d - truth.L_d) / truth.L_d) ** 2)))
        if rms_r > self.rms_r_max or rms_l > self.rms_l_max:
            return f"RMS relative error R {rms_r:.4f}, L_d {rms_l:.4f} out of bounds"
        same = all(
            np.array_equal(getattr(calib, m), getattr(back, m))
            for m in ("L_d", "R", "Q_r", "D_dark")
        )
        if not (same and calib.reference_pixel == back.reference_pixel and calib.clock == back.clock):
            return ".cal round trip is not bit-exact"
        return None


def replay_build_calibration(tracer, request, dark, light1, L_1, light2, L_2):
    """build_calibration with its default masking limit, one public call at
    a time, and mean_interval_map expanded into its stream scans."""
    intervals = []
    for stream in (dark, light1, light2):
        with tracer.span("calibration.interval_map", request):
            with tracer.span("streams.count_map", request):
                count = stream.count_map(0, stream.length)
            with tracer.span("streams.spike_edge_map", request):
                first = stream.spike_edge_map(0, stream.length)[0]
                last = stream.spike_edge_map(0, stream.length, from_end=True)[0]
            with np.errstate(invalid="ignore", divide="ignore"):
                interval = (last - first) / np.maximum(count - 1, 1)
            intervals.append(np.where(count >= 2, interval, np.inf))
    T_d, T_1, T_2 = intervals
    with tracer.span("calibration.estimate", request) as attrs:
        L_d = estimate_dark_equivalent(T_d, T_1, L_1)
        reference = select_reference_pixel(np.where(np.isnan(L_d), np.inf, T_2))
        R = estimate_nonuniformity(T_2, L_d, L_2, reference)
        masked = np.isnan(L_d) | np.isnan(R)
        n_masked = int(masked.sum())
        if n_masked > 0.1 * masked.size:
            raise CalibrationQualityError(f"{n_masked} of {masked.size} pixels failed calibration")
        calib = make_calibration(
            np.where(masked, 0.0, L_d), np.where(masked, 1.0, R), reference, dark.clock
        )
    attrs["masked_pixels"] = n_masked
    return calib


# ----------------------------------------------------------------------
# sweep


class Sweep:
    """The `spikecam bench` default: 5 scenes x 2 regimes x 7 methods at 96x96."""

    name = "sweep"
    op_label = "cell"
    size = 96
    # eval_tick and length are run_benchmark's defaults.
    length, eval_tick = 768, 512
    methods = [MethodSpec("tfp", w) for w in (32, 64, 128, 256)] + [
        MethodSpec("tfi"),
        MethodSpec("ast"),
        MethodSpec("recurrent"),
    ]

    def setup(self, seed: int, workdir: Path, tracer: Tracer) -> None:
        scenes = make_scenes(self.size)
        np.savez(
            workdir / "scenes.npz",
            names=np.array([s.name for s in scenes]),
            images=np.stack([s.image for s in scenes]),
        )
        with tracer.span("formats.calibration_io", "setup"):
            write_calibration(
                synthetic_calibration(self.size, self.size, seed=seed), workdir / "sweep.cal"
            )

    def load(self, workdir: Path, seed: int) -> dict:
        with np.load(workdir / "scenes.npz") as data:
            scenes = [Scene(str(n), img) for n, img in zip(data["names"], data["images"])]
        return {"scenes": scenes, "calib": read_calibration(workdir / "sweep.cal"), "seed": seed}

    def run_pass(self, inp: dict, tracer: Tracer) -> Pass:
        if tracer.enabled:
            return self._replay_pass(inp, tracer)
        start = time.perf_counter()
        try:
            rows, error = run_benchmark(inp["scenes"], inp["calib"], self.methods, inp["seed"]).rows, None
        except Exception as exc:
            rows, error = [None] * (2 * len(inp["scenes"]) * len(self.methods)), _error(exc)
        p = Pass(time.perf_counter() - start, {})
        for r in rows:
            output = None if r is None else (
                r.scene, r.illumination, r.method, r.parameter, r.psnr, r.ssim, r.stages, r.error
            )
            p.judge(self, inp, output, error)
        return p

    def _replay_pass(self, inp: dict, tracer: Tracer) -> Pass:
        """run_benchmark and its per-method scoring, one public call at a time."""
        seed, calib = inp["seed"], inp["calib"]
        cfg = NoiseConfig.all(seed)
        regimes = (("low", bench_mod.LOW_DENSITY_TARGET), ("high", bench_mod.HIGH_DENSITY_TARGET))
        cells = [(scene, regime) for scene in inp["scenes"] for regime in regimes]
        rows = []
        start = time.perf_counter()
        for (scene, (regime, target)), rng in zip(cells, split_rng(make_rng(seed), len(cells))):
            request = f"{scene.name}/{regime}"
            theta = theta_for_density(scene.image, target)
            req = SimulationRequest(
                source=scene.image, theta=theta, length=self.length, calib=calib, noise=cfg
            )
            stream = traced_simulate(tracer, request, req, rng)
            gt = np.clip(theta * scene.image, 0.0, _FULL_SCALE)
            with tracer.span("streams.count_map", request):
                peak_density = float(stream.density_map(0, self.length).max())
            illum = "high" if peak_density >= bench_mod.DENSITY_CLASS_THRESHOLD else "low"
            for spec in self.methods:
                cell = f"{request}/{spec.label}"
                with tracer.span("bench.cell", cell):
                    rows.append(self._replay_cell(tracer, cell, spec, stream, calib, gt, scene.name, illum))
        p = Pass(time.perf_counter() - start, {})
        for row in rows:
            p.judge(self, inp, row)
        return p

    def _replay_cell(self, tracer, cell, spec, stream, calib, gt, scene_name, illum):
        """One run_benchmark cell, mirroring how the harness scores a method."""
        stages = ()
        try:
            with tracer.span(f"reconstruct.method.{spec.kind}", cell):
                if spec.kind == "tfp":
                    image = tfp(stream, self.eval_tick, spec.window)
                elif spec.kind == "tfi":
                    image = tfi(stream, self.eval_tick)
                elif spec.kind == "ast":
                    with tracer.span("streams.count_map", cell):
                        state = RestorerState(density_map=stream.density_map(0, min(64, stream.length)))
                    with tracer.span("reconstruct.ast", cell):
                        adaptive = adaptive_transform(stream, self.eval_tick, state)
                    with tracer.span("reconstruct.fpn", cell):
                        image = correct_fixed_pattern(adaptive, calib)
                else:
                    result = self._replay_recurrent(tracer, cell, spec, stream, calib)
                    image = result.output
            if spec.kind == "recurrent":
                images = (result.adaptive, result.corrected, result.fused, result.denoised, result.output)
                stages = tuple(
                    (name, self._psnr(tracer, cell, gt, img), self._ssim(tracer, cell, gt, img))
                    for name, img in zip(bench_mod.STAGE_NAMES, images)
                )
        except Exception as exc:
            nan = float("nan")
            return (scene_name, illum, spec.label, spec.parameter, nan, nan, (), _error(exc))
        clipped = np.clip(image, 0.0, _FULL_SCALE)
        return (
            scene_name,
            illum,
            spec.label,
            spec.parameter,
            self._psnr(tracer, cell, gt, clipped),
            self._ssim(tracer, cell, gt, clipped),
            stages,
            None,
        )

    def _replay_recurrent(self, tracer, cell, spec, stream, calib) -> StepResult:
        spacing = max(1, self.eval_tick // spec.steps)
        ticks = [self.eval_tick - (spec.steps - 1 - i) * spacing for i in range(spec.steps)]
        with tracer.span("streams.count_map", cell):
            restorer = RecurrentRestorer(stream, calib)  # bootstraps the density map
        result = None
        for t in (t for t in ticks if t >= 0):
            result = replay_step(tracer, f"{cell}@{t}", restorer, t)
        return result

    @staticmethod
    def _psnr(tracer, cell, a, b) -> float:
        with tracer.span("metrics.psnr", cell):
            return psnr(a, b)

    @staticmethod
    def _ssim(tracer, cell, a, b) -> float:
        with tracer.span("metrics.ssim", cell):
            return ssim(a, b)

    def key(self, output) -> str:
        # repr of a float round-trips exactly, so equal keys mean equal rows.
        return repr(output)

    def check(self, inp: dict, output) -> str | None:
        return output[-1]  # the error run_benchmark recorded for the cell


WORKLOADS = {w.name: w for w in (Restore(), Calibrate(), Sweep())}
