"""Tests for the benchmark harness: scenes, method specs, and reports."""

from __future__ import annotations

import math
import os
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from spikecam import bench
from spikecam.bench import (
    BenchmarkReport,
    BenchRow,
    MethodSpec,
    Scene,
    make_scenes,
    make_translating_sequence,
    run_benchmark,
    synthetic_calibration,
    theta_for_density,
)
from spikecam.calibration import identity_calibration
from spikecam.noise import NoiseConfig


# ----------------------------------------------------------------------
# scenes


def test_scene_collection_names_and_range():
    scenes = make_scenes()
    assert [s.name for s in scenes] == ["blobs", "ramp", "bars", "dots", "plateau"]
    for scene in scenes:
        assert scene.image.shape == (96, 96)
        assert scene.image.dtype == np.float64
        assert scene.image.min() >= 64.0
        assert scene.image.max() <= 255.0


def test_scene_collection_is_deterministic():
    first = make_scenes()
    second = make_scenes()
    for a, b in zip(first, second):
        assert a.name == b.name
        assert_array_equal(a.image, b.image)


def test_scene_collection_custom_size():
    scenes = make_scenes(size=48)
    assert all(s.image.shape == (48, 48) for s in scenes)


def test_scene_collection_rejects_indivisible_size():
    with pytest.raises(ValueError):
        make_scenes(size=50)


def test_scene_freezes_image():
    raw = np.full((8, 8), 100.0)
    scene = Scene("flat", raw)
    assert not scene.image.flags.writeable
    with pytest.raises(ValueError):
        scene.image[0, 0] = 1.0


def test_scene_rejects_bad_images():
    with pytest.raises(ValueError):
        Scene("neg", np.full((8, 8), -1.0))
    with pytest.raises(ValueError):
        Scene("flat1d", np.zeros(8))
    with pytest.raises(ValueError):
        Scene("nan", np.full((8, 8), np.nan))


# ----------------------------------------------------------------------
# exposure solving


def test_theta_for_density_scales_with_peak():
    full = np.full((4, 4), 255.0)
    assert theta_for_density(full, 0.25) == pytest.approx(0.25)
    half = np.full((4, 4), 100.0)
    assert theta_for_density(half, 0.1) == pytest.approx(0.1 * 255.0 / 100.0)


def test_theta_for_density_uses_brightest_pixel():
    img = np.zeros((4, 4))
    img[2, 3] = 51.0
    # peak pixel should fire at exactly the requested density
    assert theta_for_density(img, 0.2) == pytest.approx(1.0)


def test_theta_for_density_allows_full_density():
    assert theta_for_density(np.full((2, 2), 255.0), 1.0) == pytest.approx(1.0)


def test_theta_for_density_validation():
    with pytest.raises(ValueError):
        theta_for_density(np.zeros((4, 4)), 0.2)
    with pytest.raises(ValueError):
        theta_for_density(np.full((4, 4), 10.0), 0.0)
    with pytest.raises(ValueError):
        theta_for_density(np.full((4, 4), 10.0), 1.5)


# ----------------------------------------------------------------------
# synthetic calibration


def test_synthetic_calibration_ranges_and_reference():
    calib = synthetic_calibration(16, 12, seed=5)
    assert calib.R.shape == (12, 16)
    assert calib.L_d.shape == (12, 16)
    assert np.all((calib.R >= 0.9) & (calib.R <= 1.1))
    assert np.all((calib.L_d >= 0.2) & (calib.L_d <= 2.0))
    assert calib.reference_pixel == (8, 6)


def test_synthetic_calibration_seed_control():
    a = synthetic_calibration(8, 8, seed=1)
    b = synthetic_calibration(8, 8, seed=1)
    c = synthetic_calibration(8, 8, seed=2)
    assert_array_equal(a.R, b.R)
    assert_array_equal(a.L_d, b.L_d)
    assert not np.array_equal(a.R, c.R)


# ----------------------------------------------------------------------
# translating sequences


def test_translating_sequence_starts_at_identity():
    img = np.arange(48.0).reshape(6, 8)
    frames = make_translating_sequence(img, 4, 0.25)
    assert frames.shape == (4, 6, 8)
    assert_array_equal(frames[0], img)


def test_translating_sequence_floors_the_displacement():
    img = np.arange(48.0).reshape(6, 8)
    frames = make_translating_sequence(img, 5, 0.5)
    # shifts floor(0.5 * t) = 0, 0, 1, 1, 2
    assert_array_equal(frames[1], img)
    assert_array_equal(frames[2], np.roll(img, 1, axis=1))
    assert_array_equal(frames[3], np.roll(img, 1, axis=1))
    assert_array_equal(frames[4], np.roll(img, 2, axis=1))


def test_translating_sequence_wraps_around():
    img = np.arange(32.0).reshape(4, 8)
    frames = make_translating_sequence(img, 9, 1.0)
    assert_array_equal(frames[8], img)
    assert_array_equal(frames[3], np.roll(img, 3, axis=1))


def test_translating_sequence_zero_velocity_is_static():
    img = np.arange(32.0).reshape(4, 8)
    frames = make_translating_sequence(img, 6, 0.0)
    for t in range(6):
        assert_array_equal(frames[t], img)


def test_translating_sequence_rejects_empty():
    with pytest.raises(ValueError):
        make_translating_sequence(np.ones((4, 4)), 0, 0.5)


# ----------------------------------------------------------------------
# method specs


def test_method_spec_labels():
    assert MethodSpec("tfp", window=32).label == "tfp(w=32)"
    assert MethodSpec("tfp", window=32).parameter == "32"
    assert MethodSpec("tfi").label == "tfi"
    assert MethodSpec("tfi").parameter == ""
    assert MethodSpec("ast").label == "ast"
    assert MethodSpec("recurrent", steps=4).label == "recurrent"


def test_method_spec_validation():
    with pytest.raises(ValueError):
        MethodSpec("tfp")
    with pytest.raises(ValueError):
        MethodSpec("tfp", window=0)
    with pytest.raises(ValueError):
        MethodSpec("tfi", window=32)
    with pytest.raises(ValueError):
        MethodSpec("ast", window=8)
    with pytest.raises(ValueError):
        MethodSpec("recurrent", steps=0)
    with pytest.raises(ValueError):
        MethodSpec("median")


# ----------------------------------------------------------------------
# rows


def test_bench_row_validation():
    good = dict(
        scene="a", illumination="low", method="tfi", parameter="",
        psnr=30.0, ssim=0.9, runtime=0.1,
    )
    BenchRow(**good)
    with pytest.raises(ValueError):
        BenchRow(**{**good, "illumination": "dim"})
    with pytest.raises(ValueError):
        BenchRow(**{**good, "psnr": -1.0})
    with pytest.raises(ValueError):
        BenchRow(**{**good, "ssim": 1.5})


def test_bench_row_error_rows_skip_metric_checks():
    row = BenchRow(
        scene="a", illumination="low", method="recurrent", parameter="",
        psnr=float("nan"), ssim=float("nan"), runtime=0.0,
        error="ValueError: boom",
    )
    assert math.isnan(row.psnr)
    assert row.error == "ValueError: boom"


# ----------------------------------------------------------------------
# harness


def _tiny_scene(name: str = "tiny", size: int = 16) -> Scene:
    axis = np.linspace(64.0, 255.0, size)
    return Scene(name, np.tile(axis, (size, 1)))


def test_run_benchmark_row_layout():
    scene = _tiny_scene()
    calib = synthetic_calibration(16, 16, seed=3)
    methods = [
        MethodSpec("tfp", window=16),
        MethodSpec("tfi"),
        MethodSpec("ast"),
        MethodSpec("recurrent", steps=2),
    ]
    report = run_benchmark(
        [scene], calib, methods, seed=7,
        noise=NoiseConfig.none(), length=192, eval_tick=128,
    )
    assert report.seed == 7
    assert report.scenes == ("tiny",)
    # one row per (regime, method) cell, methods kept in order
    assert len(report.rows) == 2 * len(methods)
    assert [r.method for r in report.rows[:4]] == ["tfp(w=16)", "tfi", "ast", "recurrent"]
    for row in report.rows:
        assert row.scene == "tiny"
        assert row.illumination in ("low", "high")
        assert row.error is None
        assert row.runtime >= 0.0
        assert row.psnr >= 0.0 or math.isinf(row.psnr)
        assert -1.0 <= row.ssim <= 1.0
        if row.method == "recurrent":
            assert [name for name, _, _ in row.stages] == [
                "input", "fpn", "fuse", "denoise", "refine",
            ]
        else:
            assert row.stages == ()


def test_run_benchmark_labels_both_regimes():
    scene = _tiny_scene()
    calib = identity_calibration(16, 16)
    report = run_benchmark(
        [scene], calib, [MethodSpec("tfi")], seed=1,
        noise=NoiseConfig.none(), length=96, eval_tick=64,
    )
    assert [r.illumination for r in report.rows] == ["low", "high"]


def test_run_benchmark_metrics_are_reproducible():
    scene = _tiny_scene()
    calib = synthetic_calibration(16, 16, seed=3)
    methods = [MethodSpec("tfp", window=32)]
    kwargs = dict(length=256, eval_tick=192)
    a = run_benchmark([scene], calib, methods, seed=11, **kwargs)
    b = run_benchmark([scene], calib, methods, seed=11, **kwargs)
    c = run_benchmark([scene], calib, methods, seed=12, **kwargs)
    # runtime is wall clock, so compare the metric fields only
    assert [(r.psnr, r.ssim) for r in a.rows] == [(r.psnr, r.ssim) for r in b.rows]
    assert [r.psnr for r in a.rows] != [r.psnr for r in c.rows]


def test_run_benchmark_noiseless_flat_scene_is_exact():
    # theta 0.25 on a flat 255 scene fires every 4 ticks exactly, so a
    # window-64 rate readout reproduces the exposed image bit for bit
    scene = Scene("flat", np.full((16, 16), 255.0))
    calib = identity_calibration(16, 16)
    report = run_benchmark(
        [scene], calib, [MethodSpec("tfp", window=64)], seed=0,
        noise=NoiseConfig.none(), length=192, eval_tick=128,
    )
    high = [r for r in report.rows if r.illumination == "high"]
    assert len(high) == 1
    assert math.isinf(high[0].psnr)
    assert high[0].ssim == 1.0
    assert "inf" in report.to_csv()


def test_run_benchmark_records_method_failure_and_continues():
    # 12 is divisible by 4 but not 8, so the recurrent pipeline cannot
    # build its transform pyramid while the plain rate readout still can
    scene = _tiny_scene("odd", size=12)
    calib = identity_calibration(12, 12)
    report = run_benchmark(
        [scene], calib,
        [MethodSpec("tfp", window=16), MethodSpec("recurrent", steps=1)],
        seed=5, noise=NoiseConfig.none(), length=96, eval_tick=64,
    )
    by_method = {}
    for row in report.rows:
        by_method.setdefault(row.method, []).append(row)
    for row in by_method["recurrent"]:
        assert row.error is not None
        assert math.isnan(row.psnr)
        assert row.stages == ()
    for row in by_method["tfp(w=16)"]:
        assert row.error is None
    summary = report.to_summary().splitlines()
    assert summary[0] == "4 cells, 2 failed"
    assert summary[-1].split() == ["recurrent", "all", "cells", "failed"]


def test_run_benchmark_validation():
    scene = _tiny_scene()
    calib = identity_calibration(16, 16)
    methods = [MethodSpec("tfi")]
    with pytest.raises(ValueError):
        run_benchmark([], calib, methods, seed=0)
    with pytest.raises(ValueError):
        run_benchmark([scene], calib, [], seed=0)
    with pytest.raises(ValueError):
        run_benchmark([scene], calib, methods, seed=0, length=64, eval_tick=64)
    with pytest.raises(ValueError):
        run_benchmark([scene], calib, methods, seed=0, length=64, eval_tick=-1)


def _csv_without_runtime(report: BenchmarkReport) -> list[list[str]]:
    lines = [line.split(",") for line in report.to_csv().splitlines()]
    col = lines[0].index("runtime_s")
    return [cells[:col] + cells[col + 1 :] for cells in lines]


def _concurrent_sweep_args():
    scenes = make_scenes(16)[:3]
    calib = synthetic_calibration(16, 16, seed=3)
    methods = [MethodSpec("tfp", window=16), MethodSpec("tfi"), MethodSpec("recurrent", steps=2)]
    return (scenes, calib, methods, 7), dict(length=192, eval_tick=128)


def test_run_benchmark_keeps_cell_order_when_the_first_cell_finishes_last(monkeypatch):
    args, kwargs = _concurrent_sweep_args()
    scenes = args[0]
    undelayed = run_benchmark(*args, **kwargs)

    first_theta = theta_for_density(scenes[0].image, bench.LOW_DENSITY_TARGET)
    others = 2 * len(scenes) - 1
    lock = threading.Lock()
    others_done = threading.Event()
    finished = []
    real_simulate = bench.simulate

    def simulate(req, rng):
        first = np.array_equal(req.source, scenes[0].image) and req.theta == first_theta
        if first:
            # Hold the first cell back until every other cell has simulated.
            others_done.wait(timeout=30)
        stream = real_simulate(req, rng)
        with lock:
            finished.append(first)
            if len(finished) == others:
                others_done.set()
        return stream

    monkeypatch.setattr(bench, "simulate", simulate)
    report = run_benchmark(*args, **kwargs)
    # run_benchmark's pool size, with its fallback where sched_getaffinity is missing.
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if (workers or 1) > 1:
        assert finished[-1] and not any(finished[:-1])
    expected = [
        (scene.name, illum, spec.label)
        for scene in scenes
        for illum in ("low", "high")
        for spec in args[2]
    ]
    assert [(r.scene, r.illumination, r.method) for r in report.rows] == expected
    assert _csv_without_runtime(report) == _csv_without_runtime(undelayed)


def test_run_benchmark_propagates_a_simulation_failure(monkeypatch):
    args, kwargs = _concurrent_sweep_args()
    real_simulate = bench.simulate

    def simulate(req, rng):
        if np.array_equal(req.source, args[0][1].image):
            raise RuntimeError("sensor exploded")
        return real_simulate(req, rng)

    monkeypatch.setattr(bench, "simulate", simulate)
    with pytest.raises(RuntimeError, match="sensor exploded"):
        run_benchmark(*args, **kwargs)


@pytest.mark.parametrize("bad", ["all-zero", "4x4"])
def test_run_benchmark_checks_every_scene_before_simulating(monkeypatch, bad):
    calls = []
    monkeypatch.setattr(bench, "simulate", lambda *args: calls.append(args))
    if bad == "all-zero":
        # the good scene comes first: no cell runs, not even its own
        scenes = [_tiny_scene(), Scene("zero", np.zeros((16, 16)))]
    else:
        scenes = [Scene("small", np.full((4, 4), 100.0))]
    calib = identity_calibration(*scenes[-1].image.shape)
    with pytest.raises(ValueError):
        run_benchmark(scenes, calib, [MethodSpec("tfp", window=16)], 0, length=160, eval_tick=96)
    assert calls == []


def test_run_benchmark_sizes_its_pool_without_sched_getaffinity(monkeypatch):
    # macOS and Windows have no sched_getaffinity; the pool takes cpu_count.
    args = ([_tiny_scene()], identity_calibration(16, 16), [MethodSpec("tfp", window=16)], 2)
    kwargs = dict(noise=NoiseConfig.none(), length=160, eval_tick=96)
    expected = run_benchmark(*args, **kwargs)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    report = run_benchmark(*args, **kwargs)
    assert _csv_without_runtime(report) == _csv_without_runtime(expected)


# ----------------------------------------------------------------------
# report serialization


def _small_report() -> BenchmarkReport:
    scene = _tiny_scene()
    calib = identity_calibration(16, 16)
    methods = [MethodSpec("tfp", window=16), MethodSpec("recurrent", steps=2)]
    return run_benchmark(
        [scene], calib, methods, seed=2,
        noise=NoiseConfig.none(), length=160, eval_tick=96,
    )


def test_report_csv_layout():
    report = _small_report()
    lines = report.to_csv().strip().split("\n")
    header = lines[0].split(",")
    assert header[:7] == [
        "scene", "illumination", "method", "parameter", "psnr", "ssim", "runtime_s",
    ]
    assert header[7:12] == [
        "stage_input_psnr", "stage_fpn_psnr", "stage_fuse_psnr",
        "stage_denoise_psnr", "stage_refine_psnr",
    ]
    assert header[12] == "error"
    assert len(lines) == 1 + len(report.rows)
    for line in lines[1:]:
        assert len(line.split(",")) == len(header)
    # stage columns are blank on non-recurrent rows, populated otherwise
    tfp_cells = lines[1].split(",")
    assert tfp_cells[2] == "tfp(w=16)"
    assert tfp_cells[7:12] == [""] * 5
    rec_cells = lines[2].split(",")
    assert rec_cells[2] == "recurrent"
    assert all(cell != "" for cell in rec_cells[7:12])


def test_report_text_layout():
    report = _small_report()
    lines = report.to_text().strip().split("\n")
    assert lines[0] == "spikebench 1"
    assert lines[1] == "seed 2"
    assert lines[2] == "scenes tiny"
    row_lines = [l for l in lines if l.startswith("row ")]
    stage_lines = [l for l in lines if l.startswith("  stage ")]
    assert len(row_lines) == len(report.rows)
    assert len(stage_lines) == 2 * 5
    assert "method=tfp(w=16)" in row_lines[0]


def test_report_text_includes_error():
    report = BenchmarkReport(
        seed=0,
        scenes=("x",),
        rows=(
            BenchRow(
                scene="x", illumination="low", method="recurrent", parameter="",
                psnr=float("nan"), ssim=float("nan"), runtime=0.0,
                error="ValueError: boom",
            ),
        ),
    )
    assert "error='ValueError: boom'" in report.to_text()
    csv = report.to_csv().strip().split("\n")[1]
    assert csv.endswith("ValueError: boom")


def test_summary_splits_psnr_by_illumination():
    rows = tuple(
        BenchRow(
            scene="x", illumination=illum, method="tfp", parameter="w=16",
            psnr=psnr, ssim=0.5, runtime=0.0,
        )
        for illum, psnr in (("low", 20.0), ("high", 30.0), ("high", 34.0))
    )
    summary = BenchmarkReport(seed=0, scenes=("x",), rows=rows).to_summary().splitlines()
    assert summary[2].split() == ["tfp", "20.00", "32.00", "28.00", "0.5000"]
