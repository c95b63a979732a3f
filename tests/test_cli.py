"""End-to-end tests of the command-line interface.

Each test drives `main` in process and checks exit codes, printed
output, and the files the commands leave behind.
"""

from __future__ import annotations

import itertools
import os
import resource
import stat
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spikecam import cli
from spikecam.bench import DEFAULT_METHODS, Scene, run_benchmark, synthetic_calibration
from spikecam.cli import main
from spikecam.calibration import make_calibration
from spikecam.formats import (
    SPIKE_MAGIC,
    read_calibration,
    read_image,
    read_stream,
    write_calibration,
    write_image,
    write_stream,
)
from spikecam.noise import NoiseConfig
from spikecam.simulate import SimulationRequest, simulate
from spikecam.streams import SpikeStream


def _write_pgm(path, image):
    write_image(np.asarray(image, dtype=np.float64), str(path))
    return str(path)


def _gradient(height=16, width=16):
    return (np.arange(width) * 8.0)[None, :] + np.arange(height)[:, None] * 2.0


def _periodic_stream(period: int, length: int, width=16, height=16,
                     silent=()) -> SpikeStream:
    dense = np.zeros((length, height, width), dtype=bool)
    dense[period - 1 :: period] = True
    for y, x in silent:
        dense[:, y, x] = False
    return SpikeStream.from_dense(dense)


# ----------------------------------------------------------------------
# exit codes


def test_unknown_command_is_a_usage_error(tmp_path, capsys):
    assert main(["frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_flag_is_a_usage_error(tmp_path, capsys):
    img = _write_pgm(tmp_path / "a.pgm", _gradient())
    assert main(["eval", "--gt", img, "--pred", img, "--bogus"]) == 1


def test_missing_required_argument_is_a_usage_error(capsys):
    assert main(["simulate", "--length", "8"]) == 1


def test_bad_noise_token_is_a_usage_error(tmp_path, capsys):
    img = _write_pgm(tmp_path / "a.pgm", _gradient())
    code = main([
        "simulate", "--input", img, "--length", "8",
        "--noise", "shot,warp", "--out", str(tmp_path / "s.spk"),
    ])
    assert code == 1
    assert "warp" in capsys.readouterr().err


def test_simulate_needs_exactly_one_source(tmp_path, capsys):
    img = _write_pgm(tmp_path / "a.pgm", _gradient())
    out = str(tmp_path / "s.spk")
    assert main(["simulate", "--length", "8", "--out", out]) == 1
    assert main([
        "simulate", "--input", img, "--sequence", str(tmp_path),
        "--length", "8", "--out", out,
    ]) == 1


def test_missing_input_file_is_a_data_error(tmp_path, capsys):
    img = _write_pgm(tmp_path / "a.pgm", _gradient())
    assert main(["eval", "--gt", str(tmp_path / "nope.pgm"), "--pred", img]) == 2


def test_corrupt_stream_is_a_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.spk"
    bad.write_bytes(b"JUNKFILE" + b"\x00" * 40)
    assert main(["inspect", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_non_ascii_calibration_is_a_data_error(tmp_path, capsys):
    img = _write_pgm(tmp_path / "flat.pgm", np.full((16, 16), 51.0))
    cal = tmp_path / "bad.cal"
    cal.write_bytes(b"spikecal 1\nwidth \xff\n")
    assert main([
        "simulate", "--input", img, "--length", "8", "--calib", str(cal),
        "--out", str(tmp_path / "s.spk"),
    ]) == 2
    assert "error:" in capsys.readouterr().err



def _calibration_8x8(tmp_path):
    path = tmp_path / "small.cal"
    write_calibration(make_calibration(np.zeros((8, 8)), np.ones((8, 8))), path)
    return str(path)


def _assert_shape_mismatch_is_a_data_error(argv, capsys):
    assert main(argv) == 2
    assert (
        "error: calibration shape (8, 8) does not match data shape (16, 16)"
        in capsys.readouterr().err
    )


def test_simulate_calibration_shape_mismatch_is_a_data_error(tmp_path, capsys):
    img = _write_pgm(tmp_path / "flat.pgm", np.full((16, 16), 51.0))
    _assert_shape_mismatch_is_a_data_error([
        "simulate", "--input", img, "--length", "8",
        "--calib", _calibration_8x8(tmp_path), "--out", str(tmp_path / "s.spk"),
    ], capsys)


def test_reconstruct_calibration_shape_mismatch_is_a_data_error(tmp_path, capsys):
    stream = _periodic_stream(4, 32)
    path = tmp_path / "s.spk"
    write_stream(stream, path)
    _assert_shape_mismatch_is_a_data_error([
        "reconstruct", str(path), "--method", "ast", "--at", "8",
        "--calib", _calibration_8x8(tmp_path), "--out-prefix", str(tmp_path / "o-"),
    ], capsys)


def test_bench_calibration_shape_mismatch_is_a_data_error(tmp_path, capsys):
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    _write_pgm(scenes / "flat.pgm", np.full((16, 16), 51.0))
    _assert_shape_mismatch_is_a_data_error([
        "bench", "--scenes", str(scenes), "--calib", _calibration_8x8(tmp_path),
    ], capsys)


def _assert_size_mismatch_is_a_data_error(argv, small, large, capsys):
    assert main(argv) == 2
    assert f"error: {large} is 24x24 but {small} is 16x16" in capsys.readouterr().err


def test_bench_scenes_of_two_sizes_are_a_data_error(tmp_path, capsys):
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    small = _write_pgm(scenes / "a.pgm", _gradient(16, 16))
    large = _write_pgm(scenes / "b.pgm", _gradient(24, 24))
    _assert_size_mismatch_is_a_data_error(["bench", "--scenes", str(scenes)], small, large, capsys)


def test_simulate_sequence_frames_of_two_sizes_are_a_data_error(tmp_path, capsys):
    frames = tmp_path / "frames"
    frames.mkdir()
    small = _write_pgm(frames / "000.pgm", _gradient(16, 16))
    large = _write_pgm(frames / "001.pgm", _gradient(24, 24))
    _assert_size_mismatch_is_a_data_error([
        "simulate", "--sequence", str(frames), "--length", "2", "--out", str(tmp_path / "s.spk"),
    ], small, large, capsys)


def test_calibrate_recordings_of_two_sizes_are_a_data_error(tmp_path, capsys):
    dark = tmp_path / "dark.spk"
    light = tmp_path / "light.spk"
    write_stream(_periodic_stream(5, 40), str(dark))
    write_stream(_periodic_stream(4, 40, width=24, height=24), str(light))
    _assert_size_mismatch_is_a_data_error([
        "calibrate", "--dark", str(dark), "--light1", f"{dark}:51",
        "--light2", f"{light}:63.75", "--out", str(tmp_path / "sensor.cal"),
    ], dark, light, capsys)


# ----------------------------------------------------------------------
# eval


def test_eval_identical_images_reports_perfect_scores(tmp_path, capsys):
    img = _write_pgm(tmp_path / "a.pgm", _gradient())
    assert main(["eval", "--gt", img, "--pred", img]) == 0
    assert capsys.readouterr().out.strip() == "psnr=inf ssim=1.0"


def test_eval_reports_offset_psnr(tmp_path, capsys):
    gt = _gradient()
    a = _write_pgm(tmp_path / "a.pgm", gt)
    b = _write_pgm(tmp_path / "b.pgm", gt + 16.0)
    assert main(["eval", "--gt", a, "--pred", b]) == 0
    out = capsys.readouterr().out
    value = float(out.split("psnr=")[1].split()[0])
    assert value == pytest.approx(20.0 * np.log10(255.0 / 16.0), abs=1e-3)


def _assert_one_error_line(err: str) -> None:
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in err


def test_eval_images_of_two_sizes_are_a_data_error(tmp_path, capsys):
    small = _write_pgm(tmp_path / "a.pgm", _gradient(16, 16))
    large = _write_pgm(tmp_path / "b.pgm", _gradient(24, 24))
    assert main(["eval", "--gt", small, "--pred", large]) == 2
    err = capsys.readouterr().err
    _assert_one_error_line(err)
    assert f"error: {large} is 24x24 but {small} is 16x16" in err


def test_eval_images_below_the_ssim_window_are_a_data_error(tmp_path, capsys):
    a = _write_pgm(tmp_path / "a.pgm", _gradient(8, 8))
    b = _write_pgm(tmp_path / "b.pgm", _gradient(8, 8) + 4.0)
    assert main(["eval", "--gt", a, "--pred", b]) == 2
    err = capsys.readouterr().err
    _assert_one_error_line(err)
    assert "11x11" in err


# ----------------------------------------------------------------------
# simulate and inspect


def test_simulate_then_inspect_reports_density(tmp_path, capsys):
    img = _write_pgm(tmp_path / "flat.pgm", np.full((16, 16), 51.0))
    out = str(tmp_path / "s.spk")
    assert main([
        "simulate", "--input", img, "--length", "100",
        "--noise", "none", "--out", out,
    ]) == 0
    assert main(["inspect", out]) == 0
    text = capsys.readouterr().out
    assert "width 16" in text
    assert "height 16" in text
    assert "length 100" in text
    assert "tick_nanoseconds 50000" in text
    assert "mean density 0.2" in text
    # every pixel fires on the same 20 of the 100 ticks
    histogram = text.split("frame density histogram\n")[1].splitlines()
    assert histogram == [
        "  0.0-0.1 80", *(f"  0.{i}-0.{i + 1} 0" for i in range(1, 9)), "  0.9-1.0 20",
    ]


def test_simulate_takes_one_tick_and_seeds_with_zero_by_default(tmp_path):
    img = _write_pgm(tmp_path / "flat.pgm", np.full((16, 16), 51.0))
    paths = [tmp_path / f"{name}.spk" for name in ("one", "default", "zero")]
    assert main(["simulate", "--input", img, "--length", "1", "--out", str(paths[0])]) == 0
    assert read_stream(str(paths[0])).length == 1
    assert main(["simulate", "--input", img, "--length", "64", "--out", str(paths[1])]) == 0
    assert main([
        "simulate", "--input", img, "--length", "64", "--seed", "0", "--out", str(paths[2]),
    ]) == 0
    assert paths[1].read_bytes() == paths[2].read_bytes()


def test_inspect_a_zero_tick_stream_prints_only_the_header(tmp_path, capsys):
    path = tmp_path / "empty.spk"
    write_stream(SpikeStream(width=16, height=8, length=0), str(path))
    assert main(["inspect", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "width 16", "height 8", "length 0", "tick_nanoseconds 50000",
    ]


def test_simulate_noise_list_matches_the_library_with_those_sources(tmp_path):
    img_path = _write_pgm(tmp_path / "scene.pgm", _gradient())
    calib_path = str(tmp_path / "sensor.cal")
    calib = synthetic_calibration(16, 16, seed=4)
    write_calibration(calib, calib_path)
    cli_out = tmp_path / "cli.spk"
    assert main([
        "simulate", "--input", img_path, "--length", "64", "--calib", calib_path,
        "--noise", "rnu, shot", "--seed", "9", "--out", str(cli_out),
    ]) == 0
    noise = NoiseConfig(
        enable_shot=True, enable_dark=False, enable_nonuniformity=True,
        enable_quantization=False, rng_seed=9,
    )
    req = SimulationRequest(source=read_image(img_path), length=64, calib=calib, noise=noise)
    assert read_stream(str(cli_out)) == simulate(req)


def test_simulate_cli_matches_direct_library_call(tmp_path):
    img = _gradient()
    img_path = _write_pgm(tmp_path / "scene.pgm", img)
    cli_out = tmp_path / "cli.spk"
    assert main([
        "simulate", "--input", img_path, "--length", "64",
        "--theta", "0.5", "--seed", "9", "--out", str(cli_out),
    ]) == 0
    req = SimulationRequest(
        source=read_image(img_path), theta=0.5, length=64,
        noise=NoiseConfig.all(9),
    )
    lib_out = tmp_path / "lib.spk"
    write_stream(simulate(req), str(lib_out))
    assert cli_out.read_bytes() == lib_out.read_bytes()


# ----------------------------------------------------------------------
# reconstruct


def _flat_stream_file(tmp_path, length=100):
    img = _write_pgm(tmp_path / "flat.pgm", np.full((16, 16), 51.0))
    out = str(tmp_path / "flat.spk")
    assert main([
        "simulate", "--input", img, "--length", str(length),
        "--noise", "none", "--out", out,
    ]) == 0
    return out


def test_reconstruct_tfp_recovers_flat_scene(tmp_path, capsys):
    stream = _flat_stream_file(tmp_path)
    prefix = str(tmp_path / "out-")
    assert main([
        "reconstruct", stream, "--method", "tfp", "--window", "25",
        "--at", "50", "--out-prefix", prefix,
    ]) == 0
    assert f"wrote {prefix}000050.pgm" in capsys.readouterr().out
    # intensity 51 fires every 5 ticks, so a 25-tick window is exact up
    # to the 16-bit graymap quantization step
    image = read_image(prefix + "000050.pgm")
    assert_allclose(image, 51.0, atol=0.01)


def test_reconstruct_tfp_requires_window(tmp_path, capsys):
    stream = _flat_stream_file(tmp_path)
    assert main([
        "reconstruct", stream, "--method", "tfp",
        "--at", "50", "--out-prefix", str(tmp_path / "o-"),
    ]) == 1


def test_reconstruct_rejects_malformed_ticks(tmp_path, capsys):
    stream = _flat_stream_file(tmp_path)
    assert main([
        "reconstruct", stream, "--method", "tfi",
        "--at", "5,x", "--out-prefix", str(tmp_path / "o-"),
    ]) == 1


def test_reconstruct_recurrent_writes_one_file_per_tick(tmp_path, capsys):
    stream = _flat_stream_file(tmp_path, length=128)
    prefix = str(tmp_path / "r-")
    assert main([
        "reconstruct", stream, "--method", "rsir",
        "--at", "64,96", "--out-prefix", prefix,
    ]) == 0
    out = capsys.readouterr().out
    for tick in (64, 96):
        path = f"{prefix}{tick:06d}.pgm"
        assert f"wrote {path}" in out
        image = read_image(path)
        assert image.shape == (16, 16)
        assert np.all((image >= 0.0) & (image <= 255.0))


@pytest.mark.parametrize("method", ["tfp", "tfi", "ast", "rsir"])
@pytest.mark.parametrize("tick", ["-1", "100"])
def test_reconstruct_tick_outside_stream_is_a_usage_error(tmp_path, capsys, method, tick):
    stream = _flat_stream_file(tmp_path, length=100)
    window = ["--window", "4"] if method == "tfp" else []
    code = main([
        "reconstruct", stream, "--method", method, *window,
        "--at", tick, "--out-prefix", str(tmp_path / "o-"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: tick {tick} outside stream of length 100" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("o-*"))


def test_reconstruct_checks_ticks_before_building_a_calibration(tmp_path, capsys):
    # A bare header declaring a 2048x2048 sensor and no ticks: an identity
    # calibration of that size alone is several hundred MiB.
    path = tmp_path / "empty.spk"
    path.write_bytes(struct.pack("<8sIIQQI", SPIKE_MAGIC, 2048, 2048, 0, 50000, 0))
    tracemalloc.start()
    try:
        code = main([
            "reconstruct", str(path), "--method", "tfi",
            "--at", "0", "--out-prefix", str(tmp_path / "o-"),
        ])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err
    _assert_one_error_line(err)
    assert "error: tick 0 outside stream of length 0" in err
    assert peak <= 16 * 2**20


def test_reconstruct_rsir_on_an_indivisible_stream_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "s.spk"
    write_stream(_periodic_stream(4, 32, width=20, height=12), path)
    assert main([
        "reconstruct", str(path), "--method", "rsir",
        "--at", "8", "--out-prefix", str(tmp_path / "o-"),
    ]) == 2
    err = capsys.readouterr().err
    _assert_one_error_line(err)
    assert f"error: {path} is 20x12" in err
    assert not list(tmp_path.glob("o-*"))


# ----------------------------------------------------------------------
# calibrate


def test_calibrate_zero_length_recording_is_a_data_error(tmp_path, capsys):
    dark = tmp_path / "dark.spk"
    light = tmp_path / "light.spk"
    write_stream(SpikeStream(width=16, height=16, length=0), str(dark))
    write_stream(_periodic_stream(4, 40), str(light))
    assert main([
        "calibrate", "--dark", str(dark), "--light1", f"{light}:51",
        "--light2", f"{light}:63.75", "--out", str(tmp_path / "sensor.cal"),
    ]) == 2
    err = capsys.readouterr().err
    _assert_one_error_line(err)
    assert f"error: {dark} " in err


def test_calibrate_round_trip_on_uniform_streams(tmp_path):
    dark = tmp_path / "dark.spk"
    light1 = tmp_path / "l1.spk"
    light2 = tmp_path / "l2.spk"
    write_stream(SpikeStream.from_dense(np.zeros((100, 16, 16), dtype=bool)), str(dark))
    write_stream(_periodic_stream(5, 100), str(light1))
    write_stream(_periodic_stream(4, 100), str(light2))
    out = tmp_path / "sensor.cal"
    assert main([
        "calibrate", "--dark", str(dark),
        "--light1", f"{light1}:51", "--light2", f"{light2}:63.75",
        "--out", str(out),
    ]) == 0
    calib = read_calibration(str(out))
    assert_allclose(calib.L_d, 0.0)
    assert_allclose(calib.R, 1.0)


def test_calibrate_too_many_dead_pixels_exits_3(tmp_path, capsys):
    silent = [(0, 0), (1, 1), (2, 2)]
    dark = tmp_path / "dark.spk"
    light1 = tmp_path / "l1.spk"
    light2 = tmp_path / "l2.spk"
    write_stream(SpikeStream.from_dense(np.zeros((100, 4, 4), dtype=bool)), str(dark))
    write_stream(_periodic_stream(5, 100, width=4, height=4, silent=silent), str(light1))
    write_stream(_periodic_stream(4, 100, width=4, height=4, silent=silent), str(light2))
    code = main([
        "calibrate", "--dark", str(dark),
        "--light1", f"{light1}:51", "--light2", f"{light2}:63.75",
        "--out", str(tmp_path / "sensor.cal"),
    ])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_calibrate_rejects_malformed_light_spec(tmp_path, capsys):
    dark = tmp_path / "dark.spk"
    write_stream(_periodic_stream(5, 20), str(dark))
    code = main([
        "calibrate", "--dark", str(dark),
        "--light1", str(dark), "--light2", f"{dark}:63.75",
        "--out", str(tmp_path / "sensor.cal"),
    ])
    assert code == 1


# ----------------------------------------------------------------------
# bench


def test_bench_runs_on_a_scene_directory(tmp_path, capsys):
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    _write_pgm(scenes / "tiny.pgm", np.tile(np.linspace(64.0, 255.0, 16), (16, 1)))
    report_path = tmp_path / "report.txt"
    assert main([
        "bench", "--scenes", str(scenes), "--seed", "3",
        "--report", str(report_path),
    ]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().split("\n")
    assert lines[0].startswith("scene,illumination,method,parameter,psnr,ssim,runtime_s")
    # 2 regimes x (4 tfp windows + tfi + ast + recurrent)
    assert len(lines) == 1 + 14
    assert all(line.startswith("tiny,") for line in lines[1:])
    summary = captured.err.strip().split("\n")
    assert summary[0] == "14 cells, 0 failed"
    assert summary[1].split() == ["method", "low", "dB", "high", "dB", "mean", "dB", "ssim"]
    assert [row.split()[0] for row in summary[2:]] == [
        "tfp(w=32)", "tfp(w=64)", "tfp(w=128)", "tfp(w=256)", "tfi", "ast", "recurrent",
    ]
    assert report_path.read_text().startswith("spikebench 1\nseed 3\nscenes tiny\n")


def test_bench_report_names_a_non_ascii_scene(tmp_path, capsys):
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    _write_pgm(scenes / "café.pgm", np.tile(np.linspace(64.0, 255.0, 16), (16, 1)))
    report_path = tmp_path / "report.txt"
    assert main([
        "bench", "--scenes", str(scenes), "--seed", "3",
        "--report", str(report_path),
    ]) == 0
    assert "scenes café\n" in report_path.read_text(encoding="utf-8")


def test_bench_empty_scene_directory_is_a_data_error(tmp_path, capsys):
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    assert main(["bench", "--scenes", str(scenes)]) == 2


@pytest.fixture(scope="module")
def tiny_report():
    """One real bench report; the --report tests replay it so runtimes match."""
    scene = Scene("tiny", np.tile(np.linspace(64.0, 255.0, 16), (16, 1)))
    return run_benchmark([scene], synthetic_calibration(16, 16, seed=3), DEFAULT_METHODS, 3)


def _bench_report(tmp_path, monkeypatch, report, path):
    scenes = tmp_path / "scenes"
    scenes.mkdir(exist_ok=True)
    # Not through write_image, which disk_full_mid_write would fail.
    (scenes / "tiny.pgm").write_bytes(b"P5\n16 16\n255\n" + bytes(256))
    monkeypatch.setattr(cli, "run_benchmark", lambda *args: report)
    return main(["bench", "--scenes", str(scenes), "--report", str(path)])


def test_bench_report_is_rewritten_in_place(tmp_path, monkeypatch, tiny_report, write_opens):
    fresh = tmp_path / "fresh.txt"
    assert _bench_report(tmp_path, monkeypatch, tiny_report, fresh) == 0
    target = tmp_path / "report.txt"
    target.write_bytes(b"\xa5" * (2 * fresh.stat().st_size + 100))
    target.chmod(0o640)
    link = tmp_path / "link.txt"
    os.link(target, link)
    inode = target.stat().st_ino
    assert _bench_report(tmp_path, monkeypatch, tiny_report, target) == 0
    assert target.read_bytes() == fresh.read_bytes() == tiny_report.to_text().encode()
    assert link.read_bytes() == fresh.read_bytes()
    assert target.stat().st_ino == inode
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert write_opens == [str(fresh), str(target)]


def test_bench_report_to_a_device(tmp_path, monkeypatch, tiny_report):
    assert _bench_report(tmp_path, monkeypatch, tiny_report, os.devnull) == 0


def test_bench_report_failed_write_leaves_an_empty_file(
    tmp_path, monkeypatch, tiny_report, disk_full_mid_write, capsys
):
    target = tmp_path / "report.txt"
    target.write_bytes(b"\xa5" * 4096)
    assert _bench_report(tmp_path, monkeypatch, tiny_report, target) == 2
    assert "No space left" in capsys.readouterr().err
    assert target.stat().st_size == 0


# ----------------------------------------------------------------------
# raw imports


def test_raw_import_crops_and_warns(tmp_path, capsys):
    raw = tmp_path / "dump.bin"
    raw.write_bytes(bytes(30))  # two 15-byte frames of a 12x10 sensor
    assert main(["inspect", str(raw), "--raw", "12x10"]) == 0
    captured = capsys.readouterr()
    assert "center-cropping 12x10 raw input to 8x8" in captured.err
    assert "width 8" in captured.out
    assert "height 8" in captured.out


def test_raw_import_below_one_tile_is_a_data_error(tmp_path, capsys):
    raw = tmp_path / "dump.bin"
    raw.write_bytes(bytes(10))
    for geometry in ("4x10", "10x4"):
        assert main(["inspect", str(raw), "--raw", geometry]) == 2
        assert f"raw dimensions {geometry} are below one 8-pixel tile" in capsys.readouterr().err


def test_raw_import_rejects_malformed_geometry(tmp_path, capsys):
    raw = tmp_path / "dump.bin"
    raw.write_bytes(bytes(8))
    assert main(["inspect", str(raw), "--raw", "8by8"]) == 1


# ----------------------------------------------------------------------
# the exit-code rule: arguments exit 1, input data 2, calibration quality 3


def _assert_one_error_among(err: str) -> None:
    assert sum(line.startswith("error: ") for line in err.splitlines()) == 1
    assert "Traceback" not in err


def test_msb_first_without_raw_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "s.spk"
    write_stream(_periodic_stream(4, 32), path)
    assert main(["inspect", str(path), "--msb-first"]) == 1
    err = capsys.readouterr().err
    _assert_one_error_line(err)
    assert "error: --msb-first applies only with --raw" in err


# Each command's only fault is one argument, and every file it names is
# missing: the argument must be rejected before any file is read.
_SIMULATE = ["simulate", "--input", "{d}/missing.pgm", "--out", "{d}/o.spk"]
_CALIBRATE = ["calibrate", "--dark", "{d}/missing.spk", "--out", "{d}/o.cal"]
_RECONSTRUCT = ["reconstruct", "{d}/missing.spk", "--out-prefix", "{d}/o-"]
_ARGUMENT_ERRORS = {
    "length 0": [*_SIMULATE, "--length", "0"],
    "theta 0": [*_SIMULATE, "--length", "8", "--theta", "0"],
    "theta nan": [*_SIMULATE, "--length", "8", "--theta", "nan"],
    "theta inf": [*_SIMULATE, "--length", "8", "--theta", "inf"],
    "simulate seed -1": [*_SIMULATE, "--length", "8", "--seed", "-1"],
    "simulate seed 2**64": [*_SIMULATE, "--length", "8", "--seed", str(2**64)],
    "bench seed -1": ["bench", "--scenes", "{d}/missing", "--seed", "-1"],
    "bench seed 2**64": ["bench", "--scenes", "{d}/missing", "--seed", str(2**64)],
    "light 0": [*_CALIBRATE, "--light1", "{d}/l1.spk:0", "--light2", "{d}/l2.spk:60"],
    "light nan": [*_CALIBRATE, "--light1", "{d}/l1.spk:30", "--light2", "{d}/l2.spk:nan"],
    "tfi window": [*_RECONSTRUCT, "--method", "tfi", "--window", "4", "--at", "8"],
    "tfp window 0": [*_RECONSTRUCT, "--method", "tfp", "--window", "0", "--at", "8"],
    "ticks decrease": [*_RECONSTRUCT, "--method", "tfi", "--at", "100,50"],
    "ticks repeat": [*_RECONSTRUCT, "--method", "ast", "--at", "50,50"],
}


@pytest.mark.parametrize("case", sorted(_ARGUMENT_ERRORS))
def test_argument_errors_exit_1_before_any_file_is_read(tmp_path, capsys, case):
    assert main([arg.format(d=tmp_path) for arg in _ARGUMENT_ERRORS[case]]) == 1
    _assert_one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("argv, expected", [
    ([*_SIMULATE, "--length", "8", "--theta", "abc"], "a positive finite number, got 'abc'"),
    ([*_SIMULATE, "--length", "4x"], "a positive integer, got '4x'"),
    (["bench", "--scenes", "{d}/missing", "--seed", "abc"], "a seed in [0, 2**64), got 'abc'"),
], ids=["theta", "length", "seed"])
def test_unparsable_number_says_what_was_expected(tmp_path, capsys, argv, expected):
    assert main([arg.format(d=tmp_path) for arg in argv]) == 1
    err = capsys.readouterr().err
    _assert_one_error_line(err)
    assert f"expected {expected}" in err
    assert "invalid" not in err


def test_rsir_with_a_window_names_rsir(tmp_path, capsys):
    argv = [*_RECONSTRUCT, "--method", "rsir", "--window", "4", "--at", "8"]
    assert main([arg.format(d=tmp_path) for arg in argv]) == 1
    err = capsys.readouterr().err
    _assert_one_error_line(err)
    assert "rsir does not take a window" in err


def test_simulate_empty_sequence_directory_is_a_data_error(tmp_path, capsys):
    frames = tmp_path / "frames"
    frames.mkdir()
    assert main([
        "simulate", "--sequence", str(frames), "--length", "8", "--out", str(tmp_path / "s.spk"),
    ]) == 2
    err = capsys.readouterr().err
    _assert_one_error_line(err)
    assert "no .pgm frames found" in err


@pytest.mark.parametrize("image", [np.zeros((16, 16)), np.full((4, 4), 100.0)],
                         ids=["all-zero", "4x4"])
def test_bench_scene_the_sweep_cannot_use_is_a_data_error(tmp_path, capsys, image):
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    _write_pgm(scenes / "scene.pgm", image)
    assert main(["bench", "--scenes", str(scenes)]) == 2
    _assert_one_error_line(capsys.readouterr().err)


def test_simulate_sequence_shorter_than_length_is_a_data_error(tmp_path, capsys):
    frames = tmp_path / "frames"
    frames.mkdir()
    _write_pgm(frames / "000.pgm", _gradient())
    assert main([
        "simulate", "--sequence", str(frames), "--length", "8", "--out", str(tmp_path / "s.spk"),
    ]) == 2
    err = capsys.readouterr().err
    _assert_one_error_line(err)
    assert "1 frames but length is 8" in err


_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def _run_cli(argv) -> subprocess.CompletedProcess:
    """`python -m spikecam.cli` in a child limited to 1 GiB of address space."""
    return subprocess.run(
        [sys.executable, "-m", "spikecam.cli", *map(str, argv)],
        env={**os.environ, "PYTHONPATH": _SRC}, preexec_fn=_limit_address_space,
        capture_output=True, text=True, errors="replace", timeout=300,
    )


def test_out_of_memory_is_a_data_error(tmp_path):
    img = _write_pgm(tmp_path / "flat.pgm", np.full((16, 16), 51.0))
    proc = _run_cli([
        "simulate", "--input", img, "--length", "100000000", "--noise", "none",
        "--out", tmp_path / "s.spk",
    ])
    assert proc.returncode == 2
    _assert_one_error_line(proc.stderr)
    assert proc.stderr.startswith("error: Unable to allocate ")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """Valid 16x16 inputs for every command the fuzz test runs."""
    root = tmp_path_factory.mktemp("cli-fuzz")
    write_image(_gradient(), root / "scene.pgm")
    req = SimulationRequest(source=_gradient(), length=64, noise=NoiseConfig.all(5))
    write_stream(simulate(req), root / "scene.spk")
    calib = make_calibration(np.full((16, 16), 0.5), np.ones((16, 16)))
    write_calibration(calib, root / "scene.cal")
    write_stream(SpikeStream.from_dense(np.zeros((100, 16, 16), dtype=bool)), root / "dark.spk")
    write_stream(_periodic_stream(5, 100), root / "l1.spk")
    write_stream(_periodic_stream(4, 100), root / "l2.spk")
    return root


# (valid file the example damages, command with {f} for the damaged copy)
_FUZZ_RUNS = [
    ("scene.spk", ["inspect", "{f}"]),
    ("scene.spk", ["reconstruct", "{f}", "--method", "tfi", "--at", "8,40",
                   "--out-prefix", "{d}/o-"]),
    ("scene.spk", ["reconstruct", "{f}", "--method", "rsir", "--at", "8,40",
                   "--out-prefix", "{d}/o-"]),
    ("scene.pgm", ["eval", "--gt", "{f}", "--pred", "{d}/scene.pgm"]),
    ("scene.pgm", ["simulate", "--input", "{f}", "--length", "8", "--out", "{d}/o.spk"]),
    ("scene.cal", ["simulate", "--input", "{d}/scene.pgm", "--calib", "{f}",
                   "--length", "8", "--out", "{d}/o.spk"]),
    ("dark.spk", ["calibrate", "--dark", "{f}", "--light1", "{d}/l1.spk:51",
                  "--light2", "{d}/l2.spk:63.75", "--out", "{d}/o.cal"]),
]
_FUZZED = itertools.count()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_damaged_inputs_exit_2_or_3_with_one_error_line(fuzz_dir, data):
    name, argv = data.draw(st.sampled_from(_FUZZ_RUNS), label="run")
    raw = bytearray((fuzz_dir / name).read_bytes())
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="keep")]
    else:
        bits = st.integers(0, 8 * len(raw) - 1)
        for bit in data.draw(st.lists(bits, min_size=1, max_size=4, unique=True), label="flips"):
            raw[bit // 8] ^= 1 << (bit % 8)
    damaged = fuzz_dir / f"{next(_FUZZED)}-{name}"
    damaged.write_bytes(bytes(raw))
    proc = _run_cli([arg.format(f=damaged, d=fuzz_dir) for arg in argv])
    assert proc.returncode in (0, 2, 3), proc.stderr
    if proc.returncode:
        _assert_one_error_among(proc.stderr)
    assert "Traceback" not in proc.stderr


# ----------------------------------------------------------------------
# console script


def test_console_script_is_installed(tmp_path):
    img = _write_pgm(tmp_path / "a.pgm", _gradient())
    proc = subprocess.run(
        ["spikecam", "eval", "--gt", img, "--pred", img],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "psnr=inf ssim=1.0"
