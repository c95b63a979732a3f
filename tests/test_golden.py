"""Golden digests of whole outputs: simulated streams, restorations, bench CSV.

Each digest is the sha256 of an output produced with fixed seeds.  A
change that is meant to keep outputs bit-identical must leave every
digest here as it is; a change that moves a realisation on purpose
updates the digest and says so in CHANGES.md.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spikecam.bench import make_scenes, synthetic_calibration, theta_for_density
from spikecam.calibration import CalibrationData, build_calibration, make_calibration
from spikecam.cli import main
from spikecam.formats import write_calibration, write_image, write_stream
from spikecam.noise import NoiseConfig, make_rng
from spikecam.reconstruct import METHODS, RecurrentRestorer, reconstruct
from spikecam.simulate import SimulationRequest, simulate
from spikecam.streams import SpikeStream


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ----------------------------------------------------------------------
# simulator arrival path


def _calibrate_scenes() -> list[SimulationRequest]:
    """Dark and two lit uniform scenes on a planted 64x64 sensor."""
    rng = np.random.default_rng(7)
    R = rng.uniform(0.9, 1.1, (64, 64))
    L_d = rng.uniform(0.5, 20.0, (64, 64))
    calib = make_calibration(L_d, R, reference_pixel=(32, 32))
    cfg = NoiseConfig(enable_quantization=False, rng_seed=7)
    return [
        SimulationRequest(source=np.full((64, 64), level), length=2048, calib=calib, noise=cfg)
        for level in (0.0, 30.0, 60.0)
    ]


def _band() -> SimulationRequest:
    """A 62x101 band: not square, and its pixel count is not a multiple of 8."""
    h, w = 62, 101
    scene = 64.0 + 191.0 * np.linspace(0.0, 1.0, w)[None, :] * np.ones((h, 1))
    return SimulationRequest(
        source=scene,
        theta=theta_for_density(scene, 0.25),
        length=2048,
        calib=synthetic_calibration(w, h, seed=7),
        noise=NoiseConfig(enable_quantization=False, rng_seed=7),
    )


ARRIVAL_DIGESTS = {
    "calibrate": [
        "6f7de0511db55e33674a6178c02a354aac7379ddec8cef0729f6cf616ef15c79",
        "9b3a65e5b6a1d825fae9c01e0c97ef845791f53cf4ef6e7b0a8e42339831f314",
        "b5f39a05dea2c1eb127b1e524408ddaf99f81885591d3b083d792dd03d2fe003",
    ],
    "band": ["4a2bd518645bd8acb1e826f430b04d3c7dd457c30d862f5b667f0be901c98dc6"],
}


@pytest.mark.parametrize("case", sorted(ARRIVAL_DIGESTS))
def test_arrival_path_streams_are_golden(case, monkeypatch):
    def per_tick_path(*args):
        raise AssertionError("request left the arrival path")

    monkeypatch.setattr(sys.modules["spikecam.simulate"], "_simulate_ticks", per_tick_path)
    requests = _calibrate_scenes() if case == "calibrate" else [_band()]
    digests = [_sha(simulate(req, make_rng(11 + k)).bits.tobytes()) for k, req in enumerate(requests)]
    assert digests == ARRIVAL_DIGESTS[case]


# The band with its first 3 columns and last 5 pixels dark.
MULTI_CHUNK_DIGEST = "75790a879e3b9ff14ad72a4328198222362c9889a15eb81481470c949c64be17"


def test_arrival_path_is_golden_across_chunks(monkeypatch):
    sim_mod = sys.modules["spikecam.simulate"]
    req = _band()
    source = req.source.copy()
    source[:, :3] = 0.0
    source.reshape(-1)[-5:] = 0.0
    req = dataclasses.replace(req, source=source)
    # Each spike takes a cell, so over 20 chunks at either budget.
    for budget in (sim_mod._CHUNK_SPIKES, 100_000):
        monkeypatch.setattr(sim_mod, "_CHUNK_SPIKES", budget)
        stream = simulate(req, make_rng(11))
        assert int(np.bitwise_count(stream.bits).sum()) == 2_030_710 > 20 * budget
        assert _sha(stream.bits.tobytes()) == MULTI_CHUNK_DIGEST


def test_arrival_path_memory_stays_bounded():
    # 2.31M spikes in one batch: its gaps take 17.6 MiB, where the
    # per-spike temporaries of a whole batch took 270 MiB.
    req = _calibrate_scenes()[2]
    tracemalloc.start()
    try:
        simulate(req, make_rng(13))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 48 * 2**20


@pytest.mark.parametrize("length", [2048, 8192])
def test_arrival_memory_does_not_grow_with_spike_count(length):
    # Past the packed stream, only per-pixel vectors and one chunk's
    # temporaries: about 4 MiB at either length, where gaps held for the
    # whole scene took 23 and 77 MiB.
    req = dataclasses.replace(_calibrate_scenes()[2], length=length)
    tracemalloc.start()
    try:
        stream = simulate(req, make_rng(13))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - stream.bits.nbytes <= 8 * 2**20


# ----------------------------------------------------------------------
# calibration


CALIBRATION_DIGEST = "aa7b85ab1aebe5104d6b1624af41695ef6b583495478fe9a7f187861078c37cd"


def test_calibration_file_is_golden(tmp_path):
    # The three arrival-path recordings above, calibrated and written out.
    dark, light1, light2 = (
        simulate(req, make_rng(11 + k)) for k, req in enumerate(_calibrate_scenes())
    )
    path = tmp_path / "sensor.cal"
    write_calibration(build_calibration(dark, light1, 30.0, light2, 60.0), str(path))
    assert _sha(path.read_bytes()) == CALIBRATION_DIGEST


# ----------------------------------------------------------------------
# simulator per-tick path


def _sweep_cell() -> SimulationRequest:
    """One cell of the bench sweep: 96x96, 768 ticks, every noise source on."""
    scene = make_scenes(96)[0].image
    return SimulationRequest(
        source=scene, theta=theta_for_density(scene, 0.25), length=768,
        calib=synthetic_calibration(96, 96, seed=7), noise=NoiseConfig.all(7),
    )


def _sequence() -> SimulationRequest:
    frames = np.random.default_rng(7).uniform(0.0, 255.0, (300, 12, 17))
    return SimulationRequest(
        source=frames, theta=0.4, length=300,
        calib=synthetic_calibration(17, 12, seed=7), noise=NoiseConfig.all(7),
    )


def _backlog() -> SimulationRequest:
    """Brighter than a well per tick, past one 1024-tick block: charge piles up across it."""
    source = np.linspace(100.0, 255.0, 35).reshape(5, 7)
    return SimulationRequest(
        source=source, theta=1.5, length=1300,
        calib=synthetic_calibration(7, 5, seed=7), noise=NoiseConfig.all(7),
    )


PER_TICK_CASES = {
    "sweep_cell": (_sweep_cell, "e49f1122acd5355df18bece7aaf65e672075d471e04846bb7c0f678f4735d857"),
    "sequence": (_sequence, "7deda9c90929ac97c24f24ca2a2f0aea2a11072c9749f784772657fb9cc48639"),
    "backlog": (_backlog, "915eadb496e51bc718b9891713bd023e84dd91fb440f9124d3de101b8f5a12c3"),
}


@pytest.mark.parametrize("case", sorted(PER_TICK_CASES))
def test_per_tick_path_streams_are_golden(case, monkeypatch):
    def arrival_path(*args):
        raise AssertionError("request left the per-tick path")

    monkeypatch.setattr(sys.modules["spikecam.simulate"], "_simulate_arrivals", arrival_path)
    make_request, digest = PER_TICK_CASES[case]
    assert _sha(simulate(make_request(), make_rng(11)).bits.tobytes()) == digest


# ----------------------------------------------------------------------
# spikecam reconstruct


def _noisy_stream_file(tmp_path, height: int, width: int) -> str:
    scene = make_scenes(16)[0].image
    source = np.resize(scene, (height, width))
    req = SimulationRequest(
        source=source, theta=theta_for_density(source, 0.1), length=256,
        calib=synthetic_calibration(width, height, seed=3), noise=NoiseConfig.all(3),
    )
    path = tmp_path / "scene.spk"
    write_stream(simulate(req), str(path))
    write_calibration(synthetic_calibration(width, height, seed=3), str(tmp_path / "sensor.cal"))
    return str(path)


# tfp, tfi and ast run on a 20x28 sensor: none of them needs sides divisible by 8.
RECONSTRUCT_CASES = {
    "tfp": ((20, 28), ["--window", "48"], "da07fac6c7cdf0496c7586090aa8729f1d7a640dd0ca311bca763486ad945d96"),
    "tfi": ((20, 28), [], "92f9eebe59bb29abfc16a8537754a4f6af5c6ec845ba269818a5c185f9e8d1d4"),
    "ast": ((20, 28), ["--calib", "sensor.cal"], "c232d165dd06d53f421677907c10101d9b2f5b10fdaaa0c84b70306722d4643c"),
    "rsir": ((24, 32), ["--calib", "sensor.cal"], "770d07d3853340c8612e6e3b324e9b4e8e70456e7fbeddd4bf17bf9b9666396f"),
}


@pytest.mark.parametrize("method", sorted(RECONSTRUCT_CASES))
def test_reconstruct_outputs_are_golden(method, tmp_path, capsys):
    (height, width), extra, digest = RECONSTRUCT_CASES[method]
    stream = _noisy_stream_file(tmp_path, height, width)
    extra = [str(tmp_path / a) if a.endswith(".cal") else a for a in extra]
    prefix = str(tmp_path / "out-")
    ticks = (40, 128, 200)
    assert main([
        "reconstruct", stream, "--method", method, *extra,
        "--at", ",".join(map(str, ticks)), "--out-prefix", prefix,
    ]) == 0
    data = b"".join(Path(f"{prefix}{t:06d}.pgm").read_bytes() for t in ticks)
    assert _sha(data) == digest


# ----------------------------------------------------------------------
# reconstruct, in float64


def _library_recording() -> tuple[SpikeStream, CalibrationData]:
    """A noisy 24x32 recording of 256 ticks and the sensor it was made on."""
    source = np.resize(make_scenes(16)[0].image, (24, 32))
    calib = synthetic_calibration(32, 24, seed=5)
    req = SimulationRequest(
        source=source, theta=theta_for_density(source, 0.1), length=256,
        calib=calib, noise=NoiseConfig.all(5),
    )
    return simulate(req), calib


# The first and last ticks clip tfp's window and ast's spans at both ends.
# A tfp window of 100 is one where 255 * count / n and 255 * (count / n)
# differ in the last bit for some counts, so the digest pins that order.
LIBRARY_TICKS = (0, 37, 128, 255)
# method: (window, sha256 of the stacked little-endian float64 images)
LIBRARY_CASES = {
    "tfp": (100, "52d02547bdce6e06be82d88c5b260c3322c8f6745eac9c105ad04d6ef6788726"),
    "tfi": (None, "5afe99e1c38c2479c74fd25eaa182f7a90fd4c23df99c6e2ee9a0b764c870724"),
    "ast": (None, "39af817917dd932f6f1165eb15bfb55d6b7a809620ddf15f1b5daf1631f5f03d"),
    "recurrent": (None, "10ee6b8678ea70e995c7795bd5eb7c333fb7198ee4b0af86c46000eebe3904bd"),
}


@pytest.mark.parametrize("method", sorted(LIBRARY_CASES))
def test_reconstruct_float64_outputs_are_golden(method):
    # The CLI goldens quantize to 16 bits; these pin every bit.
    stream, calib = _library_recording()
    window, digest = LIBRARY_CASES[method]
    images = reconstruct(stream, method, LIBRARY_TICKS, calib, window=window)
    assert _sha(np.stack(images).astype("<f8").tobytes()) == digest


# StepResult field: sha256 of its little-endian float64 images at
# STEP_TICKS, stacked; masks joins every level's mask of every step.
STEP_DIGESTS = {
    "adaptive": "8e1ad8dd9ff56b99ae6bcada40730f10dab69fc2bb5d4745abdb953688c3d0f0",
    "corrected": "a81b86430d8799e0efbca803f3f5f4a1349cbd3c469ebf1288315576a3198a36",
    "fused": "c2532feebf16fbc100a68f57633c311ec74bf34330d09a82caeda7c0908b6f5e",
    "denoised": "54aac86fd477d98782bd1f04bf7412094edbe858672dba3686a94bbff0164fd0",
    "output": "b8df3ef42a9cc862afdb92539b89c5ff88aff2d851042048d45a4727df1b2909",
    "masks": "9ef81ab166846e366d6b66d20f10378384b562891a7b7740a0354c36b7868dcb",
}
STEP_TICKS = (40, 128, 200)


@pytest.mark.parametrize("name", sorted(STEP_DIGESTS))
def test_restorer_step_results_are_golden(name):
    stream, calib = _library_recording()
    restorer = RecurrentRestorer(stream, calib)
    results = [restorer.step(t) for t in STEP_TICKS]
    if name == "masks":
        arrays = [mask for r in results for mask in r.masks]
    else:
        arrays = [getattr(r, name) for r in results]
    data = b"".join(a.astype("<f8").tobytes() for a in arrays)
    assert _sha(data) == STEP_DIGESTS[name]


@given(
    side=st.sampled_from([(8, 8), (8, 16), (16, 8)]),
    length=st.integers(1, 300),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    method=st.sampled_from(METHODS),
    window=st.integers(1, 400),
    data=st.data(),
)
def test_every_method_returns_finite_images_in_full_scale(
    side, length, density, seed, method, window, data
):
    height, width = side
    rng = np.random.default_rng(seed)
    stream = SpikeStream.from_dense(rng.random((length, height, width)) < density)
    calib = synthetic_calibration(width, height, seed=seed)
    ticks = sorted(data.draw(st.sets(st.integers(0, length - 1), min_size=1, max_size=4)))
    images = reconstruct(
        stream, method, ticks, calib, window=window if method == "tfp" else None
    )
    for image in images:
        assert image.shape == (height, width)
        assert np.isfinite(image).all()
        assert image.min() >= 0.0 and image.max() <= 255.0


# ----------------------------------------------------------------------
# spikecam bench


BENCH_CSV_DIGEST = "1212c9866405d915189fc867b9929abd36db27ff1d418e7d389909169815b020"


def test_bench_csv_is_golden(tmp_path, capsys):
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    for scene in make_scenes(16)[:2]:
        write_image(scene.image, str(scenes / f"{scene.name}.pgm"))
    assert main(["bench", "--scenes", str(scenes), "--seed", "3"]) == 0
    lines = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    col = lines[0].index("runtime_s")
    csv = "\n".join(",".join(cells[:col] + cells[col + 1 :]) for cells in lines)
    assert _sha(csv.encode("ascii")) == BENCH_CSV_DIGEST
