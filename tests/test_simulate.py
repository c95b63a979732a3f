import importlib
import itertools
import tracemalloc

import numpy as np
import pytest

from spikecam.bench import synthetic_calibration
from spikecam.calibration import identity_calibration, make_calibration
from spikecam.noise import NoiseConfig, make_rng, split_rng
from spikecam.simulate import SimulationRequest, simulate, simulate_ideal
from spikecam.streams import frame_bytes

# The package's simulate() function shadows the submodule's name.
sim_mod = importlib.import_module("spikecam.simulate")


def spike_ticks(stream, x=0, y=0):
    return [t for t in range(stream.length) if stream.get_spike(x, y, t)]


# ----------------------------------------------------------------------
# request validation


def test_request_validation():
    good = np.full((4, 4), 50.0)
    with pytest.raises(ValueError):
        SimulationRequest(source=good, theta=0.0, length=10)
    with pytest.raises(ValueError):
        SimulationRequest(source=good, theta=-1.0, length=10)
    with pytest.raises(ValueError):
        SimulationRequest(source=good, length=0)
    with pytest.raises(ValueError):
        SimulationRequest(source=np.full(4, 50.0), length=10)
    with pytest.raises(ValueError):
        SimulationRequest(source=np.full((4, 4), np.nan), length=10)
    with pytest.raises(ValueError):
        SimulationRequest(source=np.full((4, 4), -1.0), length=10)


def test_request_sequence_must_cover_length():
    seq = np.zeros((5, 4, 4))
    SimulationRequest(source=seq, length=5)
    with pytest.raises(ValueError):
        SimulationRequest(source=seq, length=6)


def test_request_calibration_shape_must_match():
    with pytest.raises(ValueError):
        SimulationRequest(
            source=np.zeros((4, 4)), length=10, calib=identity_calibration(8, 8)
        )


def test_request_source_is_frozen():
    img = np.full((4, 4), 7.0)
    req = SimulationRequest(source=img, length=4)
    img[0, 0] = 99.0
    assert req.source[0, 0] == 7.0
    with pytest.raises(ValueError):
        req.source[0, 0] = 1.0


# ----------------------------------------------------------------------
# exact noise-free behavior


def test_constant_fifth_of_threshold_fires_every_five_ticks():
    stream = simulate_ideal(np.full((2, 2), 51.0), length=20)
    assert spike_ticks(stream) == [4, 9, 14, 19]
    assert stream.spike_density(0, 0, 0, 20) == 0.2
    dense = stream.to_dense()
    assert (dense == dense[:, :1, :1]).all()


def test_full_scale_fires_every_tick():
    stream = simulate_ideal(np.full((2, 2), 255.0), length=16)
    assert stream.to_dense().all()


def test_above_full_scale_saturates_at_one_spike_per_tick():
    stream = simulate_ideal(np.full((2, 2), 400.0), length=16)
    assert stream.to_dense().all()


def test_zero_intensity_is_silent():
    stream = simulate_ideal(np.zeros((3, 3)), length=32)
    assert not stream.to_dense().any()


def test_noninteger_period_spike_count():
    # intensity 100: cumulative deposit crosses 255 every 2.55 ticks
    stream = simulate_ideal(np.full((1, 1), 100.0), length=51)
    ticks = spike_ticks(stream)
    assert len(ticks) == 20
    assert ticks[0] == 2
    gaps = np.diff(ticks)
    assert set(gaps) <= {2, 3}


def test_theta_scales_like_intensity():
    img = np.linspace(10.0, 120.0, 16).reshape(4, 4)
    a = simulate_ideal(img, theta=0.5, length=64)
    b = simulate_ideal(0.5 * img, theta=1.0, length=64)
    assert a == b


def test_brighter_pixels_never_fire_less():
    rng = np.random.default_rng(0)
    img = rng.uniform(0.0, 200.0, (6, 6))
    extra = rng.uniform(0.0, 55.0, (6, 6))
    base = simulate_ideal(img, length=128)
    brighter = simulate_ideal(img + extra, length=128)
    assert (brighter.count_map(0, 128) >= base.count_map(0, 128)).all()


def test_rate_readout_recovers_constant_input():
    stream = simulate_ideal(np.full((2, 2), 51.0), length=20)
    assert 255.0 * stream.spike_density(0, 0, 0, 20) == 51.0


def test_sequence_source_switches_rates():
    seq = np.concatenate(
        [np.zeros((10, 2, 2)), np.full((10, 2, 2), 255.0)]
    )
    req = SimulationRequest(source=seq, length=20)
    stream = simulate(req)
    assert stream.count_map(0, 10).max() == 0
    np.testing.assert_array_equal(stream.count_map(10, 20), 10)


def test_stream_carries_calibration_clock():
    from spikecam.streams import ClockParams

    clock = ClockParams(tick_seconds=1e-3)
    calib = identity_calibration(2, 2, clock=clock)
    req = SimulationRequest(source=np.full((2, 2), 51.0), length=8, calib=calib)
    assert simulate(req).clock == clock


# ----------------------------------------------------------------------
# calibration-aware response


def test_low_response_pixel_fires_slower():
    R = np.array([[1.0, 0.5]])
    calib = make_calibration(L_d=np.zeros((1, 2)), R=R)
    req = SimulationRequest(
        source=np.full((1, 2), 51.0),
        length=100,
        calib=calib,
        noise=NoiseConfig(
            enable_shot=False,
            enable_dark=False,
            enable_nonuniformity=True,
            enable_quantization=False,
        ),
    )
    counts = simulate(req).count_map(0, 100)
    np.testing.assert_array_equal(counts, [[20, 10]])


def test_deterministic_dark_lift_adds_counts():
    calib = make_calibration(L_d=np.full((1, 1), 25.5), R=np.ones((1, 1)))
    req = SimulationRequest(
        source=np.zeros((1, 1)),
        length=100,
        calib=calib,
        noise=NoiseConfig(
            enable_shot=False,
            enable_dark=False,
            enable_nonuniformity=True,
            enable_quantization=False,
        ),
    )
    assert simulate(req).count_map(0, 100)[0, 0] == 10


def test_poisson_dark_counts_near_expected_rate():
    calib = make_calibration(L_d=np.full((8, 8), 25.5), R=np.ones((8, 8)))
    req = SimulationRequest(
        source=np.zeros((8, 8)),
        length=2000,
        calib=calib,
        noise=NoiseConfig(
            enable_shot=False,
            enable_dark=True,
            enable_nonuniformity=False,
            enable_quantization=False,
            rng_seed=3,
        ),
    )
    counts = simulate(req).count_map(0, 2000)
    assert abs(counts.mean() - 200.0) < 2.0
    assert counts.min() > 180 and counts.max() < 220


# ----------------------------------------------------------------------
# stochastic paths


def test_simulation_is_deterministic_given_seed():
    img = np.linspace(5.0, 150.0, 64).reshape(8, 8)
    req_a = SimulationRequest(source=img, length=256, noise=NoiseConfig.all(17))
    req_b = SimulationRequest(source=img, length=256, noise=NoiseConfig.all(17))
    assert simulate(req_a) == simulate(req_b)
    req_c = SimulationRequest(source=img, length=256, noise=NoiseConfig.all(18))
    assert simulate(req_a) != simulate(req_c)


def test_shot_noise_density_matches_rate():
    req = SimulationRequest(
        source=np.full((64, 64), 51.0),
        length=1000,
        noise=NoiseConfig(
            enable_shot=True,
            enable_dark=False,
            enable_nonuniformity=False,
            enable_quantization=False,
            rng_seed=5,
        ),
    )
    density = simulate(req).count_map(0, 1000).mean() / 1000.0
    assert abs(density - 0.2) < 0.002


def test_static_and_sequence_shot_paths_agree_statistically():
    # a static scene uses the photon-arrival construction; feeding the
    # same frame as a per-tick sequence forces the tick recurrence; both
    # must sample the same count distribution
    img = np.full((32, 32), 51.0)
    noise = NoiseConfig(
        enable_shot=True,
        enable_dark=False,
        enable_nonuniformity=False,
        enable_quantization=False,
        rng_seed=7,
    )
    static = simulate(SimulationRequest(source=img, length=2000, noise=noise))
    seq = simulate(
        SimulationRequest(
            source=np.broadcast_to(img, (2000, 32, 32)), length=2000, noise=noise
        )
    )
    counts_a = static.count_map(0, 2000).astype(np.float64)
    counts_b = seq.count_map(0, 2000).astype(np.float64)
    assert abs(counts_a.mean() - counts_b.mean()) < 0.25
    assert 0.7 < counts_a.var() / counts_b.var() < 1.4
    # per-pixel photon total is Poisson(102000); the partial last well
    # shaves E[N mod 255] / 255, about half a spike
    assert abs(counts_a.mean() - 399.5) < 0.25


def test_full_noise_stream_is_well_formed():
    calib = make_calibration(
        L_d=np.full((8, 8), 2.0), R=np.full((8, 8), 1.05), reference_pixel=(3, 3)
    )
    req = SimulationRequest(
        source=np.full((8, 8), 51.0),
        length=512,
        calib=calib,
        noise=NoiseConfig.all(9),
    )
    stream = simulate(req)
    assert stream.length == 512
    counts = stream.count_map(0, 512)
    assert counts.min() >= 0 and counts.max() <= 512
    # rate should sit near (theta L + L_d) / Q_r per tick
    expect = 512.0 * (51.0 + 2.0) * 1.05 / 255.0
    assert abs(counts.mean() - expect) < 0.05 * expect


def test_explicit_generator_overrides_config_seed():
    from spikecam.noise import make_rng

    img = np.full((8, 8), 51.0)
    req = SimulationRequest(source=img, length=200, noise=NoiseConfig.all(1))
    a = simulate(req, rng=make_rng(42))
    b = simulate(req, rng=make_rng(42))
    assert a == b
    assert a == simulate(
        SimulationRequest(source=img, length=200, noise=NoiseConfig.all(42))
    )


# ----------------------------------------------------------------------
# per-tick path against a whole-block reference


def reference_simulate_ticks(req, calib, rng):
    """The per-tick path drawn and summed one whole block at a time.

    Kept as the oracle for the chunked, one-buffer `_simulate_ticks`:
    every block's variates are drawn as one (ticks, pixels) array, and
    the cumulative charge, whole-well counts and fires are fresh arrays.
    """
    rng_shot, rng_dark, rng_quant = split_rng(rng, 3)
    cfg = req.noise
    h, w = req.frame_shape
    n_pixels = h * w
    threshold = calib.clock.max_intensity
    length = req.length

    gain, quantum = sim_mod._effective_gain(calib, cfg)
    dark_rate = calib.L_d.ravel()
    lift = cfg.enable_dark or cfg.enable_nonuniformity
    merge_poisson = cfg.enable_shot and cfg.enable_dark

    if req.is_static:
        static_signal = req.theta * req.source.ravel()
        if merge_poisson:
            static_rate = static_signal + dark_rate
    else:
        frames = req.source.reshape(req.source.shape[0], n_pixels)

    block = max(1, min(sim_mod._BLOCK_TICKS, sim_mod._BLOCK_BUDGET // max(1, n_pixels)))
    acc = np.zeros(n_pixels)
    out = np.empty((length, frame_bytes(w, h)), dtype=np.uint8)

    for start in range(0, length, block):
        stop = min(start + block, length)
        b = stop - start
        if merge_poisson:
            if req.is_static:
                counts = rng_shot.poisson(np.broadcast_to(static_rate, (b, n_pixels)))
            else:
                counts = rng_shot.poisson(req.theta * frames[start:stop] + dark_rate)
            deposit = gain * counts
        else:
            if cfg.enable_shot:
                if req.is_static:
                    signal = rng_shot.poisson(
                        np.broadcast_to(static_signal, (b, n_pixels))
                    ).astype(np.float64)
                else:
                    signal = rng_shot.poisson(req.theta * frames[start:stop]).astype(
                        np.float64
                    )
            else:
                if req.is_static:
                    signal = np.broadcast_to(static_signal, (b, n_pixels))
                else:
                    signal = req.theta * frames[start:stop]
            if lift:
                if cfg.enable_dark:
                    dark = rng_dark.poisson(np.broadcast_to(dark_rate, (b, n_pixels)))
                else:
                    dark = dark_rate
                deposit = gain * (signal + dark)
            else:
                deposit = np.asarray(signal, dtype=np.float64)

        if cfg.enable_quantization:
            with np.errstate(divide="ignore"):
                discharge = threshold / deposit
            discharge += rng_quant.uniform(-1.0, 1.0, size=(b, n_pixels))
            np.maximum(discharge, sim_mod._MIN_DISCHARGE, out=discharge)
            deposit = threshold / discharge

        if acc.max() < threshold and deposit.max() <= threshold:
            csum = np.cumsum(deposit, axis=0)
            csum += acc
            wells = np.floor_divide(csum, threshold)
            fires = np.empty((b, n_pixels), dtype=bool)
            fires[0] = wells[0] > 0
            np.not_equal(wells[1:], wells[:-1], out=fires[1:])
            acc = csum[-1] - threshold * wells[-1]
        else:
            fires = np.empty((b, n_pixels), dtype=bool)
            for i in range(b):
                acc += deposit[i]
                fired = acc >= threshold
                fires[i] = fired
                acc[fired] -= threshold

        out[start:stop] = np.packbits(fires, axis=1, bitorder="little")
    return out


def _assert_ticks_match_reference(req, seed):
    calib = req.calib if req.calib is not None else identity_calibration(*req.frame_shape[::-1])
    got = sim_mod._simulate_ticks(req, calib, make_rng(seed))
    want = reference_simulate_ticks(req, calib, make_rng(seed))
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def _flag_id(flags):
    """Shot, dark, nonuniformity, quantization as S, D, N, Q or '-'."""
    return "".join(letter if on else "-" for letter, on in zip("SDNQ", flags))


@pytest.mark.parametrize("static", [True, False], ids=["static", "sequence"])
@pytest.mark.parametrize("flags", list(itertools.product((False, True), repeat=4)), ids=_flag_id)
def test_per_tick_path_matches_whole_block_reference(flags, static):
    # 5x7 = 35 pixels, not a multiple of 8; a block here is 1024 ticks,
    # so 1100 crosses both a chunk and a block boundary.
    h, w = 5, 7
    rng = np.random.default_rng(3)
    calib = synthetic_calibration(w, h, seed=3)
    shot, dark, nonuniform, quant = flags
    noise = NoiseConfig(shot, dark, nonuniform, quant, rng_seed=0)
    length = 1100
    if static:
        source = rng.uniform(0.0, 255.0, (h, w))
    else:
        source = rng.uniform(0.0, 255.0, (length, h, w))
    for n in (1, 63, 64, 65, length):
        req = SimulationRequest(
            source=source if static else source[:n], theta=0.4, length=n, calib=calib, noise=noise
        )
        _assert_ticks_match_reference(req, seed=n)


def test_per_tick_path_matches_reference_across_full_size_blocks():
    # At 96x96 a block is 434 ticks: these lengths end just inside,
    # on and just past chunk and block boundaries.
    calib = synthetic_calibration(96, 96, seed=1)
    source = np.random.default_rng(1).uniform(64.0, 255.0, (96, 96))
    for n in (1, 63, 64, 65, 433, 434, 435, 900):
        req = SimulationRequest(
            source=source, theta=0.5, length=n, calib=calib, noise=NoiseConfig.all(0)
        )
        _assert_ticks_match_reference(req, seed=100 + n)
    frames = np.random.default_rng(2).uniform(64.0, 255.0, (435, 96, 96))
    req = SimulationRequest(
        source=frames, theta=0.5, length=435, calib=calib, noise=NoiseConfig.all(0)
    )
    _assert_ticks_match_reference(req, seed=5)


@pytest.mark.parametrize("quantization", [False, True])
def test_per_tick_path_matches_reference_when_a_tick_overfills(quantization):
    # theta 1.5 on values up to 255 deposits more than a full well per
    # tick, which sends every block down the sequential branch.
    source = np.linspace(100.0, 255.0, 5 * 7).reshape(5, 7)
    noise = NoiseConfig(True, True, True, quantization, rng_seed=0)
    req = SimulationRequest(
        source=source, theta=1.5, length=300, calib=synthetic_calibration(7, 5, seed=4), noise=noise
    )
    _assert_ticks_match_reference(req, seed=9)


def test_per_tick_path_matches_reference_on_a_noise_free_seventh_of_a_well():
    req = SimulationRequest(
        source=np.full((6, 9), 255.0 / 7.0), length=2100, noise=NoiseConfig.none()
    )
    _assert_ticks_match_reference(req, seed=0)
    assert (sim_mod._simulate_ticks(req, identity_calibration(9, 6), make_rng(0)) != 0).any()


def test_per_tick_path_matches_reference_from_bright_to_dim():
    # Over a full well a tick for the first 1024-tick block piles up a
    # backlog the reference integrates sequentially; the dim frames after
    # it drain the backlog during the second block, so the reference's
    # third block takes its cumulative-sum branch.  Quantization is off:
    # its jitter can make one bright tick deposit ~1e11 counts, a backlog
    # no dim tail drains.
    h, w, length = 5, 7, 2100
    frames = np.random.default_rng(6).uniform(5.0, 30.0, (length, h, w))
    frames[:1024] += 240.0
    calib = synthetic_calibration(w, h, seed=6)
    req = SimulationRequest(
        source=frames, theta=1.5, length=length, calib=calib,
        noise=NoiseConfig(True, True, True, False, rng_seed=0),
    )
    _assert_ticks_match_reference(req, seed=13)
    bits = sim_mod._simulate_ticks(req, calib, make_rng(13))
    fires = np.unpackbits(bits, axis=1, count=h * w, bitorder="little")
    assert fires[:1100].all()
    assert fires[2048:].mean() < 0.5


def test_per_tick_buffers_hold_one_chunk():
    # 96x96 all-noise: a block is 434 ticks, a chunk 64; a block-sized
    # deposit buffer alone would be 32 MB.
    req = SimulationRequest(
        source=np.random.default_rng(0).uniform(64.0, 255.0, (96, 96)),
        theta=0.25,
        length=768,
        calib=synthetic_calibration(96, 96, seed=0),
        noise=NoiseConfig.all(0),
    )
    tracemalloc.start()
    try:
        simulate(req)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20


def test_per_tick_chunk_stays_under_a_pixel_budget():
    # 400x248: a block is 40 ticks; a block-long chunk made the deposit
    # buffer, the Poisson input and output and the quantization's
    # temporaries each 30 MiB.
    req = SimulationRequest(
        source=np.random.default_rng(0).uniform(64.0, 255.0, (248, 400)),
        theta=0.25,
        length=48,
        calib=synthetic_calibration(400, 248, seed=0),
        noise=NoiseConfig.all(0),
    )
    tracemalloc.start()
    try:
        simulate(req)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 48 * 2**20


def test_arrival_path_holds_one_copy_of_the_stream():
    # 64x64 at L = 2 over 32,768 ticks is a 16 MiB stream and about a
    # million spikes; the stream takes over the simulator's output array,
    # where a copy of it made the peak twice the packed bytes.
    req = SimulationRequest(
        source=np.full((64, 64), 2.0),
        length=32768,
        noise=NoiseConfig(enable_dark=False, enable_nonuniformity=False,
                          enable_quantization=False, rng_seed=0),
    )
    tracemalloc.start()
    try:
        stream = simulate(req)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stream.bits.nbytes == 16 * 2**20
    assert peak <= 1.5 * stream.bits.nbytes


# ----------------------------------------------------------------------
# arrival path chunks


def test_arrival_stream_does_not_depend_on_chunk_size(monkeypatch):
    # Every other pixel is dark, the first and last too, so dark pixels
    # start chunks, end them and fill whole one-spike chunks' gaps.
    h, w = 24, 37
    source = np.random.default_rng(3).uniform(40.0, 255.0, (h, w))
    source.reshape(-1)[::2] = 0.0
    source.reshape(-1)[-1] = 0.0
    req = SimulationRequest(
        source=source, theta=0.6, length=600, calib=identity_calibration(w, h),
        noise=NoiseConfig(enable_quantization=False, rng_seed=3),
    )

    def per_tick_path(*args):
        raise AssertionError("request left the arrival path")

    monkeypatch.setattr(sim_mod, "_simulate_ticks", per_tick_path)
    streams = []
    for chunk in (1, 3000, 2**40):
        monkeypatch.setattr(sim_mod, "_CHUNK_SPIKES", chunk)
        streams.append(simulate(req, make_rng(5)).bits.tobytes())
    counts = simulate(req, make_rng(5)).count_map(0, req.length).reshape(-1)
    assert counts[0] == counts[-1] == 0 and counts[1:-1:2].all()
    assert counts.sum() > 3 * 3000
    assert streams[0] == streams[1] == streams[2]
