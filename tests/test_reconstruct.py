import tracemalloc

import numpy as np
import pytest

from spikecam.calibration import identity_calibration, make_calibration
from spikecam.reconstruct import (
    RecurrentRestorer,
    RestorerParams,
    RestorerState,
    adaptive_transform,
    ast_window,
    correct_fixed_pattern,
    fusion_mask,
    reconstruct,
    refine,
    restore_recurrent,
    temporal_fuse,
    tfi,
    tfp,
    wavelet_denoise,
)
from spikecam.simulate import simulate_ideal
from spikecam.streams import SpikeStream
from spikecam.wavelet import DetailBands, WaveletPyramid, build_pyramid, collapse_pyramid


def stream_from_ticks(ticks, length, width=1, height=1):
    dense = np.zeros((length, height, width), dtype=bool)
    dense[list(ticks), :, :] = True
    return SpikeStream.from_dense(dense)


def periodic(period, length, width=1, height=1, start=0):
    return stream_from_ticks(range(start, length, period), length, width, height)


# ----------------------------------------------------------------------
# windowed firing rate


def test_tfp_quarter_density():
    stream = periodic(4, 64, start=3)
    out = tfp(stream, 32, 32)
    assert out[0, 0] == 63.75


def test_tfp_every_tick_reads_full_scale():
    stream = periodic(1, 32)
    assert tfp(stream, 16, 8)[0, 0] == 255.0


def test_tfp_window_one_is_the_raw_bit():
    stream = stream_from_ticks([5], 16)
    assert tfp(stream, 5, 1)[0, 0] == 255.0
    assert tfp(stream, 6, 1)[0, 0] == 0.0


def test_tfp_clipped_window_stays_unbiased():
    stream = periodic(4, 64)
    # at t=0 only the right half of the window exists; the divisor is
    # the clipped length so a constant rate still reads exactly
    assert tfp(stream, 0, 32)[0, 0] == 255.0 * 4 / 16


def test_tfp_validation():
    stream = periodic(4, 32)
    with pytest.raises(ValueError):
        tfp(stream, 16, 0)
    with pytest.raises(ValueError):
        tfp(stream, -100, 10)


# ----------------------------------------------------------------------
# inter-spike interval readout


def test_tfi_every_tick_reads_full_scale():
    stream = periodic(1, 32)
    assert tfi(stream, 12)[0, 0] == 255.0


def test_tfi_interval_straddling_the_tick():
    stream = stream_from_ticks([10, 14], 32)
    assert tfi(stream, 12)[0, 0] == 63.75


def test_tfi_tick_on_a_spike():
    stream = stream_from_ticks([10, 14], 32)
    # prev scan includes t itself
    assert tfi(stream, 10)[0, 0] == 63.75


def test_tfi_silent_pixel_reads_zero():
    stream = stream_from_ticks([], 16)
    assert tfi(stream, 8)[0, 0] == 0.0


def test_tfi_single_spike_reads_zero():
    stream = stream_from_ticks([7], 16)
    assert tfi(stream, 8)[0, 0] == 0.0


def test_tfi_all_spikes_before_tick_uses_last_interval():
    stream = stream_from_ticks([4, 10], 20)
    assert tfi(stream, 15)[0, 0] == 255.0 / 6.0


def test_tfi_all_spikes_after_tick_uses_first_interval():
    stream = stream_from_ticks([10, 16], 20)
    assert tfi(stream, 5)[0, 0] == 255.0 / 6.0


def test_tfi_previous_spike_at_tick_zero_counts():
    # tick 0 is a spike like any other: the interval is 0..10
    stream = stream_from_ticks([0, 10], 20)
    assert tfi(stream, 5)[0, 0] == 25.5


def test_tfi_last_tick_of_stream():
    stream = stream_from_ticks([3, 9], 10)
    assert tfi(stream, 9)[0, 0] == 255.0 / 6.0


def test_tfi_bounds():
    stream = periodic(4, 16)
    with pytest.raises(IndexError):
        tfi(stream, 16)
    with pytest.raises(IndexError):
        tfi(stream, -1)


# ----------------------------------------------------------------------
# density-adaptive window


def test_ast_window_anchor_points():
    assert ast_window(0.0) == 256
    assert ast_window(0.03) == 255
    assert ast_window(0.1) == 132
    assert ast_window(0.25) == 8
    assert ast_window(1.0) == 8


def test_ast_window_is_monotone_and_bounded():
    grid = np.linspace(0.0, 1.0, 501)
    wins = ast_window(grid)
    assert (np.diff(wins) <= 0).all()
    assert wins.min() >= 8 and wins.max() <= 256


def test_ast_window_array_and_scalar_types():
    assert isinstance(ast_window(0.5), int)
    out = ast_window(np.array([[0.0, 1.0]]))
    assert out.dtype == np.int64 and out.shape == (1, 2)


def test_ast_window_domain():
    for bad in (-0.1, 1.1, float("nan")):
        with pytest.raises(ValueError):
            ast_window(bad)


def test_adaptive_transform_bright_region_uses_short_window():
    stream = periodic(4, 64, start=3)
    state = RestorerState(density_map=np.full((1, 1), 0.25))
    out = adaptive_transform(stream, 32, state)
    # window 8 over an exact period 4 train: 2 spikes
    assert out[0, 0] == 63.75


def test_adaptive_transform_refreshes_density_halfway():
    stream = periodic(4, 64, start=3)
    state = RestorerState(density_map=np.full((1, 1), 0.25))
    out = adaptive_transform(stream, 32, state)
    measured = out[0, 0] / 255.0
    assert state.density_map[0, 0] == 0.5 * 0.25 + 0.5 * measured


def test_adaptive_transform_override_matches_fixed_window():
    rng = np.random.default_rng(2)
    dense = rng.random((128, 8, 8)) < 0.2
    stream = SpikeStream.from_dense(dense)
    state = RestorerState(density_map=np.full((8, 8), 0.1))
    out = adaptive_transform(stream, 64, state, window_override=32)
    np.testing.assert_array_equal(out, tfp(stream, 64, 32))


def test_adaptive_transform_causal_window_ends_at_tick():
    stream = stream_from_ticks([20, 24, 28], 64)
    state = RestorerState(density_map=np.full((1, 1), 1.0))  # window 8
    assert adaptive_transform(stream, 10, state, causal=True)[0, 0] == 0.0
    state2 = RestorerState(density_map=np.full((1, 1), 1.0))
    # causal window [17, 25) sees the spikes at 20 and 24
    assert adaptive_transform(stream, 24, state2, causal=True)[0, 0] == 255.0 * 2 / 8


def test_adaptive_transform_validates_state_shape():
    stream = periodic(4, 32, width=4, height=4)
    state = RestorerState(density_map=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        adaptive_transform(stream, 16, state)



def reference_adaptive_transform(stream, t, state, *, causal=False, window_override=None):
    """The prefix-sum AST: unpack the span, cumulative-sum it, read two rows.

    Kept as the oracle that adaptive_transform must match bit for bit.
    """
    density = np.asarray(state.density_map, dtype=np.float64)
    if window_override is not None:
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
    span_lo = int(a.min())
    span_hi = int(b.max())
    n_pixels = stream.height * stream.width
    dense = stream.to_dense(span_lo, span_hi).reshape(span_hi - span_lo, n_pixels)
    prefix = np.zeros((span_hi - span_lo + 1, n_pixels), dtype=np.int64)
    np.cumsum(dense, axis=0, out=prefix[1:])
    cols = np.arange(n_pixels)
    counts = prefix[b.ravel() - span_lo, cols] - prefix[a.ravel() - span_lo, cols]
    rate = (counts / (b - a).ravel()).reshape(density.shape)
    state.density_map = 0.5 * density + 0.5 * rate
    return 255.0 * rate


@pytest.mark.parametrize("length", [1, 2, 7, 8, 9, 63, 64, 65, 255, 256, 257, 300, 511, 700])
def test_adaptive_transform_matches_prefix_sum_reference(length):
    rng = np.random.default_rng(length)
    for height, width in ((1, 1), (3, 5), (7, 9), (4, 6), (11, 13)):
        dense = rng.random((length, height, width)) < rng.uniform(0.02, 0.6)
        stream = SpikeStream.from_dense(dense)
        density = rng.random((height, width)) * rng.choice([0.05, 0.3, 1.0])
        ticks = sorted({0, length - 1, int(rng.integers(length))})
        for causal in (False, True):
            for override in (None, 1, length + 37):
                got = RestorerState(density_map=density.copy())
                want = RestorerState(density_map=density.copy())
                for t in ticks:
                    out = adaptive_transform(
                        stream, t, got, causal=causal, window_override=override
                    )
                    ref = reference_adaptive_transform(
                        stream, t, want, causal=causal, window_override=override
                    )
                    case = (height, width, t, causal, override)
                    assert np.array_equal(out, ref), case
                    assert np.array_equal(got.density_map, want.density_map), case


def test_adaptive_transform_memory_stays_bounded_at_sensor_size():
    # Zero density gives every pixel the widest window, 256 ticks.
    rng = np.random.default_rng(0)
    height, width = 248, 400
    bits = rng.integers(0, 256, size=(512, height * width // 8), dtype=np.uint8)
    stream = SpikeStream.from_packed(bits, width, height)
    state = RestorerState(density_map=np.zeros((height, width)))
    tracemalloc.start()
    try:
        adaptive_transform(stream, 256, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# ----------------------------------------------------------------------
# fixed-pattern correction


def test_fixed_pattern_subtracts_dark_rate():
    calib = make_calibration(L_d=np.full((1, 1), 5.0), R=np.ones((1, 1)))
    out = correct_fixed_pattern(np.full((1, 1), 25.5), calib)
    assert out[0, 0] == 20.5


def test_fixed_pattern_gain_and_dark():
    calib = make_calibration(L_d=np.full((1, 1), 10.0), R=np.full((1, 1), 0.98))
    out = correct_fixed_pattern(np.full((1, 1), 51.0), calib)
    assert out[0, 0] == pytest.approx(0.2 * 255.0 / 0.98 - 10.0, abs=1e-12)


def test_fixed_pattern_clamps_to_range():
    calib = make_calibration(L_d=np.full((1, 2), 5.0), R=np.full((1, 2), 0.5))
    out = correct_fixed_pattern(np.array([[0.0, 255.0]]), calib)
    assert out[0, 0] == 0.0  # dark subtraction cannot go negative
    assert out[0, 1] == 255.0  # gain correction cannot exceed full scale


def test_fixed_pattern_identity_calibration_is_identity():
    calib = identity_calibration(4, 4)
    img = np.linspace(0.0, 255.0, 16).reshape(4, 4)
    np.testing.assert_array_equal(correct_fixed_pattern(img, calib), img)


def test_fixed_pattern_validates_shape():
    calib = identity_calibration(4, 4)
    with pytest.raises(ValueError):
        correct_fixed_pattern(np.zeros((2, 2)), calib)


# ----------------------------------------------------------------------
# pipeline parameters


def test_params_accept_their_boundary_values():
    params = RestorerParams(denoise_k=0.0, refine_beta=1.0)
    assert (params.denoise_k, params.refine_beta) == (0.0, 1.0)
    assert RestorerParams(denoise_k=0.5, refine_beta=0.0).denoise_k == 0.5


def test_params_defaults():
    params = RestorerParams()
    assert params.fusion_tau == 0.2
    assert params.fusion_floor == 0.125
    assert params.denoise_k == 3.0
    assert params.refine_beta == 0.15
    assert params.bootstrap_window == 64


def test_params_validation():
    with pytest.raises(ValueError):
        RestorerParams(fusion_tau=0.0)
    with pytest.raises(ValueError):
        RestorerParams(fusion_floor=0.0)
    with pytest.raises(ValueError):
        RestorerParams(fusion_floor=1.5)
    with pytest.raises(ValueError):
        RestorerParams(denoise_k=-1.0)
    with pytest.raises(ValueError):
        RestorerParams(refine_beta=1.5)
    with pytest.raises(ValueError):
        RestorerParams(bootstrap_window=0)


# ----------------------------------------------------------------------
# temporal fusion


def test_fusion_mask_still_region_reads_floor():
    params = RestorerParams()
    assert fusion_mask(np.float64(100.0), np.float64(100.0), params) == 0.125


def test_fusion_mask_half_threshold_difference():
    params = RestorerParams()
    # |127.5 - 102| = 25.5 is half of tau * 255: 0.5 + 0.125
    m = fusion_mask(np.float64(127.5), np.float64(102.0), params)
    assert m == 0.625
    blended = m * 127.5 + (1.0 - m) * 102.0
    assert blended == 117.9375


def test_fusion_mask_saturates_at_motion():
    params = RestorerParams()
    assert fusion_mask(np.float64(60.0), np.float64(0.0), params) == 1.0
    assert fusion_mask(np.float64(0.0), np.float64(51.0), params) == 1.0


def test_fusion_mask_monotone_in_difference():
    params = RestorerParams()
    diffs = np.linspace(0.0, 80.0, 41)
    masks = fusion_mask(diffs, np.zeros_like(diffs), params)
    assert (np.diff(masks) >= 0).all()
    assert masks.min() >= 0.125 and masks.max() <= 1.0


def test_fuse_with_self_is_identity():
    pyr = build_pyramid(np.random.default_rng(0).random((16, 16)) * 255.0)
    fused, masks = temporal_fuse(pyr, pyr, RestorerParams())
    np.testing.assert_allclose(fused.ll, pyr.ll, atol=1e-12)
    for got, want in zip(fused.details, pyr.details):
        for bg, bw in zip(got, want):
            np.testing.assert_allclose(bg, bw, atol=1e-12)
    assert len(masks) == 3


def test_fuse_motion_takes_current_at_the_deep_level():
    rng = np.random.default_rng(1)
    cur = build_pyramid(rng.random((16, 16)) * 255.0)
    prev = build_pyramid(rng.random((16, 16)) * 255.0 + 600.0)
    fused, masks = temporal_fuse(cur, prev, RestorerParams())
    # the deep approximations differ by ~600, far past the motion
    # threshold: the deepest level comes entirely from the present
    np.testing.assert_array_equal(fused.ll, cur.ll)
    for bg, bw in zip(fused.details[-1], cur.details[-1]):
        np.testing.assert_array_equal(bg, bw)
    assert np.all(masks[-1] == 1.0)
    # the next level masks against the cascade, which has already
    # adopted the current approximation, so it sees no motion and falls
    # to the floor: its details lean on the previous frame
    assert np.all(masks[1] == 0.125)
    blend = 0.125 * cur.details[1].lh + 0.875 * prev.details[1].lh
    np.testing.assert_allclose(fused.details[1].lh, blend, atol=1e-9)


def test_fuse_is_a_convex_combination():
    rng = np.random.default_rng(2)
    cur = build_pyramid(rng.random((16, 16)) * 255.0)
    prev = build_pyramid(rng.random((16, 16)) * 255.0)
    fused, _ = temporal_fuse(cur, prev, RestorerParams())
    for fc, cc, pc in zip(fused.details, cur.details, prev.details):
        for f, c, p in zip(fc, cc, pc):
            lo, hi = np.minimum(c, p), np.maximum(c, p)
            assert (f >= lo - 1e-9).all() and (f <= hi + 1e-9).all()


def test_fuse_mask_shapes_are_finest_first():
    cur = build_pyramid(np.zeros((32, 16)))
    _, masks = temporal_fuse(cur, cur, RestorerParams())
    assert masks[0].shape == (16, 8)
    assert masks[1].shape == (8, 4)
    assert masks[2].shape == (4, 2)


def test_fuse_rejects_mismatched_pyramids():
    a = build_pyramid(np.zeros((16, 16)))
    b = build_pyramid(np.zeros((16, 24)))
    with pytest.raises(ValueError):
        temporal_fuse(a, b, RestorerParams())


# ----------------------------------------------------------------------
# wavelet denoising


def hand_pyramid(level0_lh, level0_hh):
    """8x8-image pyramid with chosen level-0 bands, zeros elsewhere."""
    z = [np.zeros((4, 4)), np.zeros((2, 2)), np.zeros((1, 1))]
    details = (
        DetailBands(lh=np.asarray(level0_lh, dtype=float), hl=z[0].copy(),
                    hh=np.asarray(level0_hh, dtype=float)),
        DetailBands(lh=z[1].copy(), hl=z[1].copy(), hh=z[1].copy()),
        DetailBands(lh=z[2].copy(), hl=z[2].copy(), hh=z[2].copy()),
    )
    return WaveletPyramid(details=details, ll=np.full((1, 1), 100.0))


def test_denoise_scale_from_median_absolute_hh():
    hh = np.tile(np.array([[0.1, -0.2], [0.3, -0.4]]), (2, 2))
    lh = np.zeros((4, 4))
    lh[0, 0] = 10.0
    pyr = hand_pyramid(lh, hh)
    out = wavelet_denoise(pyr, k=1.0)
    lam = 0.25 / 0.6745
    assert out.details[0].lh[0, 0] == pytest.approx(10.0 - lam, abs=1e-12)
    # coefficients below the threshold vanish
    assert out.details[0].hh[0, 0] == 0.0
    assert out.details[0].hh[1, 0] == 0.0


def test_denoise_zero_k_is_identity():
    rng = np.random.default_rng(3)
    pyr = build_pyramid(rng.random((16, 16)) * 255.0)
    out = wavelet_denoise(pyr, k=0.0)
    np.testing.assert_array_equal(out.ll, pyr.ll)
    for got, want in zip(out.details, pyr.details):
        for bg, bw in zip(got, want):
            np.testing.assert_array_equal(bg, bw)


def test_denoise_preserves_approximation():
    rng = np.random.default_rng(4)
    pyr = build_pyramid(rng.random((16, 16)) * 255.0)
    out = wavelet_denoise(pyr, k=3.0)
    assert out.ll is pyr.ll or np.array_equal(out.ll, pyr.ll)


def test_denoise_shrinks_toward_zero():
    rng = np.random.default_rng(5)
    pyr = build_pyramid(rng.random((16, 16)) * 255.0)
    out = wavelet_denoise(pyr, k=3.0)
    for got, want in zip(out.details, pyr.details):
        for bg, bw in zip(got, want):
            assert (np.abs(bg) <= np.abs(bw) + 1e-12).all()
            assert (bg * bw >= 0).all()


def test_denoise_validates_k():
    pyr = build_pyramid(np.zeros((8, 8)))
    with pytest.raises(ValueError):
        wavelet_denoise(pyr, k=-0.5)
    with pytest.raises(ValueError):
        wavelet_denoise(pyr, k=float("nan"))


# ----------------------------------------------------------------------
# refinement


def test_refine_blends_constant_pyramids():
    fused = build_pyramid(np.full((8, 8), 1.0))
    denoised = build_pyramid(np.full((8, 8), 0.8))
    out = collapse_pyramid(refine(fused, denoised, 0.15))
    np.testing.assert_allclose(out, 0.83, atol=1e-12)


def test_refine_endpoints():
    rng = np.random.default_rng(6)
    fused = build_pyramid(rng.random((16, 16)))
    denoised = build_pyramid(rng.random((16, 16)))
    all_denoised = refine(fused, denoised, 0.0)
    np.testing.assert_array_equal(all_denoised.ll, denoised.ll)
    all_fused = refine(fused, denoised, 1.0)
    np.testing.assert_array_equal(all_fused.ll, fused.ll)


def test_refine_validation():
    pyr = build_pyramid(np.zeros((8, 8)))
    other = build_pyramid(np.zeros((16, 16)))
    with pytest.raises(ValueError):
        refine(pyr, pyr, 1.5)
    with pytest.raises(ValueError):
        refine(pyr, other, 0.5)


# ----------------------------------------------------------------------
# full recurrent pipeline


def test_restorer_requires_pyramid_friendly_dimensions():
    stream = periodic(4, 32, width=12, height=16)
    with pytest.raises(ValueError):
        RecurrentRestorer(stream, identity_calibration(12, 16))


def test_restorer_noise_free_constant_scene():
    stream = simulate_ideal(np.full((16, 16), 51.0), length=256)
    calib = identity_calibration(16, 16)
    outputs = restore_recurrent(stream, calib, ticks=[64, 96, 128, 160])
    bound = 255.0 / 8.0 + 1e-6
    for out in outputs:
        assert np.abs(out - 51.0).max() <= bound


def test_restorer_first_step_fuses_with_itself():
    stream = simulate_ideal(np.full((16, 16), 51.0), length=128)
    calib = identity_calibration(16, 16)
    restorer = RecurrentRestorer(stream, calib)
    result = restorer.step(64)
    # with no history the fused stage equals the corrected input
    np.testing.assert_allclose(result.fused, result.corrected, atol=1e-9)


def test_restorer_outputs_are_clamped():
    rng = np.random.default_rng(8)
    dense = rng.random((128, 16, 16)) < 0.6
    stream = SpikeStream.from_dense(dense)
    calib = identity_calibration(16, 16)
    result = RecurrentRestorer(stream, calib).step(64)
    for img in (result.adaptive, result.corrected, result.fused, result.denoised, result.output):
        assert img.min() >= 0.0 and img.max() <= 255.0
    assert len(result.masks) == 3
    assert result.tick == 64


def test_restorer_is_deterministic():
    rng = np.random.default_rng(9)
    dense = rng.random((192, 16, 16)) < 0.3
    stream = SpikeStream.from_dense(dense)
    calib = identity_calibration(16, 16)
    a = restore_recurrent(stream, calib, ticks=[32, 96, 160])
    b = restore_recurrent(stream, calib, ticks=[32, 96, 160])
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_restorer_window_override_feeds_fixed_rate():
    stream = simulate_ideal(np.full((16, 16), 80.0), length=256)
    calib = identity_calibration(16, 16)
    restorer = RecurrentRestorer(stream, calib, window_override=64)
    result = restorer.step(128)
    np.testing.assert_array_equal(result.adaptive, tfp(stream, 128, 64))


def test_restorer_bootstrap_with_short_stream():
    stream = simulate_ideal(np.full((8, 8), 51.0), length=16)
    calib = identity_calibration(8, 8)
    outputs = restore_recurrent(stream, calib, ticks=[8])
    assert outputs[0].shape == (8, 8)


def test_restore_recurrent_validates_ticks():
    stream = simulate_ideal(np.full((8, 8), 51.0), length=64)
    calib = identity_calibration(8, 8)
    with pytest.raises(ValueError):
        restore_recurrent(stream, calib, ticks=[])
    with pytest.raises(ValueError):
        restore_recurrent(stream, calib, ticks=[10, 10])
    with pytest.raises(ValueError):
        restore_recurrent(stream, calib, ticks=[20, 10])
    with pytest.raises(IndexError):
        restore_recurrent(stream, calib, ticks=[64])


def test_restorer_fuse_smooths_shot_noise_over_steps():
    # static scene with shot noise: late outputs should be closer to the
    # truth than the first, because fusion keeps averaging still regions
    from spikecam.noise import NoiseConfig
    from spikecam.simulate import SimulationRequest, simulate

    rng_img = np.full((16, 16), 25.0)
    req = SimulationRequest(
        source=rng_img,
        length=2048,
        noise=NoiseConfig(
            enable_shot=True,
            enable_dark=False,
            enable_nonuniformity=False,
            enable_quantization=False,
            rng_seed=10,
        ),
    )
    stream = simulate(req)
    calib = identity_calibration(16, 16)
    restorer = RecurrentRestorer(stream, calib)
    ticks = list(range(256, 2048, 256))
    errs = [float(np.abs(restorer.step(t).output - 25.0).mean()) for t in ticks]
    assert min(errs[-3:]) < errs[0]


# ----------------------------------------------------------------------
# method dispatch


def test_reconstruct_checks_method_and_window():
    stream = simulate_ideal(np.full((8, 8), 51.0), length=64)
    calib = identity_calibration(8, 8)
    with pytest.raises(ValueError, match="positive window"):
        reconstruct(stream, "tfp", [10], calib)
    with pytest.raises(ValueError, match="does not take a window"):
        reconstruct(stream, "tfi", [10], calib, window=8)
    with pytest.raises(ValueError, match="unknown method"):
        reconstruct(stream, "rsir", [10], calib)


def test_reconstruct_checks_every_tick_for_every_method():
    # tfp's clipped window would overlap the stream at tick -1; the tick
    # itself is still outside it.
    stream = simulate_ideal(np.full((8, 8), 51.0), length=64)
    calib = identity_calibration(8, 8)
    with pytest.raises(IndexError):
        reconstruct(stream, "tfp", [-1], calib, window=4)
    for method in ("tfp", "tfi", "ast", "recurrent"):
        window = 4 if method == "tfp" else None
        for ticks in ([-1], [64], [10, 64]):
            with pytest.raises(IndexError, match="outside stream of length 64"):
                reconstruct(stream, method, ticks, calib, window=window)
