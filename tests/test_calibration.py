import numpy as np
import pytest

from spikecam.calibration import (
    CalibrationData,
    CalibrationError,
    CalibrationQualityError,
    build_calibration,
    estimate_dark_equivalent,
    estimate_nonuniformity,
    identity_calibration,
    make_calibration,
    mean_interval_map,
    select_reference_pixel,
)
from spikecam.streams import ClockParams, SpikeStream


def stream_with_spikes(spike_ticks, length, width=1, height=1, pixel=(0, 0)):
    dense = np.zeros((length, height, width), dtype=bool)
    x, y = pixel
    dense[list(spike_ticks), y, x] = True
    return SpikeStream.from_dense(dense)


def periodic_stream(periods, length):
    """One pixel per entry firing at integer multiples of its period."""
    periods = np.asarray(periods, dtype=np.float64)
    dense = np.zeros((length, *periods.shape), dtype=bool)
    for y in range(periods.shape[0]):
        for x in range(periods.shape[1]):
            p = periods[y, x]
            if np.isfinite(p):
                dense[:: int(p), y, x] = True
    return SpikeStream.from_dense(dense)


# ----------------------------------------------------------------------
# calibration container


def test_identity_calibration_maps():
    calib = identity_calibration(4, 3)
    assert calib.shape == (3, 4)
    assert calib.width == 4 and calib.height == 3
    np.testing.assert_array_equal(calib.L_d, 0.0)
    np.testing.assert_array_equal(calib.R, 1.0)
    np.testing.assert_array_equal(calib.Q_r, 255.0)
    np.testing.assert_array_equal(calib.D_dark, np.inf)
    assert calib.reference_pixel == (0, 0)


def test_make_calibration_derives_redundant_maps():
    calib = make_calibration(L_d=[[2.0, 0.0]], R=[[0.5, 2.0]])
    np.testing.assert_array_equal(calib.Q_r, [[510.0, 127.5]])
    np.testing.assert_array_equal(calib.D_dark, [[255.0, np.inf]])


def test_container_rejects_inconsistent_maps():
    good = make_calibration(L_d=[[1.0]], R=[[1.0]])
    with pytest.raises(ValueError):
        CalibrationData(
            L_d=good.L_d, R=good.R, Q_r=good.Q_r + 1.0, D_dark=good.D_dark,
            reference_pixel=(0, 0),
        )
    with pytest.raises(ValueError):
        CalibrationData(
            L_d=good.L_d, R=good.R, Q_r=good.Q_r, D_dark=good.D_dark + 1.0,
            reference_pixel=(0, 0),
        )


def test_container_rejects_bad_values():
    with pytest.raises(ValueError):
        make_calibration(L_d=[[-1.0]], R=[[1.0]])
    with pytest.raises(ValueError):
        make_calibration(L_d=[[np.inf]], R=[[1.0]])
    with pytest.raises(ValueError):
        make_calibration(L_d=[[0.0]], R=[[0.0]])
    with pytest.raises(ValueError):
        make_calibration(L_d=[[0.0]], R=[[-0.5]])
    with pytest.raises(ValueError):
        make_calibration(L_d=[[0.0]], R=[[1.0]], reference_pixel=(1, 0))
    with pytest.raises(ValueError):
        make_calibration(L_d=np.zeros((2, 2)), R=np.ones((2, 3)))


def test_container_maps_are_immutable():
    calib = identity_calibration(2, 2)
    with pytest.raises(ValueError):
        calib.L_d[0, 0] = 5.0


def test_require_shape():
    calib = identity_calibration(4, 2)
    calib.require_shape((2, 4))
    with pytest.raises(ValueError):
        calib.require_shape((4, 2))


# ----------------------------------------------------------------------
# interval estimation


def test_mean_interval_even_train():
    stream = stream_with_spikes([0, 5, 10, 15], length=20)
    assert mean_interval_map(stream)[0, 0] == 5.0


def test_mean_interval_uneven_train_averages():
    stream = stream_with_spikes([0, 4, 10], length=12)
    assert mean_interval_map(stream)[0, 0] == 5.0


def test_mean_interval_needs_two_spikes():
    assert mean_interval_map(stream_with_spikes([7], length=16))[0, 0] == np.inf
    assert mean_interval_map(stream_with_spikes([], length=16))[0, 0] == np.inf


def test_mean_interval_ignores_partial_end_periods():
    # spikes at 3 and 13 inside a 20-tick stream: interval is 10 regardless
    # of the truncated head and tail
    stream = stream_with_spikes([3, 13], length=20)
    assert mean_interval_map(stream)[0, 0] == 10.0


def test_mean_interval_is_per_pixel():
    dense = np.zeros((24, 1, 2), dtype=bool)
    dense[::4, 0, 0] = True
    dense[::8, 0, 1] = True
    intervals = mean_interval_map(SpikeStream.from_dense(dense))
    np.testing.assert_array_equal(intervals, [[4.0, 8.0]])


# ----------------------------------------------------------------------
# dark equivalent


def test_dark_equivalent_basic_ratio():
    L_d = estimate_dark_equivalent(np.array([[100.0]]), np.array([[20.0]]), L_1=40.0)
    assert L_d[0, 0] == 10.0


def test_dark_equivalent_silent_dark_pixel_is_zero():
    L_d = estimate_dark_equivalent(np.array([[np.inf]]), np.array([[20.0]]), L_1=40.0)
    assert L_d[0, 0] == 0.0


def test_dark_equivalent_double_interval_recovers_l1():
    # T_d exactly twice T_1 means dark current equals the lit intensity
    L_d = estimate_dark_equivalent(np.array([[40.0]]), np.array([[20.0]]), L_1=30.0)
    assert L_d[0, 0] == 30.0


def test_dark_equivalent_keeps_a_pixel_firing_every_tick():
    # T_1 = 1 is the shortest interval there is, not a bad one
    L_d = estimate_dark_equivalent(np.array([[10.0]]), np.array([[1.0]]), L_1=30.0)
    assert L_d[0, 0] == pytest.approx(30.0 / 9.0)


def test_dark_equivalent_masks_inconsistent_pixels():
    T_d = np.array([[20.0, 10.0, np.inf]])
    T_1 = np.array([[20.0, 20.0, np.inf]])
    L_d = estimate_dark_equivalent(T_d, T_1, L_1=40.0)
    assert np.isnan(L_d).all()


def test_dark_equivalent_validation():
    with pytest.raises(ValueError):
        estimate_dark_equivalent(np.zeros((2, 2)), np.zeros((2, 3)), L_1=10.0)
    for bad in (0.0, -1.0, np.inf):
        with pytest.raises(ValueError):
            estimate_dark_equivalent(np.ones((1, 1)), np.ones((1, 1)), L_1=bad)


# ----------------------------------------------------------------------
# reference pixel


def test_reference_closest_to_mean():
    T_2 = np.array([[4.0, 5.0, 9.0]])  # mean 6: the 5 is closest
    assert select_reference_pixel(T_2) == (1, 0)


def test_reference_uniform_picks_origin():
    assert select_reference_pixel(np.full((3, 3), 7.0)) == (0, 0)


def test_reference_tie_resolves_row_major():
    # 4 and 6 are equidistant from the mean 5; row-major first wins
    T_2 = np.array([[9.0, 4.0], [6.0, 1.0]])
    assert T_2.mean() == 5.0
    assert select_reference_pixel(T_2) == (1, 0)


def test_reference_ignores_silent_pixels():
    T_2 = np.array([[np.inf, 3.0], [np.inf, np.inf]])
    assert select_reference_pixel(T_2) == (1, 0)


def test_reference_requires_a_finite_pixel():
    with pytest.raises(CalibrationError):
        select_reference_pixel(np.full((2, 2), np.inf))


# ----------------------------------------------------------------------
# response nonuniformity


def test_nonuniformity_known_ratio():
    T_2 = np.array([[4.25, 4.0]])
    L_d = np.array([[10.0, 15.0]])
    R = estimate_nonuniformity(T_2, L_d, L_2=50.0, reference_pixel=(0, 0))
    assert R[0, 0] == 1.0
    assert R[0, 1] == pytest.approx(255.0 / 260.0, abs=1e-15)


def test_nonuniformity_reference_is_unity():
    rng = np.random.default_rng(0)
    T_2 = rng.uniform(3.0, 6.0, (4, 4))
    L_d = rng.uniform(0.0, 5.0, (4, 4))
    R = estimate_nonuniformity(T_2, L_d, L_2=60.0, reference_pixel=(2, 1))
    assert R[1, 2] == 1.0


def test_nonuniformity_is_scale_invariant():
    rng = np.random.default_rng(1)
    T_2 = rng.uniform(3.0, 6.0, (4, 4))
    L_d = rng.uniform(0.0, 5.0, (4, 4))
    a = estimate_nonuniformity(T_2, L_d, L_2=60.0, reference_pixel=(0, 0))
    b = estimate_nonuniformity(3.0 * T_2, L_d, L_2=60.0, reference_pixel=(0, 0))
    np.testing.assert_allclose(a, b, rtol=1e-14)


def test_nonuniformity_propagates_masks():
    T_2 = np.array([[4.0, np.inf], [4.0, 4.0]])
    L_d = np.array([[1.0, 1.0], [np.nan, 1.0]])
    R = estimate_nonuniformity(T_2, L_d, L_2=50.0, reference_pixel=(1, 1))
    assert np.isnan(R[0, 1])
    assert np.isnan(R[1, 0])
    assert np.isfinite(R[0, 0]) and R[1, 1] == 1.0


def test_nonuniformity_rejects_unusable_reference():
    T_2 = np.array([[np.inf, 4.0]])
    L_d = np.array([[1.0, 1.0]])
    with pytest.raises(CalibrationError):
        estimate_nonuniformity(T_2, L_d, L_2=50.0, reference_pixel=(0, 0))


# ----------------------------------------------------------------------
# full procedure


def test_build_calibration_ideal_sensor():
    shape = (2, 3)
    dark = periodic_stream(np.full(shape, np.inf), length=600)
    light1 = periodic_stream(np.full(shape, 5.0), length=600)  # L = 51
    light2 = periodic_stream(np.full(shape, 3.0), length=600)  # L = 85
    calib = build_calibration(dark, light1, 51.0, light2, 85.0)
    np.testing.assert_array_equal(calib.L_d, 0.0)
    np.testing.assert_array_equal(calib.R, 1.0)
    np.testing.assert_array_equal(calib.Q_r, 255.0)
    np.testing.assert_array_equal(calib.D_dark, np.inf)
    assert calib.reference_pixel == (0, 0)


def test_build_calibration_recovers_planted_intervals():
    shape = (2, 2)
    dark = periodic_stream(np.full(shape, 100.0), length=2000)
    light1 = periodic_stream(np.full(shape, 20.0), length=2000)
    light2 = periodic_stream(np.full(shape, 10.0), length=2000)
    calib = build_calibration(dark, light1, 40.0, light2, 80.0)
    np.testing.assert_array_equal(calib.L_d, 10.0)
    np.testing.assert_array_equal(calib.R, 1.0)
    np.testing.assert_array_equal(calib.D_dark, 25.5)


def test_build_calibration_relative_response():
    # pixel 1 discharges slower under the same light: smaller R
    dark = periodic_stream(np.full((1, 2), np.inf), length=600)
    light1 = periodic_stream(np.array([[4.0, 5.0]]), length=600)
    light2 = periodic_stream(np.array([[4.0, 5.0]]), length=600)
    calib = build_calibration(dark, light1, 60.0, light2, 60.0)
    ref_x, ref_y = calib.reference_pixel
    assert calib.R[ref_y, ref_x] == 1.0
    other = calib.R[0, 1 - ref_x]
    assert other == pytest.approx(0.8 if ref_x == 0 else 1.25, abs=1e-12)
    np.testing.assert_array_equal(calib.Q_r * calib.R, 255.0)


def test_build_calibration_masks_bad_pixels_with_neutral_values():
    # 1 of 16 pixels silent under light: below the quality limit
    periods = np.full((4, 4), 5.0)
    periods[2, 3] = np.inf
    dark = periodic_stream(np.full((4, 4), np.inf), length=400)
    light1 = periodic_stream(periods, length=400)
    light2 = periodic_stream(periods, length=400)
    calib = build_calibration(dark, light1, 51.0, light2, 85.0)
    assert calib.L_d[2, 3] == 0.0
    assert calib.R[2, 3] == 1.0
    mask = np.ones((4, 4), dtype=bool)
    mask[2, 3] = False
    np.testing.assert_array_equal(calib.R[mask], 1.0)


def test_build_calibration_quality_limit():
    # 2 of 16 pixels unusable: 12.5% > 10%
    periods = np.full((4, 4), 5.0)
    periods[0, 0] = np.inf
    periods[3, 1] = np.inf
    dark = periodic_stream(np.full((4, 4), np.inf), length=400)
    light1 = periodic_stream(periods, length=400)
    light2 = periodic_stream(periods, length=400)
    with pytest.raises(CalibrationQualityError):
        build_calibration(dark, light1, 51.0, light2, 85.0)


def test_build_calibration_quality_error_states_the_masked_share():
    periods = np.full((4, 4), 5.0)
    periods[0, 0] = np.inf
    periods[3, 1] = np.inf
    dark = periodic_stream(np.full((4, 4), np.inf), length=400)
    light = periodic_stream(periods, length=400)
    with pytest.raises(CalibrationQualityError, match=r"2 of 16 pixels \(12\.5%\) failed .* limit is 10%"):
        build_calibration(dark, light, 51.0, light, 85.0)


def test_build_calibration_quality_limit_is_adjustable():
    periods = np.full((4, 4), 5.0)
    periods[0, 0] = np.inf
    periods[3, 1] = np.inf
    dark = periodic_stream(np.full((4, 4), np.inf), length=400)
    light1 = periodic_stream(periods, length=400)
    light2 = periodic_stream(periods, length=400)
    calib = build_calibration(
        dark, light1, 51.0, light2, 85.0, max_masked_fraction=0.2
    )
    assert calib.R[0, 0] == 1.0


def test_build_calibration_rejects_mismatched_streams():
    dark = periodic_stream(np.full((2, 2), np.inf), length=100)
    small = periodic_stream(np.full((1, 2), 5.0), length=100)
    big = periodic_stream(np.full((2, 2), 5.0), length=100)
    with pytest.raises(ValueError):
        build_calibration(dark, small, 51.0, big, 85.0)
    with pytest.raises(ValueError):
        build_calibration(dark, big, 51.0, small, 85.0)


def test_build_calibration_keeps_stream_clock():
    clock = ClockParams(tick_seconds=1e-4)
    dark = SpikeStream.from_dense(np.zeros((400, 2, 2), dtype=bool), clock=clock)
    lit = periodic_stream(np.full((2, 2), 5.0), length=400)
    lit = SpikeStream.from_packed(lit.bits, 2, 2, clock=clock)
    calib = build_calibration(dark, lit, 51.0, lit, 51.0)
    assert calib.clock == clock


def test_build_calibration_is_deterministic():
    shape = (3, 3)
    dark = periodic_stream(np.full(shape, 50.0), length=1000)
    light1 = periodic_stream(np.full(shape, 10.0), length=1000)
    light2 = periodic_stream(np.full(shape, 5.0), length=1000)
    a = build_calibration(dark, light1, 25.0, light2, 60.0)
    b = build_calibration(dark, light1, 25.0, light2, 60.0)
    np.testing.assert_array_equal(a.L_d, b.L_d)
    np.testing.assert_array_equal(a.R, b.R)
    assert a.reference_pixel == b.reference_pixel
