import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spikecam.calibration import identity_calibration, make_calibration
from spikecam.noise import (
    NoiseConfig,
    TruncationDistribution,
    apply_imaging_model,
    make_rng,
    sample_dark,
    sample_quantization,
    sample_shot,
    split_rng,
    truncation_distribution,
)

# ----------------------------------------------------------------------
# independent oracle: exact rate distribution of a periodic train cut by
# a finite window, by enumerating window offsets in rational arithmetic


def truncation_oracle(period: Fraction, window: int) -> dict[Fraction, Fraction]:
    """Map measured rate -> probability, computed exactly.

    Spikes sit at every integer multiple of the period; a window of
    `window` ticks starts at an offset uniform over one period.  The
    count as a function of the offset s is ceil((s+window)/period) -
    ceil(s/period), piecewise constant with breakpoints at multiples of
    1/q for period p/q.  Evaluating at the p midpoints of a 1/q grid
    therefore enumerates every outcome with its exact probability.
    """
    p, q = period.numerator, period.denominator
    counts: dict[int, int] = {}
    for i in range(p):
        s = Fraction(2 * i + 1, 2 * q)
        n = math.ceil((s + window) / period) - math.ceil(s / period)
        counts[n] = counts.get(n, 0) + 1
    return {Fraction(n, window): Fraction(c, p) for n, c in counts.items()}


def test_oracle_recovers_known_case():
    dist = truncation_oracle(Fraction(4), 10)
    assert dist == {Fraction(3, 10): Fraction(1, 2), Fraction(2, 10): Fraction(1, 2)}


def test_oracle_expectation_is_exactly_true_rate():
    for p, q, window in [(4, 1, 10), (3, 1, 10), (7, 2, 16), (17, 3, 5), (5, 4, 64)]:
        period = Fraction(p, q)
        dist = truncation_oracle(period, window)
        assert sum(r * pr for r, pr in dist.items()) == 1 / period
        assert sum(dist.values()) == 1


# ----------------------------------------------------------------------
# truncation distribution under test


def outcomes_dict(dist: TruncationDistribution) -> dict[float, float]:
    return {r: p for r, p in dist.outcomes}


def test_period_four_window_ten():
    dist = truncation_distribution(4.0, 10)
    assert outcomes_dict(dist) == {0.3: 0.5, 0.2: 0.5}


def test_window_multiple_of_period_is_deterministic():
    dist = truncation_distribution(4.0, 8)
    assert outcomes_dict(dist) == {0.25: 1.0}


def test_period_three_window_ten():
    dist = truncation_distribution(3.0, 10)
    got = outcomes_dict(dist)
    assert set(got) == {0.4, 0.3}
    assert got[0.4] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert got[0.3] == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_period_longer_than_window():
    dist = truncation_distribution(8.0, 2)
    got = outcomes_dict(dist)
    assert got[0.5] == pytest.approx(0.25, abs=1e-15)
    assert got[0.0] == pytest.approx(0.75, abs=1e-15)


def test_outcomes_sorted_by_descending_rate():
    dist = truncation_distribution(3.0, 10)
    rates = [r for r, _ in dist.outcomes]
    assert rates == sorted(rates, reverse=True)


def test_truncation_validation():
    with pytest.raises(ValueError):
        truncation_distribution(0.0, 10)
    with pytest.raises(ValueError):
        truncation_distribution(-2.0, 10)
    with pytest.raises(ValueError):
        truncation_distribution(float("inf"), 10)
    with pytest.raises(ValueError):
        truncation_distribution(4.0, 0)
    with pytest.raises(ValueError):
        truncation_distribution(4.0, 2.5)


@given(
    st.integers(1, 512),
    st.sampled_from([1, 2, 4, 8, 16]),
    st.integers(1, 64),
)
def test_truncation_matches_oracle(p, q, window):
    period = Fraction(p, q)
    dist = truncation_distribution(p / q, window)
    expected = truncation_oracle(period, window)
    got = outcomes_dict(dist)
    assert len(got) == len(expected)
    for rate, prob in expected.items():
        matches = [g for g in got if abs(g - float(rate)) < 1e-12]
        assert len(matches) == 1
        assert got[matches[0]] == pytest.approx(float(prob), abs=1e-12)


@given(st.floats(0.05, 300.0), st.integers(1, 128))
def test_truncation_expectation_is_true_rate(period, window):
    dist = truncation_distribution(period, window)
    assert dist.expected_rate() == pytest.approx(1.0 / period, rel=1e-12)
    assert sum(p for _, p in dist.outcomes) == pytest.approx(1.0, abs=1e-12)
    assert all(p > 0 for _, p in dist.outcomes)
    assert len(dist.outcomes) <= 2


def test_truncation_sampling_is_supported_and_seeded():
    dist = truncation_distribution(3.0, 10)
    draws = dist.sample(make_rng(9), size=1000)
    assert set(np.unique(draws)) <= {0.3, 0.4}
    again = dist.sample(make_rng(9), size=1000)
    np.testing.assert_array_equal(draws, again)
    single = dist.sample(make_rng(4))
    assert isinstance(single, float)


# ----------------------------------------------------------------------
# generators


def test_make_rng_is_deterministic():
    a = make_rng(123).random(8)
    b = make_rng(123).random(8)
    np.testing.assert_array_equal(a, b)
    c = make_rng(124).random(8)
    assert not np.array_equal(a, c)


def test_make_rng_seed_range():
    make_rng(0)
    make_rng(2**64 - 1)
    with pytest.raises(ValueError):
        make_rng(-1)
    with pytest.raises(ValueError):
        make_rng(2**64)


def test_split_rng_children_are_independent_and_reproducible():
    kids_a = split_rng(make_rng(5), 3)
    kids_b = split_rng(make_rng(5), 3)
    draws_a = [k.random(4) for k in kids_a]
    draws_b = [k.random(4) for k in kids_b]
    for da, db in zip(draws_a, draws_b):
        np.testing.assert_array_equal(da, db)
    assert not np.array_equal(draws_a[0], draws_a[1])


def test_noise_config_factories():
    assert NoiseConfig.all(7).any_enabled
    assert NoiseConfig.all(7).rng_seed == 7
    off = NoiseConfig.none()
    assert not off.any_enabled
    assert not (off.enable_shot or off.enable_dark)
    assert not (off.enable_nonuniformity or off.enable_quantization)
    with pytest.raises(ValueError):
        NoiseConfig(rng_seed=-1)


# ----------------------------------------------------------------------
# samplers: moments at three-sigma bounds


def test_shot_moments():
    draws = sample_shot(np.full(1_000_000, 100.0), make_rng(0))
    assert 99.7 < draws.mean() < 100.3
    assert 98.0 < draws.var() < 102.0


def test_shot_zero_mean_is_silent():
    draws = sample_shot(np.zeros(10_000), make_rng(1))
    assert not draws.any()
    assert sample_shot(0.0, make_rng(1)) == 0


def test_shot_scalar_returns_int():
    value = sample_shot(100.0, make_rng(2))
    assert isinstance(value, int)


def test_shot_rejects_bad_means():
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            sample_shot(bad, make_rng(0))


def test_dark_counts_follow_per_pixel_means():
    dark_map = np.stack([np.full(200_000, 1.0), np.full(200_000, 100.0)])
    draws = sample_dark(dark_map, make_rng(3))
    row = draws.mean(axis=1)
    assert abs(row[0] - 1.0) < 3.0 * math.sqrt(1.0 / 200_000)
    assert abs(row[1] - 100.0) < 3.0 * math.sqrt(100.0 / 200_000)


def test_dark_zero_map_is_silent():
    draws = sample_dark(np.zeros((32, 32)), make_rng(4))
    assert not draws.any()


def test_quantization_support_and_moments():
    draws = sample_quantization(1_000_000, make_rng(5))
    assert draws.shape == (1_000_000,)
    assert np.abs(draws).max() < 1.0
    assert -0.003 < draws.mean() < 0.003
    assert 0.330 < draws.var() < 0.337


def test_quantization_shape_tuple():
    draws = sample_quantization((4, 6), make_rng(6))
    assert draws.shape == (4, 6)


# ----------------------------------------------------------------------
# combined closed-form observation


def test_flags_off_is_identity():
    calib = identity_calibration(8, 8)
    image = np.linspace(0.0, 255.0, 64).reshape(8, 8)
    out = apply_imaging_model(image, calib, NoiseConfig.none(), window=32)
    np.testing.assert_array_equal(out, image)


def test_windowed_readout_rounds_rate_to_window_grid():
    # intensity 51 discharges every 5 ticks; a 32-tick window sees 6 or 7
    calib = identity_calibration(64, 64)
    config = NoiseConfig(
        enable_shot=False,
        enable_dark=True,
        enable_nonuniformity=False,
        enable_quantization=False,
        rng_seed=11,
    )
    out = apply_imaging_model(np.full((64, 64), 51.0), calib, config, window=32)
    values = set(np.unique(out))
    assert values <= {255.0 * 6 / 32, 255.0 * 7 / 32}
    assert len(values) == 2
    # expectation is the true rate: mean within 3 sigma of 51
    assert abs(out.mean() - 51.0) < 0.2


def test_nonuniform_observation_without_dark_noise_adds_the_mean_dark_current():
    # Dark current 255/32 with no light discharges every 32 ticks at R = 1
    # and every 16 at R = 2, so a 64-tick window sees exactly 2 and 4 spikes.
    R = np.ones((8, 8))
    R[:, 4:] = 2.0
    calib = make_calibration(np.full((8, 8), 255.0 / 32), R)
    config = NoiseConfig(
        enable_shot=False,
        enable_dark=False,
        enable_nonuniformity=True,
        enable_quantization=False,
        rng_seed=15,
    )
    out = apply_imaging_model(np.zeros((8, 8)), calib, config, window=64)
    np.testing.assert_array_equal(out[:, :4], 255.0 * 2 / 64)
    np.testing.assert_array_equal(out[:, 4:], 255.0 * 4 / 64)


def test_shot_observation_is_unbiased():
    calib = identity_calibration(400, 256)
    config = NoiseConfig(
        enable_shot=True,
        enable_dark=False,
        enable_nonuniformity=False,
        enable_quantization=False,
        rng_seed=12,
    )
    out = apply_imaging_model(np.full((256, 400), 100.0), calib, config, window=256)
    assert 99.7 < out.mean() < 100.3


def test_zero_intensity_stays_silent():
    calib = identity_calibration(16, 16)
    config = NoiseConfig(
        enable_shot=True,
        enable_dark=False,
        enable_nonuniformity=False,
        enable_quantization=True,
        rng_seed=13,
    )
    out = apply_imaging_model(np.zeros((16, 16)), calib, config, window=64)
    np.testing.assert_array_equal(out, 0.0)


def test_observation_rate_is_capped_at_one_per_tick():
    calib = identity_calibration(16, 16)
    out = apply_imaging_model(
        np.full((16, 16), 5000.0), calib, NoiseConfig.all(14), window=32
    )
    assert out.max() <= 255.0


def test_observation_is_deterministic_given_seed():
    calib = identity_calibration(24, 24)
    image = np.linspace(1.0, 200.0, 576).reshape(24, 24)
    a = apply_imaging_model(image, calib, NoiseConfig.all(21), window=64)
    b = apply_imaging_model(image, calib, NoiseConfig.all(21), window=64)
    np.testing.assert_array_equal(a, b)
    c = apply_imaging_model(image, calib, NoiseConfig.all(22), window=64)
    assert not np.array_equal(a, c)


def test_observation_validates_inputs():
    calib = identity_calibration(8, 8)
    with pytest.raises(ValueError):
        apply_imaging_model(np.zeros((4, 4)), calib, NoiseConfig.none(), window=32)
    with pytest.raises(ValueError):
        apply_imaging_model(np.zeros((8, 8)), calib, NoiseConfig.none(), window=0)
    with pytest.raises(ValueError):
        apply_imaging_model(np.full((8, 8), -1.0), calib, NoiseConfig.none(), window=32)
