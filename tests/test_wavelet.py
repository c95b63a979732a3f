import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spikecam.wavelet import (
    PYRAMID_LEVELS,
    DetailBands,
    Subbands,
    WaveletPyramid,
    build_pyramid,
    collapse_pyramid,
    dwt_forward,
    dwt_inverse,
)


def random_image(seed, height, width, scale=255.0):
    rng = np.random.default_rng(seed)
    return rng.random((height, width)) * scale


even_images = st.builds(
    random_image,
    st.integers(0, 2**32 - 1),
    st.sampled_from([2, 4, 6, 10, 16]),
    st.sampled_from([2, 4, 8, 12]),
)

pyramid_images = st.builds(
    random_image,
    st.integers(0, 2**32 - 1),
    st.sampled_from([8, 16, 24, 32]),
    st.sampled_from([8, 16, 40]),
)


# ----------------------------------------------------------------------
# single analysis step


def test_forward_2x2_block():
    bands = dwt_forward(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert bands.ll[0, 0] == 5.0
    assert bands.lh[0, 0] == -2.0
    assert bands.hl[0, 0] == -1.0
    assert bands.hh[0, 0] == 0.0


def test_inverse_2x2_block():
    image = dwt_inverse(
        Subbands(
            ll=np.array([[5.0]]),
            lh=np.array([[-2.0]]),
            hl=np.array([[-1.0]]),
            hh=np.array([[0.0]]),
        )
    )
    np.testing.assert_array_equal(image, [[1.0, 2.0], [3.0, 4.0]])


def test_forward_constant_image():
    bands = dwt_forward(np.full((4, 4), 8.0))
    np.testing.assert_array_equal(bands.ll, np.full((2, 2), 16.0))
    np.testing.assert_array_equal(bands.lh, 0.0)
    np.testing.assert_array_equal(bands.hl, 0.0)
    np.testing.assert_array_equal(bands.hh, 0.0)


def test_forward_zero_image():
    bands = dwt_forward(np.zeros((6, 4)))
    for band in bands:
        np.testing.assert_array_equal(band, 0.0)


def test_forward_rejects_odd_dimensions():
    with pytest.raises(ValueError):
        dwt_forward(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        dwt_forward(np.zeros((4, 5)))
    with pytest.raises(ValueError):
        dwt_forward(np.zeros(4))


def test_inverse_rejects_mismatched_bands():
    with pytest.raises(ValueError):
        dwt_inverse(
            Subbands(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((1, 2)))
        )


@given(even_images)
def test_single_step_round_trip(image):
    back = dwt_inverse(dwt_forward(image))
    assert np.max(np.abs(back - image)) < 1e-9


@given(even_images)
def test_single_step_preserves_energy(image):
    bands = dwt_forward(image)
    before = float(np.sum(image * image))
    after = sum(float(np.sum(b * b)) for b in bands)
    assert after == pytest.approx(before, rel=1e-6, abs=1e-12)


def test_row_step_inside_block_lands_in_lh():
    image = np.zeros((4, 4))
    image[0, :] = 1.0
    bands = dwt_forward(image)
    np.testing.assert_array_equal(bands.lh[0], 1.0)
    np.testing.assert_array_equal(bands.hl, 0.0)
    np.testing.assert_array_equal(bands.hh, 0.0)


def test_column_step_inside_block_lands_in_hl():
    image = np.zeros((4, 4))
    image[:, 0] = 1.0
    bands = dwt_forward(image)
    np.testing.assert_array_equal(bands.hl[:, 0], 1.0)
    np.testing.assert_array_equal(bands.lh, 0.0)
    np.testing.assert_array_equal(bands.hh, 0.0)


# ----------------------------------------------------------------------
# full pyramid


def test_pyramid_constant_image_concentrates_in_ll():
    value = 37.5
    pyramid = build_pyramid(np.full((16, 16), value))
    np.testing.assert_allclose(pyramid.ll, 8.0 * value, atol=1e-12)
    for lvl in pyramid.details:
        for band in lvl:
            np.testing.assert_allclose(band, 0.0, atol=1e-12)


def test_pyramid_band_shapes():
    pyramid = build_pyramid(np.zeros((32, 16)))
    assert pyramid.details[0].lh.shape == (16, 8)
    assert pyramid.details[1].lh.shape == (8, 4)
    assert pyramid.details[2].lh.shape == (4, 2)
    assert pyramid.ll.shape == (4, 2)
    assert pyramid.image_shape == (32, 16)


def test_pyramid_rejects_indivisible_dimensions():
    for shape in [(12, 16), (16, 12), (4, 4)]:
        with pytest.raises(ValueError):
            build_pyramid(np.zeros(shape))


def test_pyramid_depth_is_fixed():
    with pytest.raises(ValueError):
        WaveletPyramid(details=(DetailBands(*(np.zeros((2, 2)),) * 3),) * 2, ll=np.zeros((2, 2)))


@given(pyramid_images)
def test_pyramid_round_trip(image):
    back = collapse_pyramid(build_pyramid(image))
    assert np.max(np.abs(back - image)) < 1e-9


@given(pyramid_images)
def test_pyramid_preserves_energy(image):
    pyramid = build_pyramid(image)
    before = float(np.sum(image * image))
    assert pyramid.energy() == pytest.approx(before, rel=1e-6, abs=1e-12)


def test_collapse_rejects_mismatched_levels():
    pyramid = build_pyramid(np.zeros((16, 16)))
    broken = WaveletPyramid(
        details=(pyramid.details[0], pyramid.details[0], pyramid.details[2]),
        ll=pyramid.ll,
    )
    with pytest.raises(ValueError):
        collapse_pyramid(broken)


def test_map_coeffs_applies_to_every_band():
    pyramid = build_pyramid(random_image(5, 16, 16))
    doubled = pyramid.map_coeffs(lambda band: 2.0 * band)
    np.testing.assert_array_equal(doubled.ll, 2.0 * pyramid.ll)
    for lvl, lvl2 in zip(pyramid.details, doubled.details):
        for band, band2 in zip(lvl, lvl2):
            np.testing.assert_array_equal(band2, 2.0 * band)
    back = collapse_pyramid(doubled)
    np.testing.assert_allclose(back, 2.0 * collapse_pyramid(pyramid), atol=1e-9)


def test_linearity_of_decomposition():
    a = random_image(11, 16, 24)
    b = random_image(12, 16, 24)
    pa, pb, psum = build_pyramid(a), build_pyramid(b), build_pyramid(a + b)
    np.testing.assert_allclose(psum.ll, pa.ll + pb.ll, atol=1e-9)
    for la, lb, ls in zip(pa.details, pb.details, psum.details):
        for ba, bb, bs in zip(la, lb, ls):
            np.testing.assert_allclose(bs, ba + bb, atol=1e-9)
