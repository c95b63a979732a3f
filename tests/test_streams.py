import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spikecam.streams import ClockParams, SpikeStream, frame_bytes, validate_image


def dense_volume(draw, max_side=12, max_len=24):
    width = draw(st.integers(1, max_side))
    height = draw(st.integers(1, max_side))
    length = draw(st.integers(0, max_len))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return rng.random((length, height, width)) < 0.3


volumes = st.builds(lambda d: d, st.composite(dense_volume)())


# ----------------------------------------------------------------------
# clock


def test_clock_defaults():
    clock = ClockParams()
    assert clock.tick_seconds == 50e-6
    assert clock.max_intensity == 255.0


def test_clock_rejects_bad_tick():
    for tick in (0.0, -1e-6, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ClockParams(tick_seconds=tick)


def test_clock_threshold_fixed():
    with pytest.raises(ValueError):
        ClockParams(max_intensity=128.0)


def test_frame_bytes_rounds_up():
    assert frame_bytes(8, 1) == 1
    assert frame_bytes(9, 1) == 2
    assert frame_bytes(400, 250) == 12500
    assert frame_bytes(3, 3) == 2


# ----------------------------------------------------------------------
# packing layout


def test_pixel_zero_maps_to_lsb_of_first_byte():
    dense = np.zeros((1, 1, 8), dtype=bool)
    dense[0, 0, 0] = True
    stream = SpikeStream.from_dense(dense)
    assert stream.bits[0, 0] == 0x01


def test_pixel_seven_maps_to_msb_of_first_byte():
    dense = np.zeros((1, 1, 8), dtype=bool)
    dense[0, 0, 7] = True
    stream = SpikeStream.from_dense(dense)
    assert stream.bits[0, 0] == 0x80


def test_rows_pack_in_raster_order():
    # pixel (x=1, y=2) of a 4x3 sensor is flat index 9: byte 1, bit 1
    dense = np.zeros((1, 3, 4), dtype=bool)
    dense[0, 2, 1] = True
    stream = SpikeStream.from_dense(dense)
    assert stream.bits[0, 0] == 0x00
    assert stream.bits[0, 1] == 0x02


@given(volumes)
def test_pack_unpack_round_trip(dense):
    stream = SpikeStream.from_dense(dense)
    assert stream.bits.shape == (dense.shape[0], frame_bytes(dense.shape[2], dense.shape[1]))
    np.testing.assert_array_equal(stream.to_dense(), dense)


@given(volumes)
def test_from_packed_matches_from_dense(dense):
    a = SpikeStream.from_dense(dense)
    b = SpikeStream.from_packed(a.bits, a.width, a.height)
    assert a == b


def test_padding_bits_are_masked():
    # 3x1 sensor leaves 5 padding bits; junk there must not affect equality
    payload = np.array([[0b11111101]], dtype=np.uint8)
    stream = SpikeStream.from_packed(payload, width=3, height=1)
    clean = SpikeStream.from_dense(np.array([[[True, False, True]]]))
    assert stream == clean
    assert stream.bits[0, 0] == 0b101


def test_padding_bits_are_masked_past_the_first_byte():
    # 3x3 sensor: pixel 8 is bit 0 of the second byte, the rest is padding
    payload = np.array([[0xFF, 0b11111111]], dtype=np.uint8)
    stream = SpikeStream.from_packed(payload, width=3, height=3)
    assert stream.bits.tolist() == [[0xFF, 0b1]]


def test_bits_are_immutable():
    stream = SpikeStream.from_dense(np.ones((2, 2, 2), dtype=bool))
    with pytest.raises(ValueError):
        stream.bits[0, 0] = 0


def test_constructor_copies_payload():
    payload = np.zeros((2, 1), dtype=np.uint8)
    stream = SpikeStream.from_packed(payload, width=8, height=1)
    payload[0, 0] = 0xFF
    assert stream.bits[0, 0] == 0


def test_constructor_takes_over_a_clean_payload():
    payload = np.array([[0b101], [0b010]], dtype=np.uint8)
    stream = SpikeStream(width=3, height=1, length=2, bits=payload)
    assert np.shares_memory(stream.bits, payload)
    assert not payload.flags.writeable


def test_constructor_masks_padding_without_writing_to_the_callers_array():
    payload = np.array([[0b11111101]], dtype=np.uint8)
    stream = SpikeStream(width=3, height=1, length=1, bits=payload)
    assert stream.bits[0, 0] == 0b101
    assert payload[0, 0] == 0b11111101
    assert payload.flags.writeable


def test_equality_includes_clock():
    dense = np.ones((1, 1, 1), dtype=bool)
    a = SpikeStream.from_dense(dense)
    b = SpikeStream.from_dense(dense, clock=ClockParams(tick_seconds=1e-3))
    assert a != b


def test_shape_validation():
    with pytest.raises(ValueError):
        SpikeStream(width=0, height=4, length=1)
    with pytest.raises(ValueError):
        SpikeStream(width=4, height=4, length=-1)
    with pytest.raises(ValueError):
        SpikeStream.from_packed(np.zeros((3, 7), dtype=np.uint8), width=8, height=1)
    with pytest.raises(ValueError):
        SpikeStream.from_dense(np.zeros((4, 4), dtype=bool))


# ----------------------------------------------------------------------
# single-bit access


def test_get_spike_reads_single_bits():
    dense = np.zeros((3, 2, 2), dtype=bool)
    dense[1, 0, 1] = True
    stream = SpikeStream.from_dense(dense)
    assert stream.get_spike(1, 0, 1) is True
    assert stream.get_spike(1, 0, 0) is False
    assert stream.get_spike(0, 0, 1) is False
    assert stream.get_spike(1, 1, 1) is False


def test_get_spike_bounds():
    stream = SpikeStream.from_dense(np.zeros((2, 2, 2), dtype=bool))
    for x, y, t in [(-1, 0, 0), (2, 0, 0), (0, -1, 0), (0, 2, 0), (0, 0, -1), (0, 0, 2)]:
        with pytest.raises(IndexError):
            stream.get_spike(x, y, t)


@given(volumes)
def test_get_spike_matches_dense(dense):
    stream = SpikeStream.from_dense(dense)
    for _ in range(10):
        if dense.size == 0:
            return
        t = int(np.random.default_rng(0).integers(dense.shape[0])) if dense.shape[0] else 0
        flat = np.argwhere(dense)
        if flat.size:
            t, y, x = flat[0]
            assert stream.get_spike(int(x), int(y), int(t)) is True
        return


# ----------------------------------------------------------------------
# densities and counts


def test_spike_density_periodic_quarter():
    dense = np.zeros((32, 1, 1), dtype=bool)
    dense[3::4, 0, 0] = True
    stream = SpikeStream.from_dense(dense)
    assert stream.spike_density(0, 0, 0, 32) == 0.25


def test_spike_density_extremes():
    ones = SpikeStream.from_dense(np.ones((16, 1, 1), dtype=bool))
    zeros = SpikeStream.from_dense(np.zeros((16, 1, 1), dtype=bool))
    assert ones.spike_density(0, 0, 0, 16) == 1.0
    assert zeros.spike_density(0, 0, 0, 16) == 0.0


def test_spike_density_clips_window_to_stream():
    dense = np.ones((8, 1, 1), dtype=bool)
    stream = SpikeStream.from_dense(dense)
    # window [4, 20) clips to [4, 8): all four ticks fire
    assert stream.spike_density(0, 0, 4, 16) == 1.0
    # negative start clips to zero
    assert stream.spike_density(0, 0, -4, 8) == 1.0


def test_spike_density_rejects_pixels_outside_the_sensor():
    stream = SpikeStream.from_dense(np.ones((4, 2, 3), dtype=bool))
    for x, y in [(3, 0), (0, 2), (-1, 0), (0, -1)]:
        with pytest.raises(IndexError):
            stream.spike_density(x, y, 0, 4)


def test_spike_density_rejects_empty_window():
    stream = SpikeStream.from_dense(np.ones((4, 1, 1), dtype=bool))
    with pytest.raises(ValueError):
        stream.spike_density(0, 0, 4, 2)
    with pytest.raises(ValueError):
        stream.spike_density(0, 0, 0, 0)


@given(volumes)
def test_count_map_matches_dense_sum(dense):
    if dense.shape[0] == 0:
        return
    stream = SpikeStream.from_dense(dense)
    counts = stream.count_map(0, dense.shape[0])
    np.testing.assert_array_equal(counts, dense.sum(axis=0))


def test_count_map_subrange():
    rng = np.random.default_rng(7)
    dense = rng.random((20, 5, 9)) < 0.4
    stream = SpikeStream.from_dense(dense)
    np.testing.assert_array_equal(stream.count_map(3, 11), dense[3:11].sum(axis=0))


@given(volumes, st.integers(0, 2**32 - 1))
def test_window_counts_match_dense_sums(dense, seed):
    length, height, width = dense.shape
    rng = np.random.default_rng(seed)
    ends = np.sort(rng.integers(0, length + 1, size=(2, height, width)), axis=0)
    got = SpikeStream.from_dense(dense).window_counts(ends[0], ends[1])
    want = [
        [dense[ends[0, y, x] : ends[1, y, x], y, x].sum() for x in range(width)]
        for y in range(height)
    ]
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)


def test_window_counts_validation():
    stream = SpikeStream.from_dense(np.ones((16, 2, 3), dtype=bool))
    zeros = np.zeros((2, 3), dtype=np.int64)
    with pytest.raises(ValueError):
        stream.window_counts(np.zeros((3, 2), dtype=np.int64), zeros)
    for lo, hi in ((zeros - 1, zeros), (zeros + 2, zeros + 1), (zeros, zeros + 17)):
        with pytest.raises(IndexError):
            stream.window_counts(lo, hi)


def test_density_map_matches_scalar_density():
    rng = np.random.default_rng(3)
    dense = rng.random((30, 4, 6)) < 0.5
    stream = SpikeStream.from_dense(dense)
    dmap = stream.density_map(5, 12)
    for y in range(4):
        for x in range(6):
            assert dmap[y, x] == stream.spike_density(x, y, 5, 12)


# ----------------------------------------------------------------------
# edge maps


def brute_edges(dense, t_start, t_stop, from_end, n):
    length, height, width = dense.shape
    lo, hi = max(t_start, 0), min(t_stop, length)
    out = np.full((n, height, width), -1, dtype=np.int64)
    for y in range(height):
        for x in range(width):
            ticks = [t for t in range(lo, hi) if dense[t, y, x]]
            if from_end:
                ticks = ticks[::-1]
            for k in range(min(n, len(ticks))):
                out[k, y, x] = ticks[k]
    return out


@given(volumes, st.booleans(), st.integers(1, 2))
def test_spike_edge_map_matches_brute_force(dense, from_end, n):
    stream = SpikeStream.from_dense(dense)
    got = stream.spike_edge_map(0, dense.shape[0], from_end=from_end, n=n)
    np.testing.assert_array_equal(got, brute_edges(dense, 0, dense.shape[0], from_end, n))


def test_spike_edge_map_crosses_chunk_boundaries():
    # spikes straddling the 4096-tick scan chunk
    dense = np.zeros((9000, 1, 2), dtype=bool)
    dense[[10, 5000], 0, 0] = True
    dense[[4095, 4096], 0, 1] = True
    stream = SpikeStream.from_dense(dense)
    first2 = stream.spike_edge_map(0, 9000, n=2)
    np.testing.assert_array_equal(first2[:, 0, 0], [10, 5000])
    np.testing.assert_array_equal(first2[:, 0, 1], [4095, 4096])
    last2 = stream.spike_edge_map(0, 9000, from_end=True, n=2)
    np.testing.assert_array_equal(last2[:, 0, 0], [5000, 10])
    np.testing.assert_array_equal(last2[:, 0, 1], [4096, 4095])


def test_spike_edge_map_defaults_to_the_first_spike():
    dense = np.zeros((6, 2, 3), dtype=bool)
    dense[[2, 4], 1, 2] = True
    edges = SpikeStream.from_dense(dense).spike_edge_map(0, 6)
    assert edges.shape == (1, 2, 3)
    assert edges[0, 1, 2] == 2 and (edges.ravel()[:-1] == -1).all()


def test_spike_edge_map_rejects_bad_n():
    stream = SpikeStream.from_dense(np.zeros((4, 1, 1), dtype=bool))
    with pytest.raises(ValueError):
        stream.spike_edge_map(0, 4, n=3)


# ----------------------------------------------------------------------
# reference reductions: count_map and spike_edge_map as they were before
# all three reductions shared one transposed tick-byte scan


def reference_count_map(stream, t_start, t_stop):
    lo = max(t_start, 0)
    hi = min(t_stop, stream.length)
    window = stream.bits[lo:hi]
    n_pixels = stream.height * stream.width
    count = np.empty(window.shape[1] * 8, dtype=np.int64)
    for k in range(8):
        count[k::8] = ((window >> k) & 1).sum(axis=0, dtype=np.int64)
    return count[:n_pixels].reshape(stream.height, stream.width)


def reference_spike_edge_map(stream, t_start, t_stop, from_end=False, n=1):
    lo = max(t_start, 0)
    hi = min(t_stop, stream.length)
    n_pixels = stream.height * stream.width
    t_a = np.full(n_pixels, -1, dtype=np.int64)
    t_b = np.full(n_pixels, -1, dtype=np.int64)
    chunk = 4096
    cols = np.arange(n_pixels)
    for off in range(lo, hi, chunk):
        end = min(off + chunk, hi)
        c_lo, c_hi = (off, end) if not from_end else (lo + hi - end, lo + hi - off)
        dense = stream.to_dense(c_lo, c_hi).reshape(c_hi - c_lo, n_pixels)
        if from_end:
            dense = dense[::-1]
        has1 = dense.any(axis=0)
        if has1.any():
            i1 = dense.argmax(axis=0)
            tick1 = (c_lo + i1) if not from_end else (c_hi - 1 - i1)
            fresh = (t_a < 0) & has1
            t_a[fresh] = tick1[fresh]
            if n == 2:
                d2 = dense.copy()
                d2[i1, cols] = False
                has2 = d2.any(axis=0)
                i2 = d2.argmax(axis=0)
                tick2 = (c_lo + i2) if not from_end else (c_hi - 1 - i2)
                seen_before = (t_a >= 0) & ~fresh
                take = (t_b < 0) & ((fresh & has2) | (seen_before & has1))
                cand = np.where(fresh, tick2, tick1)
                t_b[take] = cand[take]
        done = t_a >= 0 if n == 1 else t_b >= 0
        if done.all():
            break
    shape = (stream.height, stream.width)
    if n == 1:
        return t_a.reshape(1, *shape)
    return np.stack([t_a.reshape(shape), t_b.reshape(shape)])


def _reduction_grid_stream(length, seed):
    # 3x5 = 15 pixels, not a multiple of 8.  Pixel 0 never fires, pixel 1
    # fires once and pixel 2 twice; the rest span sparse to dense.
    rng = np.random.default_rng(seed)
    rates = np.array([0, 0, 0, 0.001, 0.01, 0.05, 0.2, 0.5, 0.9, 1, 0.002, 0.02, 0.1, 0.3, 0.7])
    dense = rng.random((length, 15)) < rates
    dense[:, 1] = False
    dense[rng.integers(length), 1] = True
    dense[:, 2] = False
    dense[rng.choice(length, size=min(2, length), replace=False), 2] = True
    return SpikeStream.from_dense(dense.reshape(length, 3, 5))


@pytest.mark.parametrize("length", [1, 7, 8, 9, 4095, 4096, 4097, 8200])
def test_reductions_match_reference_exactly(length):
    stream = _reduction_grid_stream(length, seed=length)
    ranges = [
        (0, length),
        (length // 3, length - length // 4),
        (-5, length // 2 + 1),
        (length // 2, length + 9),
        (-3, length + 3),
        (1, length),
    ]
    for t_start, t_stop in ranges:
        if min(t_stop, length) > max(t_start, 0):
            assert np.array_equal(
                stream.count_map(t_start, t_stop), reference_count_map(stream, t_start, t_stop)
            )
        for from_end in (False, True):
            for n in (1, 2):
                got = stream.spike_edge_map(t_start, t_stop, from_end=from_end, n=n)
                want = reference_spike_edge_map(stream, t_start, t_stop, from_end, n)
                assert got.dtype == np.int64
                assert np.array_equal(got, want), (t_start, t_stop, from_end, n)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_full_range_scans_stay_near_the_packed_size():
    # Both scans work in packed bytes, so neither may build the 8x larger
    # bool volume of the ticks it reads.
    rng = np.random.default_rng(11)
    length = 2048
    packed = np.packbits(rng.random((length, 64 * 64)) < 0.05, axis=1, bitorder="little")
    stream = SpikeStream.from_packed(packed, 64, 64)
    budget = 4 * stream.bits.nbytes
    assert _traced_peak(lambda: stream.count_map(0, length)) <= budget
    assert _traced_peak(lambda: stream.spike_edge_map(0, length, n=2)) <= budget
    assert _traced_peak(lambda: stream.spike_edge_map(0, length, from_end=True, n=2)) <= budget


# ----------------------------------------------------------------------
# image validation


def test_validate_image_accepts_and_converts():
    out = validate_image([[0, 1], [2, 3]])
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out, [[0, 1], [2, 3]])


def test_validate_image_rejects_bad_input():
    with pytest.raises(ValueError):
        validate_image(np.zeros(4))
    with pytest.raises(ValueError):
        validate_image(np.array([[1.0, float("nan")]]))
    with pytest.raises(ValueError):
        validate_image(np.array([[1.0, -0.5]]))
