import base64
import itertools
import os
import stat
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spikecam.calibration import make_calibration
from spikecam.formats import (
    FormatError,
    SPIKE_MAGIC,
    _write_file,
    center_crop,
    read_calibration,
    read_image,
    read_raw_stream,
    read_stream,
    write_calibration,
    write_image,
    write_stream,
)
from spikecam.streams import ClockParams, SpikeStream


def random_stream(seed, width, height, length, clock=None):
    rng = np.random.default_rng(seed)
    dense = rng.random((length, height, width)) < 0.3
    return SpikeStream.from_dense(dense, clock=clock)


# ----------------------------------------------------------------------
# stream container


def test_stream_round_trip_full_sensor(tmp_path):
    stream = random_stream(0, 400, 248, 1000)
    path = tmp_path / "dump.spk"
    write_stream(stream, path)
    assert path.stat().st_size == 36 + 1000 * (400 * 248 // 8)
    back = read_stream(path)
    assert back == stream
    assert back.clock.tick_seconds == 50e-6


def test_stream_header_layout(tmp_path):
    stream = SpikeStream.from_dense(np.zeros((5, 2, 3), dtype=bool))
    path = tmp_path / "tiny.spk"
    write_stream(stream, path)
    raw = path.read_bytes()
    magic, width, height, length, tick_ns, flags = struct.unpack_from("<8sIIQQI", raw)
    assert magic == SPIKE_MAGIC
    assert (width, height, length) == (3, 2, 5)
    assert tick_ns == 50000
    assert flags == 0
    assert len(raw) == 36 + 5 * 1


def test_stream_payload_bit_order(tmp_path):
    dense = np.zeros((1, 1, 8), dtype=bool)
    dense[0, 0, 0] = True
    path = tmp_path / "lsb.spk"
    write_stream(SpikeStream.from_dense(dense), path)
    assert path.read_bytes()[36:] == b"\x01"
    dense[0, 0, 0] = False
    dense[0, 0, 7] = True
    write_stream(SpikeStream.from_dense(dense), path)
    assert path.read_bytes()[36:] == b"\x80"


def test_stream_custom_clock_round_trip(tmp_path):
    stream = random_stream(1, 8, 4, 10, clock=ClockParams(tick_seconds=1e-3))
    path = tmp_path / "slow.spk"
    write_stream(stream, path)
    assert read_stream(path).clock.tick_seconds == 1e-3


def test_stream_empty_round_trip(tmp_path):
    stream = SpikeStream.from_dense(np.zeros((0, 4, 4), dtype=bool))
    path = tmp_path / "empty.spk"
    write_stream(stream, path)
    back = read_stream(path)
    assert back.length == 0 and back == stream


@pytest.mark.parametrize("width, height", [(1, 5), (7, 1), (1, 1)])
def test_stream_with_a_side_of_one_round_trips(tmp_path, width, height):
    stream = random_stream(2, width, height, 9)
    path = tmp_path / "thin.spk"
    write_stream(stream, path)
    assert read_stream(path) == stream


def test_stream_sub_nanosecond_tick_rejected(tmp_path):
    stream = random_stream(2, 8, 8, 4, clock=ClockParams(tick_seconds=1e-10))
    with pytest.raises(FormatError):
        write_stream(stream, tmp_path / "bad.spk")


def test_read_rejects_bad_magic(tmp_path):
    stream = random_stream(3, 8, 8, 4)
    path = tmp_path / "x.spk"
    write_stream(stream, path)
    raw = bytearray(path.read_bytes())
    raw[:8] = b"NOTSPIKE"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        read_stream(path)


def test_read_rejects_nonzero_flags(tmp_path):
    stream = random_stream(4, 8, 8, 4)
    path = tmp_path / "x.spk"
    write_stream(stream, path)
    raw = bytearray(path.read_bytes())
    raw[32] = 1  # flags field
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        read_stream(path)


def test_read_rejects_bad_geometry(tmp_path):
    stream = random_stream(5, 8, 8, 4)
    path = tmp_path / "x.spk"
    write_stream(stream, path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, 8, 0)  # width = 0
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        read_stream(path)


def test_read_rejects_a_zero_tick_duration(tmp_path):
    path = tmp_path / "x.spk"
    write_stream(random_stream(5, 8, 8, 4), path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<Q", raw, 24, 0)  # tick_nanoseconds = 0
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="tick_nanoseconds"):
        read_stream(path)


def test_read_rejects_truncated_and_padded_files(tmp_path):
    stream = random_stream(6, 8, 8, 4)
    path = tmp_path / "x.spk"
    write_stream(stream, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:20])
    with pytest.raises(FormatError):
        read_stream(path)
    path.write_bytes(raw[:-1])
    with pytest.raises(FormatError):
        read_stream(path)
    path.write_bytes(raw + b"\x00")
    with pytest.raises(FormatError):
        read_stream(path)


def test_read_stream_holds_about_one_copy_of_the_file(tmp_path):
    stream = random_stream(7, 96, 96, 4096)
    path = tmp_path / "big.spk"
    write_stream(stream, path)
    size = path.stat().st_size
    assert size >= 4 * 2**20
    del stream
    tracemalloc.start()
    try:
        back = read_stream(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * size
    assert not back.bits.flags.writeable
    with pytest.raises(ValueError):
        back.bits[0, 0] = 1


def test_read_stream_clears_padding_bits_set_in_the_file(tmp_path):
    # 3x3 pixels use bit 0 of each frame's second byte; the rest is padding
    path = tmp_path / "x.spk"
    write_stream(SpikeStream(width=3, height=3, length=2), path)
    raw = bytearray(path.read_bytes())
    raw[-1] = 0xFF
    path.write_bytes(bytes(raw))
    back = read_stream(path)
    assert back.bits[:, -1].tolist() == [0, 1]
    assert back.count_map(0, 2).sum() == 1


# ----------------------------------------------------------------------
# raw camera dumps


def test_raw_stream_reads_packed_frames(tmp_path):
    path = tmp_path / "dump.dat"
    path.write_bytes(bytes([0x01, 0x00, 0x80, 0x01]))
    stream = read_raw_stream(path, width=16, height=2)
    assert stream.length == 1
    assert stream.get_spike(0, 0, 0)
    assert stream.get_spike(7, 1, 0)
    assert stream.get_spike(8, 1, 0)
    assert stream.count_map(0, 1).sum() == 3


def test_raw_stream_msb_first_reverses_bits(tmp_path):
    path = tmp_path / "dump.dat"
    path.write_bytes(bytes([0x80]))
    lsb = read_raw_stream(path, width=8, height=1)
    msb = read_raw_stream(path, width=8, height=1, msb_first=True)
    assert lsb.get_spike(7, 0, 0) and not lsb.get_spike(0, 0, 0)
    assert msb.get_spike(0, 0, 0) and not msb.get_spike(7, 0, 0)


def test_raw_stream_requires_whole_frames(tmp_path):
    path = tmp_path / "dump.dat"
    path.write_bytes(b"\x00" * 5)  # frame is 2 bytes for 16x1
    with pytest.raises(FormatError):
        read_raw_stream(path, width=16, height=1)
    path.write_bytes(b"")
    with pytest.raises(FormatError):
        read_raw_stream(path, width=16, height=1)


def test_raw_stream_validates_dimensions(tmp_path):
    path = tmp_path / "dump.dat"
    path.write_bytes(b"\x00")
    with pytest.raises(FormatError):
        read_raw_stream(path, width=0, height=8)


def test_raw_stream_keeps_given_clock(tmp_path):
    path = tmp_path / "dump.dat"
    path.write_bytes(b"\x00")
    clock = ClockParams(tick_seconds=2e-5)
    assert read_raw_stream(path, 8, 1, clock=clock).clock == clock


# ----------------------------------------------------------------------
# center crop


def test_center_crop_matches_dense_slicing():
    stream = random_stream(7, 10, 6, 12)
    cropped = center_crop(stream, 4, 2)
    assert (cropped.width, cropped.height, cropped.length) == (4, 2, 12)
    want = stream.to_dense()[:, 2:4, 3:7]
    np.testing.assert_array_equal(cropped.to_dense(), want)


def test_center_crop_full_size_is_identity():
    stream = random_stream(8, 8, 8, 4)
    assert center_crop(stream, 8, 8) == stream


def test_center_crop_handles_long_streams_in_chunks():
    stream = random_stream(9, 64, 64, 2050)
    cropped = center_crop(stream, 48, 40)
    np.testing.assert_array_equal(
        cropped.to_dense(2040, 2050), stream.to_dense(2040, 2050)[:, 12:52, 8:56]
    )
    assert cropped.length == 2050


def test_center_crop_of_an_empty_stream_is_empty():
    cropped = center_crop(SpikeStream(width=16, height=10, length=0), 8, 8)
    assert (cropped.width, cropped.height, cropped.length) == (8, 8, 0)


def test_center_crop_peaks_near_its_output():
    # The real 400x250 dump cropped to 400x248: the output is 11.8 MiB,
    # and the input's chunks are packed straight into it.
    payload = np.random.default_rng(11).integers(0, 256, (1000, 400 * 250 // 8), np.uint8)
    stream = SpikeStream.from_packed(payload, 400, 250)
    del payload
    tracemalloc.start()
    try:
        cropped = center_crop(stream, 400, 248)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(cropped.to_dense(990, 1000), stream.to_dense(990, 1000)[:, 1:249])
    assert peak <= 2 * cropped.bits.nbytes


@pytest.mark.parametrize("width, height", [(1, 4), (6, 1), (1, 1)])
def test_center_crop_to_a_side_of_one(width, height):
    stream = random_stream(12, 7, 5, 11)
    cropped = center_crop(stream, width, height)
    x0, y0 = (7 - width) // 2, (5 - height) // 2
    want = stream.to_dense()[:, y0 : y0 + height, x0 : x0 + width]
    np.testing.assert_array_equal(cropped.to_dense(), want)


def test_center_crop_validates_target():
    stream = random_stream(10, 8, 8, 4)
    with pytest.raises(ValueError):
        center_crop(stream, 16, 8)
    with pytest.raises(ValueError):
        center_crop(stream, 0, 8)


# ----------------------------------------------------------------------
# graymap images


def test_image_8bit_round_trip(tmp_path):
    img = np.arange(64, dtype=np.float64).reshape(8, 8)
    path = tmp_path / "img.pgm"
    write_image(img, path)
    np.testing.assert_array_equal(read_image(path), img)


def test_image_8bit_rounds_half_to_even(tmp_path):
    img = np.array([[127.5, 126.5, 0.5, 1.5]])
    path = tmp_path / "img.pgm"
    write_image(img, path)
    np.testing.assert_array_equal(read_image(path), [[128.0, 126.0, 0.0, 2.0]])


def test_image_8bit_clips_out_of_range(tmp_path):
    path = tmp_path / "img.pgm"
    write_image(np.array([[-5.0, 300.0]]), path)
    np.testing.assert_array_equal(read_image(path), [[0.0, 255.0]])


def test_image_16bit_endpoints_are_exact(tmp_path):
    path = tmp_path / "img.pgm"
    write_image(np.array([[0.0, 255.0]]), path, bit_depth=16)
    raw = path.read_bytes()
    assert raw.endswith(b"\x00\x00\xff\xff")
    np.testing.assert_array_equal(read_image(path), [[0.0, 255.0]])


def test_image_16bit_clips_past_full_scale_without_wrapping(tmp_path):
    path = tmp_path / "img.pgm"
    write_image(np.array([[255.2, 300.0, 1e6, -3.0]]), path, bit_depth=16)
    assert path.read_bytes().endswith(b"\xff\xff" * 3 + b"\x00\x00")
    np.testing.assert_array_equal(read_image(path), [[255.0, 255.0, 255.0, 0.0]])


def test_image_16bit_preserves_8bit_grid(tmp_path):
    img = np.arange(256, dtype=np.float64).reshape(16, 16)
    path = tmp_path / "img.pgm"
    write_image(img, path, bit_depth=16)
    np.testing.assert_allclose(read_image(path), img, atol=1e-10)


def test_image_16bit_quantization_error_bound(tmp_path):
    rng = np.random.default_rng(11)
    img = rng.uniform(0.0, 255.0, (16, 16))
    path = tmp_path / "img.pgm"
    write_image(img, path, bit_depth=16)
    assert np.abs(read_image(path) - img).max() <= 0.5 * 255.0 / 65535.0 + 1e-12


def test_image_header_comments_and_odd_maxval(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5 # binary graymap\n# size next\n 2 1 \n100\n" + bytes([50, 100]))
    np.testing.assert_allclose(read_image(path), [[127.5, 255.0]], atol=1e-12)


def test_image_read_validation(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P2\n2 1\n255\n\x00\x00")
    with pytest.raises(FormatError):
        read_image(path)
    path.write_bytes(b"P5\n2 1\n255\n\x00")
    with pytest.raises(FormatError):
        read_image(path)
    path.write_bytes(b"P5\n0 1\n255\n")
    with pytest.raises(FormatError):
        read_image(path)
    path.write_bytes(b"P5\n2 1\n70000\n" + b"\x00" * 8)
    with pytest.raises(FormatError):
        read_image(path)
    path.write_bytes(b"P5\n2 1\n")
    with pytest.raises(FormatError):
        read_image(path)


def test_image_header_number_past_the_int_digit_limit_is_a_format_error(tmp_path):
    # 5,000 digits is past the 4,300 Python converts from a string to an int
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n" + b"9" * 5000 + b" 1\n255\n\x00")
    with pytest.raises(FormatError):
        read_image(path)


def test_image_write_validation(tmp_path):
    path = tmp_path / "img.pgm"
    with pytest.raises(ValueError):
        write_image(np.zeros(4), path)
    with pytest.raises(ValueError):
        write_image(np.array([[np.nan]]), path)
    with pytest.raises(ValueError):
        write_image(np.zeros((2, 2)), path, bit_depth=12)


# ----------------------------------------------------------------------
# calibration documents


def sample_calibration():
    rng = np.random.default_rng(12)
    L_d = rng.uniform(0.0, 5.0, (4, 6))
    L_d[0, 0] = 0.0  # makes D_dark infinite there
    R = rng.uniform(0.9, 1.1, (4, 6))
    R[1, 2] = 1.0
    return make_calibration(L_d, R, reference_pixel=(2, 1))


def test_calibration_round_trip_is_bit_exact(tmp_path):
    calib = sample_calibration()
    path = tmp_path / "sensor.cal"
    write_calibration(calib, path)
    back = read_calibration(path)
    for name in ("L_d", "R", "Q_r", "D_dark"):
        np.testing.assert_array_equal(getattr(back, name), getattr(calib, name))
    assert np.isinf(back.D_dark[0, 0])
    assert back.reference_pixel == (2, 1)
    assert back.clock == calib.clock


@pytest.mark.parametrize("width, height", [(1, 3), (4, 1), (1, 1)])
def test_calibration_with_a_side_of_one_round_trips(tmp_path, width, height):
    rng = np.random.default_rng(width * 10 + height)
    calib = make_calibration(
        rng.uniform(0.5, 5.0, (height, width)), rng.uniform(0.9, 1.1, (height, width))
    )
    path = tmp_path / "thin.cal"
    write_calibration(calib, path)
    back = read_calibration(path)
    for name in ("L_d", "R", "Q_r", "D_dark"):
        np.testing.assert_array_equal(getattr(back, name), getattr(calib, name))


def test_calibration_with_a_one_nanosecond_tick_round_trips(tmp_path):
    calib = make_calibration(
        np.zeros((2, 2)), np.ones((2, 2)), clock=ClockParams(tick_seconds=1e-9)
    )
    path = tmp_path / "fast.cal"
    write_calibration(calib, path)
    assert read_calibration(path).clock == calib.clock


def test_calibration_document_is_text(tmp_path):
    path = tmp_path / "sensor.cal"
    write_calibration(sample_calibration(), path)
    text = path.read_text(encoding="ascii")
    lines = text.splitlines()
    assert lines[0] == "spikecal 1"
    assert "width 6" in lines and "height 4" in lines
    assert "tick_nanoseconds 50000" in lines
    assert "reference_pixel 2 1" in lines
    assert sum(ln.startswith("map ") for ln in lines) == 4


def test_calibration_reader_skips_comments(tmp_path):
    path = tmp_path / "sensor.cal"
    write_calibration(sample_calibration(), path)
    lines = path.read_text().splitlines()
    lines.insert(1, "# exported by the bench rig")
    lines.insert(0, "")
    path.write_text("\n".join(lines) + "\n")
    back = read_calibration(path)
    np.testing.assert_array_equal(back.R, sample_calibration().R)


def test_calibration_reader_rejects_unknown_version(tmp_path):
    path = tmp_path / "sensor.cal"
    write_calibration(sample_calibration(), path)
    text = path.read_text().replace("spikecal 1", "spikecal 9", 1)
    path.write_text(text)
    with pytest.raises(FormatError):
        read_calibration(path)


def test_calibration_reader_rejects_missing_map(tmp_path):
    path = tmp_path / "sensor.cal"
    write_calibration(sample_calibration(), path)
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("map R ")]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError):
        read_calibration(path)


def test_calibration_reader_rejects_corrupt_payloads(tmp_path):
    path = tmp_path / "sensor.cal"
    write_calibration(sample_calibration(), path)
    original = path.read_text()

    # invalid base64 characters
    path.write_text(original.replace("map R ", "map R !!", 1))
    with pytest.raises(FormatError):
        read_calibration(path)

    # valid base64, wrong byte count
    short = base64.b64encode(b"\x00" * 8).decode()
    lines = [
        f"map R {short}" if ln.startswith("map R ") else ln
        for ln in original.splitlines()
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError):
        read_calibration(path)


@pytest.mark.parametrize("line", ["map R", "map Z AAAA", "map R AAAA extra"])
def test_calibration_reader_rejects_a_malformed_map_line(tmp_path, line):
    path = tmp_path / "sensor.cal"
    write_calibration(sample_calibration(), path)
    lines = [line if ln.startswith("map R ") else ln for ln in path.read_text().splitlines()]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="malformed map line"):
        read_calibration(path)


@pytest.mark.parametrize(
    "field, value", [("width", "0"), ("height", "-4"), ("tick_nanoseconds", "0")]
)
def test_calibration_reader_rejects_bad_geometry(tmp_path, field, value):
    path = tmp_path / "sensor.cal"
    write_calibration(sample_calibration(), path)
    lines = [
        f"{field} {value}" if ln.split()[0] == field else ln
        for ln in path.read_text().splitlines()
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="invalid calibration geometry"):
        read_calibration(path)


def test_calibration_reader_rejects_inconsistent_maps(tmp_path):
    calib = sample_calibration()
    path = tmp_path / "sensor.cal"
    write_calibration(calib, path)
    # replace the R payload with a doubled map: Q_r no longer matches
    doubled = base64.b64encode(
        np.ascontiguousarray(2.0 * calib.R, dtype="<f8").tobytes()
    ).decode()
    lines = [
        f"map R {doubled}" if ln.startswith("map R ") else ln
        for ln in path.read_text().splitlines()
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError):
        read_calibration(path)


def test_calibration_reader_rejects_non_documents(tmp_path):
    path = tmp_path / "junk.cal"
    path.write_text("hello world\n")
    with pytest.raises(FormatError):
        read_calibration(path)
    path.write_text("")
    with pytest.raises(FormatError):
        read_calibration(path)
    path.write_bytes(b"spikecal 1\nwidth \xff\n")
    with pytest.raises(FormatError):
        read_calibration(path)


# ----------------------------------------------------------------------
# in-place rewrites: every writer goes through _write_file

_IMAGE = np.arange(12.0).reshape(3, 4) * 20.0
_WRITERS = {
    "stream": lambda path: write_stream(random_stream(4, 5, 3, 6), path),
    "image8": lambda path: write_image(_IMAGE, path),
    "image16": lambda path: write_image(_IMAGE, path, bit_depth=16),
    "calibration": lambda path: write_calibration(sample_calibration(), path),
}


@pytest.mark.parametrize("name", sorted(_WRITERS))
def test_writer_rewrites_a_longer_file_in_place(name, tmp_path):
    write = _WRITERS[name]
    fresh = tmp_path / "fresh"
    write(fresh)
    target = tmp_path / "target"
    target.write_bytes(b"\xa5" * (2 * fresh.stat().st_size + 100))
    target.chmod(0o640)
    link = tmp_path / "link"
    os.link(target, link)
    inode = target.stat().st_ino
    write(target)
    assert target.read_bytes() == fresh.read_bytes()
    assert link.read_bytes() == fresh.read_bytes()
    assert target.stat().st_ino == inode
    assert stat.S_IMODE(target.stat().st_mode) == 0o640


@pytest.mark.parametrize("name", sorted(_WRITERS))
def test_writer_never_opens_with_o_trunc(name, tmp_path, write_opens):
    # write_opens fails an O_TRUNC open; a writer back on open(path, "wb")
    # makes no os.open call at all.
    _WRITERS[name](tmp_path / "out")
    assert write_opens == [str(tmp_path / "out")]


@pytest.mark.parametrize("name", sorted(_WRITERS))
def test_writer_accepts_a_device(name):
    _WRITERS[name](os.devnull)


@pytest.mark.parametrize("name", sorted(_WRITERS))
def test_writer_failure_leaves_an_empty_file(name, tmp_path, disk_full_mid_write):
    target = tmp_path / "target"
    target.write_bytes(b"\xa5" * 4096)
    with pytest.raises(OSError):
        _WRITERS[name](target)
    assert target.stat().st_size == 0


def test_write_file_chunk_that_raises_leaves_an_empty_file(tmp_path):
    target = tmp_path / "target"
    target.write_bytes(b"\xa5" * 4096)
    with pytest.raises(TypeError):
        _write_file(target, b"new head", object())
    assert target.stat().st_size == 0


def test_write_file_creates_with_the_umask(tmp_path):
    old = os.umask(0o027)
    try:
        _write_file(tmp_path / "new", b"abc")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "new").stat().st_mode) == 0o640
    assert (tmp_path / "new").read_bytes() == b"abc"


# ----------------------------------------------------------------------
# fuzzed files: truncated or bit-flipped inputs only ever raise FormatError


@pytest.fixture(scope="module")
def damaged_dir(tmp_path_factory):
    """Valid files of every format, plus room for damaged copies of them."""
    root = tmp_path_factory.mktemp("damaged")
    write_stream(random_stream(9, 5, 3, 6), root / "ok.spk")
    write_calibration(sample_calibration(), root / "ok.cal")
    image = np.arange(12.0).reshape(3, 4) * 20.0
    write_image(image, root / "ok8.pgm")
    write_image(image, root / "ok16.pgm", bit_depth=16)
    return root


_READERS = {
    "ok.spk": read_stream,
    "ok.cal": read_calibration,
    "ok8.pgm": read_image,
    "ok16.pgm": read_image,
}
_DAMAGED = itertools.count()


@pytest.mark.parametrize("name", sorted(_READERS))
@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_readers_raise_only_format_error_on_damaged_files(name, data, damaged_dir):
    raw = bytearray((damaged_dir / name).read_bytes())
    flips = data.draw(st.lists(st.integers(0, 8 * len(raw) - 1), max_size=8), label="flips")
    for bit in flips:
        raw[bit // 8] ^= 1 << (bit % 8)
    keep = data.draw(st.integers(0, len(raw)), label="keep")
    # A new file per example: overwriting one in place is far slower on
    # file systems that discard freed blocks.
    path = damaged_dir / f"{next(_DAMAGED)}-{name}"
    path.write_bytes(bytes(raw[:keep]))
    try:
        _READERS[name](path)
    except FormatError:
        pass
