"""Bit-exact file formats: spike containers, graymaps, calibration documents.

All multi-byte integers are little-endian.  Spike streams go in a fixed
36-byte header followed by the raw packed payload in time order, so a file
is just the in-memory representation plus provenance.  Calibration data is
a plain-text document with base64 map payloads: diffable and debuggable,
and still bit-exact because the base64 wraps the raw float64 bytes.
Readers validate magic, version, and sizes, and raise FormatError on
anything malformed.  Writers rewrite their target in place (see
_write_file).
"""

from __future__ import annotations

import base64
import logging
import os
import re
import stat
import struct

import numpy as np

from .calibration import CalibrationData
from .streams import ClockParams, SpikeStream, frame_bytes

log = logging.getLogger(__name__)

# Per byte value: the byte with its bits reversed, for MSB-first raw dumps.
_BIT_REVERSE = np.array([int(f"{i:08b}"[::-1], 2) for i in range(256)], dtype=np.uint8)


class FormatError(ValueError):
    """File contents do not match the declared format."""


def _write_file(path, *chunks) -> None:
    """Write the contiguous buffers in chunks to path, in place.

    A new file is created with mode 0o666 less the umask.  An existing
    file is overwritten from offset 0 and then cut to the written length,
    never truncated to zero first.  On an ext4 volume mounted with discard,
    rewriting a 1 MiB file through O_TRUNC or a rename over it took about
    110 ms, and this rewrite 0.04 ms.  It also keeps the file's inode,
    mode, owner and hard links.  Only a regular file is cut, so devices,
    FIFOs and /dev/stdout work.  If a write raises, a regular target is
    left empty, so an old tail behind a partial write can never read as a
    valid file.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            written = 0
            for chunk in chunks:
                data = np.frombuffer(chunk, dtype=np.uint8)
                while data.size:
                    n = os.write(fd, data)
                    data = data[n:]
                    written += n
            if regular:
                os.ftruncate(fd, written)
        except BaseException:
            if regular:
                os.ftruncate(fd, 0)
            raise
    finally:
        os.close(fd)


# ----------------------------------------------------------------------
# spike stream container

SPIKE_MAGIC = b"SPIKEV01"
# magic, width, height, length, tick_nanoseconds, reserved flags
_SPIKE_HEADER = struct.Struct("<8sIIQQI")


def write_stream(stream: SpikeStream, path) -> None:
    """Write a stream as header + packed payload; round trips bit-exactly.

    The file is rewritten in place as _write_file describes: an existing
    file keeps its inode, mode and links, a non-regular target is never
    truncated, and a failed write leaves an empty file.
    """
    tick_ns = round(stream.clock.tick_seconds * 1e9)
    if tick_ns <= 0:
        raise FormatError(f"tick {stream.clock.tick_seconds}s is below 1ns resolution")
    try:
        header = _SPIKE_HEADER.pack(
            SPIKE_MAGIC, stream.width, stream.height, stream.length, tick_ns, 0
        )
    except struct.error as exc:
        raise FormatError(f"stream dimensions overflow the header fields: {exc}") from exc
    _write_file(path, header, stream.bits)


def read_stream(path) -> SpikeStream:
    """Read a stream container written by write_stream."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _SPIKE_HEADER.size:
        raise FormatError(f"file too short for a stream header ({len(raw)} bytes)")
    magic, width, height, length, tick_ns, flags = _SPIKE_HEADER.unpack_from(raw)
    if magic != SPIKE_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {SPIKE_MAGIC!r}")
    if flags != 0:
        raise FormatError(f"reserved flags field is {flags:#x}, expected 0")
    if width == 0 or height == 0:
        raise FormatError(f"invalid sensor dimensions {width}x{height}")
    if tick_ns == 0:
        raise FormatError("tick_nanoseconds must be positive")
    payload = len(raw) - _SPIKE_HEADER.size
    expected = length * frame_bytes(width, height)
    if payload != expected:
        raise FormatError(
            f"payload is {payload} bytes, header implies {expected} "
            f"({width}x{height}x{length})"
        )
    # A read-only view into the file's bytes, handed to the stream as is.
    bits = np.frombuffer(raw, dtype=np.uint8, offset=_SPIKE_HEADER.size).reshape(
        length, frame_bytes(width, height)
    )
    return SpikeStream(width, height, length, ClockParams(tick_seconds=tick_ns / 1e9), bits)


def read_raw_stream(
    path,
    width: int,
    height: int,
    *,
    msb_first: bool = False,
    clock: ClockParams | None = None,
) -> SpikeStream:
    """Read a headerless packed dump, e.g. the real camera's 400x250 files.

    The payload is assumed row-major with 8 pixels per byte; bit order is
    least-significant-first unless msb_first is set.  The file must hold a
    whole number of frames.  The stream keeps the file's bytes without a
    copy; msb_first makes one bit-reversed copy of them.
    """
    if width <= 0 or height <= 0:
        raise FormatError(f"invalid raw dimensions {width}x{height}")
    with open(path, "rb") as fh:
        raw = fh.read()
    nbytes = frame_bytes(width, height)
    if len(raw) == 0 or len(raw) % nbytes != 0:
        raise FormatError(
            f"raw payload of {len(raw)} bytes is not a positive multiple of the "
            f"{nbytes}-byte frame size for {width}x{height}"
        )
    bits = np.frombuffer(raw, dtype=np.uint8).reshape(-1, nbytes)
    if msb_first:
        bits = _BIT_REVERSE[bits]
    return SpikeStream(width, height, len(bits), clock or ClockParams(), bits)


def center_crop(stream: SpikeStream, width: int, height: int) -> SpikeStream:
    """Crop every frame to a centered width x height window, 4 MiB at a time."""
    if not (0 < width <= stream.width and 0 < height <= stream.height):
        raise ValueError(
            f"crop {width}x{height} does not fit inside {stream.width}x{stream.height}"
        )
    if (width, height) == (stream.width, stream.height):
        return stream
    x0 = (stream.width - width) // 2
    y0 = (stream.height - height) // 2
    bits = np.empty((stream.length, frame_bytes(width, height)), np.uint8)
    step = max(1, (1 << 22) // (stream.width * stream.height))
    for lo in range(0, stream.length, step):
        hi = min(lo + step, stream.length)
        dense = stream.to_dense(lo, hi)[:, y0 : y0 + height, x0 : x0 + width]
        bits[lo:hi] = np.packbits(dense.reshape(hi - lo, -1), axis=1, bitorder="little")
    return SpikeStream(width, height, stream.length, stream.clock, bits)


# ----------------------------------------------------------------------
# grayscale images (binary portable graymap)

# Magic, then width, height and maxval, each after whitespace or comments,
# then one whitespace byte.  A number has at most 20 digits, far below the
# 4,300 that Python converts from a string to an int.
_GRAYMAP_HEADER = re.compile(rb"P5(?:\s|#.*\n)*" + rb"(\d{1,20})(?:\s|#.*\n)+" * 2 + rb"(\d{1,20})\s")


def write_image(image: np.ndarray, path, *, bit_depth: int = 8) -> None:
    """Write a 0..255-domain image as binary graymap, rounding half to even.

    bit_depth 8 stores values directly; bit_depth 16 maps the 0..255 domain
    linearly onto 0..65535 (factor 257, so 255.0 lands exactly on 65535).
    The file is rewritten in place as write_stream's is.
    """
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"image must be 2-d, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("image contains non-finite values")
    if bit_depth == 8:
        quant = np.clip(np.rint(arr), 0, 255).astype(">u1")
        maxval = 255
    elif bit_depth == 16:
        quant = np.clip(np.rint(arr * 257.0), 0, 65535).astype(">u2")
        maxval = 65535
    else:
        raise ValueError(f"bit_depth must be 8 or 16, got {bit_depth}")
    height, width = arr.shape
    _write_file(path, b"P5\n%d %d\n%d\n" % (width, height, maxval), quant)


def read_image(path) -> np.ndarray:
    """Read a binary graymap into the 0..255 float domain.

    Sample values are scaled by 255/maxval, so 8-bit files read back as
    their stored values and 16-bit files invert the write-side mapping.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:2] != b"P5":
        raise FormatError(f"not a binary graymap (starts with {raw[:2]!r})")
    header = _GRAYMAP_HEADER.match(raw)
    if header is None:
        raise FormatError("graymap header is not width, height and maxval, then whitespace")
    width, height, maxval = (int(field) for field in header.groups())
    if width <= 0 or height <= 0:
        raise FormatError(f"invalid graymap dimensions {width}x{height}")
    if not 0 < maxval < 65536:
        raise FormatError(f"invalid graymap maxval {maxval}")
    dtype = np.dtype(">u1") if maxval < 256 else np.dtype(">u2")
    expected = width * height * dtype.itemsize
    payload = raw[header.end() :]
    if len(payload) != expected:
        raise FormatError(f"graymap payload is {len(payload)} bytes, expected {expected}")
    samples = np.frombuffer(payload, dtype=dtype).reshape(height, width)
    return samples.astype(np.float64) * (255.0 / maxval)


# ----------------------------------------------------------------------
# calibration documents

CALIBRATION_FORMAT = "spikecal"
CALIBRATION_VERSION = 1
_MAP_NAMES = ("L_d", "R", "Q_r", "D_dark")


def write_calibration(calib: CalibrationData, path) -> None:
    """Write calibration maps as a versioned text document.

    Maps are base64 over the raw little-endian float64 bytes in row-major
    order, so the round trip is bit-exact (including inf in D_dark) while
    the file stays printable.  The file is rewritten in place as
    write_stream's is.
    """
    height, width = calib.shape
    lines = [
        f"{CALIBRATION_FORMAT} {CALIBRATION_VERSION}",
        f"width {width}",
        f"height {height}",
        f"tick_nanoseconds {round(calib.clock.tick_seconds * 1e9)}",
        f"reference_pixel {calib.reference_pixel[0]} {calib.reference_pixel[1]}",
    ]
    for name in _MAP_NAMES:
        payload = np.ascontiguousarray(getattr(calib, name), dtype="<f8").tobytes()
        lines.append(f"map {name} {base64.b64encode(payload).decode('ascii')}")
    _write_file(path, ("\n".join(lines) + "\n").encode("ascii"))


def read_calibration(path) -> CalibrationData:
    """Read a calibration document written by write_calibration."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            lines = [ln.strip() for ln in fh]
        except UnicodeDecodeError as exc:
            raise FormatError(f"calibration document is not ASCII: {exc}") from exc
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise FormatError("empty calibration document")
    head = lines[0].split()
    if len(head) != 2 or head[0] != CALIBRATION_FORMAT:
        raise FormatError(f"not a calibration document (first line {lines[0]!r})")
    if head[1] != str(CALIBRATION_VERSION):
        raise FormatError(f"unsupported calibration version {head[1]}")
    scalars: dict[str, list[str]] = {}
    maps: dict[str, bytes] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "map":
            if len(parts) != 3 or parts[1] not in _MAP_NAMES:
                raise FormatError(f"malformed map line {ln!r}")
            try:
                maps[parts[1]] = base64.b64decode(parts[2], validate=True)
            except ValueError as exc:
                raise FormatError(f"bad base64 payload for map {parts[1]}") from exc
        else:
            scalars[parts[0]] = parts[1:]
    try:
        width = int(scalars["width"][0])
        height = int(scalars["height"][0])
        tick_ns = int(scalars["tick_nanoseconds"][0])
        ref = (int(scalars["reference_pixel"][0]), int(scalars["reference_pixel"][1]))
    except (KeyError, IndexError, ValueError) as exc:
        raise FormatError(f"missing or malformed calibration field: {exc}") from exc
    if width <= 0 or height <= 0 or tick_ns <= 0:
        raise FormatError(f"invalid calibration geometry {width}x{height} @ {tick_ns}ns")
    arrays = {}
    for name in _MAP_NAMES:
        if name not in maps:
            raise FormatError(f"calibration document is missing map {name}")
        expected = width * height * 8
        if len(maps[name]) != expected:
            raise FormatError(
                f"map {name} holds {len(maps[name])} bytes, expected {expected}"
            )
        arrays[name] = np.frombuffer(maps[name], dtype="<f8").reshape(height, width)
    try:
        return CalibrationData(
            L_d=arrays["L_d"],
            R=arrays["R"],
            Q_r=arrays["Q_r"],
            D_dark=arrays["D_dark"],
            reference_pixel=ref,
            clock=ClockParams(tick_seconds=tick_ns / 1e9),
        )
    except ValueError as exc:
        raise FormatError(f"calibration maps are inconsistent: {exc}") from exc
