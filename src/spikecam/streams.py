"""Binary spike stream container and sensor clock parameters.

A spike camera reports, for every pixel and every clock tick, a single bit:
whether the integrate-and-fire circuit crossed its threshold during that
tick.  Streams are therefore dense H x W x T bit volumes.  They are stored
bit-packed (8 pixels per byte, least-significant bit first, rows top to
bottom) so a full sensor dump stays small.  The reductions (count_map,
window_counts, spike_edge_map) all read it through one 8x8 bit transpose
that gives each pixel a byte per 8 ticks; only to_dense unpacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# The digital intensity scale: the firing threshold and the top of every image.
FULL_SCALE = 255.0


@dataclass(frozen=True)
class ClockParams:
    """Sensor clock: tick duration in seconds and the firing threshold.

    The digital intensity scale is defined by the threshold: a pixel held at
    intensity L fires every max_intensity / L ticks.  The threshold is fixed
    at 255 digital units; tick_seconds defaults to the 20 kHz readout.
    """

    tick_seconds: float = 50e-6
    max_intensity: float = FULL_SCALE

    def __post_init__(self) -> None:
        if not (self.tick_seconds > 0 and np.isfinite(self.tick_seconds)):
            raise ValueError(f"tick_seconds must be positive and finite, got {self.tick_seconds}")
        if self.max_intensity != FULL_SCALE:
            raise ValueError(f"max_intensity is fixed at 255, got {self.max_intensity}")


# (shift, mask) of the three delta swaps that transpose an 8x8 bit matrix
# held in a uint64, row r in byte r and column c in bit c of it.
_TRANSPOSE_SWAPS = (
    (7, 0x00AA00AA00AA00AA),
    (14, 0x0000CCCC0000CCCC),
    (28, 0x00000000F0F0F0F0),
)
# Ticks per step of the full-range scans, count_map and spike_edge_map.
_SCAN_CHUNK = 4096
# Per byte value: its lowest and its highest set bit (0 for the zero byte).
_LOWEST_BIT = np.array([max((i & -i).bit_length() - 1, 0) for i in range(256)], dtype=np.uint8)
_HIGHEST_BIT = np.array([max(i.bit_length() - 1, 0) for i in range(256)], dtype=np.uint8)


def frame_bytes(width: int, height: int) -> int:
    """Packed size of one binary frame in bytes."""
    return (width * height + 7) // 8


@dataclass(frozen=True)
class SpikeStream:
    """Immutable bit-packed spike volume.

    bits has shape (length, frame_bytes(width, height)) with dtype uint8.
    Within a frame, bit index y*width + x holds pixel (x, y); bit 0 of each
    byte is the lowest pixel index.  The constructor takes over and freezes
    the array it is given, copying only to clear padding bits, so it never
    writes into a caller's memory; from_packed() copies its input first.
    """

    width: int
    height: int
    length: int
    clock: ClockParams = field(default_factory=ClockParams)
    bits: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"stream dimensions must be positive, got {self.width}x{self.height}")
        if self.length < 0:
            raise ValueError(f"stream length must be nonnegative, got {self.length}")
        nbytes = frame_bytes(self.width, self.height)
        # the last byte's pixel bits; padding above them must read 0 so
        # equality and density are well defined
        used = (1 << (self.width * self.height - 8 * (nbytes - 1))) - 1
        if self.bits is None:
            bits = np.zeros((self.length, nbytes), dtype=np.uint8)
        else:
            bits = np.ascontiguousarray(self.bits, dtype=np.uint8)
            if bits.shape != (self.length, nbytes):
                raise ValueError(
                    f"packed payload has shape {bits.shape}, expected {(self.length, nbytes)}"
                )
            if (bits[:, -1] > used).any():
                bits = bits.copy()
                bits[:, -1] &= used
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_dense(
        cls, dense: np.ndarray, clock: ClockParams | None = None
    ) -> "SpikeStream":
        """Pack a (length, height, width) boolean/0-1 array."""
        dense = np.asarray(dense)
        if dense.ndim != 3:
            raise ValueError(f"dense spike volume must be 3-d (t, y, x), got shape {dense.shape}")
        length, height, width = dense.shape
        flat = dense.astype(bool).reshape(length, height * width)
        packed = np.packbits(flat, axis=1, bitorder="little")
        return cls(
            width=width,
            height=height,
            length=length,
            clock=clock or ClockParams(),
            bits=packed,
        )

    @classmethod
    def from_packed(
        cls,
        packed: np.ndarray,
        width: int,
        height: int,
        clock: ClockParams | None = None,
    ) -> "SpikeStream":
        """Copy a (length, frame_bytes) uint8 payload into a new stream."""
        packed = np.array(packed, dtype=np.uint8)
        if packed.ndim != 2:
            raise ValueError(f"packed payload must be 2-d (t, bytes), got shape {packed.shape}")
        return cls(
            width=width,
            height=height,
            length=packed.shape[0],
            clock=clock or ClockParams(),
            bits=packed,
        )

    # ------------------------------------------------------------------
    # access

    def to_dense(self, t_start: int = 0, t_stop: int | None = None) -> np.ndarray:
        """Unpack ticks [t_start, t_stop) to a (n, height, width) bool array."""
        if t_stop is None:
            t_stop = self.length
        if not (0 <= t_start <= t_stop <= self.length):
            raise IndexError(
                f"tick range [{t_start}, {t_stop}) outside stream of length {self.length}"
            )
        raw = np.unpackbits(
            self.bits[t_start:t_stop], axis=1, bitorder="little", count=self.width * self.height
        )
        return raw.view(bool).reshape(t_stop - t_start, self.height, self.width)

    def get_spike(self, x: int, y: int, t: int) -> bool:
        if not (0 <= x < self.width and 0 <= y < self.height and 0 <= t < self.length):
            raise IndexError(
                f"index (x={x}, y={y}, t={t}) outside stream "
                f"{self.width}x{self.height}x{self.length}"
            )
        idx = y * self.width + x
        return bool((self.bits[t, idx >> 3] >> (idx & 7)) & 1)

    def spike_density(self, x: int, y: int, t_start: int, window: int) -> float:
        """Fraction of ticks with a spike in the clipped window [t_start, t_start+window)."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise IndexError(f"pixel (x={x}, y={y}) outside sensor {self.width}x{self.height}")
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        lo, hi = self._clip_ticks(t_start, t_start + window)
        idx = y * self.width + x
        byte = self.bits[lo:hi, idx >> 3]
        count = int(((byte >> (idx & 7)) & 1).sum())
        return count / (hi - lo)

    def _clip_ticks(self, t_start: int, t_stop: int) -> tuple[int, int]:
        """[t_start, t_stop) clipped to the stream; ValueError if nothing is left."""
        lo, hi = max(t_start, 0), min(t_stop, self.length)
        if hi <= lo:
            raise ValueError(
                f"tick range [{t_start}, {t_stop}) does not overlap stream of length {self.length}"
            )
        return lo, hi

    def _tick_bytes(self, lo: int, hi: int) -> np.ndarray:
        """Ticks [lo, hi) as one byte per pixel per 8 ticks.

        Returns a (groups, columns) uint8 array, groups = (hi - lo) // 8 + 1
        and one column per packed bit (padding pixels read 0): bit i of
        [g, c] is tick lo + 8g + i of pixel c.  The last group is a spare,
        zero from tick hi on, so every offset in [0, hi - lo] has a group.
        """
        full, rest = divmod(hi - lo, 8)
        groups = full + 1
        nbytes = self.bits.shape[1]
        # cube[g, j] is an 8x8 bit matrix, one uint64 word: byte i holds
        # tick 8g + i of packed byte j, bit k pixel 8j + k.  Three delta
        # swaps transpose it, so byte k holds that pixel's eight ticks.
        cube = np.zeros((groups, nbytes, 8), dtype=np.uint8)
        cube[:full] = self.bits[lo : lo + 8 * full].reshape(full, 8, nbytes).transpose(0, 2, 1)
        cube[full, :, :rest] = self.bits[lo + 8 * full : hi].T
        words = cube.view("<u8")[..., 0]
        tmp = np.empty_like(words)
        for shift, mask in _TRANSPOSE_SWAPS:
            np.right_shift(words, shift, out=tmp)
            tmp ^= words
            tmp &= mask
            words ^= tmp
            tmp <<= shift
            words ^= tmp
        return cube.reshape(groups, nbytes * 8)

    def count_map(self, t_start: int, t_stop: int) -> np.ndarray:
        """Per-pixel spike counts over ticks [t_start, t_stop), clipped to bounds."""
        lo, hi = self._clip_ticks(t_start, t_stop)
        count = np.zeros(self.bits.shape[1] * 8, dtype=np.int64)
        for off in range(lo, hi, _SCAN_CHUNK):
            ticks = self._tick_bytes(off, min(off + _SCAN_CHUNK, hi))
            count += np.bitwise_count(ticks, out=ticks).sum(axis=0, dtype=np.int64)
        return count[: self.height * self.width].reshape(self.height, self.width)

    def window_counts(self, t_start: np.ndarray, t_stop: np.ndarray) -> np.ndarray:
        """Per-pixel spike counts over per-pixel tick ranges [t_start, t_stop).

        t_start and t_stop are (height, width) integer arrays with
        0 <= t_start <= t_stop <= length.  Returns (height, width) int64.
        """
        shape = (self.height, self.width)
        lo = np.asarray(t_start, dtype=np.int64)
        hi = np.asarray(t_stop, dtype=np.int64)
        if lo.shape != shape or hi.shape != shape:
            raise ValueError(
                f"tick range maps have shapes {lo.shape} and {hi.shape}, expected {shape}"
            )
        if (lo < 0).any() or (hi < lo).any() or (hi > self.length).any():
            raise IndexError(
                f"tick ranges must satisfy 0 <= start <= stop <= {self.length}"
            )
        base = int(lo.min())
        ticks = self._tick_bytes(base, int(hi.max()))
        groups, ncols = ticks.shape
        # Inclusive prefix over groups.  Adding row by row is several times
        # faster than a cumulative sum along axis 0.
        prefix = np.empty((groups, ncols), dtype=np.min_scalar_type(8 * groups))
        np.bitwise_count(ticks, out=prefix)
        for g in range(1, groups):
            prefix[g] += prefix[g - 1]

        cols = np.arange(self.height * self.width)

        def before(r: np.ndarray) -> np.ndarray:
            # Spikes in [base, r): the prefix through r's group less the
            # bits of that group at ticks r and later.
            rel = r.reshape(-1) - base
            idx = rel >> 3
            idx *= ncols
            idx += cols
            edge = ticks.reshape(-1)[idx]
            edge >>= (rel & 7).astype(np.uint8)
            return prefix.reshape(-1)[idx] - np.bitwise_count(edge)

        return (before(hi) - before(lo)).astype(np.int64).reshape(shape)

    def spike_edge_map(
        self, t_start: int, t_stop: int, from_end: bool = False, n: int = 1
    ) -> np.ndarray:
        """Ticks of each pixel's first n spikes scanning [t_start, t_stop).

        Returns an (n, height, width) int64 array, -1 where a pixel has
        fewer spikes in the range.  With from_end the scan runs backwards,
        so row 0 holds the last spike and row 1 the one before it.  Chunks
        are scanned inward from the chosen end and the scan stops early
        once every pixel is resolved.
        """
        if n not in (1, 2):
            raise ValueError(f"n must be 1 or 2, got {n}")
        lo = max(t_start, 0)
        hi = min(t_stop, self.length)
        n_pixels = self.height * self.width
        ncols = self.bits.shape[1] * 8
        edges = np.full((n, ncols), -1, dtype=np.int64)
        found = np.zeros(ncols, dtype=np.int64)
        cols = np.arange(ncols)
        for off in range(lo, hi, _SCAN_CHUNK):
            end = min(off + _SCAN_CHUNK, hi)
            c_lo, c_hi = (off, end) if not from_end else (lo + hi - end, lo + hi - off)
            ticks = self._tick_bytes(c_lo, c_hi)
            for _ in range(n):
                # Each round takes and clears every pixel's earliest spike
                # left, or its latest: the lowest set bit of the first
                # nonzero byte, or the highest of the last.
                nonzero = ticks != 0
                if from_end:
                    g = len(ticks) - 1 - nonzero[::-1].argmax(axis=0)
                else:
                    g = nonzero.argmax(axis=0)
                b = ticks[g, cols]
                bit = (_HIGHEST_BIT if from_end else _LOWEST_BIT)[b]
                take = (b != 0) & (found < n)
                edges[found[take], cols[take]] = c_lo + 8 * g[take] + bit[take]
                found += take
                ticks[g, cols] = b & ~(np.uint8(1) << bit)
            if (found[:n_pixels] == n).all():
                break
        return edges[:, :n_pixels].reshape(n, self.height, self.width)

    def density_map(self, t_start: int, window: int) -> np.ndarray:
        """Per-pixel spike density over the clipped window, as float64."""
        lo, hi = self._clip_ticks(t_start, t_start + window)
        return self.count_map(lo, hi) / float(hi - lo)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpikeStream):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and self.length == other.length
            and self.clock == other.clock
            and np.array_equal(self.bits, other.bits)
        )


def validate_image(values: np.ndarray, name: str = "image") -> np.ndarray:
    """Check a 2-d intensity image: finite, nonnegative, float64 out."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    if (arr < 0).any():
        raise ValueError(f"{name} contains negative values")
    return arr
