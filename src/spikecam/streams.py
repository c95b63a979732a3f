"""Binary spike stream container and sensor clock parameters.

A spike camera reports, for every pixel and every clock tick, a single bit:
whether the integrate-and-fire circuit crossed its threshold during that
tick.  Streams are therefore dense H x W x T bit volumes.  They are stored
bit-packed (8 pixels per byte, least-significant bit first, rows top to
bottom) so a full sensor dump stays small.  Consumers count spikes in the
packed form (count_map, window_counts) and unpack only the time slices
they scan tick by tick (to_dense, spike_edge_map).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class ClockParams:
    """Sensor clock: tick duration in seconds and the firing threshold.

    The digital intensity scale is defined by the threshold: a pixel held at
    intensity L fires every max_intensity / L ticks.  The threshold is fixed
    at 255 digital units; tick_seconds defaults to the 20 kHz readout.
    """

    tick_seconds: float = 50e-6
    max_intensity: float = 255.0

    def __post_init__(self) -> None:
        if not (self.tick_seconds > 0 and np.isfinite(self.tick_seconds)):
            raise ValueError(f"tick_seconds must be positive and finite, got {self.tick_seconds}")
        if self.max_intensity != 255.0:
            raise ValueError(f"max_intensity is fixed at 255, got {self.max_intensity}")


# (shift, mask) of the three delta swaps that transpose an 8x8 bit matrix
# held in a uint64, row r in byte r and column c in bit c of it.
_TRANSPOSE_SWAPS = (
    (7, 0x00AA00AA00AA00AA),
    (14, 0x0000CCCC0000CCCC),
    (28, 0x00000000F0F0F0F0),
)


def _in_bytes(array: np.ndarray) -> bool:
    """True when the array's memory is an immutable bytes object."""
    while isinstance(array, np.ndarray):
        if array.flags.writeable:
            return False
        array = array.base
    return isinstance(array, bytes)


def frame_bytes(width: int, height: int) -> int:
    """Packed size of one binary frame in bytes."""
    return (width * height + 7) // 8


@dataclass(frozen=True)
class SpikeStream:
    """Immutable bit-packed spike volume.

    bits has shape (length, frame_bytes(width, height)) with dtype uint8.
    Within a frame, bit index y*width + x holds pixel (x, y); bit 0 of each
    byte is the lowest pixel index.  Construct with from_dense() or
    from_packed(); arrays are copied and frozen so streams can be shared.
    A payload that lives in an immutable bytes object with its padding
    bits clear, as read_stream makes, is used as is.
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
            if not _in_bytes(bits) or (bits[:, -1] > used).any():
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
        packed = np.asarray(packed, dtype=np.uint8)
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
        lo = max(t_start, 0)
        hi = min(t_start + window, self.length)
        if hi <= lo:
            raise ValueError(
                f"window [{t_start}, {t_start + window}) does not overlap stream "
                f"of length {self.length}"
            )
        idx = y * self.width + x
        byte = self.bits[lo:hi, idx >> 3]
        count = int(((byte >> (idx & 7)) & 1).sum())
        return count / (hi - lo)

    def count_map(self, t_start: int, t_stop: int) -> np.ndarray:
        """Per-pixel spike counts over ticks [t_start, t_stop), clipped to bounds."""
        lo = max(t_start, 0)
        hi = min(t_stop, self.length)
        if hi <= lo:
            raise ValueError(
                f"tick range [{t_start}, {t_stop}) does not overlap stream of length {self.length}"
            )
        # Summing each bit position over the packed bytes skips the 8x
        # larger unpacked volume; matters for calibration-length streams.
        window = self.bits[lo:hi]
        n_pixels = self.height * self.width
        count = np.empty(window.shape[1] * 8, dtype=np.int64)
        for k in range(8):
            count[k::8] = ((window >> k) & 1).sum(axis=0, dtype=np.int64)
        return count[:n_pixels].reshape(self.height, self.width)

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
        top = int(hi.max())
        full, rest = divmod(top - base, 8)
        # A range end r reads group (r - base) // 8, one past the span when
        # the span is a whole number of groups; a spare zero group covers it.
        groups = full + 1
        nbytes = self.bits.shape[1]
        ncols = nbytes * 8
        # cube[g, j] is an 8x8 bit matrix, one uint64 word: byte i holds
        # tick 8g + i of packed byte j, bit k pixel 8j + k.  Three delta
        # swaps transpose it, so byte k holds that pixel's eight ticks.
        cube = np.zeros((groups, nbytes, 8), dtype=np.uint8)
        cube[:full] = self.bits[base : base + 8 * full].reshape(full, 8, nbytes).transpose(0, 2, 1)
        cube[full, :, :rest] = self.bits[base + 8 * full : top].T
        words = cube.view("<u8")[..., 0]
        tmp = np.empty_like(words)
        for shift, mask in _TRANSPOSE_SWAPS:
            np.right_shift(words, shift, out=tmp)
            tmp ^= words
            tmp &= mask
            words ^= tmp
            tmp <<= shift
            words ^= tmp
        ticks = cube.reshape(groups, ncols)
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
        t_a = np.full(n_pixels, -1, dtype=np.int64)
        t_b = np.full(n_pixels, -1, dtype=np.int64)
        chunk = 4096
        cols = np.arange(n_pixels)
        for off in range(lo, hi, chunk):
            end = min(off + chunk, hi)
            c_lo, c_hi = (off, end) if not from_end else (lo + hi - end, lo + hi - off)
            dense = self.to_dense(c_lo, c_hi).reshape(c_hi - c_lo, n_pixels)
            if from_end:
                dense = dense[::-1]
            has1 = dense.any(axis=0)
            if has1.any():
                i1 = dense.argmax(axis=0)
                tick1 = (c_lo + i1) if not from_end else (c_hi - 1 - i1)
                fresh = (t_a < 0) & has1
                t_a[fresh] = tick1[fresh]
                if n == 2:
                    # Second spike of the chunk, for pixels whose first
                    # spike also lives here; otherwise the chunk's first
                    # spike is the pixel's second overall.
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
        shape = (self.height, self.width)
        if n == 1:
            return t_a.reshape(1, *shape)
        return np.stack([t_a.reshape(shape), t_b.reshape(shape)])

    def density_map(self, t_start: int, window: int) -> np.ndarray:
        """Per-pixel spike density over the clipped window, as float64."""
        lo = max(t_start, 0)
        hi = min(t_start + window, self.length)
        if hi <= lo:
            raise ValueError(
                f"window [{t_start}, {t_start + window}) does not overlap stream "
                f"of length {self.length}"
            )
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
