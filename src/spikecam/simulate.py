"""Spike stream generation via the integrate-and-fire pixel model.

Each pixel accumulates digital intensity every clock tick and fires a
spike whenever the accumulator reaches the full-well threshold of 255,
subtracting the threshold on firing.  Optional noise sources model the
photon arrival statistics (shot), thermal dark current, per-pixel
response nonuniformity, and the tick-grid quantization of discharge
times.

The per-tick path integrates one tick at a time over all pixels.  Each
pixel sums its deposits in tick order from the start of a block and
fires at a tick when that sum plus the charge carried into the block
reaches its next whole well, so it fires at most once per tick and
carries any excess.  In exact arithmetic this is the sequential rule
(add the deposit, fire and subtract a well once the charge reaches it),
but the two round differently: on a noise-free seventh of a well they
first disagree at tick 34, and the simulator follows the block sums.
The sums restart every block of at most 1024 ticks (fewer on large
sensors).  Deposits are drawn a chunk of at most 64 ticks and about 1M
pixel-ticks at a time into one reused float64 buffer with a bool fire
mask of the same shape, packed per chunk; each noise source keeps its
own generator and draws tick-major, so the chunking does not change any
variate.  The working set is that chunk, a few per-pixel vectors, one
chunk's draw temporaries and the packed output.

For static scenes with shot noise on and quantization off, the stream
is instead constructed directly from the photon arrival process (one
gamma variate per output spike rather than one Poisson variate per
tick); the construction samples the same distribution over streams and
is dramatically faster at calibration-scale lengths.  Its variates are
drawn in one fixed order, pixel by pixel in stable order of spike
count, and worked a chunk of about 64k spikes at a time; the chunk
budget changes no variate.  The working set is that chunk, a few
per-pixel vectors and the packed output.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .calibration import CalibrationData, identity_calibration
from .noise import NoiseConfig, make_rng, split_rng
from .streams import SpikeStream, frame_bytes, validate_image

__all__ = ["SimulationRequest", "simulate", "simulate_ideal"]

# Ticks between restarts of the per-tick path's running deposit sums,
# fewer on sensors over ~4k pixels so a block spans at most ~4M
# pixel-ticks; the float rounding of the sums depends on these.
_BLOCK_TICKS = 1024
_BLOCK_BUDGET = 4_000_000
# Ticks drawn per step, fewer on sensors over 16k pixels so a chunk
# spans at most ~1M pixel-ticks; this bounds the deposit buffer and each
# draw's temporaries.
_CHUNK_TICKS = 64
_CHUNK_PIXEL_TICKS = 1 << 20

# Discharge times are floored here after jitter so a very bright pixel
# cannot produce a nonpositive discharge time.
_MIN_DISCHARGE = 1e-9

# Cells (spikes plus one tail per pixel, padded) the arrival path works
# on at a time; this bounds its temporaries and changes no variate.
_CHUNK_SPIKES = 1 << 16


@dataclass(frozen=True)
class SimulationRequest:
    """Everything needed to generate one spike stream.

    source is either a single (height, width) intensity frame held for
    the whole stream, or a (frames, height, width) sequence providing
    one frame per tick (the sequence must cover at least `length`
    ticks).  theta scales the source intensity to move the scene across
    illumination regimes.
    """

    source: np.ndarray
    theta: float = 1.0
    length: int = 1
    calib: CalibrationData | None = None
    noise: NoiseConfig = field(default_factory=NoiseConfig.none)

    def __post_init__(self) -> None:
        src = np.asarray(self.source, dtype=np.float64)
        if src.ndim == 2:
            src = validate_image(src, "source").copy()
        elif src.ndim == 3:
            if not np.isfinite(src).all():
                raise ValueError("source sequence must be finite")
            if (src < 0).any():
                raise ValueError("source sequence must be nonnegative")
            src = src.copy()
        else:
            raise ValueError(
                f"source must be 2-d (h, w) or 3-d (frames, h, w), got shape {src.shape}"
            )
        src.setflags(write=False)
        object.__setattr__(self, "source", src)

        theta = float(self.theta)
        if not (np.isfinite(theta) and theta > 0):
            raise ValueError(f"theta must be finite and positive, got {self.theta!r}")
        object.__setattr__(self, "theta", theta)

        length = int(self.length)
        if length < 1:
            raise ValueError(f"length must be >= 1, got {self.length!r}")
        object.__setattr__(self, "length", length)

        if src.ndim == 3 and src.shape[0] < length:
            raise ValueError(
                f"source sequence has {src.shape[0]} frames but length is {length}"
            )
        if self.calib is not None:
            self.calib.require_shape(self.frame_shape)

    @property
    def frame_shape(self) -> tuple[int, int]:
        return self.source.shape[-2:]

    @property
    def is_static(self) -> bool:
        return self.source.ndim == 2


def simulate(
    req: SimulationRequest, rng: np.random.Generator | None = None
) -> SpikeStream:
    """Generate the spike stream for a request.

    With rng omitted, a fresh generator is seeded from the request's
    noise config, so identical requests produce bit-identical streams.
    """
    calib = req.calib
    if calib is None:
        h, w = req.frame_shape
        calib = identity_calibration(w, h)
    cfg = req.noise
    if rng is None:
        rng = make_rng(cfg.rng_seed)

    use_arrivals = (
        req.is_static
        and cfg.enable_shot
        and not cfg.enable_quantization
        and (cfg.enable_dark or not calib.L_d.any())
    )
    if use_arrivals:
        bits = _simulate_arrivals(req, calib, rng)
    else:
        bits = _simulate_ticks(req, calib, rng)
    h, w = req.frame_shape
    return SpikeStream(w, h, req.length, calib.clock, bits)


def simulate_ideal(
    image: np.ndarray, theta: float = 1.0, length: int = 1
) -> SpikeStream:
    """Noise-free stream: every pixel fires with exact period 255/(theta*L)."""
    req = SimulationRequest(
        source=image, theta=theta, length=length, noise=NoiseConfig.none()
    )
    return simulate(req)


# ----------------------------------------------------------------------
# general per-tick path


def _effective_gain(
    calib: CalibrationData, cfg: NoiseConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Flat per-pixel (gain, counts-per-spike) under the active flags.

    With nonuniformity disabled the sensor is ideal: unit gain and a
    full well of 255 counts everywhere.
    """
    threshold = calib.clock.max_intensity
    if cfg.enable_nonuniformity:
        return calib.R.ravel(), calib.Q_r.ravel()
    n = calib.R.size
    return np.ones(n), np.full(n, threshold)


def _simulate_ticks(
    req: SimulationRequest, calib: CalibrationData, rng: np.random.Generator
) -> np.ndarray:
    rng_shot, rng_dark, rng_quant = split_rng(rng, 3)
    cfg = req.noise
    h, w = req.frame_shape
    n_pixels = h * w
    threshold = calib.clock.max_intensity
    length = req.length

    gain, _ = _effective_gain(calib, cfg)
    dark_rate = calib.L_d.ravel()
    lift = dark_rate if cfg.enable_nonuniformity else 0.0
    if req.is_static:
        static_signal = req.theta * req.source.ravel()
    else:
        frames = req.source.reshape(req.source.shape[0], n_pixels)

    block = max(1, min(_BLOCK_TICKS, _BLOCK_BUDGET // max(1, n_pixels)))
    chunk = min(_CHUNK_TICKS, block, length, max(1, _CHUNK_PIXEL_TICKS // n_pixels))
    deposit = np.empty((chunk, n_pixels))
    fires = np.empty(deposit.shape, dtype=bool)
    acc = np.zeros(n_pixels)
    total = np.empty(n_pixels)
    charge = np.empty(n_pixels)
    next_well = np.empty(n_pixels)
    out = np.empty((length, frame_bytes(w, h)), dtype=np.uint8)

    for start in range(0, length, block):
        stop = min(start + block, length)
        total[:] = 0.0
        next_well[:] = threshold
        # Draw a chunk of ticks at a time; each generator still draws its
        # variates tick-major, so chunking does not change them.
        for lo in range(start, stop, chunk):
            hi = min(lo + chunk, stop)
            rows = deposit[: hi - lo]
            if req.is_static:
                signal = np.broadcast_to(static_signal, rows.shape)
            else:
                signal = req.theta * frames[lo:hi]
            # gain * counts: one Poisson draw of signal plus dark rate, or the
            # signal plus a Poisson dark draw, the L_d lift or nothing.
            if cfg.enable_shot and cfg.enable_dark:
                counts = rng_shot.poisson(signal + dark_rate)
            elif cfg.enable_dark:
                counts = signal + rng_dark.poisson(np.broadcast_to(dark_rate, rows.shape))
            else:
                counts = (rng_shot.poisson(signal) if cfg.enable_shot else signal) + lift
            np.multiply(gain, counts, out=rows)
            del counts  # freed before the quantization temporaries
            if cfg.enable_quantization:
                with np.errstate(divide="ignore"):
                    discharge = threshold / rows
                discharge += rng_quant.uniform(-1.0, 1.0, size=rows.shape)
                np.maximum(discharge, _MIN_DISCHARGE, out=discharge)
                np.divide(threshold, discharge, out=rows)

            # A pixel fires when its charge since the block began reaches
            # its next whole well: floor((total + acc) / threshold) exceeds
            # its spikes so far, so it fires at most once per tick and
            # carries any excess.  Wells are whole multiples of 255, so the
            # comparison is exact.  total restarts from zero every block;
            # the streams' rounding, pinned by the golden digests, depends
            # on where.
            for i, row in enumerate(rows):
                total += row
                np.add(total, acc, out=charge)
                np.greater_equal(charge, next_well, out=fires[i])
                next_well += threshold * fires[i]
            out[lo:hi] = np.packbits(fires[: hi - lo], axis=1, bitorder="little")

        # charge holds the block's last tick; next_well - threshold is the
        # charge fired away.  A pixel with no wells left unfired carries
        # less than one well.
        acc = charge - (next_well - threshold)
        if not (acc.min() >= 0 and (acc[charge < next_well] < threshold).all()):
            raise RuntimeError("integrator charge left outside [0, threshold)")

    return out


# ----------------------------------------------------------------------
# arrival-process path


def _simulate_arrivals(
    req: SimulationRequest, calib: CalibrationData, rng: np.random.Generator
) -> np.ndarray:
    """Construct the stream from photon arrival times.

    Without quantization the deposited charge is linear in the photon
    counts, so pixel p fires its m-th spike at the tick where its
    cumulative count first reaches ceil(m * quantum_p).  Conditioned on
    the total count over the stream, the arrival times of those specific
    photons are order statistics of uniforms, sampled here through
    partial sums of exponential gaps (gamma variates).  One spike per
    tick is enforced by pushing colliding spikes to the next free tick,
    matching the sequential carry rule.

    Each spiking pixel is one row of a zero-padded array: the gamma
    shapes of its gaps, then of its tail (the photons after its last
    spike, plus one).  Rows go in stable order of spike count, so the
    counts alone fix the order.  A gamma variate of shape 0 draws
    nothing, so the gaps are drawn pixel by pixel in that one fixed
    order, and a running sum or carry along a row restarts at each
    pixel.  Rows are worked a run at a time, each run padded to its
    widest row and within _CHUNK_SPIKES cells (or one row); the chunk
    budget changes no variate.
    """
    stream_rng = split_rng(rng, 3)[0]
    cfg = req.noise
    h, w = req.frame_shape
    length = req.length

    _, quantum = _effective_gain(calib, cfg)
    rate = req.theta * req.source.ravel()
    if cfg.enable_dark:
        rate = rate + calib.L_d.ravel()

    totals = stream_rng.poisson(rate * float(length))
    spikes = np.minimum(
        np.floor(totals / np.maximum(quantum, _MIN_DISCHARGE)), length
    ).astype(np.int64)

    row_bytes = frame_bytes(w, h)
    out = np.zeros((length, row_bytes), dtype=np.uint8)
    flat_out = out.reshape(-1)

    order = np.argsort(spikes, kind="stable")
    widths = (spikes[order] + 1).tolist()
    n_rows = len(widths)
    a = int(np.count_nonzero(spikes == 0))
    while a < n_rows:
        # The longest run from row a whose rows, padded to the last and
        # widest, fit the budget.
        fit = bisect_right(
            range(a + 1, n_rows + 1), _CHUNK_SPIKES, key=lambda b: (b - a) * widths[b - 1]
        )
        b = a + max(fit, 1)
        pix = order[a:b]
        m = spikes[pix][:, None]
        k = np.arange(widths[b - 1])
        a = b

        # A spike's gap shape is its threshold count ceil((k + 1) q) less
        # the previous spike's.  The wells stop rising at the last spike,
        # so every shape past it is 0 but the tail's.
        wells = np.ceil(np.minimum(np.arange(k.size + 1), m) * quantum[pix][:, None])
        shapes = np.diff(wells, axis=1)
        tail = np.maximum(totals[pix][:, None] - wells[:, -1:], 0.0)
        np.put_along_axis(shapes, m, tail + 1.0, axis=1)
        positions = stream_rng.standard_gamma(shapes)
        np.cumsum(positions, axis=1, out=positions)
        # The padding adds zeros, so the last column is each row's sum
        # through its tail.
        positions *= float(length) / positions[:, -1:]
        # floor(pos) equals ceil(pos) - 1 for the almost-surely
        # non-integer positions in (0, length).
        ticks = positions.astype(np.int64)
        np.minimum(ticks, length - 1, out=ticks)

        # A running max of (tick - spike index) along each row enforces
        # the one-spike-per-tick carry rule without a Python loop.
        ticks -= k
        np.maximum.accumulate(ticks, axis=1, out=ticks)
        ticks += k
        keep = (ticks < length) & (k < m)

        # Set bit (pix & 7) of byte tick * row_bytes + (pix >> 3) in stream
        # order: rows in count order lie all over the sensor, and unsorted
        # writes miss the cache.  Two pixels of one byte can fire on one
        # tick; a buffered |= may keep either's bit, so OR all such again.
        ticks *= 8 * row_bytes
        ticks += pix[:, None]
        place = ticks[keep]
        place.sort()
        bits = (place & 7).astype(np.uint8)
        np.left_shift(1, bits, out=bits)
        place >>= 3
        flat_out[place] |= bits
        twin = np.flatnonzero(place[1:] == place[:-1])
        twin = np.concatenate((twin, twin + 1))
        np.bitwise_or.at(flat_out, place[twin], bits[twin])
    return out
