"""Command-line surface tying the library into user workflows.

Every subcommand is a thin wrapper over library calls, so CLI output is
byte-identical to doing the same calls directly with the same seed.

Exit codes: 0 success, 1 the command line is wrong, 2 the input files or
their data are wrong or too large for memory, 3 calibration quality.
argparse checks each argument; only the method/window pair, `--msb-first`
without `--raw` and an `--at` tick outside the stream are checked later.
After them any ValueError, OSError or MemoryError exits 2.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

import numpy as np

from .bench import DEFAULT_METHODS, Scene, make_scenes, run_benchmark, synthetic_calibration
from .calibration import (
    CalibrationData,
    CalibrationError,
    build_calibration,
    identity_calibration,
)
from .formats import (
    FormatError,
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
from .metrics import psnr, ssim
from .noise import NoiseConfig, check_seed
from .reconstruct import check_method, reconstruct
from .simulate import SimulationRequest, simulate
from .streams import SpikeStream
from .wavelet import PYRAMID_LEVELS


class UsageError(ValueError):
    """Bad command line or bad argument combination."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; route through UsageError for exit 1
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(f"{self.prog}: {message}")


_NOISE_FLAGS = {
    "shot": "enable_shot",
    "dark": "enable_dark",
    "rnu": "enable_nonuniformity",
    "quant": "enable_quantization",
}


def _parse_noise(text: str) -> dict[str, bool]:
    """NoiseConfig's enable_* flags from 'all', 'none' or a comma list."""
    if text in ("all", "none"):
        return dict.fromkeys(_NOISE_FLAGS.values(), text == "all")
    tokens = [token.strip() for token in text.split(",")]
    for token in tokens:
        if token not in _NOISE_FLAGS:
            raise argparse.ArgumentTypeError(
                f"unknown noise source {token!r}; choose from "
                f"{', '.join(_NOISE_FLAGS)}, or 'all' or 'none'"
            )
    return {flag: name in tokens for name, flag in _NOISE_FLAGS.items()}


def _parse_raw(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d+)x(\d+)", text)
    if not m:
        raise argparse.ArgumentTypeError(f"expected WIDTHxHEIGHT, got {text!r}")
    return int(m.group(1)), int(m.group(2))


def _parse_ticks(text: str) -> list[int]:
    ticks = [int(t) for t in text.split(",")] if re.fullmatch(r"-?\d+(,-?\d+)*", text) else []
    if not ticks or any(b <= a for a, b in zip(ticks, ticks[1:])):
        raise argparse.ArgumentTypeError(f"expected strictly increasing tick numbers, got {text!r}")
    return ticks


def _number(parse, accept, expected: str):
    """An argparse type: parse the text, then accept the value or say what was expected."""

    def convert(text: str):
        try:
            value = parse(text)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return convert


_positive = _number(float, lambda v: math.isfinite(v) and v > 0, "a positive finite number")
_positive_int = _number(int, lambda v: v >= 1, "a positive integer")
# check_seed parses the text and checks the range in one call
_seed = _number(check_seed, lambda v: True, "a seed in [0, 2**64)")


def _parse_light(spec: str) -> tuple[str, float]:
    path, sep, level = spec.rpartition(":")
    if not sep or not path:
        raise argparse.ArgumentTypeError(f"expected FILE:INTENSITY, got {spec!r}")
    return path, _positive(level)


def _add_raw_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--raw",
        type=_parse_raw,
        metavar="WxH",
        help="read stream files as headerless packed dumps with these dimensions",
    )
    parser.add_argument(
        "--msb-first",
        action="store_true",
        help="raw dumps pack the most significant bit first",
    )


def _add_stream_input(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("stream", help="spike stream file")
    _add_raw_flags(parser)


def _load_stream(path: str, raw: tuple[int, int] | None, msb_first: bool) -> SpikeStream:
    if raw is None:
        if msb_first:
            raise UsageError("--msb-first applies only with --raw")
        return read_stream(path)
    width, height = raw
    stream = read_raw_stream(path, width, height, msb_first=msb_first)
    div = 2**PYRAMID_LEVELS
    w8, h8 = width - width % div, height - height % div
    if (w8, h8) != (width, height):
        if w8 == 0 or h8 == 0:
            raise FormatError(f"raw dimensions {width}x{height} are below one {div}-pixel tile")
        print(
            f"note: center-cropping {width}x{height} raw input to {w8}x{h8} "
            f"(dimensions must be divisible by {div} for processing)",
            file=sys.stderr,
        )
        stream = center_crop(stream, w8, h8)
    return stream


def _require_one_size(shapes: dict[str, tuple[int, int]]) -> None:
    """Raise FormatError unless every named input has the first's (height, width)."""
    (first, (h0, w0)), *rest = shapes.items()
    for name, (h, w) in rest:
        if (h, w) != (h0, w0):
            raise FormatError(f"{name} is {w}x{h} but {first} is {w0}x{h0}")


def _read_graymaps(directory: str, what: str) -> list[tuple[Path, np.ndarray]]:
    """Every .pgm file in directory, sorted by name; one at least, all of one size."""
    files = sorted(Path(directory).glob("*.pgm"))
    if not files:
        raise FormatError(f"no .pgm {what} found in {directory}")
    images = [read_image(f) for f in files]
    _require_one_size({str(f): image.shape for f, image in zip(files, images)})
    return list(zip(files, images))


def _read_calibration(path: str, shape: tuple[int, int]) -> CalibrationData:
    calib = read_calibration(path)
    calib.require_shape(shape)
    return calib


# ----------------------------------------------------------------------
# subcommands


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.input is not None:
        source = read_image(args.input)
    else:
        source = np.stack([image for _, image in _read_graymaps(args.sequence, "frames")])
    calib = _read_calibration(args.calib, source.shape[-2:]) if args.calib else None
    noise = NoiseConfig(rng_seed=args.seed, **args.noise)
    req = SimulationRequest(
        source=source, theta=args.theta, length=args.length, calib=calib, noise=noise
    )
    write_stream(simulate(req), args.out)
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    def load(path: str) -> SpikeStream:
        stream = _load_stream(path, args.raw, args.msb_first)
        if stream.length == 0:
            raise FormatError(f"{path} is a recording of 0 ticks")
        return stream

    (path1, L_1), (path2, L_2) = args.light1, args.light2
    dark, light1, light2 = load(args.dark), load(path1), load(path2)
    _require_one_size({
        path: (s.height, s.width)
        for path, s in ((args.dark, dark), (path1, light1), (path2, light2))
    })
    calib = build_calibration(dark, light1, L_1, light2, L_2)
    write_calibration(calib, args.out)
    return 0


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    method = "recurrent" if args.method == "rsir" else args.method
    try:
        check_method(method, args.window)
    except ValueError as exc:
        # the library calls rsir "recurrent"; name it as it was typed
        raise UsageError(str(exc).replace(method, args.method)) from exc
    stream = _load_stream(args.stream, args.raw, args.msb_first)
    # Both checks come before any calibration of the stream's size is built.
    for t in args.at:
        if not 0 <= t < stream.length:
            raise UsageError(f"tick {t} outside stream of length {stream.length}")
    div = 2**PYRAMID_LEVELS
    if args.method == "rsir" and (stream.width % div or stream.height % div):
        raise FormatError(
            f"{args.stream} is {stream.width}x{stream.height}; "
            f"rsir needs both sides divisible by {div}"
        )
    if args.calib:
        calib = _read_calibration(args.calib, (stream.height, stream.width))
    else:
        calib = identity_calibration(stream.width, stream.height, clock=stream.clock)
    images = reconstruct(stream, method, args.at, calib, window=args.window)
    for t, image in zip(args.at, images):
        path = f"{args.out_prefix}{t:06d}.pgm"
        write_image(image, path, bit_depth=16)
        print(f"wrote {path}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    gt = read_image(args.gt)
    pred = read_image(args.pred)
    _require_one_size({args.gt: gt.shape, args.pred: pred.shape})
    print(f"psnr={round(psnr(gt, pred), 4)} ssim={round(ssim(gt, pred), 6)}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.scenes is not None:
        scenes = [Scene(f.stem, image) for f, image in _read_graymaps(args.scenes, "scenes")]
    else:
        scenes = make_scenes()
    height, width = scenes[0].image.shape
    if args.calib:
        calib = _read_calibration(args.calib, (height, width))
    else:
        calib = synthetic_calibration(width, height, seed=args.seed)
    report = run_benchmark(scenes, calib, DEFAULT_METHODS, args.seed)
    sys.stdout.write(report.to_csv())
    sys.stderr.write(report.to_summary())
    if args.report:
        _write_file(args.report, report.to_text().encode("utf-8"))
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    stream = _load_stream(args.stream, args.raw, args.msb_first)
    print(f"width {stream.width}")
    print(f"height {stream.height}")
    print(f"length {stream.length}")
    print(f"tick_nanoseconds {round(stream.clock.tick_seconds * 1e9)}")
    if stream.length == 0:
        return 0
    frame_counts = np.bitwise_count(stream.bits).sum(axis=1)
    n_pixels = stream.width * stream.height
    frame_density = frame_counts / n_pixels
    pixel_density = stream.density_map(0, stream.length)
    print(f"mean density {frame_density.mean():.6g}")
    print(f"pixel density min {pixel_density.min():.6g} max {pixel_density.max():.6g}")
    print("frame density histogram")
    counts, edges = np.histogram(frame_density, bins=10, range=(0.0, 1.0))
    for lo, hi, count in zip(edges[:-1], edges[1:], counts):
        print(f"  {lo:.1f}-{hi:.1f} {count}")
    return 0


# ----------------------------------------------------------------------
# parser


def _build_parser() -> _Parser:
    parser = _Parser(prog="spikecam", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="render a spike stream from an image or sequence")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="static scene graymap")
    source.add_argument("--sequence", help="directory of per-tick .pgm frames (sorted by name)")
    p.add_argument("--theta", type=_positive, default=1.0, help="exposure factor")
    p.add_argument("--length", type=_positive_int, required=True, help="ticks to simulate")
    p.add_argument("--calib", help="calibration document for the sensor model")
    p.add_argument(
        "--noise",
        type=_parse_noise,
        default="all",
        help="comma-separated subset of shot,dark,rnu,quant, or 'all' or 'none'",
    )
    p.add_argument("--seed", type=_seed, default=0, help="noise stream seed")
    p.add_argument("--out", required=True, help="output spike stream file")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("calibrate", help="build sensor calibration from three recordings")
    p.add_argument("--dark", required=True, help="lens-capped recording")
    for k in (1, 2):
        p.add_argument(f"--light{k}", required=True, type=_parse_light, metavar=f"FILE:L{k}",
                       help=f"uniform scene at intensity L{k}")
    _add_raw_flags(p)
    p.add_argument("--out", required=True, help="output calibration document")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("reconstruct", help="restore intensity images from a stream")
    _add_stream_input(p)
    p.add_argument("--method", required=True, choices=("tfp", "tfi", "ast", "rsir"))
    p.add_argument("--window", type=int, help="tick window for tfp")
    p.add_argument("--at", required=True, type=_parse_ticks, metavar="T[,T...]", help="ticks to restore")
    p.add_argument("--calib", help="calibration document (identity if omitted)")
    p.add_argument("--out-prefix", required=True, help="output files get PREFIX<tick>.pgm")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("eval", help="compare a prediction against ground truth")
    p.add_argument("--gt", required=True, help="ground-truth graymap")
    p.add_argument("--pred", required=True, help="predicted graymap")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bench", help="run the benchmark sweep (summary table on stderr)")
    p.add_argument("--scenes", help="directory of .pgm scenes (builtin scenes if omitted)")
    p.add_argument("--calib", help="calibration document (synthetic sensor if omitted)")
    p.add_argument("--seed", type=_seed, default=0, help="benchmark seed")
    p.add_argument("--report", help="write the structured text report here")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("inspect", help="print stream header and density summary")
    _add_stream_input(p)
    p.set_defaults(func=_cmd_inspect)

    return parser


# Exit code per exception type; the first type an error is an instance of wins.
_EXIT_CODES = {
    UsageError: 1,
    CalibrationError: 3,
    ValueError: 2,
    OSError: 2,
    MemoryError: 2,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
