"""spikecam benchmark.

    python3 perfbench/run.py --workload restore --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports spikecam from its
src/ directory.  For each workload (restore, calibrate, sweep, or all of
them one after another) this process does the set-up, several times when
untraced, then starts one worker subprocess for the timed phase, so each
workload's peak RSS is its own.  stdout gets an environment stamp, the
digest of the outputs, the workload's own phase metrics, and as its last
line one JSON object: the end-to-end metrics with --trace 0, the
per-layer metrics from the traced replay with --trace 1.  Traced spans
are written to .perfbench/spans-<workload>-seed<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

from measure import Tracer, fail_frac, median, percentile, self_times, tail_percentile

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("restore", "calibrate", "sweep")
MIB = float(1 << 20)
# Every run ends within this many seconds; the worker gets what is left.
RUN_LIMIT_S = 175.0
# Untraced set-up repeats at least this often and for at least this long.
SETUP_MIN_REPS, SETUP_MIN_S = 3, 1.0


def load_library():
    """Import spikecam from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import spikecam
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import spikecam from {src}: {exc}")
    if Path(spikecam.__file__).resolve().parent != (src / "spikecam").resolve():
        raise SystemExit(f"perfbench: spikecam imported from {spikecam.__file__}, not {src}")


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in thread_vars},
        "commit": git_commit(),
        "seed": seed,
    }


# ----------------------------------------------------------------------
# per-layer metrics from spans


def layer_metrics(spans: list[dict], overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run; a layer the workload never
    calls reads 0."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def total(name):
        return sum((own[s["id"]] for s in by_name[name]), 0.0)

    def inclusive(name):
        return sum((s["end"] - s["start"] for s in by_name[name]), 0.0)

    def attr(names, key):
        return [s["attrs"][key] for n in names for s in by_name[n] if key in s["attrs"]]

    def per_frame_ms(name):
        per = defaultdict(float)
        for s in by_name[name]:
            per[s["request"]] += own[s["id"]]
        return 1e3 * median(per.values()) if per else 0.0

    def ns_per_pixel_tick(name):
        work = sum(attr([name], "pixel_ticks"))
        return 1e9 * total(name) / work if work else 0.0

    def med(xs):
        return median(xs) if xs else 0.0

    sims = ("simulate.arrivals", "simulate.ticks")
    sim_spans = [s for n in sims for s in by_name[n]]
    read_spans = by_name["formats.read_stream"]
    ast = ["reconstruct.ast"]
    return {
        "simulate.arrivals_s": (total("simulate.arrivals"), "s"),
        "simulate.arrivals_ns_per_pixel_tick": (ns_per_pixel_tick("simulate.arrivals"), "ns"),
        "simulate.ticks_s": (total("simulate.ticks"), "s"),
        "simulate.ticks_ns_per_pixel_tick": (ns_per_pixel_tick("simulate.ticks"), "ns"),
        "simulate.peak_alloc_mb": (max(attr(sims, "peak_alloc"), default=0) / MIB, "MiB"),
        "simulate.alloc_per_stream_byte": (
            max((s["attrs"]["peak_alloc"] / s["attrs"]["stream_bytes"] for s in sim_spans), default=0.0),
            "ratio",
        ),
        "simulate.spikes": (sum(attr(sims, "spikes")), "count"),
        "formats.read_stream_s": (total("formats.read_stream"), "s"),
        "formats.write_stream_s": (total("formats.write_stream"), "s"),
        "formats.calibration_io_s": (total("formats.calibration_io"), "s"),
        "formats.read_alloc_per_byte": (
            max((s["attrs"]["peak_alloc"] / s["attrs"]["file_bytes"] for s in read_spans), default=0.0),
            "ratio",
        ),
        "streams.count_map_s": (total("streams.count_map"), "s"),
        "streams.spike_edge_map_s": (total("streams.spike_edge_map"), "s"),
        "calibration.interval_map_s": (total("calibration.interval_map"), "s"),
        "calibration.estimate_s": (total("calibration.estimate"), "s"),
        "calibration.masked_pixels": (max(attr(["calibration.estimate"], "masked_pixels"), default=0), "count"),
        "reconstruct.ast_ms": (per_frame_ms("reconstruct.ast"), "ms"),
        "reconstruct.fpn_ms": (per_frame_ms("reconstruct.fpn"), "ms"),
        "reconstruct.fuse_ms": (per_frame_ms("reconstruct.fuse"), "ms"),
        "reconstruct.denoise_ms": (per_frame_ms("reconstruct.denoise"), "ms"),
        "reconstruct.refine_ms": (per_frame_ms("reconstruct.refine"), "ms"),
        "reconstruct.ast_peak_alloc_mb": (med(attr(ast, "peak_alloc")) / MIB, "MiB"),
        "reconstruct.ast_span_ticks": (med(attr(ast, "span_ticks")), "count"),
        "reconstruct.ast_unpacked_mb": (med(attr(ast, "unpacked_bytes")) / MIB, "MiB"),
        "reconstruct.ast_mean_window": (med(attr(ast, "mean_window")), "ticks"),
        "reconstruct.fuse_mask_mean": (med(attr(["reconstruct.fuse"], "mask_mean")), "fraction"),
        "wavelet.pyramid_ms": (per_frame_ms("wavelet.pyramid"), "ms"),
        "wavelet.collapse_ms": (per_frame_ms("wavelet.collapse"), "ms"),
        "reconstruct.tfp_s": (inclusive("reconstruct.method.tfp"), "s"),
        "reconstruct.tfi_s": (inclusive("reconstruct.method.tfi"), "s"),
        "reconstruct.ast_s": (inclusive("reconstruct.method.ast"), "s"),
        "reconstruct.recurrent_s": (inclusive("reconstruct.method.recurrent"), "s"),
        "metrics.psnr_s": (total("metrics.psnr"), "s"),
        "metrics.ssim_s": (total("metrics.ssim"), "s"),
        "bench.cells": (len(by_name["bench.cell"]), "count"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def layer_self_seconds(spans: list[dict]) -> dict[str, float]:
    """Self time summed by layer, the part of a span name before the dot."""
    own = self_times(spans)
    out = defaultdict(float)
    for s in spans:
        out[s["name"].split(".")[0]] += own[s["id"]]
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


# ----------------------------------------------------------------------
# one workload


def run_worker(name: str, args, workdir: Path, deadline: float, startup_only: bool = False) -> dict:
    """Run the timed subprocess and return its result.  With startup_only
    the worker exits once it has imported spikecam and loaded its inputs;
    its result then holds only ready_at, a time.monotonic() reading."""
    cmd = [
        sys.executable,
        str(ROOT / "perfbench" / "worker.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir),
    ] + (["--startup-only"] if startup_only else [])
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {name} worker did not finish in time")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {name} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, args, deadline: float) -> dict:
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    try:
        setup_s = []
        tracer = Tracer(bool(args.trace), prefix="p")
        if args.trace:
            wl.setup(args.seed, workdir, tracer)
            tracer.close()
        else:
            # One set-up writes the inputs and starts a worker up to the
            # point where it has imported spikecam and loaded them, so work
            # moved into import or load time shows in setup_s.
            while len(setup_s) < SETUP_MIN_REPS or sum(setup_s) < SETUP_MIN_S:
                t0 = time.monotonic()
                wl.setup(args.seed, workdir, tracer)
                ready = run_worker(name, args, workdir, deadline, startup_only=True)
                setup_s.append(ready["ready_at"] - t0)
        result = run_worker(name, args, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = [p["wall"] for p in result["passes"]]
    lines = [
        f"{name} digest {result['digest']} over {result['ops_per_pass']} {wl.op_label}s",
        f"{name} fail_frac {fail_frac(result['attempted'], result['failed'])} "
        f"({result['failed']} of {result['attempted']} ops)",
    ]
    lines += [f"{name} failure {reason}" for reason in result["failures"]]
    if args.trace:
        spans = tracer.spans + result["spans"]
        overhead = result["traced_wall"] - result["untraced_wall"]
        metrics = layer_metrics(spans, overhead)
        spans_path = OUT_DIR / f"spans-{name}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(spans))
        lines.append(f"{name} spans {len(spans)} written to {spans_path.relative_to(ROOT)}")
        lines += [
            f"{name} layer {layer} self {secs:.4f} s"
            for layer, secs in layer_self_seconds(spans).items()
        ]
    else:
        metrics = {
            "setup_s": (median(setup_s), "s"),
            "wall_s": (median(walls), "s"),
            "peak_rss_mb": (result["peak_rss_mib"], "MiB"),
            "ok_frac": (1.0 - fail_frac(result["attempted"], result["failed"]), "fraction"),
        }
        lines.append(f"{name} setup_s is the median of {len(setup_s)} set-ups")
        lines.append(f"{name} wall_s is the median of {len(walls)} passes")
        # The workload's own phases, printed for reading but not gated:
        # each is part of wall_s.
        for phase in result["passes"][0]["phases"]:
            value = median(p["phases"][phase] for p in result["passes"])
            lines.append(f"{name} {phase} {value:.6f} s")
        op_s = [t for p in result["passes"] for t in p["op_s"]]
        if op_s:
            label = f"{wl.op_label}_ms"
            lines.append(f"{name} {label}_p50 {1e3 * median(op_s):.4f} ms (n={len(op_s)})")
            tail = tail_percentile(len(op_s))
            if tail is not None and tail > 50:
                lines.append(
                    f"{name} {label}_p{tail:g} {1e3 * percentile(op_s, tail):.4f} ms (n={len(op_s)})"
                )
    return {
        "lines": lines,
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    load_library()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        out = run_workload(name, args, deadline)
        print("env " + json.dumps({"workload": name, **environment(args.seed)}))
        for line in out.pop("lines"):
            print(line)
        print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
