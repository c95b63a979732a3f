"""Timed subprocess of the benchmark: one workload in one process.

run.py starts one worker per workload, after doing the set-up itself, so
the peak RSS a worker reports belongs to that workload's timed phase.
The worker loads the set-up's input files, starts timed passes until
--seconds have gone by, checks every op's output, and prints one JSON
object on stdout.  With --trace 1 it runs one plain pass and then one
traced replay of it instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def account(passes, op_label: str) -> tuple[int, list[str]]:
    """Ops attempted over all passes, and a reason for each failed op.

    An op fails when it raised, when its output failed the workload's
    check, or when its output differs from the same op in the first pass
    (for a traced run, when the replay differs from the plain pass).
    """
    reference = passes[0].keys
    attempted, failures = 0, []
    for n, p in enumerate(passes):
        for i, (key, reason) in enumerate(zip(p.keys, p.reasons)):
            attempted += 1
            if reason is None and key != reference[i]:
                reason = "output differs from the first pass"
            if reason is not None:
                failures.append(f"pass {n} {op_label} {i}: {reason}")
    return attempted, failures


def peak_rss_mib() -> float:
    """Peak RSS of this process since it started.

    ru_maxrss would also count the parent's peak: the kernel carries the
    high-water mark of the address space an exec replaces into the new
    program's ru_maxrss.  VmHWM starts afresh with the exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument(
        "--startup-only", action="store_true",
        help="exit once the inputs are loaded; run.py times set-up this way",
    )
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from measure import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    inp = wl.load(args.workdir, args.seed)
    if args.startup_only:
        print(json.dumps({"ready_at": time.monotonic()}))
        return 0
    result = {"spans": None}
    if args.trace:
        base = wl.run_pass(inp, Tracer(False))
        tracer = Tracer(True, prefix="w")
        replay = wl.run_pass(inp, tracer)
        tracer.close()
        passes = [base, replay]
        result.update(spans=tracer.spans, untraced_wall=base.wall, traced_wall=replay.wall)
    else:
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(wl.run_pass(inp, Tracer(False)))

    attempted, failures = account(passes, wl.op_label)
    keys = [key or "raised" for key in passes[0].keys]
    result.update(
        passes=[{"wall": p.wall, "phases": p.phases, "op_s": p.op_s} for p in passes],
        attempted=attempted,
        failed=len(failures),
        failures=failures[:10],
        ops_per_pass=len(passes[0].keys),
        digest=hashlib.sha256("\n".join(keys).encode()).hexdigest(),
        peak_rss_mib=peak_rss_mib(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
