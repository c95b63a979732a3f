"""Benchmark arithmetic: spans, self time, percentiles and failure shares.

Spans are recorded by the benchmark around calls into the public API of
spikecam; nothing here reaches inside the library.  A span is a plain
dict so it crosses the process boundary as JSON unchanged.
"""

from __future__ import annotations

import math
import statistics
import time
import tracemalloc
from contextlib import contextmanager

# Percentiles a tail can be reported at, highest last.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
# A percentile is only reported when at least this many samples lie beyond it.
TAIL_MIN_BEYOND = 10


def samples_beyond(n: int, pct: float) -> int:
    """Samples ranked above the nearest-rank pct-th percentile of n samples."""
    return n - math.ceil(n * pct / 100.0)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least TAIL_MIN_BEYOND samples beyond it.

    None when even the median has fewer than that many samples above it.
    """
    usable = [p for p in TAIL_LADDER if samples_beyond(n, p) >= TAIL_MIN_BEYOND]
    return usable[-1] if usable else None


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the ceil(n * pct / 100)-th smallest value."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(len(ordered) * pct / 100.0))
    return ordered[rank - 1]


def fail_frac(attempted: int, failed: int) -> float:
    """Failed operations as a share of those attempted."""
    if attempted < 1:
        raise ValueError(f"attempted must be at least 1, got {attempted}")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed must lie in [0, {attempted}], got {failed}")
    return failed / attempted


def median(values) -> float:
    return float(statistics.median(values))


# ----------------------------------------------------------------------
# spans


class Tracer:
    """Collects spans in memory; with enabled False every call is a no-op.

    Each span records a name, start and end (perf_counter seconds), the id
    of the span open around it, a request id shared by the spans of one
    frame, calibration or bench cell, and free-form attributes.  An
    enabled tracer runs tracemalloc, and spans opened with alloc=True also
    record the peak bytes it traced above the level at entry.
    """

    def __init__(self, enabled: bool, prefix: str = "") -> None:
        self.enabled = enabled
        self.prefix = prefix
        self.spans: list[dict] = []
        self._stack: list[str] = []
        self._next = 0
        if enabled and not tracemalloc.is_tracing():
            tracemalloc.start()

    def close(self) -> None:
        if self.enabled and tracemalloc.is_tracing():
            tracemalloc.stop()

    @contextmanager
    def span(self, name: str, request: str, alloc: bool = False, **attrs):
        if not self.enabled:
            yield {}
            return
        sid = f"{self.prefix}{self._next}"
        self._next += 1
        record = {
            "id": sid,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "request": request,
            "attrs": dict(attrs),
        }
        if alloc:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        self._stack.append(sid)
        record["start"] = time.perf_counter()
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            if alloc:
                record["attrs"]["peak_alloc"] = tracemalloc.get_traced_memory()[1] - base
            self.spans.append(record)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the part of it covered by child spans."""
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for lo, hi in sorted(children.get(s["id"], ())):
            lo, hi = max(lo, cursor), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out
