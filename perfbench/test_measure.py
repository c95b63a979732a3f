"""Tests of the benchmark's own arithmetic: python3 -m pytest perfbench"""

from types import SimpleNamespace

import pytest

from measure import Tracer, fail_frac, percentile, samples_beyond, self_times, tail_percentile
from worker import account


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (112, 90.0), (999, 90.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def _span(sid, start, end, parent=None):
    return {"id": sid, "name": sid, "start": start, "end": end, "parent": parent, "request": "r", "attrs": {}}


def test_self_time_subtracts_covered_child_time_once():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, "root"),
        _span("b", 2.0, 4.0, "root"),  # overlaps a; [2, 3] counts once
        _span("c", 8.0, 12.0, "root"),  # only [8, 10] lies inside root
        _span("a1", 1.5, 2.5, "a"),
    ]
    own = self_times(spans)
    assert own["root"] == pytest.approx(10.0 - 3.0 - 2.0)
    assert own["a"] == pytest.approx(1.0)
    assert own["b"] == pytest.approx(2.0)
    assert own["a1"] == pytest.approx(1.0)


def test_tracer_links_nested_spans_and_disabled_records_nothing():
    tracer = Tracer(True, prefix="t")
    try:
        with tracer.span("outer", "req1"):
            with tracer.span("inner", "req1") as attrs:
                attrs["n"] = 3
    finally:
        tracer.close()
    inner, outer = tracer.spans
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert inner["attrs"] == {"n": 3}
    own = self_times(tracer.spans)
    assert 0.0 <= own[outer["id"]] <= outer["end"] - outer["start"]

    off = Tracer(False)
    with off.span("outer", "req1"):
        pass
    assert off.spans == []


def test_tracer_records_allocation_peak():
    tracer = Tracer(True)
    try:
        with tracer.span("alloc", "r", alloc=True):
            block = bytearray(4 << 20)
            del block
    finally:
        tracer.close()
    assert tracer.spans[0]["attrs"]["peak_alloc"] >= 4 << 20


def test_fail_frac():
    assert fail_frac(10, 0) == 0.0
    assert fail_frac(4, 1) == 0.25
    with pytest.raises(ValueError):
        fail_frac(0, 0)
    with pytest.raises(ValueError):
        fail_frac(3, 4)


def test_account_counts_exceptions_check_failures_and_mismatches():
    first = SimpleNamespace(keys=["1", None, "-1", "4"], reasons=[None, "ValueError: x", "negative", None])
    replay = SimpleNamespace(keys=["1", "2", "-1", "5"], reasons=[None, None, "negative", None])
    attempted, failures = account([first, replay], "op")
    assert attempted == 8
    assert failures == [
        "pass 0 op 1: ValueError: x",
        "pass 0 op 2: negative",
        "pass 1 op 1: output differs from the first pass",
        "pass 1 op 2: negative",
        "pass 1 op 3: output differs from the first pass",
    ]
    assert fail_frac(attempted, len(failures)) == 5 / 8
