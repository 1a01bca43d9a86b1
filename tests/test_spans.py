"""Tests for span tracing primitives (:mod:`repro.obs.spans`), the
convergence monitor, gauges, and the retention/boundary behaviour of the
other observability instruments."""

import pytest

from repro.obs import (
    ConvergenceMonitor,
    EventRing,
    Gauge,
    Histogram,
    Metrics,
    NULL_SPAN,
    Span,
    SpanTracker,
    TraceEvent,
)
from repro.sim import MetricsCollector


def ticking_clock(step=1.0, start=0.0):
    state = {"t": start - step}

    def clock():
        state["t"] += step
        return state["t"]

    return clock


# ---------------------------------------------------------------------------
# SpanTracker
# ---------------------------------------------------------------------------


def test_span_explicit_begin_end_and_tree():
    tracker = SpanTracker(ticking_clock())
    root = tracker.begin("tf", transform="split-1")
    child = tracker.begin("tf.phase.populating", parent=root)
    tracker.end(child)
    tracker.end(root)
    assert child.parent_id == root.span_id
    assert not root.open and not child.open
    assert root.duration > child.duration > 0.0
    tree = tracker.tree()
    assert len(tree) == 1
    assert tree[0]["name"] == "tf"
    assert tree[0]["attrs"] == {"transform": "split-1"}
    assert [c["name"] for c in tree[0]["children"]] == \
        ["tf.phase.populating"]


def test_span_context_manager_supplies_parent():
    tracker = SpanTracker(ticking_clock())
    with tracker.span("outer") as outer:
        with tracker.span("inner") as inner:
            assert inner.parent_id == outer.span_id
        # An explicit parent beats the stack.
        sibling = tracker.begin("explicit", parent=inner)
        assert sibling.parent_id == inner.span_id
        tracker.end(sibling)
    assert not outer.open


def test_span_context_manager_is_exception_safe():
    tracker = SpanTracker(ticking_clock())
    with pytest.raises(RuntimeError):
        with tracker.span("failing") as span:
            raise RuntimeError("boom")
    assert not span.open
    assert "boom" in span.error
    # The stack was popped: the next span is a root.
    with tracker.span("after") as after:
        pass
    assert after.parent_id is None


def test_span_end_is_idempotent():
    clock = ticking_clock()
    tracker = SpanTracker(clock)
    span = tracker.begin("once")
    tracker.end(span)
    first_end = span.end
    tracker.end(span)
    assert span.end == first_end


def test_span_retention_keeps_earliest_and_counts_drops():
    tracker = SpanTracker(ticking_clock())
    cap = SpanTracker.CAPACITY
    kept = [tracker.begin(f"s{i}") for i in range(cap)]
    extra = tracker.begin("extra")
    assert extra is NULL_SPAN and tracker.spans()[0].name == "s0"
    assert tracker.summary() == {"started": cap + 1, "retained": cap,
                                 "open": cap, "dropped": 1}
    # Ending the dropped span is inert; ending retained ones works.
    for span in kept + [extra]:
        tracker.end(span)
    assert tracker.summary()["open"] == 0


def test_null_span_swallows_mutation():
    NULL_SPAN.end = 123.0
    NULL_SPAN.error = "nope"
    assert NULL_SPAN.end is None and NULL_SPAN.error is None
    # attrs writes are absorbed without raising.
    NULL_SPAN.attrs["records"] = 7
    assert NULL_SPAN.open and NULL_SPAN.duration == 0.0


def test_tree_orphans_become_roots():
    tracker = SpanTracker(ticking_clock())
    ghost = Span(span_id=999, parent_id=None, name="ghost", start=0.0)
    orphan = tracker.begin("orphan", parent=ghost)
    tracker.end(orphan)
    tree = tracker.tree()
    assert [n["name"] for n in tree] == ["orphan"]


def test_span_find_and_name_filter():
    tracker = SpanTracker(ticking_clock())
    tracker.begin("a")
    b1 = tracker.begin("b")
    tracker.begin("b")
    assert tracker.find("b") is b1
    assert tracker.find("missing") is None
    assert len(tracker.spans("b")) == 2
    tracker.clear()
    assert len(tracker) == 0
    assert tracker.summary()["started"] == 3


def test_metrics_span_api_and_snapshot_accounting():
    m = Metrics(enabled=True, clock=ticking_clock())
    with m.span("cm") as outer:
        inner = m.begin_span("explicit", parent=outer, k=1)
        m.end_span(inner)
    m.end_span(None)        # inert
    m.end_span(NULL_SPAN)   # inert
    snap = m.snapshot()
    assert snap["spans"] == {"started": 2, "retained": 2, "open": 0,
                             "dropped": 0}
    assert m.spans.find("explicit").attrs == {"k": 1}


# ---------------------------------------------------------------------------
# ConvergenceMonitor (the Section 3.3 analyses as a series)
# ---------------------------------------------------------------------------


def test_convergence_point_math():
    m = Metrics(enabled=True, clock=ticking_clock())
    mon = ConvergenceMonitor(m)
    p = mon.observe_iteration(iteration=1, produced=100, consumed=60,
                              lag=40, records=20, units=10.0)
    p.decision = "iterate"
    assert p.units_per_record == pytest.approx(0.5)
    assert p.est_remaining_units == pytest.approx(20.0)
    # Idle iteration: no records -> no cost estimate, not a ZeroDivision.
    q = mon.observe_iteration(iteration=2, produced=100, consumed=60,
                              lag=40, records=0, units=0.0)
    assert q.units_per_record == 0.0 and q.est_remaining_units == 0.0
    assert mon.latest is q and len(mon) == 2
    series = mon.series()
    assert [pt["iteration"] for pt in series] == [1, 2]
    assert series[0]["decision"] == "iterate"


def test_convergence_starvation_signal():
    m = Metrics(enabled=True, clock=ticking_clock())
    mon = ConvergenceMonitor(m)

    def point(i, lag):
        mon.observe_iteration(iteration=i, produced=0, consumed=0, lag=lag,
                              records=1, units=1.0)

    point(1, 10)
    assert not mon.starving()          # not enough history
    point(2, 12)
    point(3, 15)
    assert mon.starving(patience=3)    # non-decreasing, non-zero tail
    point(4, 3)
    assert not mon.starving(patience=3)
    point(5, 0)
    point(6, 0)
    point(7, 0)
    assert not mon.starving(patience=3)  # lag 0 is converged, not starved
    with pytest.raises(ValueError):
        mon.starving(patience=0)


def test_convergence_capacity_drops_oldest():
    m = Metrics(enabled=True, clock=ticking_clock())
    mon = ConvergenceMonitor(m)
    last = ConvergenceMonitor.CAPACITY + 2
    for i in range(1, last + 1):
        mon.observe_iteration(iteration=i, produced=i, consumed=i, lag=0,
                              records=1, units=1.0)
    assert mon.dropped == 2
    assert [p.iteration for p in mon.points] == list(range(3, last + 1))


# ---------------------------------------------------------------------------
# Gauges
# ---------------------------------------------------------------------------


def test_gauge_series_and_bound():
    g = Gauge("g")
    n = Gauge.SERIES_CAP + 2
    for i in range(n):
        g.set(float(i), t=float(i * 10))
    assert g.value == n - 1.0
    assert g.series() == [{"t": i * 10.0, "value": float(i)}
                          for i in range(2, n)]     # oldest dropped
    assert g.as_dict()["value"] == n - 1.0


def test_metrics_gauge_uses_registry_clock():
    m = Metrics(enabled=True, clock=ticking_clock(step=2.0, start=10.0))
    m.set_gauge("depth", 5.0)
    m.set_gauge("depth", 7.0)
    snap = m.snapshot()["gauges"]["depth"]
    assert snap["value"] == 7.0
    assert [p["t"] for p in snap["series"]] == [10.0, 12.0]


# ---------------------------------------------------------------------------
# Histogram boundaries (p99 and the empty sentinel)
# ---------------------------------------------------------------------------


def test_histogram_empty_percentiles_are_zero():
    h = Histogram("empty")
    for pct in (0, 50, 99, 99.9, 100):
        assert h.percentile(pct) == 0.0
    assert h.p999 == 0.0
    d = h.as_dict()
    assert d == {"count": 0, "total": 0.0, "mean": 0.0, "min": 0.0,
                 "max": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
                 "p999": 0.0}


def test_histogram_p999():
    h = Histogram("hist")
    for v in range(1, 1001):
        h.observe(float(v))
    d = h.as_dict()
    # p999 sits between p99 and the max, and equals the property.
    assert d["p99"] <= d["p999"] <= d["max"]
    assert d["p999"] == h.p999 == h.percentile(99.9)


def test_span_tracker_dropped_counter_accumulates():
    clock = ticking_clock()
    tracker = SpanTracker(clock)
    cap = SpanTracker.CAPACITY
    for i in range(cap + 3):
        tracker.end(tracker.begin(f"s{i}"))
    summary = tracker.summary()
    assert summary["started"] == cap + 3
    assert summary["retained"] == cap
    assert summary["dropped"] == 3  # earliest-kept: silently shed spans
    assert summary["open"] == 0


def test_histogram_p99_in_summary():
    h = Histogram("h")
    for v in range(1, 101):
        h.observe(float(v))
    d = h.summary()
    assert d["p99"] == pytest.approx(h.percentile(99))
    assert 98.0 <= d["p99"] <= 100.0
    assert d["p50"] <= d["p95"] <= d["p99"] <= d["max"]


def test_histogram_single_sample_percentiles_collapse():
    h = Histogram("one")
    h.observe(42.0)
    d = h.as_dict()
    assert d["p50"] == d["p95"] == d["p99"] == 42.0
    assert d["min"] == d["max"] == 42.0


# ---------------------------------------------------------------------------
# EventRing dropped accounting
# ---------------------------------------------------------------------------


def test_event_ring_dropped_counter():
    ring = EventRing()
    assert ring.dropped == 0
    n = EventRing.CAPACITY + 2
    for i in range(n):
        ring.append(TraceEvent(ts=float(i), kind="k", fields={"i": i}))
    assert ring.appended == n
    assert ring.dropped == 2
    assert len(ring) == EventRing.CAPACITY


def test_event_ring_dropped_reaches_snapshot():
    m = Metrics(enabled=True, clock=ticking_clock())
    n = EventRing.CAPACITY + 3
    for i in range(n):
        m.trace("evt", i=i)
    trace = m.snapshot()["trace"]
    assert trace == {"retained": EventRing.CAPACITY, "appended": n,
                     "dropped": 3}


# ---------------------------------------------------------------------------
# Simulator MetricsCollector: origin-normalized bucket series
# ---------------------------------------------------------------------------


def test_collector_buckets_anchor_to_shared_clock():
    # A collector created mid-run on a shared clock sees the same bucket
    # indices as one created at t=0 sees for the same offsets.
    m = Metrics(enabled=True, clock=ticking_clock(step=0.0, start=1000.0))
    collector = MetricsCollector(bucket_ms=10.0, clock=m.now)
    assert collector.origin == 1000.0
    collector.record_txn(1000.0, 1005.0)   # offset 5 -> bucket 0
    collector.record_txn(1010.0, 1012.0)   # offset 12 -> bucket 1
    series = collector.series()
    assert [p["t"] for p in series] == [0.0, 10.0]
    assert [p["committed"] for p in series] == [1, 1]
    assert series[0]["mean_response"] == pytest.approx(5.0)


def test_collector_without_clock_uses_epoch_origin():
    collector = MetricsCollector(bucket_ms=10.0)
    assert collector.origin == 0.0
    collector.record_txn(0.0, 25.0)
    assert [p["t"] for p in collector.series()] == [20.0]


def test_collector_series_disabled_without_bucket():
    collector = MetricsCollector()
    collector.record_txn(0.0, 1.0)
    assert collector.series() == []
