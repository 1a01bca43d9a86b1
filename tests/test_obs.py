"""Tests for the observability layer (:mod:`repro.obs`) and its wiring
through the engine, WAL, lock manager and transformation pipeline."""

import pytest

from repro.api import TransformOptions
from repro import (
    NULL_METRICS,
    Database,
    Metrics,
    Phase,
    Session,
    SplitTransformation,
    SyncStrategy,
    TableSchema,
    bulk_load,
)
from repro.common.errors import LockWaitError
from repro.obs import Counter, EventRing, Histogram, TraceEvent

from tests.conftest import load_split_data, split_spec


# ---------------------------------------------------------------------------
# Core primitives
# ---------------------------------------------------------------------------


def test_counter_increments():
    c = Counter("x")
    c.inc()
    c.inc(3)
    assert c.value == 4


def test_histogram_statistics():
    h = Histogram("h")
    for v in (1.0, 2.0, 3.0, 4.0):
        h.observe(v)
    assert h.count == 4
    assert h.total == 10.0
    assert h.min == 1.0 and h.max == 4.0
    assert h.mean == 2.5
    assert h.percentile(0) == 1.0
    assert h.percentile(100) == 4.0
    d = h.as_dict()
    assert d["count"] == 4 and d["p50"] == pytest.approx(h.percentile(50))


def test_histogram_sample_cap_keeps_exact_aggregates():
    h = Histogram("h")
    n = Histogram.SAMPLE_CAP + 100
    for v in range(n):
        h.observe(float(v))
    assert h.count == n             # exact, despite bounded samples
    assert h.max == n - 1.0
    assert h.percentile(0) == 100.0  # only the tail retained for percentiles


def test_event_ring_bounded():
    ring = EventRing()
    n = EventRing.CAPACITY + 2
    for i in range(n):
        ring.append(TraceEvent(ts=float(i), kind="k", fields={"i": i}))
    assert ring.appended == n
    assert [e.fields["i"] for e in ring.events()] == list(range(2, n))


def test_metrics_counters_histograms_and_trace():
    m = Metrics(enabled=True, clock=lambda: 42.0)
    m.inc("a")
    m.inc("a", 2)
    m.observe("lat", 1.5)
    m.trace("evt", table="T")
    assert m.counter_value("a") == 3
    assert m.counter_value("missing") == 0
    events = m.events("evt")
    assert len(events) == 1
    assert events[0].ts == 42.0 and events[0].fields == {"table": "T"}
    snap = m.snapshot()
    assert snap["counters"]["a"] == 3
    assert snap["histograms"]["lat"]["count"] == 1
    assert snap["trace"]["appended"] == 1
    m.reset()
    assert m.counter_value("a") == 0
    assert m.events() == []


def test_null_metrics_is_inert():
    NULL_METRICS.inc("a", 5)
    NULL_METRICS.observe("h", 1.0)
    NULL_METRICS.trace("evt", x=1)
    assert NULL_METRICS.counter_value("a") == 0
    assert NULL_METRICS.snapshot()["counters"] == {}
    assert NULL_METRICS.now() == 0.0
    with pytest.raises(ValueError):
        NULL_METRICS.enabled = True


def test_disabled_metrics_record_nothing():
    m = Metrics(enabled=False)
    m.inc("a")
    m.observe("h", 1.0)
    m.trace("evt")
    m.set_gauge("g", 1.0)
    with m.span("s"):
        pass
    snap = m.snapshot()
    assert snap["counters"] == {} and snap["histograms"] == {}
    assert snap["gauges"] == {}
    assert snap["trace"] == {"retained": 0, "appended": 0, "dropped": 0}
    assert snap["spans"] == {"started": 0, "retained": 0, "open": 0,
                             "dropped": 0}


# ---------------------------------------------------------------------------
# Engine wiring
# ---------------------------------------------------------------------------


def _small_db(metrics=None, n=10):
    db = Database(metrics=metrics)
    db.create_table(TableSchema("T", ["id", "name", "zip", "city"],
                                primary_key=["id"]))
    bulk_load(db, "T", [{"id": i, "name": f"n{i}", "zip": 7000 + i % 3,
                         "city": f"C{7000 + i % 3}"} for i in range(n)])
    return db


def test_database_default_metrics_is_null():
    db = Database()
    assert db.metrics is NULL_METRICS
    assert db.log.metrics is NULL_METRICS
    assert db.locks.metrics is NULL_METRICS


def test_wal_appends_counted():
    m = Metrics(enabled=True)
    db = _small_db(metrics=m)
    before = m.counter_value("wal.appends")
    with Session(db) as s:
        s.update("T", (1,), {"name": "x"})
    # begin + update + commit at minimum.
    assert m.counter_value("wal.appends") >= before + 3


def test_lock_waits_counted():
    m = Metrics(enabled=True)
    db = _small_db(metrics=m)
    holder = db.begin()
    db.update(holder, "T", (1,), {"name": "held"})
    waiter = db.begin()
    with pytest.raises(LockWaitError):
        db.update(waiter, "T", (1,), {"name": "blocked"})
    db.abort(waiter)
    db.commit(holder)
    assert m.counter_value("lock.waits") >= 1


def test_latch_hold_time_observed():
    ticks = iter(range(100))
    m = Metrics(enabled=True, clock=lambda: float(next(ticks)))
    db = _small_db(metrics=m)
    table = db.table("T")
    db.latch_table(table, "tf-1")
    db.unlatch_table(table, "tf-1")
    assert m.counter_value("latch.acquired") == 1
    assert m.counter_value("latch.released") == 1
    snap = m.snapshot()
    hold = snap["histograms"]["latch.hold_time"]
    assert hold["count"] == 1 and hold["max"] >= 1.0
    kinds = {e.kind for e in m.events()}
    assert "latch.acquire" in kinds and "latch.release" in kinds


def test_attach_metrics_switches_registry():
    db = _small_db()           # built without observability
    m = Metrics(enabled=True)
    db.attach_metrics(m)
    assert db.metrics is m and db.log.metrics is m and db.locks.metrics is m
    with Session(db) as s:
        s.update("T", (2,), {"name": "seen"})
    assert m.counter_value("wal.appends") >= 3


# ---------------------------------------------------------------------------
# Transformation pipeline wiring
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("strategy", list(SyncStrategy))
def test_transformation_metrics_per_strategy(strategy):
    m = Metrics(enabled=True)
    db = _small_db(metrics=m, n=30)
    spec = split_spec(db)
    if strategy is SyncStrategy.VERSION_FLIP:
        tf = SplitTransformation(db, spec, options=TransformOptions(
            sync=strategy, storage="mvcc"))
    else:
        tf = SplitTransformation(db, spec, options=TransformOptions(sync=strategy))
    tf.run()
    assert tf.done
    assert m.counter_value("tf.steps") > 0
    assert m.counter_value("tf.units." + Phase.POPULATING.value) > 0
    assert m.counter_value("tf.iterations") == tf.stats["iterations"]
    snap = m.snapshot()
    if strategy is SyncStrategy.VERSION_FLIP:
        # The version flip has no latched window at all: nothing is
        # reported, which is the whole point of the ablation.
        assert "sync.latched_window" not in snap["histograms"]
        assert tf.stats["sync_latch_units"] == 0
        assert m.counter_value("sync.latched_units") == 0
        assert not any(e.kind == "sync.window.open" for e in m.events())
    else:
        # The latched window behind the paper's "< 1 ms" claim is
        # reported exactly once, matching the stats the benchmarks read.
        window = snap["histograms"]["sync.latched_window"]
        assert window["count"] == 1
        assert window["total"] == pytest.approx(tf.stats["sync_latch_units"])
        assert m.counter_value("sync.latched_units") == \
            pytest.approx(tf.stats["sync_latch_units"])
        assert any(e.kind == "sync.window.open" for e in m.events())
        assert any(e.kind == "sync.window.close" for e in m.events())
    # Phase transitions and iteration reports were traced.
    assert any(e.kind == "tf.phase" for e in m.events())
    assert any(e.kind == "tf.iteration" for e in m.events())


def test_transformation_runs_clean_without_metrics(split_db):
    load_split_data(split_db, n=20)
    tf = SplitTransformation(split_db, split_spec(split_db))
    tf.run()
    assert tf.done
    assert split_db.metrics is NULL_METRICS


# ---------------------------------------------------------------------------
# Harness structured output
# ---------------------------------------------------------------------------


def test_observability_smoke_payload_shape():
    from benchmarks.harness import observability_smoke
    payload = observability_smoke(rows=60, out_name=None)
    # The smoke covers the paper's three strategies; the post-paper
    # version flip is exercised by benchmarks/bench_mvcc_ablation.py.
    assert set(payload["strategies"]) == {
        "blocking_commit", "nonblocking_abort", "nonblocking_commit"}
    for data in payload["strategies"].values():
        assert data["propagation_iterations"] >= 1
        assert data["wal_appends"] > 0
        assert data["lock_waits"] >= 1
        assert data["latched_window_units"] >= 0
        assert data["metrics"]["counters"]["tf.steps"] > 0
