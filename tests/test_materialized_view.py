"""Tests for non-blocking materialized-view construction (§7 extension)."""

import pytest

from repro import (
    Database,
    MaterializedFojView,
    Phase,
    Session,
    TableSchema,
    restart,
)
from repro.common.errors import (
    RecoveryError,
    SimulatedCrashError,
    TransformationAbortedError,
    TransformationError,
    TransformationStateError,
)
from repro.faults import AbortFault, CrashFault, FaultInjector, FaultPlan
from repro.relational import full_outer_join, rows_equal

from tests.conftest import foj_spec, load_foj_data, values_of
from tests.model import check_model, seeded
from repro.api import Metrics, TransformOptions


def build(seed=1, n_r=15, n_s=6):
    db = Database()
    db.create_table(TableSchema("R", ["a", "b", "c"], primary_key=["a"]))
    db.create_table(TableSchema("S", ["c", "d", "e"], primary_key=["c"]))
    load_foj_data(db, n_r=n_r, n_s=n_s, seed=seed)
    spec = foj_spec(db, target="v")
    return db, spec


def oracle(db, spec):
    return full_outer_join(spec, values_of(db, "R"), values_of(db, "S"))


def test_publish_keeps_sources(foj_db):
    load_foj_data(foj_db)
    spec = foj_spec(foj_db, target="v")
    view = MaterializedFojView(foj_db, spec)
    view.run()
    assert view.published
    assert sorted(foj_db.catalog.table_names()) == ["R", "S", "v"]
    assert rows_equal(values_of(foj_db, "v"), oracle(foj_db, spec))


def test_no_transactions_are_doomed(foj_db):
    load_foj_data(foj_db)
    old = foj_db.begin()
    foj_db.read(old, "R", (1,))
    view = MaterializedFojView(foj_db, foj_spec(foj_db, target="v"))
    view.run()
    assert old.is_active  # publication aborts nobody
    foj_db.commit(old)


def test_deferred_maintenance_converges():
    db, spec = build()
    view = MaterializedFojView(db, spec)
    view.run()
    with Session(db) as s:
        s.update("R", (0,), {"c": 3})
        s.delete("S", (db.table("S").select()[0].values["c"],))
        s.insert("R", {"a": 777, "b": "new", "c": 1})
    assert view.staleness > 0
    view.refresh()
    assert view.staleness == 0
    assert rows_equal(values_of(db, "v"), oracle(db, spec))


def test_maintain_requires_publication():
    db, spec = build()
    view = MaterializedFojView(db, spec)
    with pytest.raises(TransformationStateError):
        view.maintain()


def test_view_survives_restart_via_rebuild():
    db, spec = build()
    MaterializedFojView(db, spec).run()
    with Session(db) as s:
        s.update("R", (2,), {"b": "post-publish"})
    recovered = restart(db.log)
    assert rows_equal(values_of(recovered, "v"),
                      oracle(recovered, spec))


def test_drop_removes_view_only():
    db, spec = build()
    view = MaterializedFojView(db, spec)
    view.run()
    view.drop()
    assert sorted(db.catalog.table_names()) == ["R", "S"]
    view.drop()  # idempotent


def test_drop_logs_a_retire_record():
    db, spec = build()
    view = MaterializedFojView(db, spec)
    view.run()
    view.drop()
    retires = [r for r in db.log.scan() if r.kind == "transformretire"]
    assert len(retires) == 1
    view.drop()  # idempotent: no second record
    assert len([r for r in db.log.scan()
                if r.kind == "transformretire"]) == 1


def test_drop_before_publication_logs_nothing():
    db, spec = build()
    view = MaterializedFojView(db, spec)
    view.step(4)  # not yet published
    view.drop()
    assert all(r.kind != "transformretire" for r in db.log.scan())


def test_drop_inside_the_latched_window_releases_the_latches():
    """Regression: an unpublished drop set ABORTED without aborting, so a
    drop between the latch and the swap left R and S latched and the
    next writer waited forever."""
    db, spec = build()
    view = MaterializedFojView(db, spec)
    while view.phase is not Phase.SYNCHRONIZING:
        view.step(64)
    view.step(64)  # takes the latches
    assert view.sync_urgent and db.locks._latches
    view.drop()
    assert view.phase is Phase.ABORTED
    assert not db.locks._latches
    assert sorted(db.catalog.table_names()) == ["R", "S"]
    with Session(db) as s:
        s.insert("R", {"a": 999, "b": "after-drop", "c": None})


def test_drop_during_population_releases_the_snapshot():
    """Regression: under MVCC an unpublished drop kept the population
    snapshot pinned, holding back version GC for good."""
    db, spec = build()
    view = MaterializedFojView(db, spec,
                               options=TransformOptions(storage="mvcc"))
    view.step(1)
    assert view.phase is Phase.POPULATING
    assert db.mvcc.watermark() is not None
    view.drop()
    assert db.mvcc.watermark() is None


def test_dropped_view_stays_dropped_across_restart():
    """Regression: restart used to replay the swap record unconditionally,
    resurrecting a dropped view -- and its recovery propagator then
    crashed on post-drop source changes it was never built to see (an S
    insert with a NULL join value).  The retire record must unpublish the
    rebuilt view and feed its propagator nothing after it."""
    db, spec = build(seed=1, n_r=15, n_s=6)
    view = MaterializedFojView(db, spec)
    view.run()
    view.drop()
    with Session(db) as s:
        s.insert("S", {"c": None, "d": "post-drop", "e": "x"})
        s.update("R", (3,), {"b": "post-drop"})
    recovered = restart(db.log)  # crash after the drop
    assert sorted(recovered.catalog.table_names()) == ["R", "S"]
    s_rows = values_of(recovered, "S")
    assert any(r["d"] == "post-drop" for r in s_rows)
    r_rows = values_of(recovered, "R")
    assert next(r for r in r_rows if r["a"] == 3)["b"] == "post-drop"


def test_view_dropped_after_a_refused_write_restarts():
    """A deferred view's rules refuse an S insert with a NULL join value
    that commits while the view is published; the view is then dropped.
    Redo feeds that insert to the view rebuilt at its swap: the refusal
    fails only that engine, and the retire record discards it."""
    db, spec = build(seed=1, n_r=15, n_s=6)
    view = MaterializedFojView(db, spec)
    view.run()
    with Session(db) as s:
        s.insert("S", {"c": None, "d": "pre-drop", "e": "x"})
    with pytest.raises(TransformationError):
        view.maintain()
    view.drop()
    recovered = restart(db.log)
    assert sorted(recovered.catalog.table_names()) == ["R", "S"]
    assert recovered.catalog.swaps() == {}
    assert any(r["d"] == "pre-drop" for r in values_of(recovered, "S"))


def test_refused_write_on_a_view_in_effect_fails_restart():
    """The same refused write on a view that is never dropped leaves a
    swap restart cannot rebuild: it raises instead of publishing a view
    that misses a committed change."""
    db, spec = build(seed=1, n_r=15, n_s=6)
    MaterializedFojView(db, spec).run()
    with Session(db) as s:
        s.insert("S", {"c": None, "d": "pre-drop", "e": "x"})
    with pytest.raises(RecoveryError, match="refused a logged change"):
        restart(db.log)


def test_restart_rebuilds_only_undropped_views():
    """Two published views, one dropped: recovery rebuilds exactly the
    surviving one, to the oracle join of the recovered sources."""
    db, spec = build()
    keep_spec = foj_spec(db, target="v_keep")
    dropped = MaterializedFojView(db, spec)
    dropped.run()
    kept = MaterializedFojView(db, keep_spec)
    kept.run()
    assert sorted(db.catalog.table_names()) == ["R", "S", "v", "v_keep"]
    dropped.drop()
    with Session(db) as s:
        s.update("R", (1,), {"b": "after-drop"})
    recovered = restart(db.log)
    assert sorted(recovered.catalog.table_names()) == ["R", "S", "v_keep"]
    assert rows_equal(
        values_of(recovered, "v_keep"),
        full_outer_join(keep_spec, values_of(recovered, "R"),
                        values_of(recovered, "S")))


def test_sync_latch_is_brief():
    db, spec = build(n_r=40, n_s=15)
    metrics = Metrics()
    view = MaterializedFojView(db, spec,
                               options=TransformOptions(metrics=metrics))
    view.run()
    assert 0 < view.stats["sync_latch_units"] < 50
    # Accounted like every other strategy's window (_note_latched).
    assert metrics.counter_value("sync.latched_units") == \
        view.stats["sync_latch_units"]


def test_failed_publication_releases_the_source_latches():
    """A failure inside the latched window must not leave R and S
    latched until somebody calls abort(): the view's synchronization
    shares the exception-safe step of the other strategies."""
    db, spec = build()
    db.attach_faults(FaultInjector(
        FaultPlan().arm("sync.final_propagation", AbortFault())))
    view = MaterializedFojView(db, spec)
    with pytest.raises(TransformationAbortedError):
        view.run()
    assert [db.locks.is_latched(db.table(name).uid)
            for name in ("R", "S")] == [False, False]
    with Session(db) as s:
        s.update("R", (1,), {"b": "still-writable"})


def test_view_synchronization_enters_through_the_framework():
    """Regression: the view skipped ``tf.sync.enter`` and the
    ``tf.sync.start`` event by building its executor itself."""
    db, spec = build()
    metrics = Metrics()
    MaterializedFojView(db, spec,
                        options=TransformOptions(metrics=metrics)).run()
    assert len(metrics.events("tf.sync.start")) == 1
    db, spec = build()
    db.attach_faults(FaultInjector(FaultPlan().arm("tf.sync.enter",
                                                   CrashFault())))
    with pytest.raises(SimulatedCrashError):
        MaterializedFojView(db, spec).run()


@pytest.mark.parametrize("seed", range(6))
def test_interleaved_build_and_maintenance(seed):
    """Writes beside the build, then beside budgeted maintenance."""
    check_model(seeded("foj", seed, view=True, max_remaining=64))


