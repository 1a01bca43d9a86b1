"""Tests for ARIES restart recovery, including transformation swaps."""

import pytest

from repro import (
    Database,
    FojSpec,
    FojTransformation,
    Session,
    SplitTransformation,
    TableSchema,
    restart,
)
from repro.common.errors import RecoveryError, TransformationStateError
from repro.relational import full_outer_join, rows_equal, split
from repro.wal.records import TransformSwapRecord

from tests.conftest import (
    foj_spec,
    load_foj_data,
    load_split_data,
    split_spec,
    values_of,
)


def make_db() -> Database:
    db = Database()
    db.create_table(TableSchema("t", ["id", "x"], primary_key=["id"]))
    return db


def test_restart_empty_log():
    db = Database()
    recovered = restart(db.log)
    assert recovered.catalog.table_names() == []


def test_committed_work_survives():
    db = make_db()
    with Session(db) as s:
        for i in range(5):
            s.insert("t", {"id": i, "x": i * 10})
        s.update("t", (2,), {"x": "upd"})
        s.delete("t", (4,))
    recovered = restart(db.log)
    assert rows_equal(values_of(recovered, "t"), values_of(db, "t"))


def test_losers_are_rolled_back():
    db = make_db()
    with Session(db) as s:
        s.insert("t", {"id": 1, "x": "keep"})
    loser = db.begin()
    db.insert(loser, "t", {"id": 2})
    db.update(loser, "t", (1,), {"x": "dirty"})
    # crash: no commit/abort for `loser`
    recovered = restart(db.log)
    assert values_of(recovered, "t") == [{"id": 1, "x": "keep"}]
    # The undo produced CLRs + an end record in the shared log.
    kinds = [r.kind for r in db.log.scan()]
    assert "cl" in kinds and kinds[-1] == "end"


def test_restart_is_idempotent():
    """Restarting again (the log now contains recovery's CLRs) gives the
    same state: CLRs are redo-only and losers are now finished."""
    db = make_db()
    loser = db.begin()
    db.insert(loser, "t", {"id": 2})
    first = restart(db.log)
    second = restart(db.log)
    assert rows_equal(values_of(first, "t"), values_of(second, "t"))


def test_rollback_of_loser_with_clrs_already_logged():
    """A transaction that had partially rolled back before the crash is
    not compensated twice (undo_next_lsn skips)."""
    db = make_db()
    txn = db.begin()
    db.insert(txn, "t", {"id": 1, "x": "a"})
    db.update(txn, "t", (1,), {"x": "b"})
    db.abort(txn)  # full rollback with CLRs, then "crash" after
    recovered = restart(db.log)
    assert values_of(recovered, "t") == []


def test_ddl_replayed():
    db = make_db()
    db.create_table(TableSchema("u", ["id"], primary_key=["id"]))
    db.rename_table("u", "v")
    db.drop_table("v")
    recovered = restart(db.log)
    assert recovered.catalog.table_names() == ["t"]


def test_transient_tables_discarded():
    db = make_db()
    db.create_table(TableSchema("tmp", ["id"], primary_key=["id"]),
                    transient=True)
    recovered = restart(db.log)
    assert recovered.catalog.table_names() == ["t"]


def test_txn_id_sequence_resumes():
    db = make_db()
    with Session(db) as s:
        s.insert("t", {"id": 1})
    highest = max(r.txn_id for r in db.log.scan())
    recovered = restart(db.log)
    txn = recovered.begin()
    assert txn.txn_id > highest


def test_foj_swap_rebuilt_from_sources(foj_db):
    load_foj_data(foj_db, n_r=15, n_s=6)
    spec = foj_spec(foj_db)
    r_rows = values_of(foj_db, "R")
    s_rows = values_of(foj_db, "S")
    FojTransformation(foj_db, spec).run()
    recovered = restart(foj_db.log)
    assert recovered.catalog.table_names() == ["T"]
    expected = full_outer_join(spec, r_rows, s_rows)
    assert rows_equal(values_of(recovered, "T"), expected)


def test_split_swap_rebuilt_from_source(split_db):
    load_split_data(split_db, n=15)
    spec = split_spec(split_db)
    t_rows = values_of(split_db, "T")
    SplitTransformation(split_db, spec).run()
    recovered = restart(split_db.log)
    assert set(recovered.catalog.table_names()) == {"T_r", "postal"}
    r_rows, s_rows, counters, _ = split(spec, t_rows)
    assert rows_equal(values_of(recovered, "T_r"), r_rows)
    assert rows_equal(values_of(recovered, "postal"), s_rows)
    # Counters are rebuilt too.
    got = {recovered.table("postal").schema.key_of(r.values):
           r.meta["counter"]
           for r in recovered.table("postal").scan()}
    assert got == counters


def test_post_crash_work_continues_on_recovered_db(foj_db):
    load_foj_data(foj_db, n_r=8, n_s=4)
    spec = foj_spec(foj_db)
    FojTransformation(foj_db, spec).run()
    recovered = restart(foj_db.log)
    with Session(recovered) as s:
        s.update("T", (0,), {"b": "after-crash"})
    assert recovered.table("T").get((0,)).values["b"] == "after-crash"


def test_unknown_swap_kind_raises():
    db = make_db()
    db.log.append(TransformSwapRecord(transform_id="x",
                                      transform_kind="bogus",
                                      retired=("t",), published={},
                                      params={}))
    with pytest.raises(RecoveryError):
        restart(db.log)


def test_loser_on_zombie_source_undone_and_propagated(foj_db):
    """Crash during the background phase of a non-blocking-commit sync:
    the old transaction is a loser; its rollback must reach the published
    table through the recovery propagator."""
    from repro import SyncStrategy
    load_foj_data(foj_db, n_r=10, n_s=5)
    spec = foj_spec(foj_db)
    old = foj_db.begin()
    foj_db.update(old, "R", (0,), {"b": "old-txn-dirty"})
    tf = FojTransformation(foj_db, spec,
                           options=TransformOptions(sync=SyncStrategy.NONBLOCKING_COMMIT))
    # Drive to the background phase (old txn still alive).
    while tf.phase.value != "background":
        tf.step(4096)
    # Crash here: `old` never commits.
    r_rows = values_of(foj_db, "R")
    recovered = restart(foj_db.log)
    row = recovered.table("T").get((0,))
    assert row.values["b"] != "old-txn-dirty"  # compensation propagated


# ---------------------------------------------------------------------------
# Injected crashes during synchronization (one per strategy, two crash
# points: inside the latched window and just after the swap record)
# ---------------------------------------------------------------------------

from repro import SyncStrategy  # noqa: E402
from repro.common.errors import SimulatedCrashError  # noqa: E402
from repro.faults import (  # noqa: E402
    NULL_FAULTS,
    CrashFault,
    FaultInjector,
    FaultPlan,
)
from repro.api import TransformOptions

SYNC_STRATEGIES = (SyncStrategy.BLOCKING_COMMIT,
                   SyncStrategy.NONBLOCKING_ABORT,
                   SyncStrategy.NONBLOCKING_COMMIT)


def _crash_transformation(db, tf):
    """Drive until the armed crash fault fires; detach the injector from
    the surviving log (the injector dies with the crashed process)."""
    with pytest.raises(SimulatedCrashError):
        for _ in range(100000):
            tf.step(4096)
        raise AssertionError("armed crash fault never fired")
    db.log.faults = NULL_FAULTS


@pytest.mark.parametrize("strategy", SYNC_STRATEGIES,
                         ids=lambda s: s.value)
def test_crash_inside_latched_window_discards_transformation(
        foj_db, strategy):
    """A kill during the final propagation (sources latched, swap record
    not yet written) recovers to the untransformed schema: sources intact,
    transient targets gone (Section 6)."""
    load_foj_data(foj_db, n_r=10, n_s=5)
    r_before = values_of(foj_db, "R")
    s_before = values_of(foj_db, "S")
    foj_db.attach_faults(FaultInjector(
        FaultPlan().arm("sync.final_propagation", CrashFault())))
    tf = FojTransformation(foj_db, foj_spec(foj_db),
                           options=TransformOptions(sync=strategy))
    _crash_transformation(foj_db, tf)
    assert not any(isinstance(r, TransformSwapRecord)
                   for r in foj_db.log.scan())
    recovered = restart(foj_db.log)
    assert sorted(recovered.catalog.table_names()) == ["R", "S"]
    assert rows_equal(values_of(recovered, "R"), r_before)
    assert rows_equal(values_of(recovered, "S"), s_before)
    assert not recovered.catalog.zombie_names()
    assert not recovered.locks._latches
    # The recovered database can run the transformation again, fault-free.
    FojTransformation(recovered, foj_spec(recovered),
                      options=TransformOptions(sync=strategy)).run(budget=4096)
    assert rows_equal(values_of(recovered, "T"),
                      full_outer_join(foj_spec(foj_db), r_before, s_before))


@pytest.mark.parametrize("strategy", SYNC_STRATEGIES,
                         ids=lambda s: s.value)
def test_crash_just_after_swap_record_rebuilds_target(foj_db, strategy):
    """A kill right after the TransformSwapRecord hits the log -- before
    the in-memory catalog swap even ran -- must recover to the *new*
    schema, with T recomputed from the recovered sources."""
    load_foj_data(foj_db, n_r=10, n_s=5)
    spec = foj_spec(foj_db)
    expected = full_outer_join(spec, values_of(foj_db, "R"),
                               values_of(foj_db, "S"))
    foj_db.attach_faults(FaultInjector(
        FaultPlan().arm("sync.swap.logged", CrashFault())))
    tf = FojTransformation(foj_db, spec, options=TransformOptions(sync=strategy))
    _crash_transformation(foj_db, tf)
    assert any(isinstance(r, TransformSwapRecord)
               for r in foj_db.log.scan())
    recovered = restart(foj_db.log)
    assert recovered.catalog.table_names() == ["T"]
    assert rows_equal(values_of(recovered, "T"), expected)
    assert not recovered.catalog.zombie_names()
    # The published table accepts new work immediately.
    with Session(recovered) as s:
        s.insert("T", {"a": 900, "b": "post", "c": 900})
    assert recovered.table("T").get((900,)) is not None


def test_crash_after_swap_with_doomed_txn_compensates(foj_db):
    """Non-blocking abort: the swap record dooms a still-active old
    transaction; a crash before its forced rollback finishes must leave a
    recovered T with that transaction compensated away."""
    load_foj_data(foj_db, n_r=10, n_s=5)
    spec = foj_spec(foj_db)
    expected = full_outer_join(spec, values_of(foj_db, "R"),
                               values_of(foj_db, "S"))
    old = foj_db.begin()
    foj_db.update(old, "R", (1,), {"b": "doomed-dirty"})
    foj_db.attach_faults(FaultInjector(
        FaultPlan().arm("sync.swap.logged", CrashFault())))
    tf = FojTransformation(foj_db, spec,
                           options=TransformOptions(sync=SyncStrategy.NONBLOCKING_ABORT))
    _crash_transformation(foj_db, tf)
    recovered = restart(foj_db.log)
    # The doomed transaction never committed: its update is compensated
    # out of the rebuilt T (expected was computed before the update).
    assert rows_equal(values_of(recovered, "T"), expected)
    assert not recovered.txns.active_txns()


# ---------------------------------------------------------------------------
# Redo dispatch: a type-keyed table must not skip a record kind silently
# ---------------------------------------------------------------------------

import random  # noqa: E402

from repro import MaterializedFojView, Phase  # noqa: E402
from repro.engine.recovery import (  # noqa: E402
    REDO_HANDLERS,
    restart_from_disk,
)
from repro.wal import (  # noqa: E402
    AbortRecord,
    BeginRecord,
    CatalogFlipRecord,
    CCBeginRecord,
    CCOkRecord,
    CheckpointRecord,
    CLRecord,
    CommitRecord,
    CreateTableRecord,
    EndRecord,
    FuzzyMarkRecord,
    LogManager,
    RenameTableRecord,
    SimulatedDisk,
    TransformRetireRecord,
    encode_record,
)
from repro.wal.frames import RECORD_CODES  # noqa: E402

#: Record classes redo has nothing to reapply for: transaction life-cycle
#: (analysis reads those), framework marks, and the flip the swap replay
#: already accounts for.
REDO_NEUTRAL = {
    BeginRecord, CommitRecord, AbortRecord, EndRecord, FuzzyMarkRecord,
    CCBeginRecord, CCOkRecord, CheckpointRecord, CatalogFlipRecord}


def test_redo_dispatch_is_exhaustive():
    """Every framed record class either has a redo handler or is declared
    redo-neutral here; nothing is both, and nothing unknown is listed.  A
    new record kind therefore cannot be skipped by the type-keyed redo
    table without someone writing down that skipping it is right."""
    handled = set(REDO_HANDLERS)
    assert not handled & REDO_NEUTRAL
    assert handled | REDO_NEUTRAL == set(RECORD_CODES), (
        "a new record kind needs a handler in repro.engine.recovery."
        "REDO_HANDLERS or an entry in REDO_NEUTRAL above")


def _eventful_history(seed):
    """The live database behind :func:`_eventful_crash_image`, its disk,
    and the winner's and the loser's transactions."""
    rng = random.Random(seed)
    disk = SimulatedDisk()
    db = Database(log=LogManager(disk=disk))
    db.create_table(TableSchema("R0", ["a", "b", "c"], primary_key=["a"]))
    db.create_table(TableSchema("S", ["c", "d", "e"], primary_key=["c"]))
    db.rename_table("R0", "R")
    load_foj_data(db, n_r=12, n_s=5, seed=seed)
    view = MaterializedFojView(db, foj_spec(db, target="v"))
    view.run()
    view.drop()                        # retired swap
    rolled_back = db.begin()           # CLRs already in the log
    db.update(rolled_back, "R", (rng.randrange(12),), {"b": "undone"})
    db.insert(rolled_back, "R", {"a": 100, "b": "undone", "c": 1})
    db.abort(rolled_back)
    loser = db.begin()                 # active across the checkpoint
    db.update(loser, "R", (rng.randrange(12),), {"b": "dirty"})
    db.checkpoint()
    db.delete(loser, "R", (rng.randrange(12),))
    tf = FojTransformation(db, foj_spec(db))  # in flight: transient T
    while tf.phase is not Phase.PROPAGATING:
        tf.step(64)
    with Session(db) as s:
        s.insert("S", {"c": 50, "d": "late", "e": "x"})
    winner = db.begin()                # commit record, no end record
    db.insert(winner, "R", {"a": 101, "b": "won", "c": 50})
    db.log.append(CommitRecord(txn_id=winner.txn_id),
                  prev_lsn=winner.last_lsn)
    db.log.flush()
    kinds = {type(r) for r in db.log.scan()}
    assert {CreateTableRecord, RenameTableRecord, CLRecord, CheckpointRecord,
            TransformSwapRecord, TransformRetireRecord} <= kinds
    assert any(r.transient for r in db.log.scan()
               if isinstance(r, CreateTableRecord))
    return db, disk, winner, loser


def _eventful_crash_image(seed):
    """A durable history holding every shape redo dispatches on -- DDL, a
    rename, a transient table, CLRs, a checkpoint, an in-commit winner, a
    loser and a retired swap -- cut by a crash."""
    _, disk, winner, loser = _eventful_history(seed)
    return disk.crash_image(), winner.txn_id, loser.txn_id


def _restart_image(image):
    disk = SimulatedDisk()
    disk.reopen(image)
    db = restart_from_disk(disk)
    salvaged = db.log.salvage.count
    return db, db.log.records_slice(salvaged + 1, db.log.end_lsn)


@pytest.mark.parametrize("seed", [3, 11])
def test_restart_twice_from_one_crash_image_is_identical(seed):
    image, winner, loser = _eventful_crash_image(seed)
    (first, first_tail), (second, second_tail) = \
        _restart_image(image), _restart_image(image)
    # The appended tail: the winner's end record first, then the loser's
    # rollback (CLRs, then its end record).
    assert [type(r) for r in first_tail[:1]] == [EndRecord]
    assert first_tail[0].txn_id == winner
    assert [r.txn_id for r in first_tail[1:]] == \
        [loser] * (len(first_tail) - 1)
    assert any(isinstance(r, CLRecord) for r in first_tail)
    assert isinstance(first_tail[-1], EndRecord)
    assert [encode_record(r) for r in first_tail] == \
        [encode_record(r) for r in second_tail]
    # The recovered schema: sources only -- the dropped view and the
    # in-flight transformation's transient target are both gone.
    assert first.catalog.table_names() == ["R", "S"]
    assert second.catalog.table_names() == ["R", "S"]
    for name in ("R", "S"):
        assert values_of(first, name) == values_of(second, name)
    r_rows = {row["a"]: row for row in values_of(first, "R")}
    assert r_rows[101]["b"] == "won" and 100 not in r_rows
    assert len(r_rows) == 13
    assert not any(row["b"] in ("dirty", "undone") for row in r_rows.values())


# ---------------------------------------------------------------------------
# The catalog's swap registry: rebuilt by redo, retired inside the stream
# ---------------------------------------------------------------------------

import itertools  # noqa: E402

from repro.plan import get_scenario  # noqa: E402
from repro.plan.executor import run_plan  # noqa: E402
from repro.transform import base  # noqa: E402


def test_restart_rebuilds_the_live_swap_registry():
    """The registry restart rebuilds equals the live one: empty for the
    eventful history (its view was built and dropped, its FOJ never
    swapped), both steps for a finished chain."""
    db, disk, _, _ = _eventful_history(3)
    assert db.catalog.swaps() == {}
    recovered, _ = _restart_image(disk.crash_image())
    assert recovered.catalog.swaps() == db.catalog.swaps()
    sc = get_scenario("chain-foj-split")
    db = Database()
    sc.build(db)
    run_plan(db, sc.plan)
    assert sorted(db.catalog.swaps()) == [
        sc.plan.transform_id(step) for step in sc.plan.steps]
    assert restart(db.log).catalog.swaps() == db.catalog.swaps()


def test_restart_retires_a_view_at_its_retire_record():
    """A durable log cut just after a view's retire record: the drop
    logs nothing else (the retire record is its catalog action), so
    restart rebuilds the view at its swap and unpublishes it again at
    the retire record, leaving the sources only and no registry entry.
    Post-drop source writes then run on the recovered database without
    a propagator to feed."""
    disk = SimulatedDisk()
    db = Database(log=LogManager(disk=disk))
    db.create_table(TableSchema("R", ["a", "b", "c"], primary_key=["a"]))
    db.create_table(TableSchema("S", ["c", "d", "e"], primary_key=["c"]))
    load_foj_data(db, n_r=12, n_s=5, seed=5)
    view = MaterializedFojView(db, foj_spec(db, target="v"))
    view.run()
    assert list(db.catalog.swaps()) == [view.transform_id]
    view.drop()
    db.log.flush()
    assert isinstance(db.log.record_at(db.log.end_lsn),
                      TransformRetireRecord)
    recovered, _ = _restart_image(disk.crash_image())
    assert recovered.catalog.table_names() == ["R", "S"]
    assert recovered.catalog.swaps() == {} == db.catalog.swaps()
    with Session(recovered) as s:
        s.insert("S", {"c": None, "d": "post-drop", "e": "x"})
    assert any(row["d"] == "post-drop" for row in values_of(recovered, "S"))


def test_default_ids_skip_the_swaps_of_the_recovered_catalog(monkeypatch):
    """The default id counter restarts with the process.  A view built
    after a restart must not take the id of a view the log already
    holds: the next restart would key both swaps by one id and stop
    feeding the first view its propagator.  An explicit id in effect is
    refused before anything is logged."""
    monkeypatch.setattr(base, "_transform_counter", itertools.count(1))
    db = Database()
    db.create_table(TableSchema("R", ["a", "b", "c"], primary_key=["a"]))
    db.create_table(TableSchema("S", ["c", "d", "e"], primary_key=["c"]))
    load_foj_data(db, n_r=12, n_s=5, seed=5)
    first = MaterializedFojView(db, foj_spec(db, target="v1"))
    first.run()
    recovered = restart(db.log)
    monkeypatch.setattr(base, "_transform_counter", itertools.count(1))
    second = MaterializedFojView(recovered, foj_spec(recovered, target="v2"))
    second.run()
    assert second.transform_id != first.transform_id
    with pytest.raises(TransformationStateError):  # an explicit id in effect
        MaterializedFojView(recovered, foj_spec(recovered, target="v3"),
                            options=TransformOptions(
                                transform_id=first.transform_id))
    with Session(recovered) as s:
        s.update("R", (1,), {"b": "later"})
    again = restart(recovered.log)
    assert again.catalog.swaps() == {first.transform_id: ("v1",),
                                     second.transform_id: ("v2",)}
    assert rows_equal(
        values_of(again, "v1"),
        full_outer_join(foj_spec(again, target="v1"),
                        values_of(again, "R"), values_of(again, "S")))
