"""Integration tests for the execution engine (Database + Session)."""

from collections import namedtuple

import pytest

from repro import Database, Session, TableSchema
from repro.common.errors import (
    DeadlockError,
    DuplicateKeyError,
    LockWaitError,
    NoSuchRowError,
    NoSuchTableError,
    SchemaError,
    TransactionAbortedError,
    TransactionStateError,
)
from repro.concurrency import LockMode, TxnState
from repro.concurrency.locks import record_resource
from repro.engine.session import bulk_load
from repro.wal.records import (
    CLRecord,
    DeleteRecord,
    EndRecord,
    InsertRecord,
    UpdateRecord,
)

from tests.conftest import values_of


def make_db() -> Database:
    db = Database()
    db.create_table(TableSchema("t", ["id", "x", "y"], primary_key=["id"]))
    return db


# ---------------------------------------------------------------------------
# DML basics
# ---------------------------------------------------------------------------


def test_insert_read_update_delete_roundtrip():
    db = make_db()
    with Session(db) as s:
        key = s.insert("t", {"id": 1, "x": "a"})
        assert key == (1,)
        assert s.read("t", (1,)) == {"id": 1, "x": "a", "y": None}
        s.update("t", (1,), {"x": "b"})
        assert s.read("t", (1,))["x"] == "b"
        s.delete("t", (1,))
        assert s.read("t", (1,)) is None


def test_read_returns_copy():
    db = make_db()
    with Session(db) as s:
        s.insert("t", {"id": 1, "x": "a"})
        row = s.read("t", (1,))
        row["x"] = "mutated"
        assert s.read("t", (1,))["x"] == "a"


def test_update_missing_row_raises():
    db = make_db()
    with pytest.raises(NoSuchRowError):
        with Session(db) as s:
            s.update("t", (9,), {"x": 1})


def test_delete_missing_row_raises():
    db = make_db()
    with pytest.raises(NoSuchRowError):
        with Session(db) as s:
            s.delete("t", (9,))


def test_update_pk_rejected():
    db = make_db()
    with pytest.raises(SchemaError):
        with Session(db) as s:
            s.insert("t", {"id": 1})
            s.update("t", (1,), {"id": 2})


def test_update_rejections_keep_their_wording():
    db = make_db()
    with Session(db) as s:
        s.insert("t", {"id": 1})
        with pytest.raises(SchemaError, match=(
                r"^unknown attributes \['q', 'z'\] for table 't'$")):
            s.update("t", (1,), {"z": 1, "x": 2, "q": 3})
        with pytest.raises(SchemaError, match=(
                r"^primary key columns \['id'\] of 't' cannot be updated "
                r"in place; delete and re-insert instead$")):
            s.update("t", (1,), {"x": 2, "id": 2})
        assert s.read("t", (1,)) == {"id": 1, "x": None, "y": None}


def test_list_tuple_and_namedtuple_keys_lock_the_same_record():
    db = make_db()
    with Session(db) as s:
        s.insert("t", {"id": 1})
    named = namedtuple("Key", ["id"])(1)
    txn = db.begin()
    db.update(txn, "t", [1], {"x": "list"})
    held = db.locks.locks_of(txn.txn_id)
    assert record_resource(db.table("t").uid, (1,)) in held
    db.update(txn, "t", (1,), {"x": "tuple"})
    db.update(txn, "t", named, {"x": "named"})
    assert db.read(txn, "t", named)["x"] == "named"
    assert db.locks.locks_of(txn.txn_id) == held and len(held) == 2
    assert all(type(r[2]) is tuple for r in held if r[0] == "rec")
    assert record_resource(7, named) == record_resource(7, [1]) \
        == ("rec", 7, (1,))
    db.commit(txn)


def test_update_keeps_no_reference_to_the_callers_changes():
    """The engine copies the mapping once; log record and row share that
    copy with nobody outside."""
    db = make_db()
    changes = {"x": "kept"}
    with Session(db) as s:
        s.insert("t", {"id": 1})
        s.update("t", (1,), changes)
        changes["x"] = "mutated"
        changes["y"] = "added"
        assert s.read("t", (1,)) == {"id": 1, "x": "kept", "y": None}
    update = [r for r in db.log.scan() if isinstance(r, UpdateRecord)][-1]
    assert update.changes == {"x": "kept"}
    assert update.old_values == {"x": None}


def test_unknown_table_raises():
    db = make_db()
    with pytest.raises(NoSuchTableError):
        with Session(db) as s:
            s.insert("missing", {"id": 1})


# ---------------------------------------------------------------------------
# Logging contents
# ---------------------------------------------------------------------------


def test_update_log_record_carries_only_changed_attrs():
    """Paper Section 4.2: update records contain the primary key and the
    updated attribute values (plus their before-images for undo)."""
    db = make_db()
    with Session(db) as s:
        s.insert("t", {"id": 1, "x": "a", "y": "b"})
        s.update("t", (1,), {"x": "new"})
    updates = [r for r in db.log.scan() if isinstance(r, UpdateRecord)]
    assert len(updates) == 1
    assert updates[0].changes == {"x": "new"}
    assert updates[0].old_values == {"x": "a"}
    assert "y" not in updates[0].changes


def test_insert_log_record_carries_full_image():
    db = make_db()
    with Session(db) as s:
        s.insert("t", {"id": 1, "x": "a"})
    inserts = [r for r in db.log.scan() if isinstance(r, InsertRecord)]
    assert inserts[0].values == {"id": 1, "x": "a", "y": None}
    assert inserts[0].key == (1,)


def test_delete_log_record_carries_before_image():
    db = make_db()
    with Session(db) as s:
        s.insert("t", {"id": 1, "x": "a"})
        s.delete("t", (1,))
    deletes = [r for r in db.log.scan() if isinstance(r, DeleteRecord)]
    assert deletes[0].old_values["x"] == "a"


def test_row_lsn_tracks_last_operation():
    db = make_db()
    with Session(db) as s:
        s.insert("t", {"id": 1})
    lsn_after_insert = db.table("t").get((1,)).lsn
    with Session(db) as s:
        s.update("t", (1,), {"x": 1})
    assert db.table("t").get((1,)).lsn > lsn_after_insert


def test_commit_writes_commit_then_end():
    db = make_db()
    with Session(db) as s:
        s.insert("t", {"id": 1})
    kinds = [r.kind for r in db.log.scan()]
    assert kinds[-2:] == ["commit", "end"]
    end = list(db.log.scan())[-1]
    assert isinstance(end, EndRecord) and end.committed


# ---------------------------------------------------------------------------
# Rollback and CLRs
# ---------------------------------------------------------------------------


def test_abort_restores_all_changes():
    db = make_db()
    with Session(db) as s:
        s.insert("t", {"id": 1, "x": "keep"})
    txn = db.begin()
    db.insert(txn, "t", {"id": 2})
    db.update(txn, "t", (1,), {"x": "dirty"})
    db.delete(txn, "t", (1,))
    db.insert(txn, "t", {"id": 1, "x": "reborn"})
    db.abort(txn)
    assert values_of(db, "t") == [{"id": 1, "x": "keep", "y": None}]
    assert txn.state is TxnState.ABORTED


def test_abort_writes_clrs_with_undo_next_chain():
    db = make_db()
    txn = db.begin()
    db.insert(txn, "t", {"id": 1})
    db.update(txn, "t", (1,), {"x": 5})
    db.abort(txn)
    clrs = [r for r in db.log.scan() if isinstance(r, CLRecord)]
    assert len(clrs) == 2
    # First CLR compensates the update, pointing past it.
    assert isinstance(clrs[0].action, UpdateRecord)
    assert clrs[0].action.changes == {"x": None}
    assert isinstance(clrs[1].action, DeleteRecord)
    # undo_next of the last CLR points before the first data record.
    update_lsn = next(r.lsn for r in db.log.scan()
                      if isinstance(r, UpdateRecord) and r.txn_id ==
                      txn.txn_id and not isinstance(r, CLRecord))
    assert clrs[0].undo_next_lsn < update_lsn


def test_abort_end_record_not_committed():
    db = make_db()
    txn = db.begin()
    db.insert(txn, "t", {"id": 1})
    db.abort(txn)
    end = [r for r in db.log.scan() if isinstance(r, EndRecord)][-1]
    assert not end.committed


@pytest.mark.parametrize("duplicate", [{"id": 1, "x": "other"},
                                       {"id": 2, "x": "mail"}],
                         ids=["primary-key", "candidate-key"])
def test_refused_duplicate_insert_leaves_the_committed_row(duplicate):
    """A duplicate is refused before it is logged, so aborting the
    refusing transaction writes no CLR against the committed row."""
    db = Database()
    db.create_table(TableSchema("t", ["id", "x"], primary_key=["id"],
                                candidate_keys=[["x"]]))
    with Session(db) as s:
        s.insert("t", {"id": 1, "x": "mail"})
    txn = db.begin()
    with pytest.raises(DuplicateKeyError):
        db.insert(txn, "t", duplicate)
    db.abort(txn)
    assert values_of(db, "t") == [{"id": 1, "x": "mail"}]
    assert not any(isinstance(r, InsertRecord) and r.txn_id == txn.txn_id
                   for r in db.log.scan())


def test_abort_is_idempotent_and_commit_after_abort_rejected():
    db = make_db()
    txn = db.begin()
    db.abort(txn)
    db.abort(txn)  # no-op
    with pytest.raises(TransactionStateError):
        db.commit(txn)


def test_session_rolls_back_on_exception():
    db = make_db()
    with pytest.raises(RuntimeError):
        with Session(db) as s:
            s.insert("t", {"id": 1})
            raise RuntimeError("boom")
    assert db.table("t").row_count == 0


def test_session_outside_with_block():
    db = make_db()
    s = Session(db)
    with pytest.raises(RuntimeError):
        s.insert("t", {"id": 1})


# ---------------------------------------------------------------------------
# Locking behaviour
# ---------------------------------------------------------------------------


def test_strict_2pl_write_lock_held_until_commit():
    db = make_db()
    with Session(db) as s:
        s.insert("t", {"id": 1})
    t1 = db.begin()
    db.update(t1, "t", (1,), {"x": 1})
    t2 = db.begin()
    with pytest.raises(LockWaitError):
        db.read(t2, "t", (1,))
    db.commit(t1)
    assert db.read(t2, "t", (1,))["x"] == 1
    db.commit(t2)


def test_readers_share_lock():
    db = make_db()
    with Session(db) as s:
        s.insert("t", {"id": 1})
    t1, t2 = db.begin(), db.begin()
    db.read(t1, "t", (1,))
    db.read(t2, "t", (1,))  # no wait
    db.commit(t1)
    db.commit(t2)


def test_deadlock_detected_and_victim_can_abort():
    db = make_db()
    with Session(db) as s:
        s.insert("t", {"id": 1})
        s.insert("t", {"id": 2})
    t1, t2 = db.begin(), db.begin()
    db.update(t1, "t", (1,), {"x": 1})
    db.update(t2, "t", (2,), {"x": 2})
    with pytest.raises(LockWaitError):
        db.update(t2, "t", (1,), {"x": 3})
    with pytest.raises(DeadlockError):
        db.update(t1, "t", (2,), {"x": 4})
    db.abort(t1)  # victim aborts; t2's queued request gets granted
    db.update(t2, "t", (1,), {"x": 3})
    db.commit(t2)
    assert db.table("t").get((1,)).values["x"] == 3


def test_doomed_transaction_is_rolled_back_on_next_operation():
    db = make_db()
    with Session(db) as s:
        s.insert("t", {"id": 1})
    txn = db.begin()
    db.update(txn, "t", (1,), {"x": "dirty"})
    txn.doom("forced by sync")
    with pytest.raises(TransactionAbortedError):
        db.update(txn, "t", (1,), {"x": "more"})
    assert txn.state is TxnState.ABORTED
    assert db.table("t").get((1,)).values["x"] is None  # rolled back


def test_wake_callback_translates_proxy_ids():
    db = make_db()
    woken_seen = []
    db.on_wake = woken_seen.extend
    with Session(db) as s:
        s.insert("t", {"id": 1})
    t1, t2 = db.begin(), db.begin()
    db.update(t1, "t", (1,), {"x": 1})
    with pytest.raises(LockWaitError):
        db.update(t2, "t", (1,), {"x": 2})
    db.commit(t1)
    assert woken_seen == [t2.txn_id]
    db.abort(t2)


# ---------------------------------------------------------------------------
# Blocked tables, latches, zombies
# ---------------------------------------------------------------------------


def test_blocked_table_parks_new_transactions():
    db = make_db()
    with Session(db) as s:
        s.insert("t", {"id": 1})
    old = db.begin()
    db.read(old, "t", (1,))  # old txn has touched t
    db.catalog.block(["t"])
    new = db.begin()
    with pytest.raises(LockWaitError):
        db.read(new, "t", (1,))
    # The old transaction passes through.
    db.update(old, "t", (1,), {"x": 1})
    woken = []
    db.on_wake = woken.extend
    db.commit(old)
    db.unblock_tables(["t"])
    assert new.txn_id in woken
    assert db.read(new, "t", (1,))["x"] == 1
    db.commit(new)


def test_latched_table_parks_operations():
    db = make_db()
    with Session(db) as s:
        s.insert("t", {"id": 1})
    table = db.table("t")
    db.locks.latch_table(table.uid, "tf")
    txn = db.begin()
    with pytest.raises(LockWaitError):
        db.read(txn, "t", (1,))
    woken = []
    db.on_wake = woken.extend
    db.unlatch_table(table, "tf")
    assert txn.txn_id in woken
    assert db.read(txn, "t", (1,)) is not None
    db.commit(txn)


def test_zombie_table_visible_only_to_old_transactions():
    db = make_db()
    with Session(db) as s:
        s.insert("t", {"id": 1})
    old = db.begin()
    db.read(old, "t", (1,))
    from repro.storage import Table
    target = Table(TableSchema("t2", ["id"], primary_key=["id"]))
    db.catalog.swap("tf", ["t"], {"t2": target}, keep_zombies=True)
    # Old transaction still reaches "t" through the zombie namespace.
    assert db.read(old, "t", (1,)) is not None
    db.commit(old)
    new = db.begin()
    with pytest.raises(NoSuchTableError):
        db.read(new, "t", (1,))
    db.abort(new)


# ---------------------------------------------------------------------------
# Triggers, helpers, stats
# ---------------------------------------------------------------------------


def test_triggers_fire_on_each_operation_kind():
    db = make_db()
    fired = []
    db.create_trigger("t", lambda d, txn, rec: fired.append(rec.kind))
    with Session(db) as s:
        s.insert("t", {"id": 1})
        s.update("t", (1,), {"x": 1})
        s.delete("t", (1,))
    assert fired == ["insert", "update", "delete"]
    db.drop_triggers("t")
    with Session(db) as s:
        s.insert("t", {"id": 2})
    assert len(fired) == 3


def test_triggers_fire_on_rollback_compensations():
    db = make_db()
    fired = []
    db.create_trigger("t", lambda d, txn, rec: fired.append(rec.kind))
    txn = db.begin()
    db.insert(txn, "t", {"id": 1})
    db.abort(txn)
    assert fired == ["insert", "delete"]  # the CLR's compensating delete


def test_bulk_load_commits_batches():
    db = make_db()
    bulk_load(db, "t", [{"id": i} for i in range(25)], batch_size=10)
    assert db.table("t").row_count == 25
    assert db.stats["commit"] == 3


def test_read_index_locks_matches():
    db = make_db()
    db.table("t").create_index("by_x", ["x"])
    with Session(db) as s:
        s.insert("t", {"id": 1, "x": "a"})
        s.insert("t", {"id": 2, "x": "a"})
        s.insert("t", {"id": 3, "x": "b"})
    txn = db.begin()
    rows = db.read_index(txn, "t", "by_x", ("a",))
    assert {r["id"] for r in rows} == {1, 2}
    assert db.locks.holds(txn.txn_id,
                          record_resource(db.table("t").uid, (1,)),
                          LockMode.S)
    db.commit(txn)


def test_run_helper_commits_and_aborts():
    db = make_db()
    db.run(lambda d, txn: d.insert(txn, "t", {"id": 1}))
    assert db.table("t").row_count == 1
    with pytest.raises(RuntimeError):
        db.run(lambda d, txn: (_ for _ in ()).throw(RuntimeError()))
    assert db.stats["abort"] == 1


def test_stats_counters():
    db = make_db()
    with Session(db) as s:
        s.insert("t", {"id": 1})
        s.read("t", (1,))
        s.update("t", (1,), {"x": 1})
        s.delete("t", (1,))
    for key in ("insert", "read", "update", "delete", "commit"):
        assert db.stats[key] == 1


def test_ddl_is_logged():
    db = make_db()
    db.rename_table("t", "t9")
    db.drop_table("t9")
    kinds = [r.kind for r in db.log.scan()]
    assert "createtable" in kinds
    assert "renametable" in kinds
    assert "droptable" in kinds
