"""Tests for fuzzy scans and the classic fuzzy-copy technique."""

import pytest

from repro import Database, Session, TableSchema
from repro.engine.fuzzy import (
    FuzzyScan,
    apply_log_with_lsn_guard,
    fuzzy_copy,
)
from repro.storage import Table

from tests import scan_contract
from tests.conftest import values_of


def make_db(n: int = 10) -> Database:
    db = Database()
    db.create_table(TableSchema("t", ["id", "x"], primary_key=["id"]))
    with Session(db) as s:
        for i in range(n):
            s.insert("t", {"id": i, "x": i})
    return db


def test_scan_returns_all_rows_in_chunks():
    db = make_db(10)
    scan = FuzzyScan(db.table("t"), chunk_size=3)
    chunks = list(scan)
    assert [len(c) for c in chunks] == [3, 3, 3, 1]
    assert {values["id"] for c in chunks for values, _lsn in c} == set(range(10))
    assert scan.exhausted


def test_scan_limit_parameter_caps_chunk():
    db = make_db(10)
    scan = FuzzyScan(db.table("t"), chunk_size=8)
    assert len(scan.next_chunk(2)) == 2
    assert len(scan.next_chunk()) == 8
    assert scan.remaining == 0


def test_scan_nonpositive_limit_returns_empty_without_advancing():
    """Regression: ``next_chunk(0)`` used to hand back a chunk anyway;
    a non-positive limit must be a no-op so budget-exhausted callers can
    probe without consuming rows."""
    db = make_db(5)
    scan = FuzzyScan(db.table("t"), chunk_size=3)
    assert scan.next_chunk(0) == []
    assert scan.next_chunk(-2) == []
    assert scan.remaining == 5
    assert not scan.exhausted
    assert [values["id"] for values, _lsn in scan.next_chunk()] == [0, 1, 2]


def test_scan_misses_rows_inserted_after_start():
    db = make_db(5)
    scan = FuzzyScan(db.table("t"), chunk_size=2)
    scan.next_chunk()
    with Session(db) as s:
        s.insert("t", {"id": 100, "x": 100})
    seen = {values["id"] for c in scan for values, _lsn in c}
    assert 100 not in seen  # repaired later by log propagation


def test_scan_skips_rows_deleted_before_reached():
    db = make_db(6)
    scan = FuzzyScan(db.table("t"), chunk_size=2)
    first = scan.next_chunk()
    assert [values["id"] for values, _lsn in first] == [0, 1]
    with Session(db) as s:
        s.delete("t", (4,))
    seen = {values["id"] for c in scan for values, _lsn in c}
    assert 4 not in seen


def test_scan_sees_updates_ahead_of_cursor():
    db = make_db(6)
    scan = FuzzyScan(db.table("t"), chunk_size=2)
    scan.next_chunk()
    with Session(db) as s:
        s.update("t", (5,), {"x": "updated"})
    seen = {values["id"]: values["x"] for c in scan for values, _lsn in c}
    assert seen[5] == "updated"


def test_scan_reads_ignore_locks():
    """The defining property: uncommitted (locked) data is read."""
    db = make_db(3)
    txn = db.begin()
    db.update(txn, "t", (1,), {"x": "uncommitted"})
    scan = FuzzyScan(db.table("t"), chunk_size=10)
    seen = {values["id"]: values["x"]
            for values, _lsn in scan.next_chunk()}
    assert seen[1] == "uncommitted"
    db.abort(txn)


def test_scan_snapshots_are_stable():
    db = make_db(3)
    scan = FuzzyScan(db.table("t"), chunk_size=10)
    chunk = scan.next_chunk()
    with Session(db) as s:
        s.update("t", (0,), {"x": "changed"})
    assert chunk[0][0]["x"] == 0  # image unaffected


def test_scan_rejects_bad_chunk_size():
    db = make_db(1)
    with pytest.raises(ValueError):
        FuzzyScan(db.table("t"), chunk_size=0)


@pytest.mark.parametrize("check", scan_contract.CHECKS,
                         ids=lambda check: check.__name__)
@pytest.mark.parametrize("shards", (1, 3))
@pytest.mark.parametrize("kind", scan_contract.KINDS)
def test_scan_contract(kind, shards, check):
    """One chunk source, one contract: every configuration population
    can select (read rule x claims x shard accounts) passes every check
    in :mod:`tests.scan_contract`."""
    check(scan_contract.ScanCase(kind, shards))


def test_fuzzy_copy_quiescent_equals_source():
    db = make_db(20)
    target = Table(db.table("t").schema.rename("copy"))
    fuzzy_copy(db, "t", target)
    assert sorted(r.values["id"] for r in target.scan()) == list(range(20))
    # LSNs carried over for idempotence.
    for row in target.scan():
        assert row.lsn == db.table("t").get((row.values["id"],)).lsn


def test_fuzzy_copy_with_uncommitted_changes_converges_via_log():
    db = make_db(10)
    txn = db.begin()
    db.update(txn, "t", (3,), {"x": "dirty"})
    target = Table(db.table("t").schema.rename("copy"))
    fuzzy_copy(db, "t", target)  # copy may contain the dirty value
    db.abort(txn)  # CLR appended after the copy
    apply_log_with_lsn_guard(db, "t", target, from_lsn=1)
    assert target.get((3,)).values["x"] == 3  # compensation applied


def test_lsn_guard_makes_redo_idempotent():
    db = make_db(5)
    with Session(db) as s:
        s.update("t", (1,), {"x": "v1"})
        s.delete("t", (2,))
        s.insert("t", {"id": 99, "x": "new"})
    target = Table(db.table("t").schema.rename("copy"))
    fuzzy_copy(db, "t", target)
    before = sorted((r.values["id"], r.values["x"], r.lsn)
                    for r in target.scan())
    # Re-apply the whole log twice more: nothing may change.
    apply_log_with_lsn_guard(db, "t", target, from_lsn=1)
    apply_log_with_lsn_guard(db, "t", target, from_lsn=1)
    after = sorted((r.values["id"], r.values["x"], r.lsn)
                   for r in target.scan())
    assert before == after


def test_fuzzy_copy_writes_marks():
    db = make_db(2)
    target = Table(db.table("t").schema.rename("copy"))
    fuzzy_copy(db, "t", target)
    marks = [r for r in db.log.scan() if r.kind == "fuzzymark"]
    assert [m.phase for m in marks] == ["begin", "end"]


def test_fuzzy_copy_embeds_active_transactions():
    db = make_db(2)
    txn = db.begin()
    db.update(txn, "t", (0,), {"x": "z"})
    target = Table(db.table("t").schema.rename("copy"))
    fuzzy_copy(db, "t", target)
    begin_mark = next(r for r in db.log.scan() if r.kind == "fuzzymark")
    assert txn.txn_id in begin_mark.active_txns
    db.commit(txn)
