"""Unit tests for the transaction manager."""

import pytest

from repro.common.errors import TransactionStateError
from repro.concurrency import TransactionManager, TxnState
from repro.wal.records import NULL_LSN


def test_begin_assigns_increasing_ids():
    tm = TransactionManager()
    t1, t2 = tm.begin(), tm.begin()
    assert t2.txn_id == t1.txn_id + 1
    assert t1.is_active and not t1.is_finished


def test_get_and_exists():
    tm = TransactionManager()
    txn = tm.begin()
    assert tm.get(txn.txn_id) is txn
    assert tm.exists(txn.txn_id)
    assert not tm.exists(9999)
    with pytest.raises(TransactionStateError):
        tm.get(9999)


def test_note_record_tracks_chain():
    tm = TransactionManager()
    txn = tm.begin()
    assert txn.first_lsn == NULL_LSN
    txn.note_record(10)
    txn.note_record(20)
    assert txn.first_lsn == 10
    assert txn.last_lsn == 20


def test_active_queries():
    tm = TransactionManager()
    t1 = tm.begin()
    t2 = tm.begin()
    t1.tables_touched.add("R")
    t2.tables_touched.add("other")
    assert tm.active_ids() == [t1.txn_id, t2.txn_id]
    assert tm.active_on(["R"]) == [t1]
    assert tm.active_on(["nothing"]) == []
    tm.finished(t1, TxnState.COMMITTED)
    assert tm.active_on(["R"]) == []


def test_oldest_first_lsn():
    tm = TransactionManager()
    t1, t2, t3 = tm.begin(), tm.begin(), tm.begin()
    t1.note_record(30)
    t2.note_record(10)
    assert tm.oldest_first_lsn([t1.txn_id, t2.txn_id, t3.txn_id]) == 10
    assert tm.oldest_first_lsn([t3.txn_id]) == NULL_LSN
    assert tm.oldest_first_lsn([]) == NULL_LSN


def test_doom_marks_only_unfinished():
    tm = TransactionManager()
    t1, t2 = tm.begin(), tm.begin()
    tm.finished(t2, TxnState.COMMITTED)
    tm.doom_transactions([t1.txn_id, t2.txn_id, 777], "sync")
    assert t1.doomed and t1.doom_reason == "sync"
    assert not t2.doomed


def test_repr_shows_state_and_doom():
    tm = TransactionManager()
    txn = tm.begin()
    txn.doom("x")
    assert "doomed" in repr(txn)
