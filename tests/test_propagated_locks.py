"""The propagated lock table (Section 3.3: the locks the propagator
maintains on transformed records "are ignored for now"; Section 3.4: the
synchronization materializes them for the transactions still active at
the swap) holds entries only for owners that can still hold them.

R(a, b, c) and S(c, d, e) hold rows a = 1..n with c = 10 * a on both
sides, so every S record has exactly one R carrier and T row ``(a,)``
joins ``r^a`` with ``s^(10a)``.
"""

import pytest

from repro import (
    Database,
    FojTransformation,
    Phase,
    Session,
    SyncStrategy,
    TableSchema,
)
from repro.api import TransformOptions
from repro.common.errors import LockWaitError
from repro.concurrency import LockMode, TxnState
from repro.concurrency.locks import record_resource
from repro.obs import Metrics
from repro.transform.analysis import (
    FixedIterationsPolicy,
    RemainingRecordsPolicy,
)
from repro.transform.base import proxy_owner
from repro.transform.foj import JOIN_INDEX

from tests.conftest import foj_spec

R = TableSchema("R", ["a", "b", "c"], primary_key=["a"])
S = TableSchema("S", ["c", "d", "e"], primary_key=["c"])

#: The strategies that carry a transaction across the swap.
CARRYING = (SyncStrategy.NONBLOCKING_COMMIT, SyncStrategy.NONBLOCKING_ABORT,
            SyncStrategy.VERSION_FLIP)


def _db(n=3):
    db = Database()
    db.create_table(R)
    db.create_table(S)
    with Session(db) as s:
        for a in range(1, n + 1):
            s.insert("R", {"a": a, "b": f"b{a}", "c": 10 * a})
            s.insert("S", {"c": 10 * a, "d": f"d{a}", "e": f"e{a}"})
    return db


def _transformation(db, strategy, hold=True):
    """A FOJ past population; with ``hold`` its policy keeps it
    propagating until :func:`_release` lets it synchronize."""
    storage = "mvcc" if strategy is SyncStrategy.VERSION_FLIP else "latch"
    policy = FixedIterationsPolicy(10 ** 9) if hold else None
    tf = FojTransformation(db, foj_spec(db), options=TransformOptions(
        sync=strategy, storage=storage, policy=policy))
    while tf.phase is not Phase.PROPAGATING:
        tf.step(4096)
    return tf


def _propagate(tf, steps=5):
    for _ in range(steps):
        tf.step(4096)


def _release(tf):
    """Let the held transformation synchronize, and drive it to the swap."""
    tf.policy = RemainingRecordsPolicy()
    for _ in range(1000):
        if tf.phase in (Phase.BACKGROUND, Phase.DONE):
            return
        tf.step(4096)
    raise AssertionError(f"no swap; at {tf.phase}")


def _t_records(tf, *keys):
    uid = tf.targets["T"].uid
    return {record_resource(uid, key) for key in keys}


def _proxy_locks(db, txn):
    return set(db.locks.locks_of(proxy_owner(txn.txn_id)))


def test_draining_a_committed_backlog_notes_nothing():
    db = _db(20)
    tf = _transformation(db, SyncStrategy.NONBLOCKING_COMMIT, hold=False)
    with Session(db) as s:
        for a in range(1, 21):
            s.update("R", (a,), {"b": f"new{a}"})
            s.update("S", (10 * a,), {"d": f"new{a}"})
    drained = tf.stats["propagated_records"]
    while tf.phase is not Phase.DONE:
        tf.step(3)  # small steps: a data record's end record comes later
        assert len(tf.locks_held) == 0
    assert tf.stats["propagated_records"] - drained >= 40
    assert db.table("T").get((7,)).values["d"] == "new7"


@pytest.mark.parametrize("strategy", CARRYING, ids=lambda s: s.value)
def test_open_writer_is_noted_proxy_locked_and_released(strategy):
    db = _db()
    tf = _transformation(db, strategy)
    old = db.begin()
    db.update(old, "R", (1,), {"b": "old"})
    db.update(old, "S", (20,), {"d": "old"})   # carried by T row (2,)
    _propagate(tf)
    assert tf.locks_held.resources_of(old.txn_id) == _t_records(
        tf, (1,), (2,))
    _release(tf)
    assert tf.phase is Phase.BACKGROUND
    for resource in _t_records(tf, (1,), (2,)):
        assert db.locks.holds(proxy_owner(old.txn_id), resource, LockMode.X)
    new = db.begin()
    with pytest.raises(LockWaitError):
        db.update(new, "T", (2,), {"d": "new"})
    if old.state is TxnState.ACTIVE:   # nonblocking_abort doomed it
        db.commit(old)
    assert _proxy_locks(db, old)       # until the end record is propagated
    tf.run()
    assert len(tf.locks_held) == 0 and not _proxy_locks(db, old)
    db.update(new, "T", (2,), {"d": "new"})
    db.commit(new)


def test_blocking_commit_notes_the_open_writer_and_carries_nothing():
    db = _db()
    tf = _transformation(db, SyncStrategy.BLOCKING_COMMIT)
    old = db.begin()
    db.update(old, "R", (3,), {"b": "old"})
    _propagate(tf)
    assert tf.locks_held.resources_of(old.txn_id) == _t_records(tf, (3,))
    tf.policy = RemainingRecordsPolicy()
    _propagate(tf, steps=20)
    assert tf.phase is Phase.SYNCHRONIZING   # draining: old still active
    db.commit(old)
    tf.run()
    assert len(tf.locks_held) == 0 and not _proxy_locks(db, old)


@pytest.mark.parametrize("strategy", CARRYING, ids=lambda s: s.value)
def test_writer_finished_before_the_swap_leaves_nothing(strategy):
    db = _db()
    tf = _transformation(db, strategy)
    old = db.begin()
    db.update(old, "R", (1,), {"b": "old"})
    _propagate(tf)
    assert tf.locks_held.resources_of(old.txn_id)
    db.commit(old)
    _release(tf)
    assert len(tf.locks_held) == 0 and not _proxy_locks(db, old)
    new = db.begin()
    db.update(new, "T", (1,), {"b": "new"})   # nothing to wait for
    db.commit(new)


def test_null_keyed_rows_stay_locked_for_their_open_writer():
    """Deleting the sole R carrier of an S record leaves a ``t^null_x`` row
    whose R key is NULL.  The primary index cannot find it, but the join
    index can, and ``read_index`` S-locks the lock key of every row it
    returns -- ``(None, x)``, one per join value -- so the deleter's proxy
    lock on it is what keeps a post-swap reader from seeing a row the
    deleter may still roll back."""
    db = _db()
    tf = _transformation(db, SyncStrategy.NONBLOCKING_COMMIT)
    first, second = db.begin(), db.begin()
    db.delete(first, "R", (1,))
    db.delete(second, "R", (2,))
    _propagate(tf)
    for txn, a in ((first, 1), (second, 2)):
        assert tf.locks_held.resources_of(txn.txn_id) == _t_records(
            tf, (a,), (None, 10 * a))
    _release(tf)
    assert tf.phase is Phase.BACKGROUND
    (null_key,) = _t_records(tf, (None, 10))
    assert [request.txn_id for request in db.locks.holders(null_key)] == [
        proxy_owner(first.txn_id)]
    reader = db.begin()
    with pytest.raises(LockWaitError):
        db.read_index(reader, "T", JOIN_INDEX, (10,))
    db.commit(first)
    db.commit(second)
    tf.run()   # both end records propagated: the parked reader is granted
    assert [(request.txn_id, request.mode) for request
            in db.locks.holders(null_key)] == [(reader.txn_id, LockMode.S)]
    (row,) = db.read_index(reader, "T", JOIN_INDEX, (10,))
    assert row["a"] is None and row["d"] == "d1"
    db.commit(reader)


def test_unrelated_null_keyed_rows_wait_for_nobody():
    """The blame board's positive control.  k open deleters each leave a
    ``t^null_x`` of their own; post-swap readers of a ``t^null_x`` nobody
    open wrote must not wait.  While every NULL-keyed row shared the lock
    ``(None,)``, each reader waited behind all k proxy owners, and the
    board charged that wait to the ``sync`` role."""
    ticks = iter(range(10 ** 6))
    db = _db(5)
    db.attach_metrics(Metrics(clock=lambda: float(next(ticks))))
    with Session(db) as s:
        s.delete("R", (5,))   # committed: t^null_50 is nobody's
    tf = _transformation(db, SyncStrategy.NONBLOCKING_COMMIT)
    deleters = [db.begin() for _ in range(3)]
    for a, txn in enumerate(deleters, start=1):
        db.delete(txn, "R", (a,))
    _propagate(tf)
    _release(tf)
    assert tf.phase is Phase.BACKGROUND
    for _ in range(2):
        reader = db.begin()
        try:
            db.read_index(reader, "T", JOIN_INDEX, (50,))
            db.commit(reader)
        except LockWaitError:
            db.abort(reader)
    waits = {role: ms for role, ms in db.metrics.blame.breakdown().items()
             if ms and role != "user"}
    assert waits == {}
    for txn in deleters:
        db.commit(txn)
    tf.run()
