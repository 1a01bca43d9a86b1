"""Tests for the interference-attribution ("blame") layer: the
:class:`BlameBoard` itself, its wiring through the lock manager, table
latches and blocked-table admission control, and the blocked-waiter
wakeup protocol in :mod:`repro.engine.database`."""

import pytest

from repro import Database, Metrics, Session, TableSchema
from repro.common.errors import (
    LockWaitError,
    TransactionAbortedError,
)
from repro.obs import NULL_BLAME, ROLES, EventRing
from repro.obs.blame import PHASE_ROLES, default_role

R_SCHEMA = TableSchema("R", ["a", "b"], primary_key=["a"])
U_SCHEMA = TableSchema("U", ["a", "b"], primary_key=["a"])


class _Clock:
    """A hand-cranked clock so wait durations are exact."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def new_board(clock):
    """A fresh registry and its board (closed edges land in its ring)."""
    metrics = Metrics(clock=clock)
    return metrics, metrics.blame


def observed_db():
    clock = _Clock()
    metrics = Metrics(clock=clock)
    db = Database(metrics=metrics)
    return db, metrics, clock


# ---------------------------------------------------------------------------
# BlameBoard unit behaviour
# ---------------------------------------------------------------------------


def test_default_roles_cover_owner_id_shapes():
    assert default_role(7) == "user"
    assert default_role(-7) == "sync"
    assert default_role(("blocked", "R")) == "sync"
    assert default_role("split#1") == "latched-window"


def test_phase_roles_match_paper_taxonomy():
    assert PHASE_ROLES["populating"] == "populate"
    assert PHASE_ROLES["propagating"] == "propagate"
    assert PHASE_ROLES["synchronizing"] == "latched-window"


def test_wait_edge_measures_duration_and_attributes_role():
    clock = _Clock()
    metrics, board = new_board(clock)
    board.begin_wait(1, ("rec", "x"), holders=[2], channel="lock")
    clock.t = 5.0
    board.end_wait(1, ("rec", "x"))
    assert board.total_wait_ms == 5.0
    assert board.by_role == {"user": 5.0}
    assert board.by_txn == {1: {"user": 5.0}}
    (edge,) = metrics.events("blame.edge")
    assert edge.as_dict() == {
        "ts": 5.0, "kind": "blame.edge", "waiter": 1,
        "resource": repr(("rec", "x")), "channel": "lock",
        "roles": ["user"], "duration_ms": 5.0, "outcome": "granted"}


def test_begin_wait_is_idempotent_per_waiter_resource():
    # The park/wake/retry loop re-enters begin_wait on every retry; only
    # the first enqueue may start the clock.
    clock = _Clock()
    _, board = new_board(clock)
    board.begin_wait(1, "r", holders=[2], channel="lock")
    clock.t = 3.0
    board.begin_wait(1, "r", holders=[2], channel="lock")  # retry
    clock.t = 10.0
    board.end_wait(1, "r")
    assert board.total_wait_ms == 10.0
    assert board.edges_total == 1


def test_duration_splits_evenly_and_sums_exactly():
    clock = _Clock()
    _, board = new_board(clock)
    board.set_role(-1, "sync")
    board.begin_wait(1, "r", holders=[2, -1], channel="lock")
    clock.t = 8.0
    board.end_wait(1, "r")
    assert board.by_role == {"user": 4.0, "sync": 4.0}
    assert sum(board.by_role.values()) == board.total_wait_ms


def test_holder_roles_resolve_at_enqueue_time():
    # Blame describes what the holder was doing when it got in the way,
    # not what it happens to be doing when the wait ends.
    clock = _Clock()
    _, board = new_board(clock)
    board.set_role(9, "populate")
    board.begin_wait(1, "r", holders=[9], channel="lock")
    board.clear_role(9)
    clock.t = 2.0
    board.end_wait(1, "r")
    assert board.by_role == {"populate": 2.0}


def test_scoped_role_reverts_and_nests():
    _, board = new_board(_Clock())
    board.set_role(5, "sweeper")
    with board.role(5, "lazy-miss"):
        assert board.role_of(5) == "lazy-miss"
        with board.role(5, "recovery"):
            assert board.role_of(5) == "recovery"
        assert board.role_of(5) == "lazy-miss"
    assert board.role_of(5) == "sweeper"
    with board.role(6, "lazy-miss"):
        assert board.role_of(6) == "lazy-miss"
    assert board.role_of(6) == "user"  # no registration to restore


def test_abandon_waits_closes_all_edges_of_the_waiter():
    clock = _Clock()
    metrics, board = new_board(clock)
    board.begin_wait(1, "r1", holders=[2], channel="lock")
    board.begin_wait(1, "r2", holders=[3], channel="lock")
    board.begin_wait(4, "r1", holders=[2], channel="lock")
    clock.t = 1.0
    board.abandon_waits(1)
    assert board.edges_total == 2
    assert [e.fields["outcome"] for e in metrics.events("blame.edge")] \
        == ["abandoned", "abandoned"]
    assert board.snapshot()["edges"]["open"] == 1  # txn 4 still parked


def test_end_wait_on_unknown_edge_is_a_noop():
    _, board = new_board(_Clock())
    board.end_wait(1, "never-started")
    assert board.edges_total == 0
    assert board.total_wait_ms == 0.0


def test_edge_ring_is_bounded_and_counts_drops():
    # Edges live in the registry's trace ring: its bound and its drop
    # counter are theirs, while the board's own totals stay exact.
    clock = _Clock()
    metrics, board = new_board(clock)
    cap = EventRing.CAPACITY
    for i in range(cap + 1):
        board.begin_wait(i + 1, "r", holders=[9], channel="lock")
        clock.t += 1.0
        board.end_wait(i + 1, "r")
    assert board.edges_total == cap + 1
    edges = metrics.events("blame.edge")
    assert len(edges) == cap
    assert edges[0].fields["waiter"] == 2  # the oldest went first
    assert metrics.snapshot()["trace"] == {
        "retained": cap, "appended": cap + 1, "dropped": 1}
    assert board.snapshot()["edges"] == {"recorded": cap + 1, "open": 0}


def test_snapshot_shape_is_reporting_complete():
    clock = _Clock()
    _, board = new_board(clock)
    board.begin_wait(1, "r", holders=[-3], channel="blocked")
    clock.t = 4.0
    board.end_wait(1, "r")
    snap = board.snapshot()
    assert set(snap) == {"total_wait_ms", "by_role", "role_percentiles",
                         "by_txn", "edges"}
    assert set(snap["by_role"]) == set(ROLES)  # every role, zeros included
    assert snap["role_percentiles"]["sync"]["count"] == 1


def test_reset_keeps_open_waits_alive():
    clock = _Clock()
    _, board = new_board(clock)
    board.begin_wait(1, "r", holders=[2], channel="lock")
    board.reset()
    clock.t = 6.0
    board.end_wait(1, "r")
    assert board.total_wait_ms == 6.0


def test_reset_leaves_the_board_writing_into_the_live_ring():
    clock = _Clock()
    metrics, board = new_board(clock)
    metrics.reset()
    board.begin_wait(1, "r", holders=[2], channel="lock")
    clock.t = 2.0
    board.end_wait(1, "r")
    (edge,) = metrics.events("blame.edge")
    assert edge.fields["duration_ms"] == 2.0
    assert metrics.snapshot()["trace"]["appended"] == 1


def test_null_blame_is_inert_and_cannot_be_enabled():
    NULL_BLAME.begin_wait(1, "r", holders=[2], channel="lock")
    NULL_BLAME.end_wait(1, "r")
    NULL_BLAME.set_role(1, "sweeper")
    with NULL_BLAME.role(1, "lazy-miss"):
        pass
    assert NULL_BLAME.role_of(1) == "user"  # defaults only, no registry
    assert NULL_BLAME.edges_total == 0
    with pytest.raises(ValueError):
        NULL_BLAME.enabled = True
    NULL_BLAME.enabled = False  # re-disabling is a no-op


# ---------------------------------------------------------------------------
# Engine wiring: lock waits, latch waits, blocked-table waits
# ---------------------------------------------------------------------------


def test_lock_wait_produces_a_user_blame_edge():
    db, metrics, clock = observed_db()
    db.create_table(R_SCHEMA)
    with Session(db) as s:
        s.insert("R", {"a": 1, "b": "x"})
    writer = db.begin()
    db.update(writer, "R", (1,), {"b": "y"})
    reader = db.begin()
    with pytest.raises(LockWaitError):
        db.read(reader, "R", (1,))
    clock.t = 7.0
    db.commit(writer)  # releases the X lock, grants + ends the wait
    blame = metrics.blame.snapshot()
    assert blame["total_wait_ms"] == 7.0
    assert blame["by_role"]["user"] == 7.0
    assert blame["by_txn"][reader.txn_id] == {"user": 7.0}
    (edge,) = metrics.events("blame.edge")
    assert edge.fields["channel"] == "lock"
    assert edge.fields["outcome"] == "granted"


def test_latch_wait_blames_the_latched_window():
    db, metrics, clock = observed_db()
    db.create_table(R_SCHEMA)
    with Session(db) as s:
        s.insert("R", {"a": 1, "b": "x"})
    table = db.table("R")
    db.latch_table(table, "split#1")
    txn = db.begin()
    with pytest.raises(LockWaitError):
        db.read(txn, "R", (1,))
    clock.t = 3.0
    db.unlatch_table(table, "split#1")
    blame = metrics.blame.snapshot()
    assert blame["by_role"]["latched-window"] == 3.0
    (edge,) = metrics.events("blame.edge")
    assert edge.fields["channel"] == "latch"


def test_blocked_table_wait_blames_sync():
    db, metrics, clock = observed_db()
    db.create_table(R_SCHEMA)
    txn = db.begin()
    db.catalog.block(["R"])
    with pytest.raises(LockWaitError):
        db.read(txn, "R", (1,))
    clock.t = 11.0
    db.unblock_tables(["R"])
    blame = metrics.blame.snapshot()
    assert blame["by_role"]["sync"] == 11.0
    (edge,) = metrics.events("blame.edge")
    assert edge.fields["channel"] == "blocked"


def test_aborted_waiter_ends_its_edges_as_abandoned():
    db, metrics, clock = observed_db()
    db.create_table(R_SCHEMA)
    with Session(db) as s:
        s.insert("R", {"a": 1, "b": "x"})
    writer = db.begin()
    db.update(writer, "R", (1,), {"b": "y"})
    reader = db.begin()
    with pytest.raises(LockWaitError):
        db.read(reader, "R", (1,))
    clock.t = 2.0
    db.abort(reader)
    (edge,) = metrics.events("blame.edge")
    assert edge.fields["outcome"] == "abandoned"
    assert metrics.blame.snapshot()["edges"]["open"] == 0
    db.commit(writer)


# ---------------------------------------------------------------------------
# Satellite: blocked-waiter wakeup ordering (Database._blocked_waiters)
# ---------------------------------------------------------------------------


def test_blocked_waiters_are_woken_on_unblock_in_fifo_order():
    db = Database()
    db.create_table(R_SCHEMA)
    woken = []
    db.on_wake = woken.extend
    first, second = db.begin(), db.begin()
    db.catalog.block(["R"])
    for txn in (first, second):
        with pytest.raises(LockWaitError):
            db.read(txn, "R", (1,))
    assert db._blocked_waiters["R"] == [first.txn_id, second.txn_id]
    db.unblock_tables(["R"])
    assert woken == [first.txn_id, second.txn_id]  # park order preserved
    assert db._blocked_waiters == {}
    # Both can proceed now.
    assert db.read(first, "R", (1,)) is None


def test_blocked_waiter_retry_does_not_enqueue_twice():
    db = Database()
    db.create_table(R_SCHEMA)
    woken = []
    db.on_wake = woken.extend
    txn = db.begin()
    db.catalog.block(["R"])
    for _ in range(3):  # the simulator's park/wake/retry loop
        with pytest.raises(LockWaitError):
            db.read(txn, "R", (1,))
    assert db._blocked_waiters["R"] == [txn.txn_id]
    db.unblock_tables(["R"])
    assert woken == [txn.txn_id]  # exactly one wakeup, no duplicates


def test_blocked_newcomer_holding_locks_is_doomed_not_parked():
    # Liveness: a newcomer already holding locks elsewhere must not park
    # behind the block -- the draining old transaction may need those
    # very locks, deadlocking the sync against its own block.
    db, metrics, _ = observed_db()
    db.create_table(R_SCHEMA)
    db.create_table(U_SCHEMA)
    txn = db.begin()
    db.insert(txn, "U", {"a": 1, "b": "x"})  # now holds locks on U
    db.catalog.block(["R"])
    with pytest.raises(TransactionAbortedError):
        db.read(txn, "R", (1,))
    assert txn.doomed
    assert db._blocked_waiters.get("R", []) == []  # never enqueued
    assert metrics.blame.snapshot()["edges"]["open"] == 0
    db.unblock_tables(["R"])  # nothing parked; must be a clean no-op


def test_unblock_wakeup_translates_proxy_ids_once():
    db = Database()
    woken = []
    db.on_wake = woken.extend
    # Proxy owners (negated ids) wake the real transaction, deduplicated.
    db._notify_woken([-4, 4, 7])
    assert woken == [4, 7]


# ---------------------------------------------------------------------------
# Observed simulator runs: the breakdown matches the aggregate
# ---------------------------------------------------------------------------


def test_observed_run_blame_breakdown_matches_aggregate_wait():
    from repro.sim import RunSettings, build_split_scenario, run_once

    def builder(seed):
        return build_split_scenario(seed, rows=300, dummy_rows=150,
                                    n_split_values=60)

    result = run_once(builder, RunSettings(
        n_clients=8, warmup_ms=5.0, window_ms=200.0, priority=0.3,
        observe=True))
    blame = result.info["blame"]
    assert blame is not None
    assert blame["edges"]["recorded"] > 0
    assert blame["total_wait_ms"] > 0
    # Acceptance: the per-role breakdown accounts for the aggregate wait
    # within 1% (the even split makes it exact, so 1% is pure slack).
    total = blame["total_wait_ms"]
    assert abs(sum(blame["by_role"].values()) - total) <= 0.01 * total
    # Per-transaction breakdowns cover the same edges.
    per_txn = sum(sum(roles.values()) for roles in blame["by_txn"].values())
    assert abs(per_txn - total) <= 0.01 * total


def test_unobserved_run_carries_no_blame():
    from repro.sim import RunSettings, build_split_scenario, run_once

    def builder(seed):
        return build_split_scenario(seed, rows=200, dummy_rows=100,
                                    n_split_values=40)

    result = run_once(builder, RunSettings(
        n_clients=4, warmup_ms=5.0, window_ms=30.0))
    assert result.info["blame"] is None
