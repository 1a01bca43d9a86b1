"""Property-based tests (hypothesis) for the core invariants.

The central property is Theorem 1's consequence: for ANY serializable
history of inserts/updates/deletes over the source tables -- interleaved
arbitrarily with transformation steps, including transaction aborts (CLRs)
-- the transformed tables converge to the oracle operator applied to the
final source state.  Each such property is one configuration of the one
model (``tests/model.py``, every cell of which ``tests/test_matrix.py``
runs): the ids below keep the configurations the per-feature harnesses
once covered.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import restart
from repro.common.errors import NoSuchTableError
from repro.engine.fuzzy import FuzzyScan, apply_log_with_lsn_guard
from repro.faults.sweep import (
    RunConfig,
    ScenarioRun,
    check_completed,
    check_recovered,
    draw_history,
)
from repro.plan import WORKLOAD_SCENARIOS
from repro.relational import rows_equal
from repro.storage import Table
from repro.transform.base import SyncStrategy
from repro.wal.records import FuzzyMarkRecord

from tests.conftest import values_of
from tests.model import backlogged, check_model, configs

SNAPSHOT = dict(strategy=SyncStrategy.VERSION_FLIP, storage="mvcc")
ONE = (1,)


@given(backlogged("foj", shards=ONE))
@settings(max_examples=15, deadline=None)
def test_foj_converges_for_any_history(config):
    check_model(config)


@given(backlogged("split", shards=ONE))
@settings(max_examples=15, deadline=None)
def test_split_converges_for_any_fd_consistent_history(config):
    check_model(config)


@given(backlogged("partition", shards=ONE))
@settings(max_examples=10, deadline=None)
def test_partition_converges_for_any_history(config):
    check_model(config)


@given(backlogged("merge", shards=ONE))
@settings(max_examples=10, deadline=None)
def test_merge_converges_for_any_history(config):
    check_model(config)


@given(backlogged("foj", shards=(2, 3, 7)))
@settings(max_examples=10, deadline=None)
def test_sharded_foj_identical_to_sequential(config):
    check_model(config)


@given(backlogged("split", shards=(2, 3, 7)))
@settings(max_examples=10, deadline=None)
def test_sharded_split_identical_to_sequential(config):
    check_model(config)


@given(backlogged("foj", view=True))
@settings(max_examples=10, deadline=None)
def test_materialized_view_converges_for_any_history(config):
    check_model(config)


@given(backlogged("foj", shards=(1, 3), budgets=(1, 7, 64)))
@settings(max_examples=10, deadline=None)
def test_step_budget_foj_identical_to_run(config):
    check_model(config)


@given(backlogged("split", shards=(1, 3), budgets=(1, 7, 64)))
@settings(max_examples=10, deadline=None)
def test_step_budget_split_identical_to_run(config):
    check_model(config)


@given(backlogged("foj", shards=(1, 3), **SNAPSHOT))
@settings(max_examples=10, deadline=None)
def test_snapshot_foj_identical_to_latch(config):
    check_model(config)


@given(backlogged("split", shards=(1, 3), **SNAPSHOT))
@settings(max_examples=10, deadline=None)
def test_snapshot_split_identical_to_latch(config):
    check_model(config)


# ---------------------------------------------------------------------------
# The same generated histories without a transformation
# ---------------------------------------------------------------------------


def _loaded_foj(rng):
    """The FOJ scenario's sources, loaded, and a history drawn for them."""
    run = ScenarioRun(RunConfig(WORKLOAD_SCENARIOS["foj"]))
    run.load()
    return run, list(draw_history(rng, 30))


@given(st.randoms(use_true_random=False), st.integers(0, 10))
@settings(max_examples=25, deadline=None)
def test_fuzzy_copy_converges_for_any_history(rng, chunk_offset):
    """Fuzzy copy + LSN-guarded redo equals the source, regardless of the
    transactions racing the scan."""
    run, history = _loaded_foj(rng)
    db = run.db
    target = Table(db.table("book").schema.rename("copy"))
    db.log.append(FuzzyMarkRecord(transform_id="x", phase="begin"))
    scan = FuzzyScan(db.table("book"), chunk_size=2 + chunk_offset)
    while not scan.exhausted:
        for values, lsn in scan.next_chunk():
            target.insert_row(values, lsn=lsn)
        if history:
            run.perform(*history.pop(0))
    for entry in history:
        run.perform(*entry)
    apply_log_with_lsn_guard(db, "book", target, from_lsn=1)
    assert rows_equal([dict(r.values) for r in target.scan()],
                      values_of(db, "book"))


@given(st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_recovery_preserves_committed_state(rng):
    """Restarting from the log reproduces exactly the committed source
    state, a loser left open rolled back."""
    run, history = _loaded_foj(rng)
    for entry in history:
        run.perform(*entry)
    loser = run.db.begin()
    for row in list(run.db.table("book").scan())[:1]:
        run.db.update(loser, "book", (row.values["bid"],), {"title": "x"})
    assert check_recovered(run, restart(run.log), run.log) == []


@given(configs("foj", shards=ONE, **SNAPSHOT))
@settings(max_examples=10, deadline=None)
def test_reader_pinned_before_flip_never_observes_new_schema(config):
    """A transaction whose snapshot was pinned before the version flip
    resolves names through the frozen catalog epoch: it keeps reading the
    retired source schema and can never see the published target -- for
    any workload history around the flip."""
    run = ScenarioRun(config)
    db, pinned = run.db, []

    def pin(run):
        if not pinned and db.catalog.version == 0:
            pinned.append((db.begin(), [row.values["bid"] for row
                                        in db.table("book").scan()][:3]))
        return False

    run.execute(until=pin)
    (reader, keys), = pinned
    assert db.catalog.version == 1
    # The pinned reader still resolves the retired pre-flip schema ...
    for key in keys:
        assert db.read(reader, "book", (key,)) is not None
    # ... and can never observe the new schema, not even by name.
    with pytest.raises(NoSuchTableError):
        db.read(reader, "book_pub", (keys[0],))
    db.abort(reader)
    # A transaction begun after the flip sees exactly the new schema.
    fresh = db.begin()
    with pytest.raises(NoSuchTableError):
        db.read(fresh, "book", (keys[0],))
    db.abort(fresh)
    assert check_completed(run) == []


@given(st.lists(st.tuples(st.integers(1, 6), st.integers(0, 5),
                          st.booleans()),
                min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_lock_manager_never_grants_incompatible_pairs(script):
    """Whatever the acquire/release sequence, the granted set on every
    resource stays mutually compatible."""
    from repro.common.errors import DeadlockError, LockWaitError
    from repro.concurrency import LockManager, LockMode
    from repro.concurrency.locks import compatible
    lm = LockManager()
    for txn, key, exclusive in script:
        resource = ("rec", 1, (key,))
        mode = LockMode.X if exclusive else LockMode.S
        try:
            lm.acquire(txn, resource, mode)
        except (LockWaitError, DeadlockError):
            if exclusive and key % 2:
                lm.release_all(txn)  # abort sometimes
        for res_key in range(6):
            holders = lm.holders(("rec", 1, (res_key,)))
            for i, a in enumerate(holders):
                for b in holders[i + 1:]:
                    assert compatible(a.mode, a.origin, b.mode, b.origin)
