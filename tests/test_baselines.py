"""The paper's two baselines, as population modes of the one framework.

``population_mode="blocking"`` is Section 1's ``INSERT INTO ... SELECT``
(the sources blocked and drained before the copy, until the swap);
``population_mode="trigger"`` is Ronström's method of Section 2.1
(triggers inside user transactions while the scan runs).
"""

import pytest

from repro import FojTransformation, Session, SplitTransformation
from repro.api import TransformOptions
from repro.common.errors import LockWaitError, NoSuchTableError
from repro.relational import full_outer_join, rows_equal, split
from repro.transform.base import Phase

from tests.conftest import (
    foj_spec,
    load_foj_data,
    load_split_data,
    split_spec,
    table_counters,
    values_of,
)
from tests.model import check_model, seeded

BLOCKING = TransformOptions(sync="blocking_commit",
                            population_mode="blocking")
TRIGGER = TransformOptions(population_mode="trigger")


# ---------------------------------------------------------------------------
# Blocking insert-into-select
# ---------------------------------------------------------------------------


def test_blocking_foj_result_correct(foj_db):
    load_foj_data(foj_db)
    spec = foj_spec(foj_db)
    r_rows, s_rows = values_of(foj_db, "R"), values_of(foj_db, "S")
    tf = FojTransformation(foj_db, spec, options=BLOCKING)
    tf.run()
    assert tf.done
    assert rows_equal(values_of(foj_db, "T"),
                      full_outer_join(spec, r_rows, s_rows))
    assert foj_db.catalog.table_names() == ["T"]


def test_blocking_split_result_correct(split_db):
    load_split_data(split_db, n=20)
    spec = split_spec(split_db)
    t_rows = values_of(split_db, "T")
    SplitTransformation(split_db, spec, options=BLOCKING).run()
    r_rows, s_rows, counters, _ = split(spec, t_rows)
    assert rows_equal(values_of(split_db, "T_r"), r_rows)
    assert rows_equal(values_of(split_db, "postal"), s_rows)
    assert table_counters(split_db, "postal") == counters


def test_blocking_baseline_blocks_for_entire_copy(foj_db):
    """The point of the paper: user operations stall for the whole copy,
    not just a sub-millisecond latch."""
    load_foj_data(foj_db, n_r=30, n_s=10)
    tf = FojTransformation(foj_db, foj_spec(foj_db), options=BLOCKING)
    tf.step(10)  # prepare + block
    txn = foj_db.begin()
    with pytest.raises(LockWaitError):
        foj_db.read(txn, "R", (1,))
    tf.step(10)  # drained: copying, still blocked
    assert tf.phase is Phase.POPULATING
    with pytest.raises(LockWaitError):
        foj_db.read(txn, "R", (1,))
    woken = []
    foj_db.on_wake = woken.extend
    tf.run()
    assert tf.stats["population_units"] >= 30  # blocked for the copy
    assert txn.txn_id in woken  # released only at the swap
    with pytest.raises(NoSuchTableError):
        foj_db.read(txn, "R", (1,))
    foj_db.abort(txn)


def test_blocking_baseline_blocked_copy_scales_with_size(foj_db):
    load_foj_data(foj_db, n_r=40, n_s=10)
    tf = FojTransformation(foj_db, foj_spec(foj_db), options=BLOCKING)
    tf.run()
    assert tf.stats["population_units"] > 40


def test_blocking_population_drains_a_writer_active_at_begin(split_db):
    """The begin mark waits for the drain, so the copy never reads a
    write that later aborts."""
    load_split_data(split_db, n=10)
    spec = split_spec(split_db)
    t_rows = values_of(split_db, "T")
    tf = SplitTransformation(split_db, spec, options=BLOCKING)
    writer = split_db.begin()
    split_db.update(writer, "T", (1,), {"name": "DIRTY"})
    for _ in range(3):
        tf.step(8)
    assert tf.phase is Phase.PREPARED  # still draining the writer
    assert split_db.catalog.is_blocked("T")
    split_db.abort(writer)
    tf.run()
    r_rows, s_rows, counters, _ = split(spec, t_rows)
    assert rows_equal(values_of(split_db, "T_r"), r_rows)
    assert rows_equal(values_of(split_db, "postal"), s_rows)
    assert not split_db.catalog.is_blocked("T_r")


def test_blocking_population_requires_blocking_commit():
    with pytest.raises(ValueError, match="blocking_commit"):
        TransformOptions(population_mode="blocking")


# ---------------------------------------------------------------------------
# Ronström trigger-based method
# ---------------------------------------------------------------------------


def test_ronstrom_foj_quiescent_correct(foj_db):
    load_foj_data(foj_db)
    spec = foj_spec(foj_db)
    r_rows, s_rows = values_of(foj_db, "R"), values_of(foj_db, "S")
    FojTransformation(foj_db, spec, options=TRIGGER).run()
    assert rows_equal(values_of(foj_db, "T"),
                      full_outer_join(spec, r_rows, s_rows))


def test_ronstrom_split_quiescent_correct(split_db):
    load_split_data(split_db, n=20)
    spec = split_spec(split_db)
    t_rows = values_of(split_db, "T")
    SplitTransformation(split_db, spec, options=TRIGGER).run()
    r_rows, s_rows, counters, _ = split(spec, t_rows)
    assert rows_equal(values_of(split_db, "T_r"), r_rows)
    assert table_counters(split_db, "postal") == counters


def test_ronstrom_triggers_charged_to_user_transactions(foj_db):
    """Section 2.1's critique: the maintenance work runs inside the user
    transaction -- visible here as trigger invocations during user ops."""
    load_foj_data(foj_db, n_r=10, n_s=5)
    tf = FojTransformation(foj_db, foj_spec(foj_db), options=TRIGGER)
    tf.step(3)  # prepare, install the triggers, scan three rows
    assert tf.phase is Phase.POPULATING
    before = foj_db.stats["trigger"]
    with Session(foj_db) as s:
        s.update("R", (1,), {"b": "x"})
    assert foj_db.stats["trigger"] == before + 1
    tf.run()
    # After population the triggers are gone.
    before = foj_db.stats["trigger"]
    with Session(foj_db) as s:
        s.update("T", (1,), {"b": "y"})
    assert foj_db.stats["trigger"] == before


def test_ronstrom_trigger_rollback_compensates(foj_db):
    load_foj_data(foj_db, n_r=8, n_s=4)
    spec = foj_spec(foj_db)
    tf = FojTransformation(foj_db, spec, options=TRIGGER)
    tf.step(2)  # triggers installed, scan barely started
    txn = foj_db.begin()
    foj_db.update(txn, "R", (1,), {"b": "dirty"})
    foj_db.abort(txn)  # trigger fires again for the CLR
    r_rows, s_rows = values_of(foj_db, "R"), values_of(foj_db, "S")
    tf.run()
    assert rows_equal(values_of(foj_db, "T"),
                      full_outer_join(spec, r_rows, s_rows))


@pytest.mark.parametrize("sync", ["nonblocking_abort", "nonblocking_commit",
                                  "version_flip", "blocking_commit"])
def test_trigger_population_leaves_an_open_writer_to_its_strategy(foj_db,
                                                                  sync):
    """A writer still open at the swap is doomed (non-blocking abort),
    carried across behind the lock mirror (non-blocking commit, version
    flip) or drained (blocking commit); none of its uncommitted write is
    published."""
    load_foj_data(foj_db, n_r=10, n_s=5)
    spec = foj_spec(foj_db)
    r_rows, s_rows = values_of(foj_db, "R"), values_of(foj_db, "S")
    tf = FojTransformation(foj_db, spec, options=TRIGGER.evolve(
        sync=sync, storage="mvcc" if sync == "version_flip" else "latch"))
    tf.step(3)
    writer = foj_db.begin()
    foj_db.update(writer, "R", (1,), {"b": "UNCOMMITTED"})
    for _ in range(200):
        if tf.step(4).done or tf.phase is Phase.BACKGROUND \
                or writer.is_finished:
            break
    if sync == "nonblocking_abort":
        assert writer.doomed and writer.is_finished
    else:
        assert not writer.is_finished
        assert tf.phase is (Phase.SYNCHRONIZING if sync == "blocking_commit"
                            else Phase.BACKGROUND)
        foj_db.abort(writer)
    tf.run()
    assert rows_equal(values_of(foj_db, "T"),
                      full_outer_join(spec, r_rows, s_rows))
    assert len(tf.locks_held) == 0


@pytest.mark.parametrize("seed", range(5))
def test_ronstrom_interleaved_converges(seed):
    check_model(seeded("foj:trigger", seed))
