"""Edge-case coverage: error payloads, step validation, CC backoff,
scale-factor parsing."""

import os

import pytest

from repro import Database, Session, TableSchema
from repro.common.errors import (
    DeadlockError,
    DuplicateKeyError,
    InconsistentDataError,
    LockWaitError,
    NoSuchRowError,
    NoSuchTableError,
    TransactionAbortedError,
)
from repro.transform.base import Phase, StepReport
from repro.wal.records import (
    CheckpointRecord,
    CreateTableRecord,
    DropTableRecord,
    TransformSwapRecord,
)


# ---------------------------------------------------------------------------
# Error payloads (callers dispatch on these attributes)
# ---------------------------------------------------------------------------


def test_error_payload_attributes():
    assert NoSuchTableError("t").table_name == "t"
    assert DuplicateKeyError("t", (1,)).key == (1,)
    assert NoSuchRowError("t", (2,)).key == (2,)
    err = LockWaitError(("rec", 1, (3,)), 7)
    assert err.resource == ("rec", 1, (3,)) and err.txn_id == 7
    dead = DeadlockError(5, (5, 6))
    assert dead.txn_id == 5 and dead.cycle == (5, 6)
    bad = InconsistentDataError(((7050,),))
    assert (7050,) in bad.split_values
    aborted = TransactionAbortedError(9, "reason")
    assert aborted.txn_id == 9 and "reason" in str(aborted)


# ---------------------------------------------------------------------------
# Transformation step validation
# ---------------------------------------------------------------------------


def test_step_rejects_nonpositive_budget(foj_db):
    from repro import FojTransformation
    from tests.conftest import foj_spec, load_foj_data
    load_foj_data(foj_db, n_r=3, n_s=2)
    tf = FojTransformation(foj_db, foj_spec(foj_db))
    with pytest.raises(ValueError):
        tf.step(0)
    tf.abort()


def test_rejected_budget_leaves_no_trace(foj_db):
    """Regression: ``step(0)`` opened the root and phase spans and
    crossed the ``tf.step`` fault site before raising."""
    from repro import FojTransformation
    from repro.api import Metrics, TransformOptions
    from repro.faults import FaultInjector
    from tests.conftest import foj_spec, load_foj_data
    load_foj_data(foj_db, n_r=3, n_s=2)
    faults = FaultInjector()
    foj_db.attach_faults(faults)
    tf = FojTransformation(foj_db, foj_spec(foj_db),
                           options=TransformOptions(metrics=Metrics()))
    with pytest.raises(ValueError):
        tf.step(0)
    assert tf._tf_span is None and tf._phase_span is None
    assert faults.hits == {}
    assert tf.phase is Phase.CREATED


def test_the_machine_is_the_papers_four_steps(foj_db):
    """The transition table, edge by edge: a new edge is a reviewed diff.
    An edge the table does not list raises."""
    from repro import FojTransformation, MaterializedFojView
    from repro.common.errors import TransformationStateError
    from repro.transform.base import Transformation
    from tests.conftest import foj_spec, load_foj_data

    def edges(cls):
        return sorted((old.value, new.value)
                      for old, (_, successors) in cls.MACHINE.items()
                      for new in successors)

    assert edges(Transformation) == sorted([
        ("created", "prepared"), ("created", "aborted"),
        ("prepared", "populating"), ("prepared", "aborted"),
        ("populating", "propagating"), ("populating", "aborted"),
        ("propagating", "synchronizing"), ("propagating", "aborted"),
        ("synchronizing", "background"), ("synchronizing", "done"),
        ("synchronizing", "aborted"),
        ("background", "done"),
    ])
    assert set(edges(MaterializedFojView)) - set(edges(Transformation)) \
        == {("done", "aborted")}
    load_foj_data(foj_db, n_r=3, n_s=2)
    tf = FojTransformation(foj_db, foj_spec(foj_db))
    tf.step(1)
    assert tf.phase is Phase.POPULATING
    with pytest.raises(TransformationStateError):
        tf._enter(Phase.DONE)
    assert tf.phase is Phase.POPULATING and tf.check_invariants() == []
    tf.abort()


def test_step_after_done_is_noop(foj_db):
    from repro import FojTransformation
    from tests.conftest import foj_spec, load_foj_data
    load_foj_data(foj_db, n_r=3, n_s=2)
    tf = FojTransformation(foj_db, foj_spec(foj_db))
    tf.run()
    report = tf.step(100)
    assert report.done and report.units == 0 and report.phase is Phase.DONE


def test_abort_after_done_rejected(foj_db):
    from repro import FojTransformation, TransformationError
    from repro.common.errors import TransformationStateError
    from tests.conftest import foj_spec, load_foj_data
    load_foj_data(foj_db, n_r=3, n_s=2)
    tf = FojTransformation(foj_db, foj_spec(foj_db))
    tf.run()
    with pytest.raises(TransformationStateError):
        tf.abort()


# ---------------------------------------------------------------------------
# Consistency-checker backoff
# ---------------------------------------------------------------------------


def test_cc_backs_off_on_genuine_inconsistency(split_db):
    from repro import SplitTransformation
    from tests.conftest import split_spec
    with Session(split_db) as s:
        s.insert("T", {"id": 1, "name": "a", "zip": 1, "city": "X"})
        s.insert("T", {"id": 2, "name": "b", "zip": 1, "city": "Y"})
    tf = SplitTransformation(split_db, split_spec(split_db),
                             check_consistency=True,
                             on_inconsistent="wait")
    for _ in range(30):
        tf.step(64)
    started = tf.checker.stats["started"]
    # Without backoff this would be ~one check per step; with the
    # cooldown of 8 it is bounded well below the step count.
    assert started < 12


# ---------------------------------------------------------------------------
# DDL / swap / checkpoint record descriptions
# ---------------------------------------------------------------------------


def test_new_record_kinds():
    assert CreateTableRecord().kind == "createtable"
    assert DropTableRecord(table="t").kind == "droptable"
    assert TransformSwapRecord().kind == "transformswap"
    assert CheckpointRecord().kind == "checkpoint"


def test_swap_record_carries_inventory():
    record = TransformSwapRecord(transform_id="x",
                                 transform_kind="foj",
                                 retired=("R", "S"),
                                 published={"T": None},
                                 doomed_txns=(4, 5))
    assert record.retired == ("R", "S")
    assert record.doomed_txns == (4, 5)


# ---------------------------------------------------------------------------
# Simulator configuration parsing
# ---------------------------------------------------------------------------


def test_scale_factor_env(monkeypatch):
    from repro.sim import scale_factor
    monkeypatch.delenv("REPRO_FULL_SCALE", raising=False)
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    assert scale_factor() == 0.1
    monkeypatch.setenv("REPRO_SCALE", "0.25")
    assert scale_factor() == 0.25
    monkeypatch.setenv("REPRO_FULL_SCALE", "1")
    assert scale_factor() == 1.0


def test_server_priority_bounds():
    from repro.sim import Server, Simulator
    server = Server(Simulator())
    with pytest.raises(ValueError):
        server.set_background(object(), 1.5)
    with pytest.raises(ValueError):
        server.set_background(object(), -0.1)
