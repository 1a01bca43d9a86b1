"""End-to-end tests for the FOJ transformation (one-to-many and m2m)."""

import random

import pytest

from repro.api import TransformOptions
from repro import (
    Database,
    FixedIterationsPolicy,
    FojSpec,
    FojTransformation,
    Many2ManyFojTransformation,
    Phase,
    Session,
    SyncStrategy,
    TableSchema,
    TransformationError,
)
from repro.common.errors import (
    TransformationAbortedError,
    TransformationStateError,
)
from repro.relational import full_outer_join, rows_equal
from repro.transform.analysis import Decision, RemainingRecordsPolicy

from tests.conftest import (
    R_SCHEMA,
    S_SCHEMA,
    foj_spec,
    load_foj_data,
    values_of,
)
from tests.model import check_model, seeded


def run_quiescent(foj_db, **tf_kwargs):
    load_foj_data(foj_db)
    spec = foj_spec(foj_db)
    r_rows, s_rows = values_of(foj_db, "R"), values_of(foj_db, "S")
    tf = FojTransformation(foj_db, spec, **tf_kwargs)
    tf.run()
    return tf, spec, r_rows, s_rows


def test_quiescent_result_matches_oracle(foj_db):
    tf, spec, r_rows, s_rows = run_quiescent(foj_db)
    assert tf.done
    expected = full_outer_join(spec, r_rows, s_rows)
    assert rows_equal(values_of(foj_db, "T"), expected)


def test_sources_dropped_and_target_published(foj_db):
    run_quiescent(foj_db)
    assert foj_db.catalog.table_names() == ["T"]
    assert not foj_db.catalog.is_zombie("R")  # no old txns: fully dropped


def test_target_indexes_usable_after_completion(foj_db):
    """Section 3.1: indices created during preparation 'will be up to date
    when the transformation is complete'."""
    from repro.transform.foj import JOIN_INDEX
    run_quiescent(foj_db)
    t = foj_db.table("T")
    for row in t.scan():
        value = row.values["c"]
        if value is not None:
            assert row.rowid in t.index(JOIN_INDEX).lookup((value,))


def test_fuzzy_marks_bracket_the_transformation(foj_db):
    tf, *_ = run_quiescent(foj_db)
    marks = [r for r in foj_db.log.scan()
             if r.kind == "fuzzymark" and r.transform_id == tf.transform_id]
    phases = [m.phase for m in marks]
    assert phases[0] == "begin"
    assert phases[-1] == "end"
    assert "cycle" in phases


def test_stepwise_driving_with_small_budgets(foj_db):
    load_foj_data(foj_db)
    spec = foj_spec(foj_db)
    r_rows, s_rows = values_of(foj_db, "R"), values_of(foj_db, "S")
    tf = FojTransformation(foj_db, spec)
    steps = 0
    while not tf.step(2).done:
        steps += 1
        assert steps < 10000
    assert rows_equal(values_of(foj_db, "T"),
                      full_outer_join(spec, r_rows, s_rows))


def test_interleaved_workload_converges():
    """The headline property: arbitrary interleaved user transactions
    (including aborts and join-attribute updates) between transformation
    steps; the final T equals the oracle join of the final sources."""
    check_model(seeded("foj", 7))


def test_propagated_lock_table_tracks_active_txns(foj_db):
    load_foj_data(foj_db, n_r=10, n_s=5)
    spec = foj_spec(foj_db)
    tf = FojTransformation(foj_db, spec,
                           options=TransformOptions(policy=FixedIterationsPolicy(10**9)))
    # Population first.
    while tf.phase is not Phase.PROPAGATING:
        tf.step(4096)
    txn = foj_db.begin()
    foj_db.update(txn, "R", (1,), {"b": "locked"})
    for _ in range(3):  # propagate the update (next iteration picks it up)
        tf.step(4096)
    assert tf.locks_held.resources_of(txn.txn_id)  # entry recorded
    foj_db.commit(txn)
    for _ in range(3):  # propagate the end record
        tf.step(4096)
    assert not tf.locks_held.resources_of(txn.txn_id)  # released


def test_abort_transformation_drops_targets(foj_db):
    load_foj_data(foj_db)
    spec = foj_spec(foj_db)
    tf = FojTransformation(foj_db, spec)
    tf.step(50)  # partially populated
    tf.abort()
    assert tf.phase is Phase.ABORTED
    assert not foj_db.catalog.exists("T")
    assert foj_db.catalog.exists("R") and foj_db.catalog.exists("S")
    # Aborting twice is allowed.
    tf.abort()
    # Further steps are no-ops reporting the aborted phase.
    report = tf.step(10)
    assert report.phase is Phase.ABORTED and not report.done


def test_run_detects_stall():
    db = Database()
    db.create_table(TableSchema("R", ["a", "b", "c"], primary_key=["a"]))
    db.create_table(TableSchema("S", ["c", "d"], primary_key=["c"]))
    with Session(db) as s:
        for i in range(5):
            s.insert("R", {"a": i, "b": 0, "c": i})

    class AlwaysStalled(RemainingRecordsPolicy):
        def decide(self, series) -> Decision:
            return Decision.STALLED

    tf = FojTransformation(db, foj_spec(db), options=TransformOptions(policy=AlwaysStalled()))
    with pytest.raises(TransformationAbortedError):
        tf.run()
    assert tf.phase is Phase.ABORTED


def _foj_under_updates(options, propagation_steps):
    """A FOJ of 40 R / 8 S rows at budget 8, one committed R update before
    each of its first ``propagation_steps`` propagation steps; returns
    ``"done"`` or ``"stalled"`` and the lag series."""
    db = Database()
    db.create_table(R_SCHEMA)
    db.create_table(S_SCHEMA)
    with Session(db) as s:
        for i in range(40):
            s.insert("R", {"a": i, "b": 0, "c": i % 8})
        for c in range(8):
            s.insert("S", {"c": c, "d": 0, "e": 0})
    tf = FojTransformation(db, foj_spec(db), options=options)
    updates = 0
    for _ in range(1000):
        if tf.phase is Phase.PROPAGATING and updates < propagation_steps:
            updates += 1
            with Session(db) as s:
                s.update("R", (updates % 40,), {"b": updates})
        report = tf.step(8)
        if report.done or report.stalled:
            lags = [p.lag for p in tf.convergence.points]
            return ("done" if report.done else "stalled"), lags
    raise AssertionError("neither done nor stalled")


def test_one_policy_serves_transformations_that_share_options():
    """Policies hold no state: a second FOJ built from the options a first
    one stalled with decides from its own series, as a fresh policy
    does."""
    options = TransformOptions(
        policy=RemainingRecordsPolicy(max_remaining=2, patience=3))
    assert _foj_under_updates(options, 1000) == ("stalled", [5, 5, 5])
    fresh = TransformOptions(
        policy=RemainingRecordsPolicy(max_remaining=2, patience=3))
    assert _foj_under_updates(fresh, 2) == ("done", [5, 5, 0])
    assert _foj_under_updates(options, 2) == ("done", [5, 5, 0])


def test_spec_guard_rejects_m2m_spec(foj_db):
    spec = foj_spec(foj_db)
    object.__setattr__(spec, "many_to_many", True)
    with pytest.raises(TransformationError):
        FojTransformation(foj_db, spec)


# ---------------------------------------------------------------------------
# Many-to-many
# ---------------------------------------------------------------------------

R2 = TableSchema("R", ["a", "b", "c"], primary_key=["a"])
S2 = TableSchema("S", ["k", "c", "d"], primary_key=["k"])


def make_m2m_db(seed=3, n_r=15, n_s=10, n_join=5):
    db = Database()
    db.create_table(R2)
    db.create_table(S2)
    rng = random.Random(seed)
    with Session(db) as s:
        for i in range(n_r):
            s.insert("R", {"a": i, "b": i, "c": rng.randrange(n_join + 2)})
        for k in range(n_s):
            s.insert("S", {"k": k, "c": rng.randrange(n_join + 2),
                           "d": f"d{k}"})
    spec = FojSpec.derive(R2, S2, "T", "c", "c", many_to_many=True)
    return db, spec


def test_m2m_quiescent_matches_oracle():
    db, spec = make_m2m_db()
    r_rows, s_rows = values_of(db, "R"), values_of(db, "S")
    Many2ManyFojTransformation(db, spec).run()
    assert rows_equal(values_of(db, "T"),
                      full_outer_join(spec, r_rows, s_rows))


def test_m2m_requires_m2m_spec():
    db, spec = make_m2m_db()
    bad = FojSpec.derive(R2, S2, "T2", "c", "c", many_to_many=False)
    with pytest.raises(TransformationError):
        Many2ManyFojTransformation(db, bad)


@pytest.mark.parametrize("seed", range(6))
def test_m2m_interleaved_converges(seed):
    check_model(seeded("foj_m2m", seed))


