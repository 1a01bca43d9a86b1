"""Tests for analysis policies, checkpointing, column drops and other
pieces added beyond the first green build."""

import pytest

from repro import Database, Session, TableSchema, restart
from repro.common.errors import SchemaError
from repro.storage import Table
from repro.obs import ConvergenceMonitor, Metrics
from repro.transform.analysis import (
    Decision,
    EstimatedTimePolicy,
    FixedIterationsPolicy,
    RemainingRecordsPolicy,
)


# ---------------------------------------------------------------------------
# Analysis policies (Section 3.3's three suggested analyses)
# ---------------------------------------------------------------------------


def decisions(policy, *lags, propagated=100, units=100):
    """Feed one series point per lag (iterations 1, 2, ...), deciding
    after each as ``Transformation._finish_iteration`` does."""
    series = ConvergenceMonitor(Metrics())
    verdicts = []
    for iteration, lag in enumerate(lags, 1):
        series.observe_iteration(iteration=iteration, produced=0,
                                 consumed=0, lag=lag, records=propagated,
                                 units=units)
        verdicts.append(policy.decide(series))
    return verdicts


def test_remaining_records_policy_synchronizes_when_few_remain():
    policy = RemainingRecordsPolicy(max_remaining=10)
    assert decisions(policy, 5, 10, 11) == [
        Decision.SYNCHRONIZE, Decision.SYNCHRONIZE, Decision.ITERATE]


def test_remaining_records_policy_declares_stall():
    policy = RemainingRecordsPolicy(max_remaining=10, patience=3)
    assert Decision.STALLED in decisions(policy, *range(101, 106))
    # Shrinking backlog resets the verdict.
    assert decisions(policy, 100, 90, 80, 70, 60) == [Decision.ITERATE] * 5


def test_remaining_records_policy_validates():
    with pytest.raises(ValueError):
        RemainingRecordsPolicy(max_remaining=-1)


@pytest.mark.parametrize("make", [
    lambda: RemainingRecordsPolicy(patience=0),
    lambda: RemainingRecordsPolicy(patience=-3),
    lambda: RemainingRecordsPolicy(
        patience=ConvergenceMonitor.CAPACITY + 1),
    lambda: EstimatedTimePolicy(patience=0),
    lambda: EstimatedTimePolicy(max_estimated_units=-1),
], ids=["remaining-patience-0", "remaining-patience-negative",
        "remaining-patience-beyond-series", "estimated-patience-0",
        "estimated-units-negative"])
def test_policies_reject_bad_arguments(make):
    """``patience=0`` used to never stall (``history[-0:]`` is the whole
    list); a patience the bounded series cannot hold could never fire."""
    with pytest.raises(ValueError):
        make()


def test_estimated_time_policy_uses_per_record_cost():
    policy = EstimatedTimePolicy(max_estimated_units=50)
    # 100 remaining at 1 unit/record -> 100 > 50: iterate.
    assert decisions(policy, 100, propagated=100, units=100) == \
        [Decision.ITERATE]
    # 100 remaining at 0.25 units/record -> 25 <= 50: synchronize.
    assert decisions(policy, 100, propagated=400, units=100) == \
        [Decision.SYNCHRONIZE]


def test_estimated_time_policy_charges_idle_iterations_per_record():
    """An idle iteration measures no cost (the point's estimate is 0);
    the policy charges one unit per remaining record instead."""
    policy = EstimatedTimePolicy(max_estimated_units=50)
    assert decisions(policy, 51, propagated=0, units=0) == \
        [Decision.ITERATE]
    assert decisions(policy, 50, propagated=0, units=0) == \
        [Decision.SYNCHRONIZE]


def test_estimated_time_policy_stall():
    policy = EstimatedTimePolicy(max_estimated_units=1, patience=2)
    assert decisions(policy, 1000, 1000) == \
        [Decision.ITERATE, Decision.STALLED]


def test_fixed_iterations_policy():
    policy = FixedIterationsPolicy(3)
    assert decisions(policy, 0, 0, 0)[1:] == \
        [Decision.ITERATE, Decision.SYNCHRONIZE]
    with pytest.raises(ValueError):
        FixedIterationsPolicy(0)


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------


def test_checkpoint_bounds_analysis_and_preserves_losers():
    db = Database()
    db.create_table(TableSchema("t", ["id", "x"], primary_key=["id"]))
    with Session(db) as s:
        for i in range(4):
            s.insert("t", {"id": i, "x": i})
    loser = db.begin()
    db.update(loser, "t", (0,), {"x": "dirty"})
    db.checkpoint()  # loser is active at the checkpoint
    with Session(db) as s:
        s.update("t", (1,), {"x": "post"})
    recovered = restart(db.log)
    values = {r.values["id"]: r.values["x"]
              for r in recovered.table("t").scan()}
    assert values[0] == 0        # loser rolled back (found via checkpoint)
    assert values[1] == "post"   # post-checkpoint commit kept


def test_checkpoint_with_no_active_txns():
    db = Database()
    db.create_table(TableSchema("t", ["id"], primary_key=["id"]))
    with Session(db) as s:
        s.insert("t", {"id": 1})
    lsn = db.checkpoint()
    assert db.log.record_at(lsn).active_txns == {}
    recovered = restart(db.log)
    assert recovered.table("t").row_count == 1


def test_multiple_checkpoints_latest_wins():
    db = Database()
    db.create_table(TableSchema("t", ["id"], primary_key=["id"]))
    db.checkpoint()
    with Session(db) as s:
        s.insert("t", {"id": 1})
    db.checkpoint()
    loser = db.begin()
    db.insert(loser, "t", {"id": 2})
    recovered = restart(db.log)
    assert recovered.table("t").row_count == 1


# ---------------------------------------------------------------------------
# Table.drop_attributes
# ---------------------------------------------------------------------------


def make_table():
    table = Table(TableSchema("t", ["id", "a", "b"], primary_key=["id"]))
    table.create_index("by_a", ["a"])
    table.create_index("by_b", ["b"])
    table.insert_row({"id": 1, "a": "x", "b": "y"})
    return table


def test_drop_attributes_strips_schema_rows_and_indexes():
    table = make_table()
    table.drop_attributes(["b"])
    assert table.schema.attribute_names == ("id", "a")
    assert "b" not in table.get((1,)).values
    assert "by_b" not in table.indexes
    assert "by_a" in table.indexes
    table.insert_row({"id": 2, "a": "z"})  # schema fully consistent


def test_drop_attributes_rejects_key_and_missing():
    table = make_table()
    with pytest.raises(SchemaError):
        table.drop_attributes(["id"])
    with pytest.raises(SchemaError):
        table.drop_attributes(["nope"])
    table.drop_attributes([])  # no-op


def test_drop_attributes_drops_multi_column_index_touching_dropped():
    table = Table(TableSchema("t", ["id", "a", "b"], primary_key=["id"]))
    table.create_index("ab", ["a", "b"])
    table.drop_attributes(["b"])
    assert "ab" not in table.indexes


# -- benchmarks/pairs.py: the --require gate ----------------------------------


def test_pairs_require_gate():
    from benchmarks.pairs import unmet, verdict

    parent, change = [1.5, 1.4, 1.6, 1.5] * 3, [1.0, 1.1, 0.9, 1.0] * 3
    won, word = verdict(parent, change, -0.5, 0.1, False, 0.25)
    assert (won, word) == (12, "gain")
    assert verdict(change, parent, 0.5, 0.1, False, 0.25)[1] == "WORSE"
    readings = {
        "oltp_durable": {"time_to_ready_s": {"verdict": "gain"},
                         "setup_s": {"verdict": "held"}},
        "foj_catchup": {"time_to_ready_s": {"verdict": "held"}}}
    claim = [("time_to_ready_s", "oltp_durable")]
    assert unmet(readings, claim) == []
    assert unmet(readings, []) == []
    assert len(unmet(readings, [("setup_s", "oltp_durable")])) == 1
    readings["foj_catchup"]["time_to_ready_s"]["verdict"] = "WORSE"
    assert unmet(readings, claim) == [
        "time_to_ready_s on foj_catchup is WORSE"]
    # Nothing required: the tool reports and exits 0, as before.
    assert unmet(readings, []) == []


# -- benchmarks/profile.py: the committed profile entry point -----------------


def test_profile_entry_point_smoke():
    import io

    from benchmarks.profile import main

    out = io.StringIO()
    assert main(["oltp_durable", "--quick", "--top", "5", "--sort",
                 "cumtime"], out=out) == 0
    report = out.getvalue()
    assert "Ordered by: cumulative time" in report
    assert "(timed)" in report and "total calls: " in report


def test_profile_refuses_the_catch_up_under_cprofile(capsys):
    """Under cProfile foj_catchup's throttled catch-up never reaches the
    swap (the timed section gave up after two minutes): the entry point
    refuses at once and names the two modes that work."""
    from benchmarks.profile import main

    with pytest.raises(SystemExit) as refused:
        main(["foj_catchup", "--quick"])
    assert refused.value.code == 2
    message = capsys.readouterr().err.strip().splitlines()[-1]
    assert "--drain" in message and "--heap" in message
