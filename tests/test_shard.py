"""Tests for ``TransformOptions(shards=N)`` (:mod:`repro.shard`).

Covers the shard map (determinism, balance), the one population scan
under several shard accounts (same rows, same order, per-shard charge),
the one propagation loop under several shard accounts (log read once,
budget bound, unrouted records, the single cursor and its convergence
series), the handover into the unchanged synchronization pipeline,
partial-shard crash recovery, and the WAL scan-snapshot contract.
"""

import pytest

from repro import (
    Database,
    FojTransformation,
    Phase,
    Session,
    SplitTransformation,
    TableSchema,
    restart,
)
from repro.common.errors import SimulatedCrashError
from repro.faults import CrashFault, FaultInjector, FaultPlan
from repro.relational import full_outer_join, rows_equal, split
from repro.shard import ShardPlanner, stable_shard_hash
from repro.transform.analysis import FixedIterationsPolicy
from repro.wal.log import LogManager
from repro.wal.records import data_change_of

from tests import scan_contract
from tests.conftest import (
    T_SPLIT_SCHEMA,
    foj_spec,
    load_foj_data,
    load_split_data,
    split_spec,
    values_of,
)
from repro.api import TransformOptions


# ---------------------------------------------------------------------------
# Planner: the shard map
# ---------------------------------------------------------------------------


def test_stable_hash_is_deterministic_across_processes():
    # crc32 of the key's repr: no dependence on PYTHONHASHSEED.
    assert stable_shard_hash((1, "x")) == stable_shard_hash((1, "x"))
    assert stable_shard_hash((7,)) == stable_shard_hash((7,))
    assert stable_shard_hash([7]) == stable_shard_hash((7,))


def test_planner_routes_every_key_to_one_shard():
    planner = ShardPlanner(4)
    for key in [(i,) for i in range(100)]:
        shard = planner.shard_of(key)
        assert 0 <= shard < 4
        assert planner.shard_of(key) == shard  # stable


def test_planner_balance_is_reasonable():
    planner = ShardPlanner(4)
    hist = planner.histogram([(i,) for i in range(1000)])
    assert sum(hist.values()) == 1000
    assert min(hist.values()) > 150  # no starved shard on uniform keys


# ---------------------------------------------------------------------------
# Sharded population: one scan, N accounts
# ---------------------------------------------------------------------------
# What a scan owes its callers is the parametrised contract in
# tests/scan_contract.py (run over every configuration by
# tests/test_fuzzy.py::test_scan_contract).  The first three ids below
# are its ``plain`` rows, kept under the names the test floor knows them
# by.


def test_planner_partition_rowids_covers_table_exactly_once():
    """The shard map partitions a table: every row is charged to exactly
    the account ``shard_of`` names, and the accounts sum to the table."""
    scan_contract.every_live_row_is_handed_out_exactly_once(
        scan_contract.ScanCase("plain", shards=3))


def test_sharded_populator_never_yields_empty_chunk_mid_scan():
    """Regression: a chunk emptied by deletions surfaced as ``[]`` before
    true exhaustion, which population steps read as "done"."""
    scan_contract.empty_return_always_means_exhausted(
        scan_contract.ScanCase("plain", shards=4))


def test_sharded_populator_nonpositive_limit_is_a_noop():
    scan_contract.nonpositive_limit_is_a_noop(
        scan_contract.ScanCase("plain", shards=2))


def test_shards_n_hands_rows_out_in_shards_1_order():
    """``shards=N`` is accounting, not scheduling: the same rows come out
    in the same (table) order as ``shards=1``, chunk for chunk."""
    for kind in scan_contract.KINDS:
        chunked = {}
        for shards in (1, 2, 3, 8):
            _, scan = scan_contract.ScanCase(kind, shards).build(40, 7)
            chunked[shards] = [[values["id"] for values, _lsn in chunk]
                               for chunk in scan]
            assert all(n > 0 for n in scan.rows_per_shard)
        assert chunked[1][0] == list(range(7))
        assert chunked[2] == chunked[3] == chunked[8] == chunked[1], kind


def test_sharded_population_matches_sequential(foj_db):
    load_foj_data(foj_db, n_r=25, n_s=6)
    spec = foj_spec(foj_db)
    tf = FojTransformation(foj_db, spec, options=TransformOptions(shards=3))
    tf.run()
    assert rows_equal(
        values_of(foj_db, "T"),
        full_outer_join(spec, *_foj_source_rows()))


def _foj_source_rows():
    oracle_db = Database()
    oracle_db.create_table(TableSchema("R", ["a", "b", "c"],
                                       primary_key=["a"]))
    oracle_db.create_table(TableSchema("S", ["c", "d", "e"],
                                       primary_key=["c"]))
    load_foj_data(oracle_db, n_r=25, n_s=6)
    return values_of(oracle_db, "R"), values_of(oracle_db, "S")


# ---------------------------------------------------------------------------
# shards=N as a parameter of the one pipeline
# ---------------------------------------------------------------------------


def test_shards_1_never_builds_a_coordinator(monkeypatch):
    """``shards=1`` keeps no shard accounts, so the default path pays no
    routing call and no planner hash per row or record -- in population
    (eager and lazy alike) or in propagation."""

    def forbidden(*args):
        raise AssertionError("routing must not run for shards=1")

    monkeypatch.setattr("repro.transform.split.SplitRuleEngine.shard_route",
                        forbidden)
    monkeypatch.setattr(ShardPlanner, "shard_of", forbidden)
    monkeypatch.setattr("repro.shard.planner.stable_shard_hash", forbidden)

    for mode in ("eager", "lazy"):
        db = Database()
        db.create_table(T_SPLIT_SCHEMA)
        load_split_data(db, n=15)
        tf = SplitTransformation(db, split_spec(db), options=TransformOptions(
            shards=1, population_mode=mode,
            policy=FixedIterationsPolicy(3)))

        def update_t():
            with Session(db) as s:
                s.update("T", (3,), {"name": "u3"})

        _drive_with_workload(db, tf, [update_t, update_t])
        assert tf.done, mode
        assert tf.stats["propagated_records"] > 0
        assert tf.stats["population_units"] == 15
        assert tf.shard_summary() == []


def test_shards_validation(split_db):
    load_split_data(split_db, n=5)
    with pytest.raises(ValueError):
        SplitTransformation(split_db, split_spec(split_db), options=TransformOptions(shards=0))


# ---------------------------------------------------------------------------
# The one propagation loop under several shard accounts
# ---------------------------------------------------------------------------


def _drive_with_workload(db, tf, ops, budget=12, max_steps=2000,
                         each_step=None):
    """Step ``tf``, popping one workload thunk between steps.

    ``each_step(entered_phase, report)`` observes every step.  Returns
    the number of thunks that actually ran (the pipeline may reach
    synchronization before the list drains)."""
    ops = list(ops)
    ran = 0
    for _ in range(max_steps):
        entered = tf.phase
        report = tf.step(budget)
        if each_step is not None:
            each_step(entered, report)
        if report.done:
            return ran
        if ops and tf.phase in (Phase.POPULATING, Phase.PROPAGATING):
            ops.pop(0)()
            ran += 1
    raise AssertionError(f"not done; phase={tf.phase.value}")


def _source_changes(db, tf, from_lsn, to_lsn):
    """Data changes on ``tf``'s source tables within an LSN range."""
    changes = (data_change_of(r) for r in db.log.scan(from_lsn, to_lsn))
    return [c for c in changes
            if c is not None and c.table in tf.source_tables]


def _foj_tail(db, n):
    """A fixed log tail: R updates (routed) with S updates (unrouted)."""
    s_key = next(iter(values_of(db, "S")))["c"]
    for i in range(n):
        with Session(db) as s:
            s.update("R", (i,), {"b": f"u{i}"})
            if i % 4 == 0:
                s.update("S", (s_key,), {"d": f"d{i}"})


def _catch_up(tf, budget, max_steps=2000):
    """Step until propagation has consumed the whole log."""
    for _ in range(max_steps):
        if tf.phase is Phase.PROPAGATING and not tf._remaining():
            return
        tf.step(budget)
    raise AssertionError(f"did not catch up; remaining={tf._remaining()}")


@pytest.mark.parametrize("budget", [1, 32])
@pytest.mark.parametrize("shards", [1, 2, 4, 8])
def test_log_tail_is_read_once(foj_db, monkeypatch, shards, budget):
    """Every shard count and step budget (hence slice size) fetches each
    record of the shared log exactly once: there is one cursor, not one
    per shard."""
    load_foj_data(foj_db, n_r=24, n_s=6)
    tf = FojTransformation(foj_db, foj_spec(foj_db), options=TransformOptions(shards=shards, policy=FixedIterationsPolicy(10**9)))
    _catch_up(tf, 64)
    _foj_tail(foj_db, 24)
    tail = tf._remaining()
    assert tail > 24

    fetched = []
    records_slice, record_at = LogManager.records_slice, LogManager.record_at

    def counting_slice(self, lo, hi):
        out = records_slice(self, lo, hi)
        fetched.extend(r.lsn for r in out)
        return out

    def counting_at(self, lsn):
        fetched.append(lsn)
        return record_at(self, lsn)

    monkeypatch.setattr(LogManager, "records_slice", counting_slice)
    monkeypatch.setattr(LogManager, "record_at", counting_at)
    before = tf.stats["propagated_records"]
    _catch_up(tf, budget)
    propagated = tf.stats["propagated_records"] - before
    assert propagated >= tail
    assert len(fetched) == propagated
    assert len(set(fetched)) == len(fetched)


@pytest.mark.parametrize("budget", [1, 7, 64])
@pytest.mark.parametrize("shards", [1, 3])
def test_propagation_step_stays_within_one_unit_of_budget(foj_db, shards,
                                                          budget):
    """The slice cap bounds a step's overshoot: at most one unit past
    the budget, for budgets below, near and above ``PROPAGATION_SLICE``
    and every shard count."""
    load_foj_data(foj_db, n_r=24, n_s=6)
    tf = FojTransformation(foj_db, foj_spec(foj_db), options=TransformOptions(shards=shards, policy=FixedIterationsPolicy(4)))
    while tf.phase is not Phase.PROPAGATING:
        tf.step(64)
    for _ in range(4):  # a tail longer than the largest budget
        _foj_tail(foj_db, 24)
    spent = []

    def check(entered, report):
        if entered is Phase.PROPAGATING:
            assert report.units <= budget + 1
            spent.append(report.units)

    _drive_with_workload(foj_db, tf, [], budget=budget, each_step=check)
    assert max(spent) >= budget - 1  # the budget was actually binding


def test_foj_s_update_is_applied_exactly_once_under_shards(foj_db):
    """An S-side update has no single-shard home (it fans out to the
    carrier rows of many R keys): it is applied inline, in LSN order,
    exactly once, and reaches every carrier row."""
    load_foj_data(foj_db, n_r=30, n_s=6)
    spec = foj_spec(foj_db)
    tf = FojTransformation(foj_db, spec, options=TransformOptions(shards=2, policy=FixedIterationsPolicy(4)))
    s_key = next(iter(values_of(foj_db, "S")))["c"]
    tf.prepare()
    s_applies = []
    apply_run = tf.engine.apply_run

    def spy(table_name, kind, items):
        if table_name == "S":
            s_applies.extend(lsn for _change, lsn, _txn_id in items)
        return apply_run(table_name, kind, items)

    tf.engine.apply_run = spy

    def update_s(value):
        def run():
            with Session(foj_db) as s:
                s.update("S", (s_key,), {"d": value})
        return run

    ran = _drive_with_workload(foj_db, tf,
                               [update_s("stale"), update_s("fresh")])
    assert ran == 2
    s_updates = [c for c in _source_changes(foj_db, tf, 1, foj_db.log.end_lsn)
                 if c.table == "S" and c.kind == "update"]
    assert sorted(s_applies) == sorted(c.lsn for c in s_updates)
    assert len(s_applies) == 2
    assert tf.shard_summary()[-1] == {
        "shard": "unrouted", "applied": 2, "population_rows": []}
    carriers = [r for r in values_of(foj_db, "T") if r["c"] == s_key]
    assert carriers and all(r["d"] == "fresh" for r in carriers)


def test_split_updates_route_without_barriers(split_db):
    """Every split data change has a single-shard home: all applies are
    charged to a shard account, none serially."""
    load_split_data(split_db, n=30, n_zip=5)
    tf = SplitTransformation(split_db, split_spec(split_db), options=TransformOptions(shards=2, policy=FixedIterationsPolicy(3)))

    def update_t(i):
        def run():
            with Session(split_db) as s:
                s.update("T", (i,), {"name": f"u{i}"})
        return run

    ran = _drive_with_workload(split_db, tf,
                               [update_t(i) for i in range(6)])
    assert ran >= 3
    *per_shard, unrouted = tf.shard_summary()
    assert unrouted["applied"] == 0
    assert sum(s["applied"] for s in per_shard) >= ran
    t_rows = values_of(split_db, "T_r")
    updated = {r["id"] for r in t_rows if str(r["name"]).startswith("u")}
    assert updated == set(range(ran))


def test_single_cursor_and_global_convergence_under_shards(split_db):
    """``_cursor``, ``_remaining()`` and the one convergence series are
    right for ``shards > 1`` at every step of propagation."""
    load_split_data(split_db, n=30, n_zip=5)
    db = split_db
    tf = SplitTransformation(db, split_spec(db), options=TransformOptions(shards=3, policy=FixedIterationsPolicy(6)))

    def update_t(i):
        def run():
            with Session(db) as s:
                s.update("T", (i,), {"name": f"u{i}"})
        return run

    seen = {"cursor": None, "points": 0, "propagating_steps": 0}

    def check(entered, report):
        if entered is not Phase.PROPAGATING:
            return
        seen["propagating_steps"] += 1
        assert tf._remaining() == max(0, db.log.end_lsn - tf._cursor + 1)
        if seen["cursor"] is not None:
            assert tf._cursor >= seen["cursor"]
        seen["cursor"] = tf._cursor
        series = tf.convergence.series()
        if len(series) > seen["points"]:
            seen["points"] = len(series)
            assert series[-1]["consumed"] == tf.stats["propagated_records"]
            assert series[-1]["lag"] == tf._remaining()
        if report.info:
            assert report.info["remaining"] == tf._remaining()

    _drive_with_workload(db, tf, [update_t(i) for i in range(8)],
                         each_step=check)
    assert seen["propagating_steps"] >= 3
    assert seen["points"] == tf.stats["iterations"] >= 6
    # No transaction was active at population begin, so propagation
    # started at the begin mark.  The cursor passed every record the
    # loop consumed (plus, at most, its own cycle mark per iteration,
    # skipped without being fetched).
    passed = seen["cursor"] - tf._propagation_base_lsn
    consumed = tf.convergence.series()[-1]["consumed"]
    assert consumed <= passed <= consumed + tf.stats["iterations"]


def test_merge_hands_over_to_unchanged_sync(split_db):
    """A sharded run reaches the unchanged Section 3.4 executors through
    the one cursor and converges to the relational oracle."""
    load_split_data(split_db, n=25)
    tf = SplitTransformation(split_db, split_spec(split_db), options=TransformOptions(shards=4))
    tf.run()
    assert tf.done
    r_rows, s_rows, counters, _ = split(
        tf.spec, _committed_split_rows(n=25))
    assert rows_equal(values_of(split_db, "T_r"), r_rows)
    assert rows_equal(values_of(split_db, "postal"), s_rows)


def _committed_split_rows(n):
    oracle = Database()
    oracle.create_table(TableSchema("T", ["id", "name", "zip", "city"],
                                    primary_key=["id"]))
    load_split_data(oracle, n=n)
    return values_of(oracle, "T")


def test_sharded_run_reports_per_shard_summary(split_db):
    """``shard_summary`` is fed by the loop's accounting: its applied
    counts sum to every record the rules ran on, and one global
    convergence series describes the one cursor."""
    load_split_data(split_db, n=25)
    db = split_db
    tf = SplitTransformation(db, split_spec(db), options=TransformOptions(shards=2, policy=FixedIterationsPolicy(4)))

    def update_t(i):
        def run():
            with Session(db) as s:
                s.update("T", (i,), {"name": f"u{i}"})
        return run

    _drive_with_workload(db, tf, [update_t(i) for i in range(5)])
    summary = tf.shard_summary()
    assert [s["shard"] for s in summary] == [0, 1, "unrouted"]
    assert sum(s["population_rows"][0] for s in summary[:2]) == 25
    # Propagation started at the begin mark (no transaction was active).
    applied = _source_changes(db, tf, tf._propagation_base_lsn,
                              tf._cursor - 1)
    assert sum(s["applied"] for s in summary) == len(applied) > 0
    assert len(tf.convergence.series()) == tf.stats["iterations"]
    assert not hasattr(tf, "shard_convergence")


def test_idle_shards_still_run_policy_analysis(split_db):
    """A caught-up sharded pipeline must keep running (idle) iterations
    through its policy, or a fixed-iterations policy would never
    release it."""
    load_split_data(split_db, n=12)
    tf = SplitTransformation(split_db, split_spec(split_db), options=TransformOptions(shards=2, policy=FixedIterationsPolicy(5)))
    tf.run()  # would spin forever if idle iterations were skipped
    assert tf.done


# ---------------------------------------------------------------------------
# Partial-shard crash recovery
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("site, hit", [
    ("tf.populate.chunk", 2),
    ("tf.propagate.group", 1),
    ("tf.propagate.group", 2),
])
def test_crash_mid_shard_recovers_committed_state(site, hit):
    """A crash inside one shard's work (partial-shard failure) must leave
    recovery with exactly the committed source rows."""
    faults = FaultInjector(FaultPlan().arm(site, CrashFault(), hit=hit))
    db = Database()
    db.attach_faults(faults)
    db.create_table(TableSchema("T", ["id", "name", "zip", "city"],
                                primary_key=["id"]))
    with Session(db) as s:
        for i in range(20):
            z = 7000 + i % 4
            s.insert("T", {"id": i, "name": f"n{i}", "zip": z,
                           "city": f"C{z}"})
    committed = values_of(db, "T")
    tf = SplitTransformation(db, split_spec(db), options=TransformOptions(shards=2))

    def mutate(i):
        def run():
            with Session(db) as s:
                s.update("T", (i,), {"name": f"u{i}"})
            committed_rows = [r for r in committed if r["id"] == i]
            committed_rows[0]["name"] = f"u{i}"
        return run

    with pytest.raises(SimulatedCrashError):
        _drive_with_workload(db, tf, [mutate(0), mutate(1), mutate(2)],
                             budget=3)  # several population chunks
    db.log.faults = FaultInjector()  # the log survives the crash
    recovered = restart(db.log)
    # Transient targets are discarded; committed sources are intact.
    assert sorted(recovered.catalog.table_names()) == ["T"]
    got = values_of(recovered, "T")
    expected = {r["id"]: r for r in committed}
    seen = {r["id"]: r for r in got}
    assert set(seen) == set(expected)
    for key, row in expected.items():
        # In-flight mutations resolve like recovery does; committed ones
        # must match exactly.
        assert seen[key] == row


# ---------------------------------------------------------------------------
# WAL scan snapshot (the contract a bounded propagation iteration relies on)
# ---------------------------------------------------------------------------


def test_wal_scan_bounds_snapshot_at_call_time():
    db = Database()
    db.create_table(TableSchema("T", ["id", "v"], primary_key=["id"]))
    with Session(db) as s:
        for i in range(3):
            s.insert("T", {"id": i, "v": i})
    end_before = db.log.end_lsn
    iterator = db.log.scan()
    # Appends between scan() and iteration must NOT widen the window.
    with Session(db) as s:
        s.insert("T", {"id": 99, "v": 99})
    records = list(iterator)
    assert records
    assert records[-1].lsn == end_before
    assert all(r.lsn <= end_before for r in records)
    # A fresh scan sees the newly appended records.
    assert db.log.end_lsn > end_before
    assert list(db.log.scan())[-1].lsn == db.log.end_lsn


def test_wal_scan_explicit_bounds_still_clamp():
    db = Database()
    db.create_table(TableSchema("T", ["id", "v"], primary_key=["id"]))
    with Session(db) as s:
        s.insert("T", {"id": 0, "v": 0})
    end = db.log.end_lsn
    assert [r.lsn for r in db.log.scan(from_lsn=end + 5)] == []
    assert [r.lsn for r in db.log.scan(to_lsn=end + 100)][-1] == end
    with pytest.raises(ValueError):
        db.log.scan(from_lsn=-1)
