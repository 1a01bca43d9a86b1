"""Tests for the fault-injection subsystem and the robustness hardening
built on it: plans and the injector, the three fault species, the
exception-safe latched window, zero-residue aborts in every phase, the
Section 3.3 starvation error and the retry/escalation supervisor."""

import pytest

from repro import (
    Database,
    FojTransformation,
    Phase,
    Session,
    SyncStrategy,
    TransformationSupervisor,
)
from repro.common.errors import (
    SimulatedCrashError,
    TransformationAbortedError,
    TransformationStarvedError,
)
from repro.faults import (
    NULL_FAULTS,
    AbortFault,
    CrashFault,
    DelayFault,
    FaultInjector,
    FaultPlan,
    SITE_REGISTRY,
    register_site,
    sites_by_layer,
)
from repro.faults.chaos import chaos_run
from repro.relational import full_outer_join, rows_equal
from repro.transform.analysis import Decision, RemainingRecordsPolicy

from tests.conftest import (
    R_SCHEMA,
    S_SCHEMA,
    foj_spec,
    load_foj_data,
    values_of,
)
from repro.api import TransformOptions

ALL_STRATEGIES = (SyncStrategy.BLOCKING_COMMIT,
                  SyncStrategy.NONBLOCKING_ABORT,
                  SyncStrategy.NONBLOCKING_COMMIT)


def make_foj_db(n_r=12, n_s=5):
    db = Database()
    db.create_table(R_SCHEMA)
    db.create_table(S_SCHEMA)
    load_foj_data(db, n_r=n_r, n_s=n_s)
    return db


def oracle(db):
    return full_outer_join(foj_spec(db), values_of(db, "R"),
                           values_of(db, "S"))


# ---------------------------------------------------------------------------
# Registry, plans, injector mechanics
# ---------------------------------------------------------------------------


def test_registry_spans_every_layer():
    assert len(SITE_REGISTRY) >= 38
    for layer, minimum in (("wal", 3), ("storage", 5), ("engine", 4),
                           ("transform", 10), ("sync", 14),
                           ("consistency", 2)):
        assert len(sites_by_layer(layer)) >= minimum, layer
    # Registration is idempotent with identical metadata...
    layer, desc = SITE_REGISTRY["wal.append"]
    assert register_site("wal.append", layer, desc) == "wal.append"
    # ...and refuses to silently redefine a site.
    with pytest.raises(ValueError):
        register_site("wal.append", layer, "something else")


def test_plan_validates_armings():
    plan = FaultPlan()
    with pytest.raises(KeyError):
        plan.arm("no.such.site", CrashFault())
    with pytest.raises(ValueError):
        plan.arm("wal.append", CrashFault(), hit=0)
    with pytest.raises(ValueError):
        plan.arm("wal.append", CrashFault(), times=0)


def test_arm_chance_is_reproducible():
    def build(seed):
        plan = FaultPlan(seed=seed)
        for site in sites_by_layer():
            plan.arm_chance(site, CrashFault(), probability=0.3)
        return {site: [(a.hit, a.times) for a in arms]
                for site, arms in plan.armed.items()}

    assert build(7) == build(7)
    assert build(7) != build(8)


def test_injector_counts_crossings_and_fires_at_hit():
    # Appends: create-table #1, begin #2, first insert #3, second #4.
    plan = FaultPlan().arm("wal.append", CrashFault(), hit=4)
    injector = FaultInjector(plan)
    db = Database()
    db.attach_faults(injector)
    db.create_table(R_SCHEMA)
    txn = db.begin()
    db.insert(txn, "R", {"a": 1, "b": "x", "c": 1})
    with pytest.raises(SimulatedCrashError) as exc:
        db.insert(txn, "R", {"a": 2, "b": "y", "c": 2})
    assert exc.value.site == "wal.append"
    assert injector.hits["wal.append"] == 4
    assert injector.fired == [("wal.append", 4, "crash")]


def test_null_faults_is_inert_and_cannot_be_enabled():
    assert NULL_FAULTS.enabled is False
    assert NULL_FAULTS.fire("wal.append", anything="goes") is None
    assert NULL_FAULTS.hits == {}
    with pytest.raises(ValueError):
        NULL_FAULTS.enabled = True
    NULL_FAULTS.enabled = False  # re-disabling is a no-op


def test_default_database_is_fault_free():
    db = Database()
    assert db.faults is NULL_FAULTS
    assert db.log.faults is NULL_FAULTS
    db.create_table(R_SCHEMA)
    assert db.table("R").faults is NULL_FAULTS


def test_database_constructor_attaches_faults_everywhere():
    """``Database(faults=...)`` used to trip over its own half-built
    state (it attached before the MVCC slot existed); callers now hand
    faults to the database rather than to ``TransformOptions``."""
    injector = FaultInjector(FaultPlan())
    db = Database(faults=injector)
    assert db.faults is injector and db.log.faults is injector
    db.create_table(R_SCHEMA)
    assert db.table("R").faults is injector


def test_recording_runs_are_deterministic():
    def record():
        db = make_foj_db()
        injector = FaultInjector(FaultPlan())
        db.attach_faults(injector)
        FojTransformation(db, foj_spec(db)).run(budget=64)
        return dict(injector.hits)

    assert record() == record()


# ---------------------------------------------------------------------------
# Fault species against a live transformation
# ---------------------------------------------------------------------------


def test_abort_fault_aborts_transformation_cleanly():
    db = make_foj_db()
    db.attach_faults(FaultInjector(
        FaultPlan().arm("tf.populate.chunk", AbortFault(), hit=2)))
    tf = FojTransformation(db, foj_spec(db))
    tf.step(4)                  # one chunk: the site fires per chunk
    with pytest.raises(TransformationAbortedError):
        for _ in range(100):
            tf.step(8)
    tf.abort()
    assert tf.phase is Phase.ABORTED
    assert sorted(db.catalog.table_names()) == ["R", "S"]
    # A fresh attempt on the same database completes (fault exhausted).
    expected = oracle(db)
    tf2 = FojTransformation(db, foj_spec(db))
    tf2.run(budget=256)
    assert rows_equal(values_of(db, "T"), expected)


def test_delay_fault_clamps_the_step_budget():
    db = make_foj_db()
    db.attach_faults(FaultInjector(
        FaultPlan().arm("tf.step", DelayFault(budget=1), hit=1,
                        times=10 ** 9)))
    tf = FojTransformation(db, foj_spec(db))
    report = tf.step(4096)  # offered 4096, starved down to 1
    assert report.units == 1
    assert report.phase is Phase.POPULATING


def test_delay_fault_starves_propagator_into_stall():
    db = make_foj_db(n_r=8, n_s=4)
    db.attach_faults(FaultInjector(
        FaultPlan().arm("tf.step", DelayFault(budget=1), hit=1,
                        times=10 ** 9)))
    tf = FojTransformation(
        db, foj_spec(db),
        options=TransformOptions(policy=RemainingRecordsPolicy(max_remaining=0, patience=2)))
    stalled = False
    next_key = 100
    for _ in range(2000):
        report = tf.step(4096)
        if report.stalled:
            stalled = True
            break
        # The workload outpaces the starved propagator (Section 3.3).
        with Session(db) as s:
            for _ in range(3):
                s.insert("R", {"a": next_key, "b": "w", "c": 1})
                next_key += 1
    assert stalled
    with pytest.raises(TransformationStarvedError):
        tf.run(budget=4096)
    assert tf.phase is Phase.ABORTED


def test_starved_error_is_an_aborted_error():
    assert issubclass(TransformationStarvedError,
                      TransformationAbortedError)


# ---------------------------------------------------------------------------
# Satellite: exception-safe latched window
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("strategy", ALL_STRATEGIES,
                         ids=lambda s: s.value)
def test_sync_failure_releases_latches_and_blocks(strategy):
    db = make_foj_db()
    db.attach_faults(FaultInjector(
        FaultPlan().arm("sync.final_propagation", AbortFault())))
    tf = FojTransformation(db, foj_spec(db), options=TransformOptions(sync=strategy))
    with pytest.raises(TransformationAbortedError):
        for _ in range(100000):
            tf.step(4096)
    # The failed synchronization must not leave its critical section
    # half-open: no latch, no block, sources writable right now.
    assert not db.locks._latches
    assert not db.catalog.is_blocked("R")
    with Session(db) as s:
        s.update("R", (1,), {"b": "still-writable"})
    # And after the abort a fresh transformation completes end to end.
    tf.abort()
    expected = oracle(db)
    FojTransformation(db, foj_spec(db), options=TransformOptions(sync=strategy)).run(
        budget=4096)
    assert rows_equal(values_of(db, "T"), expected)


@pytest.mark.parametrize("strategy", ALL_STRATEGIES,
                         ids=lambda s: s.value)
def test_crash_inside_latched_window_cleans_up_live_state(strategy):
    db = make_foj_db()
    db.attach_faults(FaultInjector(
        FaultPlan().arm("sync.final_propagation", CrashFault())))
    tf = FojTransformation(db, foj_spec(db), options=TransformOptions(sync=strategy))
    with pytest.raises(SimulatedCrashError):
        for _ in range(100000):
            tf.step(4096)
    # Even on the doomed pre-crash instance the try/finally released the
    # window (exception safety is unconditional, not crash-specific).
    assert not db.locks._latches
    assert not db.catalog.is_blocked("R")


# ---------------------------------------------------------------------------
# Satellite: zero-residue abort in every phase
# ---------------------------------------------------------------------------


def _drive_until(tf, phase, budget=4, limit=100000):
    for _ in range(limit):
        if tf.phase is phase:
            return
        tf.step(budget)
    raise AssertionError(f"never reached {phase}; at {tf.phase}")


@pytest.mark.parametrize("phase", [
    Phase.CREATED, Phase.PREPARED, Phase.POPULATING,
    Phase.PROPAGATING, Phase.SYNCHRONIZING,
], ids=lambda p: p.value)
def test_abort_leaves_zero_residue(phase):
    db = make_foj_db()
    tf = FojTransformation(db, foj_spec(db),
                           options=TransformOptions(sync=SyncStrategy.BLOCKING_COMMIT))
    held = None
    if phase is Phase.PREPARED:
        tf.prepare()
    elif phase is Phase.SYNCHRONIZING:
        # An active source transaction parks blocking commit in its drain.
        held = db.begin()
        db.update(held, "R", (1,), {"b": "held"})
        _drive_until(tf, phase, budget=4096)
    elif phase is not Phase.CREATED:
        _drive_until(tf, phase)

    tf.abort()
    assert tf.phase is Phase.ABORTED
    tf.abort()  # idempotent
    assert sorted(db.catalog.table_names()) == ["R", "S"]
    assert not db.catalog.zombie_names()
    assert not db.locks._latches
    assert not db.catalog.is_blocked("R") and not db.catalog.is_blocked("S")
    assert not tf.targets
    assert len(tf.locks_held) == 0
    # No leaked proxy lock: a fresh writer touches previously-propagated
    # records without waiting...
    with Session(db) as s:
        s.update("R", (2,), {"b": "free"})
    if held is not None:
        # ...and the drained transaction is still alive and commits.
        db.update(held, "R", (1,), {"b": "held2"})
        db.commit(held)
    # The database supports a full rerun afterwards.
    expected = oracle(db)
    FojTransformation(db, foj_spec(db)).run(budget=4096)
    assert rows_equal(values_of(db, "T"), expected)


# ---------------------------------------------------------------------------
# The supervisor: retry, backoff, escalation
# ---------------------------------------------------------------------------


class _AlwaysStalled:
    def decide(self, report):
        return Decision.STALLED


def test_supervisor_escalates_priority_after_starvation():
    db = make_foj_db()
    expected = oracle(db)
    waits = []
    policies = [_AlwaysStalled(), _AlwaysStalled()]

    def factory():
        policy = policies.pop(0) if policies else RemainingRecordsPolicy()
        return FojTransformation(db, foj_spec(db), options=TransformOptions(policy=policy))

    sup = TransformationSupervisor(db, factory, budget=64,
                                   on_wait=waits.append)
    tf = sup.run()
    assert tf.phase is Phase.DONE
    assert sup.stats["attempts"] == 3
    assert sup.stats["starvations"] == 2
    # Two escalations: 64 -> 256 -> 1024 (the Section 3.3 "restart it
    # with a higher priority").
    factor = TransformationSupervisor.ESCALATION_FACTOR
    assert sup.stats["final_budget"] == 64 * factor ** 2
    base = TransformationSupervisor.BACKOFF_BASE
    assert waits == [base, base * TransformationSupervisor.BACKOFF_FACTOR]
    assert [h["outcome"] for h in sup.history] == \
        ["starved", "starved", "done"]
    assert rows_equal(values_of(db, "T"), expected)


def test_supervisor_survives_abort_fault_storm():
    db = make_foj_db()
    expected = oracle(db)
    # Three consecutive starvation aborts injected mid-propagation; the
    # armings live on the database's injector, so they span attempts.
    db.attach_faults(FaultInjector(FaultPlan().arm(
        "tf.propagate.batch", AbortFault(starved=True), hit=1, times=3)))
    waits = []
    sup = TransformationSupervisor(
        db, lambda: FojTransformation(db, foj_spec(db)),
        budget=32, on_wait=waits.append)
    tf = sup.run()
    assert tf.phase is Phase.DONE
    assert sup.stats["attempts"] == 4
    assert sup.stats["aborts"] == 3
    assert sup.stats["starvations"] == 3
    assert sup.stats["final_budget"] == \
        32 * TransformationSupervisor.ESCALATION_FACTOR ** 3
    assert len(waits) == 3
    assert rows_equal(values_of(db, "T"), expected)


def test_supervisor_gives_up_after_max_attempts():
    db = make_foj_db()
    db.attach_faults(FaultInjector(FaultPlan().arm(
        "tf.populate.chunk", AbortFault(), hit=1, times=10 ** 9)))
    sup = TransformationSupervisor(
        db, lambda: FojTransformation(db, foj_spec(db)), budget=32)
    with pytest.raises(TransformationAbortedError):
        sup.run()
    assert sup.stats["attempts"] == TransformationSupervisor.MAX_ATTEMPTS
    # The last failed attempt still left no residue behind.
    assert sorted(db.catalog.table_names()) == ["R", "S"]
    assert not db.locks._latches


def test_chaos_lost_flush_leaves_the_sync_crash_its_crossing():
    """Seed 331 arms its crash at ``disk.sync`` hit 4 and a lost flush
    from hit 3; the injector fires one arming per crossing, so a lost
    flush repeated three times took crossing 4 and the crash never
    fired -- a false violation.  The draw caps the repeats before the
    crash's hit, and the seed recovers."""
    report = chaos_run(331)
    assert (report["crash_site"], report["crash_hit"],
            report["disk_fault"], report["disk_fault_hit"]) == \
        ("disk.sync", 4, "lost_flush", 3)
    assert report["violations"] == [], report["violations"]
