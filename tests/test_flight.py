"""Tests for the crash-scoped flight recorder (:mod:`repro.obs.flight`):
the bounded moment ring, postmortem bundles, SLO monitors, the fault
firing hook and the chaos-violation -> postmortem path."""

import json

import pytest

from repro import (
    Database,
    FojTransformation,
    Metrics,
    Phase,
    TransformationSupervisor,
)
from repro.faults import CrashFault, FaultInjector, FaultPlan
from repro.faults.chaos import chaos_run
from repro.obs import (
    NULL_METRICS,
    FlightRecorder,
    SloMonitor,
    SloPolicy,
    postmortem_bundle,
)
from repro.transform.analysis import Decision, RemainingRecordsPolicy
from repro.transform.options import TransformOptions

from tests.conftest import R_SCHEMA, S_SCHEMA, foj_spec, load_foj_data


class _Clock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


# ---------------------------------------------------------------------------
# Recorder mechanics
# ---------------------------------------------------------------------------


def test_moment_ring_is_bounded_and_counts_drops():
    flight = FlightRecorder()
    cap = FlightRecorder.CAPACITY
    for i in range(cap + 1):
        flight.note("step", i=i)
    assert flight.recorded == cap + 1
    assert flight.dropped == 1
    assert [m["i"] for m in flight.moments()] == list(range(1, cap + 1))


def test_note_fault_records_the_crossing():
    clock = _Clock()
    clock.t = 4.0
    flight = FlightRecorder(Metrics(clock=clock))
    flight.note_fault("wal.append", 3, "crash")
    (moment,) = flight.moments()
    assert moment == {"t": 4.0, "kind": "fault.fired",
                      "site": "wal.append", "hit": 3, "fault": "crash"}


def test_tick_is_a_noop_on_the_null_registry():
    flight = FlightRecorder(NULL_METRICS)
    flight.tick(step=1)
    assert flight.moments() == []


def test_tick_captures_counters_and_blame_total():
    clock = _Clock()
    metrics = Metrics(clock=clock)
    metrics.inc("txn.commit", 2)
    flight = FlightRecorder(metrics)
    flight.tick(step=7)
    (moment,) = flight.moments()
    assert moment["kind"] == "tick"
    assert moment["step"] == 7
    assert moment["counters"]["txn.commit"] == 2
    assert moment["blame_total"] == 0.0


def test_bundle_collects_the_full_black_box():
    clock = _Clock()
    metrics = Metrics(clock=clock)
    metrics.inc("txn.commit")
    with metrics.span("transform"):
        clock.t = 2.0
    metrics.trace("latch.acquire", table="T")
    metrics.blame.begin_wait(1, "r", holders=[2], channel="lock")
    clock.t = 5.0
    metrics.blame.end_wait(1, "r")
    flight = FlightRecorder(metrics)
    flight.note("checkpoint", lsn=9)
    bundle = flight.bundle("test", seed=13)
    assert bundle["reason"] == "test"
    assert bundle["context"] == {"seed": 13}
    assert [m["kind"] for m in bundle["moments"]] == ["checkpoint"]
    assert bundle["spans"][0]["name"] == "transform"
    assert any(e["kind"] == "latch.acquire" for e in bundle["events"])
    assert bundle["blame_edges"][0]["duration_ms"] == 3.0
    assert bundle["blame"]["total_wait_ms"] == 3.0
    assert bundle["snapshot"]["counters"]


def test_bundle_on_null_registry_is_empty_but_complete():
    bundle = FlightRecorder().bundle("nothing")
    assert bundle["reason"] == "nothing"
    assert bundle["spans"] == []
    assert bundle["events"] == []
    assert bundle["blame_edges"] == []
    assert bundle["blame"] == {}


def test_dump_writes_loadable_json(tmp_path):
    metrics = Metrics(clock=_Clock())
    metrics.inc("txn.commit")
    flight = FlightRecorder(metrics)
    path = tmp_path / "deep" / "postmortem.json"
    bundle = flight.dump(str(path), "unit", seed=1)
    with open(path, encoding="utf-8") as fh:
        on_disk = json.load(fh)
    assert on_disk["reason"] == "unit"
    assert on_disk["context"] == bundle["context"] == {"seed": 1}


# ---------------------------------------------------------------------------
# SLO monitors
# ---------------------------------------------------------------------------


def test_p99_breach_trips_once_and_notes_a_moment():
    trips = []
    flight = FlightRecorder(Metrics(clock=_Clock()))
    monitor = SloMonitor(SloPolicy(p99_ms=100.0), recorder=flight,
                         on_trip=trips.append)
    quiet = {"histograms": {"txn.response_time": {"count": 5, "p99": 80.0}}}
    breach = {"histograms": {"txn.response_time": {"count": 9, "p99": 150.0}}}
    monitor.observe_snapshot(quiet)
    assert trips == []
    monitor.observe_snapshot(breach)
    monitor.observe_snapshot(breach)  # second breach: no second trip
    assert len(trips) == 1
    assert trips[0]["objective"] == "p99_breach"
    assert trips[0]["p99"] == 150.0
    assert [m["kind"] for m in flight.moments()] == ["slo.trip"]


def test_p99_objective_ignores_empty_histograms():
    monitor = SloMonitor(SloPolicy(p99_ms=1.0))
    monitor.observe_snapshot({"histograms": {}})
    monitor.observe_snapshot(
        {"histograms": {"txn.response_time": {"count": 0, "p99": 0.0}}})
    assert monitor.trips == []


def test_convergence_stall_needs_consecutive_non_progress():
    monitor = SloMonitor(SloPolicy(stall_checks=2))
    for remaining in (100, 90, 90, 80, 80):  # resets break the streak
        monitor.observe_convergence(remaining)
    assert monitor.trips == []
    monitor.observe_convergence(80)
    monitor.observe_convergence(80)
    assert [t["objective"] for t in monitor.trips] == ["convergence_stall"]


def test_stall_does_not_trip_at_zero_remaining():
    monitor = SloMonitor(SloPolicy(stall_checks=1))
    monitor.observe_convergence(0)
    monitor.observe_convergence(0)  # done is not stalled
    assert monitor.trips == []


def test_starvation_objective_trips_on_the_flag():
    monitor = SloMonitor(SloPolicy(starvation=True))
    monitor.observe_convergence(50, starving=False)
    assert monitor.trips == []
    monitor.observe_convergence(50, starving=True)
    assert [t["objective"] for t in monitor.trips] == ["starvation"]


# ---------------------------------------------------------------------------
# Supervisor integration
# ---------------------------------------------------------------------------


class _StallOnce:
    def __init__(self) -> None:
        self.calls = 0

    def decide(self, report):
        self.calls += 1
        return Decision.STALLED


def test_supervisor_feeds_the_slo_monitor():
    db = Database()
    db.create_table(R_SCHEMA)
    db.create_table(S_SCHEMA)
    load_foj_data(db)
    policies = [_StallOnce()]

    def factory():
        policy = policies.pop(0) if policies else RemainingRecordsPolicy()
        return FojTransformation(db, foj_spec(db),
                                 options=TransformOptions(policy=policy))

    flight = FlightRecorder(db.metrics)
    sup = TransformationSupervisor(
        db, factory, budget=64, slo=SloPolicy(starvation=True),
        flight=flight)
    tf = sup.run()
    assert tf.phase is Phase.DONE
    # The starved first attempt tripped the starvation objective, the
    # trip landed on the flight recorder, and the monitor stays armed
    # for the other objectives.
    assert [t["objective"] for t in sup.slo_monitor.trips] == \
        ["starvation"]
    assert [m["kind"] for m in flight.moments()] == ["slo.trip"]


def test_supervisor_without_policy_has_no_monitor():
    db = Database()
    db.create_table(R_SCHEMA)
    db.create_table(S_SCHEMA)
    load_foj_data(db, n_r=6, n_s=3)
    sup = TransformationSupervisor(
        db, lambda: FojTransformation(db, foj_spec(db)), budget=4096)
    assert sup.slo_monitor is None
    assert sup.run().phase is Phase.DONE


# ---------------------------------------------------------------------------
# Fault hook + chaos postmortem
# ---------------------------------------------------------------------------


def test_injector_on_fire_reports_before_the_fault_triggers():
    # Crash faults raise and never return; the hook must see the firing
    # first or the black box records nothing.
    from repro.common.errors import SimulatedCrashError

    plan = FaultPlan().arm("wal.append", CrashFault(), hit=1)
    injector = FaultInjector(plan)
    flight = FlightRecorder(Metrics(clock=_Clock()))
    injector.on_fire = flight.note_fault
    with pytest.raises(SimulatedCrashError):
        injector.fire("wal.append")
    (moment,) = flight.moments()
    assert moment["kind"] == "fault.fired"
    assert moment["site"] == "wal.append"
    assert moment["fault"] == "crash"


def test_chaos_violation_yields_a_postmortem_bundle(monkeypatch):
    # Force the recovery oracle to report a violation, then replay the
    # seed observed: the acceptance shape is a bundle carrying the
    # violating seed, the final spans and the blame edges.
    import repro.faults.chaos as chaos_mod

    monkeypatch.setattr(chaos_mod, "check_recovered",
                        lambda *a, **kw: ["forced: oracle violation"])
    metrics = Metrics()
    flight = FlightRecorder(metrics)
    report = chaos_run(3, metrics=metrics, flight=flight)
    assert report["violations"] == ["forced: oracle violation"]
    bundle = postmortem_bundle(report, metrics, recorder=flight)
    assert bundle["reason"] == "chaos.violation"
    assert bundle["context"]["seed"] == 3
    assert bundle["context"]["violations"] == report["violations"]
    assert bundle["context"]["report"]["repro"]
    assert bundle["spans"], "postmortem must carry the run's spans"
    assert "blame_edges" in bundle and "blame" in bundle
    assert any(m["kind"] == "fault.fired" for m in bundle["moments"])
    # The whole bundle must be JSON-serializable as dumped by the soak.
    json.dumps(bundle, default=str)


def test_report_without_violations_bundles_as_plain_report():
    bundle = postmortem_bundle({"seed": 9, "violations": []})
    assert bundle["reason"] == "report"
    assert bundle["context"]["seed"] == 9
