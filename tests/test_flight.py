"""Tests for the one trace ring as the store of retained moments (trace
events, blame wait edges, fault firings), the postmortem bundle built
from it, the fault-firing hook and the chaos / fault-sweep -> postmortem
paths."""

import json

import pytest

from repro import Metrics
from repro.common.errors import SimulatedCrashError
from repro.faults import CrashFault, FaultInjector, FaultPlan
from repro.faults.chaos import chaos_run
from repro.faults.sweep import ScenarioRun, sweep_config
from repro.obs import NULL_METRICS, EventRing, postmortem_bundle
from repro.transform.base import SyncStrategy


class _Clock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def observed_run(metrics, plan=None):
    """A small split scenario run observed by ``metrics``."""
    config = sweep_config("split", SyncStrategy.NONBLOCKING_COMMIT)
    return ScenarioRun(config, FaultInjector(plan), metrics=metrics)


# ---------------------------------------------------------------------------
# One ring
# ---------------------------------------------------------------------------


def test_trace_ring_holds_events_edges_and_fault_firings_in_order():
    clock = _Clock()
    metrics = Metrics(clock=clock)
    metrics.trace("mark")
    clock.t = 1.0
    metrics.blame.begin_wait(1, "r", holders=[2], channel="lock")
    clock.t = 2.0
    metrics.blame.end_wait(1, "r")
    run = observed_run(
        metrics, FaultPlan().arm("wal.append", CrashFault(), hit=1))
    clock.t = 3.0
    with pytest.raises(SimulatedCrashError):
        run.execute()
    events = metrics.events()
    kinds = [event.kind for event in events]
    assert kinds[:2] == ["mark", "blame.edge"]
    assert kinds[-1] == "fault.fired"  # the crash ended the run
    assert [event.ts for event in events] == [0.0, 2.0] + \
        [3.0] * (len(events) - 2)
    # One bound, one drop counter: the edges push the oldest out.
    for i in range(EventRing.CAPACITY + 1 - len(kinds)):
        metrics.blame.begin_wait(i + 10, "r", holders=[2], channel="lock")
        metrics.blame.end_wait(i + 10, "r")
    assert metrics.snapshot()["trace"]["dropped"] == 1
    assert metrics.events()[0].kind == "blame.edge"


def test_note_fault_records_the_crossing():
    # An observed ScenarioRun wires its injector into the registry once:
    # a firing is one fault.fired event on the registry's clock.
    clock = _Clock()
    clock.t = 4.0
    metrics = Metrics(clock=clock)
    plan = FaultPlan().arm("wal.append", CrashFault(), hit=3)
    run = observed_run(metrics, plan)
    run.faults.fire("wal.append")
    run.faults.fire("wal.append")
    with pytest.raises(SimulatedCrashError):
        run.faults.fire("wal.append")
    (event,) = metrics.events("fault.fired")
    assert event.as_dict() == {"ts": 4.0, "kind": "fault.fired",
                               "site": "wal.append", "hit": 3,
                               "fault": "crash"}


def test_injector_on_fire_reports_before_the_fault_triggers():
    # Crash faults raise and never return; the hook must see the firing
    # first or the ring records nothing.
    metrics = Metrics(clock=_Clock())
    with pytest.raises(SimulatedCrashError):
        observed_run(metrics, plan=FaultPlan().arm(
            "wal.append", CrashFault(), hit=1)).execute()
    (event,) = metrics.events("fault.fired")
    assert event.fields == {"site": "wal.append", "hit": 1,
                            "fault": "crash"}


# ---------------------------------------------------------------------------
# Postmortem bundles
# ---------------------------------------------------------------------------


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
    bundle = postmortem_bundle({"seed": 13, "violations": ["x"]}, metrics)
    assert set(bundle) == {"reason", "report", "snapshot", "spans",
                           "blame", "events"}
    assert bundle["reason"] == "violation"
    assert bundle["report"]["seed"] == 13
    assert bundle["spans"][0]["name"] == "transform"
    assert [e["kind"] for e in bundle["events"]] == \
        ["latch.acquire", "blame.edge"]
    assert bundle["events"][1]["duration_ms"] == 3.0
    assert bundle["blame"]["total_wait_ms"] == 3.0
    assert bundle["snapshot"]["counters"]


def test_bundle_on_null_registry_is_empty_but_complete():
    bundle = postmortem_bundle({"violations": []}, NULL_METRICS)
    assert bundle["reason"] == "report"
    assert bundle["spans"] == []
    assert bundle["events"] == []
    assert bundle["blame"]["edges"]["recorded"] == 0
    assert bundle["snapshot"]["counters"] == {}


def test_dump_writes_loadable_json(tmp_path, monkeypatch):
    # Postmortems are written by the benchmarks' one JSON writer.
    from benchmarks import harness

    monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path / "deep")
    metrics = Metrics(clock=_Clock())
    metrics.inc("txn.commit")
    bundle = postmortem_bundle({"seed": 1}, metrics)
    path = harness.save_results_json("postmortem_unit", bundle)
    with open(path, encoding="utf-8") as fh:
        on_disk = json.load(fh)
    assert on_disk["reason"] == "report"
    assert on_disk["report"] == bundle["report"] == {"seed": 1}


def test_report_without_violations_bundles_as_plain_report():
    bundle = postmortem_bundle({"seed": 9, "violations": []}, NULL_METRICS)
    assert bundle["reason"] == "report"
    assert bundle["report"]["seed"] == 9


def test_chaos_violation_yields_a_postmortem_bundle(monkeypatch):
    # Force the recovery oracle to report a violation, then replay the
    # seed observed: the acceptance shape is a bundle carrying the
    # violating seed, the final spans, and the fault firing and the blame
    # edges in the ring's events.
    import repro.faults.chaos as chaos_mod

    monkeypatch.setattr(chaos_mod, "check_recovered",
                        lambda *a, **kw: ["forced: oracle violation"])
    metrics = Metrics()
    report = chaos_run(3, metrics=metrics)
    assert report["violations"] == ["forced: oracle violation"]
    bundle = postmortem_bundle(report, metrics)
    assert bundle["reason"] == "violation"
    assert bundle["report"]["seed"] == 3
    assert bundle["report"]["repro"]
    assert bundle["spans"], "postmortem must carry the run's spans"
    kinds = {event["kind"] for event in bundle["events"]}
    assert "fault.fired" in kinds
    assert bundle["blame"]["edges"]["recorded"] == \
        len([e for e in bundle["events"] if e["kind"] == "blame.edge"])
    # The whole bundle must be JSON-serializable as dumped by the soak.
    json.dumps(bundle, default=str)


def test_fault_sweep_postmortem_holds_the_violating_firing(tmp_path,
                                                          monkeypatch):
    from benchmarks import fault_sweep, harness

    monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
    site = {"site": "wal.append", "crash_at_hit": 5,
            "outcome": "violation", "detail": ["forced"]}
    report = {"combos": [{"operator": "split",
                          "strategy": "nonblocking_commit",
                          "sites": [dict(site, site="disk.sync",
                                         outcome="ok"), site]}]}
    path = fault_sweep.dump_postmortem(report)
    with open(path, encoding="utf-8") as fh:
        bundle = json.load(fh)
    assert bundle["reason"] == "violation"
    assert bundle["report"]["site"] == "wal.append"
    assert bundle["report"]["violations"] == ["forced"]
    firings = [e for e in bundle["events"] if e["kind"] == "fault.fired"]
    assert [(e["site"], e["hit"]) for e in firings] == [("wal.append", 5)]
    assert fault_sweep.dump_postmortem(
        {"combos": [{"sites": [dict(site, outcome="ok")]}]}) is None
