"""Tests for the discrete-event simulator and experiment harness."""

import os

import pytest

from repro.sim import (
    MetricsCollector,
    RunSettings,
    Simulator,
    build_foj_scenario,
    build_split_scenario,
    calibrate_max_workload,
    clients_for_workload,
    keep_up_priority,
    run_once,
    run_relative,
)
from repro.sim.server import Job, Server
from repro.transform.base import Phase
from repro.api import TransformOptions


# ---------------------------------------------------------------------------
# Simulator core
# ---------------------------------------------------------------------------


def test_events_run_in_time_order():
    sim = Simulator()
    seen = []
    sim.schedule(3.0, lambda: seen.append("c"))
    sim.schedule(1.0, lambda: seen.append("a"))
    sim.schedule(2.0, lambda: seen.append("b"))
    sim.run_until(10.0)
    assert seen == ["a", "b", "c"]
    assert sim.now == 10.0


def test_ties_break_by_insertion_order():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: seen.append(1))
    sim.schedule(1.0, lambda: seen.append(2))
    sim.run_until(2.0)
    assert seen == [1, 2]


def test_run_until_leaves_future_events():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, lambda: seen.append("later"))
    sim.run_until(1.0)
    assert seen == [] and sim.pending == 1
    sim.run_until(6.0)
    assert seen == ["later"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)


def test_run_while_condition():
    sim = Simulator()
    counter = []

    def tick():
        counter.append(1)
        sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    sim.run_while(lambda: len(counter) < 5, t_max=100.0)
    assert len(counter) == 5


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def test_metrics_window_and_throughput():
    m = MetricsCollector()
    m.record_txn(0.0, 1.0)  # before the window: not counted
    m.open_window(10.0)
    m.record_txn(5.0, 11.0)   # completion inside: throughput only
    m.record_txn(11.0, 12.0)  # started inside: throughput + response
    m.close_window(20.0)
    m.record_txn(21.0, 22.0)  # after: ignored
    assert m.committed == 2
    assert m.throughput() == pytest.approx(0.2)
    assert m.mean_response() == pytest.approx(1.0)


def test_metrics_percentile():
    m = MetricsCollector()
    m.open_window(0.0)
    for i in range(1, 101):
        m.record_txn(0.0, float(i))
    m.close_window(1000.0)
    assert m.percentile_response(95) == pytest.approx(95.0, abs=1.0)
    assert m.percentile_response(0) == 1.0


def test_metrics_aborts():
    m = MetricsCollector()
    m.open_window(0.0)
    m.record_abort(deadlock=True)
    m.record_abort()
    assert m.aborted == 2 and m.deadlocks == 1


# ---------------------------------------------------------------------------
# Server scheduler
# ---------------------------------------------------------------------------


class FakeBackground:
    """Background stepper consuming budget 1:1 until exhausted."""

    def __init__(self, total_units: float) -> None:
        self.remaining = total_units
        self.phase = Phase.PROPAGATING
        self.done = False

    def step(self, budget):
        from repro.transform.base import StepReport
        units = min(budget, self.remaining)
        self.remaining -= units
        if self.remaining <= 0:
            self.done = True
        return StepReport(self.phase, max(units, 0.1), self.done)


def test_server_fifo_user_jobs():
    sim = Simulator()
    server = Server(sim)
    done = []
    for name in ("a", "b"):
        server.submit(Job(0.02, lambda n=name: done.append((n, sim.now))))
    sim.run_until(1.0)
    assert [d[0] for d in done] == ["a", "b"]
    assert done[0][1] == pytest.approx(0.02)
    assert done[1][1] == pytest.approx(0.04)


def test_server_background_share_respects_priority():
    """The background's achieved share of wall time tracks the target."""
    sim = Simulator()
    server = Server(sim)
    bg = FakeBackground(total_units=10_000_000)

    def flood():  # keep the user queue saturated
        server.submit(Job(0.02, lambda: None))
        sim.schedule(0.02, flood)

    flood()
    server.set_background(bg, 0.10)
    sim.run_until(50.0)
    share = server.bg_busy_ms / sim.now
    assert 0.07 <= share <= 0.13


def test_server_background_self_throttles_on_idle_server():
    """Priority is a cap: with no user work, the share still ~= target."""
    sim = Simulator()
    server = Server(sim)
    bg = FakeBackground(total_units=10_000_000)
    server.set_background(bg, 0.05)
    sim.run_until(50.0)
    share = server.bg_busy_ms / sim.now
    assert share <= 0.10


def test_server_background_done_callback_fires_once():
    sim = Simulator()
    server = Server(sim)
    fired = []
    server.on_background_done = lambda: fired.append(sim.now)
    server.set_background(FakeBackground(total_units=5.0), 0.5)
    sim.run_until(10.0)
    assert len(fired) == 1


# ---------------------------------------------------------------------------
# Experiment harness (small smoke runs)
# ---------------------------------------------------------------------------


def small_split_builder(seed):
    return build_split_scenario(seed, rows=300, dummy_rows=200,
                                n_split_values=60)


def small_foj_builder(seed):
    return build_foj_scenario(seed, n_r=300, n_s=120, dummy_rows=200)


def test_baseline_run_produces_throughput():
    result = run_once(small_split_builder,
                      RunSettings(n_clients=4, warmup_ms=5.0,
                                  window_ms=30.0,
                                  with_transformation=False))
    assert result.throughput > 0
    assert result.mean_response > 0
    assert result.committed > 10


def test_transformation_run_completes_and_interferes():
    result = run_once(small_split_builder,
                      RunSettings(n_clients=8, warmup_ms=5.0,
                                  window_ms=10**9, priority=0.3,
                                  stop_after_window=False,
                                  t_max_ms=3000.0))
    assert result.completion_time is not None
    assert result.info["tf_stats"]["propagated_records"] > 0


def test_phase_filtered_window():
    result = run_once(small_split_builder,
                      RunSettings(n_clients=4, warmup_ms=5.0,
                                  window_ms=20.0, priority=0.05,
                                  measure_phase=Phase.POPULATING))
    assert result.info["window_ms"] > 0
    assert result.committed > 0


def test_run_relative_pairs_runs():
    n_max = 6
    rel = run_relative(small_split_builder, 100.0, n_max,
                       RunSettings(warmup_ms=5.0, window_ms=30.0,
                                   priority=0.2,
                                   measure_phase=Phase.POPULATING))
    assert 0.3 < rel.relative_throughput <= 1.2
    assert rel.treatment.committed > 0


def test_calibration_finds_saturation():
    n_max = calibrate_max_workload(small_split_builder)
    assert 2 <= n_max <= 40
    assert clients_for_workload(n_max, 50) == max(1, round(n_max / 2))
    assert clients_for_workload(n_max, 100) == n_max


def test_keep_up_priority_scales_with_update_fraction():
    from repro.sim.metrics import RunResult
    base = RunResult(throughput=4.0, mean_response=1.0, p95_response=2.0,
                     committed=100, aborted=0)
    low = keep_up_priority(base, 0.2, 10)
    high = keep_up_priority(base, 0.8, 10)
    assert high > low > 0


def test_foj_scenario_smoke():
    result = run_once(small_foj_builder,
                      RunSettings(n_clients=4, warmup_ms=5.0,
                                  window_ms=20.0, priority=0.2,
                                  measure_phase=Phase.POPULATING))
    assert result.committed > 0


def test_nonblocking_commit_strategy_in_simulator():
    """End-to-end simulator run with the non-blocking commit strategy:
    the two-way lock mirror operates under the event loop (old clients
    keep committing on zombie sources, new ones on the published tables),
    and the run completes without forced aborts from the swap."""
    from repro.sim.experiments import Scenario, build_split_scenario
    from repro.transform.base import SyncStrategy

    def builder(seed):
        return build_split_scenario(
            seed, rows=400, dummy_rows=200, n_split_values=80,
            tf_kwargs={"options": TransformOptions(
                sync=SyncStrategy.NONBLOCKING_COMMIT)})

    result = run_once(builder, RunSettings(
        n_clients=8, warmup_ms=5.0, window_ms=10**18, priority=0.3,
        stop_after_window=False, t_max_ms=4000.0))
    assert result.completion_time is not None
    assert result.committed > 10


def test_blocking_commit_strategy_in_simulator():
    """Blocking commit completes in the simulator (regression for the
    drain-vs-block live-lock): the drain is not starved by background
    urgency and lock-holding newcomers are killed, not parked."""
    from repro.sim.experiments import build_split_scenario
    from repro.transform.base import SyncStrategy

    def builder(seed):
        return build_split_scenario(
            seed, rows=400, dummy_rows=200, n_split_values=80,
            tf_kwargs={"options": TransformOptions(
                sync=SyncStrategy.BLOCKING_COMMIT)})

    result = run_once(builder, RunSettings(
        n_clients=8, warmup_ms=5.0, window_ms=10**18, priority=0.3,
        stop_after_window=False, t_max_ms=4000.0))
    assert result.completion_time is not None
    assert result.blocked_time > 0  # it did block, as the paper says


def test_deadlock_storm_recovers():
    """Clients hammering a tiny key set generate real deadlocks; every
    victim recovers (aborts + restarts) and the system keeps committing."""
    from repro.sim.experiments import build_split_scenario

    def builder(seed):
        scenario = build_split_scenario(seed, rows=60, dummy_rows=20,
                                        n_split_values=8)
        scenario.workload.source_fraction = 0.6  # heavy key contention
        return scenario

    result = run_once(builder, RunSettings(
        n_clients=6, warmup_ms=5.0, window_ms=120.0,
        with_transformation=False))
    assert result.committed > 40          # progress despite contention
    assert result.aborted > 10            # deadlocks actually occurred


def test_deadlock_storm_with_transformation():
    """Same contention while a split transformation runs to completion."""
    from repro.sim.experiments import build_split_scenario

    def builder(seed):
        scenario = build_split_scenario(seed, rows=60, dummy_rows=20,
                                        n_split_values=8)
        scenario.workload.source_fraction = 0.6
        return scenario

    result = run_once(builder, RunSettings(
        n_clients=6, warmup_ms=5.0, window_ms=10**18, priority=0.3,
        stop_after_window=False, t_max_ms=3000.0))
    assert result.completion_time is not None
    assert result.committed >= 1  # the window spans only the short change
