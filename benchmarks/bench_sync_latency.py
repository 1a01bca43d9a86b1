"""TXT-SYNC: Section 6 -- "Synchronization takes less than 1 ms in the
prototype tests with non-blocking abort."

Measures the work performed while the source tables are latched during
non-blocking-abort synchronization, in simulated milliseconds, at 75%
workload.  Also reports the blocked copy of the *blocking* baseline
(``population_mode="blocking"``: every population unit is spent with the
sources blocked) on the same data for contrast (the number the paper's
Section 1 argues about).
"""

import pytest

from repro.sim import RunSettings, ServerConfig, run_once
from repro.sim.experiments import clients_for_workload
from repro.transform.options import TransformOptions

from benchmarks.harness import (
    PAPER,
    seed_list,
    n_max_for,
    print_series,
    run_benchmark,
    save_bench_report,
    save_results,
    save_results_json,
    series_payload,
    split_builder,
)


def measure():
    builder = split_builder(source_fraction=0.2)
    n_max = n_max_for(builder, "sync")
    n_clients = clients_for_workload(n_max, 75)
    config = ServerConfig()
    rows = []
    for seed in seed_list():
        run = run_once(builder, RunSettings(
            n_clients=n_clients, priority=0.2, window_ms=10**18,
            stop_after_window=False, t_max_ms=6000.0, seed=seed))
        stats = run.info["tf_stats"]
        latch_ms = stats["sync_latch_units"] * config.bg_propagation_cost_ms
        rows.append((seed, latch_ms, run.completion_time or -1.0))
    # Blocking baseline: blocked for the entire copy.
    blocking = split_builder(source_fraction=0.2, tf_kwargs={
        "options": TransformOptions(sync="blocking_commit",
                                    population_mode="blocking")})(0)
    tf = blocking.tf_factory()
    tf.run()
    blocking_ms = tf.stats["population_units"] * config.bg_population_cost_ms
    return rows, blocking_ms


def bench_sync_latency(benchmark, capsys):
    rows, blocking_ms = run_benchmark(benchmark, measure)
    lines = print_series(
        "Synchronization latch time, non-blocking abort (simulated ms)",
        PAPER["sync"],
        ["seed", "latch ms", "completion ms"],
        rows, capsys)
    lines += print_series(
        "Blocking INSERT INTO ... SELECT baseline (same data)",
        "paper Section 1: 'could easily take tens of minutes'",
        ["blocked ms", "vs latch", "-"],
        [(blocking_ms, blocking_ms / max(r[1] for r in rows), 0.0)],
        capsys)
    save_results("sync_latency", lines)
    save_bench_report("sync_latency", split_builder(source_fraction=0.2),
                      meta={"blocking_ms": blocking_ms})
    payload = series_payload("sync_latency", PAPER["sync"],
                             ["seed", "latch_ms", "completion_ms"], rows)
    payload["blocking_ms"] = blocking_ms
    save_results_json("sync_latency", payload)
    benchmark.extra_info["blocking_ms"] = blocking_ms

    worst_latch = max(latch for _, latch, _ in rows)
    assert worst_latch < 1.0, \
        f"latch work {worst_latch:.3f} ms violates the paper's < 1 ms"
    # The blocking baseline blocks orders of magnitude longer.
    assert blocking_ms > worst_latch * 100
