"""BASE-TRIG: Section 2.1 -- the trigger-based (Ronström) comparison.

"The extra workload incurred with using triggers to update MVs is
significant...  With our method, there is no need for the transformed
table to be consistent with the old table before the very end of the
transformation," so maintenance work never runs inside user transactions.

Compares the response time of user transactions during the change under
the log-propagation method vs. the trigger-based method
(``TransformOptions(population_mode="trigger")``) at a high source update
fraction (where trigger work per transaction is largest).
"""

import pytest

from repro.sim import RunSettings, run_once
from repro.sim.experiments import clients_for_workload
from repro.transform.options import TransformOptions

from benchmarks.harness import (
    seed_list,
    n_max_for,
    print_series,
    run_benchmark,
    save_bench_report,
    save_results,
    split_builder,
)

FRACTION = 0.8  # most updates hit the source: trigger-heavy


ronstrom_builder = split_builder(FRACTION, tf_kwargs={
    "options": TransformOptions(population_mode="trigger")})


def measure():
    online = split_builder(FRACTION)
    n_max = n_max_for(online, "base-trig")
    n_clients = clients_for_workload(n_max, 75)
    rows = []
    for name, builder in (("log propagation", online),
                          ("trigger-based", ronstrom_builder)):
        responses = []
        for seed in seed_list():
            run = run_once(builder, RunSettings(
                n_clients=n_clients, priority=0.25, window_ms=10**18,
                stop_after_window=False, t_max_ms=8000.0, seed=seed))
            responses.append(run.mean_response)
        base = run_once(online, RunSettings(
            n_clients=n_clients, with_transformation=False,
            window_ms=200.0))
        mean = sum(responses) / len(responses)
        rows.append((name, mean, mean / base.mean_response))
    return rows


def bench_ronstrom_baseline(benchmark, capsys):
    rows = run_benchmark(benchmark, measure)
    lines = print_series(
        "User response time during the change: log propagation vs "
        f"triggers ({int(FRACTION * 100)}% updates on the source)",
        "paper Section 2.1: trigger overhead lands inside user txns",
        ["method", "mean resp ms", "rel to no-change"],
        rows, capsys)
    save_results("ronstrom_baseline", lines)
    save_bench_report("ronstrom_baseline", ronstrom_builder,
                      meta={"method": "trigger-based",
                            "source_fraction": FRACTION})
    online_resp = rows[0][1]
    trigger_resp = rows[1][1]
    assert trigger_resp > online_resp, \
        "trigger-based method should inflate user response time more"
