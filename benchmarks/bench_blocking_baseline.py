"""BASE-BLOCK: Section 1's motivation, quantified.

"For tables with large amounts of data, the insert into select method
could easily take tens of minutes or more" (of unavailability).  The
online method's only unavailability window is the sub-millisecond
synchronization latch.

Runs both methods as the background process under the same workload and
compares (a) how long user access to the source tables was blocked and
(b) the worst user response time observed during the change.  The
blocking method is the same split with
``TransformOptions(sync="blocking_commit", population_mode="blocking")``.
"""

import pytest

from repro.sim import RunSettings, run_once
from repro.sim.experiments import clients_for_workload
from repro.transform.options import TransformOptions

from benchmarks.harness import (
    n_max_for,
    print_series,
    run_benchmark,
    save_bench_report,
    save_results,
    split_builder,
)


BLOCKING = TransformOptions(sync="blocking_commit",
                            population_mode="blocking")

blocking_builder = split_builder(0.2, tf_kwargs={"options": BLOCKING})


def measure():
    online = split_builder(0.2)
    n_max = n_max_for(online, "base-block")
    n_clients = clients_for_workload(n_max, 75)
    rows = []
    for name, builder, priority in (
            ("online (non-blocking)", online, 0.2),
            ("blocking insert-select", blocking_builder, 0.5)):
        # A finite window that spans the whole change *and* the return to
        # normal, so transactions stalled behind the blocking latch have
        # their (huge) response times recorded when they finally finish.
        run = run_once(builder, RunSettings(
            n_clients=n_clients, priority=priority, window_ms=450.0,
            stop_after_window=False, t_max_ms=8000.0))
        rows.append((name, run.blocked_time,
                     run.info["max_response"],
                     run.completion_time or -1.0))
    return rows


def bench_blocking_baseline(benchmark, capsys):
    rows = run_benchmark(benchmark, measure)
    lines = print_series(
        "Source-table blocked time (sampled, simulated ms) during the "
        "schema change, 75% workload",
        "paper Section 1: blocking method unavailable for the whole copy;"
        " online method only for the < 1 ms latch",
        ["method", "blocked ms", "max resp ms", "completion ms"],
        rows, capsys)
    save_results("blocking_baseline", lines)
    save_bench_report("blocking_baseline", blocking_builder,
                      meta={"method": "blocking insert-select"})
    online_blocked = rows[0][1]
    baseline_blocked = rows[1][1]
    online_worst = rows[0][2]
    baseline_worst = rows[1][2]

    assert baseline_blocked > 10 * max(online_blocked, 0.25), \
        "blocking baseline should block vastly longer"
    # The worst user response under the blocking method is the whole
    # copy; under the online method it is a fraction of that.
    assert baseline_worst > 3 * online_worst
