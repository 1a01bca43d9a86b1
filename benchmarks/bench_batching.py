"""BATCHING: wall-clock propagation throughput vs. propagation batch size.

The simulator charges propagation in abstract cost units, so batching is
invisible to it by design (``propagation_batch=1`` and 64 consume the
same units for the same log).  What batching buys is *real* CPU time per
unit: one log-slice fetch per ``propagation_batch`` records instead of
one per record, resolving the Rules 1--7/8--11 dispatch once per
consecutive (table, rule) run, and probing the target indexes through
the LRU cache.
This bench therefore measures the hot path directly, in wall-clock time:

1. build the standard interference workload (the paper's split scenario,
   20% of updates on the source table, 10 updates per transaction);
2. populate the target tables and let propagation catch up;
3. generate a fixed log tail with the scenario's own workload mix;
4. time how long ``step()`` takes to propagate the whole tail.

Throughput is log records propagated per wall-clock second, averaged
over seeds, with the tail fixed per seed so every batch size processes
byte-for-byte the same records.

Gate (the PR's acceptance criterion): the default batch size must beat
``propagation_batch=1`` (the same loop with one-record slices, so
nothing is amortized) by at least 25%.

Outputs: ``BENCH_batching.json`` at the repo root (the CI drift-gate
file -- the gate tracks the *speedup ratio*, which is machine-relative
and survives runner changes) and a structured table under
``benchmarks/results/batching.json``.
"""

import json
import random
import time
from typing import Dict, List

from repro.api import FixedIterationsPolicy, Phase, TransformOptions
from repro.sim import build_split_scenario

from benchmarks.harness import (
    REPO_ROOT,
    print_series,
    save_results,
    save_results_json,
    series_payload,
)

#: The batch every transformation runs with unless overridden.
DEFAULT_PROPAGATION_BATCH = TransformOptions().propagation_batch

#: Batch sizes the sweep measures (1 is one-record slices; the default
#: is what every transformation runs with).
BATCH_SIZES = (1, 8, DEFAULT_PROPAGATION_BATCH, 128)

#: Fixed scenario: the standard interference workload at a size that
#: yields stable sub-second measurements.
ROWS = 1500
DUMMY_ROWS = 800
SOURCE_FRACTION = 0.2
TAIL_TXNS = 1200
SEEDS = (0, 1, 2)
STEP_BUDGET = 4096

#: The acceptance gate: default batch vs batch=1 propagation throughput.
MIN_SPEEDUP = 1.25


def _generate_tail(db, workload, rng: random.Random, n_txns: int) -> None:
    """Replay the scenario's own workload mix directly against the
    engine (no simulator): ``n_txns`` transactions of 10 updates each,
    source_fraction of them on the transformation's source table."""
    for _ in range(n_txns):
        plan = workload.plan_txn(rng)
        txn = db.begin()
        for target in plan:
            key = rng.choice(target.keys)
            db.update(txn, target.table, key, {target.attr: rng.random()})
        db.commit(txn)


def propagation_throughput(batch: int, seed: int) -> float:
    """Records propagated per wall-clock second over a fixed log tail."""
    scenario = build_split_scenario(
        seed, source_fraction=SOURCE_FRACTION, rows=ROWS,
        dummy_rows=DUMMY_ROWS,
        tf_kwargs={"options": TransformOptions(
            propagation_batch=batch,
            policy=FixedIterationsPolicy(10**9))})
    db = scenario.db
    tf = scenario.tf_factory()
    # Populate and catch propagation up to the current end of the log.
    while tf.phase in (Phase.CREATED, Phase.PREPARED, Phase.POPULATING):
        tf.step(STEP_BUDGET)
    while db.log.end_lsn >= tf._cursor:
        tf.step(STEP_BUDGET)
    # The measured tail: same seed -> identical records per batch size.
    _generate_tail(db, scenario.workload, random.Random(seed + 4242),
                   TAIL_TXNS)
    start = tf._cursor
    end = db.log.end_lsn
    t0 = time.perf_counter()
    while tf._cursor <= end:
        tf.step(STEP_BUDGET)
    elapsed = time.perf_counter() - t0
    assert elapsed > 0.0
    return (end - start + 1) / elapsed


def sweep() -> Dict[str, object]:
    rows: List[List[object]] = []
    by_batch: Dict[int, float] = {}
    for batch in BATCH_SIZES:
        samples = [propagation_throughput(batch, seed) for seed in SEEDS]
        by_batch[batch] = sum(samples) / len(samples)
    base = by_batch[1]
    for batch in BATCH_SIZES:
        rows.append([batch, by_batch[batch],
                     by_batch[batch] / base if base else 0.0])
    return {"rows": rows, "by_batch": by_batch}


def check_and_save(result: Dict[str, object],
                   capsys=None) -> Dict[str, object]:
    header = ["batch", "records/s", "speedup vs batch=1"]
    lines = print_series(
        "Batched log propagation (split interference workload, wall clock)",
        "batching is post-paper: the paper propagates record-at-a-time",
        header, result["rows"], capsys)
    save_results("batching", lines)
    save_results_json("batching", series_payload(
        "batching", "propagation throughput vs batch size",
        header, result["rows"]))

    by_batch = {int(k): float(v) for k, v in result["by_batch"].items()}
    base = by_batch[1]
    default = by_batch[DEFAULT_PROPAGATION_BATCH]
    payload = {
        "benchmark": "batching",
        "rows": ROWS,
        "tail_txns": TAIL_TXNS,
        "source_fraction": SOURCE_FRACTION,
        "seeds": len(SEEDS),
        "default_batch": DEFAULT_PROPAGATION_BATCH,
        "throughput_records_per_s": {str(b): by_batch[b]
                                     for b in BATCH_SIZES},
        "speedup": {str(b): (by_batch[b] / base if base else 0.0)
                    for b in BATCH_SIZES},
        "default_speedup": default / base if base else 0.0,
    }
    (REPO_ROOT / "BENCH_batching.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")

    # The acceptance gate.
    assert default >= MIN_SPEEDUP * base, (
        f"batched propagation too slow: default batch "
        f"{DEFAULT_PROPAGATION_BATCH} reached {default:,.0f} records/s vs "
        f"{base:,.0f} at batch=1 "
        f"({default / base:.2f}x < required {MIN_SPEEDUP:.2f}x)")
    return payload


def bench_batching(benchmark, capsys):
    from benchmarks.harness import run_benchmark
    result = run_benchmark(benchmark, sweep)
    check_and_save(result, capsys)


if __name__ == "__main__":
    payload = check_and_save(sweep())
    print(json.dumps({"throughput_records_per_s":
                      payload["throughput_records_per_s"],
                      "speedup": payload["speedup"]}, indent=2))
    print(f"trajectory written to {REPO_ROOT / 'BENCH_batching.json'}")
