"""LAZY MIGRATION: time-to-first-redirected-transaction, lazy vs eager.

Eager population (the paper's fuzzy scan, Section 3.2) copies the whole
source before any given record is guaranteed to exist in the target: a
transaction whose record sits at the *end* of the scan order waits for
the entire table.  Lazy population (``population_mode="lazy"``) migrates
a record the moment a transaction touches it, so the first redirected
transaction pays one per-record migration instead of a table scan.

This bench measures exactly that gap on the split scenario at 10--40x
the test-suite table sizes.  The probe record is the last row in scan
order (the eager worst case):

* **ttfrt** -- time from transformation start until the probe record is
  visible in the target.  Measured twice: in deterministic step-budget
  *units* (machine-independent, the CI gate metric) and in wall-clock
  milliseconds (informational).
* **JIT read tail latency** -- per-read wall-clock latency of reads that
  pay the just-in-time migration (lazy) vs plain source reads during
  population (eager), p50/p99 over a fixed sample.

Gate (the PR's acceptance criterion): on the largest configuration lazy
ttfrt must be at least 5x lower than eager.  The committed baseline
``BENCH_lazy_migration.json`` carries the unit-based speedup, which is
deterministic for a fixed seed, so the CI drift gate (20%) survives
runner hardware changes.
"""

import json
import random
import time
from typing import Dict, List

from repro.api import (
    Database,
    Phase,
    SplitSpec,
    SplitTransformation,
    TableSchema,
    TransformOptions,
    bulk_load,
)

from benchmarks.harness import (
    REPO_ROOT,
    print_series,
    save_results,
    save_results_json,
    series_payload,
)

#: Table sizes (rows in T); the tests run the same scenario at ~1.5k.
SIZES = (15_000, 60_000)
N_ZIP = 50
SEED = 7
STEP_BUDGET = 64
#: Reads timed for the JIT tail-latency distribution.
LATENCY_SAMPLE = 200

#: The acceptance gate: eager ttfrt / lazy ttfrt on the largest size.
MIN_SPEEDUP = 5.0


def _build(n_rows: int):
    db = Database()
    db.create_table(TableSchema("T", ["id", "name", "zip", "city"],
                                primary_key=["id"]))
    rng = random.Random(SEED)
    rows = []
    for i in range(n_rows):
        z = 7000 + rng.randrange(N_ZIP)
        rows.append({"id": i, "name": f"n{i}", "zip": z, "city": f"C{z}"})
    bulk_load(db, "T", rows)
    spec = SplitSpec.derive(db.table("T").schema, r_name="T_r",
                            s_name="postal", split_attr="zip",
                            s_attrs=["city"])
    return db, spec


def _make_tf(db, spec, mode: str) -> SplitTransformation:
    return SplitTransformation(
        db, spec,
        options=TransformOptions(population_mode=mode))


def _read(db, key) -> float:
    """One committed read transaction; returns its wall-clock seconds."""
    t0 = time.perf_counter()
    txn = db.begin()
    try:
        db.read(txn, "T", key)
    finally:
        db.commit(txn)
    return time.perf_counter() - t0


def _percentile(samples: List[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[index]


def measure_mode(mode: str, n_rows: int) -> Dict[str, float]:
    """ttfrt + read-latency distribution for one population mode.

    The probe is the last row in scan order: eager redirection has to
    wait for the whole scan, lazy only for one miss migration.
    """
    db, spec = _build(n_rows)
    target = None
    probe = (n_rows - 1,)
    tf = _make_tf(db, spec, mode)
    units = 0
    t0 = time.perf_counter()
    while tf.phase is not Phase.POPULATING:
        tf.step(1)
        units += 1
    target = tf.targets[spec.r_name]
    if mode == "lazy":
        _read(db, probe)  # triggers the just-in-time migration
    while target.get(probe) is None:
        tf.step(STEP_BUDGET)
        units += STEP_BUDGET
    ttfrt_s = time.perf_counter() - t0

    # Read-latency distribution mid-population: lazy reads pay the JIT
    # migration for untouched records, eager reads are plain source
    # reads (their redirection cost is the ttfrt above).
    rng = random.Random(SEED + 1)
    latencies = [_read(db, (rng.randrange(n_rows),))
                 for _ in range(LATENCY_SAMPLE)]
    return {
        "ttfrt_units": float(units),
        "ttfrt_ms": ttfrt_s * 1e3,
        "read_p50_ms": _percentile(latencies, 0.50) * 1e3,
        "read_p99_ms": _percentile(latencies, 0.99) * 1e3,
    }


def sweep() -> Dict[str, object]:
    by_size: Dict[int, Dict[str, Dict[str, float]]] = {}
    rows: List[List[object]] = []
    for n_rows in SIZES:
        eager = measure_mode("eager", n_rows)
        lazy = measure_mode("lazy", n_rows)
        by_size[n_rows] = {"eager": eager, "lazy": lazy}
        speedup = eager["ttfrt_units"] / lazy["ttfrt_units"]
        rows.append([n_rows,
                     eager["ttfrt_units"], lazy["ttfrt_units"], speedup,
                     eager["ttfrt_ms"], lazy["ttfrt_ms"],
                     eager["read_p99_ms"], lazy["read_p99_ms"]])
    return {"rows": rows, "by_size": by_size}


def check_and_save(result: Dict[str, object],
                   capsys=None) -> Dict[str, object]:
    header = ["rows", "eager units", "lazy units", "speedup",
              "eager ms", "lazy ms", "eager read p99 ms",
              "lazy read p99 ms"]
    lines = print_series(
        "Lazy migration: time to first redirected transaction"
        " (split scenario, probe = last row in scan order)",
        "migrate-on-read is post-paper: the paper populates eagerly",
        header, result["rows"], capsys)
    save_results("lazy_migration", lines)
    save_results_json("lazy_migration", series_payload(
        "lazy_migration", "ttfrt and JIT read latency, lazy vs eager",
        header, result["rows"]))

    by_size = {int(k): v for k, v in result["by_size"].items()}
    largest = max(by_size)
    speedups = {
        str(n): (by_size[n]["eager"]["ttfrt_units"] /
                 by_size[n]["lazy"]["ttfrt_units"])
        for n in by_size
    }
    payload = {
        "benchmark": "lazy_migration",
        "sizes": list(by_size),
        "seed": SEED,
        "step_budget": STEP_BUDGET,
        "ttfrt_units": {str(n): {m: by_size[n][m]["ttfrt_units"]
                                 for m in ("eager", "lazy")}
                        for n in by_size},
        "ttfrt_ms": {str(n): {m: by_size[n][m]["ttfrt_ms"]
                              for m in ("eager", "lazy")}
                     for n in by_size},
        "read_p99_ms": {str(n): {m: by_size[n][m]["read_p99_ms"]
                                 for m in ("eager", "lazy")}
                        for n in by_size},
        "ttfrt_speedup": speedups,
        "largest_speedup": speedups[str(largest)],
    }
    (REPO_ROOT / "BENCH_lazy_migration.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")

    # The acceptance gate.
    assert payload["largest_speedup"] >= MIN_SPEEDUP, (
        f"lazy migration too slow: ttfrt speedup on {largest} rows is "
        f"{payload['largest_speedup']:.1f}x < required {MIN_SPEEDUP:.0f}x")
    return payload


def bench_lazy_migration(benchmark, capsys):
    from benchmarks.harness import run_benchmark
    result = run_benchmark(benchmark, sweep)
    check_and_save(result, capsys)


if __name__ == "__main__":
    payload = check_and_save(sweep())
    print(json.dumps({"ttfrt_units": payload["ttfrt_units"],
                      "ttfrt_speedup": payload["ttfrt_speedup"]},
                     indent=2))
    print(f"trajectory written to "
          f"{REPO_ROOT / 'BENCH_lazy_migration.json'}")
