"""SHARD-SCALING: completion time under ``shards=N`` vs. shard count.

The paper's transformation is a single background pipeline; ``shards=N``
charges each row the population scan hands out, and each routed
propagation apply, to its key's shard account, so a step costs
what the busiest of N cores would spend (the own-core cost model -- see
``Transformation._propagate_batch``).  All numbers here are in
*simulated* milliseconds; the log is read once, in LSN order, on one
thread whatever N is.  This bench sweeps N in {1, 2, 4, 8} on the split
scenario at a *fixed* workload and checks:

* completion time strictly decreases from N=1 through N=4 (and in
  practice through N=8, though the serial share -- skipped records, end
  records, markers, unrouted applies -- bounds the speed-up below 1/N,
  Amdahl-style);
* N=1 keeps no shard accounts, so it must match the option-less
  pipeline's completion time within 5%.

Outputs: ``BENCH_shard_scaling.json`` at the repo root (the perf
trajectory / CI drift-gate file), a structured table under
``benchmarks/results/shard_scaling.json`` and an observed N=2 run report
with the per-shard accounting summary under
``benchmarks/results/shard_scaling.report.json``.
"""

import json
from dataclasses import replace
from typing import Callable, Dict, List, Optional

from repro.api import TransformOptions, build_run_report
from repro.sim import RunSettings, build_split_scenario, run_once

from benchmarks.harness import (
    REPO_ROOT,
    observed_run_section,
    print_series,
    run_benchmark,
    save_results,
    save_results_json,
    save_run_report,
    seed_list,
    series_payload,
)

#: Shard counts the sweep measures (1 is the sequential pipeline).
SHARD_COUNTS = (1, 2, 4, 8)

#: Fixed workload: scenario size and client count are pinned (no
#: calibration) so completion times are directly comparable across N.
ROWS = 600
DUMMY_ROWS = 300
SETTINGS = RunSettings(n_clients=8, warmup_ms=10.0, window_ms=120.0,
                       priority=0.1, stop_after_window=False)


def shard_builder(shards: Optional[int]) -> Callable:
    """Split-scenario builder with an N-way sharded transformation.

    ``shards=None`` omits the knob entirely -- the construction path a
    pre-sharding caller would take -- for the N=1 equivalence check.
    """
    tf_kwargs = ({"options": TransformOptions(shards=shards)}
                 if shards is not None else None)

    def build(seed: int):
        return build_split_scenario(seed, rows=ROWS, dummy_rows=DUMMY_ROWS,
                                    tf_kwargs=tf_kwargs)
    return build


def completion_time(shards: Optional[int], seed: int) -> float:
    run = run_once(shard_builder(shards),
                   replace(SETTINGS, seed=seed, with_transformation=True))
    assert run.completion_time is not None, \
        f"shards={shards} seed={seed}: transformation did not complete"
    return run.completion_time


def averaged_completion(shards: Optional[int]) -> float:
    times = [completion_time(shards, seed) for seed in seed_list()]
    return sum(times) / len(times)


def sweep() -> Dict[str, object]:
    baseline = averaged_completion(None)  # no shards option at all
    rows: List[List[object]] = []
    for n in SHARD_COUNTS:
        t = averaged_completion(n)
        rows.append([n, t, baseline / t if t else 0.0])
    return {"baseline_completion_ms": baseline, "rows": rows}


def shard_report() -> Dict[str, object]:
    """One observed N=2 run: spans, the (one) convergence series and the
    per-shard accounting summary in the report."""
    run = run_once(shard_builder(2),
                   replace(SETTINGS, seed=0, with_transformation=True,
                           observe=True))
    section = observed_run_section(
        "shards=2", run,
        meta={"shards": 2, "rows": ROWS, "n_clients": SETTINGS.n_clients,
              "priority": SETTINGS.priority})
    section["shard_summary"] = run.info.get("shard_summary")
    return build_run_report(
        "shard_scaling", [section],
        meta={"shard_counts": list(SHARD_COUNTS), "rows": ROWS})


def check_and_save(result: Dict[str, object],
                   capsys=None) -> Dict[str, object]:
    header = ["shards", "completion ms", "speedup"]
    lines = print_series(
        "Sharded pipeline scaling (split scenario, fixed workload)",
        "sharding is post-paper: the paper runs one pipeline (N=1)",
        header, result["rows"], capsys)
    save_results("shard_scaling", lines)
    save_results_json("shard_scaling", series_payload(
        "shard_scaling", "completion time vs shard count",
        header, result["rows"]))

    by_n = {int(r[0]): float(r[1]) for r in result["rows"]}
    baseline = float(result["baseline_completion_ms"])
    payload = {
        "benchmark": "shard_scaling",
        "rows": ROWS,
        "n_clients": SETTINGS.n_clients,
        "priority": SETTINGS.priority,
        "seeds": len(seed_list()),
        "baseline_completion_ms": baseline,
        "completion_ms": {str(n): by_n[n] for n in SHARD_COUNTS},
        "speedup": {str(n): (baseline / by_n[n] if by_n[n] else 0.0)
                    for n in SHARD_COUNTS},
    }
    (REPO_ROOT / "BENCH_shard_scaling.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")

    # The acceptance gates.
    assert abs(by_n[1] - baseline) <= 0.05 * baseline, \
        f"shards=1 ({by_n[1]:.2f} ms) diverged from the unsharded " \
        f"pipeline ({baseline:.2f} ms) by more than 5%"
    for lo, hi in zip(SHARD_COUNTS, SHARD_COUNTS[1:]):
        if hi <= 4:
            assert by_n[hi] < by_n[lo], \
                f"completion time not strictly decreasing: " \
                f"N={lo}: {by_n[lo]:.2f} ms vs N={hi}: {by_n[hi]:.2f} ms"
    return payload


def bench_shard_scaling(benchmark, capsys):
    result = run_benchmark(benchmark, sweep)
    check_and_save(result, capsys)
    save_run_report("shard_scaling.report", shard_report())


if __name__ == "__main__":
    payload = check_and_save(sweep())
    path = save_run_report("shard_scaling.report", shard_report())
    print(json.dumps({"completion_ms": payload["completion_ms"],
                      "speedup": payload["speedup"]}, indent=2))
    print(f"N=2 run report written to {path}")
    print(f"trajectory written to {REPO_ROOT / 'BENCH_shard_scaling.json'}")
