"""Seeded crash x disk-fault chaos soak (``python -m benchmarks.chaos_soak``).

Each seed drives one :func:`repro.faults.chaos.chaos_run` experiment: a
randomized run description (:func:`repro.faults.chaos.draw_config`:
every registered plan operator's corpus scenario, strategy x storage,
population mode, shards, step budgets, flush policy and a generated
history), a crash armed at
a random crossing of a random injection site, and (three times out of
four) a disk fault -- torn write, lying fsync or bit flip -- armed on the
``disk.sync`` site before the crash.  After the kill the log is salvaged
from the disk's crash image, ARIES restart runs on the flushed prefix
and the durability-aware invariants are checked.

Usage::

    python -m benchmarks.chaos_soak                 # soak seeds 0..199
    python -m benchmarks.chaos_soak --runs 500      # a longer soak
    python -m benchmarks.chaos_soak --seed 42       # replay one seed

Every experiment is fully reproducible from its seed.  On a violation
the soak prints a one-line repro recipe, writes the full failing report
(the fault plan, salvage description and violation list) to
``benchmarks/results/chaos_failures.json``, replays the seed *observed*
and dumps the resulting postmortem bundle
(:func:`repro.obs.report.postmortem_bundle`: ``report``, ``snapshot``,
``spans``, ``blame`` and ``events`` -- the trace ring, fault firings and
blame edges included) to
``benchmarks/results/postmortem_chaos_seed<seed>.json`` for artifact
upload, then exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from typing import Dict, List, Tuple

from benchmarks.harness import save_results_json
from repro.faults.chaos import chaos_run
from repro.obs.metrics import Metrics
from repro.obs.report import postmortem_bundle


def dump_postmortem(seed: int) -> Tuple[Dict[str, object], str]:
    """Replay a violating seed observed; write its postmortem bundle.

    Chaos runs are deterministic in the seed, so the replay reproduces
    the violation exactly -- this time with a live registry attached to
    the armed pass, so the bundle carries the final spans, the blame
    edges and every fault firing next to the violation list.
    """
    metrics = Metrics()
    report = chaos_run(seed, metrics=metrics)
    bundle = postmortem_bundle(report, metrics)
    path = save_results_json(f"postmortem_chaos_seed{seed}", bundle)
    return bundle, path


def soak(start: int, runs: int, verbose: bool = False) -> Dict[str, object]:
    """Run ``runs`` seeded experiments starting at ``start``."""
    outcomes: Counter = Counter()
    fault_mix: Counter = Counter()
    operators: Counter = Counter()
    failures: List[Dict[str, object]] = []
    for seed in range(start, start + runs):
        report = chaos_run(seed)
        outcomes[report["outcome"]] += 1
        fault_mix[report.get("disk_fault") or "none"] += 1
        operators[report["operator"]] += 1
        if report["violations"]:
            failures.append(report)
            print(f"VIOLATION at seed {seed}: {report['violations']}")
            print(f"  repro: {report['repro']}")
            _, bundle_path = dump_postmortem(seed)
            print(f"  postmortem bundle: {bundle_path}")
        elif verbose:
            print(f"seed {seed:4d}  {report['outcome']:<14s} "
                  f"{report['operator']}/{report['strategy']} "
                  f"{report['flush_policy']} "
                  f"fault={report.get('disk_fault')}")
    return {
        "seed_range": [start, start + runs],
        "runs": runs,
        "outcomes": dict(outcomes),
        "disk_faults": dict(fault_mix),
        "operators": dict(operators),
        "failures": failures,
    }


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        description="seeded crash x disk-fault chaos soak")
    parser.add_argument("--seed", type=int, default=None,
                        help="replay exactly one seed and print its report")
    parser.add_argument("--start", type=int, default=0,
                        help="first seed of the soak range (default 0)")
    parser.add_argument("--runs", type=int, default=200,
                        help="number of seeded runs (default 200)")
    parser.add_argument("--verbose", action="store_true",
                        help="print a line per run, not just violations")
    args = parser.parse_args(argv)

    if args.seed is not None:
        report = chaos_run(args.seed)
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
        if report["violations"]:
            _, bundle_path = dump_postmortem(args.seed)
            print(f"postmortem bundle: {bundle_path}")
            return 1
        return 0

    summary = soak(args.start, args.runs, verbose=args.verbose)
    path = save_results_json("chaos_soak", summary)
    print(f"chaos soak: {summary['runs']} runs "
          f"(seeds {summary['seed_range'][0]}..{summary['seed_range'][1] - 1})")
    print(f"  outcomes    : {json.dumps(summary['outcomes'], sort_keys=True)}")
    print(f"  disk faults : "
          f"{json.dumps(summary['disk_faults'], sort_keys=True)}")
    print(f"  operators   : "
          f"{json.dumps(summary['operators'], sort_keys=True)}")
    print(f"results written to {path}")
    if summary["failures"]:
        fail_path = save_results_json(
            "chaos_failures", {"failures": summary["failures"]})
        print(f"{len(summary['failures'])} VIOLATION(S); failing plans "
              f"written to {fail_path}")
        for failure in summary["failures"]:
            print(f"  repro: {failure['repro']}")
        return 1
    print("0 violations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
