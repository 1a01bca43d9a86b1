"""Alternating parent/change pairs of the ``BENCHMARK.json`` command.

    python3 benchmarks/pairs.py PARENT CHANGE [--pairs 10] [--seed 101]
        [--workloads foj_catchup,...] [--trace 0|1] [--out pairs.json]
        [--require METRIC:WORKLOAD ...]

``PARENT`` and ``CHANGE`` are two checkouts (say a ``git worktree`` or a
clone of the parent commit, and this tree).  Every workload is run
``--pairs`` times on each, the side that goes first alternating and each
pair getting a fresh seed; the command, run length, workloads, metrics
and bounds are read from ``CHANGE/BENCHMARK.json``.  Per metric it
prints both medians, both quartile ranges, the pairs the change won and
the verdict of the choosing-metrics guide (section 8): *gain* when the
change won at least nine tenths of the pairs and the medians differ by
more than the parent's quartile range; otherwise *held* when the
change's median is within the metric's bound of the parent's,
*unresolved* when the parent's own spread is wider than that bound (and
the two sides' runs overlap), else *WORSE*.  ``--trace 1`` compares the
per-layer metrics instead (they have no bound: *gain* or nothing).

``--require METRIC:WORKLOAD`` (repeatable) makes the protocol a gate: the
exit status is non-zero unless every required pairing reads *gain* and
no metric of any workload that was run reads *WORSE*.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run(checkout, command, workload, seed, seconds, trace):
    """One benchmark process in ``checkout``; its last stdout line."""
    done = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed), "--seconds",
                   str(seconds), "--trace", str(trace)],
        cwd=checkout, stdout=subprocess.PIPE, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} in {checkout}: incorrect")
    return result


def quartiles(values):
    """(median, inter-quartile range)."""
    if len(values) < 2:
        return values[0], 0.0
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return median, high - low


def verdict(parent, change, gap, spread, higher_is_better, bound):
    """(pairs won, verdict) of one metric's paired readings; ``gap`` is
    the change's median minus the parent's, ``spread`` the parent's
    inter-quartile range."""
    sign = 1.0 if higher_is_better else -1.0
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    if won >= 0.9 * len(parent) and sign * gap > spread:
        return won, "gain"
    if bound is None:
        return won, ""
    allowed = bound * abs(statistics.median(parent))
    apart = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > allowed and not apart:
        return won, "unresolved"
    return won, "held" if -sign * gap <= allowed else "WORSE"


def unmet(readings, required):
    """Why the ``--require`` gate fails (empty: it passes, as it always
    does when nothing is required): a required (metric, workload) whose
    verdict is not *gain*, or any metric that ran and reads *WORSE*."""
    if not required:
        return []
    return [f"{metric} on {workload} is "
            f"{readings[workload][metric]['verdict'] or 'unchanged'}, not gain"
            for metric, workload in required
            if readings[workload][metric]["verdict"] != "gain"] + [
        f"{metric} on {workload} is WORSE"
        for workload, rows in readings.items()
        for metric, row in rows.items() if row["verdict"] == "WORSE"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=101,
                        help="seed of the first pair (then +1 per pair)")
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write every reading as JSON")
    parser.add_argument("--require", action="append", default=[],
                        metavar="METRIC:WORKLOAD",
                        help="fail unless this pairing's verdict is gain "
                             "and nothing that ran is WORSE (repeatable)")
    args = parser.parse_args(argv)
    sides = [os.path.abspath(args.parent), os.path.abspath(args.change)]
    with open(os.path.join(sides[1], "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    required = [r.partition(":")[::2] for r in args.require]
    for metric, workload in required:
        if workload not in names or \
                metric not in (m["name"] for m in declared):
            parser.error(f"--require {metric}:{workload}: not a metric and "
                         f"workload of this run")
    readings = {}
    for workload in names:
        runs = ([], [])                # parent's results, change's results
        for pair in range(args.pairs):
            for side in ((0, 1), (1, 0))[pair % 2]:
                runs[side].append(run(
                    sides[side], spec["command"], workload, args.seed + pair,
                    spec["run_seconds"], args.trace))
        readings[workload] = rows = {}
        failed = [sum(r["failed"] for r in side) for side in runs]
        print(f"\n== {workload}: {args.pairs} pairs, seeds {args.seed}.."
              f"{args.seed + args.pairs - 1}, failed {failed[0]} -> "
              f"{failed[1]} ==")
        for metric in declared:
            name = metric["name"]
            parent, change = ([r["metrics"][name]["value"] for r in side]
                              for side in runs)
            (p_med, p_iqr), (c_med, c_iqr) = \
                quartiles(parent), quartiles(change)
            won, word = verdict(parent, change, c_med - p_med, p_iqr,
                                metric["better"] == "higher",
                                metric.get("bound"))
            rows[name] = {"parent": parent, "change": change, "won": won,
                          "verdict": word}
            print(f"  {name:<44} {p_med:>12.6g} (iqr {p_iqr:.3g}) -> "
                  f"{c_med:>12.6g} (iqr {c_iqr:.3g})  won {won}/"
                  f"{args.pairs}  {word}", flush=True)
        if args.out:                   # rewritten after every workload
            with open(args.out, "w") as handle:
                json.dump(readings, handle, indent=1)
    broken = unmet(readings, required)
    for line in broken:
        print(f"REQUIRE FAILED: {line}", file=sys.stderr)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
