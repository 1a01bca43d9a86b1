"""Command line of the wall-clock ledger (both front ends).

With ``--workload`` it measures that one workload and prints one JSON
object as the last line of stdout (the ``BENCHMARK.json`` contract:
``--trace 0`` reports every end-to-end metric, ``--trace 1`` every
per-layer metric).  Without it, it runs the whole ledger -- all four
workloads untraced, then traced -- and prints every metric by name.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

from benchmarks.wallclock import ledger, micro
from benchmarks.wallclock.config import (
    END_TO_END,
    LEDGER_REPS,
    PAPER_SIZES,
    QUICK_SIZES,
    RUN_SECONDS,
    WORKLOADS,
    Sizes,
    repetitions,
)
from benchmarks.wallclock.oracle import OracleMismatch
from benchmarks.wallclock.tracer import Tracer
from benchmarks.wallclock.workloads import REPS, rep_rng, run_rep

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS_DIR = os.path.join(HERE, "results")


def _save(name: str, payload: object) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
    return path


def untraced(workload: str, seed: int, reps: int,
             sizes: Sizes) -> Dict[str, object]:
    """The untraced set of one workload: end-to-end numbers come from
    here and nowhere else."""
    outs = ledger.measure(workload, seed, reps, sizes)
    found = ledger.details(workload, outs)
    return {
        "workload": workload, "seed": seed, "reps": reps,
        "attempted": sum(out["attempted"] for out in outs),
        "failed": sum(out["failed"] for out in outs),
        "details": found,
        "end_to_end": ledger.end_to_end(workload, found),
        "counts": ledger.counts(workload, outs),
    }


def traced(workload: str, seed: int, sizes: Sizes,
           micro_calls: int) -> Dict[str, object]:
    """One untraced and one traced repetition of the same inputs, then
    the microbenches and, on ``split_quiescent``, the arms."""
    plain = run_rep(REPS[workload](rep_rng(seed, workload, 0), sizes))
    tracer = Tracer()
    spanned = run_rep(REPS[workload](rep_rng(seed, workload, 0), sizes),
                      tracer)
    extra = micro.micro_metrics(micro_calls)
    if workload == "split_quiescent":
        extra.update(micro.arm_metrics(seed, sizes))
    os.makedirs(RESULTS_DIR, exist_ok=True)
    tracer.dump(os.path.join(RESULTS_DIR, f"spans-{workload}.bin"),
                run_id=f"{workload}/{seed}/0")
    span_names = tracer.by_name()
    return {
        "workload": workload, "seed": seed, "spans": len(tracer),
        "attempted": plain["attempted"] + spanned["attempted"],
        "failed": plain["failed"] + spanned["failed"],
        "per_layer": ledger.per_layer(spanned, plain, span_names, extra),
        "micro": sorted(extra), "span_names": span_names,
    }


# -- the contract front end: one workload, one JSON line ----------------------------


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            sizes: Sizes, reps: Optional[int], micro_calls: int) -> int:
    try:
        if trace:
            result = traced(workload, seed, sizes, micro_calls)
            metrics = {name: {"value": result["per_layer"][name],
                              "unit": unit}
                       for name, unit, _better in ledger.PER_LAYER}
        else:
            result = untraced(workload, seed,
                              reps or repetitions(workload, seconds), sizes)
            metrics = {name: {"value": m["value"], "unit": m["unit"]}
                       for name, m in result["end_to_end"].items()}
        correct = True
    except OracleMismatch as mismatch:
        print(f"oracle mismatch: {mismatch}", file=sys.stderr)
        result = {"workload": workload, "seed": seed,
                  "mismatch": str(mismatch), "attempted": 1, "failed": 1}
        metrics, correct = {}, False
    _save(f"{workload}-seed{seed}-trace{int(trace)}.json", result)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


# -- the ledger front end: everything, by name --------------------------------------


def in_own_process(workload: str, seed: int, trace: bool, reps: int,
                   args: argparse.Namespace) -> Dict[str, object]:
    """Measure one workload in a fresh interpreter, as the contract's
    command does: a workload measured after another in one process
    inherits its heap, and pays for it in every collector pause."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(int(trace)), "--reps", str(reps),
               "--scale", str(args.scale)]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, stdout=subprocess.DEVNULL)
    if done.returncode:     # it has said why on stderr
        raise SystemExit(f"{workload} exited with {done.returncode}")
    with open(os.path.join(
            RESULTS_DIR,
            f"{workload}-seed{seed}-trace{int(trace)}.json")) as handle:
        return json.load(handle)


def print_untraced(result: Dict[str, object]) -> None:
    """Every metric of the workload by its own name: median over the
    repetitions (or pooled statistic) with min, IQR, best repetition and
    sample count; and which generic contract metric reads its best."""
    workload = result["workload"]
    print(f"\n== {workload} (untraced, {result['reps']} reps, "
          f"seed {result['seed']}) ==")
    generic = {source: name
               for name, source in ledger.ALIASES[workload].items()}
    for name, metric in result["details"].items():
        line = (f"  {name:<24} {metric['value']:>12.6g} {metric['unit']:<6}"
                f" n={metric['n']:<6}")
        if metric["best"] is not None:
            line += (f" min {metric['min']:.5g} iqr {metric['iqr']:.3g}"
                     f" best {metric['best']:.5g}")
        if name in generic or name in result["end_to_end"]:
            line += f"  -> {generic.get(name, name)}"
        print(line)


def print_per_layer(title: str, values: Dict[str, float],
                    only: Sequence[str]) -> None:
    print(f"\n== {title} ==")
    for name, unit, _better in ledger.PER_LAYER:
        if name in only:
            print(f"  {name:<44} {values[name]:>14.6g} {unit}")


def run_ledger(args: argparse.Namespace,
               reps: Dict[str, int]) -> Dict[str, object]:
    report: Dict[str, object] = {"seed": args.seed, "untraced": {},
                                 "traced": {}}
    started = time.perf_counter()
    for workload in WORKLOADS:
        result = in_own_process(workload, args.seed, False, reps[workload],
                                args)
        report["untraced"][workload] = result
        print_untraced(result)
    report["untraced_wall_s"] = time.perf_counter() - started
    for workload in WORKLOADS:
        result = in_own_process(workload, args.seed, True, 1, args)
        report["traced"][workload] = result
        values, shared = result["per_layer"], result["micro"]
        if len(report["traced"]) == 1:
            print_per_layer("microbenches (tracing off; they do not depend "
                            "on the workload)", values, only=shared)
        print_per_layer(f"{workload} (traced, 1 rep, {result['spans']} "
                        "spans)", values, only=set(values) - set(shared))
    print(f"\nuntraced set: {report['untraced_wall_s']:.1f} s wall; "
          f"no gain is claimed -- this is the baseline.")
    return report


def repeat_check(args: argparse.Namespace, reps: Dict[str, int]) -> int:
    """Run the untraced set twice with one seed: every end-to-end metric
    must agree within its own bound and every count of the two
    deterministic workloads must be identical."""
    bounds = {name: bound for name, _u, _b, bound in END_TO_END}
    problems: List[str] = []
    for workload in WORKLOADS:
        first, second = (in_own_process(workload, args.seed, False,
                                        reps[workload], args)
                         for _ in range(2))
        for name, metric in first["end_to_end"].items():
            a, b = metric["value"], second["end_to_end"][name]["value"]
            gap = abs(a - b) / max(abs(a), abs(b))
            verdict = "ok" if gap <= bounds[name] else "DISAGREE"
            print(f"  {workload:<18} {name:<18} {a:>12.6g} {b:>12.6g} "
                  f"gap {gap:6.3f} bound {bounds[name]:.2f} {verdict}")
            if gap > bounds[name]:
                problems.append(f"{name} on {workload}: gap {gap:.3f}")
        if first["counts"] != second["counts"]:
            problems.append(f"counts differ on {workload}: "
                            f"{first['counts']} vs {second['counts']}")
        elif first["counts"]:
            print(f"  {workload:<18} counts identical: "
                  f"{sorted(first['counts'])}")
    for problem in problems:
        print("REPEAT-CHECK FAILED:", problem, file=sys.stderr)
    return 1 if problems else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.wallclock", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="measure this one workload and print one "
                        "JSON line (default: the whole ledger)")
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                        help="with --workload: the run's wall-time budget "
                        "(sets the number of repetitions)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports per-layer metrics")
    parser.add_argument("--reps", type=int,
                        help="with --workload: repetitions, instead of "
                        "what --seconds would buy")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply rows (off-ledger runs)")
    parser.add_argument("--quick", action="store_true",
                        help="a tenth of the rows, one repetition")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run the untraced set twice with the same "
                        "seed; fail unless the two agree")
    args = parser.parse_args(argv)

    sizes = PAPER_SIZES if args.scale == 1.0 else PAPER_SIZES.scaled(
        args.scale)
    reps, micro_calls = dict(LEDGER_REPS), micro.CALLS
    if args.quick:
        sizes, micro_calls = QUICK_SIZES, micro.QUICK_CALLS
        reps = dict.fromkeys(reps, 1)
    if args.workload:
        return run_one(args.workload, args.seed, args.seconds,
                       bool(args.trace), sizes, args.reps, micro_calls)
    if args.repeat_check:
        return repeat_check(args, reps)
    report = run_ledger(args, reps)
    print(f"written: {_save(f'ledger-seed{args.seed}.json', report)}")
    return 0
