"""Crash-at-every-step robustness sweep (``python -m benchmarks.fault_sweep``).

Runs :func:`repro.faults.sweep.run_sweep` over every sweep label -- each
workload-carrying scenario of :data:`repro.plan.CORPUS` (one per
registered plan operator) plus its ``:lazy`` / ``:view`` / ``@N``
variants -- x synchronization strategy: for each injection site the
scenario crosses, the system is killed there once, the log is
salvaged from the simulated disk's crash image, ARIES restart runs on
the surviving flushed prefix and the recovery invariants are checked
(committed-and-flushed data preserved byte-for-byte, transient targets
discarded / published tables rebuilt, losers rolled back, no leaked
latches or locks).

The summary includes a per-layer coverage table (sites registered vs
sites actually crossed by some scenario).  A registered site the whole
sweep never fires is dead crash-test surface: the sweep fails loudly on
it, exactly like a violation.

The full report lands in ``benchmarks/results/fault_sweep.json``; the
stdout summary shows per-combo and per-layer coverage and the violation
count (which must be zero).  For the seeded crash x disk-fault soak see
``python -m benchmarks.chaos_soak``.

``--against PARENT_REPORT.json`` additionally compares, combo by combo,
the ordered list of crossed sites with an earlier report's (a refactor
of population or synchronization must cross the same sites in the same
order), prints every difference and fails on any -- and on a report
from before the sweep recorded that order (no ``crossed`` field).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from benchmarks.harness import save_results_json
from repro.faults.sweep import run_sweep


def dump_postmortem(report: Dict[str, object]) -> Optional[str]:
    """Replay the first violating crash site observed; dump its bundle.

    The sweep is deterministic, so re-arming the same site at the same
    crossing reproduces the failing run -- now with a live registry, so
    the bundle written to
    ``benchmarks/results/postmortem_fault_sweep.json``
    (:func:`repro.obs.report.postmortem_bundle`) carries the site's
    ``report`` (operator, strategy, site, crossing, outcome, violations)
    next to the failing run's ``snapshot``, ``spans``, ``blame`` and
    ``events`` -- its trace ring: blame edges, the ``fault.fired``
    firing and, if the replay raised, a ``replay.error`` event.
    """
    from repro.common.errors import SimulatedCrashError
    from repro.faults.injection import CrashFault, FaultInjector, FaultPlan
    from repro.faults.sweep import ScenarioRun, sweep_config
    from repro.obs.metrics import Metrics
    from repro.obs.report import postmortem_bundle
    from repro.transform.base import SyncStrategy

    target = next(
        ((combo, entry) for combo in report["combos"]
         for entry in combo["sites"] if entry["outcome"] != "ok"),
        None)
    if target is None:
        return None
    combo, entry = target
    plan = FaultPlan().arm(entry["site"], CrashFault(),
                           hit=entry["crash_at_hit"])
    metrics = Metrics()
    config = sweep_config(combo["operator"], SyncStrategy(combo["strategy"]))
    run = ScenarioRun(config, FaultInjector(plan), metrics=metrics)
    try:
        run.execute()
    except SimulatedCrashError:
        pass
    except Exception as exc:  # noqa: BLE001 - the bundle still helps
        metrics.trace("replay.error", error=repr(exc))
    failure = {"operator": combo["operator"], "strategy": combo["strategy"],
               "site": entry["site"], "crash_at_hit": entry["crash_at_hit"],
               "outcome": entry["outcome"],
               "violations": list(entry.get("detail") or ())}
    return save_results_json("postmortem_fault_sweep",
                             postmortem_bundle(failure, metrics))


def diff_crossed(report: Dict[str, object],
                 other: Dict[str, object]) -> List[str]:
    """Where the two reports' per-combo crossed-site lists (``crossed``:
    first-crossing order) differ.

    Raises :class:`ValueError` for a report without that field (one
    written before the sweep recorded the order): sorted site names
    would hide exactly the reordering this comparison exists to catch.
    """
    def crossed(rep: Dict[str, object]) -> Dict[str, List[str]]:
        if not all("crossed" in combo for combo in rep["combos"]):
            raise ValueError(
                "report carries no ordered 'crossed' lists; regenerate it "
                "with a sweep that records them")
        return {f"{c['operator']} / {c['strategy']}": c["crossed"]
                for c in rep["combos"]}

    ours, theirs = crossed(report), crossed(other)
    problems = [f"{combo}: only in the "
                f"{'new' if combo in ours else 'other'} report"
                for combo in sorted(set(ours) ^ set(theirs))]
    for combo in sorted(set(ours) & set(theirs)):
        now, was = ours[combo], theirs[combo]
        if now == was:
            continue
        gone = [s for s in was if s not in now]
        new = [s for s in now if s not in was]
        if gone or new:
            problems.append(
                f"{combo}: no longer crossed {gone}, newly crossed {new}")
        else:
            at = next(i for i, (a, b) in enumerate(zip(now, was))
                      if a != b)
            problems.append(
                f"{combo}: same sites, but crossing #{at + 1} is "
                f"{now[at]!r} (was {was[at]!r})")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", metavar="REPORT.json",
                        help="an earlier fault_sweep.json to compare the "
                             "crossed-site lists with")
    args = parser.parse_args(argv)
    report = run_sweep()
    path = save_results_json("fault_sweep", report)
    summary = report["summary"]
    print(f"injection sites registered : {summary['registered_sites']}")
    print(f"sites crash-tested         : {summary['covered_sites']}")
    print(f"crash/recovery runs        : {summary['crash_runs']}")
    print("per-layer coverage (registered -> fired):")
    for layer, cov in summary["layer_coverage"].items():
        gap = "" if cov["covered"] == cov["registered"] else "  (GAP)"
        print(f"  {layer:<12s} {cov['registered']:3d} registered  "
              f"{cov['covered']:3d} fired{gap}")
    for combo in report["combos"]:
        bad = [s["site"] for s in combo["sites"]
               if s["outcome"] != "ok"]
        status = "ok" if not bad else f"FAILED at {bad}"
        print(f"  {combo['operator']:>14s} / {combo['strategy']:<19s} "
              f"{combo['site_count']:3d} sites  {status}")
    print(f"violations                 : {summary['violations']}")
    failed = summary["violations"] != 0
    if summary["never_fired"]:
        failed = True
        print("FAILED: registered sites never fired by any scenario:")
        for site in summary["never_fired"]:
            print(f"  - {site}")
    print(f"full report written to {path}")
    if failed:
        bundle_path = dump_postmortem(report)
        if bundle_path:
            print(f"postmortem bundle written to {bundle_path}")
    if args.against:
        with open(args.against) as handle:
            try:
                problems = diff_crossed(report, json.load(handle))
            except ValueError as exc:
                print(f"FAILED: cannot compare with {args.against}: {exc}")
                return 1
        print(f"crossed-site lists vs {args.against}: "
              f"{len(problems)} combo(s) differ")
        for problem in problems:
            print(f"  - {problem}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
