"""Migration-plan scenario corpus sweep (``python -m benchmarks.plan_corpus``).

Runs every scenario in :data:`repro.plan.CORPUS` twice:

1. **Clean run** -- build the seed tables, execute the plan online with
   per-step observability (``run_plan(..., observe=True)``), and check
   the final catalog against the scenario's reference-operator oracle.
2. **Crash-resume slice** -- rebuild from scratch, crash the system at
   the first step's swap record (``sync.swap.logged``), salvage the log,
   run ARIES restart, resume the plan (``resume=True``) and check the
   oracle again.  This exercises the WAL-backed replay path of every
   plan in the corpus, multi-step chains included.

Each plan's step sections (metrics snapshot, convergence series and
interference blame) land in ``benchmarks/results/plan_<name>.report.json``
-- renderable with ``python -m repro.obs`` -- and the machine-readable
summary in
``benchmarks/results/plan_corpus.json``.  Any oracle violation, failed
resume, or crash that never fired makes the sweep exit non-zero.
"""

from __future__ import annotations

import sys
from typing import Dict, List

from benchmarks.harness import save_results_json
from repro import (
    CrashFault,
    Database,
    FaultInjector,
    FaultPlan,
    NULL_FAULTS,
    SimulatedCrashError,
    build_run_report,
    restart,
    run_plan,
)
from repro.plan import CORPUS, CorpusScenario


def clean_run(scenario: CorpusScenario) -> Dict[str, object]:
    """Build, execute observed, verify; returns the scenario entry."""
    db = Database()
    scenario.build(db)
    report = run_plan(db, scenario.plan, observe=True)
    violations = scenario.verify(db)
    return {
        "report": report,
        "violations": violations,
        "published": {
            step["step_id"]: step["published"]
            for step in report["steps"]},
    }


def crash_resume_run(scenario: CorpusScenario) -> Dict[str, object]:
    """Crash at the first swap, restart, resume, verify."""
    db = Database()
    scenario.build(db)
    db.attach_faults(FaultInjector(
        FaultPlan().arm("sync.swap.logged", CrashFault(), hit=1)))
    crashed = False
    try:
        run_plan(db, scenario.plan)
    except SimulatedCrashError:
        crashed = True
    db.log.faults = NULL_FAULTS
    if not crashed:
        return {"crashed": False, "violations":
                ["crash at sync.swap.logged never fired"]}
    recovered = restart(db.log)
    report = run_plan(recovered, scenario.plan, resume=True)
    violations = scenario.verify(recovered)
    if not report["resumed"]:
        violations = violations + [
            "resume replayed nothing despite a completed swap"]
    return {
        "crashed": True,
        "resumed": report["resumed"],
        "statuses": [s["status"] for s in report["steps"]],
        "violations": violations,
    }


def main() -> int:
    scenarios: Dict[str, object] = {}
    all_violations: List[str] = []
    for scenario in CORPUS:
        clean = clean_run(scenario)
        resume = crash_resume_run(scenario)
        for v in clean["violations"]:
            all_violations.append(f"{scenario.name} (clean): {v}")
        for v in resume["violations"]:
            all_violations.append(f"{scenario.name} (resume): {v}")
        sections = [s["section"] for s in clean["report"]["steps"]
                    if "section" in s]
        save_results_json(
            f"plan_{scenario.name}.report",
            build_run_report(
                f"plan_corpus/{scenario.name}", sections,
                meta={"challenge": scenario.challenge,
                      "plan_id": scenario.plan.plan_id,
                      "steps": scenario.plan.step_ids()}))
        scenarios[scenario.name] = {
            "challenge": scenario.challenge,
            "steps": scenario.plan.step_ids(),
            "published": clean["published"],
            "clean_violations": clean["violations"],
            "resume": {k: v for k, v in resume.items()
                       if k != "violations"},
            "resume_violations": resume["violations"],
        }
        status = "ok" if not (clean["violations"] or
                              resume["violations"]) else "VIOLATION"
        print(f"{scenario.name:<20} steps={len(scenario.plan.steps)} "
              f"resume={resume.get('statuses')} {status}")
    summary = {
        "scenarios": len(scenarios),
        "violations": len(all_violations),
        "violation_detail": all_violations,
    }
    path = save_results_json("plan_corpus", {
        "summary": summary, "scenarios": scenarios})
    print(f"\n{summary['scenarios']} scenarios, "
          f"{summary['violations']} violations -> {path}")
    if all_violations:
        for v in all_violations:
            print(f"  VIOLATION: {v}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
