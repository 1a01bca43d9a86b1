"""Migration-plan scenario corpus sweep (``python -m benchmarks.plan_corpus``).

Runs every scenario in :data:`repro.plan.CORPUS` twice:

1. **Clean run** -- build the seed tables, execute the plan online with
   per-step observability (``run_plan(..., observe=True)``), and check
   the final catalog against the scenario's reference-operator oracle.
2. **Crash-resume slice** -- for every step ``k`` of the plan, rebuild
   from scratch, crash the system at the ``k``-th swap record
   (``sync.swap.logged``), run ARIES restart, resume the plan
   (``resume=True``) and check the oracle again: the first ``k`` steps
   must replay from the recovered catalog's swaps and the rest run.
   This exercises the resume path after every step of every plan in the
   corpus, multi-step chains included.

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


def crash_resume_run(scenario: CorpusScenario,
                     hit: int) -> Dict[str, object]:
    """Crash at the ``hit``-th swap, restart, resume, verify."""
    db = Database()
    scenario.build(db)
    db.attach_faults(FaultInjector(
        FaultPlan().arm("sync.swap.logged", CrashFault(), hit=hit)))
    crashed = False
    try:
        run_plan(db, scenario.plan)
    except SimulatedCrashError:
        crashed = True
    db.log.faults = NULL_FAULTS
    if not crashed:
        return {"hit": hit, "crashed": False, "violations":
                [f"crash at sync.swap.logged hit {hit} never fired"]}
    recovered = restart(db.log)
    report = run_plan(recovered, scenario.plan, resume=True)
    violations = scenario.verify(recovered)
    statuses = [s["status"] for s in report["steps"]]
    expected = ["replayed"] * hit + ["done"] * (len(statuses) - hit)
    if statuses != expected:
        violations = violations + [
            f"crash at swap {hit}: statuses {statuses}, not {expected}"]
    return {
        "hit": hit,
        "crashed": True,
        "resumed": report["resumed"],
        "statuses": statuses,
        "violations": violations,
    }


def main() -> int:
    scenarios: Dict[str, object] = {}
    all_violations: List[str] = []
    for scenario in CORPUS:
        clean = clean_run(scenario)
        resumes = [crash_resume_run(scenario, hit)
                   for hit in range(1, len(scenario.plan.steps) + 1)]
        resume_violations = [v for resume in resumes
                             for v in resume["violations"]]
        for v in clean["violations"]:
            all_violations.append(f"{scenario.name} (clean): {v}")
        for v in resume_violations:
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
            "resume": [{k: v for k, v in resume.items()
                        if k != "violations"} for resume in resumes],
            "resume_violations": resume_violations,
        }
        status = "ok" if not (clean["violations"] or
                              resume_violations) else "VIOLATION"
        print(f"{scenario.name:<20} steps={len(scenario.plan.steps)} "
              f"resume={[r.get('statuses') for r in resumes]} {status}")
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
