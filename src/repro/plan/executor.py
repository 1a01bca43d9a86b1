"""Compiling and running migration plans: the executable half of the API.

:class:`PlanExecutor` turns a validated :class:`MigrationPlan` into a
chain of supervised online transformations.  Each step is compiled to a
transformation *factory* (so every supervisor retry re-derives its spec
from the then-current catalog) and driven to completion by a
:class:`~repro.transform.supervisor.TransformationSupervisor` before the
next step starts; the per-step run report carries the supervisor's
attempt history, the published tables with row counts, and -- under
``observe=True`` -- a fresh per-step metrics snapshot with the
interference blame breakdown.

Crash resume reads the catalog, not the log: a step's swap registers its
deterministic transform id (``"<plan_id>.<step_id>"``) in
:meth:`~repro.storage.catalog.Catalog.swaps`, which restart recovery
rebuilds, and ``run(resume=True)`` replays registered steps as no-ops
and re-runs the chain from the first step that had not swapped.

:func:`run_plan` is the one-call convenience wrapper.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.errors import PlanValidationError
from repro.engine.database import Database
from repro.obs.metrics import Metrics
from repro.obs.report import run_section
from repro.plan.operators import PLAN_OPERATORS
from repro.plan.spec import PLAN_OPTION_FIELDS, MigrationPlan, MigrationStep
from repro.plan.validate import PlanValidator
from repro.transform.options import TransformOptions
from repro.transform.supervisor import TransformationSupervisor


class PlanExecutor:
    """Runs one migration plan against one database.

    Args:
        db: The live database.
        plan: The plan to execute.
        validate: Run the :class:`~repro.plan.validate.PlanValidator`
            before touching anything (on by default; turn off only when
            the same plan object was already validated against this
            database).
        observe: Attach a fresh :class:`~repro.obs.metrics.Metrics`
            registry per step, yielding per-step snapshots and blame
            breakdowns in the report (the database's original registry is
            restored afterwards).
    """

    def __init__(self, db: Database, plan: MigrationPlan, *,
                 validate: bool = True, observe: bool = False) -> None:
        self.db = db
        self.plan = plan
        self.validate = validate
        self.observe = observe

    # -- resume ----------------------------------------------------------

    def completed_step_ids(self) -> List[str]:
        """Step ids whose swaps are in effect in the database's catalog.

        Recovery rebuilds a registered swap's published tables, so
        re-running the step would be both impossible (its sources are
        retired) and wrong.  The completed steps must form a prefix of
        the plan -- steps run in order, so a gap means the database
        belongs to a different plan (or a different version of it).
        """
        swapped = self.db.catalog.swaps()
        completed = [step.step_id for step in self.plan.steps
                     if self.plan.transform_id(step) in swapped]
        if completed != self.plan.step_ids()[:len(completed)]:
            raise PlanValidationError(self.plan.plan_id, [
                f"completed steps {completed} are not a prefix of the "
                f"plan's steps {self.plan.step_ids()}; the database does "
                "not match this plan"])
        return completed

    # -- execution -------------------------------------------------------

    def run(self, resume: bool = False) -> Dict[str, object]:
        """Execute the plan; returns the run report.

        With ``resume=True``, steps whose swaps the catalog holds are
        replayed as no-ops (status ``"replayed"``) and execution continues
        from the first incomplete step -- the crash-recovery path.
        Without it the plan must start from scratch.
        """
        completed = self.completed_step_ids() if resume else []
        if self.validate:
            PlanValidator(self.db).validate(self.plan, completed)
        original_metrics = self.db.metrics
        steps: List[Dict[str, object]] = []
        try:
            for step in self.plan.steps:
                steps.append(self._step_report(step, "replayed")
                             if step.step_id in completed
                             else self._run_step(step))
        finally:
            if self.observe:
                self.db.attach_metrics(original_metrics)
        return {
            "plan_id": self.plan.plan_id,
            "description": self.plan.description,
            "resumed": bool(completed),
            "steps": steps,
        }

    def _run_step(self, step: MigrationStep) -> Dict[str, object]:
        op = PLAN_OPERATORS[step.operator]
        options = self.step_options(step)
        metrics: Optional[Metrics] = None
        if self.observe:
            metrics = Metrics()
            self.db.attach_metrics(metrics)
        supervisor = TransformationSupervisor(
            self.db, lambda: op.build(self.db, step.params, options))
        tf = supervisor.run()
        snapshot = metrics.snapshot() if metrics is not None else None
        report = {**self._step_report(step, "done"),
                  "supervisor": dict(supervisor.stats),
                  "attempts": list(supervisor.history)}
        if snapshot is not None:
            report["blame"] = snapshot.get("blame")
            report["section"] = run_section(
                options.transform_id, metrics=snapshot,
                convergence=tf.convergence,
                meta={"operator": step.operator, "sync": str(options.sync)})
        return report

    def step_options(self, step: MigrationStep) -> TransformOptions:
        """The step's effective options: plan defaults under step
        overrides, plus the deterministic transform id."""
        merged = {**self.plan.defaults, **step.options}
        merged = {k: v for k, v in merged.items() if k in PLAN_OPTION_FIELDS}
        return TransformOptions(
            **merged, transform_id=self.plan.transform_id(step))

    def _step_report(self, step: MigrationStep,
                     status: str) -> Dict[str, object]:
        """The fields of every step's report; ``published`` holds the row
        counts of the tables its swap published (those a later step has
        not retired since)."""
        transform_id = self.plan.transform_id(step)
        published = self.db.catalog.swaps().get(transform_id, ())
        return {"step_id": step.step_id, "operator": step.operator,
                "transform_id": transform_id, "status": status,
                "published": {
                    name: sum(1 for _ in self.db.catalog.get(name).scan())
                    for name in published if self.db.catalog.exists(name)}}


def run_plan(db: Database, plan: MigrationPlan, *, resume: bool = False,
             validate: bool = True, observe: bool = False
             ) -> Dict[str, object]:
    """Validate and execute ``plan`` against ``db``; returns the report.

    The primary entry point of the plan API::

        plan = MigrationPlan.from_json(text)
        report = run_plan(db, plan, observe=True)

    After a crash, salvage the log, run restart recovery, and call
    ``run_plan(db, plan, resume=True)``: completed steps are replayed
    from the recovered catalog's swaps and the in-flight step re-runs.
    """
    return PlanExecutor(db, plan, validate=validate,
                        observe=observe).run(resume=resume)

