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

Crash resume rides on the WAL, not on executor state: a step that
reached its swap point left a
:class:`~repro.wal.records.TransformSwapRecord` carrying the step's
deterministic transform id (``"<plan_id>.<step_id>"``).  After restart
recovery, :meth:`PlanExecutor.completed_step_ids` scans the salvaged log
for those ids (minus any later
:class:`~repro.wal.records.TransformRetireRecord`), and
``run(resume=True)`` replays completed steps as no-ops -- recovery
already rebuilt their published tables -- and re-runs the chain from the
first step that had not swapped.

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
from repro.transform.base import Transformation
from repro.transform.options import TransformOptions
from repro.transform.supervisor import TransformationSupervisor
from repro.wal.records import TransformRetireRecord, TransformSwapRecord


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
        """Step ids whose swap records survive in the database's log.

        A step is *completed* once its swap record is durable: recovery
        rebuilds its published tables from that record, so re-running the
        step would be both impossible (its sources are retired) and
        wrong.  A later retire record cancels the swap, exactly as in
        restart recovery.  The completed steps must form a prefix of the
        plan -- steps run in order, so a gap means the log belongs to a
        different plan (or a different version of this one).
        """
        by_transform_id = {self.plan.transform_id(step): step.step_id
                           for step in self.plan.steps}
        swapped: set = set()
        retired: set = set()
        for record in self.db.log.scan():
            if isinstance(record, TransformSwapRecord):
                if record.transform_id in by_transform_id:
                    swapped.add(record.transform_id)
            elif isinstance(record, TransformRetireRecord):
                retired.add(record.transform_id)
        completed = [by_transform_id[tid] for tid in sorted(swapped - retired,
                     key=lambda tid: self.plan.step_ids().index(
                         by_transform_id[tid]))]
        prefix = self.plan.step_ids()[:len(completed)]
        if completed != prefix:
            raise PlanValidationError(self.plan.plan_id, [
                f"completed steps {completed} are not a prefix of the "
                f"plan's steps {self.plan.step_ids()}; the log does not "
                "match this plan"])
        return completed

    # -- execution -------------------------------------------------------

    def run(self, resume: bool = False) -> Dict[str, object]:
        """Execute the plan; returns the run report.

        With ``resume=True``, steps whose swap records survive in the log
        are replayed as no-ops (status ``"replayed"``) and execution
        continues from the first incomplete step -- the crash-recovery
        path.  Without it the plan must start from scratch.
        """
        completed = self.completed_step_ids() if resume else []
        if self.validate:
            PlanValidator(self.db).validate(self.plan, completed)
        original_metrics = self.db.metrics
        steps: List[Dict[str, object]] = []
        try:
            for step in self.plan.steps:
                if step.step_id in completed:
                    steps.append({
                        "step_id": step.step_id,
                        "operator": step.operator,
                        "transform_id": self.plan.transform_id(step),
                        "status": "replayed",
                        "published": self._published_counts(step),
                    })
                    continue
                steps.append(self._run_step(step))
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

        def factory() -> Transformation:
            return op.build(self.db, step.params, options)

        supervisor = TransformationSupervisor(self.db, factory)
        tf = supervisor.run()
        snapshot = metrics.snapshot() if metrics is not None else None
        report: Dict[str, object] = {
            "step_id": step.step_id,
            "operator": step.operator,
            "transform_id": options.transform_id,
            "status": "done",
            "published": self._published_counts(step),
            "supervisor": dict(supervisor.stats),
            "attempts": list(supervisor.history),
        }
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

    def _published_counts(self, step: MigrationStep) -> Dict[str, int]:
        """Row counts of the tables the step's swap record published
        (those a later step has not retired since)."""
        transform_id = self.plan.transform_id(step)
        published = [name for record in self.db.log.scan()
                     if isinstance(record, TransformSwapRecord)
                     and record.transform_id == transform_id
                     for name in record.published]
        return {name: sum(1 for _ in self.db.catalog.get_any(name).scan())
                for name in published
                if self.db.catalog.exists(name)}


def run_plan(db: Database, plan: MigrationPlan, *, resume: bool = False,
             validate: bool = True, observe: bool = False
             ) -> Dict[str, object]:
    """Validate and execute ``plan`` against ``db``; returns the report.

    The primary entry point of the plan API::

        plan = MigrationPlan.from_json(text)
        report = run_plan(db, plan, observe=True)

    After a crash, salvage the log, run restart recovery, and call
    ``run_plan(db, plan, resume=True)``: completed steps are replayed
    from their WAL swap records and the in-flight step re-runs.
    """
    return PlanExecutor(db, plan, validate=validate,
                        observe=observe).run(resume=resume)

