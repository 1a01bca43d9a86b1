"""Eager validation of migration plans against a live catalog.

:class:`PlanValidator` rejects an ill-formed :class:`MigrationPlan`
*before* any table is created or populated.  It collects every problem
it can find -- not just the first -- into one
:class:`~repro.common.errors.PlanValidationError`, so a plan author
fixes a broken document in one round trip:

* duplicate or empty step ids;
* unknown operators (with the registry enumerated);
* missing, unknown, or ill-typed operator params;
* option keys outside :data:`~repro.plan.spec.PLAN_OPTION_FIELDS`, and
  option *values* :class:`~repro.transform.options.TransformOptions`
  itself rejects (unknown sync strategy, ``version_flip`` without the
  MVCC backend, bad shard counts, ...);
* a per-row population mode (``"lazy"``, ``"trigger"``) on an
  eager-only operator (e.g. the many-to-many join);
* dangling table or attribute references, checked by walking a
  *simulated catalog*: starting from the live schemas, each step's
  ``derive`` consumes its retired sources and publishes its targets, so
  step 2 of a chain may reference step 1's output, and a step that
  re-publishes an existing table name is caught here rather than at
  swap time.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.common.errors import PlanValidationError, SchemaError
from repro.engine.database import Database
from repro.plan.operators import PLAN_OPERATORS, Schemas, live_schemas
from repro.plan.spec import PLAN_OPTION_FIELDS, MigrationPlan, MigrationStep
from repro.transform.options import TransformOptions, population_problem


class PlanValidator:
    """Validates a :class:`MigrationPlan` against one database's catalog."""

    def __init__(self, db: Database) -> None:
        self.db = db

    # -- public entry points ---------------------------------------------

    def validate(self, plan: MigrationPlan,
                 completed_step_ids: Iterable[str] = ()) -> None:
        """Raise :class:`PlanValidationError` unless the plan is runnable.

        ``completed_step_ids`` supports crash resume: steps already
        swapped into the catalog are checked structurally (ids, operator,
        params, options) but skipped by the catalog walk -- their sources
        are already retired from the live catalog, so replaying their
        ``derive`` against it would produce spurious dangling-reference
        errors.  The walk resumes from the live catalog at the first
        incomplete step.
        """
        problems = self.problems(plan, completed_step_ids)
        if problems:
            raise PlanValidationError(plan.plan_id, problems)

    def problems(self, plan: MigrationPlan,
                 completed_step_ids: Iterable[str] = ()) -> List[str]:
        """All problems found, empty when the plan is runnable."""
        completed = set(completed_step_ids)
        problems: List[str] = []
        if not plan.plan_id:
            problems.append("plan: plan_id must be a non-empty string")
        if not plan.steps:
            problems.append("plan: steps must be a non-empty list")
        self._check_option_dict(plan.defaults, "plan defaults", problems)

        seen_ids: set = set()
        schemas: Optional[Schemas] = live_schemas(self.db)
        for step in plan.steps:
            where = f"step {step.step_id!r}"
            if not step.step_id:
                problems.append("plan: step ids must be non-empty strings")
            elif step.step_id in seen_ids:
                problems.append(f"plan: duplicate step id {step.step_id!r}")
            seen_ids.add(step.step_id)

            op = PLAN_OPERATORS.get(step.operator)
            if op is None:
                problems.append(
                    f"{where}: unknown operator {step.operator!r}; "
                    f"available: {sorted(PLAN_OPERATORS)}")
                schemas = None  # can't walk past an unknown operator
                continue

            missing = sorted(set(op.required) - set(step.params))
            if missing:
                problems.append(
                    f"{where}: operator {op.name!r} is missing required "
                    f"param(s) {missing}")
            unknown = sorted(set(step.params) - set(op.param_names))
            if unknown:
                problems.append(
                    f"{where}: unknown param(s) {unknown} for operator "
                    f"{op.name!r}; available: {sorted(op.param_names)}")

            options = self._check_options(plan, step, where, problems)
            problem = None if options is None else population_problem(
                options.population_mode, options.sync, op.supports_lazy)
            if problem is not None:
                problems.append(
                    f"{where}: operator {op.name!r}: {problem}; "
                    "lazy-capable operators: "
                    f"{sorted(n for n, o in PLAN_OPERATORS.items() if o.supports_lazy)}")

            if missing or unknown or schemas is None:
                schemas = None  # params unusable: stop the catalog walk
                continue
            if step.step_id in completed:
                continue  # sources already retired from the live catalog
            try:
                published, retired = op.derive(schemas, step.params)
            except SchemaError as exc:
                problems.append(f"{where}: {exc}")
                schemas = None
                continue
            collisions = sorted(
                name for name in published
                if name in schemas and name not in retired)
            if collisions:
                problems.append(
                    f"{where}: published table name(s) {collisions} "
                    "collide with existing tables")
            schemas = {name: schema for name, schema in schemas.items()
                       if name not in retired}
            schemas.update(published)
        return problems

    # -- helpers ----------------------------------------------------------

    def _check_option_dict(self, options: Dict[str, object], where: str,
                           problems: List[str]) -> bool:
        """Key-level checks shared by plan defaults and step options."""
        if not isinstance(options, dict):
            problems.append(
                f"{where}: options must be a dict, got "
                f"{type(options).__name__}")
            return False
        unknown = sorted(set(options) - set(PLAN_OPTION_FIELDS))
        if unknown:
            problems.append(
                f"{where}: unknown option(s) {unknown}; available: "
                f"{sorted(PLAN_OPTION_FIELDS)}")
            return False
        return True

    def _check_options(self, plan: MigrationPlan, step: MigrationStep,
                       where: str, problems: List[str]
                       ) -> Optional[TransformOptions]:
        """Build the step's effective options, recording any errors.

        Mirrors the executor's merge exactly (plan defaults under step
        overrides) so anything :class:`TransformOptions` would reject at
        execution time -- an unknown sync strategy, ``version_flip``
        without ``storage="mvcc"`` -- is caught here instead.
        """
        if not self._check_option_dict(step.options, where, problems):
            return None
        if not isinstance(plan.defaults, dict):
            return None
        merged = {**plan.defaults, **step.options}
        merged = {k: v for k, v in merged.items() if k in PLAN_OPTION_FIELDS}
        try:
            return TransformOptions(**merged)
        except (ValueError, TypeError) as exc:
            problems.append(f"{where}: invalid options: {exc}")
            return None
