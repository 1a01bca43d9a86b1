"""The declarative migration-plan API.

A :class:`MigrationPlan` describes a chain of online schema changes as
plain data (operator names, table/attribute mappings, per-step option
overrides) with a JSON round trip; :class:`PlanValidator` rejects
ill-formed plans eagerly, before any table is created; and
:func:`run_plan` / :class:`PlanExecutor` compile a validated plan into
supervised, crash-resumable transformations.  See
``docs/api.md`` for a worked example and :mod:`repro.plan.corpus` for
the challenge-problem scenario corpus.
"""

from repro.common.errors import PlanValidationError
from repro.plan.corpus import CORPUS, CORPUS_BY_NAME, WORKLOAD_SCENARIOS, \
    CorpusScenario, Workload, get_scenario
from repro.plan.executor import PlanExecutor, run_plan
from repro.plan.operators import PLAN_OPERATORS, PlanOperator
from repro.plan.spec import PLAN_OPTION_FIELDS, MigrationPlan, MigrationStep
from repro.plan.validate import PlanValidator

__all__ = [
    "CORPUS",
    "CORPUS_BY_NAME",
    "CorpusScenario",
    "MigrationPlan",
    "MigrationStep",
    "PLAN_OPERATORS",
    "PLAN_OPTION_FIELDS",
    "PlanExecutor",
    "PlanOperator",
    "PlanValidationError",
    "PlanValidator",
    "WORKLOAD_SCENARIOS",
    "Workload",
    "get_scenario",
    "run_plan",
]
