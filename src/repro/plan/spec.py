"""Declarative migration plans: validated chains of schema changes.

A :class:`MigrationPlan` is the data half of the plan API: an ordered
list of :class:`MigrationStep` entries, each naming one relational
operator from the plan registry (:data:`repro.plan.operators.PLAN_OPERATORS`
-- ``foj``, ``foj_m2m``, ``split``, ``explode``, ``partition``,
``merge``, ``retype``), its operator-specific parameters (source/target
tables, attribute mappings) and optional per-step
:class:`~repro.transform.options.TransformOptions` overrides.  Plans are
plain data: :meth:`MigrationPlan.to_dict` / :meth:`from_dict` round-trip
through JSON-able dictionaries, so a plan can live in a config file, a
ticket, or a test fixture.

Nothing here touches a database.  Semantic validation (do the tables and
attributes exist, are the operator/option combinations legal) is the
:class:`repro.plan.validate.PlanValidator`'s job, and execution is the
:class:`repro.plan.executor.PlanExecutor`'s; this module only enforces
*structural* shape, so malformed documents fail at decode time with a
:class:`~repro.common.errors.PlanValidationError` naming every problem.

Option overrides are stored as plain dicts (not
:class:`~repro.transform.options.TransformOptions` instances) and are
restricted to the JSON-codable option fields
(:data:`PLAN_OPTION_FIELDS`): the executor merges plan-wide ``defaults``
under each step's ``options`` and constructs the real options object --
with the step's deterministic transform id -- at execution time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.common.errors import PlanValidationError

#: The TransformOptions fields a plan may set, per step or plan-wide.
#: Deliberately the JSON-codable subset: the ``metrics`` attachment,
#: policy objects and ``transform_id`` (the executor derives it from
#: plan id + step id) are excluded.
PLAN_OPTION_FIELDS: Tuple[str, ...] = (
    "sync", "shards", "population_mode", "storage",
)


def _require(mapping: Dict[str, object], key: str, where: str,
             problems: List[str]) -> object:
    if key not in mapping:
        problems.append(f"{where}: missing required field {key!r}")
        return None
    return mapping[key]


@dataclass(frozen=True)
class MigrationStep:
    """One operator application inside a plan.

    Attributes:
        step_id: Plan-unique identifier; the executor derives the step's
            transform id as ``"<plan_id>.<step_id>"``, which is what the
            WAL's swap records carry and what crash resume keys on.
        operator: Registry name of the relational operator
            (see :data:`repro.plan.operators.PLAN_OPERATORS`).
        params: Operator-specific parameters: source/target table names,
            attribute mappings, predicates -- everything the operator's
            ``Spec.derive`` needs beyond the live schemas.
        options: Per-step option overrides (a dict over
            :data:`PLAN_OPTION_FIELDS`), merged over the plan's
            ``defaults`` by the executor.
    """

    step_id: str
    operator: str
    params: Dict[str, object] = field(default_factory=dict)
    options: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "step_id": self.step_id,
            "operator": self.operator,
            "params": dict(self.params),
        }
        if self.options:
            out["options"] = dict(self.options)
        return out


@dataclass(frozen=True)
class MigrationPlan:
    """A validated, executable chain of schema transformations.

    Attributes:
        plan_id: Stable identifier; prefixes every step's transform id.
        steps: The ordered operator applications.
        defaults: Plan-wide option overrides (same shape and field
            restrictions as a step's ``options``; each step's dict wins
            on conflicts).
        description: Free-text intent, carried into run reports.
    """

    plan_id: str
    steps: Tuple[MigrationStep, ...]
    defaults: Dict[str, object] = field(default_factory=dict)
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))

    # -- convenience -----------------------------------------------------

    @classmethod
    def single(cls, plan_id: str, operator: str,
               params: Dict[str, object],
               options: Optional[Dict[str, object]] = None,
               description: str = "") -> "MigrationPlan":
        """A one-step plan: how single-operator calls enter the plan API."""
        return cls(plan_id=plan_id,
                   steps=(MigrationStep(step_id=operator, operator=operator,
                                        params=dict(params),
                                        options=dict(options or {})),),
                   description=description)

    def step_ids(self) -> List[str]:
        return [step.step_id for step in self.steps]

    def transform_id(self, step: Union[MigrationStep, str]) -> str:
        """The deterministic transform id of one step.

        Deterministic matters: it is the join key between a plan step and
        the swap it registers with the catalog (rebuilt from the WAL by
        restart recovery), which is how resume-after-crash decides which
        steps are already done.
        """
        step_id = step if isinstance(step, str) else step.step_id
        return f"{self.plan_id}.{step_id}"

    # -- codec -----------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form; inverse of :meth:`from_dict`."""
        out: Dict[str, object] = {
            "plan_id": self.plan_id,
            "steps": [step.to_dict() for step in self.steps],
        }
        if self.defaults:
            out["defaults"] = dict(self.defaults)
        if self.description:
            out["description"] = self.description
        return out

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "MigrationPlan":
        """Decode a plan document, rejecting malformed shapes eagerly.

        Raises :class:`~repro.common.errors.PlanValidationError` listing
        *every* structural problem (semantic checks -- table existence,
        operator registry, option legality -- are the validator's).
        """
        problems: List[str] = []
        if not isinstance(doc, dict):
            raise PlanValidationError(
                "<unknown>", [f"plan document must be a dict, "
                              f"got {type(doc).__name__}"])
        plan_id = _require(doc, "plan_id", "plan", problems)
        if plan_id is not None and (not isinstance(plan_id, str)
                                    or not plan_id):
            problems.append(f"plan: plan_id must be a non-empty string, "
                            f"got {plan_id!r}")
        raw_steps = _require(doc, "steps", "plan", problems)
        steps: List[MigrationStep] = []
        if raw_steps is not None:
            if not isinstance(raw_steps, list) or not raw_steps:
                problems.append("plan: steps must be a non-empty list")
                raw_steps = []
            for i, raw in enumerate(raw_steps):
                where = f"steps[{i}]"
                if not isinstance(raw, dict):
                    problems.append(f"{where}: must be a dict, "
                                    f"got {type(raw).__name__}")
                    continue
                unknown = sorted(set(raw) - {"step_id", "operator",
                                             "params", "options"})
                if unknown:
                    problems.append(
                        f"{where}: unknown field(s) {unknown}; available: "
                        "['operator', 'options', 'params', 'step_id']")
                step_id = _require(raw, "step_id", where, problems)
                operator = _require(raw, "operator", where, problems)
                for name, value in (("step_id", step_id),
                                    ("operator", operator)):
                    if value is not None and (not isinstance(value, str)
                                              or not value):
                        problems.append(
                            f"{where}: {name} must be a non-empty string, "
                            f"got {value!r}")
                for name in ("params", "options"):
                    if not isinstance(raw.get(name, {}), dict):
                        problems.append(
                            f"{where}: {name} must be a dict, got "
                            f"{type(raw[name]).__name__}")
                if not problems:
                    steps.append(MigrationStep(
                        step_id=str(step_id), operator=str(operator),
                        params=dict(raw.get("params") or {}),
                        options=dict(raw.get("options") or {})))
        defaults = doc.get("defaults", {})
        if not isinstance(defaults, dict):
            problems.append(f"plan: defaults must be a dict, "
                            f"got {type(defaults).__name__}")
            defaults = {}
        description = doc.get("description", "")
        if not isinstance(description, str):
            problems.append(f"plan: description must be a string, "
                            f"got {type(description).__name__}")
            description = ""
        if problems:
            raise PlanValidationError(
                plan_id if isinstance(plan_id, str) else "<unknown>",
                problems)
        return cls(plan_id=str(plan_id), steps=tuple(steps),
                   defaults=dict(defaults), description=description)

    def to_json(self, indent: Optional[int] = None) -> str:
        """JSON rendering; inverse of :meth:`from_json`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MigrationPlan":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PlanValidationError(
                "<unknown>", [f"plan document is not valid JSON: {exc}"])
        return cls.from_dict(doc)
