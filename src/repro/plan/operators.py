"""The operator registry behind the declarative migration plan API.

Each entry of :data:`PLAN_OPERATORS` adapts one relational transformation
to the plan machinery.  The registry is the one place that knows an
operator's *plan* surface: the validator, the executor, the scenario
corpus (:mod:`repro.plan.corpus`) and the crash sweep and chaos layer
built on it (:mod:`repro.faults.sweep`) all go through it.  What the
operator *is* lives in its spec (:mod:`repro.relational.spec`):
``sources``, ``published(schemas)`` and ``reference(schemas, tables)``.
An entry adds only the param names a step may set and the
transformation class to run.

A step's params are the spec's: the ``derive`` keywords of the specs
that have one, with the source tables named where ``derive`` takes
their schemas (in ``required`` order), or the fields of the specs that
have none.  :meth:`PlanOperator.spec` builds it from any *catalog* (a
mapping of table name to :class:`~repro.storage.schema.TableSchema`),
and the entry points are generic over it:

* ``derive(schemas, params)`` -- ``(published, retired)``: the schemas
  the step publishes and the source tables it retires.  It raises
  :class:`~repro.common.errors.SchemaError` on dangling table or
  attribute references and on every schema check the spec carries.
  The validator threads a simulated catalog through a plan's steps
  (``schemas - retired + published``), which is how a step may legally
  reference a table *created by an earlier step* that does not exist in
  the live database yet.
* ``build(db, params, options)`` -- construct the entry's
  ``transformation`` class against the live database.  Called by the
  executor at the start of each supervisor attempt, so a retried step
  re-derives its spec from the then-current catalog.
* ``reference(schemas, params, rows_by_table)`` -- the offline oracle:
  the rows the step must publish, per published table, from plain row
  dicts of its sources; the corpus folds it over a plan's steps and the
  crash sweep over the committed state a surviving log defines.

The registry is data the validator iterates over: ``required`` /
``optional`` param names yield key-enumerating errors for missing or
unknown params, and ``supports_lazy`` (read off the transformation
class, where it is declared) lets a per-row population mode
(``"lazy"``, ``"trigger"``) on an eager-only operator (e.g. the
many-to-many join) fail at validation time rather than deep inside
``Transformation._begin_population``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from inspect import signature
from typing import Dict, Tuple, Type

from repro.common.errors import SchemaError
from repro.engine.database import Database
from repro.relational.spec import AttrPredicate, Schemas, Tables, schema_of
from repro.storage.schema import TableSchema
from repro.transform.base import Transformation
from repro.transform.explode import ExplodeTransformation
from repro.transform.foj import FojTransformation
from repro.transform.foj_m2m import Many2ManyFojTransformation
from repro.transform.options import TransformOptions
from repro.transform.partition import (
    MergeTransformation,
    PartitionTransformation,
)
from repro.transform.retype import RetypeTransformation
from repro.transform.split import SplitTransformation

Params = Dict[str, object]
Derived = Tuple[Dict[str, TableSchema], Tuple[str, ...]]


@dataclass(frozen=True)
class PlanOperator:
    """One relational operator as seen by the plan machinery.

    Attributes:
        name: Registry key, the ``operator`` string of a plan step.
        transformation: The :class:`Transformation` subclass ``build``
            constructs; its ``spec_class`` is the step's spec.
        required: Param names every step using this operator must set.
        optional: Param names a step may set.
        tf_kwargs: Param names passed to the transformation constructor
            rather than to the spec.
        fixed: Spec keywords the entry sets and no step may.
    """

    name: str
    transformation: Type[Transformation]
    required: Tuple[str, ...]
    optional: Tuple[str, ...] = ()
    tf_kwargs: Tuple[str, ...] = ()
    fixed: Params = field(default_factory=dict)

    def spec(self, schemas: Schemas, params: Params) -> object:
        """The step's spec over catalog ``schemas``: made by the spec
        class's ``derive`` when it has one, else by its constructor."""
        make = getattr(self.transformation.spec_class, "derive",
                       self.transformation.spec_class)
        keywords = signature(make).parameters
        given = {**{name: value for name, value in params.items()
                    if name in self.param_names}, **self.fixed}
        if "predicate" in given:
            given["predicate"] = _predicate_of(given)
        tables = [schema_of(schemas, given[name]) for name in self.required
                  if name not in keywords]
        return make(*tables, **{name: value for name, value in given.items()
                                if name in keywords})

    def derive(self, schemas: Schemas, params: Params) -> Derived:
        """Schema-level dry run; see the module docstring."""
        spec = self.spec(schemas, params)
        return spec.published(schemas), spec.sources

    def reference(self, schemas: Schemas, params: Params,
                  rows_by_table: Tables) -> Tables:
        """Offline oracle of the published rows; see the module
        docstring."""
        return self.spec(schemas, params).reference(schemas, rows_by_table)

    def build(self, db: Database, params: Params,
              options: TransformOptions) -> Transformation:
        """Live transformation factory; see the module docstring.  The
        spec comes from the live catalog through the same :meth:`spec`
        that ``derive`` and ``reference`` feed a simulated one."""
        return self.transformation(
            db, self.spec(live_schemas(db), params), options=options,
            **{name: params[name] for name in self.tf_kwargs
               if name in params})

    @property
    def param_names(self) -> Tuple[str, ...]:
        return tuple(self.required) + tuple(self.optional)

    @property
    def supports_lazy(self) -> bool:
        """Whether the operator's rule engine can migrate row by row
        (the per-row population modes, ``"lazy"`` and ``"trigger"``)."""
        return self.transformation.supports_lazy


def live_schemas(db: Database) -> Schemas:
    """The live catalog in the shape ``derive`` takes a simulated one."""
    return {n: db.catalog.get(n).schema for n in db.catalog.table_names()}


def _predicate_of(params: Params) -> AttrPredicate:
    """Decode a partition step's ``predicate`` param into an AttrPredicate.

    Plans are JSON documents, so the predicate arrives as a dict --
    ``{"attr": ..., "op": ..., "value": ...}`` -- never as a callable.
    """
    raw = params["predicate"]
    if isinstance(raw, AttrPredicate):
        return raw
    if not isinstance(raw, dict):
        raise SchemaError(
            f"predicate must be a dict with keys 'attr', 'op' and "
            f"optionally 'value', got {type(raw).__name__}")
    unknown = sorted(set(raw) - {"attr", "op", "value"})
    if unknown:
        raise SchemaError(
            f"unknown predicate field(s) {unknown}; available: "
            "['attr', 'op', 'value']")
    missing = sorted({"attr", "op"} - set(raw))
    if missing:
        raise SchemaError(f"predicate is missing field(s) {missing}")
    return AttrPredicate(attr=raw["attr"], op=raw["op"],
                         value=raw.get("value"))


_JOIN_PARAMS = ("r_name", "s_name", "target_name", "join_attr_r",
                "join_attr_s")
_SPLIT_KWARGS = ("check_consistency", "on_inconsistent", "materialize_r")

PLAN_OPERATORS: Dict[str, PlanOperator] = {op.name: op for op in (
    PlanOperator(
        name="foj", transformation=FojTransformation,
        required=_JOIN_PARAMS, optional=("r_attrs", "s_attrs")),
    # The same spec and reference join; the flag selects the (r_key +
    # s_key) target key, and the transformation the propagation rules.
    PlanOperator(
        name="foj_m2m", transformation=Many2ManyFojTransformation,
        required=_JOIN_PARAMS, optional=("r_attrs", "s_attrs"),
        fixed={"many_to_many": True}),
    PlanOperator(
        name="split", transformation=SplitTransformation,
        required=("source_name", "r_name", "s_name", "split_attr",
                  "s_attrs"),
        optional=("r_attrs",) + _SPLIT_KWARGS, tf_kwargs=_SPLIT_KWARGS),
    PlanOperator(
        name="explode", transformation=ExplodeTransformation,
        required=("source_name", "target_name", "list_attr", "value_attr"),
        optional=("keep_attrs", "separator")),
    PlanOperator(
        name="partition", transformation=PartitionTransformation,
        required=("source_name", "a_name", "b_name", "predicate")),
    PlanOperator(
        name="merge", transformation=MergeTransformation,
        required=("a_name", "b_name", "target_name")),
    PlanOperator(
        name="retype", transformation=RetypeTransformation,
        required=("source_name", "target_name"),
        optional=("attr", "cast", "default", "rename", "add", "drop")),
)}
