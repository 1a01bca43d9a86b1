"""The operator registry behind the declarative migration plan API.

Each entry of :data:`PLAN_OPERATORS` adapts one relational transformation
to the plan machinery with three entry points.  The registry is the one
place that knows an operator: the validator, the executor, the scenario
corpus (:mod:`repro.plan.corpus`) and the crash sweep and chaos layer
built on it (:mod:`repro.faults.sweep`) all go through it.

* ``derive(schemas, params)`` -- given a *simulated catalog* (a mapping
  of table name to :class:`~repro.storage.schema.TableSchema`) and the
  step's params, return ``(published, retired)``: the schemas the step
  publishes and the source tables it retires.  It raises
  :class:`~repro.common.errors.SchemaError` on dangling table or
  attribute references.  The validator threads the simulated catalog
  through a plan's steps (``schemas - retired + published``), which is
  how a step may legally reference a table *created by an earlier step*
  that does not exist in the live database yet.
* ``build(db, params, options)`` -- construct the entry's
  ``transformation`` class against the live database.  Called by the
  executor at the start of each supervisor attempt, so a retried step
  re-derives its spec from the then-current catalog.
* ``reference(schemas, params, rows_by_table)`` -- the offline oracle:
  the rows the step must publish, per published table, computed from
  plain row dicts of its sources by the reference operators of
  :mod:`repro.relational.operators` -- never by the online machinery.
  It builds its spec exactly as ``derive`` does, so the two agree on
  the published names and attribute lists; the corpus folds it over a
  plan's steps and the crash sweep over the committed state a surviving
  log defines.

The registry is data the validator iterates over: ``required`` /
``optional`` param names yield key-enumerating errors for missing or
unknown params, and ``supports_lazy`` (read off the transformation
class's rule engine, where it is declared) lets a per-row population
mode (``"lazy"``, ``"trigger"``) on an eager-only operator (e.g. the
many-to-many join) fail at validation time rather than deep inside
``Transformation._begin_population``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Tuple, Type

from repro.common.errors import SchemaError
from repro.engine.database import Database
from repro.relational.operators import (
    explode,
    full_outer_join,
    retype,
    split,
)
from repro.relational.spec import ExplodeSpec, FojSpec, RetypeSpec, SplitSpec
from repro.storage.schema import TableSchema
from repro.transform.base import Transformation
from repro.transform.explode import ExplodeTransformation
from repro.transform.foj import FojTransformation
from repro.transform.foj_m2m import Many2ManyFojTransformation
from repro.transform.options import TransformOptions
from repro.transform.partition import (
    AttrPredicate,
    MergeSpec,
    MergeTransformation,
    PartitionSpec,
    PartitionTransformation,
    merge_rows,
    partition_rows,
)
from repro.transform.retype import RetypeTransformation
from repro.transform.split import SplitTransformation

Schemas = Dict[str, TableSchema]
Params = Dict[str, object]
Derived = Tuple[Dict[str, TableSchema], Tuple[str, ...]]
#: Rows per table name: what ``reference`` takes and returns.
Tables = Dict[str, List[Dict[str, object]]]


@dataclass(frozen=True)
class PlanOperator:
    """One relational operator as seen by the plan machinery.

    Attributes:
        name: Registry key, the ``operator`` string of a plan step.
        transformation: The :class:`Transformation` subclass ``build``
            constructs.
        required: Param names every step using this operator must set.
        optional: Param names a step may set.
        spec_of: ``(schemas, params) -> spec``, the one spec builder
            behind ``derive``, ``build`` and ``reference``.
        derive: Schema-level dry run; see the module docstring.
        reference: Offline oracle of the published rows; see the module
            docstring.
        tf_kwargs: ``params -> dict`` of the transformation constructor
            keywords a step's params carry beyond the spec.
    """

    name: str
    transformation: Type[Transformation]
    required: Tuple[str, ...]
    optional: Tuple[str, ...]
    spec_of: Callable[[Schemas, Params], object]
    derive: Callable[[Schemas, Params], Derived]
    reference: Callable[[Schemas, Params, Tables], Tables]
    tf_kwargs: Callable[[Params], Dict[str, object]] = lambda params: {}

    def build(self, db: Database, params: Params,
              options: TransformOptions) -> Transformation:
        """Live transformation factory; see the module docstring.  The
        spec comes from the live catalog through the same ``spec_of``
        that ``derive`` and ``reference`` feed a simulated one."""
        return self.transformation(
            db, self.spec_of(live_schemas(db), params), options=options,
            **self.tf_kwargs(params))

    @property
    def param_names(self) -> Tuple[str, ...]:
        return tuple(self.required) + tuple(self.optional)

    @property
    def supports_lazy(self) -> bool:
        """Whether the operator's rule engine can migrate row by row
        (the per-row population modes, ``"lazy"`` and ``"trigger"``)."""
        return self.transformation.engine_class.supports_lazy


def _schema_of(schemas: Schemas, name: object) -> TableSchema:
    """Look up one table in the simulated catalog, enumerating on miss."""
    if name not in schemas:
        raise SchemaError(
            f"unknown table {name!r}; available: {sorted(schemas)}")
    return schemas[name]


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


# -- full outer join ----------------------------------------------------------


def _foj_spec(schemas: Schemas, params: Params,
              many_to_many: bool = False) -> FojSpec:
    r_schema = _schema_of(schemas, params["r_name"])
    s_schema = _schema_of(schemas, params["s_name"])
    return FojSpec.derive(
        r_schema, s_schema, params["target_name"],
        params["join_attr_r"], params["join_attr_s"],
        r_attrs=params.get("r_attrs"), s_attrs=params.get("s_attrs"),
        many_to_many=many_to_many)


# One set of callables serves ``foj`` and (``many_to_many=True``, bound
# in the registry) ``foj_m2m``: the flag selects the (r_key + s_key)
# target key, nothing else -- the reference join itself is agnostic,
# only the propagation rules (the transformation class) differ.


def _derive_foj(schemas: Schemas, params: Params,
                many_to_many: bool = False) -> Derived:
    spec = _foj_spec(schemas, params, many_to_many)
    return ({spec.target_name: spec.target_schema()},
            (spec.r_name, spec.s_name))


def _reference_foj(schemas: Schemas, params: Params, rows: Tables,
                   many_to_many: bool = False) -> Tables:
    spec = _foj_spec(schemas, params, many_to_many)
    return {spec.target_name: full_outer_join(
        spec, rows[spec.r_name], rows[spec.s_name])}


# -- vertical split -----------------------------------------------------------


def _split_spec(schemas: Schemas, params: Params) -> SplitSpec:
    t_schema = _schema_of(schemas, params["source_name"])
    return SplitSpec.derive(
        t_schema, params["r_name"], params["s_name"],
        params["split_attr"], params["s_attrs"],
        r_attrs=params.get("r_attrs"))


def _derive_split(schemas: Schemas, params: Params) -> Derived:
    spec = _split_spec(schemas, params)
    return ({spec.r_name: spec.r_schema(), spec.s_name: spec.s_schema()},
            (spec.source_name,))


def _split_kwargs(params: Params) -> Dict[str, object]:
    return dict(
        check_consistency=bool(params.get("check_consistency", False)),
        on_inconsistent=params.get("on_inconsistent", "raise"),
        materialize_r=bool(params.get("materialize_r", True)))


def _reference_split(schemas: Schemas, params: Params,
                     rows: Tables) -> Tables:
    spec = _split_spec(schemas, params)
    # Strict: contributors disagreeing on the dependent attributes raise
    # rather than publish the first contributor's image.
    r_rows, s_rows, _, _ = split(spec, rows[spec.source_name])
    return {spec.r_name: r_rows, spec.s_name: s_rows}


# -- multi-value explode ------------------------------------------------------


def _explode_spec(schemas: Schemas, params: Params) -> ExplodeSpec:
    source_schema = _schema_of(schemas, params["source_name"])
    return ExplodeSpec.derive(
        source_schema, params["target_name"],
        params["list_attr"], params["value_attr"],
        keep_attrs=params.get("keep_attrs"),
        separator=params.get("separator", ","))


def _derive_explode(schemas: Schemas, params: Params) -> Derived:
    spec = _explode_spec(schemas, params)
    return {spec.target_name: spec.target_schema()}, (spec.source_name,)


def _reference_explode(schemas: Schemas, params: Params,
                       rows: Tables) -> Tables:
    spec = _explode_spec(schemas, params)
    return {spec.target_name: explode(spec, rows[spec.source_name])}


# -- horizontal partition / merge --------------------------------------------


def _derive_partition(schemas: Schemas, params: Params) -> Derived:
    source_schema = _schema_of(schemas, params["source_name"])
    predicate = _predicate_of(params)
    if not source_schema.has_attribute(predicate.attr):
        raise SchemaError(
            f"predicate references unknown attribute {predicate.attr!r}; "
            f"available: {sorted(source_schema.attribute_names)}")
    return ({params["a_name"]: source_schema.rename(params["a_name"]),
             params["b_name"]: source_schema.rename(params["b_name"])},
            (source_schema.name,))


def _partition_spec(_schemas: Schemas, params: Params) -> PartitionSpec:
    return PartitionSpec(
        source_name=params["source_name"], a_name=params["a_name"],
        b_name=params["b_name"], predicate=_predicate_of(params))


def _reference_partition(schemas: Schemas, params: Params,
                         rows: Tables) -> Tables:
    spec = _partition_spec(schemas, params)
    a_rows, b_rows = partition_rows(spec, rows[spec.source_name])
    return {spec.a_name: a_rows, spec.b_name: b_rows}


def _derive_merge(schemas: Schemas, params: Params) -> Derived:
    a_schema = _schema_of(schemas, params["a_name"])
    b_schema = _schema_of(schemas, params["b_name"])
    if a_schema.attribute_names != b_schema.attribute_names or \
            a_schema.primary_key != b_schema.primary_key:
        raise SchemaError(
            f"{params['a_name']!r} and {params['b_name']!r} are not "
            "union-compatible")
    target = params["target_name"]
    return ({target: a_schema.rename(target)},
            (a_schema.name, b_schema.name))


def _merge_spec(_schemas: Schemas, params: Params) -> MergeSpec:
    return MergeSpec(a_name=params["a_name"], b_name=params["b_name"],
                     target_name=params["target_name"])


def _reference_merge(schemas: Schemas, params: Params,
                     rows: Tables) -> Tables:
    spec = _merge_spec(schemas, params)
    return {spec.target_name: merge_rows(
        rows[spec.a_name], rows[spec.b_name],
        _schema_of(schemas, spec.a_name).key_of)}


# -- column retype ------------------------------------------------------------


def _retype_spec(schemas: Schemas, params: Params) -> RetypeSpec:
    source_schema = _schema_of(schemas, params["source_name"])
    return RetypeSpec.derive(
        source_schema, params["target_name"], params.get("attr"),
        cast=params.get("cast", "str"), default=params.get("default"),
        rename=params.get("rename", ()), add=params.get("add", ()),
        drop=params.get("drop", ()))


def _derive_retype(schemas: Schemas, params: Params) -> Derived:
    source_schema = _schema_of(schemas, params["source_name"])
    spec = _retype_spec(schemas, params)
    return ({spec.target_name: spec.target_schema(source_schema)},
            (spec.source_name,))


def _reference_retype(schemas: Schemas, params: Params,
                      rows: Tables) -> Tables:
    spec = _retype_spec(schemas, params)
    return {spec.target_name: retype(spec, rows[spec.source_name])}


PLAN_OPERATORS: Dict[str, PlanOperator] = {op.name: op for op in (
    PlanOperator(
        name="foj", transformation=FojTransformation,
        required=("r_name", "s_name", "target_name",
                  "join_attr_r", "join_attr_s"),
        optional=("r_attrs", "s_attrs"),
        spec_of=_foj_spec, derive=_derive_foj, reference=_reference_foj),
    PlanOperator(
        name="foj_m2m", transformation=Many2ManyFojTransformation,
        required=("r_name", "s_name", "target_name",
                  "join_attr_r", "join_attr_s"),
        optional=("r_attrs", "s_attrs"),
        spec_of=partial(_foj_spec, many_to_many=True),
        derive=partial(_derive_foj, many_to_many=True),
        reference=partial(_reference_foj, many_to_many=True)),
    PlanOperator(
        name="split", transformation=SplitTransformation,
        required=("source_name", "r_name", "s_name", "split_attr",
                  "s_attrs"),
        optional=("r_attrs", "check_consistency", "on_inconsistent",
                  "materialize_r"),
        spec_of=_split_spec, derive=_derive_split,
        reference=_reference_split, tf_kwargs=_split_kwargs),
    PlanOperator(
        name="explode", transformation=ExplodeTransformation,
        required=("source_name", "target_name", "list_attr", "value_attr"),
        optional=("keep_attrs", "separator"),
        spec_of=_explode_spec, derive=_derive_explode,
        reference=_reference_explode),
    PlanOperator(
        name="partition", transformation=PartitionTransformation,
        required=("source_name", "a_name", "b_name", "predicate"),
        optional=(),
        spec_of=_partition_spec, derive=_derive_partition,
        reference=_reference_partition),
    PlanOperator(
        name="merge", transformation=MergeTransformation,
        required=("a_name", "b_name", "target_name"),
        optional=(),
        spec_of=_merge_spec, derive=_derive_merge,
        reference=_reference_merge),
    PlanOperator(
        name="retype", transformation=RetypeTransformation,
        required=("source_name", "target_name"),
        optional=("attr", "cast", "default", "rename", "add", "drop"),
        spec_of=_retype_spec, derive=_derive_retype,
        reference=_reference_retype),
)}
