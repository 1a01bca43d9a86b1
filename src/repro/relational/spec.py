"""Declarative specifications of the relational transformation operators.

A spec is the one definition of its operator.  Besides the fields the
propagation rules read, every spec has:

* ``sources`` -- the names of the tables it transforms away;
* ``published(schemas)`` -- the schemas of the tables it publishes, by
  name, given the source schemas (a mapping of table name to
  :class:`~repro.storage.schema.TableSchema`).  It carries every schema
  check the operator has (Section 3.1's candidate keys of each source,
  the many-to-many join-key guard, the partition predicate's attribute,
  the merge's union-compatibility) and raises
  :class:`~repro.common.errors.SchemaError` on a violation.  ``derive``
  ends with it, and the transformation runs it against the live catalog
  when it is built, so every path refuses the same specs;
* ``reference(schemas, tables)`` -- the offline oracle: the rows each
  published table must hold, given plain row dicts of the sources, by
  the reference operators of :mod:`repro.relational.operators`.

The key-preserving specs (retype, partition, merge) also say where a row
goes (:class:`KeyPreserving`); one rule engine writes it.

Specs are plain frozen value objects shared by the transformation
framework, the plan registry, the recovery rebuilders and the test
oracles.

Naming conventions follow the paper (Sections 4-5): a full outer join
transforms source tables *R* and *S* into *T* on a join attribute; a split
transforms *T* into *R* and *S* on a split attribute.  The join/split
attribute appears **once** in the joined table, named after R's join
attribute (as in the paper's Figure 1, where R.c joins S.c into T.c).

Beyond the paper's pair, the corpus operators follow the same shape: an
**explode** (:class:`ExplodeSpec`) unnests a multi-value column into one
row per element (the inverse-cardinality cousin of the split), a
**retype** (:class:`RetypeSpec`) maps columns: one cast with a new NULL
default, renames, added and dropped columns, and the horizontal pair
(Section 7's further work) partitions one table by a row predicate
(:class:`PartitionSpec`) or merges two union-compatible ones
(:class:`MergeSpec`).  All stay declarative -- plain data, no callables,
an :class:`AttrPredicate` for the partition -- so they survive the WAL
frame codec and the JSON plan codec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common.errors import SchemaError
from repro.relational.operators import (
    explode,
    full_outer_join,
    merge_rows,
    partition_rows,
    retype,
    split,
)
from repro.storage.schema import Attribute, FunctionalDependency, TableSchema

#: Table name -> schema: what ``published`` takes and returns.
Schemas = Mapping[str, TableSchema]
#: Table name -> plain row dicts: what ``reference`` takes and returns.
Tables = Mapping[str, List[Dict[str, object]]]


class KeyPreserving:
    """What a key-preserving spec tells the one keyed rule engine
    (:class:`~repro.transform.keyed.KeyedRuleEngine`): each source key
    owns one target row, so ``targets`` names the published tables,
    ``route(image)`` the one a target-column image belongs in, and
    ``map_row`` / ``map_changes`` map a source row image / an update's
    changes to target columns.  By default: the only target, a copy."""

    targets: Tuple[str, ...]

    def route(self, image: Dict[str, object]) -> str:
        return self.targets[0]

    map_row = map_changes = staticmethod(dict)


def schema_of(schemas: Schemas, name: object) -> TableSchema:
    """Look up one table in a catalog mapping, enumerating on a miss."""
    if name not in schemas:
        raise SchemaError(
            f"unknown table {name!r}; available: {sorted(schemas)}")
    return schemas[name]


@dataclass(frozen=True)
class FojSpec:
    """Specification of a full outer join transformation (Section 4).

    Attributes:
        target_name: Name of the transformed table T (its internal name
            during the transformation; it may be published under another
            name at synchronization).
        r_name: Name of source table R (whose key becomes T's key in the
            one-to-many case).
        s_name: Name of source table S (whose join attribute is unique in
            the one-to-many case).
        join_attr_r: R's join attribute.
        join_attr_s: S's join attribute.
        r_attrs: Attributes of R included in T (must contain R's key and
            the join attribute).  They keep their R names in T.
        s_attrs: Attributes of S included in T, *excluding* S's join
            attribute (represented in T by the shared join column).
        s_key: Attributes identifying an S record, as named **in T**: S's
            candidate-key attributes, with the join attribute spelled as
            the join column.  Section 3.1 requires a candidate key of each
            source table in the transformed table.
        r_key: Attributes identifying an R record in T (R's primary key).
        many_to_many: ``True`` when S's join attribute is not unique; T's
            key is then (r_key + s_key) and the modified rules of
            Section 4.2's sketch apply.
    """

    target_name: str
    r_name: str
    s_name: str
    join_attr_r: str
    join_attr_s: str
    r_attrs: Tuple[str, ...]
    s_attrs: Tuple[str, ...]
    r_key: Tuple[str, ...]
    s_key: Tuple[str, ...]
    many_to_many: bool = False

    @property
    def join_column(self) -> str:
        """Name of the shared join column in T (R's join attribute name)."""
        return self.join_attr_r

    @property
    def target_key(self) -> Tuple[str, ...]:
        """Primary key of T: R's key, or R-key + S-key for many-to-many."""
        if self.many_to_many:
            return tuple(self.r_key) + tuple(
                a for a in self.s_key if a not in self.r_key)
        return tuple(self.r_key)

    @property
    def target_columns(self) -> Tuple[str, ...]:
        """All columns of T, R side first."""
        return tuple(self.r_attrs) + tuple(self.s_attrs)

    @staticmethod
    def derive(r_schema: TableSchema, s_schema: TableSchema,
               target_name: str, join_attr_r: str, join_attr_s: str,
               r_attrs: Optional[Sequence[str]] = None,
               s_attrs: Optional[Sequence[str]] = None,
               many_to_many: bool = False) -> "FojSpec":
        """Build a spec from source schemas with sensible defaults.

        Defaults include *all* attributes of both sources.  Validates the
        paper's preparation-step requirements (Section 3.1) through
        :meth:`published`: T must carry a candidate key of each source
        plus the join attributes.
        """
        r_cols = tuple(r_attrs) if r_attrs is not None \
            else r_schema.attribute_names
        if join_attr_r not in r_cols:
            r_cols = r_cols + (join_attr_r,)
        s_cols = tuple(a for a in (s_attrs if s_attrs is not None
                                   else s_schema.attribute_names)
                       if a != join_attr_s)
        spec = FojSpec(
            target_name=target_name,
            r_name=r_schema.name,
            s_name=s_schema.name,
            join_attr_r=join_attr_r,
            join_attr_s=join_attr_s,
            r_attrs=r_cols,
            s_attrs=s_cols,
            r_key=r_schema.primary_key,
            # S's identifying attributes as named in T.
            s_key=tuple(join_attr_r if col == join_attr_s else col
                        for col in s_schema.primary_key),
            many_to_many=many_to_many,
        )
        spec.published({r_schema.name: r_schema, s_schema.name: s_schema})
        return spec

    @property
    def sources(self) -> Tuple[str, ...]:
        return (self.r_name, self.s_name)

    def published(self, schemas: Schemas) -> Dict[str, TableSchema]:
        """T's schema, after the Section 3.1 checks."""
        r_schema = schema_of(schemas, self.r_name)
        s_schema = schema_of(schemas, self.s_name)
        if not r_schema.has_attribute(self.join_attr_r):
            raise SchemaError(f"{self.r_name!r} has no {self.join_attr_r!r}")
        if not s_schema.has_attribute(self.join_attr_s):
            raise SchemaError(f"{self.s_name!r} has no {self.join_attr_s!r}")
        for col in r_schema.primary_key:
            if col not in self.r_attrs:
                raise SchemaError(
                    f"T must include R's key attribute {col!r} (Section 3.1)")
        overlap = set(self.r_attrs) & set(self.s_attrs)
        if overlap:
            raise SchemaError(
                f"attributes {sorted(overlap)} exist in both sources; "
                "project or rename before joining")
        for col in s_schema.primary_key:
            if col != self.join_attr_s and col not in self.s_attrs:
                raise SchemaError(
                    f"T must include S's key attribute {col!r} (Section 3.1)")
        if self.many_to_many and tuple(self.s_key) == (self.join_column,):
            raise SchemaError(
                "a many-to-many join requires S's identifying attributes "
                "to differ from the join attribute (a unique join attribute "
                "is the one-to-many case)")
        return {self.target_name: self.target_schema()}

    def reference(self, schemas: Schemas, tables: Tables) -> Tables:
        """T's rows: the full outer join of the sources' rows (the join
        itself is agnostic of ``many_to_many``; only the rules differ)."""
        return {self.target_name: full_outer_join(
            self, tables[self.r_name], tables[self.s_name])}

    def target_schema(self) -> TableSchema:
        """Schema of the transformed table T."""
        return TableSchema(self.target_name, list(self.target_columns),
                           primary_key=self.target_key)

    # -- row plumbing ----------------------------------------------------------

    def r_part(self, r_values: Dict[str, object]) -> Dict[str, object]:
        """Project an R row onto its T columns."""
        return {a: r_values.get(a) for a in self.r_attrs}

    def s_part(self, s_values: Dict[str, object]) -> Dict[str, object]:
        """Project an S row onto its T columns (join value excluded)."""
        return {a: s_values.get(a) for a in self.s_attrs}

    def null_r_part(self) -> Dict[str, object]:
        """The ``rnull`` record: all R-side columns NULL (Section 4.1)."""
        return {a: None for a in self.r_attrs}

    def null_s_part(self) -> Dict[str, object]:
        """The ``snull`` record: all S-side columns NULL (Section 4.1)."""
        return {a: None for a in self.s_attrs}

    def s_part_of_t(self, t_values: Dict[str, object]) -> Dict[str, object]:
        """Extract the S-side columns from an existing T row."""
        return {a: t_values.get(a) for a in self.s_attrs}

    def r_part_of_t(self, t_values: Dict[str, object]) -> Dict[str, object]:
        """Extract the R-side columns from an existing T row."""
        return {a: t_values.get(a) for a in self.r_attrs}


@dataclass(frozen=True)
class SplitSpec:
    """Specification of a vertical split transformation (Section 5).

    Attributes:
        source_name: Name of the source table T.
        r_name: Name of the first target table R (keeps T's primary key).
        s_name: Name of the second target table S (keyed by the split
            attribute).
        split_attr: The attribute T is split on.  It appears in both R (as
            the link to S) and S (as its key).  The paper requires it to be
            a candidate key of S; for readability it is S's primary key
            here, as in the paper's presentation.
        r_attrs: Attributes of T going to R (must include T's key and the
            split attribute).
        s_attrs: Attributes of T going to S (must include the split
            attribute).
        r_key: R's primary key (= T's primary key).
    """

    source_name: str
    r_name: str
    s_name: str
    split_attr: str
    r_attrs: Tuple[str, ...]
    s_attrs: Tuple[str, ...]
    r_key: Tuple[str, ...]

    @property
    def s_key(self) -> Tuple[str, ...]:
        """S's primary key: the split attribute."""
        return (self.split_attr,)

    @property
    def s_dependent_attrs(self) -> Tuple[str, ...]:
        """S attributes functionally determined by the split attribute."""
        return tuple(a for a in self.s_attrs if a != self.split_attr)

    @staticmethod
    def derive(t_schema: TableSchema, r_name: str, s_name: str,
               split_attr: str,
               s_attrs: Sequence[str],
               r_attrs: Optional[Sequence[str]] = None) -> "SplitSpec":
        """Build a spec from the source schema.

        ``s_attrs`` lists the columns moving to S (the split attribute is
        added if omitted); ``r_attrs`` defaults to everything else plus the
        key and the split attribute.
        """
        s_cols = tuple(s_attrs)
        if split_attr not in s_cols:
            s_cols = (split_attr,) + s_cols
        if r_attrs is None:
            r_cols = tuple(
                a for a in t_schema.attribute_names
                if a == split_attr or a not in s_cols)
        else:
            r_cols = tuple(r_attrs)
            if split_attr not in r_cols:
                r_cols = r_cols + (split_attr,)
        spec = SplitSpec(
            source_name=t_schema.name,
            r_name=r_name,
            s_name=s_name,
            split_attr=split_attr,
            r_attrs=r_cols,
            s_attrs=s_cols,
            r_key=t_schema.primary_key,
        )
        spec.published({t_schema.name: t_schema})
        return spec

    @property
    def sources(self) -> Tuple[str, ...]:
        return (self.source_name,)

    def published(self, schemas: Schemas) -> Dict[str, TableSchema]:
        """R's and S's schemas, after the Section 3.1 checks."""
        t_schema = schema_of(schemas, self.source_name)
        for col in (self.split_attr, *self.s_attrs):
            if not t_schema.has_attribute(col):
                raise SchemaError(f"{self.source_name!r} has no {col!r}")
        for col in t_schema.primary_key:
            if col not in self.r_attrs:
                raise SchemaError(
                    f"R must include T's key attribute {col!r} (Section 3.1)")
        return {self.r_name: self.r_schema(), self.s_name: self.s_schema()}

    def reference(self, schemas: Schemas, tables: Tables) -> Tables:
        """R's and S's rows.  Strict: contributors disagreeing on the
        dependent attributes raise rather than publish the first
        contributor's image."""
        r_rows, s_rows, _, _ = split(self, tables[self.source_name])
        return {self.r_name: r_rows, self.s_name: s_rows}

    def r_schema(self) -> TableSchema:
        """Schema of target table R."""
        return TableSchema(self.r_name, list(self.r_attrs),
                           primary_key=self.r_key)

    def s_schema(self) -> TableSchema:
        """Schema of target table S."""
        return TableSchema(self.s_name, list(self.s_attrs),
                           primary_key=self.s_key)

    # -- row plumbing -------------------------------------------------------------

    def r_part(self, t_values: Dict[str, object]) -> Dict[str, object]:
        """Project a T row onto R's columns."""
        return {a: t_values.get(a) for a in self.r_attrs}

    def s_part(self, t_values: Dict[str, object]) -> Dict[str, object]:
        """Project a T row onto S's columns."""
        return {a: t_values.get(a) for a in self.s_attrs}

    def split_value(self, values: Dict[str, object]) -> Tuple:
        """The split-attribute key tuple of a row image."""
        return (values.get(self.split_attr),)


@dataclass(frozen=True)
class ExplodeSpec:
    """Specification of a multi-value column explode (corpus operator).

    One source row whose ``list_attr`` holds a separator-joined list of
    values becomes N target rows, one per distinct element -- the
    inverse-cardinality cousin of the vertical split (which maps N rows
    to 1 shared S record).  A row whose list is NULL or empty explodes to
    exactly one child with a NULL element, the explode analogue of the
    FOJ's null-padded records: every source row stays represented, so
    "no children" always means "no source row" to the propagation rules.

    Attributes:
        source_name: The table being exploded.
        target_name: The exploded table (one row per element).
        list_attr: The multi-value column (a separator-joined string).
        value_attr: Name of the element column in the target.
        keep_attrs: Source attributes carried onto every child (must
            include the source key; never includes ``list_attr``).
        source_key: The source table's primary key.
        separator: Element separator within ``list_attr``.
    """

    source_name: str
    target_name: str
    list_attr: str
    value_attr: str
    keep_attrs: Tuple[str, ...]
    source_key: Tuple[str, ...]
    separator: str = ","

    @property
    def target_key(self) -> Tuple[str, ...]:
        """Target key: the source key plus the exploded element."""
        return tuple(self.source_key) + (self.value_attr,)

    @staticmethod
    def derive(source_schema: TableSchema, target_name: str,
               list_attr: str, value_attr: str,
               keep_attrs: Optional[Sequence[str]] = None,
               separator: str = ",") -> "ExplodeSpec":
        """Build a spec from the source schema with sensible defaults.

        ``keep_attrs`` defaults to every source attribute except the
        list column itself; it must cover the source key so each child
        remains addressable by its origin row.
        """
        keep = tuple(keep_attrs) if keep_attrs is not None else tuple(
            a for a in source_schema.attribute_names if a != list_attr)
        spec = ExplodeSpec(
            source_name=source_schema.name,
            target_name=target_name,
            list_attr=list_attr,
            value_attr=value_attr,
            keep_attrs=keep,
            source_key=source_schema.primary_key,
            separator=separator,
        )
        spec.published({source_schema.name: source_schema})
        return spec

    @property
    def sources(self) -> Tuple[str, ...]:
        return (self.source_name,)

    def published(self, schemas: Schemas) -> Dict[str, TableSchema]:
        """The exploded table's schema, after the Section 3.1 checks."""
        source = schema_of(schemas, self.source_name)
        name, list_attr = self.source_name, self.list_attr
        if not source.has_attribute(list_attr):
            raise SchemaError(f"{name!r} has no {list_attr!r}")
        if list_attr in source.primary_key:
            raise SchemaError(
                f"cannot explode key attribute {list_attr!r} of {name!r}")
        if list_attr in self.keep_attrs:
            raise SchemaError(
                f"the exploded column {list_attr!r} cannot also be kept")
        for col in self.keep_attrs:
            if not source.has_attribute(col):
                raise SchemaError(f"{name!r} has no {col!r}")
        for col in source.primary_key:
            if col not in self.keep_attrs:
                raise SchemaError(
                    f"the target must keep the source key attribute "
                    f"{col!r} (Section 3.1)")
        if self.value_attr in self.keep_attrs:
            raise SchemaError(
                f"element column {self.value_attr!r} collides with a kept "
                "source attribute")
        if not self.separator:
            raise SchemaError("separator must be a non-empty string")
        return {self.target_name: self.target_schema()}

    def reference(self, schemas: Schemas, tables: Tables) -> Tables:
        """The exploded table's rows."""
        return {self.target_name: explode(self, tables[self.source_name])}

    def target_schema(self) -> TableSchema:
        """Schema of the exploded table."""
        return TableSchema(self.target_name,
                           list(self.keep_attrs) + [self.value_attr],
                           primary_key=self.target_key)

    # -- row plumbing -------------------------------------------------------------

    def elements(self, values: Dict[str, object]) -> List[Optional[str]]:
        """Distinct elements of a source row's list, in first-seen order.

        NULL or element-free lists yield ``[None]`` -- the null-padded
        child keeping the row represented in the target.
        """
        raw = values.get(self.list_attr)
        if raw is None:
            return [None]
        parts = [p.strip() for p in str(raw).split(self.separator)]
        seen: Dict[str, None] = dict.fromkeys(p for p in parts if p)
        return list(seen) if seen else [None]

    def parent_key(self, values: Dict[str, object]) -> Tuple:
        """The source-key tuple of a row image."""
        return tuple(values.get(a) for a in self.source_key)

    def child_values(self, values: Dict[str, object],
                     element: Optional[str]) -> Dict[str, object]:
        """The child row for one element of a source row image."""
        child = {a: values.get(a) for a in self.keep_attrs}
        child[self.value_attr] = element
        return child

    def kept_changes(self, changes: Dict[str, object]) -> Dict[str, object]:
        """Project an update's changes onto the kept columns."""
        return {k: v for k, v in changes.items() if k in self.keep_attrs}


#: Named casts for :class:`RetypeSpec` -- strings, not callables, so a
#: retype spec stays JSON- and WAL-frame-codable.  Each cast is applied
#: to non-NULL values only (NULLs take the spec's ``default``).
RETYPE_CASTS: Dict[str, Callable[[object], object]] = {
    "int": lambda v: int(str(v).strip()),
    "float": lambda v: float(str(v).strip()),
    "str": str,
    "bool": lambda v: bool(v) if not isinstance(v, str)
        else v.strip().lower() not in ("", "0", "false", "no"),
}


@dataclass(frozen=True)
class RetypeSpec(KeyPreserving):
    """Specification of a column map (corpus operator; also the Section
    2.4 attribute DDL, published in place: ``target_name == source_name``).

    The target table has the source's rows and key under the map: one
    non-key column may be rewritten through a named cast from
    :data:`RETYPE_CASTS` with NULLs replaced by a new default, and columns
    renamed (a renamed key column keeps its key position), added with a
    default or dropped.  A value the cast cannot parse is the retype
    analogue of the paper's Example 1 dirty data: the transformation
    surfaces it as :class:`~repro.common.errors.InconsistentDataError`
    instead of guessing.

    Attributes:
        source_name: The table being retyped.
        target_name: The retyped copy.
        attr: The column rewritten (must not be part of the key);
            ``None`` casts nothing.
        cast: A key of :data:`RETYPE_CASTS`.
        default: Replacement for NULL values (the default-change half;
            ``None`` keeps NULLs).
        rename: ``(old, new)`` column-name pairs.
        add: ``(name, default)`` pairs of appended columns.
        drop: Non-key columns left out of the target.
    """

    source_name: str
    target_name: str
    attr: Optional[str] = None
    cast: str = "str"
    default: Optional[object] = None
    rename: Tuple[Tuple[str, str], ...] = ()
    add: Tuple[Tuple[str, object], ...] = ()
    drop: Tuple[str, ...] = ()

    @staticmethod
    def derive(source_schema: TableSchema, target_name: str,
               attr: Optional[str] = None, cast: str = "str",
               default: Optional[object] = None,
               rename: Mapping[str, str] = (), add: Mapping[str, object] = (),
               drop: Sequence[str] = ()) -> "RetypeSpec":
        """Build a spec from the source schema, validating eagerly
        (``rename`` and ``add`` take a mapping or a sequence of pairs)."""
        spec = RetypeSpec(source_schema.name, target_name, attr, cast,
                          default, tuple(dict(rename).items()),
                          tuple(dict(add).items()), tuple(drop))
        spec.published({source_schema.name: source_schema})
        return spec

    @property
    def sources(self) -> Tuple[str, ...]:
        return (self.source_name,)

    @property
    def targets(self) -> Tuple[str, ...]:
        return (self.target_name,)

    def published(self, schemas: Schemas) -> Dict[str, TableSchema]:
        """The retyped table's schema, after checking the column map."""
        source = schema_of(schemas, self.source_name)
        name = self.source_name
        mapped = [old for old, _ in self.rename] + list(self.drop) + (
            [self.attr] if self.attr is not None else [])
        for column in mapped:
            if not source.has_attribute(column):
                raise SchemaError(f"{name!r} has no attribute {column!r}")
        for column in [*self.drop, self.attr]:
            if source.is_key_attribute(column):
                raise SchemaError(
                    f"cannot drop or retype key attribute {column!r} of "
                    f"{name!r} (it would rewrite row identity)")
        if len(set(mapped)) < len(mapped):
            raise SchemaError(f"an attribute of {name!r} is mapped twice: "
                              f"{sorted(mapped)}")
        if self.cast not in RETYPE_CASTS:
            raise SchemaError(
                f"unknown cast {self.cast!r}; available: "
                f"{sorted(RETYPE_CASTS)}")
        # target_schema rejects a name taken twice.
        return {self.target_name: self.target_schema(source)}

    def reference(self, schemas: Schemas, tables: Tables) -> Tables:
        """The retyped table's rows."""
        return {self.target_name: retype(self, tables[self.source_name])}

    def target_schema(self, source_schema: TableSchema) -> TableSchema:
        """Schema of the retyped table: the source's under the map."""
        renamed = dict(self.rename)
        kept = set(source_schema.attribute_names) - set(self.drop)

        def mapped(columns: Sequence[str]) -> Tuple[str, ...]:
            return tuple(renamed.get(c, c) for c in columns)

        return TableSchema(
            self.target_name,
            [Attribute(renamed.get(a.name, a.name), a.nullable)
             for a in source_schema.attributes if a.name in kept]
            + [column for column, _ in self.add],
            mapped(source_schema.primary_key),
            [mapped(ck) for ck in source_schema.candidate_keys
             if kept.issuperset(ck)],
            [FunctionalDependency(mapped(fd.determinants),
                                  mapped(fd.dependents))
             for fd in source_schema.functional_deps
             if kept.issuperset(fd.determinants + fd.dependents)])

    # -- row plumbing -------------------------------------------------------------

    def cast_value(self, value: object) -> object:
        """Cast one value (NULL takes the new default)."""
        if value is None:
            return self.default
        return RETYPE_CASTS[self.cast](value)

    def map_changes(self, changes: Dict[str, object]) -> Dict[str, object]:
        """An update's changes (or a row image) under the column map."""
        renamed = dict(self.rename)
        out = {renamed.get(k, k): v for k, v in changes.items()
               if k not in self.drop}
        if self.attr in changes:
            out[renamed.get(self.attr, self.attr)] = \
                self.cast_value(changes[self.attr])
        return out

    def map_row(self, values: Dict[str, object]) -> Dict[str, object]:
        """A source row image under the column map, added columns set."""
        out = self.map_changes(values)
        out.update(self.add)
        return out


#: Comparison operators an :class:`AttrPredicate` may name.  NULL operands
#: follow SQL semantics: every comparison with NULL is false (use the
#: dedicated ``is_null`` / ``not_null`` forms to test for NULL itself).
PREDICATE_OPS: Dict[str, Callable[[object, object], bool]] = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class AttrPredicate:
    """A declarative one-attribute row predicate: the predicate of a
    :class:`PartitionSpec`.

    Unlike a bare lambda, an ``AttrPredicate`` is a plain frozen
    dataclass, so the spec survives the WAL frame codec: the swap record
    can be replayed by restart recovery and a declarative migration plan
    that partitions a table stays JSON-serializable.  It is callable with
    a row's value mapping.

    Attributes:
        attr: The attribute the predicate examines.
        op: One of :data:`PREDICATE_OPS` (``==``, ``!=``, ``<``, ``<=``,
            ``>``, ``>=``) or the NULL tests ``is_null`` / ``not_null``.
        value: The right-hand operand (ignored by the NULL tests).
    """

    attr: str
    op: str
    value: object = None

    def __post_init__(self) -> None:
        if self.op not in PREDICATE_OPS and \
                self.op not in ("is_null", "not_null"):
            raise SchemaError(
                f"unknown predicate op {self.op!r}; available: "
                f"{sorted(PREDICATE_OPS) + ['is_null', 'not_null']}")

    def __call__(self, values: Dict[str, object]) -> bool:
        operand = values.get(self.attr)
        if self.op == "is_null":
            return operand is None
        if self.op == "not_null":
            return operand is not None
        if operand is None or self.value is None:
            return False
        try:
            return bool(PREDICATE_OPS[self.op](operand, self.value))
        except TypeError:
            return False

    def describe(self) -> str:
        """Human-readable rendering, e.g. ``"region == 'eu'"``."""
        if self.op in ("is_null", "not_null"):
            return f"{self.attr} {self.op}"
        return f"{self.attr} {self.op} {self.value!r}"


@dataclass(frozen=True)
class PartitionSpec(KeyPreserving):
    """Specification of a horizontal partition (Section 7's further work).

    Attributes:
        source_name: The table being partitioned.
        a_name: Target receiving rows satisfying the predicate.
        b_name: Target receiving the rest.
        predicate: The row predicate.  Only an :class:`AttrPredicate`:
            the spec is logged in the swap record, which restart replays,
            so a callable (which no frame can hold) is refused here,
            before anything is logged.
        predicate_desc: Human-readable predicate description, recorded in
            the swap log record.  Defaults to
            :meth:`AttrPredicate.describe`.
    """

    source_name: str
    a_name: str
    b_name: str
    predicate: AttrPredicate
    predicate_desc: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.predicate, AttrPredicate):
            raise TypeError(
                f"a partition predicate is an AttrPredicate, not "
                f"{type(self.predicate).__name__}: the swap record logs "
                f"the spec, and restart replays it")
        if not self.predicate_desc:
            object.__setattr__(self, "predicate_desc",
                               self.predicate.describe())

    @property
    def sources(self) -> Tuple[str, ...]:
        return (self.source_name,)

    @property
    def targets(self) -> Tuple[str, ...]:
        return (self.a_name, self.b_name)

    def route(self, image: Dict[str, object]) -> str:
        """A for a row satisfying the predicate, else B."""
        return self.a_name if self.predicate(image) else self.b_name

    def published(self, schemas: Schemas) -> Dict[str, TableSchema]:
        """A and B, both with the source's schema; the predicate must
        name a source attribute."""
        source = schema_of(schemas, self.source_name)
        if not source.has_attribute(self.predicate.attr):
            raise SchemaError(
                f"predicate references unknown attribute "
                f"{self.predicate.attr!r}; available: "
                f"{sorted(source.attribute_names)}")
        return {name: source.rename(name)
                for name in (self.a_name, self.b_name)}

    def reference(self, schemas: Schemas, tables: Tables) -> Tables:
        """A's and B's rows."""
        a_rows, b_rows = partition_rows(self, tables[self.source_name])
        return {self.a_name: a_rows, self.b_name: b_rows}


@dataclass(frozen=True)
class MergeSpec(KeyPreserving):
    """Specification of a horizontal merge (disjoint union).

    Attributes:
        a_name: First source table.
        b_name: Second source table (union-compatible with the first).
        target_name: The merged table.
    """

    a_name: str
    b_name: str
    target_name: str

    @property
    def sources(self) -> Tuple[str, ...]:
        return (self.a_name, self.b_name)

    @property
    def targets(self) -> Tuple[str, ...]:
        return (self.target_name,)

    def published(self, schemas: Schemas) -> Dict[str, TableSchema]:
        """T, with A's schema; A and B must be union-compatible."""
        a_schema = schema_of(schemas, self.a_name)
        b_schema = schema_of(schemas, self.b_name)
        if a_schema.attribute_names != b_schema.attribute_names or \
                a_schema.primary_key != b_schema.primary_key:
            raise SchemaError(
                f"{self.a_name!r} and {self.b_name!r} are not "
                "union-compatible")
        return {self.target_name: a_schema.rename(self.target_name)}

    def reference(self, schemas: Schemas, tables: Tables) -> Tables:
        """T's rows: the disjoint union (a shared key raises)."""
        return {self.target_name: merge_rows(
            tables[self.a_name], tables[self.b_name],
            schema_of(schemas, self.a_name).key_of)}
