"""Table schemas: attributes, primary/candidate keys, functional dependencies.

A schema is a value object, independent of any stored data.  The
transformation framework derives target-table schemas from source schemas
(projection plus shared join/split attributes), so helper methods for
projecting and merging schemas live here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.common.errors import SchemaError


@dataclass(frozen=True)
class Attribute:
    """A single column definition.

    Attributes:
        name: Column name, unique within the table.
        nullable: Whether ``None`` is a legal stored value.  Transformed
            tables produced by a full outer join must keep the non-join
            attributes nullable, because NULL-record joins (the paper's
            ``rnull`` / ``snull``) store NULL in the missing side.
    """

    name: str
    nullable: bool = True


@dataclass(frozen=True)
class FunctionalDependency:
    """A functional dependency ``determinants -> dependents``.

    Declared on a source table of a split transformation, it documents the
    consistency assumption of Section 5: rows agreeing on ``determinants``
    should agree on ``dependents``.  The consistency checker uses declared
    FDs to explain which dependency a U-flagged record violates.
    """

    determinants: Tuple[str, ...]
    dependents: Tuple[str, ...]

    def __str__(self) -> str:
        return f"{','.join(self.determinants)} -> {','.join(self.dependents)}"


class TableSchema:
    """Immutable description of a table: columns and keys.

    Args:
        name: Table name.
        attributes: Column definitions; plain strings are promoted to
            nullable :class:`Attribute` objects.
        primary_key: Names of the primary-key columns (must be a subset of
            the attributes).  Primary-key columns are implicitly NOT NULL
            for user tables; transformed tables may carry rows with a NULL
            key part (the FOJ NULL-records), which the storage layer treats
            as falling outside the unique primary index.
        candidate_keys: Additional unique column sets.
        functional_deps: Declared functional dependencies (for split).
    """

    def __init__(
        self,
        name: str,
        attributes: Sequence[object],
        primary_key: Sequence[str],
        candidate_keys: Sequence[Sequence[str]] = (),
        functional_deps: Sequence[FunctionalDependency] = (),
    ) -> None:
        if not name:
            raise SchemaError("table name must be non-empty")
        attrs: List[Attribute] = []
        for item in attributes:
            if isinstance(item, Attribute):
                attrs.append(item)
            elif isinstance(item, str):
                attrs.append(Attribute(item))
            else:
                raise SchemaError(f"bad attribute spec: {item!r}")
        names = [a.name for a in attrs]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names in {name!r}: {names}")
        if not attrs:
            raise SchemaError(f"table {name!r} needs at least one attribute")
        pk = tuple(primary_key)
        if not pk:
            raise SchemaError(f"table {name!r} needs a primary key")
        missing = [c for c in pk if c not in names]
        if missing:
            raise SchemaError(f"primary key columns {missing} not in {name!r}")
        cks: List[Tuple[str, ...]] = []
        for ck in candidate_keys:
            ck_t = tuple(ck)
            bad = [c for c in ck_t if c not in names]
            if bad:
                raise SchemaError(f"candidate key columns {bad} not in {name!r}")
            cks.append(ck_t)
        for fd in functional_deps:
            for col in (*fd.determinants, *fd.dependents):
                if col not in names:
                    raise SchemaError(f"FD column {col!r} not in {name!r}")

        self.name = name
        self.attributes: Tuple[Attribute, ...] = tuple(attrs)
        self.attribute_names: Tuple[str, ...] = tuple(names)
        self.primary_key: Tuple[str, ...] = pk
        self.candidate_keys: Tuple[Tuple[str, ...], ...] = tuple(cks)
        self.functional_deps: Tuple[FunctionalDependency, ...] = tuple(
            functional_deps
        )
        #: The attribute names as a set (membership and subset tests).
        self.attribute_set = frozenset(names)
        self._pk_set = frozenset(pk)

    # -- introspection -------------------------------------------------------

    def has_attribute(self, name: str) -> bool:
        """Whether a column with the given name exists."""
        return name in self.attribute_set

    def is_key_attribute(self, name: str) -> bool:
        """Whether the column is part of the primary key."""
        return name in self._pk_set

    def non_key_attributes(self) -> Tuple[str, ...]:
        """Column names that are not part of the primary key, in order."""
        return tuple(n for n in self.attribute_names if n not in self._pk_set)

    # -- row helpers ---------------------------------------------------------

    def key_of(self, values: Mapping[str, object]) -> Tuple:
        """Extract the primary-key tuple from a values mapping."""
        key = self.primary_key
        if len(key) == 1:
            return (values[key[0]],)
        return tuple([values[c] for c in key])

    def normalize(self, values: Mapping[str, object]) -> Dict[str, object]:
        """Validate and complete a row image.

        Unknown columns raise; missing columns are filled with ``None``.
        Returns a fresh dict ordered like the schema: a plain copy when
        ``values`` already is one (an image built from these attributes).
        """
        if tuple(values) == self.attribute_names:
            return dict(values)
        if not self.attribute_set.issuperset(values):
            extra = set(values) - self.attribute_set
            raise SchemaError(
                f"unknown attributes {sorted(extra)} for table {self.name!r}"
            )
        return {n: values.get(n) for n in self.attribute_names}

    def validate_changes(self, changes: Mapping[str, object]) -> None:
        """Validate an update's changed-attribute mapping.

        Primary-key columns may not be updated in place (the engine requires
        delete + insert, matching the paper's propagation rules which assume
        stable identifying attributes).
        """
        if not self.attribute_set.issuperset(changes):
            extra = set(changes) - self.attribute_set
            raise SchemaError(
                f"unknown attributes {sorted(extra)} for table {self.name!r}"
            )
        if not self._pk_set.isdisjoint(changes):
            touched_key = set(changes) & self._pk_set
            raise SchemaError(
                f"primary key columns {sorted(touched_key)} of {self.name!r} "
                "cannot be updated in place; delete and re-insert instead"
            )

    # -- derivation (used by the transformation framework) --------------------

    def project(self, name: str, columns: Sequence[str],
                primary_key: Sequence[str]) -> "TableSchema":
        """Schema of a projection of this table under a new name."""
        missing = [c for c in columns if c not in self.attribute_set]
        if missing:
            raise SchemaError(f"cannot project missing columns {missing}")
        by_name = {a.name: a for a in self.attributes}
        return TableSchema(
            name,
            [by_name[c] for c in columns],
            primary_key,
        )

    @staticmethod
    def merge(name: str, left: "TableSchema", right: "TableSchema",
              primary_key: Sequence[str],
              shared: Iterable[str] = ()) -> "TableSchema":
        """Schema of a join of two tables (columns of both, shared once).

        Non-key columns become nullable, since outer-join NULL records store
        NULL on the missing side.
        """
        shared_set = set(shared)
        columns: List[Attribute] = [
            Attribute(a.name, nullable=True) for a in left.attributes
        ]
        have = {a.name for a in columns}
        for a in right.attributes:
            if a.name in shared_set:
                if a.name not in have:
                    raise SchemaError(
                        f"shared column {a.name!r} missing from {left.name!r}"
                    )
                continue
            if a.name in have:
                raise SchemaError(
                    f"column {a.name!r} exists in both {left.name!r} and "
                    f"{right.name!r}; rename before transforming"
                )
            columns.append(Attribute(a.name, nullable=True))
            have.add(a.name)
        return TableSchema(name, columns, primary_key)

    def rename(self, name: str) -> "TableSchema":
        """Copy of this schema under another table name."""
        return TableSchema(
            name,
            self.attributes,
            self.primary_key,
            self.candidate_keys,
            self.functional_deps,
        )

    def __repr__(self) -> str:
        cols = ", ".join(self.attribute_names)
        return f"TableSchema({self.name!r}: {cols}; pk={self.primary_key})"
