"""Horizontal partition and merge transformations (paper Section 7).

The paper's further work: "Methods for other relational operators should,
however, also be developed."  The two most natural companions to the
vertical split/join pair are their *horizontal* analogues:

* **partition** -- one table T is split by a row predicate into A (rows
  satisfying it) and B (the rest), same schema on both sides;
* **merge** -- two union-compatible tables A and B with disjoint key sets
  become one table T.

Both reuse the framework unchanged (fuzzy population, log propagation,
the three synchronization strategies).  Because the transformed rows are
*whole* source rows, the row LSN is a valid state identifier (unlike the
FOJ case), so the propagation rules are LSN-guarded like the vertical
split's:

* insert: ignore if the key already exists on either side (Theorem 1),
  else insert on the side the predicate chooses;
* delete: ignore if absent or newer, else delete wherever the key lives;
* update: ignore if absent or newer, else apply -- and if the predicate's
  verdict flipped, *move* the row to the other side.

The merge is the exact mirror (two sources, one target); overlapping keys
are the horizontal analogue of Example 1's inconsistency and abort the
transformation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import (
    InconsistentDataError,
    SchemaError,
    TransformationError,
)
from repro.engine.database import Database
from repro.storage.row import Row
from repro.storage.schema import TableSchema
from repro.storage.table import Table
from repro.transform.base import Image, RuleEngine, Touched, Transformation
from repro.wal.records import (
    DeleteRecord,
    InsertRecord,
    UpdateRecord,
)

#: A row predicate: receives the row's value mapping, returns a bool.
#: Must be deterministic and depend only on the row's values.
RowPredicate = Callable[[Dict[str, object]], bool]

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
    """A declarative one-attribute row predicate.

    Unlike a bare lambda, an ``AttrPredicate`` is a plain frozen
    dataclass, so a :class:`PartitionSpec` built from one survives the
    WAL frame codec: the swap record can be replayed by restart recovery
    and a declarative migration plan that partitions a table stays
    JSON-serializable.  It is callable with a row's value mapping, like
    any :data:`RowPredicate`.

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
class PartitionSpec:
    """Specification of a horizontal partition.

    Attributes:
        source_name: The table being partitioned.
        a_name: Target receiving rows satisfying the predicate.
        b_name: Target receiving the rest.
        predicate: The row predicate (deterministic over row values).
            Use an :class:`AttrPredicate` (rather than a lambda) when the
            spec must survive the WAL frame codec -- crash recovery of a
            completed partition and declarative migration plans both
            require it.
        predicate_desc: Human-readable predicate description, recorded in
            the swap log record.  Defaults to
            :meth:`AttrPredicate.describe` when the predicate is one.
    """

    source_name: str
    a_name: str
    b_name: str
    predicate: RowPredicate
    predicate_desc: str = ""

    def __post_init__(self) -> None:
        if not self.predicate_desc and \
                isinstance(self.predicate, AttrPredicate):
            object.__setattr__(self, "predicate_desc",
                               self.predicate.describe())


@dataclass(frozen=True)
class MergeSpec:
    """Specification of a horizontal merge (disjoint union).

    Attributes:
        a_name: First source table.
        b_name: Second source table (union-compatible with the first).
        target_name: The merged table.
    """

    a_name: str
    b_name: str
    target_name: str


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def partition_rows(spec: PartitionSpec, rows) -> Tuple[List[Dict], List[Dict]]:
    """Reference evaluation: partition row dicts by the predicate."""
    a_rows, b_rows = [], []
    for values in rows:
        (a_rows if spec.predicate(values) else b_rows).append(dict(values))
    return a_rows, b_rows


def merge_rows(a_rows, b_rows, key_of) -> List[Dict]:
    """Reference evaluation: disjoint union of row dicts.

    Raises :class:`InconsistentDataError` on key collisions (the
    horizontal analogue of the paper's Example 1).
    """
    seen = {}
    result = []
    for values in list(a_rows) + list(b_rows):
        key = key_of(values)
        if key in seen:
            raise InconsistentDataError((key,))
        seen[key] = True
        result.append(dict(values))
    return result


# ---------------------------------------------------------------------------
# Partition
# ---------------------------------------------------------------------------


class PartitionRuleEngine(RuleEngine):
    """LSN-guarded propagation rules for a horizontal partition."""

    def __init__(self, db: Database, spec: PartitionSpec, a_table: Table,
                 b_table: Table) -> None:
        self.db = db
        self.spec = spec
        self.a = a_table
        self.b = b_table
        self.source_tables = (spec.source_name,)
        self._rules = {(spec.source_name, InsertRecord): self._rule_insert,
                       (spec.source_name, DeleteRecord): self._rule_delete,
                       (spec.source_name, UpdateRecord): self._rule_update}

    def _find(self, key: Tuple) -> Tuple[Optional[Table], Optional[Row]]:
        row = self.a.get(key)
        if row is not None:
            return self.a, row
        row = self.b.get(key)
        if row is not None:
            return self.b, row
        return None, None

    def _side_for(self, values: Dict[str, object]) -> Table:
        return self.a if self.spec.predicate(values) else self.b

    def _rule_insert(self, change: InsertRecord, lsn: int,
                     touched: Touched) -> None:
        if self._find(change.key)[1] is None:
            side = self._side_for(change.values)
            side.insert_row(dict(change.values), lsn=lsn)
            self._touch(touched, side, change.key)

    def _rule_delete(self, change: DeleteRecord, lsn: int,
                     touched: Touched) -> None:
        side, row = self._find(change.key)
        if row is not None and row.lsn < lsn:
            side.delete_rowid(row.rowid)
            self._touch(touched, side, change.key)

    def _rule_update(self, change: UpdateRecord, lsn: int,
                     touched: Touched) -> None:
        side, row = self._find(change.key)
        if row is None or row.lsn >= lsn:
            return
        side.update_rowid(row.rowid, dict(change.changes), lsn=lsn)
        target_side = self._side_for(row.values)
        if target_side is not side:
            # The predicate's verdict flipped: move the row.
            values = dict(row.values)
            side.delete_rowid(row.rowid)
            target_side.insert_row(values, lsn=lsn)
            self._touch(touched, side, change.key)
        self._touch(touched, target_side, change.key)

    def migrate_rows(self, table_name: str, images: Sequence[Image]) -> None:
        """Insert each source row on the side the predicate chooses,
        unless its key already lives on either side."""
        for values, lsn in images:
            if self._find(self.a.schema.key_of(values))[1] is None:
                self._side_for(values).insert_row(values, lsn=lsn)

    def targets_of_source_lock(self, table_name: str,
                               key: Tuple) -> List[Tuple[Table, Tuple]]:
        if table_name != self.spec.source_name:
            return []
        side, row = self._find(tuple(key))
        if row is not None:
            return [(side, tuple(key))]
        # Unknown yet: lock the key on both sides conservatively.
        return [(self.a, tuple(key)), (self.b, tuple(key))]

    def sources_of_target_lock(self, table_name: str,
                               key: Tuple) -> List[Tuple[Table, Tuple]]:
        if table_name not in (self.a.name, self.b.name):
            return []
        source = self.db.catalog.get_any(self.spec.source_name)
        return [(source, tuple(key))]


class PartitionTransformation(Transformation):
    """Online horizontal partition of one table into two (Section 7).

    Example::

        spec = PartitionSpec("orders", "orders_eu", "orders_row",
                             predicate=lambda r: r["region"] == "eu",
                             predicate_desc="region == 'eu'")
        PartitionTransformation(db, spec).run()
    """

    kind = "partition"
    engine_class = PartitionRuleEngine

    @property
    def source_tables(self) -> Tuple[str, ...]:
        return (self.spec.source_name,)

    @classmethod
    def target_tables(cls, db: Database, spec: PartitionSpec,
                      detached: bool = False) -> Dict[str, Table]:
        """A and B, both with the source's schema."""
        source_schema = db.catalog.get(spec.source_name).schema
        return {name: cls._new_table(db, source_schema.rename(name),
                                     detached)
                for name in (spec.a_name, spec.b_name)}


# ---------------------------------------------------------------------------
# Merge
# ---------------------------------------------------------------------------


class MergeRuleEngine(RuleEngine):
    """LSN-guarded propagation rules for a horizontal merge."""

    def __init__(self, db: Database, spec: MergeSpec,
                 target: Table) -> None:
        self.db = db
        self.spec = spec
        self.t = target
        self.source_tables = (spec.a_name, spec.b_name)
        self._rules = {
            (name, kind): rule for name in self.source_tables
            for kind, rule in ((InsertRecord, self._rule_insert),
                               (DeleteRecord, self._rule_delete),
                               (UpdateRecord, self._rule_update))}

    def _rule_insert(self, change: InsertRecord, lsn: int,
                     touched: Touched) -> None:
        if self.t.get(change.key) is None:
            self.t.insert_row(dict(change.values), lsn=lsn)
            self._touch(touched, self.t, change.key)

    def _rule_delete(self, change: DeleteRecord, lsn: int,
                     touched: Touched) -> None:
        row = self.t.get(change.key)
        if row is not None and row.lsn < lsn:
            self.t.delete_rowid(row.rowid)
            self._touch(touched, self.t, change.key)

    def _rule_update(self, change: UpdateRecord, lsn: int,
                     touched: Touched) -> None:
        row = self.t.get(change.key)
        if row is not None and row.lsn < lsn:
            self.t.update_rowid(row.rowid, dict(change.changes), lsn=lsn)
            self._touch(touched, self.t, change.key)

    def migrate_rows(self, table_name: str, images: Sequence[Image]) -> None:
        """Insert each source row unless its key is already there.

        Relies on population's scan order -- A to exhaustion, then B --
        which is why the merge stays eager-only: with A complete, a B
        row whose key is present means the key is in BOTH sources.  That
        is no fuzzy artifact (the two scans are disjoint tables) but a
        genuine precondition violation.
        """
        for values, lsn in images:
            if self._insert_new(self.t, values, lsn) is None and \
                    table_name == self.spec.b_name:
                raise InconsistentDataError((self.t.schema.key_of(values),))

    def targets_of_source_lock(self, table_name: str,
                               key: Tuple) -> List[Tuple[Table, Tuple]]:
        if table_name in self.source_tables:
            return [(self.t, tuple(key))]
        return []

    def sources_of_target_lock(self, table_name: str,
                               key: Tuple) -> List[Tuple[Table, Tuple]]:
        if table_name != self.t.name:
            return []
        return [(self.db.catalog.get_any(name), tuple(key))
                for name in self.source_tables]


class MergeTransformation(Transformation):
    """Online horizontal merge of two union-compatible tables (Section 7).

    The sources' key sets must be disjoint; a collision (observed during
    population or propagation) is the horizontal analogue of Example 1's
    inconsistency and raises :class:`InconsistentDataError`.
    """

    kind = "merge"
    engine_class = MergeRuleEngine

    def __init__(self, db: Database, spec: MergeSpec, **kwargs) -> None:
        super().__init__(db, spec, **kwargs)
        a_schema = db.catalog.get(spec.a_name).schema
        b_schema = db.catalog.get(spec.b_name).schema
        if a_schema.attribute_names != b_schema.attribute_names or \
                a_schema.primary_key != b_schema.primary_key:
            raise SchemaError(
                f"{spec.a_name!r} and {spec.b_name!r} are not "
                "union-compatible")

    @property
    def source_tables(self) -> Tuple[str, ...]:
        return (self.spec.a_name, self.spec.b_name)

    @classmethod
    def target_tables(cls, db: Database, spec: MergeSpec,
                      detached: bool = False) -> Dict[str, Table]:
        """T, with A's schema."""
        schema = db.catalog.get(spec.a_name).schema
        return {spec.target_name: cls._new_table(
            db, schema.rename(spec.target_name), detached)}
