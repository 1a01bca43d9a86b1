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

from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import InconsistentDataError
from repro.engine.database import Database
from repro.relational.spec import MergeSpec, PartitionSpec
from repro.storage.row import Row
from repro.storage.table import Table
from repro.transform.base import Image, RuleEngine, Touched, Transformation
from repro.wal.records import (
    DeleteRecord,
    InsertRecord,
    UpdateRecord,
)

# ---------------------------------------------------------------------------
# Partition
# ---------------------------------------------------------------------------


class PartitionRuleEngine(RuleEngine):
    """LSN-guarded propagation rules for a horizontal partition."""

    def __init__(self, db: Database, spec: PartitionSpec, a_table: Table,
                 b_table: Table) -> None:
        super().__init__(db, spec)
        self.a = a_table
        self.b = b_table
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
    spec_class = PartitionSpec
    engine_class = PartitionRuleEngine


# ---------------------------------------------------------------------------
# Merge
# ---------------------------------------------------------------------------


class MergeRuleEngine(RuleEngine):
    """LSN-guarded propagation rules for a horizontal merge."""

    def __init__(self, db: Database, spec: MergeSpec,
                 target: Table) -> None:
        super().__init__(db, spec)
        self.t = target
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
    spec_class = MergeSpec
    engine_class = MergeRuleEngine
