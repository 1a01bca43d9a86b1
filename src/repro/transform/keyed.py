"""One rule engine for the key-preserving operators: retype, partition
and merge.

Whole source rows are the unit of change and each source key owns
exactly one target row, so the row LSN is a valid state identifier --
the fact the split's rules rest on (Section 5.2).  The operators differ
only in what their spec says (:class:`~repro.relational.spec.
KeyPreserving`): the published ``targets``, ``route(image)`` -- the
target a target-column image belongs in (the partition's predicate, the
only target otherwise) -- and the column map ``map_row`` /
``map_changes`` (the retype's cast, renames, added and dropped columns;
a copy otherwise).  The rules are written once, here:

* insert: absent -> insert where routed; present and not older -> a
  replay, skip; present and older -> two source rows share the key (a
  merge collision), raise
  :class:`~repro.common.errors.InconsistentDataError`;
* delete: if present and older, delete wherever the key lives;
* update: if present and older, apply the mapped changes, re-route the
  after-image and move the row if its target changed;
* population (:meth:`KeyedRuleEngine.migrate_rows`): insert each image
  where routed unless its key is present, a chunk in one all-or-nothing
  store.  The sources are scanned one after the other, so a present key
  while scanning a later source is a collision too -- which is why the
  merge stays eager-only.

A value the column map cannot convert (a retype cast) is the analogue
of Example 1's dirty data and raises the same error, with the row key.
One key, one target row: records route by key under hash-sharded
propagation.  The explode keeps its own engine: a source key owns a 1:N
sibling group that its rules reconcile, not one keyed row.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import InconsistentDataError
from repro.engine.database import Database
from repro.storage.row import Row
from repro.storage.table import Table
from repro.transform.base import Image, RuleEngine, Touched
from repro.wal.records import (
    DeleteRecord,
    InsertRecord,
    LogRecord,
    UpdateRecord,
)


class KeyedRuleEngine(RuleEngine):
    """LSN-guarded one-key-one-row rules, routed by the spec."""

    marker_classes: Tuple[type, ...] = ()

    def __init__(self, db: Database, spec, *targets: Table) -> None:
        super().__init__(db, spec)
        #: Published name -> target (an in-place one has a working name).
        self.targets: Dict[str, Table] = dict(zip(spec.targets, targets))
        self._rules = {(name, kind): rule for name in self.source_tables
                       for kind, rule in ((InsertRecord, self._rule_insert),
                                          (DeleteRecord, self._rule_delete),
                                          (UpdateRecord, self._rule_update))}

    def _find(self, key: Tuple) -> Tuple[Optional[Table], Optional[Row]]:
        for table in self.targets.values():
            row = table.get(key)
            if row is not None:
                return table, row
        return None, None

    @staticmethod
    def _mapped(convert: Callable, values: Dict[str, object],
                key: Tuple) -> Dict[str, object]:
        try:
            return convert(values)
        except (TypeError, ValueError):
            raise InconsistentDataError((key,))

    def shard_route(self, change: LogRecord) -> Tuple:
        return tuple(change.key)

    def _rule_insert(self, change: InsertRecord, lsn: int,
                     touched: Touched) -> None:
        key = tuple(change.key)
        row = self._find(key)[1]
        if row is not None:
            if row.lsn < lsn:
                raise InconsistentDataError((key,))
            return
        image = self._mapped(self.spec.map_row, change.values, key)
        table = self.targets[self.spec.route(image)]
        table.insert_row(image, lsn=lsn)
        self._touch(touched, table, key)

    def _rule_delete(self, change: DeleteRecord, lsn: int,
                     touched: Touched) -> None:
        key = tuple(change.key)
        table, row = self._find(key)
        if row is not None and row.lsn < lsn:
            table.delete_rowid(row.rowid)
            self._touch(touched, table, key)

    def _rule_update(self, change: UpdateRecord, lsn: int,
                     touched: Touched) -> None:
        key = tuple(change.key)
        table, row = self._find(key)
        if row is None or row.lsn >= lsn:
            return
        table.update_rowid(row.rowid, self._mapped(
            self.spec.map_changes, change.changes, key), lsn=lsn)
        routed = self.targets[self.spec.route(row.values)]
        if routed is not table:
            values = dict(row.values)
            table.delete_rowid(row.rowid)
            routed.insert_row(values, lsn=lsn)
            self._touch(touched, table, key)
        self._touch(touched, routed, key)

    def migrate_rows(self, table_name: str, images: Sequence[Image]) -> None:
        """Insert each image where routed unless its key is present,
        with one :meth:`Table.insert_rows` per target (whose primary
        index skips a key there) and none stored if a later one raises.
        A key present while migrating a later source is a collision."""
        later = table_name != self.source_tables[0]
        key_of = self.db.catalog.get_any(table_name).schema.key_of
        batches = {table: ([], []) for table in self.targets.values()}
        for values, lsn in images:
            key = key_of(values)
            image = self._mapped(self.spec.map_row, values, key)
            routed = self.spec.route(image)
            if later and self._find(key)[1] is not None:
                raise InconsistentDataError((key,))
            if all(other.rowid_of(key) is None
                   for name, other in self.targets.items() if name != routed):
                rows, lsns = batches[self.targets[routed]]
                rows.append(image)
                lsns.append(lsn)
        self._insert_chunk([
            (table, [tuple(map(row.get, table.schema.attribute_names))
                     for row in rows], lsns, None)
            for table, (rows, lsns) in batches.items()])

    def targets_of_source_lock(self, table_name: str,
                               key: Tuple) -> List[Tuple[Table, Tuple]]:
        """The side holding the key; every target while it is unknown."""
        if table_name not in self.source_tables:
            return []
        key = tuple(key)
        table = self._find(key)[0]
        tables = [table] if table is not None else self.targets.values()
        return [(t, key) for t in tables]

    def sources_of_target_lock(self, table_name: str,
                               key: Tuple) -> List[Tuple[Table, Tuple]]:
        """Every source (by ``source_tables``: an in-place one's zombie)."""
        if all(t.name != table_name for t in self.targets.values()):
            return []
        return [(self.db.catalog.get_any(name), tuple(key))
                for name in self.source_tables]
