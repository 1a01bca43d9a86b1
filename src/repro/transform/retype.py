"""Column retype / default-change transformation (corpus operator).

Rewrites one non-key column of a table through a named cast (see
:data:`~repro.relational.spec.RETYPE_CASTS`) and replaces NULLs with a
new default, online: the target is a same-keyed copy of the source, so
the propagation rules are the one-to-one LSN-guarded kind (like the
horizontal merge's, minus the second source):

* insert: cast and insert if absent;
* delete: delete if present and older;
* update: cast the changed column (if changed) and apply if present and
  older.

A value the cast cannot parse is the retype analogue of the paper's
Example 1 dirty data and raises
:class:`~repro.common.errors.InconsistentDataError` -- with the row key
attached -- rather than silently guessing.

Rows map one-to-one by an unchanged key, so records route by source key
under hash-sharded propagation, and :meth:`RetypeRuleEngine.migrate_row`
is an idempotent upsert that serves eager and lazy (migrate-on-read)
population alike.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.common.errors import InconsistentDataError
from repro.engine.database import Database
from repro.relational.spec import RetypeSpec
from repro.storage.table import Table
from repro.transform.base import RuleEngine, Touched, Transformation
from repro.wal.records import (
    NULL_LSN,
    DeleteRecord,
    InsertRecord,
    LogRecord,
    UpdateRecord,
)


def _cast_row(spec: RetypeSpec, values: Dict[str, object],
              key: Tuple) -> Dict[str, object]:
    """Retype one row image, surfacing unparseable values."""
    try:
        return spec.retype_row(values)
    except (TypeError, ValueError):
        raise InconsistentDataError(key)


class RetypeRuleEngine(RuleEngine):
    """One-to-one LSN-guarded propagation rules for a retype."""

    supports_lazy = True
    marker_classes: Tuple[type, ...] = ()

    def __init__(self, db: Database, spec: RetypeSpec,
                 target: Table) -> None:
        self.db = db
        self.spec = spec
        self.target = target
        self.source_tables = (spec.source_name,)
        self._rules = {(spec.source_name, InsertRecord): self._rule_insert,
                       (spec.source_name, DeleteRecord): self._rule_delete,
                       (spec.source_name, UpdateRecord): self._rule_update}

    # -- sharding -------------------------------------------------------------

    def shard_route(self, change: LogRecord):
        """Rows map one-to-one by key; route by it."""
        return tuple(change.key)

    # -- rules ----------------------------------------------------------------

    def _rule_insert(self, change: InsertRecord, lsn: int,
                     touched: Touched) -> None:
        key = tuple(change.key)
        row = self.target.get(key)
        if row is not None and row.lsn >= lsn:
            return
        image = _cast_row(self.spec, dict(change.values), key)
        if row is None:
            self.target.insert_row(image, lsn=lsn)
        else:
            self.target.update_rowid(row.rowid, image, lsn=lsn)
        self._touch(touched, self.target, key)

    def _rule_delete(self, change: DeleteRecord, lsn: int,
                     touched: Touched) -> None:
        key = tuple(change.key)
        row = self.target.get(key)
        if row is not None and row.lsn < lsn:
            self.target.delete_rowid(row.rowid)
            self._touch(touched, self.target, key)

    def _rule_update(self, change: UpdateRecord, lsn: int,
                     touched: Touched) -> None:
        key = tuple(change.key)
        row = self.target.get(key)
        if row is not None and row.lsn < lsn:
            try:
                changes = self.spec.retype_changes(dict(change.changes))
            except (TypeError, ValueError):
                raise InconsistentDataError(key)
            self.target.update_rowid(row.rowid, changes, lsn=lsn)
            self._touch(touched, self.target, key)

    # -- population -----------------------------------------------------------

    def migrate_row(self, table_name: str, values: Dict[str, object],
                    lsn: int = NULL_LSN) -> None:
        """Insert one source row's retyped image if absent."""
        key = self.target.schema.key_of(values)
        if self.target.get(key) is None:
            self.target.insert_row(_cast_row(self.spec, values, key),
                                   lsn=lsn)

    # -- lock mapping (synchronization support) -------------------------------

    def targets_of_source_lock(self, table_name: str,
                               key: Tuple) -> List[Tuple[Table, Tuple]]:
        if table_name != self.spec.source_name:
            return []
        return [(self.target, tuple(key))]

    def sources_of_target_lock(self, table_name: str,
                               key: Tuple) -> List[Tuple[Table, Tuple]]:
        if table_name != self.target.name:
            return []
        source = self.db.catalog.get_any(self.spec.source_name)
        return [(source, tuple(key))]


class RetypeTransformation(Transformation):
    """Online, non-blocking column retype / default change.

    Example::

        spec = RetypeSpec.derive(db.table("reading").schema,
                                 target_name="reading_v2",
                                 attr="value", cast="float", default=0.0)
        RetypeTransformation(db, spec).run()

    Args:
        db: The database.
        spec: The retype specification.
        options: Forwarded to :class:`Transformation`.
    """

    kind = "retype"
    engine_class = RetypeRuleEngine

    @property
    def source_tables(self) -> Tuple[str, ...]:
        return (self.spec.source_name,)

    @classmethod
    def target_tables(cls, db: Database, spec: RetypeSpec,
                      detached: bool = False) -> Dict[str, Table]:
        """A same-keyed copy of the source with the column retyped."""
        source_schema = db.catalog.get(spec.source_name).schema
        return {spec.target_name: cls._new_table(
            db, spec.target_schema(source_schema), detached)}
