"""Column map transformation: retype, default change, attribute DDL.

Rewrites one non-key column of a table through a named cast (see
:data:`~repro.relational.spec.RETYPE_CASTS`), replaces NULLs with a new
default, and renames, adds or drops columns, online: the target is a
same-keyed copy of the source under the spec's column map, so the
propagation rules are the one-to-one LSN-guarded kind (like the
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
under hash-sharded propagation, and :meth:`RetypeRuleEngine.migrate_rows`
is an idempotent upsert that serves eager and lazy (migrate-on-read)
population alike.

The Section 2.4 attribute DDL (:func:`add_attribute`, ...) is this
operator published in place: a full online copy, logged and redone at
restart like any other, not an O(1) edit of the table description
(which left nothing in the log to redo).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from repro.common.errors import InconsistentDataError
from repro.engine.database import Database
from repro.relational.spec import RetypeSpec
from repro.storage.table import Table
from repro.transform.base import Image, RuleEngine, Touched, Transformation
from repro.wal.records import (
    DeleteRecord,
    InsertRecord,
    LogRecord,
    UpdateRecord,
)


def _mapped(convert: Callable, values: Dict[str, object],
            key: Tuple) -> Dict[str, object]:
    """``convert`` one image, surfacing unparseable values."""
    try:
        return convert(values)
    except (TypeError, ValueError):
        raise InconsistentDataError(key)


class RetypeRuleEngine(RuleEngine):
    """One-to-one LSN-guarded propagation rules for a retype."""

    supports_lazy = True
    marker_classes: Tuple[type, ...] = ()

    def __init__(self, db: Database, spec: RetypeSpec,
                 target: Table) -> None:
        super().__init__(db, spec)
        self.target = target
        #: A rename may map the key columns, never their values.
        self._source_key_of = db.catalog.get(spec.source_name).schema.key_of
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
        image = _mapped(self.spec.retype_row, change.values, key)
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
            self.target.update_rowid(row.rowid, _mapped(
                self.spec.retype_changes, change.changes, key), lsn=lsn)
            self._touch(touched, self.target, key)

    # -- population -----------------------------------------------------------

    def migrate_rows(self, table_name: str, images: Sequence[Image]) -> None:
        """Insert each source row's retyped image if absent."""
        retype_row, key_of = self.spec.retype_row, self._source_key_of
        for values, lsn in images:
            self._insert_new(self.target, _mapped(
                retype_row, values, key_of(values)), lsn)

    # -- lock mapping (by ``source_tables``: an in-place source's zombie) -----

    def targets_of_source_lock(self, table_name: str,
                               key: Tuple) -> List[Tuple[Table, Tuple]]:
        if table_name not in self.source_tables:
            return []
        return [(self.target, tuple(key))]

    def sources_of_target_lock(self, table_name: str,
                               key: Tuple) -> List[Tuple[Table, Tuple]]:
        if table_name != self.target.name:
            return []
        source = self.db.catalog.get_any(self.source_tables[0])
        return [(source, tuple(key))]


class RetypeTransformation(Transformation):
    """Online, non-blocking column map (retype, default, attribute DDL).

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
    spec_class = RetypeSpec
    engine_class = RetypeRuleEngine

    @classmethod
    def target_tables(cls, db: Database, spec: RetypeSpec,
                      detached: bool = False) -> Dict[str, Table]:
        """A same-keyed copy of the source under the column map, with the
        source's secondary indexes re-declared through it (an index
        over a dropped column is not).  An in-place target is built
        under a working name; the swap publishes it under the source's.
        """
        source = db.catalog.get(spec.source_name)
        schema = cls.published_schemas(db, spec)[spec.target_name]
        if spec.target_name == spec.source_name:
            schema = schema.rename(f"{spec.source_name}#{cls.kind}")
        target = cls._new_table(db, schema, detached)
        renamed = dict(spec.rename)
        for name, index in source.indexes.items():
            if not name.startswith("__") \
                    and set(spec.drop).isdisjoint(index.attrs):
                target.create_index(
                    name, [renamed.get(a, a) for a in index.attrs],
                    unique=index.unique)
        return {spec.target_name: target}


def _in_place(db: Database, table_name: str, **column_map) -> None:
    RetypeTransformation(db, RetypeSpec.derive(
        db.catalog.get(table_name).schema, table_name, **column_map)).run()


def add_attribute(db: Database, table_name: str, attr_name: str,
                  default: object = None) -> None:
    """Add a nullable attribute, online; existing rows get ``default``."""
    _in_place(db, table_name, add={attr_name: default})


def remove_attribute(db: Database, table_name: str, attr_name: str) -> None:
    """Remove a non-key attribute (and any index over it), online."""
    _in_place(db, table_name, drop=(attr_name,))


def rename_attribute(db: Database, table_name: str, old_name: str,
                     new_name: str) -> None:
    """Rename an attribute, online; key and indexes follow the name."""
    _in_place(db, table_name, rename={old_name: new_name})
