"""Multi-value column explode transformation (corpus operator).

One source row whose multi-value column holds N separator-joined
elements becomes N target rows -- the *inverse-cardinality cousin* of
the vertical split: where the split's Rules 8-11 merge N source rows
into one shared S record (duplicate counters, max-LSN images), the
explode fans one source row out into N children and must keep the whole
sibling group consistent under concurrent inserts, deletes and list
rewrites.

The rules are LSN-guarded per child, like the split's (whole source
rows are the unit of change, so the record LSN is a valid state
identifier):

* insert: one child per element, each inserted only if absent (replay
  and fuzzy-population races resolve by the usual skip-if-newer);
* delete: every child of the source key is removed if older than the
  delete;
* update: kept-attribute changes apply to all children; a rewrite of
  the list column reconciles the sibling group -- new elements inserted,
  surviving elements updated, vanished elements deleted -- all under the
  same LSN guard.

A source row with a NULL or element-free list explodes to exactly one
child with a NULL element (the FOJ's null-padding transplanted, see
:class:`~repro.relational.spec.ExplodeSpec`), which keeps every source
row represented: the rules can safely read "no children" as "no source
row", with no counter machinery needed.

Because one source key owns its whole sibling group and nothing else,
records route by source key under hash-sharded propagation, and
:meth:`ExplodeRuleEngine.migrate_rows` is an idempotent upsert that
serves eager and lazy (migrate-on-read) population alike.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.database import Database
from repro.relational.spec import ExplodeSpec
from repro.storage.row import Row
from repro.storage.table import Table
from repro.transform.base import Image, RuleEngine, Touched, Transformation
from repro.wal.records import (
    DeleteRecord,
    InsertRecord,
    LogRecord,
    UpdateRecord,
)

#: Index on the target's source-key columns: the rules look up a source
#: row's whole sibling group ("children") without scanning the target.
PARENT_INDEX = "__explode_parent__"


class ExplodeRuleEngine(RuleEngine):
    """LSN-guarded, sibling-group propagation rules for an explode."""

    marker_classes: Tuple[type, ...] = ()

    def __init__(self, db: Database, spec: ExplodeSpec,
                 target: Table) -> None:
        super().__init__(db, spec)
        self.target = target
        self._rules = {(spec.source_name, InsertRecord): self._rule_insert,
                       (spec.source_name, DeleteRecord): self._rule_delete,
                       (spec.source_name, UpdateRecord): self._rule_update}

    def _children(self, parent_key: Tuple) -> List[Row]:
        return self.target.lookup(PARENT_INDEX, tuple(parent_key))

    def _child(self, values: Dict[str, object],
               element: Optional[str]) -> Optional[Row]:
        """The child of ``values``' source row holding ``element``, found
        among its siblings: the NULL-element child's key ``(source key,
        NULL)`` is outside the partial unique primary index, so
        ``target.get`` never finds it."""
        return next((c for c in self._children(self.spec.parent_key(values))
                     if c.values.get(self.spec.value_attr) == element), None)

    # -- sharding -------------------------------------------------------------

    def shard_route(self, change: LogRecord):
        """Route by source key: one key owns its whole sibling group."""
        return tuple(change.key)

    # -- rules ----------------------------------------------------------------

    def _rule_insert(self, change: InsertRecord, lsn: int,
                     touched: Touched) -> None:
        """One child per element, each guarded per-child.

        A child already present with a higher LSN came from a newer
        source image (fuzzy population, or lazy migration) and wins; a
        stale extra child this insert resurrects is deleted again when
        the newer update/delete record reaches it in LSN order.
        """
        for element in self.spec.elements(change.values):
            child = self._child(change.values, element)
            if child is None:
                child = self.target.insert_row(
                    self.spec.child_values(change.values, element), lsn=lsn)
            elif child.lsn < lsn:
                self.target.update_rowid(
                    child.rowid,
                    self.spec.child_values(change.values, element), lsn=lsn)
            else:
                continue
            self._touch_row(touched, self.target, child)

    def _rule_delete(self, change: DeleteRecord, lsn: int,
                     touched: Touched) -> None:
        """Remove every child of the source key not newer than the delete."""
        for child in list(self._children(change.key)):
            if child.lsn < lsn:
                self.target.delete_rowid(child.rowid)
                self._touch_row(touched, self.target, child)

    def _rule_update(self, change: UpdateRecord, lsn: int,
                     touched: Touched) -> None:
        """Apply kept changes to all children; reconcile a list rewrite.

        With the null-padding invariant a live source row always has at
        least one child, so an empty sibling group means the row is gone
        (a newer delete already applied) and the update is ignored --
        the same "absent or newer" guard as the split's Rule 10.
        """
        children = list(self._children(change.key))
        if not children:
            return
        kept = self.spec.kept_changes(change.changes)
        if self.spec.list_attr not in change.changes:
            if not kept:
                return
            for child in children:
                if child.lsn < lsn:
                    self.target.update_rowid(child.rowid, dict(kept),
                                             lsn=lsn)
                    self._touch_row(touched, self.target, child)
            return
        # List rewrite: rebuild the source image from any child's kept
        # columns + the update's changes, then reconcile the group.
        base = {a: children[0].values.get(a) for a in self.spec.keep_attrs}
        base.update(kept)
        base[self.spec.list_attr] = change.changes[self.spec.list_attr]
        new_elements = self.spec.elements(base)
        wanted = set(new_elements)
        for child in children:
            element = child.values.get(self.spec.value_attr)
            if child.lsn >= lsn:
                continue
            if element in wanted:
                self.target.update_rowid(
                    child.rowid, self.spec.child_values(base, element),
                    lsn=lsn)
            else:
                self.target.delete_rowid(child.rowid)
            self._touch_row(touched, self.target, child)
        have = {c.values.get(self.spec.value_attr)
                for c in self._children(change.key)}
        for element in new_elements:
            if element not in have:
                child = self.target.insert_row(
                    self.spec.child_values(base, element), lsn=lsn)
                self._touch_row(touched, self.target, child)

    # -- population -----------------------------------------------------------

    def migrate_rows(self, table_name: str, images: Sequence[Image]) -> None:
        """Insert each source row's children if absent.

        Idempotent, and children are stamped with the source row's LSN
        so the propagation rules guard later replay exactly as over an
        eager image.
        """
        spec, target = self.spec, self.target
        for values, lsn in images:
            for element in spec.elements(values):
                if self._child(values, element) is None:
                    target.insert_row(spec.child_values(values, element),
                                      lsn=lsn)

    # -- lock mapping (synchronization support) -------------------------------

    def targets_of_source_lock(self, table_name: str,
                               key: Tuple) -> List[Tuple[Table, Tuple]]:
        if table_name != self.spec.source_name:
            return []
        return [(self.target, self.target.schema.key_of(child.values))
                for child in self._children(tuple(key))]

    def sources_of_target_lock(self, table_name: str,
                               key: Tuple) -> List[Tuple[Table, Tuple]]:
        if table_name != self.target.name:
            return []
        source = self.db.catalog.get_any(self.spec.source_name)
        return [(source, tuple(key)[:-1])]


class ExplodeTransformation(Transformation):
    """Online, non-blocking explode of a multi-value column.

    Example::

        spec = ExplodeSpec.derive(db.table("article").schema,
                                  target_name="article_tag",
                                  list_attr="tags", value_attr="tag")
        ExplodeTransformation(db, spec).run()

    Args:
        db: The database.
        spec: The explode specification.
        options: Forwarded to :class:`Transformation`.
    """

    kind = "explode"
    spec_class = ExplodeSpec
    engine_class = ExplodeRuleEngine
    supports_lazy = True

    @classmethod
    def target_tables(cls, db: Database, spec: ExplodeSpec,
                      detached: bool = False) -> Dict[str, Table]:
        """The exploded table and its parent index."""
        tables = super().target_tables(db, spec, detached)
        tables[spec.target_name].create_index(PARENT_INDEX, spec.source_key)
        return tables
