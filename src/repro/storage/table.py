"""Heap tables: rowid-addressed row storage with maintained hash indexes.

A table stores a row as entries of three maps keyed by rowid: its values
dict (:attr:`Table.rows`, insertion-ordered, which gives scans a stable
physical order and lets rows inserted *during* a fuzzy scan appear behind
the cursor), its LSN (:attr:`Table.lsns`) and, only when it has any, its
metadata (:attr:`Table.metas`).  The maps hold nothing the cyclic
collector walks; :class:`~repro.storage.row.Row` handles are built on
request only.  A unique primary index over the schema's
primary-key attributes is always maintained; secondary indexes can be added
at any time and are backfilled from existing rows.

All methods here are *physical*: no locking, no logging, no transaction
awareness.  The execution engine (:mod:`repro.engine.database`) layers
locking and WAL on top for user transactions; the transformation framework
calls these methods directly when redoing the log onto transformed tables,
because redo is not a user transaction (Section 3.3 of the paper).
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.common.errors import (
    DuplicateKeyError,
    NoSuchIndexError,
    NoSuchRowError,
    SchemaError,
)
from repro.faults import NULL_FAULTS, register_site
from repro.storage.index import HashIndex, index_key
from repro.storage.row import Row
from repro.storage.schema import TableSchema
from repro.wal.records import NULL_LSN

#: Name of the always-present unique index over the primary-key attributes.
PRIMARY_INDEX = "__primary__"

#: A stored row's image: (values, LSN) -- what a scan hands out and
#: :meth:`repro.transform.base.RuleEngine.migrate_rows` consumes.
Image = Tuple[Dict[str, object], int]

#: Rowids are unique per process, across tables.
_rowid_counter = itertools.count(1)

SITE_TABLE_INSERT = register_site(
    "table.insert", "storage", "before a row is stored in the heap")
SITE_TABLE_INSERT_INDEXED = register_site(
    "table.insert.indexed", "storage",
    "after the row is indexed and stored in the heap")
SITE_TABLE_DELETE = register_site(
    "table.delete", "storage", "before a row leaves the heap and indexes")
SITE_TABLE_UPDATE = register_site(
    "table.update", "storage", "before a row image is changed in place")
SITE_INDEX_BACKFILL = register_site(
    "table.index.backfill", "storage",
    "before a new index is backfilled from existing rows")


class Table:
    """A stored table: schema + rows + indexes.

    Args:
        schema: The table's schema.  A unique primary index over
            ``schema.primary_key`` is created immediately.
    """

    _uid_counter = 0

    #: Attributes that tell apart rows whose primary key has a NULL part
    #: (the FOJ's ``t^null_x`` rows, one per join value ``x``).
    null_key_attrs: Tuple[str, ...] = ()

    def __init__(self, schema: TableSchema) -> None:
        Table._uid_counter += 1
        #: Stable physical identity, independent of renames; lock-manager
        #: resources are keyed by uid so locks survive the catalog swap.
        self.uid: int = Table._uid_counter
        #: Fault injector (no-op singleton by default); the catalog stamps
        #: tables with the database's injector when one is attached.
        self.faults = NULL_FAULTS
        self.schema = schema
        #: rowid -> values dict, in physical (insertion) order.
        self.rows: Dict[int, Dict[str, object]] = {}
        #: rowid -> LSN of the last logged operation applied to the row.
        self.lsns: Dict[int, int] = {}
        #: rowid -> framework metadata, for the rows that have any.
        self.metas: Dict[int, Dict[str, object]] = {}
        self.indexes: Dict[str, HashIndex] = {}
        self._primary = HashIndex(
            PRIMARY_INDEX, schema.primary_key, unique=True,
            table_name=schema.name,
        )
        self.indexes[PRIMARY_INDEX] = self._primary
        self._refresh_indexed_attrs()
        for i, ck in enumerate(schema.candidate_keys):
            self.create_index(f"__ck{i}__", ck, unique=True)

    # -- naming ---------------------------------------------------------------

    @property
    def name(self) -> str:
        """Current table name (tracks catalog renames via the schema)."""
        return self.schema.name

    def rename(self, new_name: str) -> None:
        """Rename the table (schema object is replaced)."""
        self.schema = self.schema.rename(new_name)
        for index in self.indexes.values():
            index.table_name = new_name

    # -- index management -------------------------------------------------------

    def create_index(self, name: str, attrs: Sequence[str],
                     unique: bool = False) -> HashIndex:
        """Create and backfill a hash index over ``attrs``."""
        if name in self.indexes:
            raise SchemaError(f"index {name!r} already exists on {self.name!r}")
        for attr in attrs:
            if not self.schema.has_attribute(attr):
                raise SchemaError(
                    f"cannot index missing attribute {attr!r} on {self.name!r}"
                )
        index = HashIndex(name, tuple(attrs), unique, table_name=self.name)
        self.faults.fire(SITE_INDEX_BACKFILL, table=self.name, index=name)
        for rowid, values in self.rows.items():
            index.insert(values, rowid)
        self.indexes[name] = index
        self._refresh_indexed_attrs()
        return index

    def drop_index(self, name: str) -> None:
        """Remove a secondary index."""
        if name == PRIMARY_INDEX:
            raise SchemaError("cannot drop the primary index")
        if name not in self.indexes:
            raise NoSuchIndexError(f"no index {name!r} on {self.name!r}")
        del self.indexes[name]
        self._refresh_indexed_attrs()

    def _refresh_indexed_attrs(self) -> None:
        """Recompute the set of attributes any index covers (the
        ``update_rowid`` fast path skips all index bookkeeping when the
        changed attributes are disjoint from it)."""
        self._indexed_attrs = frozenset(
            attr for index in self.indexes.values() for attr in index.attrs)

    def index(self, name: str) -> HashIndex:
        """Return an index by name."""
        try:
            return self.indexes[name]
        except KeyError:
            raise NoSuchIndexError(
                f"no index {name!r} on {self.name!r}"
            ) from None

    # -- physical row operations -----------------------------------------------

    def insert_row(self, values: Dict[str, object], lsn: int = NULL_LSN,
                   meta: Optional[Dict[str, object]] = None) -> Row:
        """Insert a new row; returns a handle on it.

        The values mapping is normalized against the schema (missing
        attributes become NULL).  A taken unique key raises
        :class:`DuplicateKeyError` naming the index.  A refused or
        fault-aborted insert changes nothing.
        """
        normalized = self.schema.normalize(values)
        rowid = next(_rowid_counter)
        if self._store((rowid,), (normalized,), (lsn,),
                       None if meta is None else (meta,)):
            raise DuplicateKeyError(
                self.name, index_key(normalized, self._primary.attrs),
                PRIMARY_INDEX)
        return Row(self, rowid, normalized)

    def insert_rows(self, values: Sequence[Tuple], lsns: Sequence[int],
                    metas: Optional[Sequence[Dict[str, object]]] = None
                    ) -> List[Optional[int]]:
        """Insert a batch of rows, all or nothing; returns their rowids.

        ``values`` holds one tuple per row, in the schema's attribute
        order; ``lsns`` (and ``metas``, when given) one entry per row.
        Each stored dict is built here, once.  A row whose primary key
        is taken -- by a stored row or an earlier row of the batch -- is
        skipped and reported as a ``None`` rowid; any other taken unique
        key raises :class:`DuplicateKeyError`.  A raise (a refusal or a
        fault) stores nothing of the batch.
        """
        names = self.schema.attribute_names
        rowids: List[Optional[int]] = \
            list(itertools.islice(_rowid_counter, len(values)))
        images = [dict(zip(names, row)) for row in values]
        for position in self._store(rowids, images, lsns, metas):
            rowids[position] = None
        return rowids

    def _store(self, rowids: Sequence[int],
               images: Sequence[Dict[str, object]], lsns: Sequence[int],
               metas: Optional[Sequence[Dict[str, object]]]
               ) -> Sequence[int]:
        """The one claim-and-store of :meth:`insert_row` and
        :meth:`insert_rows`, over parallel sequences.

        Claims every index for all the rows, the primary index first,
        then stores values, LSNs and metas (several rows with one
        ``dict.update`` per map).  Returns the positions skipped because
        their primary key is taken; any other taken unique key raises.
        On a raise nothing of the rows stays in a map or an index.
        """
        faults = self.faults
        if faults.enabled:
            faults.fire(SITE_TABLE_INSERT, table=self.name)
        skipped: Sequence[int] = ()
        try:
            for index in self.indexes.values():
                refused = index.claim(rowids, images)
                if refused:
                    if index is not self._primary:
                        raise DuplicateKeyError(
                            self.name,
                            index_key(images[refused[0]], index.attrs),
                            index.name)
                    skipped = refused
                    taken = set(refused)
                    kept = [i for i in range(len(rowids)) if i not in taken]
                    rowids = [rowids[i] for i in kept]
                    images = [images[i] for i in kept]
                    lsns = [lsns[i] for i in kept]
                    if metas is not None:
                        metas = [metas[i] for i in kept]
            if len(rowids) == 1:
                rowid = rowids[0]
                self.rows[rowid] = images[0]
                self.lsns[rowid] = lsns[0]
                if metas is not None:
                    self.metas[rowid] = metas[0]
            elif rowids:
                self.rows.update(zip(rowids, images))
                self.lsns.update(zip(rowids, lsns))
                if metas is not None:
                    self.metas.update(zip(rowids, metas))
            if faults.enabled and rowids:
                faults.fire(SITE_TABLE_INSERT_INDEXED, table=self.name,
                            rowid=rowids[0])
        except BaseException:
            rows, row_lsns, row_metas = self.rows, self.lsns, self.metas
            for rowid in rowids:
                rows.pop(rowid, None)
                row_lsns.pop(rowid, None)
                row_metas.pop(rowid, None)
            # Un-indexing drops an entry only where it names one of these
            # rows; a refused row claimed nothing and is no longer listed.
            for index in self.indexes.values():
                for rowid, values in zip(rowids, images):
                    index.remove(values, rowid)
            raise
        return skipped

    def check_unique(self, values: Dict[str, object]) -> None:
        """Raise :class:`DuplicateKeyError` when a unique index holds the
        normalized ``values``' key already.  Modifies nothing."""
        for index in self.indexes.values():
            key = index_key(values, index.attrs)
            if key is not None and index.unique and index.contains(key):
                raise DuplicateKeyError(self.name, key, index.name)

    def delete_rowid(self, rowid: int) -> Dict[str, object]:
        """Delete a row by physical id; returns its values."""
        if self.faults.enabled:
            self.faults.fire(SITE_TABLE_DELETE, table=self.name, rowid=rowid)
        values = self.rows.pop(rowid, None)
        if values is None:
            raise NoSuchRowError(self.name, (rowid,))
        del self.lsns[rowid]
        self.metas.pop(rowid, None)
        for index in self.indexes.values():
            index.remove(values, rowid)
        return values

    def update_rowid(self, rowid: int, changes: Dict[str, object],
                     lsn: Optional[int] = None) -> None:
        """Apply ``changes`` to a row in place, re-indexing as needed.

        Unlike the engine-level update, this physical operation *does* allow
        key attributes to change: the transformation framework morphs rows
        (e.g. a FOJ NULL record acquiring an R part).  Unique violations on
        the new image raise before anything is modified.
        """
        if self.faults.enabled:
            self.faults.fire(SITE_TABLE_UPDATE, table=self.name, rowid=rowid)
        values = self.rows.get(rowid)
        if values is None:
            raise NoSuchRowError(self.name, (rowid,))
        attribute_set = self.schema.attribute_set
        if not attribute_set.issuperset(changes):
            unknown = next(a for a in changes if a not in attribute_set)
            raise SchemaError(
                f"unknown attribute {unknown!r} for table {self.name!r}")
        if self._indexed_attrs.isdisjoint(changes):
            # No indexed attribute changes: skip the unique pre-checks,
            # the before-image copy and the per-index re-keying.
            values.update(changes)
            if lsn is not None:
                self.lsns[rowid] = lsn
            return
        old_values = dict(values)
        new_values = dict(old_values)
        new_values.update(changes)
        for index in self.indexes.values():
            if not index.unique:
                continue
            old_key = index_key(old_values, index.attrs)
            new_key = index_key(new_values, index.attrs)
            if new_key is not None and new_key != old_key:
                existing = index.lookup(new_key)
                if existing and existing != [rowid]:
                    raise DuplicateKeyError(self.name, new_key, index.name)
        values.update(changes)
        for index in self.indexes.values():
            index.update(old_values, values, rowid)
        if lsn is not None:
            self.lsns[rowid] = lsn

    def drop_attributes(self, names: Sequence[str]) -> None:
        """Remove columns from the table in place.

        Used by the rename-based split synchronization (paper Section 5.2,
        alternative strategy): the attributes that moved to S "are removed
        first", then T is renamed to R.  Primary-key columns cannot be
        dropped; indexes referencing a dropped column are dropped with it.
        """
        drop_set = set(names)
        if not drop_set:
            return
        missing = [n for n in drop_set if not self.schema.has_attribute(n)]
        if missing:
            raise SchemaError(
                f"cannot drop missing attributes {missing} from "
                f"{self.name!r}")
        in_key = drop_set & set(self.schema.primary_key)
        if in_key:
            raise SchemaError(
                f"cannot drop primary-key attributes {sorted(in_key)} "
                f"from {self.name!r}")
        for index_name in list(self.indexes):
            index = self.indexes[index_name]
            if drop_set & set(index.attrs):
                del self.indexes[index_name]
        self._refresh_indexed_attrs()
        keep = [a for a in self.schema.attributes
                if a.name not in drop_set]
        self.schema = TableSchema(self.schema.name, keep,
                                  self.schema.primary_key)
        for values in self.rows.values():
            for name in drop_set:
                values.pop(name, None)

    # -- logical (key-based) access ----------------------------------------------

    def rowid_of(self, key: Tuple) -> Optional[int]:
        """Rowid of the row with the given primary-key tuple, or ``None``
        (one primary-index probe, no handle)."""
        rowids = self._primary.lookup(key)
        return rowids[0] if rowids else None

    def get(self, key: Tuple) -> Optional[Row]:
        """Row with the given primary-key tuple, or ``None``."""
        rowids = self._primary.lookup(key)
        if not rowids:
            return None
        rowid = rowids[0]
        return Row(self, rowid, self.rows[rowid])

    def lock_key(self, values: Dict[str, object]) -> Tuple:
        """The key a record lock on the row holding ``values`` names: its
        primary key, or -- when part of that key is NULL -- the key
        extended by :attr:`null_key_attrs`, so such rows do not share one
        lock."""
        key = self.schema.key_of(values)
        if None in key:
            return key + tuple(values.get(a) for a in self.null_key_attrs)
        return key

    def require(self, key: Tuple) -> Row:
        """Row with the given primary key; raises if absent."""
        row = self.get(key)
        if row is None:
            raise NoSuchRowError(self.name, tuple(key))
        return row

    def delete_key(self, key: Tuple) -> Dict[str, object]:
        """Delete the row with the given primary key; returns its values."""
        return self.delete_rowid(self.require(key).rowid)

    def update_key(self, key: Tuple, changes: Dict[str, object],
                   lsn: Optional[int] = None) -> None:
        """Update the row with the given primary key."""
        self.update_rowid(self.require(key).rowid, changes, lsn)

    def lookup(self, index_name: str, key: Tuple) -> List[Row]:
        """Rows matching ``key`` in the named index, in rowid order."""
        index = self.index(index_name)
        rows = self.rows
        return [Row(self, rowid, rows[rowid]) for rowid in index.lookup(key)]

    # -- scans ---------------------------------------------------------------------

    def scan(self) -> Iterator[Row]:
        """Iterate over live rows in physical (insertion) order.

        The iteration tolerates concurrent inserts/deletes between ``next``
        calls by materializing the rowid list at call time; rows inserted
        after the call starts are *not* seen (fuzzy scans re-materialize per
        chunk instead -- see :mod:`repro.engine.fuzzy`).
        """
        rows = self.rows
        for rowid in list(rows):
            values = rows.get(rowid)
            if values is not None:
                yield Row(self, rowid, values)

    def select(self, predicate: Optional[Callable[[Row], bool]] = None
               ) -> List[Row]:
        """Materialized scan, optionally filtered."""
        if predicate is None:
            return list(self.scan())
        return [row for row in self.scan() if predicate(row)]

    @property
    def row_count(self) -> int:
        """Number of live rows."""
        return len(self.rows)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {self.row_count} rows)"
