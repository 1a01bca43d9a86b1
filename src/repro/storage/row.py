"""Row handles over a table's maps.

A table stores a row as three map entries keyed by its ``rowid`` (see
:class:`repro.storage.table.Table`): its attribute values, its LSN and --
only when it has any -- its metadata.  None of the three holds an object
the cyclic collector walks, so a million stored rows cost a full
collection nothing.

A :class:`Row` is a short-lived *handle* over one such row, built only
where a caller asks for a row (``Table.get`` / ``lookup`` / ``scan`` and
``insert_row``'s return value).  What it exposes:

* ``values`` -- the stored values dict itself (in-place updates by the
  storage layer show through);
* ``lsn`` -- the LSN of the last logged operation applied to the row.  The
  fuzzy-copy technique (Section 2.2) and the split propagation rules
  (Rules 8-11) use record LSNs as state identifiers to make redo
  idempotent.  FOJ-transformed rows also carry an LSN but the FOJ rules
  deliberately ignore it (Section 4.2: a joined row has no single valid
  state identifier).
* ``meta`` -- side metadata owned by the transformation framework: the
  duplicate ``counter`` and C/U consistency ``flag`` of split S-records
  (Sections 5, 5.3), and the ``r_null`` / ``s_null`` marker on a FOJ row
  one side of which is a NULL record.  ``None`` on every other row --
  source rows and joined FOJ rows carry no side dict at all.

``lsn`` and ``meta`` read and write through the table's maps, so two
handles on one row always agree; handles compare with ``==`` (same table,
same rowid), never with ``is``.
"""

from __future__ import annotations

from typing import Dict, Optional


class Row:
    """A handle on one stored row: ``(table, rowid, values)``.

    Rows are identified physically by ``rowid`` (unique per process) and
    logically by the primary-key tuple derived from their values.  The
    handle is valid while the row lives; everything that changes a row
    goes through :class:`repro.storage.table.Table`.
    """

    __slots__ = ("table", "rowid", "values")

    def __init__(self, table, rowid: int,
                 values: Dict[str, object]) -> None:
        self.table = table
        self.rowid = rowid
        self.values = values

    @property
    def lsn(self) -> int:
        return self.table.lsns[self.rowid]

    @lsn.setter
    def lsn(self, lsn: int) -> None:
        self.table.lsns[self.rowid] = lsn

    @property
    def meta(self) -> Optional[Dict[str, object]]:
        return self.table.metas.get(self.rowid)

    @meta.setter
    def meta(self, meta: Optional[Dict[str, object]]) -> None:
        if meta is None:
            self.table.metas.pop(self.rowid, None)
        else:
            self.table.metas[self.rowid] = meta

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Row):
            return NotImplemented
        return self.rowid == other.rowid and self.table is other.table

    def __hash__(self) -> int:
        return hash(self.rowid)

    def __repr__(self) -> str:
        meta = self.table.metas.get(self.rowid)
        extra = f" meta={meta}" if meta else ""
        lsn = self.table.lsns.get(self.rowid)
        return f"Row#{self.rowid}(lsn={lsn}, {self.values}{extra})"
