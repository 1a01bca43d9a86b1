"""Stored row representation.

A row couples its attribute values with the state metadata the paper's
machinery needs:

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
"""

from __future__ import annotations

import itertools
from typing import Dict, Mapping, Optional

from repro.wal.records import NULL_LSN

_rowid_counter = itertools.count(1)


class Row:
    """A stored record: values + LSN + framework metadata.

    Rows are identified physically by ``rowid`` (unique per process) and
    logically by the primary-key tuple derived from their values.  Rows are
    mutated in place by the storage layer only; everything above works
    through :class:`repro.storage.table.Table`.
    """

    __slots__ = ("rowid", "values", "lsn", "meta")

    def __init__(self, values: Dict[str, object], lsn: int = NULL_LSN,
                 meta: Optional[Dict[str, object]] = None) -> None:
        self.rowid: int = next(_rowid_counter)
        self.values = values
        self.lsn = lsn
        self.meta = meta

    def snapshot(self) -> "Row":
        """Deep-enough copy for fuzzy reads: same rowid, copied values/meta.

        Fuzzy scans hand out snapshots so later in-place updates by user
        transactions cannot retroactively change what the scan observed.
        """
        copy = Row.__new__(Row)
        copy.rowid = self.rowid
        copy.values = dict(self.values)
        copy.lsn = self.lsn
        copy.meta = dict(self.meta) if self.meta is not None else None
        return copy

    def get(self, attr: str) -> object:
        """Value of a single attribute."""
        return self.values[attr]

    def matches(self, predicate: Mapping[str, object]) -> bool:
        """Whether every (attr, value) pair of ``predicate`` holds."""
        return all(self.values.get(k) == v for k, v in predicate.items())

    def __repr__(self) -> str:
        extra = f" meta={self.meta}" if self.meta else ""
        return f"Row#{self.rowid}(lsn={self.lsn}, {self.values}{extra})"
