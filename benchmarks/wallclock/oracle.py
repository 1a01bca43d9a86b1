"""Output oracle: a dict model of acknowledged commits plus the checks.

The model never reads the engine back.  The driver buffers a
transaction's writes and hands them to :meth:`Model.apply` only once
``commit`` has returned, so the model is exactly what the system
acknowledged.  After a migration the engine's target tables must equal
the reference operator (``split`` / ``full_outer_join``) applied to the
model; after a restart the recovered table must equal the model.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.api import FojSpec, SplitSpec, full_outer_join, rows_equal, split

Key = Tuple
Row = Dict[str, object]
#: One buffered write: (logical table, key, changed attributes).  A key
#: the model does not hold yet is an insert carrying the full row.
Write = Tuple[str, Key, Mapping[str, object]]


class OracleMismatch(Exception):
    """The engine's output differs from the model of acknowledged commits."""


class Model:
    """Committed rows per logical table, keyed by primary key."""

    def __init__(self) -> None:
        self.tables: Dict[str, Dict[Key, Row]] = {}

    def load(self, table: str, key_attrs: Tuple[str, ...],
             rows: Iterable[Row]) -> None:
        """Register the bulk-loaded (committed) content of a table."""
        self.tables[table] = {
            tuple(row[a] for a in key_attrs): dict(row) for row in rows}

    def apply(self, writes: Iterable[Write]) -> None:
        """Apply one acknowledged transaction's writes."""
        for table, key, changes in writes:
            rows = self.tables[table]
            row = rows.get(key)
            if row is None:
                rows[key] = dict(changes)
            else:
                row.update(changes)

    def rows(self, table: str) -> List[Row]:
        return list(self.tables[table].values())

    def check_read(self, table: str, key: Key,
                   got: Optional[Mapping[str, object]]) -> None:
        """A read under a shared lock must see exactly the committed row
        (strict 2PL: writers keep their X locks until commit).  After a
        swap the physical row carries a subset of the logical columns."""
        want = self.tables[table].get(key)
        if want is None or got is None:
            if want is not got:
                raise OracleMismatch(
                    f"read {table}{key}: got {got!r}, model has {want!r}")
            return
        for attr, value in got.items():
            if want[attr] != value:
                raise OracleMismatch(
                    f"read {table}{key}.{attr}: got {value!r}, "
                    f"model has {want[attr]!r}")


def table_rows(table) -> List[Row]:
    """The engine's current content of a table, as plain dicts."""
    return [dict(row.values) for row in table.scan()]


def check_split(spec: SplitSpec, source_rows: List[Row], r_table,
                s_table) -> None:
    """Targets must equal the reference split of the final source image."""
    want_r, want_s, _counters, _bad = split(spec, source_rows)
    if not rows_equal(want_r, table_rows(r_table)):
        raise OracleMismatch(f"split: {spec.r_name} differs from the oracle")
    if not rows_equal(want_s, table_rows(s_table)):
        raise OracleMismatch(f"split: {spec.s_name} differs from the oracle")


def check_foj(spec: FojSpec, r_rows: List[Row], s_rows: List[Row],
              t_table) -> None:
    """The target must equal the reference full outer join."""
    want = full_outer_join(spec, r_rows, s_rows)
    if not rows_equal(want, table_rows(t_table)):
        raise OracleMismatch(
            f"foj: {spec.target_name} differs from the oracle")


def check_recovered(model: Model, table_name: str, key_attrs: Tuple[str, ...],
                    table) -> None:
    """Every acknowledged commit must be readable after the restart, and
    nothing else: the recovered table equals the model exactly."""
    got = {tuple(row.values[a] for a in key_attrs): row.values
           for row in table.scan()}
    want = model.tables[table_name]
    if got != want:
        missing = len(want.keys() - got.keys())
        extra = len(got.keys() - want.keys())
        differing = sum(1 for k in want.keys() & got.keys()
                        if want[k] != got[k])
        raise OracleMismatch(
            f"restart: {table_name} differs from acknowledged commits "
            f"({missing} missing, {extra} extra, {differing} differing)")
