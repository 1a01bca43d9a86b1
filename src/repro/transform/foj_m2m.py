"""Many-to-many full outer join transformation (Section 4.2, sketch).

When S's join attribute is not unique, an R row may join many S rows and
vice versa, so:

* T's primary key is the concatenation of the identifying attributes of
  *both* sources ("one or more identifying attributes from both source
  tables ... should be used together to form the primary key of T");
* operations on either source must affect *all* T rows the source record
  contributed to -- additional (non-unique) indexes on the R-key and S-key
  attributes of T provide the lookups ("An index should be created to
  speed up the search for these");
* an unmatched record of either side is represented by its own NULL-joined
  placeholder row (one per unmatched source record, identified by that
  record's key -- unlike the one-to-many case where ``t^null_x`` is unique
  per join value).

The paper sketches the modified R-side rules and claims the S-side rules
carry over unchanged.  Taken literally that does not converge: with a
non-unique join attribute, inserting a new S record with join value x must
join it with *every* R record carrying x, including those already joined
to other S records -- the one-to-many Rule 2 would only fill snull
placeholders.  We therefore implement fully symmetric many-to-many rules
(the R-side ones exactly as sketched; the S-side ones mirrored), and note
the deviation in DESIGN.md.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.common.errors import TransformationError
from repro.engine.database import Database
from repro.relational.spec import FojSpec
from repro.storage.row import Row
from repro.storage.table import Table
from repro.transform.base import Touched, Transformation
from repro.transform.foj import (JOIN_INDEX, SKEY_INDEX, FojTransformation,
                                 JoinRuleEngine, moves_join, null_flag,
                                 side_changes)
from repro.wal.records import DeleteRecord, InsertRecord, UpdateRecord

#: Non-unique index over the R-identifying attributes of T (needed because
#: T's primary key is the R-key + S-key concatenation).
RKEY_INDEX = "__rkey__"


class Many2ManyFojRuleEngine(JoinRuleEngine):
    """Symmetric propagation rules for the many-to-many full outer join."""

    def __init__(self, db: Database, spec: FojSpec, target: Table) -> None:
        super().__init__(db, spec, target)
        self._rules = {
            (spec.r_name, InsertRecord): self._insert_r,
            (spec.r_name, DeleteRecord): self._rule_delete_r,
            (spec.r_name, UpdateRecord): self._update_r,
            (spec.s_name, InsertRecord): self._insert_s,
            (spec.s_name, DeleteRecord): self._rule_delete_s,
            (spec.s_name, UpdateRecord): self._update_s,
        }

    # -- helpers ------------------------------------------------------------

    def _rows_with_rkey(self, key: Tuple) -> List[Row]:
        return self.t.lookup(RKEY_INDEX, tuple(key))

    def _rows_with_skey(self, key: Tuple) -> List[Row]:
        return self.t.lookup(SKEY_INDEX, tuple(key))

    def _skey_of(self, values: Dict[str, object]) -> Tuple:
        return tuple(values.get(a) for a in self.spec.s_key)

    def _rkey_of(self, values: Dict[str, object]) -> Tuple:
        return tuple(values.get(a) for a in self.spec.r_key)

    # -- R side (the LSN is ignored, as in every FOJ rule) -------------------

    def _insert_r(self, change: InsertRecord, _lsn: int,
                  touched: Touched) -> None:
        """"A t^{yv}_z record has to be inserted for every matching record
        s^v_x": morph the placeholders of unmatched S records, clone the S
        part of matched ones, or fall back to a single snull row."""
        values = change.values
        r_key = self._rkey_of(values)
        if self._rows_with_rkey(r_key):
            return  # Theorem 1: already reflected
        r_part = self.spec.r_part(values)
        join_value = values.get(self.spec.join_attr_r)
        self._attach_r_part(r_part, join_value, touched)

    def _attach_r_part(self, r_part: Dict[str, object], join_value: object,
                       touched: Touched) -> None:
        rows = self._rows_with_join(join_value)
        seen_skeys = set()
        matched = False
        for row in list(rows):
            if null_flag(row, "r_null"):
                # Unmatched S record: fill in the R part.
                self.t.update_rowid(row.rowid, r_part)
                row.meta = None
                self._touch_row(touched, self.t, row)
                matched = True
            elif not null_flag(row, "s_null"):
                s_key = self._skey_of(row.values)
                if s_key in seen_skeys:
                    continue
                seen_skeys.add(s_key)
                new_values = dict(r_part)
                new_values.update(self.spec.s_part_of_t(row.values))
                self._touch_row(touched, self.t, self._insert_t(new_values))
                matched = True
        if not matched:
            new_values = dict(r_part)
            new_values.update(self.spec.null_s_part())
            self._touch_row(touched, self.t,
                            self._insert_t(new_values, "s_null"))

    def _delete_r(self, key: Tuple,
                  touched: Touched) -> None:
        """Delete every row the R record contributed to; keep a placeholder
        for each S record that would otherwise vanish from the join."""
        rows = self._rows_with_rkey(key)
        for row in list(rows):
            if null_flag(row, "s_null"):
                self._touch_row(touched, self.t, row)
                self.t.delete_rowid(row.rowid)
                continue
            s_key = self._skey_of(row.values)
            carriers = [r for r in self._rows_with_skey(s_key)
                        if not null_flag(r, "r_null") and r.rowid != row.rowid]
            join_value = row.values.get(self.spec.join_column)
            s_part = self.spec.s_part_of_t(row.values)
            self._touch_row(touched, self.t, row)
            self.t.delete_rowid(row.rowid)
            if not carriers:
                placeholder = self.spec.null_r_part()
                placeholder[self.spec.join_column] = join_value
                placeholder.update(s_part)
                self._touch_row(touched, self.t,
                                self._insert_t(placeholder, "r_null"))

    def _rule_delete_r(self, change: DeleteRecord, _lsn: int,
                       touched: Touched) -> None:
        self._delete_r(change.key, touched)

    def _update_r(self, change: UpdateRecord, _lsn: int,
                  touched: Touched) -> None:
        if moves_join(change, self.spec.join_attr_r):
            self._update_r_join(change, touched)
        else:
            self._update_r_other(change, touched)

    def _update_r_join(self, change: UpdateRecord,
                       touched: Touched) -> None:
        """Per the sketch: delete all T rows the R record contributed to
        (ensuring the continued existence of their S counterparts), then
        insert the new join matches."""
        rows = self._rows_with_rkey(change.key)
        if not rows:
            return
        old_join = change.old_values.get(self.spec.join_attr_r)
        if rows[0].values.get(self.spec.join_column) != old_join:
            return  # newer state already reflected
        new_r_part = self.spec.r_part_of_t(rows[0].values)
        new_r_part.update(side_changes(change.changes, self._r_attr_set))
        self._delete_r(change.key, touched)
        self._attach_r_part(new_r_part,
                            change.changes[self.spec.join_attr_r], touched)

    def _update_r_other(self, change: UpdateRecord,
                        touched: Touched) -> None:
        r_changes = side_changes(change.changes, self._r_attr_set)
        for row in self._rows_with_rkey(change.key):
            if r_changes:
                self.t.update_rowid(row.rowid, r_changes)
            self._touch_row(touched, self.t, row)

    # -- S side (mirror image) ------------------------------------------------------

    def _insert_s(self, change: InsertRecord, _lsn: int,
                  touched: Touched) -> None:
        values = change.values
        s_key = self._skey_of(values)
        if self._rows_with_skey(s_key):
            return
        join_value = values.get(self.spec.join_attr_s)
        s_part = self.spec.s_part(values)
        self._attach_s_part(s_part, join_value, touched)

    def _attach_s_part(self, s_part: Dict[str, object], join_value: object,
                       touched: Touched) -> None:
        rows = self._rows_with_join(join_value)
        seen_rkeys = set()
        matched = False
        for row in list(rows):
            if null_flag(row, "s_null"):
                self.t.update_rowid(row.rowid, s_part)
                row.meta = None
                self._touch_row(touched, self.t, row)
                matched = True
            elif not null_flag(row, "r_null"):
                r_key = self._rkey_of(row.values)
                if r_key in seen_rkeys:
                    continue
                seen_rkeys.add(r_key)
                new_values = self.spec.r_part_of_t(row.values)
                new_values.update(s_part)
                self._touch_row(touched, self.t, self._insert_t(new_values))
                matched = True
        if not matched:
            new_values = self.spec.null_r_part()
            if join_value is not None:
                new_values[self.spec.join_column] = join_value
            new_values.update(s_part)
            self._touch_row(touched, self.t,
                            self._insert_t(new_values, "r_null"))

    def _delete_s(self, key: Tuple,
                  touched: Touched) -> None:
        rows = self._rows_with_skey(key)
        for row in list(rows):
            if null_flag(row, "r_null"):
                self._touch_row(touched, self.t, row)
                self.t.delete_rowid(row.rowid)
                continue
            r_key = self._rkey_of(row.values)
            carriers = [r for r in self._rows_with_rkey(r_key)
                        if not null_flag(r, "s_null") and r.rowid != row.rowid]
            r_part = self.spec.r_part_of_t(row.values)
            self._touch_row(touched, self.t, row)
            self.t.delete_rowid(row.rowid)
            if not carriers:
                placeholder = dict(r_part)
                placeholder.update(self.spec.null_s_part())
                self._touch_row(touched, self.t,
                                self._insert_t(placeholder, "s_null"))

    def _rule_delete_s(self, change: DeleteRecord, _lsn: int,
                       touched: Touched) -> None:
        self._delete_s(change.key, touched)

    def _update_s(self, change: UpdateRecord, _lsn: int,
                  touched: Touched) -> None:
        if moves_join(change, self.spec.join_attr_s):
            self._update_s_join(change, touched)
        else:
            self._update_s_other(change, touched)

    def _update_s_join(self, change: UpdateRecord,
                       touched: Touched) -> None:
        rows = self._rows_with_skey(change.key)
        if not rows:
            return
        old_join = change.old_values.get(self.spec.join_attr_s)
        if rows[0].values.get(self.spec.join_column) != old_join:
            return
        new_s_part = self.spec.s_part_of_t(rows[0].values)
        new_s_part.update(side_changes(change.changes, self._s_attr_set))
        self._delete_s(change.key, touched)
        self._attach_s_part(new_s_part,
                            change.changes[self.spec.join_attr_s], touched)

    def _update_s_other(self, change: UpdateRecord,
                        touched: Touched) -> None:
        s_changes = side_changes(change.changes, self._s_attr_set)
        for row in self._rows_with_skey(change.key):
            if s_changes:
                self.t.update_rowid(row.rowid, s_changes)
            self._touch_row(touched, self.t, row)

    # -- lock mapping -------------------------------------------------------------------

    def targets_of_source_lock(self, table_name: str,
                               key: Tuple) -> List[Tuple[Table, Tuple]]:
        if table_name == self.spec.r_name:
            rows = self._rows_with_rkey(key)
        elif table_name == self.spec.s_name:
            rows = self._rows_with_skey(key)
        else:
            return []
        return [(self.t, self.t.lock_key(row.values)) for row in rows]

    def sources_of_target_lock(self, table_name: str,
                               key: Tuple) -> List[Tuple[Table, Tuple]]:
        if table_name != self.t.name:
            return []
        catalog = self.db.catalog
        r_table = catalog.get_any(self.spec.r_name)
        s_table = catalog.get_any(self.spec.s_name)
        n_r = len(self.spec.r_key)
        r_key, s_key = tuple(key[:n_r]), tuple(key[n_r:])
        result: List[Tuple[Table, Tuple]] = []
        if all(part is not None for part in r_key):
            result.append((r_table, r_key))
        if s_key and all(part is not None for part in s_key):
            result.append((s_table, s_key))
        return result


class Many2ManyFojTransformation(FojTransformation):
    """Online full outer join with a non-unique join attribute.

    Identical four-step flow to :class:`FojTransformation`; only the target
    key (R-key + S-key), the extra R-key index and the propagation rules
    differ, per the Section 4.2 sketch.
    """

    kind = "foj_m2m"
    engine_class = Many2ManyFojRuleEngine
    supports_lazy = False

    def __init__(self, db: Database, spec: FojSpec, **kwargs) -> None:
        if not spec.many_to_many:
            raise TransformationError(
                "spec must be derived with many_to_many=True")
        # Past FojTransformation's one-to-many guard.
        Transformation.__init__(self, db, spec, **kwargs)

    @classmethod
    def target_tables(cls, db: Database, spec: FojSpec,
                      detached: bool = False) -> Dict[str, Table]:
        """T with its three lookup indexes (join, S-key, R-key)."""
        # Past FojTransformation's: no NULL lock keys, every index.
        tables = super(FojTransformation, cls).target_tables(db, spec,
                                                             detached)
        table = tables[spec.target_name]
        table.create_index(JOIN_INDEX, (spec.join_column,), unique=False)
        table.create_index(SKEY_INDEX, spec.s_key, unique=False)
        table.create_index(RKEY_INDEX, spec.r_key, unique=False)
        return tables
