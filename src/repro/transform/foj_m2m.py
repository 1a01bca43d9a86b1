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
placeholders.  So the sketched R-side rules are written once, over a
:class:`~repro.transform.foj.JoinSide`, and applied to R and, as its
mirror, to S; DESIGN.md notes the deviation.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Sequence, Tuple

from repro.common.errors import TransformationError
from repro.engine.database import Database
from repro.relational.spec import FojSpec
from repro.storage.index import value_tuples
from repro.storage.table import Table
from repro.transform.base import Image, Touched, Transformation
from repro.transform.foj import (JOIN_INDEX, RKEY_INDEX, SKEY_INDEX,
                                 NULL_FLAGS, JoinRuleEngine, JoinSide,
                                 meta_flag, moves_join, null_flag,
                                 side_changes)
from repro.wal.records import (NULL_LSN, DeleteRecord, InsertRecord,
                               UpdateRecord)


class Many2ManyFojRuleEngine(JoinRuleEngine):
    """Symmetric propagation rules for the many-to-many full outer join:
    one insert, one delete and one update rule, each taking the
    ``side`` whose record changed.  The LSN is ignored, as in every FOJ
    rule."""

    def __init__(self, db: Database, spec: FojSpec, target: Table) -> None:
        super().__init__(db, spec, target)
        self._rules = {
            (side.name, kind): partial(rule, side)
            for side in (self.r_side, self.s_side)
            for kind, rule in ((InsertRecord, self._insert),
                               (DeleteRecord, self._delete),
                               (UpdateRecord, self._update))}

    def _mirror(self, side: JoinSide) -> JoinSide:
        return self.s_side if side is self.r_side else self.r_side

    def _joined(self, part: Dict[str, object], other_part: Dict[str, object],
                join_value: object) -> Dict[str, object]:
        """A T row: two sides' parts at one join value."""
        values = dict(other_part)
        values.update(part)
        values[self.spec.join_column] = join_value
        return values

    def _insert(self, side: JoinSide, change: InsertRecord, _lsn: int,
                touched: Touched) -> None:
        """"A t^{yv}_z record has to be inserted for every matching record
        s^v_x" -- unless a row carries the record already (Theorem 1)."""
        self._place(side, change.table, change.values, tuple(change.key),
                    touched)

    def _place(self, side: JoinSide, table_name: str,
               values: Dict[str, object], key: Tuple,
               touched: Touched) -> None:
        """The insert rule on one record: :meth:`migrate_rows` of its
        image; the rows carrying it are what the rule touched."""
        self.migrate_rows(table_name, ((values, NULL_LSN),))
        if touched is not None:
            t = self.t
            touched.extend((t, t.lock_key(row.values))
                           for row in t.lookup(side.index, key))

    def migrate_rows(self, table_name: str, images: Sequence[Image]) -> None:
        """The insert rule for a chunk, one join value at a time (the
        LSNs are ignored), as one all-or-nothing store.  A record T
        carries already is skipped.  At each value (:meth:`_at_join`)
        the first new record fills the mirror's placeholders, each pairs
        once with every mirror record joined there (the rest also with
        the filled ones), or, with no mirror record there, each joins
        the mirror's NULL record."""
        side = self._side(table_name)
        if side is None:
            return
        other, t = self._mirror(side), self.t
        rows, side_index = t.rows, t.index(side.index)
        by_join: Dict[object, List[Dict[str, object]]] = {}
        for values, _lsn in images:
            if not side_index.contains(tuple(values.get(a) for a in side.key)):
                by_join.setdefault(values.get(side.join_attr), []).append(
                    side.part(values))
        fills: List[Tuple[int, Dict[str, object]]] = []
        joined: List[Dict[str, object]] = []
        lone: List[Dict[str, object]] = []
        for join_value, parts in by_join.items():
            placeholders, mirrors = self._at_join(side, join_value)
            if not placeholders and not mirrors:
                lone += [self._joined(part, other.null_part(), join_value)
                         for part in parts]
                continue
            matched = [other.part_of_t(rows[rowid]) for rowid in mirrors]
            if placeholders:
                fills += [(rowid, parts[0]) for rowid in placeholders]
                joined += [self._joined(parts[0], mirror, join_value)
                           for mirror in matched]
                matched += [other.part_of_t(rows[rowid])
                            for rowid in placeholders]
                parts = parts[1:]
            joined += [self._joined(part, mirror, join_value)
                       for part in parts for mirror in matched]
        names = t.schema.attribute_names
        filled: List[int] = []
        try:
            for rowid, part in fills:
                t.update_rowid(rowid, part)
                filled.append(rowid)
                del t.metas[rowid]
            self._insert_chunk([
                (t, list(value_tuples(joined, names)),
                 [NULL_LSN] * len(joined), None),
                (t, list(value_tuples(lone, names)), [NULL_LSN] * len(lone),
                 [NULL_FLAGS[other.null]] * len(lone))])
        except BaseException:
            self._unfill(filled, side.null)
            raise

    def _at_join(self, side: JoinSide,
                 join_value: object) -> Tuple[List[int], List[int]]:
        """The mirror's placeholders at a join value, and one row of each
        mirror record joined there.  One row decides the shape
        ``check_invariants`` asserts -- none or a mirror-NULL row: none
        of either; a joined row: its record's mirror records, if the
        value's row count makes them a cross product.  A value holding
        placeholders, or rows of several shapes, is walked."""
        other, t = self._mirror(side), self.t
        rows, metas, join_index = t.rows, t.metas, t.index(JOIN_INDEX)
        rowid = join_index.lookup_any((join_value,))
        if rowid is None or meta_flag(metas.get(rowid), other.null):
            return [], []
        if not meta_flag(metas.get(rowid), side.null):
            values = rows[rowid]
            mirrors = t.index(side.index).lookup(
                tuple(values[a] for a in side.t_key))
            if len(mirrors) * t.index(other.index).count(
                    tuple(values[a] for a in other.t_key)) == \
                    join_index.count((join_value,)):
                return [], mirrors
        placeholders: List[int] = []
        mirrors_by_key: Dict[Tuple, int] = {}
        for rowid in join_index.lookup((join_value,)):
            meta = metas.get(rowid)
            if meta_flag(meta, side.null):
                placeholders.append(rowid)
            elif not meta_flag(meta, other.null):
                mirrors_by_key.setdefault(
                    tuple(rows[rowid][a] for a in other.t_key), rowid)
        return placeholders, list(mirrors_by_key.values())

    def _delete(self, side: JoinSide, change: DeleteRecord, _lsn: int,
                touched: Touched) -> None:
        self._detach(side, tuple(change.key), touched)

    def _detach(self, side: JoinSide, key: Tuple, touched: Touched) -> None:
        """Delete every row the record contributed to; keep a placeholder
        for each mirror record that would otherwise vanish from the join."""
        other, t = self._mirror(side), self.t
        for row in t.lookup(side.index, key):
            values, placeholder = row.values, None
            if not null_flag(row, other.null) and not any(
                    carrier.rowid != row.rowid
                    and not null_flag(carrier, side.null)
                    for carrier in t.lookup(other.index, tuple(
                        values.get(a) for a in other.t_key))):
                placeholder = self._joined(
                    other.part_of_t(values), side.null_part(),
                    values.get(self.spec.join_column))
            self._touch_row(touched, t, row)
            t.delete_rowid(row.rowid)
            if placeholder is not None:
                self._touch_row(touched, t,
                                self._insert_t(placeholder, side.null))

    def _update(self, side: JoinSide, change: UpdateRecord, _lsn: int,
                touched: Touched) -> None:
        """Per the sketch, an update of the join attribute deletes every
        row the record contributed to (keeping its mirror records) and
        attaches it at the new value -- unless the rows show a newer join
        value (Theorem 1).  Any other update changes those rows in place,
        all but the join attribute (a value it does not move is written
        again only over rows that have moved on since)."""
        t, key = self.t, tuple(change.key)
        rows = t.lookup(side.index, key)
        changes = side_changes(change.changes, side.attrs - {side.join_attr})
        if moves_join(change, side.join_attr):
            if rows and rows[0].values.get(self.spec.join_column) == \
                    change.old_values.get(side.join_attr):
                part = side.part_of_t(rows[0].values)
                part.update(changes)
                self._detach(side, key, touched)
                self._place(side, change.table, {
                    **part, side.join_attr: change.changes[side.join_attr]},
                    key, touched)
            return
        for row in rows:
            if changes:
                t.update_rowid(row.rowid, changes)
            self._touch_row(touched, t, row)

    # -- lock mapping (T -> sources: JoinRuleEngine's) -----------------------

    def targets_of_source_lock(self, table_name: str,
                               key: Tuple) -> List[Tuple[Table, Tuple]]:
        """Every T row the source record contributed to."""
        side, t = self._side(table_name), self.t
        if side is None:
            return []
        return [(t, t.lock_key(row.values))
                for row in t.lookup(side.index, tuple(key))]


class Many2ManyFojTransformation(Transformation):
    """Online full outer join with a non-unique join attribute.

    Identical four-step flow to :class:`FojTransformation`; only the target
    key (R-key + S-key), the extra R-key index and the propagation rules
    differ, per the Section 4.2 sketch.  Eager-only: its engine's chunks
    keep the migration law in any order (``tests/migrate_contract.py``),
    but no model run migrates them beside user access.
    """

    kind = "foj_m2m"
    spec_class = FojSpec
    engine_class = Many2ManyFojRuleEngine

    def __init__(self, db: Database, spec: FojSpec, **kwargs) -> None:
        if not spec.many_to_many:
            raise TransformationError(
                "spec must be derived with many_to_many=True")
        super().__init__(db, spec, **kwargs)

    @classmethod
    def target_tables(cls, db: Database, spec: FojSpec,
                      detached: bool = False) -> Dict[str, Table]:
        """T with its three lookup indexes (join, S-key, R-key); no NULL
        lock keys: every placeholder carries its own record's key."""
        tables = super().target_tables(db, spec, detached)
        table = tables[spec.target_name]
        table.create_index(JOIN_INDEX, (spec.join_column,), unique=False)
        table.create_index(SKEY_INDEX, spec.s_key, unique=False)
        table.create_index(RKEY_INDEX, spec.r_key, unique=False)
        return tables
