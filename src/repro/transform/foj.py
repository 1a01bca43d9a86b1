"""Full outer join transformation: Rules 1-7 of the paper (Section 4).

Transforms two source tables R and S into one table T by full outer join,
under the one-to-many assumption of Section 4 (the join attribute of S is
unique); the many-to-many variant lives in :mod:`repro.transform.foj_m2m`.

Because a T row is the join of two source rows, it has no single valid
state identifier, so the rules never consult LSNs (Section 4.2).  They are
idempotent and rely on Theorem 1: when the propagator processes a log
record, the corresponding T records are already in the same or a newer
state, so "record exists" / "join value matches" tests suffice to decide
whether the operation is already reflected.

NULL-record bookkeeping: a T row one side of which is the paper's
``rnull`` / ``snull`` record carries that side's flag in its metadata
(one shared read-only map per flag, :data:`NULL_FLAGS`); a joined row
carries no metadata at all.  Attribute values alone cannot distinguish a
NULL record from a record whose attributes are legitimately NULL.  The
flags are read through :func:`null_flag` (a row handle), :func:`meta_flag`
(a ``Table.metas`` entry) or, in loops over many rows, off the map.

Constraint honoured throughout: the join attribute of S must be non-NULL
(it identifies an S record -- Section 4 treats it as a candidate-key-like
attribute).  R rows may have NULL join values; they never match and are
joined with ``snull``.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import (AbstractSet, Callable, Dict, FrozenSet, List, Mapping,
                    NamedTuple, Optional, Sequence, Tuple)

from repro.common.errors import TransformationError
from repro.engine.database import Database
from repro.relational.spec import FojSpec
from repro.storage.row import Row
from repro.storage.index import value_tuples
from repro.storage.table import PRIMARY_INDEX, Table
from repro.transform.base import Image, RuleEngine, Touched, Transformation
from repro.wal.records import (
    NULL_LSN,
    DeleteRecord,
    InsertRecord,
    LogRecord,
    UpdateRecord,
)

#: Name of T's index over the join column (Section 4.1: "an index should be
#: created on the join attributes of T").
JOIN_INDEX = "__join__"
#: Name of T's index over S's identifying attributes (created when they are
#: not simply the join column).
SKEY_INDEX = "__skey__"
#: Name of T's non-unique index over R's identifying attributes (the
#: many-to-many join's: there T's primary key is the R-key + S-key).
RKEY_INDEX = "__rkey__"
#: A NULL record's flag map, by flag: shared by every row it marks (rules
#: replace or drop a row's map, never edit it).
NULL_FLAGS: Dict[str, Mapping[str, bool]] = {
    flag: MappingProxyType({flag: True}) for flag in ("r_null", "s_null")}


def null_flag(row: Row, flag: str) -> bool:
    """Whether ``flag`` (``"r_null"`` / ``"s_null"``) is set on a T row."""
    return meta_flag(row.meta, flag)


def meta_flag(meta: Optional[Dict[str, object]], flag: str) -> bool:
    """:func:`null_flag` of a row's entry in ``Table.metas`` (``None`` for
    a row without one)."""
    return meta is not None and meta.get(flag, False)


def side_changes(changes: Dict[str, object],
                 attrs: AbstractSet[str]) -> Dict[str, object]:
    """The part of an update's ``changes`` on one side's ``attrs``: the
    record's own dict when all of it belongs there (callers only read
    it), else a filtered copy."""
    if attrs.issuperset(changes):
        return changes
    return {k: v for k, v in changes.items() if k in attrs}


def moves_join(change: UpdateRecord, join_attr: str) -> bool:
    """Whether an update changes the value of the join attribute."""
    return join_attr in change.changes and \
        change.changes[join_attr] != change.old_values.get(join_attr)


class JoinSide(NamedTuple):
    """One source of the join as the rules see it: R, or its mirror S.

    ``part`` projects a source row, ``part_of_t`` a T row, onto the
    side's T columns; ``null_part`` is its NULL record (``rnull`` /
    ``snull``), and a T row whose side is that record carries the
    ``null`` flag.
    """

    name: str
    join_attr: str
    key: Tuple[str, ...]
    t_key: Tuple[str, ...]
    index: str
    null: str
    attrs: FrozenSet[str]
    part: Callable[[Dict[str, object]], Dict[str, object]]
    part_of_t: Callable[[Dict[str, object]], Dict[str, object]]
    null_part: Callable[[], Dict[str, object]]


class JoinRuleEngine(RuleEngine):
    """What the one-to-many and the many-to-many FOJ rules share: the
    target ``t``, the two sides and the helpers over them."""

    def __init__(self, db: Database, spec: FojSpec, target: Table) -> None:
        super().__init__(db, spec)
        self.t = target
        indexes = target.indexes
        self.r_side = JoinSide(
            spec.r_name, spec.join_attr_r, spec.r_key, spec.r_key,
            RKEY_INDEX if RKEY_INDEX in indexes else PRIMARY_INDEX,
            "r_null", frozenset(spec.r_attrs),
            spec.r_part, spec.r_part_of_t, spec.null_r_part)
        self.s_side = JoinSide(
            spec.s_name, spec.join_attr_s,
            tuple(spec.join_attr_s if a == spec.join_column else a
                  for a in spec.s_key), spec.s_key,
            SKEY_INDEX if SKEY_INDEX in indexes else JOIN_INDEX,
            "s_null", frozenset(spec.s_attrs),
            spec.s_part, spec.s_part_of_t, spec.null_s_part)

    def _side(self, table_name: str) -> Optional[JoinSide]:
        """The side whose source records ``table_name`` holds -- by
        position: :meth:`rename_source` renames a source in place."""
        r_name, s_name = self.source_tables
        if table_name == r_name:
            return self.r_side
        if table_name == s_name:
            return self.s_side
        return None

    def _rows_with_join(self, value: object) -> List[Row]:
        """All T rows whose join column holds ``value`` (none for NULL)."""
        return self.t.lookup(JOIN_INDEX, (value,))

    def _insert_t(self, values: Dict[str, object],
                  null_side: Optional[str] = None) -> Row:
        return self.t.insert_row(
            values, meta=NULL_FLAGS[null_side] if null_side else None)

    def _unfill(self, filled: List[int], flag: str) -> None:
        """Take back a chunk's fills of ``flag``'s NULL records, last
        first: the filled side's columns -- all but the join column --
        go back to NULL, and the flag to the row."""
        spec, t = self.spec, self.t
        attrs = spec.r_attrs if flag == "r_null" else spec.s_attrs
        blank = {a: None for a in attrs if a != spec.join_column}
        for rowid in reversed(filled):
            t.update_rowid(rowid, blank)
            t.metas[rowid] = NULL_FLAGS[flag]

    def check_invariants(self) -> List[str]:
        """The join-value shape the chunk paths read off one row: the
        rows at a (non-NULL) join value are one side's records each
        joined with the mirror's NULL record, or the two sides' records'
        cross product."""
        t, join_column = self.t, self.spec.join_column
        groups: Dict[object, List[int]] = {}
        for rowid, values in t.rows.items():
            if values[join_column] is not None:
                groups.setdefault(values[join_column], []).append(rowid)
        violations: List[str] = []
        for join_value, rowids in groups.items():
            kinds = {"r_null" if meta_flag(meta, "r_null") else
                     "s_null" if meta_flag(meta, "s_null") else "joined"
                     for meta in map(t.metas.get, rowids)}
            if len(kinds) > 1:
                shape = f"mixes {sorted(kinds)} rows"
            elif kinds == {"joined"}:
                r, s = (len({tuple(t.rows[rowid][a] for a in side.t_key)
                             for rowid in rowids})
                        for side in (self.r_side, self.s_side))
                if r * s == len(rowids):
                    continue
                shape = f"joins {r} R x {s} S records in {len(rowids)} rows"
            else:
                continue
            violations.append(f"{t.name} join value {join_value!r} {shape}")
        return violations

    def sources_of_target_lock(self, table_name: str,
                               key: Tuple) -> List[Tuple[Table, Tuple]]:
        """The source records of the T row a lock key names (Section
        4.3): each side's key, read by attribute name off the row -- or,
        for a row not (yet) there, off the lock key's named parts --
        unless that side is the row's NULL record or its key is NULL."""
        t = self.t
        if table_name != t.name:
            return []
        key = tuple(key)
        named = dict(zip(t.schema.primary_key + t.null_key_attrs, key))
        if None not in key:
            row = t.get(key)
        else:  # no unique index holds a NULL key: look at the join value
            row = next((r for r in self._rows_with_join(
                named.get(self.spec.join_column))
                if t.lock_key(r.values) == key), None)
        values = named if row is None else row.values
        result: List[Tuple[Table, Tuple]] = []
        for name, side in zip(self.source_tables, (self.r_side, self.s_side)):
            if row is not None and null_flag(row, side.null):
                continue
            source_key = tuple(values.get(a) for a in side.t_key)
            if None not in source_key:
                result.append((self.db.catalog.get_any(name), source_key))
        return result


class FojRuleEngine(JoinRuleEngine):
    """Log-propagation rules 1-7 for a one-to-many full outer join."""

    def __init__(self, db: Database, spec: FojSpec, target: Table) -> None:
        super().__init__(db, spec, target)
        self._join_index = target.index(JOIN_INDEX)
        self._skey_index = target.index(self.s_side.index)
        self._rules = {
            (spec.r_name, InsertRecord): self._rule1_insert_r,
            (spec.r_name, DeleteRecord): self._rule3_delete_r,
            (spec.r_name, UpdateRecord): self._rules5_7_update,
            (spec.s_name, InsertRecord): self._rule2_insert_s,
            (spec.s_name, DeleteRecord): self._rule4_delete_s,
            (spec.s_name, UpdateRecord): self._rules5_7_update,
        }

    # -- helpers -----------------------------------------------------------

    def _carriers(self, key: Tuple) -> List[int]:
        """Rowids of the T rows containing the S record identified by
        ``key``.

        ``key`` is ordered like S's primary key; rows whose S side is the
        NULL record are never returned.
        """
        metas = self.t.metas
        return [rowid for rowid in self._skey_index.lookup(key)
                if not meta_flag(metas.get(rowid), "s_null")]

    def _touch_rowid(self, touched: Touched, rowid: int) -> None:
        """:meth:`_touch_row` for a T row known by rowid."""
        if touched is not None:
            t = self.t
            touched.append((t, t.lock_key(t.rows[rowid])))

    def _t_null(self, join_value: object,
                s_part: Dict[str, object]) -> Dict[str, object]:
        """The values of ``t^null_x``: an S part joined with rnull."""
        return {**self.spec.null_r_part(), self.spec.join_column: join_value,
                **s_part}

    def _insert_t_null(self, join_value: object, s_part: Dict[str, object],
                       touched: Touched) -> None:
        self._touch_row(touched, self.t, self._insert_t(
            self._t_null(join_value, s_part), "r_null"))

    # -- sharding (repro.shard) ---------------------------------------------

    def shard_route(self, change: LogRecord):
        """R-table records are routed by R's primary key; S-table records
        are unrouted (charged serially).

        Every T row carrying R key ``a`` is written only by rules applied
        to ``a``'s own log records, so routing by R key gives each shard
        an ordered per-key history; the shared auxiliaries (``t^null_x``
        rows, the copied S parts) are maintained state-drivenly and
        converge under cross-key interleaving.  An S-table record, by
        contrast, fans out to all carrier rows of its join value -- rows
        owned by many shards -- so no single shard account owns it.
        """
        if change.table == self.spec.r_name:
            return tuple(change.key)
        return None

    # -- dispatch -----------------------------------------------------------

    # The framework's dispatch over ``_rules``, bound in this class body
    # (as ``apply_run`` is defined in it) because per-engine
    # instrumentation patches these names through ``vars(cls)``.  The
    # ``lsn`` is ignored by every FOJ rule: a joined row has no single
    # valid state identifier (Section 4.2).
    apply = RuleEngine.apply

    def apply_run(self, table_name: str, kind: type,
                  items: Sequence[Tuple[LogRecord, int, int]]
                  ) -> List[Sequence[Tuple[Table, Tuple]]]:
        """:meth:`RuleEngine.apply_run`, with a run of updates (Rules 5-7)
        applied by :meth:`_update_run`'s one loop."""
        if kind is UpdateRecord:
            return self._update_run(table_name, items)
        return RuleEngine.apply_run(self, table_name, kind, items)

    def _rules5_7_update(self, change: UpdateRecord, lsn: int,
                         touched: Touched) -> None:
        """One update (:meth:`apply`'s path) through :meth:`_update_run`."""
        [found] = self._update_run(
            change.table, ((change, lsn, int(touched is not None)),))
        if touched is not None:
            touched.extend(found)

    def _update_run(self, table_name: str,
                    items: Sequence[Tuple[LogRecord, int, int]]
                    ) -> List[Sequence[Tuple[Table, Tuple]]]:
        """Apply a run of one source's updates, as :meth:`apply_run`
        specifies.  An update that changes the join attribute moves the
        row (Rule 5 for R) or re-attaches the S record (Rule 6 for S);
        any other one is Rule 7, inlined here: the R row found by T's
        primary key, or every carrier of the S record found through the
        S-key index and the metadata map, updated in place by rowid --
        all but the join attribute: a value it does not move is written
        again only over a row T has moved on since (Theorem 1), which
        would detach the row from its join partners."""
        side, t = self._side(table_name), self.t
        if side is None:
            return [[] for _ in items]
        join_attr, index = side.join_attr, t.index(side.index)
        attrs = side.attrs - {join_attr}
        if side is self.r_side:
            move, skip_null = self._rule5_update_r_join, None
        else:  # the carriers at S's key include its snull rows
            move, skip_null = self._rule6_update_s_join, side.null
        rows, metas = t.rows, t.metas
        update, lock_key = t.update_rowid, t.lock_key
        out: List[Sequence[Tuple[Table, Tuple]]] = []
        for change, _lsn, owner in items:
            touched: Touched = [] if owner else None
            if moves_join(change, join_attr):
                move(change, touched)
            else:
                changes = side_changes(change.changes, attrs)
                for rowid in index.lookup(change.key):
                    if skip_null and rowid in metas and \
                            metas[rowid].get(skip_null, False):
                        continue
                    if changes:
                        update(rowid, changes)
                    if touched is not None:
                        touched.append((t, lock_key(rows[rowid])))
            out.append(() if touched is None else touched)
        return out

    # -- Rule 1 (Insert r^y_x into R) ------------------------------------------

    def _rule1_insert_r(self, change: InsertRecord, _lsn: int,
                        touched: Touched) -> None:
        """If t^y exists, ignore (Theorem 1).  Otherwise join the new R row
        with the S part found through the join index: morph ``t^null_x``,
        clone the S part of a ``t^v_x``, or fall back to ``snull``."""
        if self.t.get(change.key) is not None:
            return
        r_part = self.spec.r_part(change.values)
        join_value = change.values.get(self.spec.join_attr_r)
        self._attach_r_part(r_part, join_value, touched)

    def _attach_r_part(self, r_part: Dict[str, object], join_value: object,
                       touched: Touched) -> None:
        """Shared tail of Rules 1 and 5: place an R part at a join value."""
        rows = self._rows_with_join(join_value)
        null_r_row = next((r for r in rows if null_flag(r, "r_null")), None)
        if null_r_row is not None:
            # t^null_x found: "it is updated with the attribute values of
            # r^y_x to form t^y_x".
            self.t.update_rowid(null_r_row.rowid, r_part)
            null_r_row.meta = None
            self._touch_row(touched, self.t, null_r_row)
            return
        donor = next((r for r in rows if not null_flag(r, "s_null")), None)
        if donor is not None:
            # t^v_x found: join the new R part with the s^x part of t^v_x.
            values = dict(r_part)
            values.update(self.spec.s_part_of_t(donor.values))
            self._touch_row(touched, self.t, self._insert_t(values))
            return
        # No S record with this join value: join with snull.
        values = dict(r_part)
        values.update(self.spec.null_s_part())
        self._touch_row(touched, self.t, self._insert_t(values, "s_null"))

    # -- Rule 2 (Insert s^x into S) ------------------------------------------------

    def _rule2_insert_s(self, change: InsertRecord, _lsn: int,
                        touched: Touched) -> None:
        """Update every t joined with snull at this join value; records
        already joined with a real S record are up to date (Theorem 1).
        Insert ``t^null_x`` if nothing carries the join value."""
        join_value = change.values.get(self.spec.join_attr_s)
        if join_value is None:
            raise TransformationError(
                "FOJ transformation requires non-NULL join values in "
                f"{self.spec.s_name!r} (the join attribute identifies an "
                "S record)")
        s_part = self.spec.s_part(change.values)
        if not self._fill_s_part(s_part, join_value, touched):
            self._insert_t_null(join_value, s_part, touched)

    def _fill_s_part(self, s_part: Dict[str, object], join_value: object,
                     touched: Touched,
                     filled: Optional[List[int]] = None) -> bool:
        """Shared head of Rules 2 and 6 (and an S chunk's, noting its
        fills in ``filled``): put an S part into every snull carrier of
        the join value; whether any row carries it (none carries NULL)."""
        t, metas = self.t, self.t.metas
        rowids = self._join_index.lookup((join_value,))
        for rowid in rowids:
            if rowid in metas and metas[rowid].get("s_null", False):
                t.update_rowid(rowid, s_part)
                if filled is not None:
                    filled.append(rowid)
                del metas[rowid]
                if touched is not None:
                    self._touch_rowid(touched, rowid)
        return bool(rowids)

    # -- Rule 3 (Delete r^y from R) ---------------------------------------------------

    def _rule3_delete_r(self, change: DeleteRecord, _lsn: int,
                        touched: Touched) -> None:
        """Delete t^y; if it was the only carrier of its S record, leave a
        ``t^null_x`` behind so the full outer join keeps the S side."""
        row = self.t.get(change.key)
        if row is None:
            return
        if null_flag(row, "s_null"):
            self._touch_row(touched, self.t, row)
            self.t.delete_rowid(row.rowid)
            return
        join_value = row.values.get(self.spec.join_column)
        s_part = self.spec.s_part_of_t(row.values)
        others = [
            r for r in self._rows_with_join(join_value)
            if not null_flag(r, "s_null") and r.rowid != row.rowid
        ]
        self._touch_row(touched, self.t, row)
        self.t.delete_rowid(row.rowid)
        if not others:
            self._insert_t_null(join_value, s_part, touched)

    # -- Rule 4 (Delete s^x from S) -------------------------------------------------------

    def _rule4_delete_s(self, change: DeleteRecord, _lsn: int,
                        touched: Touched) -> None:
        """Delete ``t^null_x`` if present; strip the S side of every other
        carrier (they survive joined with snull)."""
        self._detach_s(self._carriers(change.key), touched)

    def _detach_s(self, carriers: List[int], touched: Touched) -> None:
        """Shared head of Rules 4 and 6: delete the carrier that is
        ``t^null_x``, join every other one with snull."""
        t = self.t
        metas = t.metas
        for rowid in carriers:
            if meta_flag(metas.get(rowid), "r_null"):
                self._touch_rowid(touched, rowid)
                t.delete_rowid(rowid)
            else:
                t.update_rowid(rowid, self.spec.null_s_part())
                metas[rowid] = NULL_FLAGS["s_null"]
                self._touch_rowid(touched, rowid)

    # -- Rule 5 (Update join attribute of r^y_x to z) -----------------------------------------

    def _rule5_update_r_join(self, change: UpdateRecord,
                             touched: Touched) -> None:
        """Move t^y from join value x to z, preserving s^x if t^y was its
        only carrier, and attaching the R part at z as in Rule 1.

        The row moves only when its current join value equals the
        operation's before-image x; otherwise the move is already
        reflected (Theorem 1), and the record's other R attributes are
        applied in place as Rule 7 applies them: an earlier replayed
        update may have written older values over the fuzzy read's.
        """
        spec, t = self.spec, self.t
        rowid = t.rowid_of(change.key)
        if rowid is None:
            return
        values, metas = t.rows[rowid], t.metas
        old_join = change.old_values.get(spec.join_attr_r)
        if values.get(spec.join_column) != old_join:
            rest = {k: v for k, v in change.changes.items()
                    if k in self.r_side.attrs and k != spec.join_attr_r}
            if rest:
                t.update_rowid(rowid, rest)
            self._touch_rowid(touched, rowid)
            return
        new_r_part = spec.r_part_of_t(values)
        new_r_part.update(side_changes(change.changes, self.r_side.attrs))
        new_join = change.changes[spec.join_attr_r]

        if not meta_flag(metas.get(rowid), "s_null"):
            s_part = spec.s_part_of_t(values)
            others = old_join is not None and any(
                other != rowid and not meta_flag(metas.get(other), "s_null")
                for other in self._join_index.lookup((old_join,)))
            if not others:
                self._insert_t_null(old_join, s_part, touched)
        self._touch_rowid(touched, rowid)
        t.delete_rowid(rowid)
        self._attach_r_part(new_r_part, new_join, touched)

    # -- Rule 6 (Update join attribute of s^x to z) -----------------------------------------------

    def _rule6_update_s_join(self, change: UpdateRecord,
                             touched: Touched) -> None:
        """Detach s from its carriers at x (delete ``t^null_x``, null the S
        side of the rest), then attach it at z (fill snull carriers, or
        insert ``t^null_z``).  The S attribute values not present in the log
        record are extracted from a carrier row, as the paper prescribes."""
        spec, t = self.spec, self.t
        carriers = self._carriers(change.key)
        if not carriers:
            return  # nothing carries s^x: newer state (Theorem 1)
        new_s_part = spec.s_part_of_t(t.rows[carriers[0]])
        new_s_part.update(side_changes(change.changes, self.s_side.attrs))
        new_join = change.changes[spec.join_attr_s]
        if new_join is None:
            raise TransformationError(
                "FOJ transformation requires non-NULL join values in "
                f"{spec.s_name!r}")
        self._detach_s(carriers, touched)
        if not self._fill_s_part(new_s_part, new_join, touched):
            self._insert_t_null(new_join, new_s_part, touched)

    # -- population (every mode, and restart rebuild) -------------------------

    def migrate_rows(self, table_name: str, images: Sequence[Image]) -> None:
        """Place a chunk of images in T as Rules 1 and 2 place inserted
        records (the LSNs are ignored), so log replay converges whatever
        order chunks come in (Theorem 1): an R chunk through
        :meth:`_migrate_r`; an S chunk fills snull carriers in place,
        then inserts ``t^null_x`` rows with one ``insert_rows`` (a
        NULL-join S row, refused live, gets one too, unless the S-key
        index finds it there).  A raise takes the morphs and fills back.
        """
        side = self._side(table_name)
        sources = [values for values, _lsn in images]
        filled: List[int] = []
        try:
            if side is self.r_side:
                self._migrate_r(sources, filled)
            elif side is self.s_side:
                self._migrate_s(sources, filled)
        except BaseException:
            self._unfill(filled, side.null)
            raise

    def _migrate_r(self, sources: List[Dict[str, object]],
                   filled: List[int]) -> None:
        """Rule 1 for a chunk of R images.  One row per distinct join
        value decides -- the rules keep a value's rows all snull, all
        joined with its one S record, or a lone ``t^null_x``
        (:meth:`JoinRuleEngine.check_invariants` asserts it).  The
        first image at a ``t^null_x`` that T lacks morphs it; the rest go
        in joined with the value's S part (else snull) through one
        :meth:`Table.insert_rows`, which skips an R key T holds."""
        spec, t = self.spec, self.t
        rows, metas, probe = t.rows, t.metas, self._join_index.lookup_any
        joins = [values.get(spec.join_attr_r) for values in sources]
        s_parts: Dict[object, Tuple] = {}  # join value -> its S part
        t_nulls: Dict[object, int] = {}  # join value -> t^null_x's rowid
        for join_value in set(joins):
            rowid = probe((join_value,))
            meta = None if rowid is None else metas.get(rowid, {})
            if meta is None or meta.get("s_null", False):
                continue
            s_parts[join_value] = tuple(rows[rowid][a] for a in spec.s_attrs)
            if meta.get("r_null", False):
                t_nulls[join_value] = rowid
        if t_nulls:
            # "it is updated with the attribute values of r^y_x to form
            # t^y_x"; the rest at x copy its S part.
            morphed = set()
            for i, (values, join_value) in enumerate(zip(sources, joins)):
                rowid = t_nulls.get(join_value)
                if rowid is not None and t.rowid_of(
                        tuple(values[a] for a in spec.r_key)) is None:
                    t.update_rowid(rowid, spec.r_part(values))
                    filled.append(rowid)
                    del metas[rowid], t_nulls[join_value]
                    morphed.add(i)
            sources = [values for i, values in enumerate(sources)
                       if i not in morphed]
            joins = [join_value for i, join_value in enumerate(joins)
                     if i not in morphed]
        if not sources:
            return
        snull = (None,) * len(spec.s_attrs)
        rowids = t.insert_rows(
            [r_part + s_parts.get(join_value, snull) for r_part, join_value
             in zip(value_tuples(sources, spec.r_attrs), joins)],
            [NULL_LSN] * len(sources))
        metas.update(dict.fromkeys(
            [rowid for rowid, join_value in zip(rowids, joins)
             if rowid is not None and join_value not in s_parts],
            NULL_FLAGS["s_null"]))

    def _migrate_s(self, sources: List[Dict[str, object]],
                   filled: List[int]) -> None:
        spec, t, key = self.spec, self.t, self.s_side.key
        t_nulls: List[Dict[str, object]] = []
        placed = set()
        for values in sources:
            join_value = values.get(spec.join_attr_s)
            s_part = spec.s_part(values)
            if join_value is None:
                if self._skey_index.contains(
                        tuple(values.get(a) for a in key)):
                    continue
            elif join_value in placed or \
                    self._fill_s_part(s_part, join_value, None, filled):
                continue
            placed.add(join_value)
            t_nulls.append(self._t_null(join_value, s_part))
        if t_nulls:
            t.insert_rows(
                list(value_tuples(t_nulls, t.schema.attribute_names)),
                [NULL_LSN] * len(t_nulls),
                [NULL_FLAGS["r_null"]] * len(t_nulls))

    # Bound here: per-engine instrumentation patches it via ``vars(cls)``.
    migrate_row = RuleEngine.migrate_row

    def migration_partners(self, table_name: str,
                           values: Dict[str, object]
                           ) -> List[Tuple[str, Tuple]]:
        """The S record joined with a just-missed R record.

        Only resolvable when S is identified by its join attribute (the
        common case); otherwise the sweeper or log propagation converges
        the S side and the R record meanwhile reads as joined-with-snull,
        a legal intermediate the eager scan produces too.
        """
        spec = self.spec
        if table_name != spec.r_name:
            return []
        if tuple(spec.s_key) != (spec.join_column,):
            return []  # S's key in T is not the join column itself
        join_value = values.get(spec.join_attr_r)
        if join_value is None:
            return []
        return [(spec.s_name, (join_value,))]

    # -- lock mapping (synchronization support) ------------------------------------

    def targets_of_source_lock(self, table_name: str,
                               key: Tuple) -> List[Tuple[Table, Tuple]]:
        """R record y locks T row y, there yet or not; S record x every
        row carrying it."""
        side, t = self._side(table_name), self.t
        if side is self.r_side:
            return [(t, tuple(key))]
        if side is self.s_side:
            return [(t, t.lock_key(t.rows[rowid]))
                    for rowid in self._carriers(key)]
        return []


class FojTransformation(Transformation):
    """Online, non-blocking full outer join of two tables (Section 4).

    Example::

        spec = FojSpec.derive(db.table("R").schema, db.table("S").schema,
                              target_name="T", join_attr_r="c",
                              join_attr_s="c")
        tf = FojTransformation(db, spec)
        tf.run()          # or drive tf.step(budget) as a background process

    Args:
        db: The database.
        spec: The join specification (see :class:`FojSpec.derive`).
        **kwargs: Forwarded to :class:`Transformation` (``options``).
    """

    kind = "foj"
    spec_class = FojSpec
    engine_class = FojRuleEngine
    supports_lazy = True

    def __init__(self, db: Database, spec: FojSpec, **kwargs) -> None:
        if spec.many_to_many:
            raise TransformationError(
                "use Many2ManyFojTransformation for many-to-many joins")
        super().__init__(db, spec, **kwargs)

    @classmethod
    def target_tables(cls, db: Database, spec: FojSpec,
                      detached: bool = False) -> Dict[str, Table]:
        """T with its rule-lookup indexes (join index + S-key index)."""
        tables = super().target_tables(db, spec, detached)
        table = tables[spec.target_name]
        table.null_key_attrs = (spec.join_column,)
        table.create_index(JOIN_INDEX, (spec.join_column,), unique=False)
        if tuple(spec.s_key) != (spec.join_column,):
            table.create_index(SKEY_INDEX, spec.s_key, unique=False)
        return tables
