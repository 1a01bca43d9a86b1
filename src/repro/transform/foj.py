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
(``{"r_null": True}`` or ``{"s_null": True}``); a joined row carries no
metadata at all.  Attribute values alone cannot distinguish a NULL record
from a record whose attributes are legitimately NULL.  The flags are read
through :func:`null_flag` (a row handle) or :func:`meta_flag` (a
``Table.metas`` entry) only.

Constraint honoured throughout: the join attribute of S must be non-NULL
(it identifies an S record -- Section 4 treats it as a candidate-key-like
attribute).  R rows may have NULL join values; they never match and are
joined with ``snull``.
"""

from __future__ import annotations

from typing import (AbstractSet, Callable, Dict, FrozenSet, List, NamedTuple,
                    Optional, Sequence, Tuple)

from repro.common.errors import TransformationError
from repro.engine.database import Database
from repro.relational.spec import FojSpec
from repro.storage.row import Row
from repro.storage.table import PRIMARY_INDEX, Table
from repro.transform.base import Image, RuleEngine, Touched, Transformation
from repro.transform.options import PER_ROW_MODES
from repro.wal.records import (
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


class FojHashJoin:
    """The streamed full outer hash join of two source scans into T.

    The FOJ's eager and blocking population, and its only copy: the
    online transformation steps it under its budget, restart's
    swap-point rebuild drives it to the end in one call.  It beats
    feeding the same chunks through :meth:`FojRuleEngine.migrate_rows`
    (which the per-row modes, claiming single rows or racing triggers,
    still do) because a build/probe pass makes no index lookups in T.

    Order: drain the S scan into a join-value hash, drain the R scan
    into a buffer, stream the buffer through the hash inserting joined
    rows, then insert ``t^null_x`` rows for unmatched S records.  One
    unit is one row scanned, or one R row or leftover S row placed.
    """

    def __init__(self, target: Table, spec: FojSpec, r_scan, s_scan) -> None:
        self.target = target
        self.spec = spec
        self.r_scan = r_scan
        self.s_scan = s_scan
        self._s_by_join: Dict[object, List[Dict[str, object]]] = {}
        self._matched_joins: set = set()
        self._r_buffer: List[Dict[str, object]] = []
        self._r_pos = 0
        self._leftover: Optional[List[Tuple[object, Dict[str, object]]]] = \
            None
        self._leftover_pos = 0

    def step(self, budget: int) -> Tuple[int, bool]:
        """Do up to ``budget`` units of the join; (units, finished)."""
        units = 0
        spec, target = self.spec, self.target
        s_scan = self.s_scan
        while units < budget and not s_scan.exhausted:
            for values, _lsn in s_scan.next_chunk(budget - units):
                self._s_by_join.setdefault(
                    values.get(spec.join_attr_s), []).append(values)
                units += 1
        if not s_scan.exhausted:
            return units, False

        r_scan = self.r_scan
        while units < budget and not r_scan.exhausted:
            for values, _lsn in r_scan.next_chunk(budget - units):
                self._r_buffer.append(values)
                units += 1
        if not r_scan.exhausted:
            return units, False

        while units < budget and self._r_pos < len(self._r_buffer):
            r = self._r_buffer[self._r_pos]
            self._r_pos += 1
            units += 1
            value = r.get(spec.join_attr_r)
            matches = self._s_by_join.get(value, []) \
                if value is not None else []
            if matches:
                self._matched_joins.add(value)
                for s in matches:
                    row = spec.r_part(r)
                    row.update(spec.s_part(s))
                    target.insert_row(row)
            else:
                row = spec.r_part(r)
                row.update(spec.null_s_part())
                target.insert_row(row, meta={"s_null": True})
        if self._r_pos < len(self._r_buffer):
            return units, False

        if self._leftover is None:
            self._leftover = [
                (value, s)
                for value, group in self._s_by_join.items()
                if value is None or value not in self._matched_joins
                for s in group
            ]
        while units < budget and self._leftover_pos < len(self._leftover):
            value, s = self._leftover[self._leftover_pos]
            self._leftover_pos += 1
            units += 1
            row = spec.null_r_part()
            row[spec.join_column] = value
            row.update(spec.s_part(s))
            target.insert_row(row, meta={"r_null": True})
        finished = self._leftover_pos >= len(self._leftover)
        if finished:
            # Free the population buffers.
            self._s_by_join = {}
            self._r_buffer = []
            self._leftover = []
        return units, finished


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
        if value is None:
            return []
        return self.t.lookup(JOIN_INDEX, (value,))

    def _insert_t(self, values: Dict[str, object],
                  null_side: Optional[str] = None) -> Row:
        return self.t.insert_row(
            values, meta={null_side: True} if null_side else None)

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
        S-key index and the metadata map, updated in place by rowid."""
        side, t = self._side(table_name), self.t
        if side is None:
            return [[] for _ in items]
        join_attr, attrs, index = side.join_attr, side.attrs, t.index(
            side.index)
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
        self._attach_s_part(self.spec.s_part(change.values), join_value,
                            touched)

    def _attach_s_part(self, s_part: Dict[str, object], join_value: object,
                       touched: Touched) -> None:
        """Shared tail of Rule 2 and lazy migration: fill every snull
        carrier of the join value; insert t^null_x when nothing carries
        it.  An already-attached S part leaves both branches idle; a
        NULL join value matches nothing and joins with rnull."""
        rows = self._rows_with_join(join_value)
        for row in rows:
            if null_flag(row, "s_null"):
                self.t.update_rowid(row.rowid, s_part)
                row.meta = None
                self._touch_row(touched, self.t, row)
        if not rows:
            values = self.spec.null_r_part()
            values[self.spec.join_column] = join_value
            values.update(s_part)
            self._touch_row(touched, self.t, self._insert_t(values, "r_null"))

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
            values = self.spec.null_r_part()
            values[self.spec.join_column] = join_value
            values.update(s_part)
            self._touch_row(touched, self.t, self._insert_t(values, "r_null"))

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
                metas[rowid] = {"s_null": True}
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
                t_null = spec.null_r_part()
                t_null[spec.join_column] = old_join
                t_null.update(s_part)
                self._touch_row(touched, t, self._insert_t(t_null, "r_null"))
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
        metas = t.metas
        filled = False
        has_real_s = False
        for rowid in self._join_index.lookup((new_join,)):
            if meta_flag(metas.get(rowid), "s_null"):
                t.update_rowid(rowid, new_s_part)
                del metas[rowid]
                self._touch_rowid(touched, rowid)
                filled = True
            else:
                has_real_s = True  # already joined with an s^z: unmodified
        if not filled and not has_real_s:
            values = spec.null_r_part()
            values[spec.join_column] = new_join
            values.update(new_s_part)
            self._touch_row(touched, t, self._insert_t(values, "r_null"))

    # -- lazy population (migrate-on-read) -----------------------------------

    def migrate_rows(self, table_name: str, images: Sequence[Image]) -> None:
        """Migrate source-row snapshots into T (lazy population; eager
        population streams :class:`FojHashJoin` instead).

        Reuses the state-driven tails of Rules 1 and 2, so a migrated
        record is indistinguishable from one the eager fuzzy scan would
        have produced: later log replay over it converges identically
        (Theorem 1).  The LSNs are ignored like everywhere else in the
        FOJ rules -- a joined row has no single valid state identifier.
        Pre-existing NULL-join S rows join with rnull, exactly as the
        eager join's leftover pass inserts them (Rule 2 itself rejects
        NULL joins for *live* inserts).
        """
        side = self._side(table_name)
        if side is None:
            return
        is_r = side is self.r_side
        attach = self._attach_r_part if is_r else self._attach_s_part
        for values, _lsn in images:
            if is_r and self.t.get(tuple(values.get(a) for a in side.key)) \
                    is not None:
                continue  # migrated or replayed
            attach(side.part(values), values.get(side.join_attr), None)

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

    #: The eager population's join state, once population has begun.
    _join: Optional[FojHashJoin] = None

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

    def _population_step(self, budget: int) -> Tuple[int, bool]:
        """Stream the fuzzy scans through :class:`FojHashJoin` into T.

        The operator's choice, not an option: the join is the cheaper
        way to place the same rows whenever the scans may be read in
        bulk: eager and blocking population.  The per-row modes may not
        (the miss hook claims single rows, triggers change the target
        between chunks), so they keep the per-record path.
        """
        if self.options.population_mode in PER_ROW_MODES:
            return super()._population_step(budget)
        if self._join is None:
            self._join = FojHashJoin(
                self.targets[self.spec.target_name], self.spec,
                self._scans[self.spec.r_name], self._scans[self.spec.s_name])
        return self._join.step(budget)
