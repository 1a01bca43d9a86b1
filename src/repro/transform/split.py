"""Vertical split transformation: Rules 8-11 of the paper (Section 5).

Transforms one source table T into R (keyed like T) and S (keyed by the
split attribute).  Because multiple T rows may share an S part, each S row
carries a **duplicate counter** (after Gupta et al.): incremented per
contributing insert, decremented per delete, the row removed at zero.

Unlike the FOJ rules, the split rules use **record LSNs** as state
identifiers: R rows carry the LSN of the last applied operation; S rows
carry the maximum LSN over their contributors.  The R-side LSN check
guards each logged operation exactly-once, which also keeps the S counters
correct; the S-side LSN check additionally guards S *value* updates (the
counter movement of a split-attribute change is deliberately guarded by
the R side only -- skipping it when a sibling contributor raced the S LSN
forward would corrupt the counter; see ``_move_s_contribution``).

When the DBMS does not guarantee consistency (Section 5.3), every S row
additionally carries a C/U **flag** and the
:class:`~repro.transform.consistency.ConsistencyChecker` runs as part of
the background process; the flag transitions implemented here follow the
paper:

* a differing insert onto an existing S row flips C to U;
* an update applied to an S row with counter > 1 flips to U;
* an update that rewrites all non-key attributes of a counter-1 row flips
  U back to C;
* a CC pass that finds the contributors consistent (and unchallenged
  between its begin/ok marks) installs the verified image and flips to C.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.common.errors import (
    InconsistentDataError,
    TransformationError,
)
from repro.engine.database import Database
from repro.relational.spec import SplitSpec
from repro.storage.index import value_tuples
from repro.storage.table import Table
from repro.transform.base import Image, RuleEngine, Touched, Transformation
from repro.wal.records import (
    CCBeginRecord,
    CCOkRecord,
    DeleteRecord,
    InsertRecord,
    LogRecord,
    UpdateRecord,
)

#: Index created on the *source* table's split attribute during
#: preparation; the consistency checker uses it to re-read all contributors
#: of a suspect split value without scanning T.
SOURCE_SPLIT_INDEX = "__split__"

FLAG_CONSISTENT = "C"
FLAG_UNKNOWN = "U"


class SplitRuleEngine(RuleEngine):
    """Log-propagation rules 8-11 for a vertical split."""

    #: handle_marker only consumes the transformation's own CC marks;
    #: the propagation loop skips the call for everything else.
    marker_classes = (CCBeginRecord, CCOkRecord)

    def __init__(self, db: Database, spec: SplitSpec, r_table: Table,
                 s_table: Table, check_consistency: bool = False,
                 transform_id: str = "") -> None:
        super().__init__(db, spec)
        self.r = r_table
        self.s = s_table
        self.check_consistency = check_consistency
        self.transform_id = transform_id
        self._r_attr_set = set(spec.r_attrs)
        self._s_attr_set = set(spec.s_attrs)
        #: Split values under an in-flight consistency check, mapped to
        #: whether a propagated operation has touched them since the CC
        #: begin mark ("dirty").
        self._cc_inflight: Dict[Tuple, bool] = {}
        self._rules = {
            (spec.source_name, InsertRecord): self._rule8_insert,
            (spec.source_name, DeleteRecord): self._rule9_delete,
            (spec.source_name, UpdateRecord): self._rules10_11_update,
        }

    # -- helpers ------------------------------------------------------------

    def _split_key_of_values(self, values: Dict[str, object]) -> Tuple:
        value = values.get(self.spec.split_attr)
        if value is None:
            raise self._null_split_value()
        return (value,)

    def _null_split_value(self) -> TransformationError:
        return TransformationError(
            "split transformation requires non-NULL split values "
            f"(table {self.spec.source_name!r})")

    def _mark_dirty(self, split_key: Tuple) -> None:
        if split_key in self._cc_inflight:
            self._cc_inflight[split_key] = True

    def _s_changes(self, change: UpdateRecord) -> Dict[str, object]:
        return {k: v for k, v in change.changes.items()
                if k in self._s_attr_set}

    def _r_changes(self, change: UpdateRecord) -> Dict[str, object]:
        return {k: v for k, v in change.changes.items()
                if k in self._r_attr_set}

    # -- sharding (repro.shard) -----------------------------------------------

    def shard_route(self, change: LogRecord):
        """Route every T record by T's primary key.

        R-side effects are confined to the row with that key.  S-side
        effects from different T keys can target the same S record, but
        they commute: the duplicate counter is add/subtract and the value
        image is guarded by a take-the-max LSN rule, so any interleaving
        of whole-record applications converges to the sequential result
        (for FD-consistent histories -- the same domain in which the
        sequential rules themselves are exact, Section 5.2).
        """
        return tuple(change.key)

    # -- dispatch -------------------------------------------------------------

    # The framework's dispatch over ``_rules``, bound in this class body
    # because per-engine instrumentation patches these names through
    # ``vars(cls)``.
    apply = RuleEngine.apply
    apply_run = RuleEngine.apply_run

    # -- Rule 8 (Insert t^y_x into T) ---------------------------------------------

    def _rule8_insert(self, change: InsertRecord, lsn: int,
                      touched: Touched) -> None:
        """Insert the R part unless already present; then merge the S part
        (bump counter / raise LSN of an existing S row, else insert it)."""
        if self.r.rowid_of(change.key) is not None:
            return  # Theorem 1: already reflected
        split_key = self._split_key_of_values(change.values)
        self.r.insert_row(self.spec.r_part(change.values), lsn=lsn)
        self._touch(touched, self.r, change.key)
        self._merge_s_contribution(split_key, self.spec.s_part(change.values),
                                   lsn, touched)

    def _merge_s_contribution(self, split_key: Tuple,
                              s_part: Dict[str, object], lsn: int,
                              touched: Touched) -> None:
        s = self.s
        rowid = s.rowid_of(split_key)
        if rowid is None:
            s.insert_row(s_part, lsn=lsn,
                         meta={"counter": 1, "flag": FLAG_CONSISTENT})
        else:
            meta = s.metas[rowid]
            meta["counter"] += 1
            if lsn > s.lsns[rowid]:
                s.lsns[rowid] = lsn
            if self.check_consistency and s.rows[rowid] != s_part:
                # "Inserting a record s^x that is not equal to an existing
                # record with the same split value changes a C-flag into U."
                meta["flag"] = FLAG_UNKNOWN
        self._mark_dirty(split_key)
        self._touch(touched, s, split_key)

    # -- Rule 9 (Delete t^y from T) ----------------------------------------------------

    def _rule9_delete(self, change: DeleteRecord, lsn: int,
                      touched: Touched) -> None:
        """Delete the R part if its LSN is older than the operation; drop
        one contribution from the S row (removing it at counter zero).

        The S row's LSN is raised to the delete's LSN even though the
        contributing row no longer exists -- harmless because the log is
        propagated sequentially, and consistent with the paper's
        discussion under Rule 9."""
        r = self.r
        rowid = r.rowid_of(change.key)
        if rowid is None or r.lsns[rowid] > lsn:
            return
        split_key = (r.rows[rowid].get(self.spec.split_attr),)
        r.delete_rowid(rowid)
        self._touch(touched, r, change.key)
        self._drop_s_contribution(split_key, lsn, touched)

    def _drop_s_contribution(self, split_key: Tuple, lsn: int,
                             touched: Touched) -> None:
        s = self.s
        rowid = s.rowid_of(split_key)
        if rowid is None:
            return  # defensive: invariant says it exists
        meta = s.metas[rowid]
        meta["counter"] -= 1
        if lsn > s.lsns[rowid]:
            s.lsns[rowid] = lsn
        if meta["counter"] <= 0:
            s.delete_rowid(rowid)
        self._mark_dirty(split_key)
        self._touch(touched, s, split_key)

    # -- Rules 10 & 11 (Update t^y) ---------------------------------------------------------

    def _rules10_11_update(self, change: UpdateRecord, lsn: int,
                           touched: Touched) -> None:
        """Rule 10: apply the R part if the stored LSN is older, stamping
        the new LSN even when no R attribute changed.  Rule 11: propagate
        the S part only when Rule 10 applied, guarded by the S row's LSN
        for value changes; a split-attribute change is treated as delete
        of s^x followed by insert of s^v."""
        r = self.r
        rowid = r.rowid_of(change.key)
        if rowid is None or r.lsns[rowid] > lsn:
            return
        old_split = (r.rows[rowid].get(self.spec.split_attr),)
        r_changes = self._r_changes(change)
        r.update_rowid(rowid, r_changes, lsn=lsn)
        self._touch(touched, r, change.key)

        s_changes = self._s_changes(change)
        if not s_changes:
            return
        split_changed = self.spec.split_attr in s_changes and \
            s_changes[self.spec.split_attr] != old_split[0]
        if split_changed:
            self._move_s_contribution(old_split, s_changes, lsn, touched)
        else:
            self._update_s_values(old_split, s_changes, lsn, touched)

    def _update_s_values(self, split_key: Tuple,
                         s_changes: Dict[str, object], lsn: int,
                         touched: Touched) -> None:
        s = self.s
        rowid = s.rowid_of(split_key)
        if rowid is None or s.lsns[rowid] >= lsn:
            return  # value update already reflected (S-side LSN guard)
        non_split = {k: v for k, v in s_changes.items()
                     if k != self.spec.split_attr}
        s.update_rowid(rowid, non_split, lsn=lsn)
        if self.check_consistency:
            meta = s.metas[rowid]
            if meta["counter"] > 1:
                meta["flag"] = FLAG_UNKNOWN
            elif set(non_split) >= set(self.spec.s_dependent_attrs):
                # "A U-flag is changed to C only if the operation updates
                # all non-key attributes of a record with a counter of 1."
                meta["flag"] = FLAG_CONSISTENT
        self._mark_dirty(split_key)
        self._touch(touched, s, split_key)

    def _move_s_contribution(self, old_split: Tuple,
                             s_changes: Dict[str, object], lsn: int,
                             touched: Touched) -> None:
        new_split = self._split_key_of_values(s_changes)
        old_rowid = self.s.rowid_of(old_split)
        if old_rowid is not None:
            # New S image: the old image with the logged changes folded in
            # ("s^x is used to extract the attribute values" -- Rule 11).
            new_image = dict(self.s.rows[old_rowid])
        else:
            new_image = {a: None for a in self.spec.s_attrs}
        for attr, value in s_changes.items():
            new_image[attr] = value
        self._drop_s_contribution(old_split, lsn, touched)
        self._merge_s_contribution(new_split, new_image, lsn, touched)

    # -- consistency-checker marks (Section 5.3) -----------------------------------

    def handle_marker(self, record: LogRecord) -> None:
        """Track CC begin/ok marks of the owning transformation."""
        if isinstance(record, CCBeginRecord) and \
                record.transform_id == self.transform_id:
            self._cc_inflight[tuple(record.split_value)] = False
        elif isinstance(record, CCOkRecord) and \
                record.transform_id == self.transform_id:
            split_key = tuple(record.split_value)
            dirty = self._cc_inflight.pop(split_key, True)
            if dirty:
                return  # the value changed between the marks: discard
            rowid = self.s.rowid_of(split_key)
            if rowid is None:
                return
            image = {a: record.image.get(a) for a in self.spec.s_attrs}
            changes = {k: v for k, v in image.items()
                       if k != self.spec.split_attr}
            self.s.update_rowid(rowid, changes, lsn=record.lsn)
            self.s.metas[rowid]["flag"] = FLAG_CONSISTENT

    # -- state queries ----------------------------------------------------------------

    def unknown_split_values(self) -> List[Tuple]:
        """Split values whose S rows still carry the U flag."""
        s = self.s
        return sorted(
            (s.schema.key_of(s.rows[rowid])
             for rowid, meta in s.metas.items()
             if meta.get("flag") == FLAG_UNKNOWN),
            key=repr,
        )

    # -- population -----------------------------------------------------------

    def migrate_rows(self, table_name: str, images: Sequence[Image]) -> None:
        """Insert the chunk's R parts and merge its S parts, all or
        nothing.

        Idempotent: the R parts go into R as value tuples through one
        :meth:`Table.insert_rows`, whose primary index skips an R part
        already there (migrated, replayed, or twice in the chunk; the
        claim is not a counted probe), and that image's S part is then
        left alone.  Each other S part is looked up once (S's one probe
        per image) and merged via the duplicate counter, compared as a
        tuple with the S row; a split value new to S is inserted with
        one more ``insert_rows``, its dict built there.  Both sides are
        stamped with the image's LSN, so Rules 8-11 guard later replay
        whatever order the rows arrived in.  A chunk that raises leaves
        no R or S row of itself: a retry (the sweeper after a failed
        lazy miss, a resumed population) must not find R and stop short
        of S.
        """
        if not images:
            return
        r_table, s_table = self.r, self.s
        sources = [values for values, _lsn in images]
        lsns = [lsn for _values, lsn in images]
        split_keys = list(value_tuples(sources, (self.spec.split_attr,)))
        if (None,) in split_keys:
            raise self._null_split_value()
        rowids = r_table.insert_rows(
            list(value_tuples(sources, r_table.schema.attribute_names)),
            lsns)
        if None in rowids:
            kept = [i for i, rowid in enumerate(rowids) if rowid is not None]
            sources = [sources[i] for i in kept]
            lsns = [lsns[i] for i in kept]
            split_keys = [split_keys[i] for i in kept]
        try:
            self._merge_s_parts(split_keys, list(value_tuples(
                sources, s_table.schema.attribute_names)), lsns)
        except BaseException:
            for rowid in rowids:
                if rowid is not None:
                    r_table.delete_rowid(rowid)
            raise

    def _merge_s_parts(self, split_keys: List[Tuple], parts: List[Tuple],
                       lsns: List[int]) -> None:
        """Merge a chunk's S parts (value tuples in S's attribute order):
        the split values new to S in one insert, which stores nothing if
        it raises, then -- once nothing can fail -- the contributions to
        S rows already there."""
        s_table = self.s
        rowids = list(map(s_table.rowid_of, split_keys))
        new: Dict[Tuple, list] = {}
        for key, part, lsn in [(key, part, lsn) for key, rowid, part, lsn
                               in zip(split_keys, rowids, parts, lsns)
                               if rowid is None]:
            entry = new.get(key)
            if entry is None:
                new[key] = [part, lsn, {"counter": 1,
                                        "flag": FLAG_CONSISTENT}]
                continue
            meta = entry[2]
            meta["counter"] += 1
            if lsn > entry[1]:
                entry[1] = lsn
            if part != entry[0]:
                # Section 5.3: only records consistent in the fuzzy read
                # keep C.
                meta["flag"] = FLAG_UNKNOWN
        if new:
            entries = list(new.values())
            s_table.insert_rows([part for part, _lsn, _meta in entries],
                                [lsn for _part, lsn, _meta in entries],
                                [meta for _part, _lsn, meta in entries])
        found = [(rowid, part, lsn) for rowid, part, lsn
                 in zip(rowids, parts, lsns) if rowid is not None]
        s_rows, s_lsns, s_metas = s_table.rows, s_table.lsns, s_table.metas
        stored = value_tuples([s_rows[rowid] for rowid, _part, _lsn in found],
                              s_table.schema.attribute_names)
        for (rowid, part, lsn), now in zip(found, stored):
            meta = s_metas[rowid]
            meta["counter"] += 1
            if lsn > s_lsns[rowid]:
                s_lsns[rowid] = lsn
            if part != now:
                meta["flag"] = FLAG_UNKNOWN

    # Bound here: per-engine instrumentation patches it via ``vars(cls)``.
    migrate_row = RuleEngine.migrate_row

    # -- lock mapping (synchronization support) ------------------------------------------

    def targets_of_source_lock(self, table_name: str,
                               key: Tuple) -> List[Tuple[Table, Tuple]]:
        if table_name != self.spec.source_name:
            return []
        result: List[Tuple[Table, Tuple]] = [(self.r, tuple(key))]
        rowid = self.r.rowid_of(tuple(key))
        if rowid is not None:
            split_value = self.r.rows[rowid].get(self.spec.split_attr)
            if split_value is not None:
                result.append((self.s, (split_value,)))
        return result

    def sources_of_target_lock(self, table_name: str,
                               key: Tuple) -> List[Tuple[Table, Tuple]]:
        source = self.db.catalog.get_any(self.spec.source_name)
        if table_name == self.r.name:
            return [(source, tuple(key))]
        if table_name == self.s.name:
            if SOURCE_SPLIT_INDEX in source.indexes:
                rows = source.lookup(SOURCE_SPLIT_INDEX, tuple(key))
            else:
                rows = [r for r in source.scan()
                        if (r.values.get(self.spec.split_attr),)
                        == tuple(key)]
            return [(source, source.schema.key_of(r.values)) for r in rows]
        return []


class SplitTransformation(Transformation):
    """Online, non-blocking vertical split of a table (Section 5).

    Example::

        spec = SplitSpec.derive(db.table("customer").schema,
                                r_name="customer_r", s_name="postal",
                                split_attr="postal_code",
                                s_attrs=["city"])
        tf = SplitTransformation(db, spec)
        tf.run()

    Args:
        db: The database.
        spec: The split specification.
        check_consistency: ``False`` assumes the DBMS guarantees the
            functional dependency (split of consistent data, Section 5.2);
            ``True`` enables the C/U flags and the consistency checker
            (Section 5.3).
        on_inconsistent: With ``check_consistency=True``, what to do when
            the checker finds a *genuine* FD violation (the paper's
            Example 1): ``"raise"`` aborts with
            :class:`InconsistentDataError`; ``"wait"`` keeps propagating
            (and re-checking) until a user transaction repairs the data.
        materialize_r: ``True`` (default) builds R as a separate table,
            as the paper describes in detail.  ``False`` selects the
            paper's *alternative strategy* (Section 5.2): only S is
            populated; a skinny temporary table **P** tracks the LSN and
            split-attribute value of each source row during propagation,
            and at synchronization the moved attributes are stripped from
            T, which is then renamed to R.  Uses less space; requires the
            *blocking commit* synchronization strategy, because after the
            in-place rename there is no separate copy left for old
            transactions to keep running against.
        **kwargs: Forwarded to :class:`Transformation`.
    """

    kind = "split"
    spec_class = SplitSpec
    engine_class = SplitRuleEngine
    supports_lazy = True

    def __init__(self, db: Database, spec: SplitSpec,
                 check_consistency: bool = False,
                 on_inconsistent: str = "raise",
                 materialize_r: bool = True, **kwargs) -> None:
        if on_inconsistent not in ("raise", "wait"):
            raise ValueError("on_inconsistent must be 'raise' or 'wait'")
        super().__init__(db, spec, **kwargs)
        self.check_consistency = check_consistency
        self.on_inconsistent = on_inconsistent
        self.materialize_r = materialize_r
        self.checker = None  # set in prepare (needs the source index)
        if not materialize_r:
            from repro.transform.base import SyncStrategy
            if self.options.sync_strategy is not \
                    SyncStrategy.BLOCKING_COMMIT:
                raise TransformationError(
                    "the rename-based split strategy (materialize_r="
                    "False) requires SyncStrategy.BLOCKING_COMMIT: after "
                    "T is renamed to R in place, no separate source copy "
                    "remains for old transactions")
            #: The paper's temporary table P: R's key, the split value,
            #: and (as the row LSN) the propagation state identifier.
            self._p_spec = SplitSpec(
                source_name=spec.source_name,
                r_name=f"__P_{spec.r_name}__",
                s_name=spec.s_name,
                split_attr=spec.split_attr,
                r_attrs=tuple(dict.fromkeys(
                    tuple(spec.r_key) + (spec.split_attr,))),
                s_attrs=spec.s_attrs,
                r_key=spec.r_key,
            )

    def _create_targets(self) -> Dict[str, Table]:
        if self.materialize_r:
            targets = super()._create_targets()
        else:
            # Alternative strategy: only S is a real target; P lives
            # outside the catalog (it is propagation bookkeeping).
            s_table = self.db.create_table(self.spec.s_schema(),
                                           transient=True)
            self._p_table = Table(self._p_spec.r_schema())
            targets = {self.spec.s_name: s_table}
        if self.check_consistency:
            source = self.db.catalog.get(self.spec.source_name)
            if SOURCE_SPLIT_INDEX not in source.indexes:
                source.create_index(SOURCE_SPLIT_INDEX,
                                    (self.spec.split_attr,))
        return targets

    def _build_rule_engine(self) -> SplitRuleEngine:
        if self.materialize_r:
            engine_spec = self.spec
            r_table = self.targets[self.spec.r_name]
        else:
            # The engine runs the same Rules 8-11, with P standing in for
            # R: P carries exactly the information the paper says the
            # propagator needs -- "both the LSN and the split attribute
            # value of each R-record in the current intermediate state".
            engine_spec = self._p_spec
            r_table = self._p_table
        engine = SplitRuleEngine(
            self.db, engine_spec, r_table,
            self.targets[self.spec.s_name],
            check_consistency=self.check_consistency,
            transform_id=self.transform_id,
        )
        if self.check_consistency:
            from repro.transform.consistency import ConsistencyChecker
            self.checker = ConsistencyChecker(self.db, engine_spec, engine)
        return engine

    def _pre_swap(self) -> None:
        """Rename-based synchronization (Section 5.2): strip the moved
        attributes from T and publish the very same table as R."""
        if self.materialize_r:
            return
        source = self.db.catalog.get(self.spec.source_name)
        moved = [a for a in source.schema.attribute_names
                 if a not in self.spec.r_attrs]
        source.drop_attributes(moved)
        self.targets = dict(self.targets)
        self.targets[self.spec.r_name] = source

    def _swap_params(self) -> Dict[str, object]:
        return {"spec": self.spec,
                "check_consistency": self.check_consistency}

    # -- consistency checking hooks -----------------------------------------------

    def _background_work(self, budget: int) -> int:
        if self.checker is None or budget < 1:
            return 0
        return self.checker.run_checks(budget)

    def _ready_to_synchronize(self) -> Tuple[bool, str]:
        """Section 5.3: "all records in S should have a C-flag before
        synchronization is started"."""
        if not self.check_consistency:
            return True, ""
        assert isinstance(self.engine, SplitRuleEngine)
        unknown = self.engine.unknown_split_values()
        if not unknown:
            return True, ""
        if self.checker is not None and self.on_inconsistent == "raise":
            genuine = self.checker.genuinely_inconsistent()
            if genuine and set(genuine) >= set(unknown):
                raise InconsistentDataError(tuple(genuine))
        return False, f"{len(unknown)} S records still U-flagged"
