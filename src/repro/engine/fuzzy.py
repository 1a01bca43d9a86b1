"""Fuzzy (lock-ignoring) scans and the classic fuzzy-copy technique.

Section 2.2 of the paper: a *fuzzy copy* reads the source table without
setting locks -- producing an inconsistent image that may miss updates made
during the scan and may include uncommitted data -- and then redoes the log
onto the copy until it has caught up.  Record LSNs make the redo idempotent.

The transformation framework reuses the scan half of this machinery for its
initial population step (Section 3.2); the full copy (scan + LSN-guarded
redo) is provided here both as the original building block and as a test
oracle for the scan's correctness.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Set

from repro.faults import NULL_FAULTS, register_site
from repro.storage.table import Image, Table
from repro.wal.records import (
    DeleteRecord,
    FuzzyMarkRecord,
    InsertRecord,
    UpdateRecord,
    data_change_of,
)


SITE_TF_POPULATE_CHUNK = register_site(
    "tf.populate.chunk", "transform",
    "before each population chunk is snapshotted by the source scan")


class FuzzyScan:
    """A chunked, lock-ignoring scan of a table: the one chunk source of
    initial population (Section 3.2), in every mode.

    The scan materializes the set of live rowids once, at construction, and
    hands out *images* -- ``(values, lsn)`` pairs, the values a copy -- of
    whatever those rows contain at the moment each chunk is read, built
    straight from the table's maps.  Consequences, all intended:

    * every row committed before the scan started is seen;
    * updates applied to a not-yet-reached row during the scan are seen
      (possibly uncommitted -- locks are ignored);
    * rows inserted after the scan started are *not* seen;
    * rows deleted before their chunk is reached are *not* seen.

    Whatever the scan misses or over-reads is repaired by log propagation,
    which starts from before the scan began.

    Rowids migrated out of band (lazy population's miss hook) are
    :meth:`claim`-ed and skipped by the cursor, so each source row is
    handed out or claimed, never both.  An empty :meth:`next_chunk`
    return means exhaustion (or a non-positive ``limit``), never a
    transient gap.
    """

    #: Subclass hook ``_resolve(rowid, live_values) -> Optional[Image]``
    #: replacing *how one rowid is read*; ``None`` here, where the read
    #: is the dirty image of the live row, one comprehension per slice.
    _resolve = None

    def __init__(self, table: Table, chunk_size: int = 256, planner=None,
                 faults=NULL_FAULTS, claim_handouts: bool = False) -> None:
        """Args:
            table: The table to scan.
            chunk_size: Rows per chunk.
            planner: A :class:`~repro.shard.planner.ShardPlanner`; with
                more than one shard every handed-out row is charged to
                its key's entry of :attr:`rows_per_shard` (cost
                accounting only -- rows come out in table order).
            faults: Injector fired once per chunk.
            claim_handouts: Also claim every row handed out, so a later
                out-of-band :meth:`claim` of it is refused (set while a
                miss hook is installed; off, the scan writes no set).
        """
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.table = table
        self.chunk_size = chunk_size
        self.planner = planner
        self.faults = faults
        self.claim_handouts = claim_handouts
        #: Rows handed out, per shard account (one account without a
        #: planner); always sums to the rows handed out.
        self.rows_per_shard: List[int] = \
            [0] * (planner.n_shards if planner is not None else 1)
        self._rowids: List[int] = list(table.rows)
        self._position = 0
        self._claimed: Set[int] = set()

    def claim(self, rowid: int) -> bool:
        """Mark a rowid migrated out of band; ``False`` if already
        claimed or handed out.  Rowids the scan never listed (rows
        inserted after it began) are claimable too: migrating them early
        is idempotent and the insert's own log record converges them."""
        if rowid in self._claimed:
            return False
        self._claimed.add(rowid)
        return True

    def unclaim(self, rowid: int) -> None:
        """Withdraw a claim whose migration failed; the cursor will hand
        the row out after all."""
        self._claimed.discard(rowid)

    @property
    def exhausted(self) -> bool:
        """Whether the cursor has passed every rowid."""
        return self._position >= len(self._rowids)

    @property
    def remaining(self) -> int:
        """Number of rowids not yet visited."""
        return max(0, len(self._rowids) - self._position)

    def next_chunk(self, limit: Optional[int] = None) -> List[Image]:
        """Images of the next chunk of still-live, unclaimed rows.

        Returns an empty list once exhausted.  Each image is a
        ``(values, lsn)`` pair whose values are a copy: later updates do
        not alter it.

        Args:
            limit: Cap on the number of rows returned (defaults to the
                scan's chunk size); lets a budget-driven caller take less
                than a full chunk.  ``limit <= 0`` means the caller has no
                budget at all: the scan returns ``[]`` without advancing.
        """
        take = self.chunk_size if limit is None \
            else min(self.chunk_size, int(limit))
        if take <= 0 or self.exhausted:
            return []
        self.faults.fire(SITE_TF_POPULATE_CHUNK, table=self.table.name)
        chunk: List[Image] = []
        rows, lsns = self.table.rows, self.table.lsns
        rowids, claimed, resolve = self._rowids, self._claimed, self._resolve
        claim_handouts = self.claim_handouts
        position, end = self._position, len(rowids)
        if resolve is None:
            # Each pass reads a slice no longer than the images still
            # wanted, so the cursor passes exactly the rowids the chunk
            # examined.
            while position < end and len(chunk) < take:
                stop = min(end, position + take - len(chunk))
                read = rowids[position:stop]
                position = stop
                chunk += [(dict(rows[rowid]), lsns[rowid]) for rowid in read
                          if rowid in rows and rowid not in claimed]
                if claim_handouts:
                    claimed.update(rowid for rowid in read if rowid in rows)
        else:
            while position < end and len(chunk) < take:
                rowid = rowids[position]
                position += 1
                if claimed and rowid in claimed:
                    continue
                image = resolve(rowid, rows.get(rowid))
                if image is None:
                    continue
                chunk.append(image)
                if claim_handouts:
                    claimed.add(rowid)
        self._position = position
        accounts = self.rows_per_shard
        if len(accounts) == 1:
            accounts[0] += len(chunk)
        else:
            key_of, shard_of = self.table.schema.key_of, self.planner.shard_of
            for values, _lsn in chunk:
                accounts[shard_of(key_of(values))] += 1
        return chunk

    def __iter__(self) -> Iterator[List[Image]]:
        while not self.exhausted:
            chunk = self.next_chunk()
            if chunk:
                yield chunk


def fuzzy_copy(db, source_name: str, target: Table,
               chunk_size: int = 256) -> None:
    """Classic single-table fuzzy copy (Hvasshovd et al., Section 2.2).

    Writes a begin fuzzy mark, scans ``source_name`` without locks into
    ``target``, then redoes the log from the oldest record of any
    transaction active at the mark, guarded by record LSNs, until the end
    of the log.  On return ``target`` is in the same state as the source
    was at the most recent log record (call with the source quiesced, or
    loop redo yourself, for exact convergence).

    Args:
        db: The :class:`~repro.engine.database.Database`.
        source_name: Name of the table to copy.
        target: An empty table with the same schema (may differ in name).
    """
    source = db.catalog.get(source_name)
    active = [t.txn_id for t in db.txns.active_on([source_name])]
    mark = FuzzyMarkRecord(transform_id="fuzzy-copy", phase="begin",
                           active_txns=tuple(active))
    mark_lsn = db.log.append(mark)
    start_lsn = db.txns.oldest_first_lsn(active)
    if not start_lsn:
        start_lsn = mark_lsn

    for chunk in FuzzyScan(source, chunk_size):
        for values, lsn in chunk:
            target.insert_row(values, lsn=lsn)

    apply_log_with_lsn_guard(db, source_name, target, start_lsn)
    db.log.append(FuzzyMarkRecord(transform_id="fuzzy-copy", phase="end"))


def apply_log_with_lsn_guard(db, source_name: str, target: Table,
                             from_lsn: int,
                             to_lsn: Optional[int] = None) -> int:
    """Redo data changes of ``source_name`` onto ``target``, LSN-guarded.

    A logged operation is applied only if the log record's LSN is greater
    than the target row's LSN -- the classic fuzzy-copy idempotence rule.
    CLRs are unwrapped and their compensating action applied the same way.

    Returns the number of log records inspected.
    """
    count = 0
    for record in db.log.scan(from_lsn, to_lsn):
        count += 1
        change = data_change_of(record)
        if change is None or change.table != source_name:
            continue
        REDO_CHANGE[type(change)](target, change, record.lsn)
    return count


def redo_insert(table: Table, change: InsertRecord, lsn: int) -> None:
    rowid = table.rowid_of(change.key)
    if rowid is None:
        table.insert_row(change.values, lsn=lsn)
    elif table.lsns[rowid] < lsn:
        # The copy saw a newer-keyed row die and be re-inserted; align.
        table.update_rowid(rowid, change.values, lsn=lsn)


def redo_delete(table: Table, change: DeleteRecord, lsn: int) -> None:
    rowid = table.rowid_of(change.key)
    if rowid is not None and table.lsns[rowid] < lsn:
        table.delete_rowid(rowid)


def redo_update(table: Table, change: UpdateRecord, lsn: int) -> None:
    rowid = table.rowid_of(change.key)
    if rowid is not None and table.lsns[rowid] < lsn:
        table.update_rowid(rowid, change.changes, lsn=lsn)


#: Data-change class -> reapply it to a table under the LSN guard (the
#: fuzzy copy's redo and restart recovery's).  The table copies what it
#: keeps of an image, so the record's own dicts are passed as they are.
REDO_CHANGE = {InsertRecord: redo_insert, DeleteRecord: redo_delete,
               UpdateRecord: redo_update}
