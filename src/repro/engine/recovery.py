"""ARIES-style restart recovery.

The reproduced system is a main-memory DBMS (like the paper's prototype and
the ClustRa lineage it builds on): a crash loses all table content, and
restart rebuilds it from the log in the classic three passes --

1. **analysis**: find the loser transactions (begun, never ended) and the
   DDL history;
2. **redo**: replay the entire log in LSN order, recreating tables and
   reapplying every data change (including CLR actions) with LSN guards;
3. **undo**: roll back the losers, writing fresh CLRs.

Transformation-specific behaviour (the paper's Section 6 abort policy plus
our extension for completed swaps):

* *transient* tables -- transformation targets whose content was built by
  non-logged physical redo -- are **discarded**: an in-flight transformation
  is simply aborted by the crash and can be restarted;
* a completed :class:`~repro.wal.records.TransformSwapRecord` is honoured:
  at the swap's log position the (latched) source tables were
  action-consistent with the published tables, so recovery *recomputes* the
  published tables by applying the registered transformation operator to
  the recovered source state, then keeps propagating post-swap operations
  of old transactions onto them with the registered rule engine.

Rule engines and rebuild functions are registered per transformation kind
via :func:`register_rebuilder` (the :mod:`repro.transform` package registers
``"foj"`` and ``"split"`` at import time).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.common.errors import RecoveryError
from repro.concurrency.transactions import Transaction
from repro.engine.database import Database
from repro.obs.blame import ROLE_RECOVERY
from repro.storage.table import Table
from repro.wal.log import LogManager
from repro.wal.records import (
    NULL_LSN,
    AbortRecord,
    BeginRecord,
    CheckpointRecord,
    CLRecord,
    CommitRecord,
    CreateTableRecord,
    DeleteRecord,
    DropTableRecord,
    EndRecord,
    InsertRecord,
    LogRecord,
    RenameTableRecord,
    TransformRetireRecord,
    TransformSwapRecord,
    UpdateRecord,
    data_change_of,
)

#: ``rebuild(db, swap_record) -> (published_tables, propagator_or_None)``.
#: ``published_tables`` maps public name to a fully built
#: :class:`~repro.storage.table.Table`; the optional propagator exposes
#: ``apply(log_record)`` and is fed every post-swap record so operations of
#: surviving old transactions keep flowing into the published tables.
RebuildFn = Callable[[Database, TransformSwapRecord],
                     Tuple[Dict[str, Table], Optional[object]]]

_REBUILDERS: Dict[str, RebuildFn] = {}


def register_rebuilder(kind: str, fn: RebuildFn) -> None:
    """Register the recovery rebuild function for a transformation kind."""
    _REBUILDERS[kind] = fn


def restart(log: LogManager, metrics=None) -> Database:
    """Rebuild a database from its log after a crash.

    Returns a fresh :class:`Database` sharing ``log`` (so processing can
    continue and append to the same history).  Loser transactions are
    rolled back before return; their CLRs are appended to the log.

    When a :class:`~repro.obs.metrics.Metrics` registry is passed, the
    three passes are recorded as ``recovery.analysis`` / ``recovery.redo``
    / ``recovery.undo`` spans under one ``recovery`` root, with record and
    loser counts as span attributes.
    """
    from repro.obs import NULL_METRICS
    obs = metrics if metrics is not None else NULL_METRICS
    db = Database(log=log, metrics=metrics)
    end_lsn = log.end_lsn

    with obs.span("recovery", end_lsn=end_lsn) as root:
        with obs.span("recovery.analysis") as pass_span:
            losers, in_commit, max_txn_id = _analysis(log, end_lsn)
            if obs.enabled:
                pass_span.attrs["losers"] = len(losers)
                pass_span.attrs["in_commit"] = len(in_commit)
        propagators: List[object] = []
        transient_names: Set[str] = set()
        # Transformations retired after publication (e.g. a dropped
        # materialized view): their swap records must not be replayed --
        # rebuilding the artefact just to drop it again wastes the redo
        # pass, and the resurrected rule engine would be fed post-drop
        # source changes the live system only accepted because the
        # artefact was already gone.
        retired_ids: Set[str] = {
            record.transform_id
            for record in log.scan(to_lsn=end_lsn)
            if isinstance(record, TransformRetireRecord)}

        # ---- redo --------------------------------------------------------
        with obs.span("recovery.redo") as pass_span:
            replayed = 0
            for record in log.scan(to_lsn=end_lsn):
                replayed += 1
                if isinstance(record, CreateTableRecord):
                    if record.transient:
                        transient_names.add(record.schema.name)
                    else:
                        db.catalog.create_table(record.schema)
                elif isinstance(record, DropTableRecord):
                    if record.table in transient_names:
                        transient_names.discard(record.table)
                    elif db.catalog.exists(record.table):
                        db.catalog.drop_table(record.table)
                    else:
                        db.catalog.drop_zombie(record.table)
                elif isinstance(record, RenameTableRecord):
                    if record.old_name in transient_names:
                        transient_names.discard(record.old_name)
                        transient_names.add(record.new_name)
                    else:
                        db.catalog.rename_table(record.old_name,
                                                record.new_name)
                elif isinstance(record, TransformSwapRecord):
                    if record.transform_id in retired_ids:
                        continue
                    propagator = _replay_swap(db, record, transient_names)
                    if propagator is not None:
                        propagators.append(propagator)
                else:
                    change = data_change_of(record)
                    if change is not None:
                        _redo(db, change, record.lsn)
                        for propagator in propagators:
                            propagator.apply(record)
            if obs.enabled:
                pass_span.attrs["records"] = replayed

        # ---- undo --------------------------------------------------------
        with obs.span("recovery.undo") as pass_span:
            db.txns._next_id = max_txn_id + 1  # resume the id sequence
            for txn_id in in_commit:
                # Commit record present, end record lost in the crash:
                # complete the commit instead of rolling the winner back.
                log.append(EndRecord(txn_id=txn_id))
            for txn_id in sorted(losers, reverse=True):
                state = losers[txn_id]
                txn = Transaction(txn_id)
                txn.first_lsn = state.first_lsn
                txn.last_lsn = state.last_lsn
                db.txns.adopt(txn)
                undo_from = log.end_lsn
                # Blame: the rollback acts on recovery's behalf, not the
                # dead user's.  Restart is offline today, so this only
                # matters if a workload is ever admitted mid-undo -- but
                # the attribution must already be right when that lands.
                obs.blame.set_role(txn_id, ROLE_RECOVERY)
                db.abort(txn)
                # Feed the freshly written CLRs to any live propagator so
                # aborted old transactions also converge in the published
                # tables.
                for record in log.scan(undo_from + 1):
                    for propagator in propagators:
                        propagator.apply(record)
            if obs.enabled:
                pass_span.attrs["losers_rolled_back"] = len(losers)

        # All pre-crash transactions are now finished; zombies can go.
        for name in list(db.catalog.zombie_names()):
            db.catalog.drop_zombie(name)
        if obs.enabled:
            root.attrs["propagators"] = len(propagators)
    return db


def restart_from_disk(disk, metrics=None,
                      flush_policy=None) -> Database:
    """Salvage the WAL from ``disk`` and run restart recovery on it.

    The durable path's one-call recovery entry point: the disk's crash
    image is salvaged with :meth:`LogManager.from_disk` (torn tails
    truncated, mid-log corruption raising
    :class:`~repro.common.errors.LogCorruptionError` before anything is
    applied) and :func:`restart` replays the salvaged **flushed prefix**
    -- never the pre-crash in-memory record list.  The returned database
    shares the recovered log, whose later flushes continue the same disk
    segment.
    """
    log = LogManager.from_disk(disk, metrics=metrics,
                               flush_policy=flush_policy)
    return restart(log, metrics=metrics)


class _TxnAnalysis:
    """Per-transaction facts gathered by the analysis pass."""

    __slots__ = ("first_lsn", "last_lsn", "finished", "committed")

    def __init__(self) -> None:
        self.first_lsn = NULL_LSN
        self.last_lsn = NULL_LSN
        self.finished = False
        self.committed = False


def _analysis(log: LogManager,
              end_lsn: int) -> Tuple[Dict[int, _TxnAnalysis],
                                     List[int], int]:
    """Find loser and in-commit transactions and the largest txn id.

    The scan is bounded by the most recent fuzzy checkpoint (if any):
    analysis starts there, seeded with the checkpoint's snapshot of the
    active-transaction table, then reads forward to the end of the log.
    """
    txns: Dict[int, _TxnAnalysis] = {}
    max_id = 0
    start_lsn = NULL_LSN + 1
    checkpoint: Optional[CheckpointRecord] = None
    for record in log.scan(to_lsn=end_lsn):
        if isinstance(record, CheckpointRecord):
            checkpoint = record
    if checkpoint is not None:
        start_lsn = checkpoint.lsn
        for txn_id, last_lsn in checkpoint.active_txns.items():
            state = txns.setdefault(txn_id, _TxnAnalysis())
            state.first_lsn = last_lsn or checkpoint.lsn
            state.last_lsn = last_lsn or checkpoint.lsn
            max_id = max(max_id, txn_id)
    for record in log.scan(from_lsn=start_lsn, to_lsn=end_lsn):
        txn_id = record.txn_id
        if txn_id == 0:
            continue
        max_id = max(max_id, txn_id)
        state = txns.setdefault(txn_id, _TxnAnalysis())
        if state.first_lsn == NULL_LSN:
            state.first_lsn = record.lsn
        state.last_lsn = record.lsn
        if isinstance(record, EndRecord):
            state.finished = True
        elif isinstance(record, CommitRecord):
            # A commit record makes the transaction durable even if the
            # crash hit before its end record was appended: it is a
            # winner ("in-commit"), never a rollback candidate.
            state.committed = True
    losers = {i: s for i, s in txns.items()
              if not s.finished and not s.committed}
    in_commit = sorted(i for i, s in txns.items()
                       if s.committed and not s.finished)
    return losers, in_commit, max_id


def _redo(db: Database, change: LogRecord, lsn: int) -> None:
    """Reapply one data change with the standard LSN guard."""
    try:
        table = db.catalog.get_any(change.table)
    except Exception:
        return  # change to a transient (discarded) table
    if isinstance(change, InsertRecord):
        existing = table.get(change.key)
        if existing is None:
            table.insert_row(dict(change.values), lsn=lsn)
        elif existing.lsn < lsn:
            table.update_rowid(existing.rowid, dict(change.values), lsn=lsn)
    elif isinstance(change, DeleteRecord):
        existing = table.get(change.key)
        if existing is not None and existing.lsn < lsn:
            table.delete_rowid(existing.rowid)
    elif isinstance(change, UpdateRecord):
        existing = table.get(change.key)
        if existing is not None and existing.lsn < lsn:
            table.update_rowid(existing.rowid, dict(change.changes), lsn=lsn)


def _replay_swap(db: Database, record: TransformSwapRecord,
                 transient_names: Set[str]) -> Optional[object]:
    """Recompute published tables at a swap point and install them."""
    rebuild = _REBUILDERS.get(record.transform_kind)
    if rebuild is None:
        raise RecoveryError(
            f"no recovery rebuilder registered for transformation kind "
            f"{record.transform_kind!r}")
    published, propagator = rebuild(db, record)
    for name in published:
        transient_names.discard(name)
        transient_names.discard(record.published.get(name, name))
    db.catalog.swap(record.retired, published, keep_zombies=True)
    return propagator
