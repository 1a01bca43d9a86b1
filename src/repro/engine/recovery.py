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
  of old transactions onto them with the registered rule engine;
* a :class:`~repro.wal.records.TransformRetireRecord` (a dropped view)
  retires its swap from the catalog, and its rule engine stops there.

Rebuild functions are registered per transformation kind via
:func:`register_rebuilder`; every :class:`~repro.transform.base.
Transformation` subclass that names a ``kind`` registers its ``rebuild``
when the class is defined.
"""

from __future__ import annotations

from typing import (Callable, Dict, List, Optional, Sequence, Set, Tuple,
                    Type)

from repro.common.errors import NoSuchTableError, RecoveryError, ReproError
from repro.concurrency.transactions import Transaction
from repro.engine.database import Database
from repro.engine.fuzzy import REDO_CHANGE
from repro.obs.blame import ROLE_RECOVERY
from repro.storage.table import Table
from repro.wal.frames import RECORD_CODES
from repro.wal.log import FIRST_LSN, LogManager
from repro.wal.records import (
    NULL_LSN,
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

#: Frame codes analysis looks for in the record headers.
_CHECKPOINT_CODE = bytes((RECORD_CODES[CheckpointRecord],))
_COMMIT_CODE = RECORD_CODES[CommitRecord]
_END_CODE = RECORD_CODES[EndRecord]

#: ``rebuild(db, swap_record) -> (published_tables, rule_engine)``.
#: ``published_tables`` maps public name to a fully built
#: :class:`~repro.storage.table.Table`; the rule engine (``source_tables``
#: plus ``apply(change, lsn)``) is fed every post-swap data change of its
#: sources, so operations of surviving old transactions keep flowing into
#: the published tables.
RebuildFn = Callable[[Database, TransformSwapRecord],
                     Tuple[Dict[str, Table], object]]

_REBUILDERS: Dict[str, RebuildFn] = {}


def register_rebuilder(kind: str, fn: RebuildFn) -> None:
    """Register the recovery rebuild function for a transformation kind."""
    _REBUILDERS[kind] = fn


def restart(log: LogManager, metrics=None) -> Database:
    """Rebuild a database from its log after a crash.

    Returns a fresh :class:`Database` sharing ``log`` (so processing can
    continue and append to the same history).  Loser transactions are
    rolled back before return; their CLRs are appended to the log.

    Analysis reads the record code and transaction id of every record
    (:meth:`LogManager.headers` -- for a log salvaged from disk, the
    salvage walk's frame headers) and decodes only the last checkpoint.
    Redo streams the log once in LSN order, dispatching on the record
    class (records are never subclassed); a durable log decodes each
    frame then and drops it.  Undo reads the losers' records on demand.

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
            # The most recent fuzzy checkpoint bounds analysis.
            codes, txn_ids = log.headers()
            at = codes.rfind(_CHECKPOINT_CODE)
            checkpoint = log.record_at(FIRST_LSN + at) if at >= 0 else None
            losers, in_commit, max_txn_id = _analysis(codes, txn_ids,
                                                      checkpoint)
            if obs.enabled:
                pass_span.attrs["losers"] = len(losers)
                pass_span.attrs["in_commit"] = len(in_commit)

        # ---- redo --------------------------------------------------------
        with obs.span("recovery.redo") as pass_span:
            redo = _Redo(db)
            handler_of = REDO_HANDLERS.get
            for record in log.scan(FIRST_LSN, end_lsn):
                handler = handler_of(type(record))
                if handler is not None:
                    handler(redo, record)
            if obs.enabled:
                pass_span.attrs["records"] = len(codes)

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
                    change = data_change_of(record)
                    if change is not None:
                        redo.propagate(change, record.lsn)
            for transform_id, error in redo.failed.items():
                raise RecoveryError(f"swap {transform_id!r}: its rules "
                                    f"refused a logged change") from error
            if obs.enabled:
                pass_span.attrs["losers_rolled_back"] = len(losers)

        # All pre-crash transactions are now finished; zombies can go.
        for name in list(db.catalog.zombie_names()):
            db.catalog.drop_zombie(name)
        if obs.enabled:
            root.attrs["propagators"] = len(redo.propagators)
    return db


def restart_from_disk(disk, metrics=None,
                      flush_policy=None) -> Database:
    """Salvage the WAL from ``disk`` and run restart recovery on it.

    The durable path's one-call recovery entry point: the disk's crash
    image is salvaged with :meth:`LogManager.from_disk` (torn tails
    truncated, mid-log corruption raising
    :class:`~repro.common.errors.LogCorruptionError` before anything is
    applied) and :func:`restart` replays the salvaged **flushed prefix**
    -- never the pre-crash in-memory record list -- streaming it from
    its frames.  A CRC-valid frame whose payload does not decode raises
    the same error from redo, and no database is returned.  The
    returned database shares the recovered log, whose later flushes
    continue the same disk segment.
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


def _analysis(codes: bytes, txn_ids: Sequence[int],
              checkpoint: Optional[CheckpointRecord]
              ) -> Tuple[Dict[int, _TxnAnalysis], List[int], int]:
    """Find loser and in-commit transactions and the largest txn id.

    Reads each record's code and transaction id only (index ``lsn -
    FIRST_LSN``).  The walk is bounded by the most recent fuzzy
    checkpoint (if any): analysis starts there, seeded with the
    checkpoint's snapshot of the active-transaction table, then reads
    forward to the end of the log.
    """
    txns: Dict[int, _TxnAnalysis] = {}
    max_id = 0
    start = 0
    if checkpoint is not None:
        start = checkpoint.lsn - FIRST_LSN
        for txn_id, last_lsn in checkpoint.active_txns.items():
            state = txns[txn_id] = _TxnAnalysis()
            state.first_lsn = state.last_lsn = last_lsn or checkpoint.lsn
            max_id = max(max_id, txn_id)
    lsns = range(start + FIRST_LSN, len(codes) + FIRST_LSN)
    for lsn, code, txn_id in zip(lsns, codes[start:], txn_ids[start:]):
        if txn_id == 0:
            continue
        state = txns.get(txn_id)
        if state is None:
            state = txns[txn_id] = _TxnAnalysis()
            state.first_lsn = lsn
            if txn_id > max_id:
                max_id = txn_id
        state.last_lsn = lsn
        if code == _END_CODE:
            state.finished = True
        elif code == _COMMIT_CODE:
            # A commit record makes the transaction durable even if the
            # crash hit before its end record was appended: it is a
            # winner ("in-commit"), never a rollback candidate.
            state.committed = True
    losers = {i: s for i, s in txns.items()
              if not s.finished and not s.committed}
    in_commit = sorted(i for i, s in txns.items()
                       if s.committed and not s.finished)
    return losers, in_commit, max_id


class _Redo:
    """The redo pass: the database being rebuilt and what the records
    seen so far have established."""

    def __init__(self, db: Database) -> None:
        self.catalog = db.catalog
        self.db = db
        #: Transformation targets created but not published: tracked by
        #: name only, their content (non-logged physical redo) discarded.
        self.transient_names: Set[str] = set()
        #: Rule engines of the swaps in effect, fed every later change.
        self.propagators: Dict[str, object] = {}
        #: Transform id -> the error its rules refused a change with.
        self.failed: Dict[str, ReproError] = {}

    def change(self, record: LogRecord,
               change: Optional[LogRecord] = None) -> None:
        """Reapply a data change: ``record`` itself, or the compensating
        ``change`` a CLR ``record`` carries (guarded by the CLR's LSN)."""
        if change is None:
            change = record
        try:
            table = self.catalog.get_any(change.table)
        except NoSuchTableError:
            pass  # change to a transient (discarded) table
        else:
            REDO_CHANGE[type(change)](table, change, record.lsn)
        if self.propagators:
            self.propagate(change, record.lsn)

    def propagate(self, change: LogRecord, lsn: int) -> None:
        """Run a post-swap data change through the rules of every swap in
        effect that consumes its table.  A refusal (a deferred view's
        NULL join value) fails only that swap's engine, fed nothing more:
        its retire record discards it; restart fails on one in effect."""
        for transform_id, engine in self.propagators.items():
            if change.table in engine.source_tables \
                    and transform_id not in self.failed:
                try:
                    engine.apply(change, lsn)
                except ReproError as error:
                    self.failed[transform_id] = error

    def clr(self, record: CLRecord) -> None:
        if type(record.action) in REDO_CHANGE:
            self.change(record, record.action)

    def create_table(self, record: CreateTableRecord) -> None:
        if record.transient:
            self.transient_names.add(record.schema.name)
        else:
            self.catalog.create_table(record.schema)

    def drop_table(self, record: DropTableRecord) -> None:
        if record.table in self.transient_names:
            self.transient_names.discard(record.table)
        elif self.catalog.exists(record.table):
            self.catalog.drop_table(record.table)
        else:
            self.catalog.drop_zombie(record.table)

    def rename_table(self, record: RenameTableRecord) -> None:
        if record.old_name in self.transient_names:
            self.transient_names.discard(record.old_name)
            self.transient_names.add(record.new_name)
        else:
            self.catalog.rename_table(record.old_name, record.new_name)

    def swap(self, record: TransformSwapRecord) -> None:
        """Recompute published tables at a swap point and install them."""
        rebuild = _REBUILDERS.get(record.transform_kind)
        if rebuild is None:
            raise RecoveryError(
                f"no recovery rebuilder registered for transformation kind "
                f"{record.transform_kind!r}")
        published, engine = rebuild(self.db, record)
        for name, table in published.items():
            self.transient_names -= {name, table.name}
        self.catalog.swap(record.transform_id, record.retired, published,
                          keep_zombies=True, lsn=record.lsn)
        for name in set(record.retired) & set(published):
            engine.rename_source(name, self.catalog.name_at(name))
        self.propagators[record.transform_id] = engine

    def retire(self, record: TransformRetireRecord) -> None:
        """The live drop's catalog action; the propagator stops here."""
        self.catalog.retire(record.transform_id)
        del self.propagators[record.transform_id]
        self.failed.pop(record.transform_id, None)


#: Record class -> redo action.  A type-keyed table skips what it does not
#: list, so ``tests/test_recovery.py`` requires every class of
#: ``RECORD_CODES`` to be a key here or in its explicit redo-neutral set.
REDO_HANDLERS: Dict[Type[LogRecord], Callable[[_Redo, LogRecord], None]] = {
    InsertRecord: _Redo.change, DeleteRecord: _Redo.change,
    UpdateRecord: _Redo.change, CLRecord: _Redo.clr,
    CreateTableRecord: _Redo.create_table, DropTableRecord: _Redo.drop_table,
    RenameTableRecord: _Redo.rename_table, TransformSwapRecord: _Redo.swap,
    TransformRetireRecord: _Redo.retire}
