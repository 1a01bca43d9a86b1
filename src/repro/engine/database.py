"""The execution engine: transactional operations over the storage layer.

:class:`Database` glues the catalog, WAL, lock manager and transaction
manager together and exposes the operation set the paper's workload uses
(Section 6: transactions that read and update individual records under
record locks), plus the DDL and hooks the transformation framework needs:

* strict two-phase locking with wait queues and deadlock detection; all
  write operations take exclusive record locks (the paper's propagation
  rules assume "all write operations on the source tables use exclusive
  locks; i.e. delta updates are not allowed");
* ARIES-style logging: every change appends a redo+undo record; rollback
  walks the undo chain emitting Compensating Log Records;
* table latches and blocked tables for the synchronization strategies;
* **lock mirrors**: during non-blocking-commit synchronization, locks taken
  on a source table must simultaneously be taken on the transformed table
  and vice versa (Section 3.4/4.3); registered mirror objects are consulted
  on every lock acquisition;
* **triggers**: synchronous post-operation callbacks running inside the
  user transaction, installed by ``population_mode="trigger"``
  (Ronström's method, Section 2.1);
* a **wake channel**: lock releases report which parked transactions became
  runnable; the simulator subscribes to re-schedule their clients.

The engine is single-threaded and re-entrant: an operation that must wait
raises :class:`~repro.common.errors.LockWaitError` after enqueueing its lock
request, and the *same* call is retried after wake-up.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common.errors import (
    LockWaitError,
    NoSuchRowError,
    NoSuchTableError,
    TransactionAbortedError,
    TransactionStateError,
)
from repro.concurrency.lock_manager import LockManager
from repro.concurrency.locks import LockMode, record_resource, table_resource
from repro.concurrency.transactions import (
    Transaction,
    TransactionManager,
    TxnState,
)
from repro.faults import NULL_FAULTS, FaultInjector, register_site
from repro.obs import NULL_METRICS, Metrics
from repro.storage.catalog import Catalog
from repro.storage.mvcc import TOMBSTONE, MvccManager
from repro.storage.schema import TableSchema
from repro.storage.table import Table
from repro.wal.log import FlushPolicy, LogManager
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
    UpdateRecord,
)

#: Signature of a trigger: ``fn(db, txn, log_record)``, run synchronously
#: inside the user transaction right after the operation is applied.
TriggerFn = Callable[["Database", Transaction, LogRecord], None]

SITE_TXN_COMMIT = register_site(
    "txn.commit", "engine", "before the commit record is appended")
SITE_TXN_COMMIT_LOGGED = register_site(
    "txn.commit.logged", "engine",
    "after commit+end are logged, before locks are released")
SITE_TXN_ABORT = register_site(
    "txn.abort", "engine", "before the abort record is appended")
SITE_TXN_ROLLBACK_CLR = register_site(
    "txn.rollback.clr", "engine",
    "before each compensating log record during rollback")


class Database:
    """An in-memory, logged, locking relational database."""

    def __init__(self, log: Optional[LogManager] = None,
                 metrics: Optional[Metrics] = None,
                 faults: Optional[FaultInjector] = None,
                 flush_policy: Optional[FlushPolicy] = None) -> None:
        #: Observability registry shared by the engine, its log manager
        #: and its lock manager; the no-op singleton unless one is passed
        #: here (or attached later via :meth:`attach_metrics`).
        self.metrics = metrics if metrics is not None else NULL_METRICS
        #: Fault injector shared by the engine, catalog, tables and log;
        #: the no-op singleton unless one is passed here (or attached
        #: later via :meth:`attach_faults`).
        self.faults = faults if faults is not None else NULL_FAULTS
        self.catalog = Catalog()
        self.log = log if log is not None else LogManager(self.metrics)
        if metrics is not None and self.log.metrics is NULL_METRICS:
            self.log.metrics = self.metrics
        if flush_policy is not None:
            self.log.flush_policy = flush_policy
        self.locks = LockManager(self.metrics)
        self.txns = TransactionManager()
        # Rollback walks an active transaction's undo chain: a durable
        # log keeps it as objects from the oldest one's first record.
        self.log.pins.append(self.txns.oldest_first_lsn)
        #: Mirror objects consulted on every record-lock acquisition; see
        #: :class:`repro.transform.sync.LockMirror`.
        self.lock_mirrors: List[object] = []
        #: Hooks fired on record reads/updates, after the record lock is
        #: granted and before the row is fetched; lazy population's
        #: migrate-on-read path (:class:`repro.transform.lazy.LazyMigrator`)
        #: installs itself here for the duration of POPULATING.
        self.access_hooks: List[object] = []
        self._triggers: Dict[str, List[TriggerFn]] = {}
        self._blocked_waiters: Dict[str, List[int]] = {}
        #: Multi-version overlay (:class:`repro.storage.mvcc.MvccManager`)
        #: once :meth:`enable_mvcc` has been called; ``None`` under the
        #: default latch-based storage.
        self.mvcc: Optional[MvccManager] = None
        #: Callback invoked with the ids of transactions woken by a lock
        #: release / unlatch / unblock; set by the simulator.
        self.on_wake: Optional[Callable[[List[int]], None]] = None
        #: Operation counters, read by the simulator's cost accounting.
        self.stats: Dict[str, int] = {
            "insert": 0, "delete": 0, "update": 0, "read": 0,
            "commit": 0, "abort": 0, "trigger": 0,
        }
        # Last: attaching reaches into the catalog, the log and the MVCC
        # overlay slot set up above.
        if faults is not None:
            self.attach_faults(faults)

    def attach_metrics(self, metrics: Metrics) -> None:
        """Switch the engine (and its log/lock managers) to ``metrics``.

        Lets an already-populated database be observed from now on -- the
        simulator's ``observe`` mode attaches a registry right before the
        measured run so bulk-load noise is excluded.
        """
        self.metrics = metrics
        self.log.metrics = metrics
        self.locks.metrics = metrics

    def attach_faults(self, faults: FaultInjector) -> None:
        """Switch the engine, catalog, tables and log to ``faults``.

        The sweep harness attaches an injector right before the fault it
        wants to exercise, so setup (bulk load, transformation creation)
        never trips a site.  Detach by attaching :data:`NULL_FAULTS`.
        """
        self.faults = faults
        self.catalog.attach_faults(faults)
        self.log.faults = faults
        if self.mvcc is not None:
            self.mvcc.faults = faults

    def enable_mvcc(self) -> MvccManager:
        """Switch on the multi-version overlay; idempotent.

        From here on every :meth:`begin` pins a snapshot, every commit
        stamps the transaction's final images at its commit LSN, and
        table names resolve through the pinned catalog epoch for
        transactions that began before a version flip.  The physical
        heap, logging, locking and recovery are unchanged -- the overlay
        only *remembers* superseded committed images.
        """
        if self.mvcc is None:
            self.mvcc = MvccManager(self)
        return self.mvcc

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------

    def create_table(self, schema: TableSchema,
                     transient: bool = False) -> Table:
        """Create a table; logs a DDL record.

        Args:
            schema: The new table's schema.
            transient: Mark the table as a transformation target whose
                content is not recoverable from the log (restart recovery
                discards transient tables; the transformation is restarted
                instead, per the paper's abort-on-trouble policy).
        """
        table = self.catalog.create_table(schema)
        self.log.append(CreateTableRecord(schema=schema, transient=transient))
        return table

    def drop_table(self, name: str) -> None:
        """Drop a table; logs a DDL record."""
        self.catalog.drop_table(name)
        self.log.append(DropTableRecord(table=name))

    def rename_table(self, old: str, new: str) -> None:
        """Rename a table; logs a DDL record."""
        self.catalog.rename_table(old, new)
        self.log.append(RenameTableRecord(old_name=old, new_name=new))

    def table(self, name: str) -> Table:
        """Visible table object by name (catalog lookup)."""
        return self.catalog.get(name)

    def checkpoint(self) -> int:
        """Write a fuzzy checkpoint; returns its LSN.

        Records the active-transaction table (id -> last LSN) so restart
        analysis can start from the checkpoint instead of the log head.
        Being a main-memory system, no pages are flushed; the checkpoint
        only bounds the analysis scan (redo still replays from the start
        of the log, as the data lives in memory only).
        """
        active = {t.txn_id: t.last_lsn for t in self.txns.active_txns()}
        return self.log.append(CheckpointRecord(active_txns=active))

    # ------------------------------------------------------------------
    # Transaction life cycle
    # ------------------------------------------------------------------

    def begin(self, start_time: float = 0.0) -> Transaction:
        """Start a new transaction (logs its begin record)."""
        txn = self.txns.begin(start_time)
        lsn = self.log.append(BeginRecord(txn_id=txn.txn_id))
        txn.note_record(lsn)
        if self.mvcc is not None:
            self.mvcc.on_begin(txn)
        return txn

    def commit(self, txn: Transaction) -> None:
        """Commit: log commit + end, force the log, release all locks."""
        self._require_active(txn)
        faults = self.faults
        if faults.enabled:
            faults.fire(SITE_TXN_COMMIT, txn_id=txn.txn_id)
        lsn = self.log.append(CommitRecord(txn_id=txn.txn_id),
                              prev_lsn=txn.last_lsn)
        txn.note_record(lsn)
        self.log.append(EndRecord(txn_id=txn.txn_id, committed=True),
                        prev_lsn=txn.last_lsn)
        # Logged commit: the transaction can no longer roll back, so its
        # undo chain pins nothing when the flush releases written records.
        self.txns.finished(txn, TxnState.COMMITTED)
        self.log.request_flush()
        if faults.enabled:
            faults.fire(SITE_TXN_COMMIT_LOGGED, txn_id=txn.txn_id)
        if self.mvcc is not None:
            # Stamp the transaction's final images at its commit LSN
            # before the X locks drop: the next writer's chain seed must
            # observe post-commit state.
            self.mvcc.on_commit(txn, lsn)
        self.stats["commit"] += 1
        self._release_locks(txn)

    def abort(self, txn: Transaction) -> None:
        """Roll back: undo the chain with CLRs, log abort + end, release."""
        if txn.is_finished:
            return
        if txn.state not in (TxnState.ACTIVE, TxnState.ROLLING_BACK):
            raise TransactionStateError(
                f"cannot abort transaction in state {txn.state}")
        txn.state = TxnState.ROLLING_BACK
        if self.faults.enabled:
            self.faults.fire(SITE_TXN_ABORT, txn_id=txn.txn_id)
        lsn = self.log.append(AbortRecord(txn_id=txn.txn_id),
                              prev_lsn=txn.last_lsn)
        txn.note_record(lsn)
        self._rollback(txn)
        self.log.append(EndRecord(txn_id=txn.txn_id, committed=False),
                        prev_lsn=txn.last_lsn)
        # Rolled back: nothing of it is undone again, so it pins nothing.
        self.txns.finished(txn, TxnState.ABORTED)
        self.log.request_flush()
        if self.mvcc is not None:
            # Pending images never reached a chain; the CLR chain above
            # already restored the heap to committed state.
            self.mvcc.on_abort(txn)
        self.stats["abort"] += 1
        self._release_locks(txn)

    def _rollback(self, txn: Transaction) -> None:
        """Walk the undo chain, compensating each data change."""
        lsn = self.log.record_at(txn.last_lsn).prev_lsn
        while lsn != NULL_LSN:
            record = self.log.record_at(lsn)
            if isinstance(record, CLRecord):
                lsn = record.undo_next_lsn
                continue
            compensation = self._compensation_of(record)
            if compensation is not None:
                # Against the table's current name (an in-place swap
                # may have renamed it since, see Catalog.name_at).
                compensation.table = self.catalog.name_at(record.table, lsn)
                if self.faults.enabled:
                    self.faults.fire(SITE_TXN_ROLLBACK_CLR,
                                     txn_id=txn.txn_id, undo_lsn=lsn)
                # The action carries its CLR's LSN, set before the
                # append: a logged record never changes afterwards (its
                # frame is what a durable log reads back).
                compensation.lsn = self.log.next_lsn
                clr = CLRecord(txn_id=txn.txn_id, action=compensation,
                               undo_next_lsn=record.prev_lsn)
                clr_lsn = self.log.append(clr, prev_lsn=txn.last_lsn)
                txn.note_record(clr_lsn)
                self._apply_change(compensation, clr_lsn)
                # Triggers see compensations too (trigger population
                # must undo its maintenance work on rollback).
                self._fire_triggers(compensation.table, txn, compensation)
            lsn = record.prev_lsn

    @staticmethod
    def _compensation_of(record: LogRecord) -> Optional[LogRecord]:
        """Build the compensating data-change for one undo-chain record."""
        if isinstance(record, InsertRecord):
            return DeleteRecord(txn_id=record.txn_id, table=record.table,
                                key=record.key,
                                old_values=dict(record.values))
        if isinstance(record, DeleteRecord):
            return InsertRecord(txn_id=record.txn_id, table=record.table,
                                key=record.key,
                                values=dict(record.old_values))
        if isinstance(record, UpdateRecord):
            return UpdateRecord(txn_id=record.txn_id, table=record.table,
                                key=record.key,
                                changes=dict(record.old_values),
                                old_values=dict(record.changes))
        return None

    def _apply_change(self, change: LogRecord, lsn: int) -> None:
        """Physically apply a (compensating) data change to its table."""
        table = self.catalog.get_any(change.table)
        if isinstance(change, InsertRecord):
            table.insert_row(change.values, lsn=lsn)
        elif isinstance(change, DeleteRecord):
            table.delete_key(change.key)
        elif isinstance(change, UpdateRecord):
            table.update_key(change.key, change.changes, lsn=lsn)

    def _release_locks(self, txn: Transaction) -> None:
        self._notify_woken(self.locks.release_all(txn.txn_id))

    def _notify_woken(self, woken: List[int]) -> None:
        if not woken or self.on_wake is None:
            return
        # Proxy lock owners (the propagator holding a transaction's
        # mirrored locks under the negated id) wake the transaction itself.
        seen = set()
        translated: List[int] = []
        for txn_id in woken:
            real = abs(txn_id)
            if real not in seen:
                seen.add(real)
                translated.append(real)
        self.on_wake(translated)

    def _require_active(self, txn: Transaction) -> None:
        if txn.doomed:
            # Forced abort (non-blocking-abort synchronization): roll the
            # transaction back if that has not happened yet, and surface
            # the abort to the caller.
            if not txn.is_finished:
                self.abort(txn)
            raise TransactionAbortedError(txn.txn_id, txn.doom_reason)
        if txn.state is not TxnState.ACTIVE:
            raise TransactionStateError(
                f"transaction {txn.txn_id} is {txn.state.value}")

    # ------------------------------------------------------------------
    # Table resolution and admission control
    # ------------------------------------------------------------------

    def _resolve(self, txn: Transaction, name: str,
                 for_write: bool = False) -> Table:
        """Resolve a table name for a transaction.

        Old transactions (those that touched a source table before a
        non-blocking swap) keep seeing their table under its original name
        through the zombie namespace -- an in-place zombie under the name
        the swap gave it (:meth:`Catalog.name_at`), which the swap notes
        in their ``tables_touched``; everyone else sees the public catalog.
        Blocked tables (blocking-commit synchronization) park transactions
        that have not already accessed them.  Under MVCC, a transaction
        whose snapshot pinned an older catalog epoch resolves through the
        frozen pre-flip mapping instead (snapshot isolation for schema:
        the flip is invisible until the transaction finishes).
        """
        if self.mvcc is not None:
            pinned = self._resolve_pinned_epoch(txn, name, for_write)
            if pinned is not None:
                return pinned
        touched = self.catalog.name_at(name)
        if touched in txn.tables_touched:
            return self.catalog.get_any(touched)
        if self.catalog.exists(name):
            if self.catalog.is_blocked(name):
                if self.locks.locks_of(txn.txn_id):
                    # Liveness: a newcomer holding locks on other tables
                    # must not park here -- a draining old transaction may
                    # be waiting on those very locks, deadlocking the
                    # blocking-commit synchronization against its own
                    # block.  Abort the newcomer instead (the lock-wait-
                    # timeout/kill resolution real systems apply to DDL
                    # vs. DML conflicts); it can retry after the swap.
                    txn.doom(f"table {name!r} is blocked by a schema "
                             "transformation")
                    self.abort(txn)
                    raise TransactionAbortedError(txn.txn_id,
                                                  txn.doom_reason)
                waiters = self._blocked_waiters.setdefault(name, [])
                if txn.txn_id not in waiters:
                    waiters.append(txn.txn_id)
                # The blocker is the sync strategy that blocked the
                # table; the board's ("blocked", name) owner defaults to
                # the sync role unless a strategy registered otherwise.
                self.metrics.blame.begin_wait(
                    txn.txn_id, ("blocked", name), (("blocked", name),),
                    "blocked")
                raise LockWaitError(("blocked", name), txn.txn_id)
            return self.catalog.get(name)
        raise NoSuchTableError(name)

    def _resolve_pinned_epoch(self, txn: Transaction, name: str,
                              for_write: bool) -> Optional[Table]:
        """Resolve through a pinned pre-flip catalog epoch, if any.

        ``None`` means the transaction reads the current epoch (no pin,
        pinned at the current version, or the name maps to the same
        table object in both) and the caller should resolve normally.
        A name that only exists post-flip raises
        :class:`NoSuchTableError` -- a reader pinned before the flip
        never observes the new schema.  Writes to a retired table are
        only allowed for the in-flight transactions whose locks the flip
        materialized (``mvcc.write_through``); anyone else is doomed,
        mirroring the first-updater-wins rule of snapshot databases.
        """
        mapping = self.mvcc.names_for(txn)
        if mapping is None:
            return None
        table = mapping.get(name)
        if table is None:
            raise NoSuchTableError(name)
        if self.catalog.exists(name) and self.catalog.get(name) is table:
            return None
        if for_write and txn.txn_id not in self.mvcc.write_through:
            txn.doom(f"table {name!r} changed schema version after this "
                     "transaction's snapshot was pinned")
            self.abort(txn)
            raise TransactionAbortedError(txn.txn_id, txn.doom_reason)
        return table

    def unblock_tables(self, names: Sequence[str]) -> None:
        """Lift blocking-commit blocks and wake parked transactions."""
        self.catalog.unblock(names)
        woken: List[int] = []
        for name in names:
            parked = self._blocked_waiters.pop(name, [])
            for waiter in parked:
                self.metrics.blame.end_wait(waiter, ("blocked", name))
            woken.extend(parked)
        self._notify_woken(woken)

    def latch_table(self, table: Table, owner: str) -> None:
        """Take the exclusive table latch (transformation sync only).

        The engine-level counterpart of :meth:`unlatch_table`, so the two
        halves of a latched window go through the same bookkeeping layer
        (latch metrics and trace events live in the lock manager; any
        future engine-level accounting hooks in here symmetrically).
        """
        self.locks.latch_table(table.uid, owner)

    def unlatch_table(self, table: Table, owner: str) -> None:
        """Drop a table latch and wake operations parked on it."""
        woken = self.locks.unlatch_table(table.uid, owner)
        self._notify_woken(woken)

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------

    def _lock_record(self, txn: Transaction, table: Table, key: Tuple,
                     mode: LockMode) -> None:
        locks, uid, txn_id = self.locks, table.uid, txn.txn_id
        locks.check_latch(uid, txn_id)
        # Multigranularity: intention lock on the table, then the record.
        locks.acquire(txn_id, table_resource(uid),
                      LockMode.IX if mode.is_write else LockMode.IS)
        locks.acquire(txn_id, record_resource(uid, key), mode)
        for mirror in self.lock_mirrors:
            mirror.on_lock(self, txn, table, key, mode)

    def _fire_access_hooks(self, txn: Transaction, table_name: str,
                           key: Tuple) -> None:
        """Run the installed access hooks for a locked read/update target.

        Runs synchronously inside the accessing transaction, after the
        record lock is granted (so the row the hook sees is stable) and
        before the row is fetched (so a migrate-on-read hook completes
        before the caller observes the record).
        """
        for hook in self.access_hooks:
            hook.on_access(self, txn, table_name, key)

    def lock_table(self, txn: Transaction, table_name: str,
                   mode: LockMode = LockMode.S) -> None:
        """Take an explicit table-granularity lock (S/X, or SIX).

        Conflicts with other transactions' intention locks per the
        multigranularity matrix: a table S lock blocks writers of any
        record, a table X lock blocks everything.
        """
        self._require_active(txn)
        table = self._resolve(txn, table_name, for_write=mode.is_write)
        self.locks.check_latch(table.uid, txn.txn_id)
        self.locks.acquire(txn.txn_id, table_resource(table.uid), mode)
        txn.tables_touched.add(table.name)

    def select_all(self, txn: Transaction,
                   table_name: str) -> List[Dict[str, object]]:
        """Read every row of a table under a table-granularity S lock.

        The blocking full read the paper's INSERT INTO ... SELECT baseline
        performs -- provided for completeness; the transformation framework
        itself only ever reads fuzzily.
        """
        self.lock_table(txn, table_name, LockMode.S)
        table = self._resolve(txn, table_name)
        self.stats["read"] += 1
        return [dict(row.values) for row in table.scan()]

    def insert(self, txn: Transaction, table_name: str,
               values: Mapping[str, object]) -> Tuple:
        """Insert a row; returns its primary-key tuple.

        Takes an exclusive record lock on the new key, logs an insert
        record with the full row image, applies it, and fires triggers.
        A duplicate primary or candidate key is refused before anything
        is logged: the rollback of a logged insert would delete the row
        already there.
        """
        self._require_active(txn)
        table = self._resolve(txn, table_name, for_write=True)
        normalized = table.schema.normalize(values)
        key = table.schema.key_of(normalized)
        self._lock_record(txn, table, key, LockMode.X)
        table.check_unique(normalized)
        record = InsertRecord(txn_id=txn.txn_id, table=table.name,
                              key=key, values=normalized)
        lsn = self.log.append(record, prev_lsn=txn.last_lsn)
        txn.note_record(lsn)
        table.insert_row(normalized, lsn=lsn)
        if self.mvcc is not None:
            self.mvcc.note_write(txn, table, None, dict(normalized))
        txn.tables_touched.add(table.name)
        self.stats["insert"] += 1
        self._fire_triggers(table.name, txn, record)
        return key

    def delete(self, txn: Transaction, table_name: str, key: Tuple) -> None:
        """Delete the row with the given primary key."""
        self._require_active(txn)
        table = self._resolve(txn, table_name, for_write=True)
        key = tuple(key)
        self._lock_record(txn, table, key, LockMode.X)
        rowid = table.rowid_of(key)
        if rowid is None:
            raise NoSuchRowError(table.name, key)
        values = table.rows[rowid]
        record = DeleteRecord(txn_id=txn.txn_id, table=table.name, key=key,
                              old_values=dict(values))
        lsn = self.log.append(record, prev_lsn=txn.last_lsn)
        txn.note_record(lsn)
        if self.mvcc is not None:
            self.mvcc.note_write(txn, table, dict(values), TOMBSTONE,
                                 before_lsn=table.lsns[rowid])
        table.delete_rowid(rowid)
        txn.tables_touched.add(table.name)
        self.stats["delete"] += 1
        self._fire_triggers(table.name, txn, record)

    def update(self, txn: Transaction, table_name: str, key: Tuple,
               changes: Mapping[str, object]) -> None:
        """Update non-key attributes of the row with the given key.

        The log record carries only the changed attributes (and their old
        values for undo), matching the paper's update-record contents.
        """
        self._require_active(txn)
        table = self._resolve(txn, table_name, for_write=True)
        table.schema.validate_changes(changes)
        key = tuple(key)
        self._lock_record(txn, table, key, LockMode.X)
        self._fire_access_hooks(txn, table.name, key)
        rowid = table.rowid_of(key)
        if rowid is None:
            raise NoSuchRowError(table.name, key)
        values = table.rows[rowid]
        # The one copy of the caller's mapping: the log record's image,
        # which storage reads (``update_rowid`` keeps no reference to it).
        changes = dict(changes)
        old_values = {attr: values[attr] for attr in changes}
        before = None if self.mvcc is None else dict(values)
        before_lsn = table.lsns[rowid]
        record = UpdateRecord(txn_id=txn.txn_id, table=table.name, key=key,
                              changes=changes, old_values=old_values)
        lsn = self.log.append(record, prev_lsn=txn.last_lsn)
        txn.note_record(lsn)
        table.update_rowid(rowid, changes, lsn=lsn)
        if self.mvcc is not None:
            self.mvcc.note_write(txn, table, before, dict(values),
                                 before_lsn=before_lsn)
        txn.tables_touched.add(table.name)
        self.stats["update"] += 1
        self._fire_triggers(table.name, txn, record)

    def read(self, txn: Transaction, table_name: str,
             key: Tuple) -> Optional[Dict[str, object]]:
        """Read a row under a shared lock; returns a copy or ``None``."""
        self._require_active(txn)
        table = self._resolve(txn, table_name)
        key = tuple(key)
        self._lock_record(txn, table, key, LockMode.S)
        self._fire_access_hooks(txn, table.name, key)
        txn.tables_touched.add(table.name)
        self.stats["read"] += 1
        rowid = table.rowid_of(key)
        return None if rowid is None else dict(table.rows[rowid])

    def read_index(self, txn: Transaction, table_name: str, index_name: str,
                   key: Tuple) -> List[Dict[str, object]]:
        """Read all rows matching ``key`` in an index, S-locking each."""
        self._require_active(txn)
        table = self._resolve(txn, table_name)
        rows = table.lookup(index_name, tuple(key))
        result = []
        for row in rows:
            self._lock_record(txn, table, table.lock_key(row.values),
                              LockMode.S)
            result.append(dict(row.values))
        txn.tables_touched.add(table.name)
        self.stats["read"] += 1
        return result

    # ------------------------------------------------------------------
    # Triggers (population_mode="trigger")
    # ------------------------------------------------------------------

    def create_trigger(self, table_name: str, fn: TriggerFn) -> None:
        """Install a synchronous post-operation trigger on a table."""
        self._triggers.setdefault(table_name, []).append(fn)

    def drop_triggers(self, table_name: str) -> None:
        """Remove all triggers from a table."""
        self._triggers.pop(table_name, None)

    def _fire_triggers(self, table_name: str, txn: Transaction,
                       record: LogRecord) -> None:
        for fn in self._triggers.get(table_name, ()):  # inside user txn
            self.stats["trigger"] += 1
            fn(self, txn, record)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def run(self, fn: Callable[["Database", Transaction], object]) -> object:
        """Run ``fn(db, txn)`` in a fresh transaction, commit on success.

        Rolls back and re-raises on any exception.  Single-threaded callers
        must not encounter lock waits; a :class:`LockWaitError` escaping
        here indicates a genuine bug or a latched table.
        """
        txn = self.begin()
        try:
            result = fn(self, txn)
        except BaseException:
            self.abort(txn)
            raise
        self.commit(txn)
        return result
