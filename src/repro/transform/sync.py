"""The synchronization strategies of Section 3.4, as one handover.

All of them end the transformation by bringing the transformed tables to
an action-consistent state with the (briefly latched or blocked) source
tables, swapping the schema, and redirecting new transactions; they
differ in what happens to the *old* transactions, those still active on
the sources: drained first (:class:`BlockingCommitSync`), forced to abort
(:class:`NonBlockingAbortSync`), or carried across the swap
(:class:`NonBlockingCommitSync`, and :class:`VersionFlipSync` without a
latch).

Lock materialization covers (a) the write locks recorded in the propagated
lock table during log propagation and (b) the locks currently held in the
lock manager on source records (which include *read* locks, invisible to
the log), mapped through the rule engine's lock mapping.  Materialized
locks are held by a per-transaction *proxy owner* so they survive the
transaction's own end and are released only when the propagator meets the
end record -- before that, the transaction's effects may not yet have
reached the transformed tables.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from repro.concurrency.locks import LockMode, LockOrigin, record_resource
from repro.concurrency.transactions import Transaction
from repro.engine.database import Database
from repro.faults import register_site
from repro.obs.blame import ROLE_LATCHED_WINDOW, ROLE_SYNC
from repro.storage.mvcc import SITE_MVCC_FLIP
from repro.storage.table import Table
from repro.transform.base import (
    Phase,
    SyncStrategy,
    Transformation,
    proxy_owner,
)
from repro.wal.records import (
    CatalogFlipRecord,
    DropTableRecord,
    FuzzyMarkRecord,
    TransformSwapRecord,
)

SITE_SYNC_LATCH = register_site(
    "sync.latch", "sync", "before the source-table latches are taken")
SITE_SYNC_LATCHED = register_site(
    "sync.latched", "sync",
    "inside the critical section, all source latches held")
SITE_SYNC_FINAL_PROP = register_site(
    "sync.final_propagation", "sync",
    "before a final-propagation batch inside the latched/blocked window")
SITE_SYNC_MATERIALIZE = register_site(
    "sync.materialize", "sync",
    "before propagated locks are materialized into the lock manager")
SITE_SYNC_PRE_SWAP = register_site(
    "sync.pre_swap", "sync",
    "caught up, locks materialized, right before the swap record")
SITE_SYNC_SWAP_LOGGED = register_site(
    "sync.swap.logged", "sync",
    "just after the TransformSwapRecord hits the log, before the "
    "catalog swap")
SITE_SYNC_SWAPPED = register_site(
    "sync.swapped", "sync", "just after the atomic catalog swap")
SITE_SYNC_UNLATCH = register_site(
    "sync.unlatch", "sync", "before the source latches are dropped")
SITE_SYNC_FINISH = register_site(
    "sync.finish", "sync", "before the end mark completes the transform")
SITE_SYNC_BLOCK = register_site(
    "sync.block", "sync",
    "before new transactions are blocked (blocking commit)")
SITE_SYNC_DRAIN = register_site(
    "sync.drain", "sync",
    "while draining active transactions (blocking commit)")
SITE_SYNC_DOOM = register_site(
    "sync.doom", "sync",
    "before old transactions are doomed (non-blocking abort)")
SITE_SYNC_MIRROR_INSTALL = register_site(
    "sync.mirror.install", "sync",
    "before the LockMirror is installed (non-blocking commit)")
SITE_SYNC_BACKGROUND = register_site(
    "sync.background.step", "sync",
    "before each post-swap background propagation step")


def build_sync_executor(tf: Transformation) -> "_SyncExecutor":
    """The executor of ``tf``'s strategy.  A transformation that retires
    nothing (:attr:`Transformation.retires`, a view) hands over through
    the plain latched window whatever its strategy: no transaction is
    old, so there is nobody to block, doom or mirror, and no flip."""
    if not tf.retires:
        return _SyncExecutor(tf)
    return {
        SyncStrategy.BLOCKING_COMMIT: BlockingCommitSync,
        SyncStrategy.NONBLOCKING_ABORT: NonBlockingAbortSync,
        SyncStrategy.NONBLOCKING_COMMIT: NonBlockingCommitSync,
        SyncStrategy.VERSION_FLIP: VersionFlipSync,
    }[tf.options.sync_strategy](tf)


class _SyncExecutor:
    """The one handover, run by the SYNCHRONIZING and BACKGROUND rows of
    :attr:`Transformation.MACHINE`; :meth:`step` returns the next phase.

    Every strategy runs the same sequence: catch up with the log (inside
    a brief source latch, or chasing the tail unlatched), then -- in the
    step the catch-up completes -- materialize the old transactions'
    locks, write the swap record, swap, and let the window go; old
    transactions still alive keep the executor propagating in the
    BACKGROUND phase until the last one ends.  The strategies are
    settings of the class attributes below.  :attr:`state` is private
    to SYNCHRONIZING: ``"start"``, then ``"final"`` (latched) or
    ``"chase"``; blocking commit adds ``"drain"``.

    :meth:`step` is the exception-safe window for all of them: whatever
    dies between taking a latch or block and releasing it -- injected
    faults included -- goes through :meth:`cleanup` before propagating,
    so no failure leaks a table latch, parks newcomers forever on a
    blocked table, or leaves a lock mirror installed.
    """

    #: Open the window by latching the sources in the first step.  Else
    #: there is no latch: the version flip chases the log tail with no
    #: critical section at all; blocking commit opens a window of its
    #: own kind, a block.
    latches = True
    #: Force the old transactions to abort right after the swap.
    dooms = False
    #: Keep old transactions running behind a two-way :class:`LockMirror`.
    mirrors = False
    #: Install the swap as a versioned catalog write (MVCC epochs).
    flips = False

    def __init__(self, tf: Transformation) -> None:
        self.tf = tf
        self.db: Database = tf.db
        self.metrics = tf.metrics
        self.state = "start"
        self.mirror: Optional[LockMirror] = None
        #: Units spent while the source tables were latched/blocked -- the
        #: quantity behind the paper's "< 1 ms" synchronization claim.
        self.latched_units = 0
        #: Whether the latched/blocked critical section is open.
        self.in_window = False
        #: Span of the critical section; batch spans nest under it.
        self.window_span = None
        #: Tables this executor currently holds the latch on; the basis of
        #: the exception-safe window (see :meth:`cleanup`).
        self._latched_tables: List[Table] = []

    @property
    def faults(self):
        """The database's fault injector (read dynamically)."""
        return self.tf.faults

    # -- the state machine ------------------------------------------------------

    @property
    def urgent(self) -> bool:
        """In (or about to take) the critical section; not while blocking
        commit drains -- it waits for the transactions it would starve."""
        return self.in_window or self.latches and self.state == "start"

    def step(self, budget: int) -> Tuple[int, Phase]:
        """Advance the synchronization; returns (units, next phase)."""
        try:
            return self._advance(budget)
        except BaseException:
            self.cleanup()
            raise

    def _advance(self, budget: int) -> Tuple[int, Phase]:
        if self.tf.phase is Phase.BACKGROUND:
            # Post-swap propagation while old transactions live.
            self.faults.fire(SITE_SYNC_BACKGROUND,
                             transform=self.tf.transform_id)
            units, caught_up = self._final_propagation(budget)
            if not caught_up or any(map(self.db.txns.exists,
                                        self.tf._old_txn_ids)):
                return units, Phase.BACKGROUND
            self._remove_mirror()
            return units, self._finish()
        if self.state == "start":
            if self.latches:
                self._latch_sources()
                self._note_latched(1)
            # Latched: the final propagation.  Else there is no window
            # at all (the version flip): the chase.
            self.state = "final" if self.latches else "chase"
            return 1, Phase.SYNCHRONIZING
        return self._hand_over(budget)

    def _hand_over(self, budget: int) -> Tuple[int, Phase]:
        """Catch up with the log; once caught up, swap and hand over.

        From catch-up to the end of the step nothing interleaves: either
        the sources are latched/blocked, or -- unlatched -- the engine
        is cooperative and cannot run user operations inside one step,
        so catch-up completeness still holds at the catalog write.
        """
        tf, db = self.tf, self.db
        units, caught_up = self._final_propagation(budget)
        if self.in_window:
            self._note_latched(units)
        if not caught_up:
            return max(units, 1), Phase.SYNCHRONIZING
        retired = tuple(tf.source_tables) if tf.retires else ()
        old_txns = db.txns.active_on(retired)
        old_ids = tf._old_txn_ids = {t.txn_id for t in old_txns}
        self._materialize_locks(old_txns)
        tf._pre_swap()
        swap_lsn = self._write_swap_record(
            retired, doomed=sorted(old_ids) if self.dooms else ())
        if self.flips:
            self._log_flip(retired, old_ids)
        swap = db.catalog.flip if self.flips else db.catalog.swap
        swap(tf.transform_id, retired, dict(tf.targets),
             keep_zombies=bool(old_txns), lsn=swap_lsn)
        for name in set(retired) & set(tf.targets):
            # An in-place source lives on under its zombie name: the rules
            # and the old transactions follow it there.
            zombie = db.catalog.name_at(name)
            tf.engine.rename_source(name, zombie)
            for txn in old_txns:
                if name in txn.tables_touched:
                    txn.tables_touched.add(zombie)
        self.faults.fire(SITE_SYNC_SWAPPED, transform=tf.transform_id)
        if self.dooms:
            self._doom(old_txns)
        if self.mirrors and old_txns:
            self.faults.fire(SITE_SYNC_MIRROR_INSTALL,
                             transform=tf.transform_id)
            self.mirror = LockMirror(tf)
            db.lock_mirrors.append(self.mirror)
        if self.in_window:
            self._release_window()
        phase = Phase.BACKGROUND if old_txns else self._finish()
        if self.flips:
            # Reclaim versions and epochs below the surviving pins.
            db.mvcc.gc()
        return max(units, 1), phase

    # -- building blocks ------------------------------------------------------

    def _source_objects(self) -> List[Table]:
        return [self.db.catalog.get(name) for name in self.tf.source_tables]

    def _open_window(self) -> None:
        """Trace the start of the latched/blocked critical section."""
        self.in_window = True
        self.metrics.trace("sync.window.open",
                           transform=self.tf.transform_id,
                           strategy=self.tf.options.sync_strategy.value,
                           tables=tuple(self.tf.source_tables))
        if self.metrics.enabled:
            self.window_span = self.metrics.begin_span(
                "sync.window", parent=self.tf._phase_span,
                transform=self.tf.transform_id,
                strategy=self.tf.options.sync_strategy.value)

    def _latch_sources(self) -> None:
        self.faults.fire(SITE_SYNC_LATCH, transform=self.tf.transform_id)
        self._open_window()
        # Blame: latch waits parked behind this owner are charged to the
        # latched window, not to generic sync work.
        self.metrics.blame.set_role(self.tf.transform_id,
                                    ROLE_LATCHED_WINDOW)
        for table in self._source_objects():
            # Engine-level latch entry point, symmetric with
            # _release_window below -- both halves of the latched window
            # go through Database-level bookkeeping.  Tracking each latch
            # as it is taken means cleanup() releases exactly what was
            # acquired even if this loop dies halfway.
            self.db.latch_table(table, self.tf.transform_id)
            self._latched_tables.append(table)
        self.faults.fire(SITE_SYNC_LATCHED, transform=self.tf.transform_id)

    def _release_window(self) -> None:
        """The window's normal exit: drop the source latches."""
        self.faults.fire(SITE_SYNC_UNLATCH, transform=self.tf.transform_id)
        while self._latched_tables:
            self.db.unlatch_table(self._latched_tables.pop(0),
                                  self.tf.transform_id)
        self._close_latched_window()

    def cleanup(self) -> None:
        """Release every shared-system hold this executor may have.

        Called from the exception-safe wrapper in :meth:`step` and from
        :meth:`Transformation.abort`, so no failure path can leak a table
        latch, a blocked table or an installed lock mirror.  Idempotent.
        """
        for table in list(self._latched_tables):
            if self.db.locks.is_latched(table.uid):
                self.db.unlatch_table(table, self.tf.transform_id)
        self._latched_tables = []
        blocked = [name for name in self.tf.source_tables
                   if self.db.catalog.is_blocked(name)]
        if blocked:
            self.db.unblock_tables(blocked)
        self._remove_mirror()
        self._close_latched_window()

    def _note_latched(self, units: float) -> None:
        """Account ``units`` of work done inside the latched/blocked
        window (executor-local, cumulative stats, and metrics)."""
        self.latched_units += units
        self.tf.stats["sync_latch_units"] += units
        self.metrics.inc("sync.latched_units", units)

    def _close_latched_window(self) -> None:
        """Report the finished critical-section window, once; a window
        never opened reports nothing."""
        if not self.in_window:
            return
        self.in_window = False
        if self.metrics.enabled:
            self.metrics.observe("sync.latched_window", self.latched_units)
            self.metrics.trace("sync.window.close",
                               transform=self.tf.transform_id,
                               strategy=self.tf.options.sync_strategy.value,
                               latched_units=self.latched_units)
        if self.window_span is not None:
            self.window_span.attrs["latched_units"] = self.latched_units
            self.metrics.end_span(self.window_span)
            self.window_span = None

    def _final_propagation(self, budget: int) -> Tuple[int, bool]:
        """Propagate toward the current end of the log; (units, caught_up)."""
        self.faults.fire(SITE_SYNC_FINAL_PROP, transform=self.tf.transform_id,
                         state=self.state)
        self.tf._iteration_target = self.db.log.end_lsn
        units = self.tf._propagate_batch(budget)
        caught_up = self.tf._remaining() == 0
        return units, caught_up

    def _materialize_locks(self, txns: Sequence[Transaction]) -> None:
        """Install the maintained locks into the lock manager (Section 3.3:
        until now "they are ignored"; from now on they are real)."""
        engine = self.tf.engine
        assert engine is not None
        self.faults.fire(SITE_SYNC_MATERIALIZE,
                         transform=self.tf.transform_id,
                         txns=tuple(t.txn_id for t in txns))
        source_uids = {t.uid: t.name for t in self._source_objects()}
        for txn in txns:
            owner = proxy_owner(txn.txn_id)
            # Blame: waits behind materialized proxy locks are the sync
            # strategy's doing (explicit registration of the negative-id
            # default, so a later re-mapping cannot silently drift).
            self.metrics.blame.set_role(owner, ROLE_SYNC)
            # (a) write locks recorded by the propagator
            for resource in self.tf.locks_held.resources_of(txn.txn_id):
                self.db.locks.grant_direct(owner, resource, LockMode.X,
                                           LockOrigin.SOURCE_A)
            # (b) locks currently held on source records (includes reads)
            for resource in self.db.locks.locks_of(txn.txn_id):
                if resource[0] != "rec" or resource[1] not in source_uids:
                    continue
                table_name = source_uids[resource[1]]
                key = resource[2]
                mode = LockMode.X if self.db.locks.holds(
                    txn.txn_id, resource, LockMode.X) else LockMode.S
                for target, t_key in engine.targets_of_source_lock(
                        table_name, key):
                    self.db.locks.grant_direct(
                        owner, record_resource(target.uid, t_key),
                        mode, LockOrigin.SOURCE_A)

    def _write_swap_record(self, retired: Tuple[str, ...],
                           doomed: Sequence[int]) -> int:
        self.faults.fire(SITE_SYNC_PRE_SWAP, transform=self.tf.transform_id)
        lsn = self.db.log.append(TransformSwapRecord(
            transform_id=self.tf.transform_id,
            transform_kind=self.tf.kind,
            retired=retired,
            published={name: table.schema
                       for name, table in self.tf.targets.items()},
            params=self.tf._swap_params(),
            doomed_txns=tuple(doomed),
        ))
        self.faults.fire(SITE_SYNC_SWAP_LOGGED,
                         transform=self.tf.transform_id)
        return lsn

    def _log_flip(self, retired: Tuple[str, ...], old_ids: Set[int]) -> None:
        """Log the catalog flip the swap is about to perform."""
        mvcc = self.db.mvcc
        assert mvcc is not None, "version_flip requires storage='mvcc'"
        version = self.db.catalog.version + 1
        self.faults.fire(SITE_MVCC_FLIP, transform=self.tf.transform_id,
                         version=version)
        self.db.log.append(CatalogFlipRecord(
            transform_id=self.tf.transform_id, version=version,
            retired=retired, published=tuple(self.tf.targets)))
        # Writers active on the sources keep writing through the pinned
        # epoch; everyone else pinned pre-flip is read-only on the old
        # schema (first-updater-wins on conflict).
        mvcc.write_through.update(old_ids)

    def _doom(self, old_txns: Sequence[Transaction]) -> None:
        """Force the old transactions to abort: doom them (their next
        operation surfaces TransactionAbortedError) and roll them back
        now so their CLRs and abort records enter the log for the
        background propagator."""
        self.faults.fire(SITE_SYNC_DOOM, transform=self.tf.transform_id,
                         doomed=tuple(sorted(t.txn_id for t in old_txns)))
        # Each abort used to force its own log flush -- N redundant
        # flushes inside the latched window.  Coalescing defers them
        # into one group flush when the window's work is logged.
        with self.db.log.coalescing():
            for txn in old_txns:
                txn.doom(f"aborted by transformation "
                         f"{self.tf.transform_id} (non-blocking abort)")
                self.db.abort(txn)

    def _finish(self) -> Phase:
        """Drop the zombies and write the end mark; the handover is done."""
        self.faults.fire(SITE_SYNC_FINISH, transform=self.tf.transform_id)
        records = []
        for name in map(self.db.catalog.name_at, self.tf.source_tables):
            if self.db.catalog.is_zombie(name):
                self.db.catalog.drop_zombie(name)
                records.append(DropTableRecord(table=name))
        records.append(FuzzyMarkRecord(
            transform_id=self.tf.transform_id, phase="end"))
        # One dense batch: the zombie drops and the end mark land together
        # (recovery tolerates losing the whole batch -- the swap record
        # already republished the targets).
        self.db.log.append_batch(records)
        return Phase.DONE

    def _remove_mirror(self) -> None:
        if self.mirror is not None and \
                self.mirror in self.db.lock_mirrors:
            self.db.lock_mirrors.remove(self.mirror)
            self.mirror = None


class BlockingCommitSync(_SyncExecutor):
    """Section 3.4, strategy 1: block new, drain old, propagate, swap.

    "This method does not follow the non-blocking requirement" -- it exists
    as the paper's own comparison point and is measured by the
    blocking-baseline benchmark.  Its window is a *block*, taken by a
    prologue of two steps (``"start"``: block, ``"drain"``: wait); from
    ``"final"`` on it is the common handover.  ``population_mode=
    "blocking"`` runs the prologue in PREPARED instead
    (:meth:`Transformation._begin_population`), so the window spans the
    whole copy.
    """

    latches = False

    def _advance(self, budget: int) -> Tuple[int, Phase]:
        phase = self.tf.phase
        if self.state == "start":
            self.faults.fire(SITE_SYNC_BLOCK, transform=self.tf.transform_id)
            self.db.catalog.block(self.tf.source_tables)
            # Blame: newcomers parked on the blocked tables wait on the
            # synchronization strategy.
            for name in self.tf.source_tables:
                self.metrics.blame.set_role(("blocked", name), ROLE_SYNC)
            self.state = "drain"
            return 1, phase
        if self.state == "drain":
            self.faults.fire(SITE_SYNC_DRAIN, transform=self.tf.transform_id)
            if self.db.txns.active_on(self.tf.source_tables):
                return 0, phase  # waiting for old transactions to complete
            self.state = "final"
            self._open_window()
            return 1, phase
        return super()._advance(budget)

    def _materialize_locks(self, txns: Sequence[Transaction]) -> None:
        """Nothing to carry over: the drain left no old transaction."""

    def _release_window(self) -> None:
        self.db.unblock_tables(self.tf.source_tables)
        self._close_latched_window()


class NonBlockingAbortSync(_SyncExecutor):
    """Section 3.4, strategy 2: latch, final propagation, abort old.

    New transactions get the transformed tables immediately after the
    brief latch; transactions that were active on the source tables are
    forced to abort, and their mirrored locks in the transformed tables
    are held by the propagator until it processes their abort records.
    """

    dooms = True


class NonBlockingCommitSync(_SyncExecutor):
    """Section 3.4, strategy 3: latch, final propagation, soft switch.

    Old transactions continue on the (now hidden) source tables; a
    two-way :class:`LockMirror` keeps locks transferred between the old
    and new tables until the last old transaction ends, using the
    Figure 2 compatibility matrix on the transformed side.
    """

    mirrors = True


class VersionFlipSync(NonBlockingCommitSync):
    """MVCC version flip: the schema change as a versioned catalog write.

    The snapshot-database alternative to the paper's latched windows
    ("Online Schema Evolution is (Almost) Free for Snapshot Databases",
    VLDB 2023).  Requires ``TransformOptions(storage="mvcc")``.

    Instead of latching the source tables for the final propagation,
    the executor *chases* the log tail unlatched; the engine is
    single-threaded and cooperative, so the step in which the chase
    completes can materialize locks, log the swap + flip records and
    bump the catalog version atomically -- nothing interleaves inside
    one ``step()``.  There is no latched window and no blocked table
    anywhere: ``latched_units`` stays 0 by construction, which is
    exactly the quantity the ablation benchmark compares against the
    2006 design.  Without a critical section the executor is never
    ``urgent``: the chase runs at normal background priority.

    Visibility after the flip is by snapshot, not by force:

    * transactions that began before the flip hold a snapshot pinned at
      the previous catalog epoch and keep resolving the *old* schema
      (the retired tables stay reachable through the frozen epoch even
      after their zombies are gone);
    * in-flight writers on the source tables continue exactly like
      non-blocking commit -- materialized proxy locks plus the two-way
      :class:`LockMirror` -- and are never aborted;
    * new transactions see the new schema immediately.

    Superseded row versions and reclaimable epochs are collected right
    after the flip (and whenever pins are released) by
    :meth:`repro.storage.mvcc.MvccManager.gc`.
    """

    latches = False
    flips = True


class LockMirror:
    """Two-way lock transfer during non-blocking commit (Section 4.3).

    * An **old** transaction acquiring a lock on a (zombie) source record
      also acquires the corresponding transformed records under its proxy
      owner, with a *source* origin -- mutually compatible with other
      source-origin locks per Figure 2, conflicting with native access.
    * A **new** transaction acquiring a lock on a transformed record also
      acquires the corresponding source records under its own id (standard
      matrix on the source side; record-granularity over-locking is the
      price the paper acknowledges for record- rather than attribute-level
      locks).

    "If a transaction cannot get a lock on all implicated records in all
    tables, it is not allowed to go forward with the operation" -- a failed
    mirrored acquisition raises the usual wait/deadlock error and the
    operation is retried or aborted like any other.
    """

    def __init__(self, tf: Transformation) -> None:
        self.tf = tf
        self.engine = tf.engine
        self.source_names = set(tf.engine.source_tables)
        self.target_names = {t.name for t in tf.targets.values()}

    def on_lock(self, db: Database, txn: Transaction, table: Table,
                key: Tuple, mode: LockMode) -> None:
        """Called by the engine right after a record lock is granted."""
        assert self.engine is not None
        if txn.txn_id in self.tf._old_txn_ids and \
                table.name in self.source_names:
            owner = proxy_owner(txn.txn_id)
            for target, t_key in self.engine.targets_of_source_lock(
                    table.name, key):
                db.locks.acquire(owner, record_resource(target.uid, t_key),
                                 mode, origin=LockOrigin.SOURCE_A)
        elif txn.txn_id not in self.tf._old_txn_ids and \
                table.name in self.target_names:
            for source, s_key in self.engine.sources_of_target_lock(
                    table.name, key):
                db.locks.acquire(txn.txn_id,
                                 record_resource(source.uid, s_key),
                                 mode, origin=LockOrigin.NATIVE)

