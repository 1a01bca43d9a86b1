"""Lock manager: record/table locks, wait queues, deadlock detection, latches.

The manager is synchronous and single-threaded (the reproduced prototype
interleaves transactions at operation granularity).  A request that cannot
be granted is *enqueued* and :class:`~repro.common.errors.LockWaitError` is
raised; the caller parks the transaction and retries the same operation once
:meth:`LockManager.release_all` (or an unlatch) reports the transaction as
woken.  The release that wakes a transaction has already moved its request
from the queue to the granted list, so the retry finds the lock held.

The uncontended lock is the common case and costs one dict probe, one
entry and one request: an entry is created with its first granted request
(there is nothing to be compatible with), gets a wait queue only when a
request first has to wait, and disappears with its last request, so
``_resources`` holds exactly the resources somebody holds or waits for.
A wait is counted, and its blame edge opened, once per queued request --
retries of a parked operation re-check for deadlock and nothing else.

Deadlocks are detected eagerly at enqueue time with a wait-for-graph cycle
check over the waiting transactions; the requester is the victim, and a
request queued by the failing call is withdrawn before the raise.

Table **latches** model the short exclusive pauses the transformation
framework takes during synchronization (Section 3.4): while a table is
latched, every record operation on it waits.  Latches are not owned by
transactions and are not subject to deadlock detection (they are held for
one bounded final propagation only).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.common.errors import DeadlockError, LockWaitError
from repro.concurrency.locks import (
    LockMode,
    LockOrigin,
    compatible,
)
from repro.obs import NULL_METRICS, Metrics


class LockRequest:
    """One transaction's (granted or waiting) claim on a resource."""

    __slots__ = ("txn_id", "mode", "origin", "granted")

    def __init__(self, txn_id: int, mode: LockMode,
                 origin: LockOrigin = LockOrigin.NATIVE,
                 granted: bool = False) -> None:
        self.txn_id = txn_id
        self.mode = mode
        self.origin = origin
        self.granted = granted

    def _fields(self) -> tuple:
        return self.txn_id, self.mode, self.origin, self.granted

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # mutable, compared by value

    def __repr__(self) -> str:
        return ("LockRequest(txn_id={!r}, mode={!r}, origin={!r}, "
                "granted={!r})".format(*self._fields()))


class _ResourceState:
    """Granted requests of one resource, plus its FIFO wait queue once a
    request has had to wait (``None`` until then)."""

    __slots__ = ("granted", "waiting")

    def __init__(self, first: LockRequest) -> None:
        self.granted: List[LockRequest] = [first]
        self.waiting: Optional[Deque[LockRequest]] = None


def _find(requests, txn_id: int) -> Optional[LockRequest]:
    """``txn_id``'s request in a granted list or a wait queue (``None``
    for the queue no request has needed yet), else ``None``."""
    for request in requests or ():
        if request.txn_id == txn_id:
            return request
    return None


def _take(requests, txn_id: int) -> Optional[LockRequest]:
    """:func:`_find`, removing the request found."""
    for position, request in enumerate(requests):
        if request.txn_id == txn_id:
            del requests[position]
            return request
    return None


def _note(index: Dict[int, Set[tuple]], txn_id: int, resource: tuple) -> None:
    """Enter ``resource`` under ``txn_id`` in a per-transaction index."""
    resources = index.get(txn_id)
    if resources is None:
        index[txn_id] = {resource}
    else:
        resources.add(resource)


def _forget(index: Dict[int, Set[tuple]], txn_id: int,
            resource: tuple) -> None:
    """Undo :func:`_note`; a transaction's last entry takes its set along."""
    resources = index[txn_id]
    resources.discard(resource)
    if not resources:
        del index[txn_id]


class LockManager:
    """All locks and latches of one database."""

    def __init__(self, metrics: Optional[Metrics] = None) -> None:
        self._resources: Dict[tuple, _ResourceState] = {}
        #: Resources on which a transaction holds a granted request.
        self._txn_resources: Dict[int, Set[tuple]] = {}
        #: Resources on which a transaction has a queued request; exact,
        #: so it names the contended resources for the deadlock check.
        #: Must be purged on release_all: a request left behind by an
        #: aborted transaction would later be granted to a dead owner and
        #: starve every subsequent waiter.
        self._txn_waiting: Dict[int, Set[tuple]] = {}
        self._latches: Dict[str, str] = {}
        self._latch_waiters: Dict[str, List[int]] = {}
        #: Clock reading at latch acquisition, for hold-time accounting.
        self._latch_since: Dict[str, float] = {}
        #: Observability registry (``lock.waits``, ``lock.deadlocks``,
        #: ``latch.hold_time``, ...); the no-op singleton by default.
        self.metrics = metrics if metrics is not None else NULL_METRICS
        #: Statistics: total waits, deadlocks (read by the simulator).
        self.wait_count = 0
        self.deadlock_count = 0

    # -- lock acquisition ------------------------------------------------------

    def acquire(self, txn_id: int, resource: tuple, mode: LockMode,
                origin: LockOrigin = LockOrigin.NATIVE) -> None:
        """Acquire (or wait for) ``mode`` on ``resource`` for ``txn_id``.

        Returns normally once the lock is held.  If the lock cannot be
        granted now, the request is enqueued and :class:`LockWaitError` is
        raised; a retry after wake-up finds the lock held and returns.
        Raises :class:`DeadlockError` if waiting would close a wait-for
        cycle (withdrawing the request this call queued).
        """
        state = self._resources.get(resource)
        if state is None:
            # Nobody holds or awaits it: nothing to be compatible with.
            self._resources[resource] = _ResourceState(
                LockRequest(txn_id, mode, origin, True))
            _note(self._txn_resources, txn_id, resource)
        elif not self._claim(state, txn_id, resource, mode, origin):
            self._enqueue(state, txn_id, resource, mode, origin)

    def try_acquire(self, txn_id: int, resource: tuple, mode: LockMode,
                    origin: LockOrigin = LockOrigin.NATIVE) -> bool:
        """Acquire without waiting; return False instead of enqueueing."""
        state = self._resources.get(resource)
        if state is None:
            self.acquire(txn_id, resource, mode, origin)
            return True
        return self._claim(state, txn_id, resource, mode, origin)

    def _claim(self, state: _ResourceState, txn_id: int, resource: tuple,
               mode: LockMode, origin: LockOrigin,
               queued: bool = False) -> bool:
        """Take ``mode`` now if the rules allow it; ``False``: must wait.

        The one statement of the grant and upgrade rules.  A transaction
        holding the resource upgrades in place to the join of the held and
        the asked-for mode when every other holder is compatible with it
        (waiters do not count: upgrades overtake), carrying a source
        origin.  A newcomer must be compatible with every holder and --
        FIFO fairness -- with every queued request, and never overtakes a
        request of its own; ``queued`` marks the head of the queue being
        granted (:meth:`_promote`), which no queued request precedes.
        """
        granted = state.granted
        own = _find(state.granted, txn_id)
        if own is None:
            for holder in granted:
                if not compatible(holder.mode, holder.origin, mode, origin):
                    return False
            for waiter in () if queued else state.waiting or ():
                if waiter.txn_id == txn_id or not compatible(
                        waiter.mode, waiter.origin, mode, origin):
                    return False
            granted.append(LockRequest(txn_id, mode, origin, True))
            _note(self._txn_resources, txn_id, resource)
            return True
        held = own.mode
        if held is mode or held.covers(mode):
            return True
        upgraded = held.join(mode)
        for holder in granted:
            if holder is not own and not compatible(
                    holder.mode, holder.origin, upgraded, origin):
                return False
        own.mode = upgraded
        if origin.is_source:
            own.origin = origin
        return True

    def _enqueue(self, state: _ResourceState, txn_id: int, resource: tuple,
                 mode: LockMode, origin: LockOrigin) -> None:
        """Queue the request :meth:`_claim` refused and raise the wait.

        Fresh requests join the tail; an upgrade (for the join of the held
        and the asked-for mode) jumps to the head.  A retry finds its
        request queued already and only re-checks for deadlock: the wait
        is counted and its blame edge opened once per queued request.
        """
        waiter = _find(state.waiting, txn_id)
        retry = waiter is not None
        if not retry:
            if state.waiting is None:
                state.waiting = deque()
            own = _find(state.granted, txn_id)
            if own is None:
                waiter = LockRequest(txn_id, mode, origin)
                state.waiting.append(waiter)
            else:
                waiter = LockRequest(txn_id, own.mode.join(mode), origin)
                state.waiting.appendleft(waiter)
            _note(self._txn_waiting, txn_id, resource)
        try:
            self._check_deadlock(txn_id)
        except DeadlockError:
            if not retry:
                state.waiting.remove(waiter)
                _forget(self._txn_waiting, txn_id, resource)
            raise
        if not retry:
            self.wait_count += 1
            self.metrics.inc("lock.waits")
            self._blame_begin(resource, state, waiter)
        raise LockWaitError(resource, txn_id)

    def _blame_begin(self, resource: tuple, state: _ResourceState,
                     waiter: LockRequest) -> None:
        """Open a blame wait edge against the owners standing in the way.

        Holders are the incompatible granted owners at enqueue time; when
        the block is purely FIFO fairness (a conflicting waiter queued
        ahead), that waiter is the blocker instead.
        """
        if not self.metrics.enabled:
            return
        holders: List[int] = []
        for requests in (state.granted, state.waiting):
            holders = [r.txn_id for r in requests
                       if r.txn_id != waiter.txn_id
                       and not compatible(r.mode, r.origin,
                                          waiter.mode, waiter.origin)]
            if holders:
                break
        self.metrics.blame.begin_wait(waiter.txn_id, resource, holders,
                                      "lock")

    def grant_direct(self, txn_id: int, resource: tuple, mode: LockMode,
                     origin: LockOrigin) -> None:
        """Install a lock without compatibility checking.

        Used by the synchronization step to *materialize* the locks the
        propagator maintained on the transformed tables during the
        transformation (Section 3.3: "they are ignored for now").  Only
        source-origin locks are materialized, and those are mutually
        compatible under Figure 2's rule -- so two proxy owners
        co-holding X on one joined FOJ row (one from its R side, one from
        its S side) is expected, not a conflict.  No native lock can
        exist yet because the transformed table was not publicly visible.
        """
        state = self._resources.get(resource)
        own = None if state is None else _find(state.granted, txn_id)
        if own is not None:
            own.mode = own.mode.join(mode)
            own.origin = origin
            return
        request = LockRequest(txn_id, mode, origin, True)
        if state is None:
            self._resources[resource] = _ResourceState(request)
        else:
            state.granted.append(request)
        _note(self._txn_resources, txn_id, resource)

    # -- release ------------------------------------------------------------------

    def release(self, txn_id: int, resource: tuple) -> List[int]:
        """Release one lock -- or, when none is held, withdraw the queued
        request; returns ids of transactions woken by grants."""
        state = self._resources.get(resource)
        if state is None:
            return []
        if _take(state.granted, txn_id) is not None:
            _forget(self._txn_resources, txn_id, resource)
        elif state.waiting and _take(state.waiting, txn_id) is not None:
            _forget(self._txn_waiting, txn_id, resource)
            self.metrics.blame.end_wait(txn_id, resource,
                                        outcome="abandoned")
        return self._promote(resource, state)

    def release_all(self, txn_id: int) -> List[int]:
        """Release every lock of a transaction (end of strict 2PL).

        Returns the ids of transactions whose queued requests became
        granted; the caller (simulator or session driver) re-schedules them.
        """
        resources = self._txn_resources.pop(txn_id, None) or set()
        resources.update(self._txn_waiting.pop(txn_id, ()))
        if self.metrics.enabled:
            # Any wait this transaction still had open (lock, latch or
            # blocked-table) ends here as abandoned: strict 2PL release is
            # the common exit of commit, abort and deadlock-victim paths.
            # Scoped roles (a lazy-miss marking) die with the transaction.
            self.metrics.blame.abandon_waits(txn_id)
            self.metrics.blame.clear_role(txn_id)
        woken: List[int] = []
        entries = self._resources
        for resource in resources:
            state = entries[resource]
            if state.waiting:
                _take(state.granted, txn_id)
                _take(state.waiting, txn_id)
                woken.extend(self._promote(resource, state))
            elif len(state.granted) == 1:
                # Ours (a held lock keeps its entry alive), nobody waits.
                del entries[resource]
            else:
                _take(state.granted, txn_id)
        return woken

    def _promote(self, resource: tuple, state: _ResourceState) -> List[int]:
        """Grant the queued requests now compatible, strictly FIFO, and
        drop the entry once nothing is left of it; return woken txns."""
        woken: List[int] = []
        queue = state.waiting
        while queue:
            waiter = queue[0]
            if not self._claim(state, waiter.txn_id, resource, waiter.mode,
                               waiter.origin, queued=True):
                return woken  # nobody overtakes the blocked head
            queue.popleft()
            _forget(self._txn_waiting, waiter.txn_id, resource)
            self.metrics.blame.end_wait(waiter.txn_id, resource)
            woken.append(waiter.txn_id)
        if not state.granted:
            del self._resources[resource]
        return woken

    # -- introspection ----------------------------------------------------------------

    def holders(self, resource: tuple) -> List[LockRequest]:
        """Granted requests on a resource."""
        state = self._resources.get(resource)
        return list(state.granted) if state else []

    def holds(self, txn_id: int, resource: tuple,
              mode: Optional[LockMode] = None) -> bool:
        """Whether the transaction holds (at least) ``mode`` on resource."""
        state = self._resources.get(resource)
        own = None if state is None else _find(state.granted, txn_id)
        if own is None:
            return False
        return True if mode is None else own.mode.covers(mode)

    def locks_of(self, txn_id: int) -> Set[tuple]:
        """Resources on which the transaction holds locks."""
        return set(self._txn_resources.get(txn_id, ()))

    def waiting_txns(self) -> Set[int]:
        """Ids of transactions with a queued (ungranted) request."""
        return set(self._txn_waiting)

    # -- deadlock detection ------------------------------------------------------------

    def _check_deadlock(self, txn_id: int) -> None:
        """Raise :class:`DeadlockError` if ``txn_id`` waiting closes a cycle."""
        # DFS from txn_id looking for a path back to txn_id.
        stack: List[Tuple[int, Tuple[int, ...]]] = [(txn_id, (txn_id,))]
        seen: Set[int] = set()
        while stack:
            node, path = stack.pop()
            for successor in self._blockers(node):
                if successor == txn_id:
                    self.deadlock_count += 1
                    self.metrics.inc("lock.deadlocks")
                    raise DeadlockError(txn_id, path)
                if successor not in seen:
                    seen.add(successor)
                    stack.append((successor, path + (successor,)))

    def _blockers(self, txn_id: int) -> Set[int]:
        """The wait-for edges out of ``txn_id``: on every resource it is
        queued on, the owners of the incompatible requests ahead of its
        own -- granted, or earlier in the queue."""
        blockers: Set[int] = set()
        for resource in self._txn_waiting.get(txn_id, ()):
            state = self._resources[resource]
            own = _find(state.waiting, txn_id)
            for queue in (state.granted, state.waiting):
                for other in queue:
                    if other is own:
                        break
                    if other.txn_id != txn_id and not compatible(
                            other.mode, other.origin, own.mode, own.origin):
                        blockers.add(other.txn_id)
        return blockers

    # -- table latches -----------------------------------------------------------------

    def latch_table(self, table: str, owner: str) -> None:
        """Take the exclusive table latch (transformation sync only)."""
        current = self._latches.get(table)
        if current is not None and current != owner:
            raise LockWaitError(("latch", table), -1)
        if current is None and self.metrics.enabled:
            self._latch_since[table] = self.metrics.now()
            self.metrics.inc("latch.acquired")
            self.metrics.trace("latch.acquire", table=table, owner=owner)
        self._latches[table] = owner

    def unlatch_table(self, table: str, owner: str) -> List[int]:
        """Drop the latch; returns transaction ids waiting on it."""
        if self._latches.get(table) == owner:
            del self._latches[table]
            if self.metrics.enabled:
                since = self._latch_since.pop(table, None)
                held = 0.0 if since is None else self.metrics.now() - since
                self.metrics.inc("latch.released")
                self.metrics.observe("latch.hold_time", held)
                self.metrics.trace("latch.release", table=table,
                                   owner=owner, held=held)
        waiters = self._latch_waiters.pop(table, [])
        for waiter in waiters:
            self.metrics.blame.end_wait(waiter, ("latch", table))
        return waiters

    def is_latched(self, table: str) -> bool:
        """Whether the table is currently latched."""
        return table in self._latches

    def check_latch(self, table: str, txn_id: int) -> None:
        """Raise :class:`LockWaitError` (and register the waiter) if latched."""
        if table in self._latches:
            waiters = self._latch_waiters.setdefault(table, [])
            if txn_id not in waiters:
                waiters.append(txn_id)
            self.wait_count += 1
            self.metrics.inc("latch.waits")
            self.metrics.blame.begin_wait(
                txn_id, ("latch", table), (self._latches[table],), "latch")
            raise LockWaitError(("latch", table), txn_id)
