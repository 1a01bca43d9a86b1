"""Unit tests for the lock manager: waits, deadlocks, latches, cleanup."""

import random
from collections import Counter, deque

import pytest

from repro import Database, TableSchema
from repro.common.errors import DeadlockError, LockWaitError
from repro.concurrency import LockManager, LockMode, LockOrigin, LockRequest
from repro.concurrency import lock_manager as lock_manager_module
from repro.concurrency.locks import compatible

S, X = LockMode.S, LockMode.X
RES = ("rec", 1, (1,))
RES2 = ("rec", 1, (2,))


def test_grant_and_reentrant_acquire():
    lm = LockManager()
    lm.acquire(1, RES, X)
    lm.acquire(1, RES, X)  # reentrant
    lm.acquire(1, RES, S)  # covered by X
    assert lm.holds(1, RES, X)


def test_shared_locks_coexist():
    lm = LockManager()
    lm.acquire(1, RES, S)
    lm.acquire(2, RES, S)
    assert lm.holds(1, RES, S) and lm.holds(2, RES, S)


def test_conflicting_request_waits_and_is_granted_on_release():
    lm = LockManager()
    lm.acquire(1, RES, X)
    with pytest.raises(LockWaitError):
        lm.acquire(2, RES, X)
    assert 2 in lm.waiting_txns()
    woken = lm.release_all(1)
    assert woken == [2]
    # Retry finds the granted queued request.
    lm.acquire(2, RES, X)
    assert lm.holds(2, RES, X)


def test_fifo_fairness_no_overtaking():
    lm = LockManager()
    lm.acquire(1, RES, S)
    with pytest.raises(LockWaitError):
        lm.acquire(2, RES, X)  # queued behind the S holder
    # A new S request must NOT overtake the queued X writer.
    with pytest.raises(LockWaitError):
        lm.acquire(3, RES, S)
    woken = lm.release_all(1)
    assert woken[0] == 2  # writer first


def test_upgrade_grants_when_sole_holder():
    lm = LockManager()
    lm.acquire(1, RES, S)
    lm.acquire(1, RES, X)  # upgrade in place
    assert lm.holds(1, RES, X)


def test_upgrade_waits_and_queue_jumps():
    lm = LockManager()
    lm.acquire(1, RES, S)
    lm.acquire(2, RES, S)
    with pytest.raises(LockWaitError):
        lm.acquire(1, RES, X)  # upgrade blocked by 2's S
    lm.release_all(2)
    lm.acquire(1, RES, X)
    assert lm.holds(1, RES, X)


def test_deadlock_two_txn_cycle():
    lm = LockManager()
    lm.acquire(1, RES, X)
    lm.acquire(2, RES2, X)
    with pytest.raises(LockWaitError):
        lm.acquire(2, RES, X)  # 2 waits for 1
    with pytest.raises(DeadlockError):
        lm.acquire(1, RES2, X)  # would close the cycle
    assert lm.deadlock_count == 1
    # Victim's request was withdrawn: releasing 2 leaves no orphan waiter.
    lm.release_all(1)
    lm.acquire(2, RES, X)


def test_deadlock_three_txn_cycle():
    lm = LockManager()
    a, b, c = ("rec", 1, ("a",)), ("rec", 1, ("b",)), ("rec", 1, ("c",))
    lm.acquire(1, a, X)
    lm.acquire(2, b, X)
    lm.acquire(3, c, X)
    with pytest.raises(LockWaitError):
        lm.acquire(1, b, X)
    with pytest.raises(LockWaitError):
        lm.acquire(2, c, X)
    with pytest.raises(DeadlockError):
        lm.acquire(3, a, X)


def test_release_single_resource():
    lm = LockManager()
    lm.acquire(1, RES, X)
    lm.acquire(1, RES2, X)
    lm.release(1, RES)
    assert not lm.holds(1, RES)
    assert lm.holds(1, RES2)


def test_release_all_purges_waiting_requests():
    """Regression: an aborted transaction's queued request must not be
    granted to the dead owner later (it would starve all waiters)."""
    lm = LockManager()
    lm.acquire(1, RES, X)
    with pytest.raises(LockWaitError):
        lm.acquire(2, RES, X)
    lm.release_all(2)  # txn 2 aborts while waiting
    woken = lm.release_all(1)
    assert woken == []  # no zombie grant
    assert lm.holders(RES) == []
    lm.acquire(3, RES, X)  # resource fully available


def test_release_all_wakes_chain():
    lm = LockManager()
    lm.acquire(1, RES, X)
    for txn in (2, 3):
        with pytest.raises(LockWaitError):
            lm.acquire(txn, RES, S)
    woken = lm.release_all(1)
    assert set(woken) == {2, 3}  # both readers granted together


def test_grant_direct_installs_without_check():
    lm = LockManager()
    lm.grant_direct(-5, RES, X, LockOrigin.SOURCE_A)
    lm.grant_direct(-6, RES, X, LockOrigin.SOURCE_B)  # compatible by Fig.2
    holders = lm.holders(RES)
    assert {h.txn_id for h in holders} == {-5, -6}
    # A native writer now conflicts and must wait.
    with pytest.raises(LockWaitError):
        lm.acquire(7, RES, X)
    lm.release_all(-5)
    with pytest.raises(LockWaitError):
        lm.acquire(7, RES, X)  # still blocked by -6
    woken = lm.release_all(-6)
    assert woken == [7]


def test_source_origin_locks_conflict_with_native_reads_per_fig2():
    lm = LockManager()
    lm.grant_direct(-5, RES, X, LockOrigin.SOURCE_A)
    with pytest.raises(LockWaitError):
        lm.acquire(8, RES, S)  # T.r vs R.w: conflict
    lm2 = LockManager()
    lm2.grant_direct(-5, RES, S, LockOrigin.SOURCE_A)
    lm2.acquire(8, RES, S)  # T.r vs R.r: compatible


def test_try_acquire():
    lm = LockManager()
    assert lm.try_acquire(1, RES, X)
    assert not lm.try_acquire(2, RES, S)
    assert lm.try_acquire(1, RES, S)  # already covered
    assert 2 not in lm.waiting_txns()  # try does not enqueue


def test_locks_of():
    lm = LockManager()
    lm.acquire(1, RES, X)
    lm.acquire(1, RES2, S)
    assert lm.locks_of(1) == {RES, RES2}
    lm.release_all(1)
    assert lm.locks_of(1) == set()


def test_latch_lifecycle_and_waiters():
    lm = LockManager()
    lm.latch_table(10, "tf")
    assert lm.is_latched(10)
    with pytest.raises(LockWaitError):
        lm.check_latch(10, 1)
    with pytest.raises(LockWaitError):
        lm.check_latch(10, 2)
    with pytest.raises(LockWaitError):
        lm.check_latch(10, 1)  # re-check does not duplicate the waiter
    woken = lm.unlatch_table(10, "tf")
    assert woken == [1, 2]
    assert not lm.is_latched(10)
    lm.check_latch(10, 3)  # no-op when unlatched


def test_latch_reentrant_same_owner_conflicts_other():
    lm = LockManager()
    lm.latch_table(10, "tf")
    lm.latch_table(10, "tf")  # reentrant
    with pytest.raises(LockWaitError):
        lm.latch_table(10, "other")
    lm.unlatch_table(10, "other")  # wrong owner: no-op
    assert lm.is_latched(10)
    lm.unlatch_table(10, "tf")
    assert not lm.is_latched(10)


def test_wait_count_statistics():
    lm = LockManager()
    lm.acquire(1, RES, X)
    with pytest.raises(LockWaitError):
        lm.acquire(2, RES, X)
    assert lm.wait_count == 1


# ---------------------------------------------------------------------------
# Requests, wait counting, deadlock victims
# ---------------------------------------------------------------------------


def test_lock_request_is_a_slotted_value():
    request = LockRequest(1, X)
    assert request == LockRequest(1, X, LockOrigin.NATIVE, False)
    assert request != LockRequest(1, X, LockOrigin.NATIVE, True)
    assert request != (1, X, LockOrigin.NATIVE, False)
    assert repr(request) == ("LockRequest(txn_id=1, mode=<LockMode.X: 'X'>, "
                             "origin=<LockOrigin.NATIVE: 'T'>, granted=False)")
    assert not hasattr(request, "__dict__")
    with pytest.raises(TypeError):
        hash(request)


def test_waiting_upgrade_is_counted_once_however_often_it_is_retried():
    """Regression: every retry of a parked upgrade used to bump
    ``wait_count`` (a fresh conflicting request always read 1, 1, 1)."""
    lm = LockManager()
    lm.acquire(1, RES, S)
    lm.acquire(2, RES, S)
    counts = []
    for _ in range(3):
        with pytest.raises(LockWaitError):
            lm.acquire(1, RES, X)
        counts.append(lm.wait_count)
    assert counts == [1, 1, 1]
    lm.acquire(3, RES2, X)
    for _ in range(3):
        with pytest.raises(LockWaitError):
            lm.acquire(4, RES2, X)
    assert lm.wait_count == 2


def test_upgrade_that_deadlocks_is_withdrawn_like_a_fresh_request():
    """Regression: the victim's upgrade used to stay at the head of the
    queue (and in the waiting set) until the victim happened to abort."""
    lm = LockManager()
    lm.acquire(1, RES, S)
    lm.acquire(2, RES, S)
    with pytest.raises(LockWaitError):
        lm.acquire(1, RES, X)
    with pytest.raises(DeadlockError):
        lm.acquire(2, RES, X)  # both upgrades wait for the other's S
    assert lm.waiting_txns() == {1}
    assert lm.deadlock_count == 1 and lm.wait_count == 1
    # The victim keeps its S and may give up just that: 1 upgrades at once.
    assert lm.release(2, RES) == [1]
    assert lm.holders(RES) == [LockRequest(1, X, LockOrigin.NATIVE, True)]


def test_try_acquire_upgrade_follows_the_one_claim_rule():
    """``try_acquire`` used to carry its own copy of the upgrade rule,
    which forgot the source origin and overlooked a queued request."""
    lm = LockManager()
    lm.acquire(-1, RES, S)
    assert lm.try_acquire(-1, RES, X, LockOrigin.SOURCE_A)
    assert lm.holders(RES) == [LockRequest(-1, X, LockOrigin.SOURCE_A, True)]
    assert not lm.try_acquire(2, RES, S)
    lm.acquire(1, RES2, LockMode.IS)
    lm.acquire(2, RES2, LockMode.IX)
    with pytest.raises(LockWaitError):
        lm.acquire(1, RES2, S)  # upgrade queued behind 2's IX
    assert not lm.try_acquire(3, RES2, X)
    assert lm.try_acquire(3, RES2, LockMode.IS)  # fits holders and queue
    assert lm.waiting_txns() == {1}


def test_queued_upgrade_keeps_its_source_origin():
    """An upgrade granted from the queue goes through the same claim rule
    as one granted at once: it carries the request's source origin."""
    lm = LockManager()
    lm.acquire(-1, RES, S)
    lm.acquire(2, RES, S)
    with pytest.raises(LockWaitError):
        lm.acquire(-1, RES, X, LockOrigin.SOURCE_A)  # waits for 2's S
    assert lm.release(2, RES) == [-1]
    assert lm.holders(RES) == [LockRequest(-1, X, LockOrigin.SOURCE_A, True)]


def test_release_of_the_last_lock_leaves_no_residue():
    lm = LockManager()
    lm.acquire(1, RES, X)
    with pytest.raises(LockWaitError):
        lm.acquire(2, RES, X)
    assert lm.release(2, RES) == []  # withdraws the queued request
    assert lm.release(1, RES) == []
    assert lm.release(1, RES) == []  # nothing left to release
    assert (lm._resources, lm._txn_resources, lm._txn_waiting) == ({}, {}, {})


# ---------------------------------------------------------------------------
# The design, pinned without a clock
# ---------------------------------------------------------------------------


def test_uncontended_transaction_builds_no_queue_and_no_throwaway_set(
        monkeypatch):
    """One entry and one request per uncontended lock: no wait queue, no
    ``set()`` per call.  The first conflict is what pays for a queue."""
    built = Counter()

    class CountedDeque(deque):
        def __init__(self, *args):
            built["deque"] += 1
            super().__init__(*args)

    class CountedSet(set):
        def __init__(self, *args):
            built["set"] += 1
            super().__init__(*args)

    monkeypatch.setattr(lock_manager_module, "deque", CountedDeque)
    monkeypatch.setattr(lock_manager_module, "set", CountedSet,
                        raising=False)
    db = Database()
    db.create_table(TableSchema("t", ["id", "v"], primary_key=["id"]))
    loader = db.begin()
    for i in range(10):
        db.insert(loader, "t", {"id": i, "v": 0})
    db.commit(loader)
    txn = db.begin()
    for i in range(10):
        db.update(txn, "t", (i,), {"v": 1})
    assert len(db.locks._resources) == 11  # ten records and the table
    db.commit(txn)
    assert built == Counter()
    assert (db.locks._resources, db.locks._txn_resources) == ({}, {})

    first, second = db.begin(), db.begin()
    db.update(first, "t", (0,), {"v": 2})
    with pytest.raises(LockWaitError):
        db.update(second, "t", (0,), {"v": 3})
    assert built["deque"] >= 1
    db.commit(first)
    db.update(second, "t", (0,), {"v": 3})
    db.commit(second)
    assert (db.locks._resources, db.locks._txn_resources,
            db.locks._txn_waiting) == ({}, {}, {})


# ---------------------------------------------------------------------------
# The lock table against a reference model
# ---------------------------------------------------------------------------


class NaiveLocks:
    """The lock table with nothing clever in it: per resource a granted
    list and a FIFO queue of ``[owner, mode, origin]``, every rule spelled
    out with :func:`compatible`; no index, no fast path, no entry lifetime.
    """

    def __init__(self):
        self.held, self.queued = {}, {}
        self.waits = self.deadlocks = 0

    @staticmethod
    def _of(requests, owner):
        return next((r for r in requests if r[0] == owner), None)

    @staticmethod
    def _fits(requests, owner, mode, origin):
        return all(compatible(m, o, mode, origin)
                   for other, m, o in requests if other != owner)

    def acquire(self, owner, res, mode, origin):
        held = self.held.setdefault(res, [])
        queue = self.queued.setdefault(res, [])
        own, waiting = self._of(held, owner), self._of(queue, owner)
        if own is not None:
            if own[1].covers(mode):
                return "granted"
            mode = own[1].join(mode)
            if self._fits(held, owner, mode, origin):  # upgrades overtake
                own[1:] = [mode, origin if origin.is_source else own[2]]
                return "granted"
        elif waiting is None and self._fits(held + queue, owner, mode,
                                            origin):
            held.append([owner, mode, origin])
            return "granted"
        if waiting is None:  # else a retry: it keeps its place
            queue.insert(len(queue) if own is None else 0,
                         [owner, mode, origin])
        if self._closes_cycle(owner):
            self.deadlocks += 1
            if waiting is None:
                del queue[-1 if own is None else 0]
            return "deadlock"
        self.waits += waiting is None
        return "wait"

    def _closes_cycle(self, owner):
        edges = {}  # waiter -> owners of incompatible requests ahead of it
        for res, queue in self.queued.items():
            ahead = list(self.held[res])
            for request in queue:
                waiter, mode, origin = request
                edges.setdefault(waiter, set()).update(
                    other for other, m, o in ahead
                    if other != waiter and not compatible(m, o, mode, origin))
                ahead.append(request)
        seen, todo = set(), [owner]
        while todo:
            for successor in edges.get(todo.pop(), ()):
                if successor == owner:
                    return True
                if successor not in seen:
                    seen.add(successor)
                    todo.append(successor)
        return False

    def grant_direct(self, owner, res, mode, origin):
        held = self.held.setdefault(res, [])
        self.queued.setdefault(res, [])
        own = self._of(held, owner)
        if own is None:
            held.append([owner, mode, origin])
        else:
            own[1:] = [own[1].join(mode), origin]

    def release(self, owner, res, both=False):
        """Drop the held request, else (or, with ``both``, also) the
        queued one, then grant from the head of the queue while it fits."""
        held, queue = self.held.get(res, []), self.queued.get(res, [])
        own, waiting = self._of(held, owner), self._of(queue, owner)
        if own is not None:
            held.remove(own)
        if waiting is not None and (both or own is None):
            queue.remove(waiting)
        woken = []
        while queue and self._fits(held, *queue[0]):
            waiter, mode, origin = queue.pop(0)
            own = self._of(held, waiter)
            if own is None:
                held.append([waiter, mode, origin])
            else:  # the acquire rule: an upgrade carries a source origin
                own[1:] = [own[1].join(mode),
                           origin if origin.is_source else own[2]]
            woken.append(waiter)
        return woken

    def release_all(self, owner):
        """Woken owners per resource (resources in no particular order)."""
        return [self.release(owner, res, both=True) for res in self.held
                if self._of(self.held[res] + self.queued[res], owner)]


#: Owners lock in one origin each, as in the system: transactions natively,
#: a proxy owner (negative id) mirroring one source table.
ORIGINS = {1: LockOrigin.NATIVE, 2: LockOrigin.NATIVE, 3: LockOrigin.NATIVE,
           4: LockOrigin.NATIVE, -1: LockOrigin.SOURCE_A,
           -2: LockOrigin.SOURCE_A, -3: LockOrigin.SOURCE_B}
RESOURCES = [("tab", 1), ("tab", 2), ("rec", 1, (1,)), ("rec", 1, (2,)),
             ("rec", 2, (1,))]


def _real_acquire(lm, owner, res, mode, origin):
    try:
        lm.acquire(owner, res, mode, origin)
    except LockWaitError:
        return "wait"
    except DeadlockError:
        return "deadlock"
    return "granted"


def _assert_same_tables(lm, model, untouched):
    """Through the public readers, plus the queue order: the same requests
    in the same order, the same waiters, the same counters."""
    for res in RESOURCES:
        held = lm.holders(res)
        assert [[r.txn_id, r.mode, r.origin] for r in held] == \
            model.held.get(res, [])
        assert all(r.granted for r in held)
        state = lm._resources.get(res)
        assert (state is None) == (not held)  # an entry dies with its last
        queue = [] if state is None else list(state.waiting or ())
        assert [[w.txn_id, w.mode, w.origin] for w in queue] == \
            model.queued.get(res, [])
        if res in untouched:
            assert all(compatible(a.mode, a.origin, b.mode, b.origin)
                       for a in held for b in held if a is not b)
    assert lm.waiting_txns() == {
        w[0] for queue in model.queued.values() for w in queue}
    for owner in ORIGINS:
        assert lm.locks_of(owner) == {
            res for res, held in model.held.items()
            if model._of(held, owner)}
    assert (lm.wait_count, lm.deadlock_count) == (model.waits,
                                                  model.deadlocks)


@pytest.mark.parametrize("seed", range(40))
def test_lock_table_agrees_with_a_naive_model(seed):
    """Random scripts of acquire (five modes, three origins), retry before
    and after the wake-up, ``release``, ``release_all`` and
    ``grant_direct``: each call has the model's outcome and wakes whom the
    model wakes (in FIFO order per resource), both tables hold the same
    requests after every step, holders stay pairwise compatible wherever
    ``grant_direct`` -- which checks nothing, by design -- kept out, and
    once everybody has released nothing at all is left behind."""
    rng = random.Random(seed)
    lm, model = LockManager(), NaiveLocks()
    owners = sorted(ORIGINS)
    parked = {}  # owner -> the (resource, mode) it waits for
    untouched = set(RESOURCES)

    def acquire(owner, res, mode):
        outcome = model.acquire(owner, res, mode, ORIGINS[owner])
        assert _real_acquire(lm, owner, res, mode,
                             ORIGINS[owner]) == outcome
        parked.pop(owner, None)
        if outcome == "wait":
            parked[owner] = (res, mode)
        elif outcome == "deadlock" and rng.random() < 0.7:
            release_all(owner)  # what a victim does; some carry on

    def release_all(owner):
        woken, expected = lm.release_all(owner), model.release_all(owner)
        assert Counter(woken) == Counter(w for per in expected for w in per)
        for per_resource in expected:
            rest = iter(woken)
            assert all(w in rest for w in per_resource)  # FIFO within one
        parked.pop(owner, None)
        wake(woken)

    def wake(woken):
        for owner in woken:
            if owner in parked and rng.random() < 0.8:
                acquire(owner, *parked[owner])

    for _ in range(300):
        op, owner = rng.random(), rng.choice(owners)
        res = rng.choice(RESOURCES)
        if owner in parked and op < 0.85:
            if op < 0.25:
                acquire(owner, *parked[owner])  # re-driven before its grant
            continue  # a parked session mostly stays parked
        if op < 0.5:
            acquire(owner, res, rng.choice(list(LockMode)))
        elif op < 0.8:
            release_all(owner)
        elif op < 0.92:
            woken = lm.release(owner, res)
            assert woken == model.release(owner, res)
            if parked.get(owner, (None,))[0] == res and \
                    owner not in lm.waiting_txns():
                del parked[owner]
            wake(woken)
        elif model._of(model.queued.get(res, []), owner) is None:
            # Locks are materialized where their owner cannot be waiting:
            # the transformed table is not visible yet.
            mode = rng.choice(list(LockMode))
            lm.grant_direct(owner, res, mode, ORIGINS[owner])
            model.grant_direct(owner, res, mode, ORIGINS[owner])
            untouched.discard(res)
        _assert_same_tables(lm, model, untouched)

    for owner in owners:
        release_all(owner)
        _assert_same_tables(lm, model, untouched)
    assert (lm._resources, lm._txn_resources, lm._txn_waiting) == ({}, {}, {})
