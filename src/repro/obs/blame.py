"""Interference attribution: *who* made a transaction wait, and for how long.

The paper's claim is that schema changes are non-blocking -- but a claim
about blocking needs an instrument that can tell a lock wait caused by
another user transaction apart from one caused by the background
transformation.  The :class:`BlameBoard` is that instrument: every wait
edge (a lock wait, a latch wait, or a blocked-table wait) is tagged with
the *role* of each holder that stood in the waiter's way, and the wait
duration is split evenly across those roles, so the per-role breakdown
sums to exactly the aggregate measured wait time.

Roles map onto the paper's phase taxonomy:

* ``user``            -- an ordinary user transaction (user-vs-user
  contention; the baseline the paper compares against);
* ``populate``        -- the fuzzy initial-population phase (Section 3.1);
* ``propagate``       -- log propagation (Sections 3.2/3.3);
* ``sync``            -- a synchronization strategy's working set: its
  blocked source tables, materialized proxy locks and mirror locks
  (Section 3.4, all three strategies);
* ``latched-window``  -- the short exclusive latched window every
  strategy ends with;
* ``lazy-miss``       -- a user transaction momentarily wearing the
  transformation's hat while migrating a just-accessed record
  (migrate-on-read);
* ``sweeper``         -- the budgeted background sweeper draining the
  lazily-populated remainder;
* ``recovery``        -- ARIES restart holding resources while rolling
  back losers.

Ownership ids are heterogeneous by design: positive ints are user
transactions (default role ``user``), negative ints are proxy owners
materialized by sync strategies (default role ``sync``), and strings are
latch owners -- transformation ids (default role ``latched-window``).
Explicit registrations via :meth:`BlameBoard.set_role` or the scoped
:meth:`BlameBoard.role` override the defaults; a transformation
registers its worker transactions per phase, the lazy hook wraps the
accessing transaction in ``lazy-miss`` for the duration of the miss.

Wait edges are deduplicated on ``(waiter, resource)``: the simulator's
park/wake/retry loop re-enters :meth:`begin_wait` for every retry of the
same operation, and only the first enqueue starts the clock.  The edge
ends when the waiter is granted (:meth:`end_wait`), the resource is
unblocked, or the waiter abandons the wait (deadlock victim, abort --
:meth:`abandon_waits`); either way the full measured duration is
attributed, so totals stay exact.

Each closed edge is appended to the registry's trace ring as one
``blame.edge`` event (waiter, resource, channel, roles, duration,
outcome): the ring is the one bounded store of retained moments, so
the edges share its bound and its drop counter.

The board follows the library's NULL-object discipline: a disabled
:class:`~repro.obs.metrics.Metrics` carries :data:`NULL_BLAME`, whose
methods are empty one-liners.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterable, Tuple

# NOTE: repro.obs.metrics owns Histogram *and* constructs its NULL
# singleton (which carries NULL_BLAME) at import time, so this module
# must not import it at top level; the Histogram import lives inside
# end_wait instead.

# ---------------------------------------------------------------------------
# Roles
# ---------------------------------------------------------------------------

ROLE_USER = "user"
ROLE_POPULATE = "populate"
ROLE_PROPAGATE = "propagate"
ROLE_SYNC = "sync"
ROLE_LATCHED_WINDOW = "latched-window"
ROLE_LAZY_MISS = "lazy-miss"
ROLE_SWEEPER = "sweeper"
ROLE_RECOVERY = "recovery"

#: Every role the board understands, in reporting order.
ROLES = (ROLE_USER, ROLE_POPULATE, ROLE_PROPAGATE, ROLE_SYNC,
         ROLE_LATCHED_WINDOW, ROLE_LAZY_MISS, ROLE_SWEEPER, ROLE_RECOVERY)

#: Transformation life-cycle phase (by its ``Phase.value`` string) to the
#: blame role a resource held under the transform id carries during that
#: phase.  Keyed by value so this module needs no import of the
#: transformation framework.
PHASE_ROLES = {
    "populating": ROLE_POPULATE,
    "propagating": ROLE_PROPAGATE,
    "synchronizing": ROLE_LATCHED_WINDOW,
    "background": ROLE_SYNC,
}


def default_role(owner: object) -> str:
    """The role an unregistered owner id falls back to.

    Positive ints are user transactions; negative ints are the
    ``proxy_owner`` ids sync strategies materialize locks under; strings
    are latch owners (transformation ids holding a latched window).
    """
    if isinstance(owner, int):
        return ROLE_SYNC if owner < 0 else ROLE_USER
    if isinstance(owner, tuple) and owner and owner[0] == "blocked":
        return ROLE_SYNC
    return ROLE_LATCHED_WINDOW


class _OpenWait:
    """One in-flight wait edge, keyed by (waiter, resource).

    Holder roles are resolved when the edge *opens*: blame describes what
    the holder was doing when it stood in the waiter's way, not what it
    happens to be doing when the wait finally ends.
    """

    __slots__ = ("t0", "roles", "channel")

    def __init__(self, t0: float, roles: Tuple[str, ...],
                 channel: str) -> None:
        self.t0 = t0
        self.roles = roles
        self.channel = channel


class BlameBoard:
    """Accumulates wait edges into per-role and per-transaction blame.

    ``metrics`` is the registry the board belongs to: durations are read
    on its clock (virtual milliseconds in the simulator), so they line up
    with every other instrument, and closed edges land in its trace ring.
    """

    enabled = True

    def __init__(self, metrics) -> None:
        self._metrics = metrics
        self._roles: Dict[object, str] = {}
        self._open: Dict[Tuple[object, object], _OpenWait] = {}
        self.edges_total = 0
        self.total_wait_ms = 0.0
        self.by_role: Dict[str, float] = {}
        self.role_hist: Dict[str, object] = {}
        self.by_txn: Dict[object, Dict[str, float]] = {}

    # -- role registry ----------------------------------------------------

    def role_of(self, owner: object) -> str:
        """The current role of an owner id (registered or defaulted)."""
        return self._roles.get(owner) or default_role(owner)

    def set_role(self, owner: object, role: str) -> None:
        """Register ``owner`` as acting in ``role`` until cleared."""
        self._roles[owner] = role

    def clear_role(self, owner: object) -> None:
        """Forget an explicit registration; the owner falls back to its
        default role."""
        self._roles.pop(owner, None)

    @contextmanager
    def role(self, owner: object, role: str):
        """Scoped override: ``owner`` wears ``role`` inside the block,
        then reverts to whatever it was before (nesting-safe)."""
        previous = self._roles.get(owner)
        self._roles[owner] = role
        try:
            yield
        finally:
            if previous is None:
                self._roles.pop(owner, None)
            else:
                self._roles[owner] = previous

    # -- wait-edge lifecycle ----------------------------------------------

    def begin_wait(self, waiter: object, resource: object,
                   holders: Iterable[object], channel: str) -> None:
        """Start the clock on a wait edge; idempotent per (waiter,
        resource) so park/wake/retry loops do not double-count."""
        key = (waiter, resource)
        if key in self._open:
            return
        roles = tuple(sorted({self.role_of(h) for h in holders})) \
            or (ROLE_USER,)
        self._open[key] = _OpenWait(self._metrics.now(), roles, channel)

    def end_wait(self, waiter: object, resource: object,
                 outcome: str = "granted") -> None:
        """Close a wait edge and attribute its duration.

        The duration is split evenly across the *roles* of the holders
        captured at enqueue time, so ``sum(by_role.values())`` equals
        ``total_wait_ms`` exactly.  Unknown edges are ignored (the
        caller may end conservatively on every wake-up path).
        """
        wait = self._open.pop((waiter, resource), None)
        if wait is None:
            return
        duration = max(0.0, self._metrics.now() - wait.t0)
        roles = wait.roles
        share = duration / len(roles)
        self.total_wait_ms += duration
        txn_slot = None
        if isinstance(waiter, int) and waiter > 0:
            txn_slot = self.by_txn.setdefault(waiter, {})
        for role in roles:
            self.by_role[role] = self.by_role.get(role, 0.0) + share
            hist = self.role_hist.get(role)
            if hist is None:
                from repro.obs.metrics import Histogram
                hist = self.role_hist[role] = Histogram(f"blame.{role}")
            hist.observe(share)
            if txn_slot is not None:
                txn_slot[role] = txn_slot.get(role, 0.0) + share
        self.edges_total += 1
        self._metrics.trace("blame.edge", waiter=waiter,
                            resource=repr(resource), channel=wait.channel,
                            roles=list(roles), duration_ms=duration,
                            outcome=outcome)

    def abandon_waits(self, waiter: object) -> None:
        """Close every open edge of ``waiter`` as abandoned (deadlock
        victim, doomed newcomer, aborted transaction)."""
        for key in [k for k in self._open if k[0] == waiter]:
            self.end_wait(key[0], key[1], outcome="abandoned")

    # -- reporting ---------------------------------------------------------

    def breakdown(self) -> Dict[str, float]:
        """Wait milliseconds per role, every known role present."""
        return {role: self.by_role.get(role, 0.0) for role in ROLES}

    def snapshot(self) -> Dict[str, object]:
        """Everything a report needs, as plain JSON-able data."""
        return {
            "total_wait_ms": self.total_wait_ms,
            "by_role": self.breakdown(),
            "role_percentiles": {role: hist.as_dict()
                                 for role, hist in sorted(
                                     self.role_hist.items())},
            "by_txn": {txn: dict(roles)
                       for txn, roles in sorted(self.by_txn.items())},
            "edges": {
                "recorded": self.edges_total,
                "open": len(self._open),
            },
        }

    def reset(self) -> None:
        """Zero every accumulator; registrations and open waits survive
        (a reset mid-wait must not orphan the eventual end_wait)."""
        self.edges_total = 0
        self.total_wait_ms = 0.0
        self.by_role.clear()
        self.role_hist.clear()
        self.by_txn.clear()


class _NullBlameBoard(BlameBoard):
    """The shared disabled board: every method is a no-op.

    Mirrors :class:`repro.obs.metrics._NullMetrics`: the non-observing
    path costs one attribute lookup and an empty call, and the singleton
    cannot be enabled.
    """

    enabled = False

    def __init__(self) -> None:
        # Built while repro.obs.metrics is still importing, so it has no
        # registry; none of the overrides below reads one.
        super().__init__(None)

    def set_role(self, owner: object, role: str) -> None:  # noqa: D102
        return None

    def clear_role(self, owner: object) -> None:  # noqa: D102
        return None

    @contextmanager
    def role(self, owner: object, role: str):  # noqa: D102
        yield

    def begin_wait(self, waiter: object, resource: object,
                   holders: Iterable[object], channel: str) -> None:
        return None

    def end_wait(self, waiter: object, resource: object,
                 outcome: str = "granted") -> None:
        return None

    def abandon_waits(self, waiter: object) -> None:  # noqa: D102
        return None

    def __setattr__(self, name: str, value: object) -> None:
        if name == "enabled" and value:
            raise ValueError(
                "NULL_BLAME cannot be enabled; construct BlameBoard()")
        super().__setattr__(name, value)


#: The shared disabled board (see :class:`_NullBlameBoard`).
NULL_BLAME = _NullBlameBoard()
