"""Single-threaded open-loop arrival generator.

Transaction *i* is due at ``t0 + i / rate`` whatever the system is doing;
latency is measured from that intended start, so a stall is paid by every
request that came due during it (no coordinated omission).  At most
``max_sessions`` transactions are in flight and their operations
interleave one at a time, each next operation due one client round trip
(``op_gap_s``) after the previous one returned.

The loop is generic over a *server* (see :class:`Server`), which lets the
test drive it with a fake clock and a fake server that stalls.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Deque, List, Optional

#: Results of :meth:`Server.advance`.
MORE, DONE, PARKED = 0, 1, 2


class Job:
    """One arrival: the transaction due at ``due``."""

    __slots__ = ("index", "due", "noticed", "next_due", "parked",
                 "done_at", "retries", "failed", "work")

    def __init__(self, index: int, due: float, noticed: float) -> None:
        self.index = index
        self.due = due
        #: When the generator noticed the arrival; ``noticed - due`` is
        #: the generator's own lateness.
        self.noticed = noticed
        self.next_due = noticed
        self.parked = False
        self.done_at = 0.0
        self.retries = 0
        self.failed = False
        #: Server-private state of the transaction.
        self.work: object = None

    @property
    def latency(self) -> float:
        """Seconds from intended start to completion."""
        return self.done_at - self.due


class Server:
    """What the loop drives.  User operations have strict priority;
    background work runs only when no user operation is due and no
    arrival is waiting for a session."""

    def accepting(self, now: float) -> bool:
        """Whether arrivals are still generated (the run's end)."""
        raise NotImplementedError

    def start(self, job: Job) -> None:
        """Attach the work of a newly admitted arrival."""
        raise NotImplementedError

    def advance(self, job: Job) -> int:
        """Run the job's next operation: ``MORE``, ``DONE`` or ``PARKED``
        (a parked job waits until the server clears ``job.parked``)."""
        raise NotImplementedError

    def preempt(self) -> bool:
        """Run background work that must not wait for users (a latched
        window); returns whether it did any."""
        return False

    def background(self, now: float) -> bool:
        """Run one background step if allowed; returns whether it did."""
        return False

    def background_ready_at(self) -> Optional[float]:
        """When background work may next be allowed (``None``: never)."""
        return None


def spin_or_sleep(seconds: float) -> None:
    """Sleep through long waits; short ones are spun by the loop itself
    re-reading the clock, which keeps the core warm and the wake exact."""
    if seconds > 0.002:
        time.sleep(seconds - 0.001)


class OpenLoop:
    """The arrival generator and session scheduler."""

    def __init__(self, rate: float, max_sessions: int, op_gap_s: float,
                 clock: Callable[[], float] = time.perf_counter,
                 idle: Callable[[float], None] = spin_or_sleep) -> None:
        self.rate = rate
        self.max_sessions = max_sessions
        self.op_gap_s = op_gap_s
        self.clock = clock
        self.idle = idle
        self.t0 = 0.0
        #: Seconds with nothing due: no user operation, no background step.
        self.idle_s = 0.0

    def run(self, server: Server) -> List[Job]:
        """Drive ``server`` until it stops accepting and everything that
        came due has completed; returns the jobs in completion order."""
        clock, rate, gap = self.clock, self.rate, self.op_gap_s
        t0 = self.t0 = clock()
        queue: Deque[Job] = deque()
        active: List[Job] = []
        finished: List[Job] = []
        next_index = 0
        accepting = True
        while True:
            now = clock()
            accepting = accepting and server.accepting(now)
            if accepting:
                while t0 + next_index / rate <= now:
                    queue.append(Job(next_index, t0 + next_index / rate, now))
                    next_index += 1
            while queue and len(active) < self.max_sessions:
                job = queue.popleft()
                job.next_due = now
                server.start(job)
                active.append(job)
            if server.preempt():
                continue
            job = None
            for candidate in active:
                if not candidate.parked and candidate.next_due <= now and \
                        (job is None or candidate.next_due < job.next_due):
                    job = candidate
            if job is not None:
                status = server.advance(job)
                if status == MORE:
                    job.next_due = clock() + gap
                elif status == DONE:
                    job.done_at = clock()
                    active.remove(job)
                    finished.append(job)
                else:
                    job.parked = True
                continue
            # Background work yields to a user backlog too: an arrival
            # waiting for a free session is a due user operation, and a
            # step squeezed between the sessions' operations would slow
            # the drain.  (If every session is parked, only background
            # work can free one.)
            if (not queue or all(j.parked for j in active)) and \
                    server.background(now):
                continue
            if not accepting and not active and not queue:
                return finished
            # Idle until the next event.  (No list is built here: this is
            # the spin path, and garbage would tick the collector.)
            wake = server.background_ready_at()
            if accepting and (wake is None or
                              t0 + next_index / rate < wake):
                wake = t0 + next_index / rate
            for j in active:
                if not j.parked and (wake is None or j.next_due < wake):
                    wake = j.next_due
            if wake is None:
                raise RuntimeError(
                    "open loop stalled: every session is parked and "
                    "nothing is left that could wake one")
            self.idle(max(0.0, wake - now))
            self.idle_s += clock() - now
