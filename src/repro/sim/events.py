"""Deterministic discrete-event simulator core.

A minimal calendar queue: callbacks scheduled at virtual times, executed
in (time, insertion) order.  Everything in :mod:`repro.sim` -- clients,
the server, phase pollers -- runs on one :class:`Simulator` instance, so a
whole experiment is a single-threaded, seed-reproducible computation.

Virtual time is in **milliseconds**, matching the paper's reporting units
(its synchronization latch is "less than 1 ms").
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Tuple


class Simulator:
    """Virtual clock plus event calendar."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self._stopped = False

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` at ``now + delay`` (delay >= 0)."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        heapq.heappush(self._queue, (self.now + delay, next(self._seq), fn))

    @property
    def pending(self) -> int:
        """Number of scheduled events."""
        return len(self._queue)

    def stop(self) -> None:
        """Make the current ``run_until`` return after this event."""
        self._stopped = True

    def run_until(self, t_end: float) -> None:
        """Execute events in order until the clock passes ``t_end``.

        The clock is left at ``t_end`` (or at the stop point) so repeated
        calls compose into one continuous timeline.
        """
        self._stopped = False
        while self._queue and not self._stopped:
            time, _seq, fn = self._queue[0]
            if time > t_end:
                break
            heapq.heappop(self._queue)
            self.now = time
            fn()
        if not self._stopped:
            self.now = max(self.now, t_end)

    def run_while(self, condition: Callable[[], bool],
                  t_max: float) -> None:
        """Execute events while ``condition()`` holds, up to ``t_max``."""
        self._stopped = False
        while self._queue and not self._stopped and condition():
            time, _seq, fn = self._queue[0]
            if time > t_max:
                break
            heapq.heappop(self._queue)
            self.now = time
            fn()
