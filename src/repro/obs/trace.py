"""Structured trace events in a bounded ring.

The trace is the qualitative side of the observability subsystem: while
counters and histograms aggregate, the event ring keeps the *last N*
interesting moments with their payloads -- the framework's own events
(latch acquired, iteration finished, schema swapped, supervisor
retries), every closed blame wait edge (``blame.edge``) and, in an
observed scenario run, every fault firing (``fault.fired``) -- so a
stalled, slow or crashed transformation can be read back in order.  It
is the one store of retained moments: one bound, one drop counter, and
a postmortem bundle's ``events`` list is its content.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List


@dataclass
class TraceEvent:
    """One recorded moment: a timestamp, a kind, and a payload."""

    ts: float
    kind: str
    fields: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly rendering."""
        return {"ts": self.ts, "kind": self.kind, **self.fields}


class EventRing:
    """Fixed-capacity ring of :class:`TraceEvent` (oldest evicted first)."""

    #: Events retained.
    CAPACITY = 1024

    def __init__(self) -> None:
        self._events: Deque[TraceEvent] = deque(maxlen=self.CAPACITY)
        #: Total events ever appended (including evicted ones).
        self.appended = 0
        #: Events evicted by the bound -- non-zero means the retained
        #: window is not the full run.
        self.dropped = 0

    def append(self, event: TraceEvent) -> None:
        """Record one event, evicting the oldest if full."""
        if len(self._events) == self.CAPACITY:
            self.dropped += 1
        self._events.append(event)
        self.appended += 1

    def events(self, kind: str = None) -> List[TraceEvent]:
        """Events currently retained, oldest first (optionally by kind)."""
        if kind is None:
            return list(self._events)
        return [e for e in self._events if e.kind == kind]

    def clear(self) -> None:
        """Drop all retained events (the appended total is kept)."""
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)
