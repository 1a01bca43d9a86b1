"""Hierarchical span tracing for the transformation pipeline.

Counters say *how much*, the trace ring says *what happened last* -- spans
say **where the time went**.  A :class:`Span` is a named interval on the
pluggable :class:`~repro.obs.metrics.Metrics` clock with a parent link, so
a finished run can be read back as a tree::

    tf (split-1)
    ├── phase:populating
    ├── phase:propagating
    │   ├── iteration 1
    │   │   └── batch ...
    │   └── iteration 2
    └── phase:synchronizing
        └── sync.window            <- the paper's "< 1 ms" critical section

The tracker supports two usage shapes, because the transformation is a
*resumable state machine*, not a call tree:

* :meth:`SpanTracker.span` -- an exception-safe context manager for work
  that starts and ends inside one call (a propagation batch, a recovery
  pass, a CC sweep).  The context-manager stack supplies the parent; an
  escaping exception marks the span failed and still closes it.
* :meth:`SpanTracker.begin` / :meth:`SpanTracker.end` -- explicit spans
  for intervals that cross many ``step()`` calls (a phase, an iteration,
  the latched window), with the parent passed explicitly.

Retention is bounded: once ``CAPACITY`` spans have been started, further
``begin`` calls return the shared :data:`NULL_SPAN` and are counted in
:attr:`SpanTracker.dropped` -- the *earliest* spans survive, so the root
structure of a long run is never evicted (the opposite policy from the
trace ring, :class:`~repro.obs.trace.EventRing`, which keeps the most
recent events).
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional


class Span:
    """One named, timed interval with a parent link.

    ``end`` is ``None`` while the span is open.  ``attrs`` is a mutable
    payload -- callers may enrich a span after starting it (e.g. stamping
    the records/units a batch actually processed at its close).
    """

    __slots__ = ("span_id", "parent_id", "name", "start", "end", "attrs",
                 "error")

    def __init__(self, span_id: int, parent_id: Optional[int], name: str,
                 start: float, attrs: Optional[Dict[str, object]] = None
                 ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attrs: Dict[str, object] = attrs if attrs is not None else {}
        #: Exception repr when the span was closed by an escaping error.
        self.error: Optional[str] = None

    @property
    def open(self) -> bool:
        """Whether the span has not been finished yet."""
        return self.end is None

    @property
    def duration(self) -> float:
        """``end - start`` (0.0 while the span is still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly flat rendering (no children)."""
        out: Dict[str, object] = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.error is not None:
            out["error"] = self.error
        return out

    def __repr__(self) -> str:
        state = "open" if self.open else f"{self.duration:.6f}"
        return f"Span({self.name!r}, id={self.span_id}, {state})"


class _NullSpan(Span):
    """The shared inert span: every mutation is swallowed.

    Returned by disabled registries and by a full tracker, so call sites
    never need a ``None`` check before ``span.attrs[...] = ...`` (attrs
    writes land in a throwaway dict; attribute writes are dropped).
    """

    _constructed = False

    def __init__(self) -> None:
        super().__init__(0, None, "", 0.0)

    def __setattr__(self, name: str, value: object) -> None:
        if not type(self)._constructed:
            super().__setattr__(name, value)


#: The shared inert span (see :class:`_NullSpan`).
NULL_SPAN = _NullSpan()
_NullSpan._constructed = True


class SpanTracker:
    """Registry of spans sharing one clock, with a context-manager stack.

    Args:
        clock: Timestamp source (the owning ``Metrics``'s clock).
    """

    #: Maximum spans retained; further starts are dropped and counted
    #: (earliest-kept policy, see the module docstring).
    CAPACITY = 8192

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self._spans: List[Span] = []
        self._stack: List[Span] = []
        self._ids = itertools.count(1)
        #: Spans ever started (including dropped ones).
        self.started = 0
        #: Spans refused because the tracker was full.
        self.dropped = 0

    # -- recording ----------------------------------------------------------

    def begin(self, name: str, parent: Optional[Span] = None,
              **attrs: object) -> Span:
        """Start a span; the caller must :meth:`end` it.

        Args:
            name: Dotted span name (``"tf.iteration"``, ``"sync.window"``).
            parent: Explicit parent span; defaults to the innermost open
                context-manager span, or root when none is active.
        """
        self.started += 1
        if len(self._spans) >= self.CAPACITY:
            self.dropped += 1
            return NULL_SPAN
        if parent is None and self._stack:
            parent = self._stack[-1]
        parent_id = None
        if parent is not None and parent is not NULL_SPAN:
            parent_id = parent.span_id
        span = Span(next(self._ids), parent_id, name, self._clock(),
                    dict(attrs) if attrs else None)
        self._spans.append(span)
        return span

    def end(self, span: Span, error: Optional[BaseException] = None) -> None:
        """Finish a span (idempotent; inert for :data:`NULL_SPAN`)."""
        if span is NULL_SPAN or not span.open:
            return
        span.end = self._clock()
        if error is not None:
            span.error = repr(error)

    @contextmanager
    def span(self, name: str, parent: Optional[Span] = None,
             **attrs: object) -> Iterator[Span]:
        """Exception-safe context manager: begin, push, yield, end.

        An escaping exception stamps :attr:`Span.error` and re-raises;
        the span is closed either way.
        """
        span = self.begin(name, parent=parent, **attrs)
        self._stack.append(span)
        try:
            yield span
        except BaseException as exc:
            self.end(span, error=exc)
            raise
        else:
            self.end(span)
        finally:
            self._stack.pop()

    # -- reading ------------------------------------------------------------

    def spans(self, name: Optional[str] = None) -> List[Span]:
        """Retained spans in start order (optionally filtered by name)."""
        if name is None:
            return list(self._spans)
        return [s for s in self._spans if s.name == name]

    def find(self, name: str) -> Optional[Span]:
        """First retained span with this name, or ``None``."""
        for span in self._spans:
            if span.name == name:
                return span
        return None

    def tree(self) -> List[Dict[str, object]]:
        """The span forest as nested JSON-friendly dicts.

        Each node is :meth:`Span.as_dict` plus a ``children`` list (start
        order).  Spans whose parent was dropped become roots, so the tree
        never silently loses a subtree.
        """
        nodes: Dict[int, Dict[str, object]] = {}
        roots: List[Dict[str, object]] = []
        for span in self._spans:
            node = span.as_dict()
            node["children"] = []
            nodes[span.span_id] = node
        for span in self._spans:
            node = nodes[span.span_id]
            parent = nodes.get(span.parent_id) \
                if span.parent_id is not None else None
            if parent is None:
                roots.append(node)
            else:
                parent["children"].append(node)
        return roots

    def summary(self) -> Dict[str, int]:
        """Retention accounting for the metrics snapshot."""
        return {
            "started": self.started,
            "retained": len(self._spans),
            "open": sum(1 for s in self._spans if s.open),
            "dropped": self.dropped,
        }

    def clear(self) -> None:
        """Drop every retained span (the started total is kept)."""
        self._spans = []
        self._stack = []

    def __len__(self) -> int:
        return len(self._spans)


class _NullSpanTracker(SpanTracker):
    """Disabled tracker: every operation is a no-op returning inert spans."""

    def __init__(self) -> None:
        super().__init__(lambda: 0.0)

    def begin(self, name: str, parent: Optional[Span] = None,
              **attrs: object) -> Span:  # noqa: D102
        return NULL_SPAN

    def end(self, span: Span,
            error: Optional[BaseException] = None) -> None:  # noqa: D102
        pass

    @contextmanager
    def span(self, name: str, parent: Optional[Span] = None,
             **attrs: object) -> Iterator[Span]:  # noqa: D102
        yield NULL_SPAN


#: The shared disabled tracker (held by ``NULL_METRICS``).
NULL_SPAN_TRACKER = _NullSpanTracker()
