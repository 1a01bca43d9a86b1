"""Counters, histograms and a snapshot API with a near-zero disabled path.

The library is instrumented throughout (WAL, lock manager, transformation
framework, simulator), but observability is **off by default**: every
component holds a reference to :data:`NULL_METRICS`, whose recording
methods are empty one-liners, so the uninstrumented hot paths pay one
attribute lookup and a no-op call at most.  Hot sites that would have to
*build* a label or payload additionally guard on ``metrics.enabled``.

Enable collection by constructing a real :class:`Metrics` and passing it
to the component (``Database(metrics=Metrics())``,
``Server(..., metrics=m)``) or attaching it afterwards
(:meth:`repro.engine.database.Database.attach_metrics`).

Design notes:

* names are dotted strings (``"wal.appends"``, ``"sync.latched_window"``);
  instruments are created lazily on first use;
* histograms keep exact count/total/min/max plus a bounded sample ring for
  percentiles -- memory stays O(``Histogram.SAMPLE_CAP``) per histogram;
* the clock is pluggable so the simulator can record *virtual* time
  (``Metrics(clock=lambda: sim.now)``); the default is wall time;
* :meth:`Metrics.snapshot` renders everything into plain dicts, ready for
  ``json.dumps`` -- the benchmark harness persists these next to its
  ``.txt`` tables.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.obs.spans import (
    NULL_SPAN,
    NULL_SPAN_TRACKER,
    Span,
    SpanTracker,
)
from repro.obs.trace import EventRing, TraceEvent


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: float = 1) -> None:
        """Add ``n`` (default 1) to the count."""
        self.value += n


class Histogram:
    """Distribution summary: exact moments + a bounded sample ring.

    ``count``/``total``/``min``/``max`` are exact over every
    observation; percentiles are computed from the most recent
    :attr:`SAMPLE_CAP` samples.
    """

    #: Samples retained for percentiles.
    SAMPLE_CAP = 512

    __slots__ = ("name", "count", "total", "min", "max", "_samples")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._samples: Deque[float] = deque(maxlen=self.SAMPLE_CAP)

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self._samples.append(value)

    @property
    def mean(self) -> float:
        """Mean over all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, pct: float) -> float:
        """Percentile over the retained sample ring.

        An empty histogram returns exactly ``0.0`` for every ``pct`` --
        the documented sentinel consumers (benchmark JSON, the regression
        gate) rely on, never an exception or a sample-ring artifact.
        """
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        index = min(len(ordered) - 1,
                    max(0, int(round(pct / 100.0 * (len(ordered) - 1)))))
        return ordered[index]

    @property
    def p999(self) -> float:
        """The 99.9th percentile over the retained samples (0.0 empty)."""
        return self.percentile(99.9)

    def as_dict(self) -> Dict[str, float]:
        """JSON-friendly summary."""
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "p999": self.p999,
        }

    #: Alias: the dict rendering is the histogram's summary.
    summary = as_dict


class Gauge:
    """A last-value instrument with a bounded history series.

    Where a counter accumulates and a histogram aggregates, a gauge tracks
    a *level* -- propagation lag, queue depth, capacity share -- and keeps
    its recent trajectory as ``(t, value)`` pairs, rendering into the
    per-iteration series the run report plots.
    """

    __slots__ = ("name", "value", "_series")

    #: History points retained.
    SERIES_CAP = 1024

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self._series: Deque[Tuple[float, float]] = deque(
            maxlen=self.SERIES_CAP)

    def set(self, value: float, t: float) -> None:
        """Record the current level at clock reading ``t``."""
        self.value = value
        self._series.append((t, value))

    def series(self) -> List[Dict[str, float]]:
        """Retained trajectory, oldest first."""
        return [{"t": t, "value": v} for t, v in self._series]

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly rendering: last value + bounded history."""
        return {"value": self.value, "series": self.series()}


class Metrics:
    """Registry of counters, histograms, gauges, spans and the trace ring.

    Args:
        enabled: When False every recording method returns immediately
            (instruments are still creatable for introspection).
        clock: Timestamp source for trace events, spans and :meth:`now`;
            defaults to :func:`time.perf_counter`.

    :attr:`ring` is the one store of retained moments: :meth:`trace`
    events, the blame board's closed wait edges (``blame.edge``) and,
    in a :class:`~repro.faults.sweep.ScenarioRun`, fault firings
    (``fault.fired``) share its bound and its drop counter.  Every
    retention bound is a constant of the instrument that keeps it
    (``EventRing.CAPACITY``, ``Histogram.SAMPLE_CAP``,
    ``SpanTracker.CAPACITY``, ``Gauge.SERIES_CAP``,
    ``ConvergenceMonitor.CAPACITY``); histogram samples and gauge series
    stay per instrument because percentiles and plotted series read them.
    """

    def __init__(self, enabled: bool = True,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.enabled = enabled
        self._clock = clock if clock is not None else time.perf_counter
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._gauges: Dict[str, Gauge] = {}
        self.ring = EventRing()
        #: Hierarchical span tracker sharing this registry's clock.
        self.spans = SpanTracker(self._clock)
        # Deferred import: repro.obs.blame reuses Histogram from this
        # module, so the board is bound at construction time instead.
        from repro.obs.blame import BlameBoard
        #: Interference attribution board on this registry's clock and
        #: ring.
        self.blame = BlameBoard(self)

    # -- instruments --------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter with this name (created on first use)."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def histogram(self, name: str) -> Histogram:
        """The histogram with this name (created on first use)."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name)
        return histogram

    def gauge(self, name: str) -> Gauge:
        """The gauge with this name (created on first use)."""
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    # -- recording ----------------------------------------------------------

    def inc(self, name: str, n: float = 1) -> None:
        """Increment the named counter by ``n``."""
        if not self.enabled:
            return
        self.counter(name).inc(n)

    def observe(self, name: str, value: float) -> None:
        """Record one observation on the named histogram."""
        if not self.enabled:
            return
        self.histogram(name).observe(value)

    def set_gauge(self, name: str, value: float) -> None:
        """Set the named gauge's level (timestamped on this clock)."""
        if not self.enabled:
            return
        self.gauge(name).set(value, self._clock())

    def trace(self, kind: str, **fields: object) -> None:
        """Append one structured event to the trace ring."""
        if not self.enabled:
            return
        self.ring.append(TraceEvent(self._clock(), kind, fields))

    # -- spans --------------------------------------------------------------

    def span(self, name: str, parent: Optional[Span] = None,
             **attrs: object):
        """Exception-safe span context manager (inert when disabled)."""
        if not self.enabled:
            return NULL_SPAN_TRACKER.span(name)
        return self.spans.span(name, parent=parent, **attrs)

    def begin_span(self, name: str, parent: Optional[Span] = None,
                   **attrs: object) -> Span:
        """Start an explicit span; pair with :meth:`end_span`."""
        if not self.enabled:
            return NULL_SPAN
        return self.spans.begin(name, parent=parent, **attrs)

    def end_span(self, span: Optional[Span],
                 error: Optional[BaseException] = None) -> None:
        """Finish an explicit span (inert for ``None``/null spans)."""
        if span is None or span is NULL_SPAN or not self.enabled:
            return
        self.spans.end(span, error=error)

    def now(self) -> float:
        """Current clock reading (0.0 when disabled, so deltas are inert)."""
        return self._clock() if self.enabled else 0.0

    # -- reading ------------------------------------------------------------

    def counter_value(self, name: str) -> float:
        """Current value of a counter (0 if never incremented)."""
        counter = self._counters.get(name)
        return counter.value if counter is not None else 0

    def events(self, kind: str = None) -> List[TraceEvent]:
        """Retained trace events, optionally filtered by kind."""
        return self.ring.events(kind)

    def snapshot(self) -> Dict[str, object]:
        """Render every instrument into plain, JSON-serializable dicts."""
        return {
            "counters": {name: c.value
                         for name, c in sorted(self._counters.items())},
            "histograms": {name: h.as_dict()
                           for name, h in sorted(self._histograms.items())},
            "gauges": {name: g.as_dict()
                       for name, g in sorted(self._gauges.items())},
            "trace": {
                "retained": len(self.ring),
                "appended": self.ring.appended,
                "dropped": self.ring.dropped,
            },
            "spans": self.spans.summary(),
            "blame": self.blame.snapshot(),
        }

    def reset(self) -> None:
        """Drop all instruments, trace events, spans and blame totals."""
        self._counters.clear()
        self._histograms.clear()
        self._gauges.clear()
        self.ring = EventRing()
        self.spans = SpanTracker(self._clock)
        self.blame.reset()


class _NullMetrics(Metrics):
    """The shared disabled registry: every recording method is a no-op.

    Components default to this singleton so the uninstrumented path costs
    one attribute lookup and an empty call.  It cannot be enabled --
    callers wanting real collection must construct a :class:`Metrics`.
    """

    def __init__(self) -> None:
        super().__init__(enabled=False)
        from repro.obs.blame import NULL_BLAME
        self.blame = NULL_BLAME

    def inc(self, name: str, n: float = 1) -> None:  # noqa: D102
        pass

    def observe(self, name: str, value: float) -> None:  # noqa: D102
        pass

    def set_gauge(self, name: str, value: float) -> None:  # noqa: D102
        pass

    def trace(self, kind: str, **fields: object) -> None:  # noqa: D102
        pass

    def span(self, name: str, parent: Optional[Span] = None,
             **attrs: object):  # noqa: D102
        return NULL_SPAN_TRACKER.span(name)

    def begin_span(self, name: str, parent: Optional[Span] = None,
                   **attrs: object) -> Span:  # noqa: D102
        return NULL_SPAN

    def end_span(self, span: Optional[Span],
                 error: Optional[BaseException] = None) -> None:  # noqa: D102
        pass

    def now(self) -> float:  # noqa: D102
        return 0.0

    def __setattr__(self, name: str, value: object) -> None:
        if name == "enabled" and value:
            raise ValueError(
                "NULL_METRICS cannot be enabled; construct Metrics() instead")
        super().__setattr__(name, value)


#: The shared disabled registry (see :class:`_NullMetrics`).
NULL_METRICS = _NullMetrics()
