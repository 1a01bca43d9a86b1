"""repro.obs: counters, histograms, gauges, trace events, spans, reports.

The measurement substrate for the reproduction's performance work.  The
paper's whole evaluation (Section 6) is about *measuring interference*;
this package makes the quantities behind those measurements first-class:

* ``wal.appends`` / ``wal.tail_depth`` -- log generation rate and the
  unflushed tail (Section 3.3's "log records produced" side);
* ``lock.waits`` / ``lock.deadlocks`` / ``latch.hold_time`` -- the
  concurrency-control interference channel;
* ``tf.units.<phase>`` / ``tf.iterations`` / ``tf.decision.*`` --
  per-phase unit accounting and the end-of-iteration analysis verdicts;
* ``sync.latched_window`` -- work done while the source tables were
  latched, the quantity behind the paper's "< 1 ms" synchronization claim;
* ``sim.*`` -- the simulator's throughput / response-time series;
* **spans** (:mod:`repro.obs.spans`) -- hierarchical timing: where a
  transformation, recovery run or CC sweep spent its time;
* **convergence** (:mod:`repro.obs.convergence`) -- the per-iteration
  propagation-lag series behind Section 3.3's three analyses;
* **run reports** (:mod:`repro.obs.report`) -- the single JSON document
  per benchmark run, rendered by ``python -m repro.obs FILE``, and the
  postmortem bundle the chaos soak and fault sweep dump on a violation;
* **blame** (:mod:`repro.obs.blame`) -- interference attribution: every
  lock/latch/blocked-table wait becomes an edge tagged with what the
  *holder* was doing (user work vs. a transformation phase), so "who
  made my transaction wait" is a measured quantity, not a guess;
* **trace ring** (:mod:`repro.obs.trace`) -- the one bounded store of
  retained moments: trace events, closed blame edges and fault firings.

Collection is disabled by default (components hold :data:`NULL_METRICS`,
whose methods are no-ops); see :class:`Metrics` for how to enable it.
"""

from repro.obs.blame import NULL_BLAME, ROLES, BlameBoard
from repro.obs.convergence import ConvergenceMonitor, ConvergencePoint
from repro.obs.metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    Metrics,
)
from repro.obs.report import (
    build_run_report,
    postmortem_bundle,
    render_report,
    run_section,
    sparkline,
)
from repro.obs.spans import NULL_SPAN, Span, SpanTracker
from repro.obs.trace import EventRing, TraceEvent

__all__ = [
    "BlameBoard",
    "ConvergenceMonitor",
    "ConvergencePoint",
    "Counter",
    "EventRing",
    "Gauge",
    "Histogram",
    "Metrics",
    "NULL_BLAME",
    "NULL_METRICS",
    "NULL_SPAN",
    "ROLES",
    "Span",
    "SpanTracker",
    "TraceEvent",
    "build_run_report",
    "postmortem_bundle",
    "render_report",
    "run_section",
    "sparkline",
]
