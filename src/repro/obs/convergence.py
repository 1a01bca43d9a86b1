"""Propagation-lag monitoring: is the transformation converging?

Section 3.3 of the paper: "Each log propagation iteration therefore ends
with an analysis of the remaining work ... based on, e.g. the time used to
complete the current iteration, a count of the remaining log records to be
propagated, or an estimated remaining propagation time.  If more log
records are produced than the propagator is able to process, the
synchronization is never started."

:mod:`repro.transform.analysis` implements those analyses as *decisions*;
this module records their *inputs* as a queryable per-iteration series, so
a starving transformation is visible in the observability output long
before the policy gives up.  Each point captures all three suggested
quantities:

* **produced vs. consumed** -- total log records generated since the begin
  fuzzy mark vs. records the propagator has processed (the "more log
  records are produced than the propagator is able to process" test);
* **lag** -- the remaining-tail depth (the "count of the remaining log
  records" analysis);
* **estimated remaining units** -- lag times the measured units-per-record
  cost of the last iteration (the "estimated remaining propagation time"
  analysis, in work units so the simulator's cost model can convert it to
  virtual milliseconds).

The monitor feeds the owning :class:`~repro.obs.metrics.Metrics` registry
on every point (gauges ``tf.lag.*``, so dashboards see the latest values
and their bounded history) and the series itself travels into the run
report (:mod:`repro.obs.report`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.metrics import Metrics


@dataclass
class ConvergencePoint:
    """Propagation-lag facts at the end of one iteration."""

    iteration: int
    #: Clock reading (``Metrics`` clock) when the analysis ran.
    t: float
    #: Log records generated since propagation began (produced side).
    produced: int
    #: Log records the propagator has processed in total (consumed side).
    consumed: int
    #: Remaining-tail depth: records still to be propagated.
    lag: int
    #: Records propagated during this iteration alone.
    records: int
    #: Work units this iteration spent.
    units: float
    #: Measured cost of one propagated record (units; 0 when idle).
    units_per_record: float
    #: Estimated remaining work (lag * units_per_record).
    est_remaining_units: float
    #: The analysis decision this point fed ("iterate" / "synchronize" /
    #: "stalled").
    decision: str

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly rendering (one run-report series entry)."""
        return {
            "iteration": self.iteration,
            "t": self.t,
            "produced": self.produced,
            "consumed": self.consumed,
            "lag": self.lag,
            "records": self.records,
            "units": self.units,
            "units_per_record": self.units_per_record,
            "est_remaining_units": self.est_remaining_units,
            "decision": self.decision,
        }


class ConvergenceMonitor:
    """Accumulates one :class:`ConvergencePoint` per propagation iteration.

    Args:
        metrics: Registry receiving the ``tf.lag.*`` gauge series; points
            are recorded regardless, gauges only while it is enabled.
        transform_id: Stamped into the gauge trace for multi-transform runs.
    """

    #: Bound on retained points (oldest dropped beyond it; a starving
    #: transformation can iterate indefinitely).
    CAPACITY = 4096

    def __init__(self, metrics: "Metrics", transform_id: str = "") -> None:
        self.metrics = metrics
        self.transform_id = transform_id
        self._points: List[ConvergencePoint] = []
        #: Points discarded because the bound was hit.
        self.dropped = 0

    # -- recording ----------------------------------------------------------

    def observe_iteration(self, *, iteration: int, produced: int,
                          consumed: int, lag: int, records: int,
                          units: float, decision: str) -> ConvergencePoint:
        """Record the end-of-iteration analysis inputs; returns the point."""
        per_record = units / records if records else 0.0
        point = ConvergencePoint(
            iteration=iteration,
            t=self.metrics.now(),
            produced=produced,
            consumed=consumed,
            lag=lag,
            records=records,
            units=units,
            units_per_record=per_record,
            est_remaining_units=lag * per_record,
            decision=decision,
        )
        if len(self._points) >= self.CAPACITY:
            self._points.pop(0)
            self.dropped += 1
        self._points.append(point)
        if self.metrics.enabled:
            self.metrics.set_gauge("tf.lag.produced", produced)
            self.metrics.set_gauge("tf.lag.consumed", consumed)
            self.metrics.set_gauge("tf.lag.remaining", lag)
            self.metrics.set_gauge("tf.lag.est_remaining_units",
                                   point.est_remaining_units)
        return point

    # -- reading ------------------------------------------------------------

    @property
    def points(self) -> List[ConvergencePoint]:
        """Retained points, oldest first."""
        return list(self._points)

    @property
    def latest(self) -> Optional[ConvergencePoint]:
        """Most recent point, or ``None`` before the first iteration."""
        return self._points[-1] if self._points else None

    def series(self) -> List[Dict[str, object]]:
        """The whole series as JSON-friendly dicts (run-report payload)."""
        return [p.as_dict() for p in self._points]

    def starving(self, patience: int = 3) -> bool:
        """Whether the lag has failed to shrink for ``patience`` points.

        The observable early-warning form of Section 3.3's "more log
        records are produced than the propagator is able to process": the
        remaining tail is non-zero and non-decreasing across the last
        ``patience`` iterations.  The analysis policy makes the binding
        decision; this is the monitoring-side signal that fires first.
        """
        if patience < 1:
            raise ValueError("patience must be >= 1")
        if len(self._points) < patience:
            return False
        recent = self._points[-patience:]
        if recent[-1].lag == 0:
            return False
        return all(recent[i].lag >= recent[i - 1].lag
                   for i in range(1, len(recent)))

    def __len__(self) -> int:
        return len(self._points)
