"""Propagation-lag monitoring: is the transformation converging?

Section 3.3 of the paper: "Each log propagation iteration therefore ends
with an analysis of the remaining work ... based on, e.g. the time used to
complete the current iteration, a count of the remaining log records to be
propagated, or an estimated remaining propagation time.  If more log
records are produced than the propagator is able to process, the
synchronization is never started."

:mod:`repro.transform.analysis` implements those analyses as *decisions*
read off this module's per-iteration series of their *inputs*.  Each point
captures all three suggested quantities:

* **produced vs. consumed** -- total log records generated since the begin
  fuzzy mark vs. records the propagator has processed (the "more log
  records are produced than the propagator is able to process" test);
* **lag** -- the remaining-tail depth (the "count of the remaining log
  records" analysis);
* **estimated remaining units** -- lag times the measured units-per-record
  cost of the last iteration (the "estimated remaining propagation time"
  analysis, in work units so the simulator's cost model can convert it to
  virtual milliseconds).

The series is the analysis' one record of an iteration: the
transformation appends a point, its policy decides from the series, and
the decision is stamped on the point.  :meth:`ConvergenceMonitor.starving`
is the one stall rule: the last ``patience`` points end on a non-zero
lag, and the lag never shrinks from one of them to the next.  The series
travels into the run report (:mod:`repro.obs.report`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
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
    #: "stalled"); stamped once the policy has decided.
    decision: str = ""

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly rendering (one run-report series entry)."""
        return asdict(self)


class ConvergenceMonitor:
    """Accumulates one :class:`ConvergencePoint` per propagation iteration.

    Args:
        metrics: Registry whose clock stamps each point.
    """

    #: Bound on retained points (oldest dropped beyond it; a starving
    #: transformation can iterate indefinitely).
    CAPACITY = 4096

    def __init__(self, metrics: "Metrics") -> None:
        self.metrics = metrics
        self._points: List[ConvergencePoint] = []
        #: Points discarded because the bound was hit.
        self.dropped = 0

    # -- recording ----------------------------------------------------------

    def observe_iteration(self, *, iteration: int, produced: int,
                          consumed: int, lag: int, records: int,
                          units: float) -> ConvergencePoint:
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
        )
        if len(self._points) >= self.CAPACITY:
            self._points.pop(0)
            self.dropped += 1
        self._points.append(point)
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
        """Whether the lag has failed to shrink over ``patience`` points.

        Section 3.3's "more log records are produced than the propagator
        is able to process", and the one stall rule the analysis policies
        decide by: there are at least ``patience`` points, the latest lag
        is non-zero, and across the last ``patience`` points no lag is
        smaller than the one before it.
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
