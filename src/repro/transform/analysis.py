"""End-of-iteration analysis: iterate again, synchronize, or give up.

Section 3.3 of the paper: "Each log propagation iteration therefore ends
with an analysis of the remaining work.  Based on the analysis, either
another log propagation iteration or the synchronization step is started.
The analysis could be based on, e.g. the time used to complete the current
iteration, a count of the remaining log records to be propagated, or an
estimated remaining propagation time.  If more log records are produced
than the propagator is able to process, the synchronization is never
started.  If this is the case, the transformation should either be aborted
or get higher priority."

All three suggested analyses are provided; the remaining-record count is
the default.  A policy decides from the transformation's own convergence
series (:class:`~repro.obs.convergence.ConvergenceMonitor`; its latest
point is the iteration just finished) and holds no state, so one instance
can serve any number of transformations.  The one stall rule is
:meth:`~repro.obs.convergence.ConvergenceMonitor.starving`: the last
``patience`` points end on a non-zero lag, and the lag never shrinks
from one of them to the next.
"""

from __future__ import annotations

from enum import Enum

from repro.obs.convergence import ConvergenceMonitor


class Decision(Enum):
    """Outcome of the end-of-iteration analysis."""

    ITERATE = "iterate"
    SYNCHRONIZE = "synchronize"
    #: The propagator is not keeping up: log is produced faster than it is
    #: consumed.  The caller should abort the transformation or raise its
    #: priority (the simulator's Figure 4(d) sweep exercises exactly this).
    STALLED = "stalled"


class PropagationPolicy:
    """Base class: decide after each iteration what to do next."""

    def decide(self, series: ConvergenceMonitor) -> Decision:
        """Return the next action given the transformation's series; its
        ``latest`` point is the iteration just finished."""
        raise NotImplementedError


def _check_patience(patience: int) -> int:
    # The series keeps CAPACITY points: a longer patience could never fire.
    if not 1 <= patience <= ConvergenceMonitor.CAPACITY:
        raise ValueError(
            f"patience must be in 1..{ConvergenceMonitor.CAPACITY}")
    return patience


class RemainingRecordsPolicy(PropagationPolicy):
    """Synchronize when few enough records remain (the default analysis).

    The synchronization step latches the source tables for one final
    propagation; it "should not be started if a significant portion of the
    log remains to be propagated" (Section 3.3).  A stall is declared when
    the series starves for ``patience`` points.

    Args:
        max_remaining: Synchronize once at most this many records remain.
        patience: Number of latest points whose non-zero lag never shrinks
            before a stall is declared.
    """

    def __init__(self, max_remaining: int = 64, patience: int = 8) -> None:
        if max_remaining < 0:
            raise ValueError("max_remaining must be >= 0")
        self.max_remaining = max_remaining
        self.patience = _check_patience(patience)

    def decide(self, series: ConvergenceMonitor) -> Decision:
        if series.latest.lag <= self.max_remaining:
            return Decision.SYNCHRONIZE
        if series.starving(self.patience):
            return Decision.STALLED
        return Decision.ITERATE


class EstimatedTimePolicy(PropagationPolicy):
    """Synchronize when the estimated remaining propagation time is short.

    Estimates the propagator's record throughput from the last iteration
    (units per record as a proxy for time) and synchronizes when the
    projected catch-up time falls under a threshold.  An idle iteration
    (nothing propagated) measures no cost, so it charges one unit per
    remaining record.

    Args:
        max_estimated_units: Synchronize when remaining * units-per-record
            is at most this.
        patience: Stall patience, as in :class:`RemainingRecordsPolicy`.
    """

    def __init__(self, max_estimated_units: int = 256,
                 patience: int = 8) -> None:
        if max_estimated_units < 0:
            raise ValueError("max_estimated_units must be >= 0")
        self.max_estimated_units = max_estimated_units
        self.patience = _check_patience(patience)

    def decide(self, series: ConvergenceMonitor) -> Decision:
        point = series.latest
        estimate = point.est_remaining_units if point.records else point.lag
        if estimate <= self.max_estimated_units:
            return Decision.SYNCHRONIZE
        if series.starving(self.patience):
            return Decision.STALLED
        return Decision.ITERATE


class FixedIterationsPolicy(PropagationPolicy):
    """Synchronize after a fixed number of iterations (tests/benchmarks)."""

    def __init__(self, iterations: int = 1) -> None:
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.iterations = iterations

    def decide(self, series: ConvergenceMonitor) -> Decision:
        if series.latest.iteration >= self.iterations:
            return Decision.SYNCHRONIZE
        return Decision.ITERATE
