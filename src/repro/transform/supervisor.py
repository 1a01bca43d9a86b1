"""Self-healing driver for transformations: retry, backoff, escalation.

The paper treats transformation failure as cheap and routine: "Aborting
the transformation simply means that log propagation is stopped, and that
the transformed tables are deleted" (Section 6), and the Section 3.3
starvation analysis explicitly ends in "abort ... and restart it with a
higher priority".  :class:`TransformationSupervisor` turns that stance
into the DBA-facing entry point: instead of raise-and-die, it drives
each attempt with :meth:`~repro.transform.base.Transformation.run` and,
when the transformation aborts, cleans up, waits out an exponential
backoff and retries with a *fresh* transformation from a caller-supplied
factory.

Priority escalation: the per-step budget is the system's priority proxy
(the simulator grants the background process ``budget`` work units per
scheduling slot).  A :class:`~repro.common.errors.TransformationStarvedError`
(``run``'s answer to a step report flagged ``stalled``) multiplies the
budget by :attr:`~TransformationSupervisor.ESCALATION_FACTOR` before the
retry, reproducing the paper's "restart it later [at a higher priority]"
loop.  Hard aborts (plain
:class:`~repro.common.errors.TransformationAbortedError`) retry at the
same priority.

Time is counted in abstract *wait units* (the supervisor is
environment-agnostic); pass ``on_wait`` to map them onto real sleeping or
simulated time.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.common.errors import (
    TransformationAbortedError,
    TransformationStarvedError,
)
from repro.engine.database import Database
from repro.transform.base import Phase, Transformation


class TransformationSupervisor:
    """Drives a transformation to completion across aborts and starvation.

    Args:
        db: The database being transformed (used for bookkeeping only; the
            factory builds transformations bound to it).
        factory: Zero-argument callable returning a *fresh*, fully
            configured :class:`Transformation` for each attempt (the
            factory alone decides an attempt's options).  Fresh matters: an
            aborted transformation cannot be restarted in place -- the
            paper's abort deletes the transformed tables, so every retry
            re-runs preparation and population.
        budget: Initial per-step budget (the priority proxy, the one
            throttle: retry and escalation sizes are the class constants
            below).
        on_wait: Optional callback receiving each backoff duration in wait
            units (e.g. ``time.sleep`` or a simulator clock advance).
    """

    #: Give up (re-raising the last abort) after this many failed attempts.
    MAX_ATTEMPTS = 8
    #: Wait units before the first retry, the multiplier applied to the
    #: wait per failed attempt, and the upper bound on a single wait.
    BACKOFF_BASE = 1.0
    BACKOFF_FACTOR = 2.0
    BACKOFF_CAP = 60.0
    #: Budget multiplier applied after a starvation abort (stall), the
    #: Section 3.3 priority escalation, and the escalated budget's ceiling.
    ESCALATION_FACTOR = 4
    MAX_BUDGET = 1 << 20
    #: Safety net against a wedged attempt.
    MAX_STEPS_PER_ATTEMPT = 1_000_000

    def __init__(self, db: Database,
                 factory: Callable[[], Transformation], *,
                 budget: int = 256,
                 on_wait: Optional[Callable[[float], None]] = None) -> None:
        self.db = db
        self.factory = factory
        self.budget = budget
        self.on_wait = on_wait
        #: The database's registry: the retry loop is part of the observed
        #: pipeline, so attempts show up as spans under ``supervisor`` and
        #: retries/backoffs/escalations as trace events.
        self.metrics = db.metrics
        #: What happened, for assertions and operator dashboards.
        self.stats: Dict[str, object] = {
            "attempts": 0, "aborts": 0, "starvations": 0,
            "total_wait": 0.0, "final_budget": budget,
        }
        #: Per-attempt ``(budget, outcome)`` history.
        self.history: List[Dict[str, object]] = []

    # ------------------------------------------------------------------

    def run(self) -> Transformation:
        """Drive attempts until one completes; returns the completed
        transformation.  Re-raises the last abort after
        :attr:`MAX_ATTEMPTS`."""
        budget = self.budget
        wait = self.BACKOFF_BASE
        last_error: Optional[TransformationAbortedError] = None
        root = self.metrics.begin_span("supervisor",
                                       max_attempts=self.MAX_ATTEMPTS)
        try:
            for attempt in range(1, self.MAX_ATTEMPTS + 1):
                self.stats["attempts"] = attempt
                self.stats["final_budget"] = budget
                tf = self.factory()
                span = self.metrics.begin_span(
                    "supervisor.attempt", parent=root,
                    attempt=attempt, budget=budget)
                tf._span_parent = span
                try:
                    tf.run(self.MAX_STEPS_PER_ATTEMPT, budget)
                    self.history.append({"budget": budget,
                                         "outcome": "done"})
                    self._attempt_over(span, attempt, budget, "done")
                    return tf
                except TransformationAbortedError as exc:
                    last_error = exc
                    starved = isinstance(exc, TransformationStarvedError)
                    outcome = "starved" if starved else "aborted"
                    self.stats["aborts"] = int(self.stats["aborts"]) + 1
                    self.history.append({"budget": budget,
                                         "outcome": outcome})
                    self._ensure_aborted(tf)
                    self._attempt_over(span, attempt, budget, outcome)
                    if starved:
                        self.stats["starvations"] = \
                            int(self.stats["starvations"]) + 1
                        escalated = min(self.MAX_BUDGET,
                                        budget * self.ESCALATION_FACTOR)
                        if self.metrics.enabled:
                            self.metrics.inc("supervisor.escalations")
                            self.metrics.trace("supervisor.escalate",
                                               attempt=attempt,
                                               from_budget=budget,
                                               to_budget=escalated)
                        budget = escalated
                if attempt < self.MAX_ATTEMPTS:
                    if self.metrics.enabled:
                        self.metrics.inc("supervisor.retries")
                        self.metrics.observe("supervisor.backoff_wait", wait)
                        self.metrics.trace("supervisor.backoff",
                                           attempt=attempt, wait=wait)
                    self._wait(wait)
                    wait = min(self.BACKOFF_CAP, wait * self.BACKOFF_FACTOR)
            assert last_error is not None
            raise last_error
        finally:
            self.metrics.end_span(root)

    def _attempt_over(self, span, attempt: int, budget: int,
                      outcome: str) -> None:
        """Close one attempt's span and trace its outcome."""
        if self.metrics.enabled:
            span.attrs["outcome"] = outcome
            self.metrics.end_span(span)
            self.metrics.trace("supervisor.attempt", attempt=attempt,
                               budget=budget, outcome=outcome)

    # ------------------------------------------------------------------

    def _ensure_aborted(self, tf: Transformation) -> None:
        """Guarantee the failed attempt left zero residue behind."""
        if tf.phase not in (Phase.ABORTED, Phase.DONE, Phase.BACKGROUND):
            tf.abort()

    def _wait(self, wait: float) -> None:
        self.stats["total_wait"] = float(self.stats["total_wait"]) + wait
        if self.on_wait is not None:
            self.on_wait(wait)
