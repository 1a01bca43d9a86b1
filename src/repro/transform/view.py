"""Non-blocking materialized-view construction (paper Section 7).

"Non-blocking population of tables may have other important usages than
schema changes.  Using the technique to create other types of derived
tables like Materialized Views is an obvious example."

:class:`MaterializedFojView` builds a denormalized join view with exactly
the framework's machinery -- fuzzy population, log propagation, a brief
latched final propagation -- but *publishes the view next to the source
tables instead of replacing them*.  After publication the view is a
**deferred** materialized view (the kind Section 2.1 recommends over
trigger-maintained immediate views): the same propagation rules keep it
converging whenever :meth:`MaterializedFojView.maintain` is given cycles,
and :meth:`refresh` forces it up to date.

Note how this sidesteps the classic MV bootstrap problem the paper
describes in Section 2.3: ordinary incremental view maintenance requires
an initially *consistent* view (a blocking read), whereas this builder
starts from a fuzzy, inconsistent image and converges through the log.
"""

from __future__ import annotations

from repro.common.errors import TransformationStateError
from repro.transform.base import Phase
from repro.transform.foj import FojTransformation
from repro.wal.records import TransformRetireRecord


class MaterializedFojView(FojTransformation):
    """A denormalized full-outer-join view, built and maintained online.

    Example::

        view = MaterializedFojView(db, spec)
        view.run()                  # view published; R and S still there
        ...
        view.maintain(budget=256)   # propagate recent changes (deferred)
        view.refresh()              # force the view fully up to date
        print(view.staleness)       # log records not yet reflected

    Unlike a schema transformation, completion (``run`` returning, phase
    DONE) means *published*, not finished: the view remains registered and
    :meth:`maintain` keeps applying the same propagation rules for as long
    as the view lives.  Its handover retires nothing: no zombies, nobody
    old to abort or mirror; restart recomputes it from the sources.
    """

    kind = "mv_foj"
    retires = False

    #: The framework's table plus the one view-only edge: a published
    #: view is dropped (DONE -> ABORTED).
    MACHINE = {**FojTransformation.MACHINE,
               Phase.DONE: (None, (Phase.ABORTED,))}

    # -- post-publication maintenance -----------------------------------------

    @property
    def published(self) -> bool:
        """Whether the view has been published (build complete)."""
        return self.phase is Phase.DONE

    @property
    def staleness(self) -> int:
        """Number of log records not yet reflected in the view."""
        return self._remaining()

    def maintain(self, budget: float = 256.0) -> float:
        """Propagate up to ``budget`` units of recent log into the view.

        Call this from a background thread/cron -- the deferred-view
        maintenance the paper recommends ("Updates can therefore be
        propagated to the transformed tables during low workloads").
        Returns the units consumed.
        """
        if not self.published:
            raise TransformationStateError(
                "maintain() requires a published view; drive run()/step() "
                "to completion first")
        self._iteration_target = self.db.log.end_lsn
        return self._propagate_batch(budget)

    def refresh(self, max_steps: int = 1_000_000) -> None:
        """Drive maintenance until the view reflects the entire log."""
        for _ in range(max_steps):
            if self.staleness == 0:
                return
            self.maintain(4096.0)
        raise TransformationStateError("refresh did not converge")

    def drop(self) -> None:
        """Drop the view and stop maintaining it.

        A published view logs a :class:`TransformRetireRecord`, then
        retires its swap from the catalog, as restart's redo does at the
        record.  An unpublished view is aborted, which releases whatever
        its build holds.
        """
        if not self.published:
            self.abort()
            return
        self.db.log.append(TransformRetireRecord(
            transform_id=self.transform_id))
        self.db.catalog.retire(self.transform_id)
        self._enter(Phase.ABORTED)
