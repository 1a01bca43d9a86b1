"""The blocking ``INSERT INTO ... SELECT`` baseline (paper Section 1).

"A schema transformation can easily be made if the involved tables can be
locked while the transformation is performed.  Most databases can do this
by issuing an insert into select command...  For tables with large amounts
of data, the insert into select method could easily take tens of minutes
or more."

This baseline locks the source tables for the *entire* copy: it latches
them, reads a consistent snapshot, applies the operator, swaps, and
unlatches.  Every concurrent transaction touching the sources stalls for
the duration -- the blocked time the benchmarks compare against the online
method's sub-millisecond synchronization latch.

The class exposes the same ``step(budget)`` / ``done`` driving interface
as :class:`repro.transform.base.Transformation`, so the simulator can run
it as the background process and measure exactly how long user
transactions stay blocked.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Tuple, Union

from repro.common.errors import TransformationStateError
from repro.engine.database import Database
from repro.engine.fuzzy import FuzzyScan
from repro.relational.spec import FojSpec, SplitSpec
from repro.storage.table import Table
from repro.transform.base import Phase, StepReport
from repro.transform.foj import FojHashJoin, FojTransformation
from repro.transform.split import SplitRuleEngine, SplitTransformation
from repro.wal.records import FuzzyMarkRecord, TransformSwapRecord


class BlockingTransformation:
    """Offline (blocking) FOJ or split transformation.

    Args:
        db: The database.
        spec: A :class:`FojSpec` or :class:`SplitSpec`.
        chunk: Rows copied per work unit batch (granularity of
            :meth:`step`; the tables stay latched across steps regardless
            -- that is the point of this baseline).
    """

    def __init__(self, db: Database, spec: Union[FojSpec, SplitSpec],
                 chunk: int = 256) -> None:
        self.db = db
        self.spec = spec
        self.chunk = chunk
        self.is_split = isinstance(spec, SplitSpec)
        self.transform_id = "blocking-" + (
            spec.source_name if self.is_split else spec.target_name)
        self.phase = Phase.CREATED
        self.targets: Dict[str, Table] = {}
        self._rows: List = []
        self._pos = 0
        #: Units spent while the sources were latched (= all of them).
        self.blocked_units = 0

    @property
    def source_tables(self) -> Tuple[str, ...]:
        """Names of the tables being transformed away."""
        if self.is_split:
            return (self.spec.source_name,)
        return (self.spec.r_name, self.spec.s_name)

    @property
    def done(self) -> bool:
        """Whether the transformation completed."""
        return self.phase is Phase.DONE

    # -- driving ------------------------------------------------------------

    def run(self) -> None:
        """Drive to completion (single-threaded use)."""
        while not self.done:
            self.step(1 << 20)

    def step(self, budget: int = 256) -> StepReport:
        """Perform up to ``budget`` copy units; sources stay latched."""
        budget = max(1, int(budget))
        if self.phase is Phase.DONE:
            return StepReport(self.phase, 0, True)
        if self.phase is Phase.CREATED:
            self._prepare_and_latch()
            return StepReport(self.phase, 1, False)
        if self.phase is Phase.POPULATING:
            units = self._copy_step(budget)
            self.blocked_units += units
            if self._pos >= len(self._rows):
                self._swap_and_release()
                return StepReport(self.phase, max(units, 1), True)
            return StepReport(self.phase, max(units, 1), False)
        raise TransformationStateError(f"unexpected phase {self.phase}")

    # -- internals -------------------------------------------------------------

    def _prepare_and_latch(self) -> None:
        operator = SplitTransformation if self.is_split \
            else FojTransformation
        self.targets = operator.target_tables(self.db, self.spec)
        for name in self.source_tables:
            table = self.db.catalog.get(name)
            self.db.locks.latch_table(table.uid, self.transform_id)
        # With the sources latched, the snapshot is trivially consistent.
        if self.is_split:
            source = self.db.catalog.get(self.spec.source_name)
            self._rows = [(dict(r.values), r.lsn) for r in source.scan()]
            self._engine = SplitRuleEngine(self.db, self.spec,
                                           *self.targets.values())
        else:
            # The copy is charged one unit per R row.
            self._rows = list(self.db.catalog.get(self.spec.r_name).rows)
        self.blocked_units += 1
        self.phase = Phase.POPULATING

    def _copy_step(self, budget: int) -> int:
        take = min(budget, len(self._rows) - self._pos)
        if take <= 0:
            return 0
        if self.is_split:
            self._engine.migrate_rows(self.spec.source_name,
                                      self._rows[self._pos:self._pos + take])
        elif self._pos + take >= len(self._rows):
            # The FOJ is computed in one go on the last chunk: the copy
            # cost dominates and the tables are latched either way (so
            # the scans read the very snapshot taken at the latch).
            r_scan, s_scan = (FuzzyScan(self.db.catalog.get(name), self.chunk)
                              for name in self.source_tables)
            FojHashJoin(self.targets[self.spec.target_name], self.spec,
                        r_scan, s_scan).step(sys.maxsize)
        self._pos += take
        return take

    def _swap_and_release(self) -> None:
        self.db.log.append(TransformSwapRecord(
            transform_id=self.transform_id,
            transform_kind="split" if self.is_split else "foj",
            retired=tuple(self.source_tables),
            published={name: t.schema for name, t in self.targets.items()},
            params={"spec": self.spec},
        ))
        self.db.catalog.swap(self.source_tables, dict(self.targets),
                             keep_zombies=False)
        self._unlatch_all()
        self.db.log.append(FuzzyMarkRecord(transform_id=self.transform_id,
                                           phase="end"))
        self.phase = Phase.DONE

    def _unlatch_all(self) -> None:
        # The source tables were dropped by the swap; wake their waiters.
        for name in self.source_tables:
            table = None
            if self.db.catalog.exists(name):
                table = self.db.catalog.get(name)
            if table is not None:
                self.db.unlatch_table(table, self.transform_id)
        # Dropped tables: their latch entries are keyed by uid; wake any
        # waiters registered there.
        for uid in list(self.db.locks._latches):
            if self.db.locks._latches.get(uid) == self.transform_id:
                woken = self.db.locks.unlatch_table(uid, self.transform_id)
                self.db._notify_woken(woken)
