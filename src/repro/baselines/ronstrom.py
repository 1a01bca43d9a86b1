"""Ronström-style trigger-based transformation (paper Section 2.1).

Ronström [23] performs online schema changes with a *reorganizer* scan
plus **triggers inside user transactions**: "triggers make sure that
updates to the old tables are executed immediately to the transformed
table.  When the scan is complete, the old and transformed tables are
consistent due to the triggered updates."

The paper argues its log-based method is preferable because the trigger
work lands inside user transactions (inflating their response time, and
requiring cross-node waits in a distributed DBMS), whereas log propagation
runs as a decoupled low-priority background process.  This module
implements the trigger-based approach so the benchmarks can measure that
difference.

Implementation notes:

* the triggers reuse the paper's own propagation rule engines as
  *immediate* incremental-maintenance operators -- applied exactly once,
  synchronously, they are ordinary view-maintenance updates;
* the reorganizer scans the source tables chunk by chunk under short
  shared locks (a fresh transaction per chunk), feeding each row through
  the same engine as a synthetic insert, which is idempotent against rows
  the triggers already produced;
* completion needs no log propagation: once the scan finishes, the targets
  are consistent, and a brief latch swaps the schema.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple, Union

from repro.common.errors import TransformationStateError
from repro.engine.database import Database
from repro.relational.spec import FojSpec, SplitSpec
from repro.storage.table import Table
from repro.transform.base import Phase, StepReport
from repro.transform.foj import FojRuleEngine, FojTransformation
from repro.transform.split import SplitRuleEngine, SplitTransformation
from repro.wal.records import (
    FuzzyMarkRecord,
    InsertRecord,
    LogRecord,
    TransformSwapRecord,
)

_counter = itertools.count(1)


class RonstromTransformation:
    """Trigger-based online FOJ or split transformation.

    Args:
        db: The database.
        spec: A :class:`FojSpec` or :class:`SplitSpec`.
        chunk: Rows the reorganizer copies per scan transaction.
    """

    def __init__(self, db: Database, spec: Union[FojSpec, SplitSpec],
                 chunk: int = 64) -> None:
        self.db = db
        self.spec = spec
        self.chunk = chunk
        self.is_split = isinstance(spec, SplitSpec)
        self.transform_id = f"ronstrom-{next(_counter)}"
        self.phase = Phase.CREATED
        self.targets: Dict[str, Table] = {}
        self.engine = None
        self._scan_plan: List[Tuple[str, List[int]]] = []
        self._scan_table = 0
        self._scan_pos = 0
        #: Number of trigger invocations executed inside user transactions.
        self.trigger_ops = 0

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

    # -- driving ---------------------------------------------------------------

    def run(self) -> None:
        """Drive to completion (single-threaded use)."""
        while not self.done:
            self.step(1 << 20)

    def step(self, budget: int = 256) -> StepReport:
        """Advance the reorganizer by up to ``budget`` scanned rows."""
        budget = max(1, int(budget))
        if self.phase is Phase.DONE:
            return StepReport(self.phase, 0, True)
        if self.phase is Phase.CREATED:
            self._prepare()
            return StepReport(self.phase, 1, False)
        if self.phase is Phase.POPULATING:
            units = self._scan_step(budget)
            if self._scan_done():
                self._swap()
                return StepReport(self.phase, max(units, 1), True)
            return StepReport(self.phase, max(units, 1), False)
        raise TransformationStateError(f"unexpected phase {self.phase}")

    # -- preparation: targets + triggers ---------------------------------------------

    def _prepare(self) -> None:
        if self.is_split:
            self.targets = SplitTransformation.target_tables(self.db,
                                                             self.spec)
            self.engine = SplitRuleEngine(
                self.db, self.spec,
                self.targets[self.spec.r_name],
                self.targets[self.spec.s_name],
                transform_id=self.transform_id)
        else:
            self.targets = FojTransformation.target_tables(self.db,
                                                           self.spec)
            self.engine = FojRuleEngine(self.db, self.spec,
                                        *self.targets.values())
        for name in self.source_tables:
            self.db.create_trigger(name, self._trigger)
        self._scan_plan = [
            (name, list(self.db.catalog.get(name).rows))
            for name in self.source_tables
        ]
        self.phase = Phase.POPULATING

    def _trigger(self, db: Database, txn, record: LogRecord) -> None:
        """Executed inside the user transaction, right after its operation.

        This is precisely the cost the paper's method avoids: the
        maintenance work is charged to the user transaction's response
        time (the simulator bills it through ``db.stats['trigger']``).
        """
        self.trigger_ops += 1
        self.engine.apply(record, record.lsn)

    # -- the reorganizer scan --------------------------------------------------------

    def _scan_step(self, budget: int) -> int:
        """Copy up to ``budget`` rows under short shared locks.

        A row locked by a user transaction makes the scan transaction
        back off (abort, releasing its queued request) and retry the row
        on a later step -- the reorganizer must never deadlock with or
        stall user work.
        """
        from repro.common.errors import DeadlockError, LockWaitError
        units = 0
        while units < budget and not self._scan_done():
            name, rowids = self._scan_plan[self._scan_table]
            if self._scan_pos >= len(rowids):
                self._scan_table += 1
                self._scan_pos = 0
                continue
            table = self.db.catalog.get(name)
            take = min(self.chunk, budget - units,
                       len(rowids) - self._scan_pos)
            chunk = rowids[self._scan_pos:self._scan_pos + take]
            txn = self.db.begin()
            scanned = 0
            blocked = False
            for rowid in chunk:
                row = table.rows.get(rowid)
                if row is None:
                    scanned += 1
                    continue  # deleted since the plan was made
                key = table.schema.key_of(row.values)
                try:
                    values = self.db.read(txn, name, key)
                except (LockWaitError, DeadlockError):
                    blocked = True
                    break
                scanned += 1
                if values is None:
                    continue
                synthetic = InsertRecord(txn_id=txn.txn_id, table=name,
                                         key=key, values=values)
                synthetic.lsn = row.lsn
                self.engine.apply(synthetic, row.lsn)
                units += 1
            if blocked:
                self.db.abort(txn)  # withdraws the queued lock request
                self._scan_pos += scanned
                return max(units, 1)
            self.db.commit(txn)
            self._scan_pos += scanned
        return units

    def _scan_done(self) -> bool:
        if self._scan_table >= len(self._scan_plan):
            return True
        name, rowids = self._scan_plan[self._scan_table]
        return self._scan_table == len(self._scan_plan) - 1 and \
            self._scan_pos >= len(rowids)

    # -- completion ---------------------------------------------------------------------

    def _swap(self) -> None:
        for name in self.source_tables:
            self.db.drop_triggers(name)
        latched = []
        for name in self.source_tables:
            table = self.db.catalog.get(name)
            self.db.locks.latch_table(table.uid, self.transform_id)
            latched.append(table)
        self.db.log.append(TransformSwapRecord(
            transform_id=self.transform_id,
            transform_kind="split" if self.is_split else "foj",
            retired=tuple(self.source_tables),
            published={name: t.schema for name, t in self.targets.items()},
            params={"spec": self.spec},
        ))
        self.db.catalog.swap(self.source_tables, dict(self.targets),
                             keep_zombies=False)
        for table in latched:
            self.db.unlatch_table(table, self.transform_id)
        self.db.log.append(FuzzyMarkRecord(transform_id=self.transform_id,
                                           phase="end"))
        self.phase = Phase.DONE
