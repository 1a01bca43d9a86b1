"""Closed-loop client workload (paper Section 6).

"Each transaction updated 10 records using record locks.  100% workload
was defined as the number of concurrent transactions that produced the
highest possible throughput.  Lower workloads were achieved by reducing
the number of concurrent transactions."

Each simulated client runs transactions back to back: begin, N updates on
random records, commit.  A configurable fraction of updates hits the
transformation's source table(s); the rest hit a *dummy* table, which
"keep[s] the workload constant" while varying the relevant-log-record rate
(the Figure 4(c) experiment).

Clients handle the full concurrency protocol of the engine: lock waits
park the client until the lock manager wakes it; deadlocks and forced
aborts (non-blocking abort synchronization) abort the transaction and the
client starts a fresh one; a table that disappears in the schema swap is
remapped to its post-swap fallback target.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import (
    DeadlockError,
    LockWaitError,
    NoSuchRowError,
    NoSuchTableError,
    TransactionAbortedError,
)
from repro.engine.database import Database
from repro.sim.events import Simulator
from repro.sim.metrics import MetricsCollector
from repro.sim.server import (
    NET_DELAY_MS,
    OP_SERVICE_MS,
    TRIGGER_OP_MS,
    TXN_OVERHEAD_MS,
    Job,
    Server,
)


@dataclass
class UpdateTarget:
    """One table the workload updates.

    Attributes:
        table: Table name.
        keys: Primary keys to sample from (static for the run).
        attr: The non-key attribute the update rewrites.
        fallback: Target to use instead once ``table`` is swapped away.
    """

    table: str
    keys: List[Tuple]
    attr: str
    fallback: Optional["UpdateTarget"] = None


@dataclass
class Workload:
    """Workload mix definition.

    Attributes:
        source_targets: Update targets on the transformation's source
            table(s).
        dummy_target: The dummy table absorbing the rest of the updates.
        source_fraction: Probability that an update hits a source target
            (the paper's "x% updates on T").
        updates_per_txn: Updates per transaction (paper: 10).
    """

    source_targets: List[UpdateTarget]
    dummy_target: UpdateTarget
    source_fraction: float = 0.2
    updates_per_txn: int = 10

    def plan_txn(self, rng: random.Random) -> List[UpdateTarget]:
        """Pick the target of each update in one transaction."""
        plan = []
        for _ in range(self.updates_per_txn):
            if self.source_targets and \
                    rng.random() < self.source_fraction:
                plan.append(rng.choice(self.source_targets))
            else:
                plan.append(self.dummy_target)
        return plan


class Client:
    """One closed-loop client."""

    def __init__(self, client_id: int, sim: Simulator, server: Server,
                 db: Database, workload: Workload,
                 metrics: MetricsCollector, rng: random.Random) -> None:
        self.client_id = client_id
        self.sim = sim
        self.server = server
        self.db = db
        self.workload = workload
        self.metrics = metrics
        self.rng = rng
        self.txn = None
        self._plan: List[UpdateTarget] = []
        self._op_index = 0
        self._txn_start = 0.0
        self._waiting = False
        self._stopped = False

    # -- life cycle ------------------------------------------------------------

    def start(self) -> None:
        """Begin issuing transactions (staggered by a small jitter)."""
        self.sim.schedule(self.rng.random() * NET_DELAY_MS,
                          self._new_txn)

    def stop(self) -> None:
        """Cease after the current operation resolves."""
        self._stopped = True

    def _new_txn(self) -> None:
        if self._stopped:
            return
        self._plan = self.workload.plan_txn(self.rng)
        self._op_index = 0
        self.txn = None
        self._txn_start = self.sim.now
        self._send_current(NET_DELAY_MS)

    # -- operation submission ------------------------------------------------------

    def _send_current(self, delay: float) -> None:
        if self._stopped:
            return
        is_commit = self._op_index >= len(self._plan)
        service = TXN_OVERHEAD_MS if is_commit \
            else OP_SERVICE_MS
        job = Job(service=service, execute=self._execute_current)
        self.sim.schedule(delay, lambda: self.server.submit(job))

    def _execute_current(self) -> float:
        """Run the current operation against the engine (at the server)."""
        triggers_before = self.db.stats["trigger"]
        try:
            if self.txn is None:
                self.txn = self.db.begin(self.sim.now)
            if self._op_index >= len(self._plan):
                self.db.commit(self.txn)
                self._finish_txn()
            else:
                target = self._resolve_target(self._plan[self._op_index])
                key = self.rng.choice(target.keys)
                value = self.rng.random()
                self.db.update(self.txn, target.table, key,
                               {target.attr: value})
                self._op_index += 1
                self._send_current(2 * NET_DELAY_MS)
        except LockWaitError:
            self._waiting = True
        except DeadlockError:
            self.metrics.record_abort(deadlock=True)
            if self.txn is not None:
                self.db.abort(self.txn)
            self.sim.schedule(2 * NET_DELAY_MS, self._new_txn)
        except TransactionAbortedError:
            # Doomed by a non-blocking-abort synchronization (the engine
            # already rolled us back) -- start over on the new schema.
            self.metrics.record_abort()
            self.sim.schedule(2 * NET_DELAY_MS, self._new_txn)
        except NoSuchRowError:
            # The sampled key vanished (not expected with update-only
            # workloads; tolerated for robustness).
            self._op_index += 1
            self._send_current(2 * NET_DELAY_MS)
        return (self.db.stats["trigger"] - triggers_before) * \
            TRIGGER_OP_MS

    def _resolve_target(self, target: UpdateTarget) -> UpdateTarget:
        while True:
            try:
                self.db._resolve(self.txn, target.table)
                return target
            except NoSuchTableError:
                if target.fallback is None:
                    raise
                target = target.fallback
            except LockWaitError:
                # Blocked table (blocking-commit sync): treat like any
                # other wait -- but the wait was registered against the
                # blocked list, so just re-raise to park.
                raise

    def _finish_txn(self) -> None:
        end = self.sim.now + NET_DELAY_MS
        self.metrics.record_txn(self._txn_start, end)
        self.txn = None
        self.sim.schedule(2 * NET_DELAY_MS, self._new_txn)

    # -- wake-up ----------------------------------------------------------------------

    def wake(self) -> None:
        """Retry the parked operation (lock granted / latch released)."""
        if self._waiting:
            self._waiting = False
            self._send_current(0.0)


class ClientPool:
    """All clients of a run, plus the engine wake-channel subscription."""

    def __init__(self, sim: Simulator, server: Server, db: Database,
                 workload: Workload, metrics: MetricsCollector,
                 n_clients: int, seed: int = 0) -> None:
        self.clients: List[Client] = [
            Client(i, sim, server, db, workload, metrics,
                   random.Random((seed << 20) ^ (i * 7919 + 13)))
            for i in range(n_clients)
        ]
        self._db = db
        db.on_wake = self._on_wake

    def start(self) -> None:
        """Start every client."""
        for client in self.clients:
            client.start()

    def stop(self) -> None:
        """Stop every client."""
        for client in self.clients:
            client.stop()

    def _on_wake(self, txn_ids: List[int]) -> None:
        wanted = set(txn_ids)
        for client in self.clients:
            if client.txn is not None and client.txn.txn_id in wanted:
                client.wake()
            elif client._waiting and client.txn is None:
                # Waiting before the transaction even began (blocked table).
                client.wake()
