"""Budgeted background sweeper for lazy (access-triggered) population.

Lazy population (``TransformOptions(population_mode="lazy")``) starts the
transformed table empty: records are migrated *on first access* by the
engine's miss hook, and everything nobody touches is drained by this
sweeper -- a :class:`~repro.shard.populator.ShardedPopulator`-shaped scan
that additionally tracks which rowids were already migrated out of band.

Per shard the sweeper keeps a **high-water cursor**: the position in that
shard's rowid list below which every row is either migrated or dead.
Access-triggered migrations ``claim`` a rowid wherever it sits; when the
cursor later reaches a claimed rowid it is skipped, so each source row is
migrated exactly once no matter which side gets to it first.  Population
is finished when every cursor has met the end of its shard's list --
at that point log propagation and the Section 3.4 synchronization
strategies run completely unchanged.

The sweeper is driven through the transformation's ordinary ``step``
budget, so it runs at the same controlled background priority as eager
population (and the supervisor's starvation-driven budget escalation
applies to it the same way).
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.faults import NULL_FAULTS, register_site
from repro.shard.planner import ShardPlanner
from repro.storage.row import Row
from repro.storage.table import Table

SITE_LAZY_SWEEP_CHUNK = register_site(
    "lazy.sweep.chunk", "lazy",
    "before the background sweeper snapshots one shard's chunk of "
    "not-yet-migrated rows (fired with shard=<index>)")


class LazySweeper:
    """Per-shard cursor bookkeeping + chunked draining of unmigrated rows.

    Exposes the same scan surface the population steps rely on
    (``exhausted``, ``remaining``, ``next_chunk``, ``rows_per_shard``)
    plus :meth:`claim`, the entry point for access-triggered migration.
    An empty :meth:`next_chunk` return means true exhaustion (or a
    non-positive ``limit``), never a transient gap.
    """

    def __init__(self, table: Table, chunk_size: int,
                 planner: ShardPlanner, faults=None, metrics=None) -> None:
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.table = table
        self.chunk_size = chunk_size
        self.planner = planner
        self.faults = faults if faults is not None else NULL_FAULTS
        from repro.obs import NULL_METRICS
        #: Observability registry; ``lazy.sweep.*`` counters tell the
        #: miss-vs-sweep producer race apart in blame investigations.
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._rowids: List[List[int]] = planner.partition_rowids(table)
        #: Per-shard high-water cursors: position in the shard's rowid
        #: list below which every row is migrated or dead.
        self._cursors: List[int] = [0] * planner.n_shards
        #: Rowids migrated (by the sweeper or on access).
        self._claimed: Set[int] = set()
        #: Rows handed out per shard (``Transformation.shard_summary``).
        self.rows_per_shard: List[int] = [0] * planner.n_shards
        #: Rows migrated on access rather than by the sweeper.
        self.miss_claims = 0
        self._next_shard = 0

    # -- access-triggered migration ----------------------------------------

    def claim(self, rowid: int) -> bool:
        """Mark a rowid migrated out of band; ``False`` if already done.

        Rowids unknown to the shard map (rows inserted after population
        began) are claimable too: migrating them early is idempotent and
        the insert's own log record converges them during propagation.
        """
        if rowid in self._claimed:
            return False
        self._claimed.add(rowid)
        self.miss_claims += 1
        self.metrics.inc("lazy.sweep.miss_claims")
        return True

    # -- scan surface ------------------------------------------------------

    @property
    def exhausted(self) -> bool:
        """Whether every shard's cursor has met the end of its list."""
        return all(cursor >= len(rowids)
                   for cursor, rowids in zip(self._cursors, self._rowids))

    @property
    def remaining(self) -> int:
        """Rowids the cursors have not yet passed (upper bound on the
        rows the sweeper still has to migrate)."""
        return sum(max(0, len(rowids) - cursor)
                   for cursor, rowids in zip(self._cursors, self._rowids))

    def shard_cursors(self) -> List[dict]:
        """Per-shard high-water cursor positions (run-report payload)."""
        return [
            {"shard": shard, "cursor": self._cursors[shard],
             "total": len(self._rowids[shard])}
            for shard in range(self.planner.n_shards)
        ]

    def next_chunk(self, limit: Optional[int] = None) -> List[Row]:
        """Snapshot the next chunk of live, not-yet-claimed rows.

        Round-robin over the shards like the sharded populator; every
        returned row is claimed, so a later access miss on it is a no-op.
        """
        if limit is not None:
            take = min(self.chunk_size, int(limit))
            if take <= 0:
                return []
        else:
            take = self.chunk_size
        while not self.exhausted:
            progressed = False
            for _ in range(self.planner.n_shards):
                shard = self._next_shard
                self._next_shard = (shard + 1) % self.planner.n_shards
                if self._cursors[shard] >= len(self._rowids[shard]):
                    continue
                self.faults.fire(SITE_LAZY_SWEEP_CHUNK, shard=shard,
                                 table=self.table.name)
                chunk = self._shard_chunk(shard, take)
                self.rows_per_shard[shard] += len(chunk)
                progressed = True
                if chunk:
                    return chunk
            if not progressed:
                break
        return []

    def _shard_chunk(self, shard: int, take: int) -> List[Row]:
        rowids = self._rowids[shard]
        position = self._cursors[shard]
        rows = self.table.rows
        chunk: List[Row] = []
        while position < len(rowids) and len(chunk) < take:
            rowid = rowids[position]
            position += 1
            if rowid in self._claimed:
                continue
            row = rows.get(rowid)
            if row is None:
                continue  # deleted since the shard map was built
            self._claimed.add(rowid)
            chunk.append(row.snapshot())
        self._cursors[shard] = position
        return chunk

    def __iter__(self):
        while not self.exhausted:
            chunk = self.next_chunk()
            if chunk:
                yield chunk

    def __repr__(self) -> str:
        return (f"LazySweeper({self.table.name!r}, "
                f"shards={self.planner.n_shards}, "
                f"remaining={self.remaining})")
