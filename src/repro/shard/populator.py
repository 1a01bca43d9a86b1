"""Sharded initial population: interleaved per-shard fuzzy scans.

The sequential pipeline populates from one
:class:`~repro.engine.fuzzy.FuzzyScan` per source table.  The sharded
pipeline keeps the *operator* population code (the FOJ hash join, the
split's row-splitting loop) completely unchanged by hiding the shards
behind the same scan interface: :class:`ShardedPopulator` owns one
``FuzzyScan`` per shard -- each restricted to the rowids the
:class:`~repro.shard.planner.ShardPlanner` assigned to that shard -- and
hands out their chunks round-robin.

The round-robin interleave is what makes the parallel cost model honest:
after any prefix of ``k`` chunks, every shard has produced either
``ceil(k/N)`` or ``floor(k/N)`` of them, so work the operator does per
chunk is spread evenly across shards and the step driver may report the
per-shard share (``~ total / N``) as the parallel wall-clock cost.
"""

from __future__ import annotations

from typing import List, Optional

from repro.engine.fuzzy import FuzzyScan
from repro.faults import NULL_FAULTS, register_site
from repro.shard.planner import ShardPlanner
from repro.storage.row import Row
from repro.storage.table import Table

SITE_SHARD_POPULATE_CHUNK = register_site(
    "shard.populate.chunk", "shard",
    "before one shard's fuzzy-scan chunk is snapshotted during sharded "
    "initial population (fired with shard=<index>)")


class ShardedPopulator:
    """Drop-in ``FuzzyScan`` facade over N per-shard scans of one table.

    Exposes the subset of the :class:`FuzzyScan` API the operators'
    population steps use (``exhausted``, ``remaining``, ``next_chunk``,
    iteration), so ``Transformation._source_scan`` can return either kind.
    """

    def __init__(self, table: Table, chunk_size: int,
                 planner: ShardPlanner, faults=None,
                 scan_factory=None) -> None:
        self.table = table
        self.chunk_size = chunk_size
        self.planner = planner
        self.faults = faults if faults is not None else NULL_FAULTS
        if scan_factory is None:
            def scan_factory(table, rowids):
                return FuzzyScan(table, chunk_size, rowids=rowids)
        #: ``scan_factory(table, rowids)`` builds one shard's restricted
        #: scan; the MVCC storage backend injects snapshot scans here so
        #: sharded population reads one consistent version everywhere.
        self.shard_scans: List[FuzzyScan] = [
            scan_factory(table, rowids)
            for rowids in planner.partition_rowids(table)
        ]
        #: Rows handed out per shard (``Transformation.shard_summary``).
        self.rows_per_shard: List[int] = [0] * planner.n_shards
        self._next_shard = 0

    @property
    def exhausted(self) -> bool:
        """Whether every shard's scan has handed out all its chunks."""
        return all(scan.exhausted for scan in self.shard_scans)

    @property
    def remaining(self) -> int:
        """Rowids not yet visited, summed over every shard."""
        return sum(scan.remaining for scan in self.shard_scans)

    def next_chunk(self, limit: Optional[int] = None) -> List[Row]:
        """Snapshot the next chunk, taken from the next non-empty shard
        in round-robin order; empty list once every shard is exhausted.

        A shard whose next chunk holds only dead rowids yields an empty
        chunk without being exhausted yet; the facade keeps draining --
        an empty return here means *true* exhaustion (or ``limit <= 0``),
        never a transient gap, so callers may treat it as end-of-scan.
        """
        if limit is not None and int(limit) <= 0:
            return []
        while not self.exhausted:
            progressed = False
            for _ in range(self.planner.n_shards):
                shard = self._next_shard
                self._next_shard = (shard + 1) % self.planner.n_shards
                scan = self.shard_scans[shard]
                if scan.exhausted:
                    continue
                self.faults.fire(SITE_SHARD_POPULATE_CHUNK, shard=shard,
                                 table=self.table.name)
                before = scan.remaining
                chunk = scan.next_chunk(limit)
                self.rows_per_shard[shard] += len(chunk)
                progressed = progressed or scan.remaining < before
                if chunk:
                    return chunk
            if not progressed:
                break
        return []

    def __iter__(self):
        while not self.exhausted:
            chunk = self.next_chunk()
            if chunk:
                yield chunk
