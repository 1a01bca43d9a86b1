"""Hash-partitioned key-space shards for the transformation pipeline.

The paper's framework (Sections 3.2-3.4) runs initial population and log
propagation as one sequential background process.  This package holds
what ``TransformOptions(shards=N)`` adds to it, leaving the propagation
rules, the latching protocol and the Section 3.4 synchronization
strategies untouched:

* :class:`~repro.shard.planner.ShardPlanner` -- the deterministic shard
  map derived from the source tables' keys;
* :class:`~repro.shard.populator.ShardedPopulator` -- interleaved
  per-shard fuzzy-scan chunks behind the ordinary scan interface;
* :class:`~repro.shard.sweeper.LazySweeper` -- per-shard high-water
  cursors and chunked draining of not-yet-migrated rows for the lazy
  (migrate-on-read) population mode.

Log propagation has no per-shard machinery: there is one cursor and one
loop (:meth:`repro.transform.base.Transformation._propagate_batch`),
which reads and classifies each log record once, applies everything in
LSN order and uses the planner only to charge each routed apply to its
key's shard account -- the simulator's "one core per shard" cost model.
"""

from repro.shard.planner import SITE_SHARD_PLAN, ShardPlanner, \
    stable_shard_hash
from repro.shard.populator import ShardedPopulator
from repro.shard.sweeper import LazySweeper

__all__ = [
    "LazySweeper",
    "SITE_SHARD_PLAN",
    "ShardPlanner",
    "ShardedPopulator",
    "stable_shard_hash",
]
