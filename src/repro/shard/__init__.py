"""The key-space shard map behind ``TransformOptions(shards=N)``.

The paper's framework (Sections 3.2-3.4) runs initial population and log
propagation as one sequential background process, and so does this
repository for every ``N``: there is one population scan per source
table (:class:`~repro.engine.fuzzy.FuzzyScan`) and one propagation loop
(:meth:`repro.transform.base.Transformation._propagate_batch`).  What
``shards=N`` adds is cost accounting -- the simulator's "one core per
shard" model: the scan charges each handed-out row, and the loop each
routed apply, to the account of its key's shard, and a step reports the
per-shard share.  The one thing that needs is this package's
:class:`~repro.shard.planner.ShardPlanner`, the deterministic key ->
shard map both sides call.
"""

from repro.shard.planner import SITE_SHARD_PLAN, ShardPlanner, \
    stable_shard_hash

__all__ = [
    "SITE_SHARD_PLAN",
    "ShardPlanner",
    "stable_shard_hash",
]
