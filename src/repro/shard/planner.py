"""Deterministic hash partitioning of a transformation's key space.

``TransformOptions(shards=N)`` charges the work of one transformation --
initial population and log propagation -- to ``N`` *key-space shard*
accounts.  Everything downstream (which account a scanned row and an
applied log record are charged to) is derived from one function: a
stable hash of the routing key.  Stability matters twice over:

* **across processes** -- Python's built-in ``hash`` for strings is salted
  per process (``PYTHONHASHSEED``), so it would assign rows to different
  shards on every run; the planner hashes ``repr`` bytes through CRC-32
  instead, which is deterministic everywhere;
* **across phases** -- population and propagation must agree: the shard
  charged for populating row ``k`` must be the shard charged for log
  records about ``k``, or the per-shard accounts would describe no
  possible assignment of keys to cores.  Both sides call the same
  :meth:`ShardPlanner.shard_of`.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, Tuple

from repro.faults import register_site

SITE_SHARD_PLAN = register_site(
    "shard.plan", "shard",
    "a transformation with shards > 1 is about to build its shard map, "
    "before any population scan exists")


def stable_shard_hash(key: Tuple) -> int:
    """Process-independent hash of a routing key tuple.

    ``repr`` is stable for the value types a primary key can hold (ints,
    strings, floats, None, nested tuples); CRC-32 over its UTF-8 bytes
    gives a well-mixed 32-bit value without any dependency beyond zlib.
    """
    return zlib.crc32(repr(tuple(key)).encode("utf-8"))


class ShardPlanner:
    """Maps routing keys to one of ``n_shards`` shards.

    The planner is pure bookkeeping -- it holds no table references and no
    mutable state, so one instance is shared by the population scans and
    the propagation loop's shard accounts.
    """

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = n_shards

    def shard_of(self, key: Tuple) -> int:
        """Shard index owning the given routing key."""
        return stable_shard_hash(key) % self.n_shards

    def histogram(self, keys: Iterable[Tuple]) -> Dict[int, int]:
        """Shard -> key count over an iterable of keys (balance checks)."""
        counts: Dict[int, int] = {i: 0 for i in range(self.n_shards)}
        for key in keys:
            counts[self.shard_of(key)] += 1
        return counts

    def __repr__(self) -> str:
        return f"ShardPlanner(n_shards={self.n_shards})"
