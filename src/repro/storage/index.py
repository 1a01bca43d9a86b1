"""Hash indexes over stored rows.

The paper's propagation rules are driven by index lookups: the join-attribute
index and S-key index of a FOJ target table "provide fast lookup on all
T-records that are affected by an operation on an S-record" (Section 4.1).
We provide hash indexes (the reproduced prototype is a main-memory store and
all rule lookups are point lookups).

Indexes follow *partial-index* semantics with respect to NULL: an index key
containing ``None`` in any position is not indexed.  This is what lets a FOJ
target table declare a unique primary index on the R-key attributes while
still holding ``t^null_x`` rows whose R part is entirely NULL.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.common.errors import DuplicateKeyError


def index_key(values: Dict[str, object],
              attrs: Tuple[str, ...]) -> Optional[Tuple]:
    """Extract the index key for ``attrs``; ``None`` if any part is NULL."""
    if len(attrs) == 1:
        part = values.get(attrs[0])
        return None if part is None else (part,)
    key = tuple(values.get(a) for a in attrs)
    return None if None in key else key


class HashIndex:
    """A (possibly unique) hash index mapping key tuples to rowids.

    Args:
        name: Index name, unique within its table.
        attrs: Indexed attribute names, in key order.
        unique: Whether two distinct rows may share a key.  Uniqueness is
            enforced at insert time with :class:`DuplicateKeyError`.
        table_name: Owning table name, used only for error messages.
    """

    def __init__(self, name: str, attrs: Tuple[str, ...], unique: bool,
                 table_name: str = "") -> None:
        self.name = name
        self.attrs = tuple(attrs)
        self.unique = unique
        self.table_name = table_name
        self._map: Dict[Tuple, Set[int]] = {}
        #: ``misses`` counts bucket probes.  ``hits`` and ``stale`` stay 0:
        #: every lookup reads the bucket (there is no result cache); the
        #: keys remain because the wall-clock ledger reads them.
        self.probe_stats = {"hits": 0, "misses": 0, "stale": 0}

    # -- maintenance ---------------------------------------------------------

    def insert(self, values: Dict[str, object], rowid: int) -> None:
        """Index a row image under its key (no-op for NULL-containing keys)."""
        key = index_key(values, self.attrs)
        if key is None:
            return
        bucket = self._map.get(key)
        if bucket is None:
            self._map[key] = {rowid}
            return
        if self.unique and bucket and rowid not in bucket:
            raise DuplicateKeyError(self.table_name or "?", key)
        bucket.add(rowid)

    def remove(self, values: Dict[str, object], rowid: int) -> None:
        """Un-index a row image (no-op for NULL-containing keys)."""
        key = index_key(values, self.attrs)
        if key is None:
            return
        bucket = self._map.get(key)
        if bucket is not None:
            bucket.discard(rowid)
            if not bucket:
                del self._map[key]

    def update(self, old_values: Dict[str, object],
               new_values: Dict[str, object], rowid: int) -> None:
        """Move a row between buckets when its key changed."""
        old_key = index_key(old_values, self.attrs)
        new_key = index_key(new_values, self.attrs)
        if old_key == new_key:
            return
        if old_key is not None:
            self.remove(old_values, rowid)
        if new_key is not None:
            self.insert(new_values, rowid)

    def clear(self) -> None:
        """Drop all entries."""
        self._map.clear()

    # -- lookup ---------------------------------------------------------------

    def lookup(self, key: Tuple) -> List[int]:
        """Rowids with exactly this key (empty for NULL-containing keys)."""
        if any(part is None for part in key):
            return []
        self.probe_stats["misses"] += 1
        bucket = self._map.get(tuple(key))
        return sorted(bucket) if bucket else []

    def lookup_one(self, key: Tuple) -> Optional[int]:
        """Single rowid for a unique index, ``None`` if absent."""
        rowids = self.lookup(key)
        if not rowids:
            return None
        return rowids[0]

    def contains(self, key: Tuple) -> bool:
        """Whether any row is indexed under ``key``."""
        return bool(self.lookup(key))

    def count(self, key: Tuple) -> int:
        """Number of rows indexed under ``key``."""
        if any(part is None for part in key):
            return 0
        bucket = self._map.get(tuple(key))
        return len(bucket) if bucket else 0

    def keys(self) -> Iterator[Tuple]:
        """All distinct keys currently indexed."""
        return iter(self._map.keys())

    def __len__(self) -> int:
        """Number of distinct keys."""
        return len(self._map)

    def __repr__(self) -> str:
        u = "unique " if self.unique else ""
        return f"HashIndex({self.name!r}, {u}on {self.attrs}, {len(self)} keys)"
