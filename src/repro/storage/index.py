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

A *unique* index holds one rowid per key (``key -> rowid``): a probe is one
dict lookup and a key costs no container of its own.  A non-unique index
holds a ``set`` bucket per key (``key -> {rowid, ...}``).  Which of the two
an index is follows from ``unique``, which every index declares when it is
created; results come back in rowid order either way.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.common.errors import DuplicateKeyError


def index_key(values: Dict[str, object],
              attrs: Tuple[str, ...]) -> Optional[Tuple]:
    """Extract the index key for ``attrs``; ``None`` if any part is NULL."""
    if len(attrs) == 1:
        part = values.get(attrs[0])
        return None if part is None else (part,)
    key = tuple(values.get(a) for a in attrs)
    return None if None in key else key


def value_tuples(images: Sequence[Dict[str, object]],
                 attrs: Sequence[str]) -> Iterable[Tuple]:
    """The values of ``attrs`` of each image, one tuple per image in
    ``attrs`` order, for a whole sequence at once: C iterators over
    :func:`operator.itemgetter`, no Python call per image.  Every image
    must hold every attribute."""
    return zip(*[map(itemgetter(attr), images) for attr in attrs])


class HashIndex:
    """A (possibly unique) hash index mapping key tuples to rowids.

    Keys passed to the lookup methods are tuples ordered like ``attrs``.

    Args:
        name: Index name, unique within its table.
        attrs: Indexed attribute names, in key order.
        unique: Whether two distinct rows may share a key.  Uniqueness is
            enforced at insert time with :class:`DuplicateKeyError`; it
            also fixes the entry layout (one rowid per key, no bucket).
        table_name: Owning table name, used only for error messages.
    """

    def __init__(self, name: str, attrs: Tuple[str, ...], unique: bool,
                 table_name: str = "") -> None:
        self.name = name
        self.attrs = tuple(attrs)
        self.unique = unique
        self.table_name = table_name
        #: ``key -> rowid`` when unique, ``key -> set of rowids`` otherwise.
        self._map: Dict[Tuple, object] = {}
        #: ``misses`` counts lookups (an insert's claim is none).  ``hits``
        #: and ``stale`` stay 0 (there is no result cache); the keys
        #: remain because the wall-clock ledger reads them.
        self.probe_stats = {"hits": 0, "misses": 0, "stale": 0}

    # -- maintenance ---------------------------------------------------------

    def insert(self, values: Dict[str, object], rowid: int) -> None:
        """Index a row image under its key (no-op for NULL-containing keys)."""
        key = index_key(values, self.attrs)
        if key is not None:
            self.add(key, rowid)

    def claim(self, rowids: Sequence[int],
              images: Sequence[Dict[str, object]]) -> Sequence[int]:
        """Index ``rowids[i]`` under the key of ``images[i]`` (every
        indexed attribute present; a key with a NULL part is not
        indexed) and return the positions refused.

        A unique index claims a key only when no row holds it -- neither
        a stored row nor an earlier image of the same call -- and refuses
        the others, claiming what it can; a non-unique index refuses
        nothing.  One row costs one ``setdefault``; when no key of
        several is taken, they cost one membership test and one
        ``dict.update`` together.
        """
        found = self._map
        if len(rowids) == 1:
            key = index_key(images[0], self.attrs)
            if key is None:
                return ()
            if self.unique:
                rowid = rowids[0]
                return () if found.setdefault(key, rowid) == rowid else (0,)
            self.add(key, rowids[0])
            return ()
        keys = [None if None in key else key
                for key in value_tuples(images, self.attrs)]
        if not self.unique:
            for key, rowid in zip(keys, rowids):
                if key is not None:
                    self.add(key, rowid)
            return ()
        if None not in keys and found.keys().isdisjoint(keys) and \
                len(set(keys)) == len(keys):
            found.update(zip(keys, rowids))
            return ()
        return [position
                for position, (key, rowid) in enumerate(zip(keys, rowids))
                if key is not None and found.setdefault(key, rowid) != rowid]

    def add(self, key: Tuple, rowid: int) -> None:
        """Index ``rowid`` under an already extracted, NULL-free ``key``.

        A unique index raises :class:`DuplicateKeyError` -- and stays as
        it was -- when another row holds the key.
        """
        if self.unique:
            if self._map.setdefault(key, rowid) != rowid:
                raise DuplicateKeyError(self.table_name or "?", key, self.name)
            return
        bucket = self._map.get(key)
        if bucket is None:
            self._map[key] = {rowid}
        else:
            bucket.add(rowid)

    def remove(self, values: Dict[str, object], rowid: int) -> None:
        """Un-index a row image (no-op for NULL-containing keys)."""
        key = index_key(values, self.attrs)
        if key is not None:
            self.discard(key, rowid)

    def discard(self, key: Tuple, rowid: int) -> None:
        """Un-index ``rowid`` from a NULL-free ``key``, if it is there."""
        found = self._map.get(key)
        if found is None:
            return
        if self.unique:
            if found == rowid:
                del self._map[key]
            return
        found.discard(rowid)
        if not found:
            del self._map[key]

    def update(self, old_values: Dict[str, object],
               new_values: Dict[str, object], rowid: int) -> None:
        """Move a row between keys when its key changed.

        The new key is entered first, so a :class:`DuplicateKeyError`
        leaves the row under its old key.
        """
        old_key = index_key(old_values, self.attrs)
        new_key = index_key(new_values, self.attrs)
        if old_key == new_key:
            return
        if new_key is not None:
            self.add(new_key, rowid)
        if old_key is not None:
            self.discard(old_key, rowid)

    def clear(self) -> None:
        """Drop all entries."""
        self._map.clear()

    # -- lookup ---------------------------------------------------------------

    def lookup(self, key: Tuple) -> List[int]:
        """Rowids with exactly this key, ascending (empty for
        NULL-containing keys)."""
        if None in key:
            return []
        self.probe_stats["misses"] += 1
        found = self._map.get(key)
        if found is None:
            return []
        if self.unique:
            return [found]
        return sorted(found) if len(found) > 1 else list(found)

    def lookup_any(self, key: Tuple) -> Optional[int]:
        """One rowid with this key, ``None`` if none: a bucket answered
        without sorting it, so which of its rowids is not promised."""
        if None in key:
            return None
        self.probe_stats["misses"] += 1
        found = self._map.get(key)
        if found is None or self.unique:
            return found
        return next(iter(found))

    def lookup_one(self, key: Tuple) -> Optional[int]:
        """Single rowid for a unique index, ``None`` if absent."""
        rowids = self.lookup(key)
        return rowids[0] if rowids else None

    def contains(self, key: Tuple) -> bool:
        """Whether any row is indexed under ``key`` (one bucket probe)."""
        if None in key:
            return False
        self.probe_stats["misses"] += 1
        return key in self._map

    def count(self, key: Tuple) -> int:
        """Number of rows indexed under ``key``."""
        found = None if None in key else self._map.get(key)
        if found is None:
            return 0
        return 1 if self.unique else len(found)

    def keys(self) -> Iterator[Tuple]:
        """All distinct keys currently indexed."""
        return iter(self._map.keys())

    def __len__(self) -> int:
        """Number of distinct keys."""
        return len(self._map)

    def __repr__(self) -> str:
        u = "unique " if self.unique else ""
        return f"HashIndex({self.name!r}, {u}on {self.attrs}, {len(self)} keys)"
