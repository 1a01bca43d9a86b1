"""Multi-version storage: committed version chains + pinned snapshots.

The 2006 paper buys online schema change with latches: fuzzy population
reads *dirty* (lock-ignoring) images and the synchronization closes over
a latched window.  "Online Schema Evolution is (Almost) Free for
Snapshot Databases" (VLDB 2023) observes that under multi-versioned
storage neither is necessary -- a reader pins a snapshot LSN and
resolves every row *as of* that LSN, and the schema change itself is
just one more versioned write that flips atomically.

This module is the storage half of that design:

* :class:`VersionedTable` -- a version-chain overlay for one heap
  :class:`~repro.storage.table.Table`.  Each primary key owns a chain of
  ``(lsn, values)`` entries ordered by LSN: the oldest entry is the
  *seed* (the committed image observed the first time a transaction
  wrote the key, stamped with the heap row's data LSN), later entries
  are transaction **final images stamped with their commit LSN**.  A
  deletion is a :data:`TOMBSTONE` entry.  Chains hold committed state
  only; per-transaction pending images live in :class:`MvccManager`
  until commit.
* :class:`SnapshotHandle` -- pins a read LSN (and the catalog epoch
  current at pin time, see :class:`~repro.storage.catalog.Catalog`).
  Active pins hold back version GC and catalog-epoch reclamation.
* :class:`SnapshotScan` -- :class:`~repro.engine.fuzzy.FuzzyScan` with
  one thing overridden, how a rowid is read: every row is resolved as of
  the pinned LSN, so the populate phase reads a transaction-consistent
  image without ever touching the lock manager.  (Like the fuzzy scan it
  is still *repaired* by log propagation -- the seed images make the
  scan no worse than the committed state at the pin.)
* :class:`MvccManager` -- the engine-facing facade: per-transaction
  pending images (stamped at commit with the commit record's LSN,
  discarded on abort), snapshot pin bookkeeping, the GC watermark
  (oldest pinned read LSN) and chain trimming below it.

Correctness leans on the engine's strict two-phase locking: a
transaction reaches ``note_write`` only while holding the X lock, so the
heap image it displaces is committed -- which is exactly what the chain
seed records.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.engine.fuzzy import FuzzyScan
from repro.faults import register_site
from repro.obs.metrics import NULL_METRICS
from repro.storage.table import Image, Table

SITE_MVCC_SNAPSHOT_READ = register_site(
    "mvcc.snapshot.read", "storage",
    "before a snapshot scan resolves one row as of its pinned read LSN "
    "during MVCC population")
SITE_MVCC_FLIP = register_site(
    "mvcc.flip", "sync",
    "before the versioned catalog write that atomically flips the "
    "visible schema version (no latched window)")
SITE_MVCC_GC = register_site(
    "mvcc.gc", "storage",
    "before superseded row versions below the oldest pinned snapshot "
    "are reclaimed")


class _Tombstone:
    """Sentinel version value marking a deletion in a chain."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - repr only
        return "TOMBSTONE"


#: Chain entry value recording that the key was deleted at that LSN.
TOMBSTONE = _Tombstone()


class SnapshotHandle:
    """A pinned read timestamp: all reads resolve as of ``read_lsn``.

    Handles also pin the catalog epoch that was current when the
    snapshot was taken (``catalog_version``), so a transaction that
    began before a version flip keeps resolving table names through the
    pre-flip schema.  Pins hold back garbage collection until released.
    """

    __slots__ = ("read_lsn", "catalog_version", "owner", "_manager",
                 "released")

    def __init__(self, read_lsn: int, catalog_version: int,
                 owner: str = "", manager: "MvccManager" = None) -> None:
        self.read_lsn = int(read_lsn)
        self.catalog_version = int(catalog_version)
        self.owner = owner
        self._manager = manager
        self.released = False

    def release(self) -> None:
        """Unpin; idempotent.  Released handles no longer hold back GC."""
        if not self.released and self._manager is not None:
            self._manager.release(self)
        self.released = True

    def __repr__(self) -> str:  # pragma: no cover - repr only
        state = "released" if self.released else "pinned"
        return (f"SnapshotHandle(read_lsn={self.read_lsn}, "
                f"catalog_version={self.catalog_version}, "
                f"owner={self.owner!r}, {state})")


class VersionedTable:
    """Committed version chains for one heap table.

    The overlay never replaces the heap -- the latch-based design and
    all physical redo/undo keep operating on the :class:`Table`
    unchanged.  The chains only *remember* superseded committed images
    so snapshot readers can resolve rows as of an earlier LSN.
    """

    __slots__ = ("table", "_chains")

    def __init__(self, table: Table) -> None:
        self.table = table
        #: primary key -> [(lsn, values-dict or TOMBSTONE), ...] ascending.
        self._chains: Dict[Tuple, List[Tuple[int, object]]] = {}

    # -- writes -----------------------------------------------------------

    def seed(self, key: Tuple, values: Dict[str, object],
             lsn: int) -> None:
        """Record the committed image a first write is about to displace.

        No-op if the key already has a chain (the displaced image is
        then already the chain head).  ``lsn`` is the heap row's data
        LSN -- the newest logged operation reflected in ``values``.
        """
        if key not in self._chains:
            self._chains[key] = [(max(0, int(lsn)), dict(values))]

    def stamp(self, key: Tuple, commit_lsn: int, values: object) -> None:
        """Append a transaction's final image for ``key`` at its commit LSN.

        ``values`` is either an attribute dict or :data:`TOMBSTONE`.
        Chains stay LSN-ordered because commit LSNs are monotone and
        strict 2PL serializes writers per key.
        """
        chain = self._chains.setdefault(key, [])
        if chain and chain[-1][0] >= commit_lsn:
            # Same-LSN restamp (idempotent replay): replace, don't grow.
            chain[-1] = (commit_lsn, values)
        else:
            chain.append((commit_lsn, values))

    # -- reads ------------------------------------------------------------

    def read_as_of(self, key: Tuple, read_lsn: int) -> Optional[object]:
        """Values visible at ``read_lsn``: a dict, TOMBSTONE, or None.

        ``None`` means the chain has no version at or below the LSN
        (never written since versioning started) -- the caller falls
        back to the live heap row.
        """
        chain = self._chains.get(key)
        if not chain:
            return None
        visible = None
        for lsn, values in chain:
            if lsn > read_lsn:
                break
            visible = (lsn, values)
        return visible

    def version_count(self) -> int:
        """Total chain entries across all keys."""
        return sum(len(chain) for chain in self._chains.values())

    # -- GC ---------------------------------------------------------------

    def trim(self, watermark: Optional[int]) -> int:
        """Reclaim versions no pinned snapshot can still read.

        Keeps, per chain, the newest entry at or below ``watermark``
        (it is still visible to a snapshot pinned exactly there) plus
        everything above.  ``watermark=None`` means no snapshot is
        pinned: only the newest entry survives, and a chain whose sole
        survivor is a tombstone is dropped entirely.  Returns the number
        of entries reclaimed.
        """
        reclaimed = 0
        dead_keys = []
        for key, chain in self._chains.items():
            if watermark is None:
                keep_from = len(chain) - 1
            else:
                keep_from = 0
                for i, (lsn, _) in enumerate(chain):
                    if lsn <= watermark:
                        keep_from = i
                    else:
                        break
            if keep_from > 0:
                del chain[:keep_from]
                reclaimed += keep_from
            if watermark is None and len(chain) == 1 \
                    and chain[0][1] is TOMBSTONE:
                dead_keys.append(key)
        for key in dead_keys:
            reclaimed += len(self._chains.pop(key))
        return reclaimed


class SnapshotScan(FuzzyScan):
    """The population scan reading rows as of a pin instead of dirty.

    Everything but the read is :class:`~repro.engine.fuzzy.FuzzyScan`'s
    (so population cost accounting is unchanged): each rowid is resolved
    through the version chains at ``handle.read_lsn``, and rows whose
    visible version is a tombstone are skipped.  Never consults the lock
    manager.
    """

    def __init__(self, versioned: VersionedTable, handle: SnapshotHandle,
                 **scan_options) -> None:
        super().__init__(versioned.table, **scan_options)
        self.versioned = versioned
        self.handle = handle
        rows, key_of = self.table.rows, self.table.schema.key_of
        #: rowid -> primary key, frozen at construction so a row deleted
        #: mid-scan can still be resolved through its chain.
        self._keys: Dict[int, Tuple] = {
            rowid: key_of(rows[rowid]) for rowid in self._rowids}

    def _resolve(self, rowid: int,
                 live: Optional[Dict[str, object]]) -> Optional[Image]:
        read_lsn = self.handle.read_lsn
        self.faults.fire(SITE_MVCC_SNAPSHOT_READ, table=self.table.name,
                         read_lsn=read_lsn)
        version = self.versioned.read_as_of(self._keys[rowid], read_lsn)
        if version is None:
            # Never versioned: the live row is the committed image.
            return None if live is None \
                else (dict(live), self.table.lsns[rowid])
        lsn, values = version
        if values is TOMBSTONE:
            return None
        return dict(values), lsn


class MvccManager:
    """Engine-facing MVCC state: pins, pending images, stamping, GC.

    Owned by a :class:`~repro.engine.database.Database` once
    ``enable_mvcc()`` is called (``TransformOptions(storage="mvcc")``
    does this when the transformation is constructed).  All
    per-transaction state is keyed by ``txn_id`` here --
    :class:`~repro.concurrency.transactions.Transaction` is slotted and
    stays lean.
    """

    def __init__(self, db) -> None:
        self.db = db
        self.faults = db.faults
        self.metrics = db.metrics if db.metrics is not None else NULL_METRICS
        #: table uid -> overlay (created on first write/scan).
        self._versioned: Dict[int, VersionedTable] = {}
        #: txn_id -> {(table uid, key): final values or TOMBSTONE}.
        self._pending: Dict[int, Dict[Tuple[int, Tuple], object]] = {}
        #: live pins, by id(handle).
        self._pins: Dict[int, SnapshotHandle] = {}
        #: txn ids allowed to keep writing pre-flip tables after a flip
        #: (the in-flight transactions whose locks the flip materialized).
        self.write_through: set = set()
        self.stats = {"stamped": 0, "reclaimed": 0, "gc_runs": 0}

    # -- overlays ---------------------------------------------------------

    def versioned(self, table: Table) -> VersionedTable:
        """The (lazily created) version overlay for ``table``."""
        overlay = self._versioned.get(table.uid)
        if overlay is None:
            overlay = self._versioned[table.uid] = VersionedTable(table)
        return overlay

    # -- snapshot pins ----------------------------------------------------

    def pin(self, owner: str = "") -> SnapshotHandle:
        """Pin a snapshot at the current end of log + catalog epoch."""
        handle = SnapshotHandle(self.db.log.end_lsn,
                                self.db.catalog.version,
                                owner=owner, manager=self)
        self._pins[id(handle)] = handle
        self.metrics.set_gauge("mvcc.snapshots.pinned", len(self._pins))
        return handle

    def release(self, handle: SnapshotHandle) -> None:
        """Drop a pin; the GC watermark may advance."""
        self._pins.pop(id(handle), None)
        handle.released = True
        self.metrics.set_gauge("mvcc.snapshots.pinned", len(self._pins))

    def watermark(self) -> Optional[int]:
        """Oldest pinned read LSN, or ``None`` when nothing is pinned."""
        if not self._pins:
            return None
        return min(h.read_lsn for h in self._pins.values())

    def oldest_pinned_epoch(self) -> Optional[int]:
        """Oldest pinned catalog version, or ``None`` without pins."""
        if not self._pins:
            return None
        return min(h.catalog_version for h in self._pins.values())

    # -- transaction lifecycle -------------------------------------------

    def on_begin(self, txn) -> SnapshotHandle:
        """Pin the transaction's snapshot (stored on ``txn.snapshot``)."""
        handle = self.pin(owner=f"txn:{txn.txn_id}")
        txn.snapshot = handle
        return handle

    def note_write(self, txn, table: Table,
                   before: Optional[Dict[str, object]],
                   after: object, before_lsn: int = 0) -> None:
        """Record one engine write: seed the chain, buffer the image.

        Called *after* the physical apply, while the writer still holds
        its X lock -- so ``before`` (captured pre-apply) is committed
        state and safe to seed.  ``after`` is the new attribute dict, or
        :data:`TOMBSTONE` for a delete.
        """
        overlay = self.versioned(table)
        schema = table.schema
        pending = self._pending.setdefault(txn.txn_id, {})
        before_key = None if before is None else schema.key_of(before)
        after_key = None if after is TOMBSTONE \
            else schema.key_of(after)
        if before is not None:
            overlay.seed(before_key, before, before_lsn)
        if before_key is not None and after_key is not None \
                and before_key != after_key:
            # Primary-key change: delete at the old key, birth at the new.
            pending[(table.uid, before_key)] = TOMBSTONE
            pending[(table.uid, after_key)] = dict(after)
            return
        key = after_key if after_key is not None else before_key
        if key is None:
            return
        pending[(table.uid, key)] = TOMBSTONE if after is TOMBSTONE \
            else dict(after)

    def on_commit(self, txn, commit_lsn: int) -> None:
        """Stamp the transaction's final images at its commit LSN."""
        pending = self._pending.pop(txn.txn_id, None)
        if pending:
            for (uid, key), values in pending.items():
                overlay = self._versioned.get(uid)
                if overlay is not None:
                    overlay.stamp(key, commit_lsn, values)
            self.stats["stamped"] += len(pending)
            self.metrics.inc("mvcc.versions.stamped", len(pending))
        self.write_through.discard(txn.txn_id)
        self._release_txn(txn)

    def on_abort(self, txn) -> None:
        """Discard pending images (physical rollback restores the heap)."""
        self._pending.pop(txn.txn_id, None)
        self.write_through.discard(txn.txn_id)
        self._release_txn(txn)

    def _release_txn(self, txn) -> None:
        handle = getattr(txn, "snapshot", None)
        if handle is not None:
            self.release(handle)
            txn.snapshot = None

    # -- pinned-epoch name resolution ------------------------------------

    def names_for(self, txn) -> Optional[Dict[str, Table]]:
        """The catalog mapping a pinned transaction resolves through.

        ``None`` when the transaction reads the current epoch (no pin,
        or pinned at the current version) -- callers then use the normal
        resolution path.
        """
        handle = getattr(txn, "snapshot", None)
        if handle is None or handle.released:
            return None
        if handle.catalog_version >= self.db.catalog.version:
            return None
        return self.db.catalog.names_at(handle.catalog_version)

    # -- garbage collection ----------------------------------------------

    def gc(self) -> int:
        """Reclaim superseded versions below the oldest pinned snapshot.

        Also releases catalog epochs no pin can still resolve through,
        then the overlays of tables nothing can resolve any more (a
        retired source whose zombie and epochs are gone).  Returns the
        number of chain entries reclaimed and updates the ``mvcc.gc.*``
        watermark/reclaimed metrics.
        """
        self.faults.fire(SITE_MVCC_GC, pins=len(self._pins))
        watermark = self.watermark()
        reclaimed = 0
        for overlay in self._versioned.values():
            reclaimed += overlay.trim(watermark)
        self.db.catalog.trim_epochs(self.oldest_pinned_epoch())
        resolvable = self.db.catalog.resolvable_uids()
        for uid in [uid for uid in self._versioned if uid not in resolvable]:
            del self._versioned[uid]
        self.stats["gc_runs"] += 1
        self.stats["reclaimed"] += reclaimed
        self.metrics.set_gauge(
            "mvcc.gc.watermark",
            float(watermark if watermark is not None
                  else self.db.log.end_lsn))
        if reclaimed:
            self.metrics.inc("mvcc.gc.reclaimed", reclaimed)
        self.metrics.set_gauge("mvcc.versions.live", float(
            sum(v.version_count() for v in self._versioned.values())))
        return reclaimed
