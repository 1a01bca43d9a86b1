"""The schema catalog: name -> table mapping plus visibility states.

Besides ordinary create/drop/rename, the catalog supports what the
synchronization step of the transformation framework needs (Section 3.4):

* **atomic swaps** -- in one step, source tables disappear under their
  public names and transformed tables appear under theirs;
* **zombie tables** -- with the two *non-blocking* synchronization
  strategies, transactions that were active on the source tables keep
  running (until aborted, or to completion with non-blocking commit) after
  the swap.  Their tables are moved to a hidden *zombie* namespace that only
  those old transactions can still resolve;
* **blocked tables** -- the *blocking commit* strategy blocks new
  transactions from the involved tables while draining old ones;
* **versioned epochs** -- the MVCC version-flip strategy installs a
  schema change as a versioned catalog write: :meth:`Catalog.flip`
  snapshots the current name -> table mapping as a frozen *epoch*, then
  performs the swap and bumps :attr:`Catalog.version`.  A transaction
  whose snapshot pinned an older epoch keeps resolving names through
  :meth:`names_at` -- it reads the pre-flip schema until it finishes,
  with no latched window anywhere.  Epochs are reclaimed by MVCC GC once
  no pinned snapshot can still resolve through them.

It also records which swaps are in effect (:meth:`Catalog.swaps`, by
transform id); :meth:`Catalog.retire` -- a view's drop -- undoes one.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.common.errors import (DuplicateTableError, NoSuchTableError,
                                 TransformationStateError)
from repro.faults import NULL_FAULTS
from repro.storage.schema import TableSchema
from repro.storage.table import Table
from repro.wal.records import NULL_LSN


class Catalog:
    """All tables of a database, by name."""

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}
        self._zombies: Dict[str, Table] = {}
        self._blocked: Set[str] = set()
        #: Current schema version; bumped only by :meth:`flip`.
        self._version = 0
        #: Frozen name -> table mappings of superseded epochs, by the
        #: version number they were current under.
        self._epochs: Dict[int, Dict[str, Table]] = {}
        #: Public name -> (zombie name, swap LSN) of a source a swap
        #: retired and republished in place (see :meth:`swap`).
        self._shadowed: Dict[str, Tuple[str, int]] = {}
        #: Transform id -> names published by each swap in effect.
        self._swaps: Dict[str, Tuple[str, ...]] = {}
        #: Fault injector stamped onto every table registered here.
        self.faults = NULL_FAULTS

    def attach_faults(self, faults) -> None:
        """Adopt ``faults`` and stamp it onto every known table."""
        self.faults = faults
        for table in list(self._tables.values()) \
                + list(self._zombies.values()):
            table.faults = faults

    # -- basic DDL -------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        """Create an empty table from ``schema`` and register it."""
        if schema.name in self._tables or schema.name in self._zombies:
            raise DuplicateTableError(schema.name)
        table = Table(schema)
        table.faults = self.faults
        self._tables[schema.name] = table
        return table

    def add_table(self, table: Table) -> None:
        """Register an already-built table object under its current name."""
        if table.name in self._tables or table.name in self._zombies:
            raise DuplicateTableError(table.name)
        table.faults = self.faults
        self._tables[table.name] = table

    def drop_table(self, name: str) -> Table:
        """Remove a table; returns the detached object."""
        table = self._tables.pop(name, None)
        if table is None:
            raise NoSuchTableError(name)
        self._blocked.discard(name)
        return table

    def rename_table(self, old: str, new: str) -> Table:
        """Rename a visible table."""
        if new in self._tables or new in self._zombies:
            raise DuplicateTableError(new)
        table = self.get(old)
        del self._tables[old]
        table.rename(new)
        self._tables[new] = table
        return table

    # -- lookup -------------------------------------------------------------------

    def get(self, name: str) -> Table:
        """Visible table by name."""
        table = self._tables.get(name)
        if table is None:
            raise NoSuchTableError(name)
        return table

    def get_any(self, name: str) -> Table:
        """Table by name, searching zombies too (old-transaction access)."""
        table = self._tables.get(name)
        if table is None:
            table = self._zombies.get(name)
        if table is None:
            raise NoSuchTableError(name)
        return table

    def exists(self, name: str) -> bool:
        """Whether a visible table with this name exists."""
        return name in self._tables

    def is_zombie(self, name: str) -> bool:
        """Whether this name refers to a zombie (post-swap source) table."""
        return name in self._zombies

    def table_names(self) -> List[str]:
        """Sorted names of all visible tables."""
        return sorted(self._tables)

    def zombie_names(self) -> List[str]:
        """Sorted names of all zombie tables."""
        return sorted(self._zombies)

    # -- blocking (blocking-commit synchronization) ----------------------------------

    def block(self, names: Iterable[str]) -> None:
        """Mark tables as blocked for *new* transactions."""
        for name in names:
            if name not in self._tables:
                raise NoSuchTableError(name)
            self._blocked.add(name)

    def unblock(self, names: Iterable[str]) -> None:
        """Lift the blocked mark."""
        for name in names:
            self._blocked.discard(name)

    def is_blocked(self, name: str) -> bool:
        """Whether the table currently rejects new transactions."""
        return name in self._blocked

    # -- transformation swap ------------------------------------------------------------

    def swap(self, transform_id: str, retire: Iterable[str],
             publish: Dict[str, Table], keep_zombies: bool,
             lsn: int = NULL_LSN) -> None:
        """Atomically retire source tables and publish transformed ones.

        A name both retired and published is a change *in place*: its
        zombie is renamed ``name@lsn`` (see :meth:`name_at`), so old
        transactions' records name the source, not the published table.

        Args:
            transform_id: Registered with the published names (:meth:`swaps`);
                an id already in effect is refused.
            retire: Names of the source tables to remove from the visible
                namespace.
            publish: Mapping of public name to (already populated)
                transformed table; each table is renamed to its public name.
            keep_zombies: If true, retired tables stay reachable through
                :meth:`get_any` for transactions that were already active on
                them (non-blocking strategies); if false they are dropped
                outright (blocking commit, where no such transaction exists).
            lsn: The swap's log position (names in-place zombies).
        """
        if transform_id in self._swaps:
            raise TransformationStateError(
                f"swap {transform_id!r} is already in effect")
        retire_list = list(retire)
        for name in retire_list:
            if name not in self._tables:
                raise NoSuchTableError(name)
        for public, table in publish.items():
            existing = self._tables.get(public)
            if existing is not None and existing is not table \
                    and public not in retire_list:
                raise DuplicateTableError(public)
        for name in retire_list:
            table = self._tables.pop(name)
            self._blocked.discard(name)
            if keep_zombies:
                if name in publish:
                    self._shadowed[name] = (f"{name}@{lsn}", lsn)
                    table.rename(f"{name}@{lsn}")
                self._zombies[table.name] = table
        for public, table in publish.items():
            if table.name != public:
                # The table was built under an internal working name;
                # publish it under its public one.
                self._tables.pop(table.name, None)
                table.rename(public)
            self._tables[public] = table
        self._swaps[transform_id] = tuple(publish)

    def swaps(self) -> Dict[str, Tuple[str, ...]]:
        """Transform id -> published names of every swap in effect."""
        return dict(self._swaps)

    def retire(self, transform_id: str) -> None:
        """Unregister swap ``transform_id``; drop its visible tables."""
        for name in self._swaps.pop(transform_id):
            if name in self._tables:
                self.drop_table(name)

    def name_at(self, name: str, lsn: int = NULL_LSN) -> str:
        """The current name of the table ``name`` denoted at log position
        ``lsn`` (by default: before any swap) -- its zombie's, if a swap
        since retired and republished ``name`` in place."""
        shadow = self._shadowed.get(name)
        return shadow[0] if shadow is not None and lsn < shadow[1] else name

    def drop_zombie(self, name: str) -> None:
        """Discard a zombie table once no old transaction can touch it."""
        self._zombies.pop(name, None)
        self._shadowed = {public: shadow for public, shadow
                          in self._shadowed.items() if shadow[0] != name}

    # -- versioned epochs (MVCC version flip) --------------------------------

    @property
    def version(self) -> int:
        """The current schema version (0 until the first flip)."""
        return self._version

    def flip(self, transform_id: str, retire: Iterable[str],
             publish: Dict[str, Table], keep_zombies: bool = True,
             lsn: int = NULL_LSN) -> int:
        """Install a schema change as a versioned catalog write.

        Freezes the current visible mapping as the epoch for
        :attr:`version`, performs the same atomic retire/publish as
        :meth:`swap`, then bumps the version.  New transactions resolve
        names through the bumped mapping; transactions pinned at the old
        version keep resolving through the frozen epoch (the retired
        table objects stay alive there even after their zombies are
        dropped).  Returns the new version.
        """
        published = {id(t) for t in publish.values()}
        # The frozen epoch is the pre-flip *user* schema: transient target
        # tables already registered under their working (or public) names
        # are excluded, so a reader pinned before the flip can never
        # resolve the new schema -- not even its half-built precursor.
        self._epochs[self._version] = {
            name: t for name, t in self._tables.items()
            if id(t) not in published}
        self.swap(transform_id, retire, publish, keep_zombies, lsn)
        self._version += 1
        return self._version

    def names_at(self, version: int) -> Optional[Dict[str, Table]]:
        """The frozen name -> table mapping of a superseded epoch.

        ``None`` for the current version (resolve normally) and for
        epochs already reclaimed by :meth:`trim_epochs`.
        """
        if version >= self._version:
            return None
        return self._epochs.get(version)

    def trim_epochs(self, oldest_pinned: Optional[int]) -> int:
        """Reclaim epochs no pinned snapshot can still resolve through.

        ``oldest_pinned=None`` means nothing is pinned: every frozen
        epoch goes.  Returns the number of epochs dropped.
        """
        if oldest_pinned is None:
            dropped = len(self._epochs)
            self._epochs.clear()
            return dropped
        stale = [v for v in self._epochs if v < oldest_pinned]
        for v in stale:
            del self._epochs[v]
        return len(stale)

    def resolvable_uids(self) -> Set[int]:
        """Uids of every table a visible name, a zombie or a retained
        epoch can still resolve."""
        return {table.uid for names in (self._tables, self._zombies,
                                        *self._epochs.values())
                for table in names.values()}

    def __repr__(self) -> str:
        names = ", ".join(self.table_names())
        zombies = ", ".join(self.zombie_names())
        extra = f" zombies=[{zombies}]" if zombies else ""
        return f"Catalog([{names}]{extra})"
