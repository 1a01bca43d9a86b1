"""The hooks of the per-row population modes, installed while the
transformation is POPULATING and run inside user transactions:
:class:`LazyMigrator` (``"lazy"``) and :class:`SourceTrigger`
(``"trigger"``).

With ``TransformOptions(population_mode="lazy")`` the transformed table
starts empty and two producers fill it:

* the **miss hook** below, installed on the database's
  ``access_hooks`` list for the duration of the POPULATING phase: a user
  read or update of a source record whose rowid is not yet migrated
  transforms exactly that record (and its join partners) through the
  operator's idempotent rule engine, inside the accessing transaction;
* the **background sweeper** -- the ordinary population step
  (:meth:`~repro.transform.base.Transformation._population_step`),
  driven by the ordinary step budget, which drains everything nobody
  touches through the source tables' population scans
  (:class:`~repro.engine.fuzzy.FuzzyScan`) until their cursors meet the
  end of the rowid lists.

The scan's claimed set is the dedup point between the two: the hook
claims a rowid before migrating it, the scan claims what it hands out,
and either skips what the other got to first.

Correctness rests on the same argument as the paper's fuzzy scan: each
migrated record is a snapshot of the row's *current* state, i.e. the
same or a newer state than any log record propagation will later replay,
so the state-driven FOJ rules (Theorem 1) and the LSN-guarded split
rules converge to the identical result regardless of population order.
Lazy population is an access-ordered fuzzy scan stretched over time.

With ``population_mode="trigger"`` every source change reaches the
targets at once, through the same rules, inside the user's transaction
(the cost log propagation keeps out of it), so rows scanned before or
after the change converge by the same argument.
"""

from __future__ import annotations

from typing import Tuple

from repro.faults import register_site

SITE_LAZY_MISS = register_site(
    "lazy.miss.transform", "lazy",
    "a user read/update touched a source record not yet migrated; "
    "before the record is transformed just in time")


class LazyMigrator:
    """The miss hook: migrates a source record on first user access.

    Registered in ``Database.access_hooks`` while the owning
    transformation is POPULATING; :meth:`on_access` runs synchronously
    inside the accessing transaction, right after the record lock is
    granted (so the snapshot it migrates is stable for the duration).
    """

    def __init__(self, tf) -> None:
        self.tf = tf
        #: Rows this hook claimed ahead of the sweeper (also counted as
        #: ``lazy.sweep.miss_claims``, which tells the miss-vs-sweep
        #: producer race apart in blame investigations).
        self.miss_claims = 0

    def install(self) -> None:
        self.tf.db.access_hooks.append(self)

    def uninstall(self) -> None:
        self.tf.db.access_hooks.remove(self)

    def on_access(self, db, txn, table_name: str, key: Tuple) -> None:
        from repro.transform.base import Phase
        tf = self.tf
        if tf.phase is not Phase.POPULATING:
            return
        if table_name not in tf.source_tables:
            return
        # Blame: the accessing transaction is now doing the
        # transformation's work; locks it holds while (and after) the
        # just-in-time migration blame ``lazy-miss``, not ``user``.  The
        # marking sticks for the remainder of the transaction -- strict
        # 2PL keeps the migration's locks until txn end, so waits behind
        # them remain migration-induced -- and is cleared by the lock
        # manager's release_all.
        from repro.obs.blame import ROLE_LAZY_MISS
        db.metrics.blame.set_role(txn.txn_id, ROLE_LAZY_MISS)
        self._migrate_key(db, table_name, tuple(key))

    def _migrate_key(self, db, table_name: str, key: Tuple) -> None:
        tf = self.tf
        scan = tf._scans[table_name]
        table = db.catalog.get(table_name)
        row = table.get(key)
        if row is None:
            return  # nothing to migrate; an insert will propagate later
        if not scan.claim(row.rowid):
            return  # already migrated (swept or missed earlier)
        self.miss_claims += 1
        tf.metrics.inc("lazy.sweep.miss_claims")
        try:
            tf.faults.fire(SITE_LAZY_MISS, transform=tf.transform_id,
                           table=table_name)
            tf.engine.migrate_row(table_name, dict(row.values), row.lsn)
        except BaseException:
            # Leave the rowid unclaimed so the sweeper still migrates it.
            scan.unclaim(row.rowid)
            raise
        tf.stats["lazy_miss_migrations"] += 1
        tf.metrics.inc("tf.lazy.miss")
        # Pull the record's join partners across too, so the accessing
        # transaction finds a complete target-side image.
        for partner_table, partner_key in \
                tf.engine.migration_partners(table_name, row.values):
            self._migrate_key(db, partner_table, tuple(partner_key))


class SourceTrigger:
    """Ronström's trigger (Section 2.1) on every source: the engine
    calls it after each operation and rollback compensation, billed to
    ``db.stats["trigger"]``; the change goes through propagation's own
    :meth:`~repro.transform.base.Transformation._apply_group`, so its
    touched target records enter the propagated lock table."""

    def __init__(self, tf) -> None:
        self.tf = tf

    def install(self) -> None:
        for name in self.tf.source_tables:
            self.tf.db.create_trigger(name, self)

    def uninstall(self) -> None:
        for name in self.tf.source_tables:
            self.tf.db.drop_triggers(name)

    def __call__(self, db, txn, change) -> None:
        self.tf._apply_group(change.table, change.__class__,
                             [(change, change.lsn, txn.txn_id)])
