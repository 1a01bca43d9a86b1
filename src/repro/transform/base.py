"""The four-step non-blocking transformation framework (Section 3).

:class:`Transformation` is the state machine every concrete transformation
(FOJ, split) plugs into.  It owns the phases:

1. **preparation** -- create the transformed tables (marked *transient* in
   the log: they are rebuilt or discarded at restart), their indices and
   constraints (Section 3.1);
2. **initial population** -- write the begin fuzzy mark embedding the
   active transactions on the source tables, fuzzily read the sources, and
   insert the operator result (Section 3.2);
3. **log propagation** -- redo the log tail onto the transformed tables in
   bounded iterations, each ending with an analysis that either starts
   another iteration or moves to synchronization (Section 3.3).  The
   propagator also maintains the *propagated lock table*: for every redone
   operation, an entry recording that the owning transaction logically
   holds the affected transformed records -- "the locks ... are only needed
   when user transactions access both source and transformed tables, i.e.
   during synchronization, [so] they are ignored for now";
4. **synchronization** -- one of the three strategies of Section 3.4,
   implemented in :mod:`repro.transform.sync`, followed (for the
   non-blocking strategies) by a **background** phase in which propagation
   continues while old transactions live.

The machine is one table, :attr:`Transformation.MACHINE`: for each
:class:`Phase`, the handler that does that phase's work and the phases it
may move to.  A handler returns ``(units, next phase)``; the one guarded
assignment, :meth:`Transformation._enter`, refuses any edge the table does
not list, and :meth:`Transformation.check_invariants` states what must
hold between any two applied groups.  :meth:`Transformation.step` is the
one loop over the table: it performs a bounded amount of work (measured
in *units*: one row scanned or inserted, or one log record examined) and
returns.  This is what lets the transformation "run as a low priority
background process" in the simulator and what a DBA thread would call in
a real deployment.  :meth:`run` drives it to completion for
single-threaded use.
"""

from __future__ import annotations

import itertools
import math
import sys
from contextlib import nullcontext
from operator import sub
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Type

from repro.common.errors import (
    DuplicateKeyError,
    TransformationAbortedError,
    TransformationError,
    TransformationStarvedError,
    TransformationStateError,
)
from repro.concurrency.locks import LockMode, LockOrigin, record_resource
from repro.engine.database import Database
from repro.engine.fuzzy import FuzzyScan
from repro.engine.recovery import register_rebuilder
from repro.faults import DelayFault, FaultInjector, register_site
from repro.obs import ConvergenceMonitor, Metrics
from repro.obs.blame import PHASE_ROLES, ROLE_SWEEPER
from repro.obs.spans import Span
from repro.shard import SITE_SHARD_PLAN, ShardPlanner
from repro.storage.row import Row
from repro.storage.schema import TableSchema
from repro.storage.table import PRIMARY_INDEX, Image, Table
from repro.transform.analysis import Decision, RemainingRecordsPolicy
from repro.transform.options import (
    PER_ROW_MODES,
    SyncStrategy,
    TransformOptions,
    population_problem,
)
from repro.wal.records import (
    NULL_LSN,
    CLRecord,
    DeleteRecord,
    EndRecord,
    FuzzyMarkRecord,
    InsertRecord,
    LogRecord,
    TransformSwapRecord,
    UpdateRecord,
)

_transform_counter = itertools.count(1)

SITE_TF_STEP = register_site(
    "tf.step", "transform",
    "top of every step; a DelayFault here squeezes the step budget "
    "(starves the background process, Section 3.3)")
SITE_TF_PREPARE = register_site(
    "tf.prepare", "transform", "before the target tables are created")
SITE_TF_PREPARED = register_site(
    "tf.prepared", "transform",
    "after preparation, before initial population begins")
SITE_TF_POPULATE_BEGIN = register_site(
    "tf.populate.begin", "transform",
    "before the begin fuzzy mark is written")
SITE_TF_POPULATE_DONE = register_site(
    "tf.populate.done", "transform",
    "after population, before the first cycle mark")
SITE_TF_PROPAGATE_BATCH = register_site(
    "tf.propagate.batch", "transform",
    "before each bounded log-propagation batch")
SITE_TF_PROPAGATE_GROUP = register_site(
    "tf.propagate.group", "transform",
    "inside the propagation loop, before a fetched log slice is "
    "classified and applied")
SITE_TF_ITERATION_END = register_site(
    "tf.iteration.end", "transform",
    "end of a propagation iteration, before the analysis runs")
SITE_TF_SYNC_ENTER = register_site(
    "tf.sync.enter", "transform",
    "the analysis chose synchronization; before the executor is built")
SITE_TF_ABORT = register_site(
    "tf.abort", "transform", "top of Transformation.abort cleanup")


class Phase(Enum):
    """Life-cycle phase of a transformation."""

    CREATED = "created"
    PREPARED = "prepared"
    POPULATING = "populating"
    PROPAGATING = "propagating"
    SYNCHRONIZING = "synchronizing"
    #: Post-swap: propagation continues while old transactions are alive
    #: (non-blocking strategies only).
    BACKGROUND = "background"
    DONE = "done"
    ABORTED = "aborted"


@dataclass
class StepReport:
    """Result of one :meth:`Transformation.step` call."""

    phase: Phase
    units: int
    done: bool
    #: Set when the analysis declared the propagator stalled (the log grows
    #: faster than it is consumed); the caller should abort or raise the
    #: transformation's priority (Section 3.3).
    stalled: bool = False
    info: Dict[str, object] = field(default_factory=dict)


class PropagatedLockTable:
    """Locks the propagator maintains on transformed-table records.

    During population and propagation these are bookkeeping only (the
    paper: "they are ignored for now"); the synchronization step
    *materializes* the entries of still-active transactions into the real
    lock manager under per-transaction proxy owners, so they are released
    exactly when the propagator processes the owner's end record -- not
    when the transaction itself ends, because the transaction's effects
    reach the transformed tables only through propagation.
    """

    def __init__(self) -> None:
        self._by_txn: Dict[int, Set[Tuple]] = {}

    def note(self, txn_id: int, table_uid: int, key: Tuple) -> None:
        """Record that ``txn_id`` logically holds the transformed record.

        Owner ``0`` is nobody.  A key with a NULL part is noted like any
        other: the FOJ's ``t^null_x`` rows, the m2m placeholders and
        explode's NULL-element child are read (and S-locked by key)
        through the secondary indexes, so the lock is what keeps a
        post-swap reader from seeing an open writer's row.
        """
        if txn_id == 0:
            return
        resource = record_resource(table_uid, key)
        held = self._by_txn.get(txn_id)
        if held is None:
            self._by_txn[txn_id] = {resource}
        else:
            held.add(resource)

    def release_txn(self, txn_id: int) -> None:
        """Drop all entries of a finished transaction."""
        self._by_txn.pop(txn_id, None)

    def resources_of(self, txn_id: int) -> Set[Tuple]:
        """Entries currently recorded for a transaction."""
        return set(self._by_txn.get(txn_id, ()))

    def txn_ids(self) -> List[int]:
        """Transactions with at least one recorded entry."""
        return sorted(self._by_txn)

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_txn.values())


#: A rule's touched sink: ``(table, key)`` pairs for the propagated lock
#: table, or ``None`` when the change's owner has finished.
Touched = Optional[List[Tuple[Table, Tuple]]]


#: Proxy lock-owner id for a transaction's propagated locks.  Kept disjoint
#: from real transaction ids (which are positive).
def proxy_owner(txn_id: int) -> int:
    """Lock-manager owner id holding transaction ``txn_id``'s mirrored locks."""
    return -txn_id


class RuleEngine:
    """Interface of the operator-specific log-propagation rules.

    Concrete engines (:mod:`repro.transform.foj`,
    :mod:`repro.transform.split`, ...) implement the paper's numbered rules
    and list them in one dispatch table, :attr:`_rules`, behind both
    :meth:`apply` and :meth:`apply_run`.  A rule is called as
    ``rule(change, lsn, touched)`` and reports every transformed-table
    record it touched through :meth:`_touch` / :meth:`_touch_row` as a
    ``(table, key)`` pair, which the framework feeds into the propagated
    lock table -- or, when ``touched`` is ``None``, reports nothing and
    builds no key: the owner has finished, so nobody can still hold it.
    """

    #: Names of the source tables whose log records this engine consumes:
    #: the spec's ``sources``, renamed by :meth:`rename_source`.
    source_tables: Tuple[str, ...] = ()

    #: ``(source table, record class) -> rule(change, lsn, touched)``;
    #: a pair with no entry touches nothing.
    _rules: Dict[Tuple[str, type], Callable] = {}

    #: Record classes :meth:`handle_marker` actually consumes, or ``None``
    #: for "unknown -- call it for every non-data record".  The
    #: propagation loop uses this to skip the call for begin/commit/abort
    #: records an engine provably ignores; engines overriding
    #: :meth:`handle_marker` should declare their classes here (see
    #: :class:`repro.transform.split.SplitRuleEngine`).
    marker_classes: Optional[Tuple[type, ...]] = None

    def __init__(self, db: Database, spec) -> None:
        self.db = db
        self.spec = spec
        self.source_tables = spec.sources

    def apply(self, change: LogRecord,
              lsn: int = NULL_LSN) -> List[Tuple[Table, Tuple]]:
        """Apply one data-change record; returns touched target records.

        Args:
            change: The data change (CLRs arrive unwrapped: the embedded
                compensating action).
            lsn: LSN of the enclosing log record -- the state identifier
                the split rules stamp onto target rows.  The FOJ rules
                ignore it (Section 4.2: joined rows have no valid state
                identifier).
        """
        touched: List[Tuple[Table, Tuple]] = []
        rule = self._rules.get((change.table, change.__class__))
        if rule is not None:
            rule(change, lsn, touched)
        return touched

    def apply_run(self, table_name: str, kind: type,
                  items: Sequence[Tuple[LogRecord, int, int]]
                  ) -> List[Sequence[Tuple[Table, Tuple]]]:
        """Apply a consecutive run of same-(table, rule) data changes.

        ``items`` holds ``(change, lsn, owner)`` triples in LSN order,
        exactly as the propagation loop collected them; ``kind`` is the
        record class shared by every change in the run, so the rule is
        resolved once.  ``owner`` is the change's transaction while it
        is still active, ``0`` once it has finished.  The return value
        is the per-change touched records, positionally matching
        ``items``: what :meth:`apply` returns for a live owner, and
        nothing -- the rule ran without a touched sink -- for owner
        ``0``, whose entries the propagated lock table would drop unread
        at the owner's end record, which lies further down the log.
        """
        rule = self._rules.get((table_name, kind))
        if rule is None:
            return [[] for _ in items]
        out: List[Sequence[Tuple[Table, Tuple]]] = []
        for change, lsn, owner in items:
            if owner:
                touched: List[Tuple[Table, Tuple]] = []
                rule(change, lsn, touched)
                out.append(touched)
            else:
                rule(change, lsn, None)
                out.append(())
        return out

    @staticmethod
    def _touch(touched: Touched, table: Table, key: Tuple) -> None:
        """Report a touched target record, unless nobody can hold it."""
        if touched is not None:
            touched.append((table, key))

    @staticmethod
    def _touch_row(touched: Touched, table: Table, row: Row) -> None:
        """:meth:`_touch` for a row in hand; its lock key
        (:meth:`~repro.storage.table.Table.lock_key`) is built only when
        someone can hold it."""
        if touched is not None:
            touched.append((table, table.lock_key(row.values)))

    def rename_source(self, old: str, new: str) -> None:
        """Consume source ``old``'s records under ``new`` from now on
        (an in-place swap's zombie name, see ``Catalog.name_at``)."""
        self.source_tables = tuple(new if name == old else name
                                   for name in self.source_tables)
        self._rules = {(new if table == old else table, kind): rule
                       for (table, kind), rule in self._rules.items()}

    def handle_marker(self, record: LogRecord) -> None:
        """Consume a non-data record (CC marks etc.); default: ignore."""

    def shard_route(self, change: LogRecord) -> Optional[Tuple]:
        """Routing key for the per-shard cost accounts (:mod:`repro.shard`).

        Return the key tuple whose hash names the shard account this
        data change is charged to, or ``None`` for records no single
        shard owns (they touch target rows of several shards and are
        charged serially).  The contract: two records returning routing
        keys that hash to different shards may be applied in either
        relative order without changing the converged target state --
        what would let N appliers run them concurrently.  The
        conservative default routes nothing, so an engine without an
        override is charged exactly like ``shards=1``.
        """
        return None

    def migrate_rows(self, table_name: str, images: Sequence[Image]) -> None:
        """Transform source row images -- ``(values, lsn)`` pairs: a
        copy of a row's values, which the engine may keep, and its LSN --
        into the target.

        The one way scanned rows enter a target: population (every mode,
        and restart rebuild) hands over each chunk, the miss hook one
        image.  Must be idempotent and built from the same state-driven
        / LSN-guarded primitives as the propagation rules, so later log
        replay converges whatever order the rows arrived in.  A chunk
        that raises must leave nothing that makes its retry stop short:
        the split's chunk is all or nothing (no R or S row of it stays);
        the FOJ's batch insert is, and its retry finds the morphs and
        fills before it done; an engine that migrates row by row keeps
        the images before the one that raised, as its retry finds them.
        The m2m join falls short of this: a raise between two of its
        placeholder fills leaves a record carried but half paired, which
        its retry skips (its insert rule does the same in propagation).
        """
        raise NotImplementedError

    def migrate_row(self, table_name: str, values: Dict[str, object],
                    lsn: int = NULL_LSN) -> None:
        """:meth:`migrate_rows` of one image, the lazy miss hook's call
        (population never makes it: a tracer of it sees misses only)."""
        self.migrate_rows(table_name, ((values, lsn),))

    @staticmethod
    def _insert_new(table: Table, values: Dict[str, object],
                    lsn: int) -> Optional[Row]:
        """Insert a target row; ``None`` when its primary key is taken
        (migrated, or replayed).  Other unique-key conflicts raise."""
        try:
            return table.insert_row(values, lsn)
        except DuplicateKeyError as exc:
            if exc.index != PRIMARY_INDEX:
                raise
            return None

    def migration_partners(self, table_name: str,
                           values: Dict[str, object]
                           ) -> List[Tuple[str, Tuple]]:
        """Join partners to migrate together with a just-missed record.

        Returns ``(source_table, key)`` pairs; default: none.
        """
        return []

    def targets_of_source_lock(self, table_name: str,
                               key: Tuple) -> List[Tuple[Table, Tuple]]:
        """Transformed records corresponding to a locked source record."""
        raise NotImplementedError

    def sources_of_target_lock(self, table_name: str,
                               key: Tuple) -> List[Tuple[Table, Tuple]]:
        """Source records corresponding to a locked transformed record."""
        raise NotImplementedError


class Transformation:
    """Abstract base of the non-blocking schema transformations.

    Args:
        db: The database to transform.
        spec: The operator's specification (a frozen dataclass of
            :mod:`repro.relational.spec`); it names the sources, checks
            and publishes the target schemas, and is what the swap log
            record carries, so restart recovery can rebuild the
            published tables from it.  Its schema checks run against the
            live catalog here, before anything is created.
        options: A :class:`~repro.transform.options.TransformOptions`
            carrying the configuration (sync strategy, shards, metrics,
            analysis policy, id, population mode, storage).
            ``options.shards`` is a parameter value of the one
            propagation loop (:meth:`_propagate_batch`), not a separate
            pipeline: there is one log cursor whatever it is set to, so
            the Section 3.4 strategies and the lock mirroring are
            identical either way.  How much one :meth:`step` does is its
            ``budget`` argument, not an option.

    Subclass contract -- an operator is three things:

    * :attr:`kind` and :attr:`spec_class` (whose ``sources`` are
      :attr:`source_tables` and whose ``published`` schemas are the
      targets');
    * :meth:`target_tables` -- the one builder of its target tables and
      their indexes, keyed by *public* (post-swap) name; preparation
      runs it against the catalog, restart rebuild detached.  The base
      creates the published tables; an operator that needs secondary
      indexes adds them;
    * :attr:`engine_class` -- its :class:`RuleEngine`, constructed as
      ``engine_class(db, spec, *targets)``, whose
      :meth:`~RuleEngine.migrate_rows` is how each scanned chunk enters
      the targets (:meth:`_population_step`: eager, lazy and rebuild
      alike) and whose ``apply`` / ``apply_run`` propagate the log.

    Overridable where an operator needs more: :meth:`_create_targets` /
    :meth:`_build_rule_engine` (the split's rename mode) and
    :meth:`_swap_params` (constructor keywords restart must replay).
    Population is not: an engine that needs speed works on the whole
    chunk inside ``migrate_rows``.
    """

    #: Transformation kind registered with recovery (e.g. ``"foj"``).
    kind: str = ""

    #: The operator's spec class (:mod:`repro.relational.spec`), which
    #: the plan registry builds from a step's params.
    spec_class: type = object

    #: The operator's :class:`RuleEngine` subclass.
    engine_class: Type[RuleEngine] = RuleEngine

    #: Whether synchronization retires the sources (a schema change) or
    #: publishes the targets next to them (a materialized view).
    retires: bool = True

    #: Whether the engine's :meth:`~RuleEngine.migrate_rows` may run in
    #: *any* row order, interleaved with user access -- what the per-row
    #: population modes (``"lazy"``, ``"trigger"``) need.  Without it
    #: they are rejected at population begin (and, via the plan
    #: registry, at plan validation).
    supports_lazy: bool = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # Every kind is recoverable by construction: restart finds the
        # class by the kind its swap record names.
        if "kind" in vars(cls):
            register_rebuilder(cls.kind, cls.rebuild)

    def __init__(self, db: Database, spec: object,
                 options: Optional[TransformOptions] = None) -> None:
        self.options = options if options is not None else TransformOptions()
        self.db = db
        self.spec = spec
        self.published_schemas(db, spec)  # the spec's checks, up front
        # Swaps are keyed by id: an explicit id in effect is refused, a
        # default one skips them (the counter restarts with the process).
        taken = db.catalog.swaps()
        if self.options.transform_id in taken:
            raise TransformationStateError(
                f"swap {self.options.transform_id!r} is already in effect")
        self.transform_id = self.options.transform_id or next(
            tid for tid in (f"{self.kind or 'tf'}-{n}"
                            for n in _transform_counter) if tid not in taken)
        #: The analysis policy stays an attribute (unlike the other
        #: options, read from ``self.options`` where they are used) so a
        #: driver can swap it mid-run; it decides from
        #: :attr:`convergence` alone and holds no state.
        self.policy = self.options.policy or RemainingRecordsPolicy()
        #: Snapshot pinned for the whole initial population under the
        #: MVCC backend; ``None`` before population and under latch mode.
        self._population_snapshot = None
        #: The shard map shared by the population scans' and
        #: propagation's per-shard cost accounts; built at population
        #: begin.
        self._planner = None
        #: Routed applies charged to each shard account, and applies no
        #: single shard owns (``shard_route`` returned ``None``).  The
        #: list stays empty for ``shards=1``, which therefore never
        #: calls the router or the planner hash.
        self._shard_applied: List[int] = []
        self._unrouted_applied = 0

        #: Span bookkeeping: the transformation root, the span of the
        #: current phase, and the span of the current propagation
        #: iteration.  All ``None`` until the root is opened lazily at
        #: the first unit of work (and always when metrics are disabled).
        self._tf_span: Optional[Span] = None
        self._phase_span: Optional[Span] = None
        self._iter_span: Optional[Span] = None
        #: Optional parent for the root span (the supervisor nests each
        #: attempt's transformation under its attempt span).
        self._span_parent: Optional[Span] = None
        # What the options carry for the database; faults and the flush
        # policy are attached to the ``Database`` by whoever holds it.
        if self.options.storage == "mvcc":
            db.enable_mvcc()
        if self.options.metrics is not None:
            db.attach_metrics(self.options.metrics)
        #: Observability registry, inherited from the database so one
        #: attachment covers the engine and the transformation it runs.
        self.metrics: Metrics = db.metrics
        #: Per-iteration propagation-lag series (Section 3.3's three
        #: analyses): one point per :meth:`_finish_iteration`, which the
        #: policy decides from.
        self.convergence = ConvergenceMonitor(self.metrics)
        #: LSN of the begin fuzzy mark: the zero point of the
        #: produced-records side of the convergence series.
        self._propagation_base_lsn = NULL_LSN

        self._phase = Phase.CREATED
        self.targets: Dict[str, Table] = {}
        self.engine: Optional[RuleEngine] = None
        self.locks_held = PropagatedLockTable()

        self._scans: Dict[str, FuzzyScan] = {}
        self._cursor = NULL_LSN          # next LSN to propagate
        self._iteration = 0
        self._iteration_target = NULL_LSN
        self._iteration_records = 0
        self._iteration_units = 0
        self._sync_executor = None       # built by _sync()
        self._old_txn_ids: Set[int] = set()
        #: The per-row modes' hook (miss hook, triggers) while installed.
        self._population_hook = None
        #: Cumulative statistics, read by benchmarks and the simulator.
        self.stats: Dict[str, int] = {
            "population_units": 0, "propagated_records": 0,
            "iterations": 0, "sync_latch_units": 0,
            "lazy_miss_migrations": 0, "lazy_sweep_rows": 0,
        }

    @property
    def faults(self) -> FaultInjector:
        """The database's fault injector, read dynamically so an injector
        attached after construction is honoured."""
        return self.db.faults

    # ------------------------------------------------------------------
    # Phase tracking + span lifecycle
    # ------------------------------------------------------------------

    @property
    def phase(self) -> Phase:
        """Life-cycle phase; changed only by :meth:`_enter`."""
        return self._phase

    def _enter(self, new: Phase) -> None:
        """The one phase assignment: guarded by :attr:`MACHINE`; it also
        moves the phase spans and the blame role.  Entering PROPAGATING
        opens its first iteration; entering SYNCHRONIZING traces
        ``tf.sync.start`` under the new phase span."""
        old = self._phase
        if new is old:
            return
        if new not in self.MACHINE[old][1]:
            raise TransformationStateError(
                f"{self.transform_id}: no transition "
                f"{old.value} -> {new.value}")
        self._phase = new
        metrics = self.metrics
        if metrics.enabled:
            # Blame: map the transform id to its phase's role, so what
            # it holds (latches, for one) is charged to that phase.
            # Population and propagation hold no engine resources by
            # construction -- nonzero blame there is itself a red flag.
            role = PHASE_ROLES.get(new.value)
            if role is not None:
                metrics.blame.set_role(self.transform_id, role)
            else:
                metrics.blame.clear_role(self.transform_id)
            if self._phase_span is not None:
                metrics.end_span(self._phase_span)
                self._phase_span = None
            if new in (Phase.DONE, Phase.ABORTED):
                # Terminal: close the iteration and root spans too.
                if self._iter_span is not None:
                    metrics.end_span(self._iter_span)
                    self._iter_span = None
                if self._tf_span is not None:
                    self._tf_span.attrs["outcome"] = new.value
                    metrics.end_span(self._tf_span)
                    self._tf_span = None
            elif self._tf_span is not None:
                self._phase_span = metrics.begin_span(
                    "tf.phase." + new.value, parent=self._tf_span,
                    transform=self.transform_id)
        if new is Phase.POPULATING:
            # The cursor is set: from here to the end the transformation
            # reads the log from it, so a durable log keeps that part as
            # objects.
            self.db.log.pins.append(self._log_pin)
        elif new in (Phase.DONE, Phase.ABORTED) and \
                self._log_pin in self.db.log.pins:
            self.db.log.pins.remove(self._log_pin)
        if new is Phase.PROPAGATING:
            self._begin_iteration()
        elif new is Phase.SYNCHRONIZING:
            self.metrics.trace("tf.sync.start", transform=self.transform_id,
                               strategy=self.options.sync_strategy.value)

    def _log_pin(self) -> int:
        """The log pin of propagation: the cursor."""
        return self._cursor

    def _ensure_root_span(self) -> None:
        """Open the transformation root span at the first unit of work."""
        if not self.metrics.enabled or self._tf_span is not None or \
                self.phase in (Phase.DONE, Phase.ABORTED):
            return
        self._tf_span = self.metrics.begin_span(
            "tf", parent=self._span_parent, transform=self.transform_id,
            kind=self.kind or "tf",
            strategy=self.options.sync_strategy.value)
        self._phase_span = self.metrics.begin_span(
            "tf.phase." + self.phase.value, parent=self._tf_span,
            transform=self.transform_id)

    def _batch_span_parent(self) -> Optional[Span]:
        """Parent for a propagation-batch span: the latched window when
        one is open, else the current iteration, else the phase."""
        window = self._sync_executor and self._sync_executor.window_span
        return window or self._iter_span or self._phase_span

    # ------------------------------------------------------------------
    # Subclass contract
    # ------------------------------------------------------------------

    @property
    def source_tables(self) -> Tuple[str, ...]:
        """Names of the tables being transformed away."""
        return self.spec.sources

    @staticmethod
    def published_schemas(db: Database, spec) -> Dict[str, TableSchema]:
        """``spec.published`` over the live catalog's source schemas."""
        return spec.published({name: db.catalog.get(name).schema
                               for name in spec.sources})

    @classmethod
    def target_tables(cls, db: Database, spec: object,
                      detached: bool = False) -> Dict[str, Table]:
        """Build the operator's target tables + indexes, by public name.

        The one target builder: preparation creates the tables in
        ``db``'s catalog (logged, marked transient); restart's
        swap-point rebuild asks for them ``detached`` -- plain
        :class:`Table` objects outside catalog and log, which recovery
        installs itself.  The base creates one table per published
        schema, through :meth:`_new_table`; overrides add indexes.
        """
        return {name: cls._new_table(db, schema, detached) for name, schema
                in cls.published_schemas(db, spec).items()}

    @staticmethod
    def _new_table(db: Database, schema, detached: bool) -> Table:
        return Table(schema) if detached \
            else db.create_table(schema, transient=True)

    def _create_targets(self) -> Dict[str, Table]:
        """Create target tables/indexes; return them by public name."""
        return self.target_tables(self.db, self.spec)

    def _build_rule_engine(self) -> RuleEngine:
        """Build the operator-specific propagation rule engine."""
        return self.engine_class(self.db, self.spec, *self.targets.values())

    def _swap_params(self) -> Dict[str, object]:
        """Operator parameters recorded in the swap log record: the
        constructor keywords :meth:`rebuild` replays at restart."""
        return {"spec": self.spec}

    def _ready_to_synchronize(self) -> Tuple[bool, str]:
        """Operator veto on synchronization (e.g. outstanding U flags).

        Returns ``(ready, reason-if-not)``.  Default: always ready.
        """
        return True, ""

    def _background_work(self, budget: int) -> int:
        """Operator background work (consistency checking); returns units."""
        return 0

    def _pre_swap(self) -> None:
        """Hook invoked by the synchronization executor right before the
        schema swap, with the source tables still latched/blocked and the
        final propagation complete.  The rename-based split strategy uses
        it to strip the moved attributes from T and publish it as R
        (Section 5.2, alternative strategy)."""

    # ------------------------------------------------------------------
    # Phase 1: preparation
    # ------------------------------------------------------------------

    def prepare(self) -> None:
        """Create the transformed tables, constraints and indices.

        Section 3.1: the new tables must include at least one candidate key
        from each source table (validated by the spec); indices needed by
        the propagation rules are created here and "will be up to date when
        the transformation is complete".  The CREATED row of
        :attr:`MACHINE`, callable on its own.
        """
        if self._phase is not Phase.CREATED:
            raise TransformationStateError(
                f"{self.transform_id}: prepare() in phase "
                f"{self._phase.value}")
        self._ensure_root_span()
        self.faults.fire(SITE_TF_PREPARE, transform=self.transform_id)
        self._wire(self._create_targets())
        self._enter(Phase.PREPARED)
        self.faults.fire(SITE_TF_PREPARED, transform=self.transform_id)

    def _prepare(self, budget: int) -> Tuple[int, Phase]:
        """The CREATED row."""
        self.prepare()
        return 0, Phase.PREPARED

    # ------------------------------------------------------------------
    # Phase 2: initial population
    # ------------------------------------------------------------------

    def _begin_population(self, budget: int) -> Tuple[int, Phase]:
        """The PREPARED row: write the begin fuzzy mark and open the
        scans.  Under ``population_mode="blocking"`` -- Section 1's
        ``INSERT INTO ... SELECT`` -- blocking commit's block-and-drain
        runs first, one step at a time, and opens the population on
        quiescent sources; the block lifts at the swap."""
        options = self.options
        if options.population_mode == "blocking":
            sync = self._sync()
            units, _ = sync.step(budget)
            if not sync.in_window:
                return max(units, 1), Phase.PREPARED
        problem = population_problem(
            options.population_mode, options.sync, self.supports_lazy)
        if problem is not None:
            raise TransformationError(
                f"{self.transform_id} ({type(self).__name__}): {problem}")
        self.faults.fire(SITE_TF_POPULATE_BEGIN, transform=self.transform_id)
        active = sorted(
            t.txn_id for t in self.db.txns.active_on(self.source_tables))
        mark = FuzzyMarkRecord(transform_id=self.transform_id,
                               phase="begin", active_txns=tuple(active))
        mark_lsn = self.db.log.append(mark)
        self._propagation_base_lsn = mark_lsn
        oldest = self.db.txns.oldest_first_lsn(active)
        self._cursor = oldest if oldest != NULL_LSN else mark_lsn
        shards = options.shards
        if shards > 1:
            self.faults.fire(SITE_SHARD_PLAN, transform=self.transform_id,
                             shards=shards)
            self._shard_applied = [0] * shards
        self._planner = ShardPlanner(shards)
        self._open_scans()
        self._install_population_hook()
        return 0, Phase.POPULATING

    def _wire(self, targets: Dict[str, Table]) -> None:
        """Adopt ``targets`` and build their rule engine.  With
        :meth:`_open_scans` this is all :meth:`_population_step` reads,
        so :meth:`prepare` / :meth:`_begin_population` and
        :meth:`rebuild` set an instance up through the same two calls."""
        self.targets = targets
        self.engine = self._build_rule_engine()

    def _open_scans(self) -> None:
        for name in self.source_tables:
            self._scans[name] = self._make_scan(self.db.catalog.get(name))

    def _make_scan(self, table: Table) -> FuzzyScan:
        """Build the population scan of one source table.

        Every mode gets the one chunk source, :class:`FuzzyScan`, at its
        default chunk size (the population loop caps each chunk at the
        step's remaining budget), with the options as parameters: the
        shard map to charge handed-out rows to, and -- under lazy
        population -- hand-outs recorded as claims, so the miss hook and
        the background drain migrate each row exactly once.  Only the
        read rule varies.  Latch storage and the per-row modes read
        dirty: the paper's fuzzy read, repaired later by LSN-guarded
        propagation (a miss hook can only see live rows, and a stale
        image would overwrite what a trigger already applied).  Eager
        and blocking MVCC population pin one snapshot (first call) and
        read every chunk of every source as of it through
        :class:`~repro.storage.mvcc.SnapshotScan`.
        """
        options = self.options
        mode = options.population_mode
        scan_options = dict(planner=self._planner, faults=self.faults,
                            claim_handouts=mode == "lazy")
        if options.storage == "mvcc" and mode not in PER_ROW_MODES:
            from repro.storage.mvcc import SnapshotScan
            mvcc = self.db.mvcc
            assert mvcc is not None
            if self._population_snapshot is None:
                self._population_snapshot = mvcc.pin(owner=self.transform_id)
            return SnapshotScan(mvcc.versioned(table),
                                self._population_snapshot, **scan_options)
        return FuzzyScan(table, **scan_options)

    def _release_population_snapshot(self) -> None:
        """Unpin the population snapshot (population done, or abort)."""
        if self._population_snapshot is None:
            return
        assert self.db.mvcc is not None
        self.db.mvcc.release(self._population_snapshot)
        self._population_snapshot = None

    def _install_population_hook(self) -> None:
        """Install the per-row modes' hook (miss hook, or triggers)."""
        from repro.transform.lazy import LazyMigrator, SourceTrigger
        hook = {"lazy": LazyMigrator, "trigger": SourceTrigger}.get(
            self.options.population_mode)
        if hook is not None:
            self._population_hook = hook(self)
            self._population_hook.install()

    def _uninstall_population_hook(self) -> None:
        """Remove the population hook (population done, or abort)."""
        hook, self._population_hook = self._population_hook, None
        if hook is not None:
            hook.uninstall()

    def _population_step(self, budget: int) -> Tuple[int, bool]:
        """Do up to ``budget`` population units; return (units, finished).

        One unit is one scanned source row; each chunk goes to the
        engine's :meth:`RuleEngine.migrate_rows` in one call, as the
        scan's images (a row's LSN is its initial-image state
        identifier).  The sources are drained in :attr:`source_tables`
        order, each to exhaustion before the next.  Lazy mode is this
        very loop as the background sweeper: its scans skip what the
        miss hook claimed, and the ``step`` budget that throttles eager
        population throttles the drain, so supervisor priority
        escalation applies unchanged.  The trigger mode's reorganizer
        scan is this loop too, beside its triggers.
        """
        assert self.engine is not None
        migrate = self.engine.migrate_rows
        sweeping = self.options.population_mode == "lazy"
        units = 0
        # Blame: while the drain runs, anything held under the transform
        # id is the sweeper's doing, not generic population.
        with self.metrics.blame.role(self.transform_id, ROLE_SWEEPER) \
                if sweeping else nullcontext():
            for name, scan in self._scans.items():
                while units < budget and not scan.exhausted:
                    images = scan.next_chunk(budget - units)
                    migrate(name, images)
                    units += len(images)
                    # Freed before the next chunk is snapshotted: two
                    # alive read 0.51 s against 0.42 s on a 50k-row split.
                    del images
        if sweeping:
            self.stats["lazy_sweep_rows"] += units
            self.metrics.inc("tf.lazy.swept", units)
        return units, all(scan.exhausted for scan in self._scans.values())

    def _populate(self, budget: int) -> Tuple[int, Phase]:
        """The POPULATING row: one population step; a finished population
        writes the first cycle mark and moves to propagation."""
        # N shards each do ``budget`` units on their own core: the
        # operator's population step is offered N x budget and the step
        # is charged the per-shard share.
        shards = self.options.shards
        units, finished = self._population_step(budget * shards)
        self.stats["population_units"] += units
        self.metrics.inc("tf.units." + Phase.POPULATING.value, units)
        if shards > 1:
            units = math.ceil(units / shards)
        if not finished:
            return max(units, 1), Phase.POPULATING
        self.faults.fire(SITE_TF_POPULATE_DONE, transform=self.transform_id)
        self._uninstall_population_hook()
        self._release_population_snapshot()
        self.db.log.append(FuzzyMarkRecord(
            transform_id=self.transform_id, phase="cycle"))
        if self.options.population_mode == "trigger":
            # The triggers applied every source change since the begin
            # mark: propagate from here, and keep only open transactions'
            # locks (the rest end before the cursor).
            self._cursor = self.db.log.end_lsn + 1
            for txn_id in self.locks_held.txn_ids():
                if not self.db.txns.exists(txn_id):
                    self.locks_held.release_txn(txn_id)
        return max(units, 1), Phase.PROPAGATING

    @classmethod
    def rebuild(cls, db: Database, record: TransformSwapRecord
                ) -> Tuple[Dict[str, Table], RuleEngine]:
        """Restart recovery's swap-point rebuild, for every kind.

        At the swap's log position the recovered source tables are
        action-consistent with what was published, so the published
        tables are recomputed by the operator's own population code: an
        instance replayed from the swap record's params, detached
        targets from :meth:`target_tables`, wired and scanned by the
        same :meth:`_wire` / :meth:`_open_scans` preparation and
        population begin use, and the sources fed through
        :meth:`_population_step`.  The instance is never stepped; it
        exists to run that code.  Returns the targets and the engine,
        which recovery keeps feeding post-swap log records.
        """
        tf = cls(db, options=TransformOptions(
            transform_id=record.transform_id), **record.params)
        tf._wire(cls.target_tables(db, tf.spec, detached=True))
        tf._open_scans()
        tf._population_step(sys.maxsize)
        return tf.targets, tf.engine

    # ------------------------------------------------------------------
    # Phase 3: log propagation
    # ------------------------------------------------------------------

    def _begin_iteration(self) -> None:
        self._iteration += 1
        self._iteration_target = self.db.log.end_lsn
        self._iteration_records = 0
        self._iteration_units = 0
        if self.metrics.enabled:
            self.metrics.end_span(self._iter_span)
            self._iter_span = self.metrics.begin_span(
                "tf.iteration", parent=self._phase_span,
                transform=self.transform_id, iteration=self._iteration)

    #: Relative cost of inspecting-and-skipping a log record vs. applying
    #: one through the rules.  Applies dominating skips is what makes the
    #: update-mix effect of the paper's Figure 4(c) emerge: four times more
    #: relevant log records need roughly proportionally more propagation
    #: capacity.
    SKIP_UNIT_COST = 0.25

    #: Most log records fetched and grouped per slice of the tail.  The
    #: step budget caps a slice further, so a budget below it gives
    #: smaller slices of the same loop; grouping never reorders records,
    #: so the slice size only changes how much dispatch is amortized.
    PROPAGATION_SLICE = 32

    def _propagate_batch(self, budget: float) -> float:
        """Propagate records toward the iteration target, spending up to
        ``budget`` cost units; returns the units consumed (an applied
        record costs 1.0, a skipped one :data:`SKIP_UNIT_COST`).

        The one log-tail consumer: the step driver, the synchronization
        executors' final propagation and view maintenance all come
        through here.  The tail is fetched in slices of up to
        :data:`PROPAGATION_SLICE` records (fewer when the budget left is
        smaller), each record is classified once by class identity,
        consecutive (table, rule) runs are applied through the engine's
        batch entry point, and the single cursor moves past the slice.
        Runs never reorder records -- grouping only amortizes dispatch --
        so every step budget converges to the same target state.  Each
        change rides with its owner: the transaction id
        while that transaction is active, ``0`` once it has finished
        (see :meth:`RuleEngine.apply_run`).

        ``options.shards`` changes the *cost model*, not the order of
        work: records are still applied in LSN order on this thread,
        but a routed apply is charged to its key's shard account
        (:meth:`_apply_group`), as if each shard ran on its own core.
        The units spent are then the serial work -- skips, end records,
        markers, applies no single shard owns -- plus the largest
        amount any one shard account was charged in this call.
        """
        self.faults.fire(SITE_TF_PROPAGATE_BATCH,
                         transform=self.transform_id, cursor=self._cursor)
        span = self.metrics.begin_span(
            "tf.batch", parent=self._batch_span_parent(),
            cursor=self._cursor) if self.metrics.enabled else None
        engine = self.engine
        assert engine is not None
        log = self.db.log
        fire = self.faults.fire
        sources = engine.source_tables
        handle_marker = engine.handle_marker
        apply_group = self._apply_group
        on_txn_end = self._on_txn_end
        live = self.db.txns.exists
        slice_size = self.PROPAGATION_SLICE
        skip_cost = self.SKIP_UNIT_COST
        # Engines declare which non-data records handle_marker consumes;
        # an engine that never overrode it consumes none.  None means
        # "unknown override": call it for every marker.
        marker_set = engine.marker_classes
        if marker_set is None and \
                type(engine).handle_marker is RuleEngine.handle_marker:
            marker_set = ()
        if marker_set is not None:
            marker_set = frozenset(marker_set)
        end = min(self._iteration_target, log.end_lsn)
        shard_applied = self._shard_applied
        charged_before = list(shard_applied)
        serial = 0.0
        units = 0.0
        records = 0
        try:
            while units < budget and self._cursor <= end:
                # Cap the slice so a fully-applied one lands within one
                # unit of the budget.
                take = min(slice_size, int(budget - units) + 1)
                hi = min(end, self._cursor + take - 1)
                batch = log.records_slice(self._cursor, hi)
                fire(SITE_TF_PROPAGATE_GROUP, transform=self.transform_id,
                     cursor=self._cursor, n=len(batch))
                self._cursor = hi + 1
                records += len(batch)
                run: List[Tuple[LogRecord, int, int]] = []
                run_table = ""
                run_kind: type = LogRecord
                skips = 0
                for record in batch:
                    # Class-identity dispatch: records are never
                    # subclassed, so `is` comparisons replace isinstance
                    # chains on this hot path.
                    cls = record.__class__
                    if cls is InsertRecord or cls is UpdateRecord \
                            or cls is DeleteRecord:
                        change = record
                    elif cls is CLRecord:
                        change = record.action
                    elif cls is EndRecord:
                        if run:
                            serial += apply_group(run_table, run_kind, run)
                            run = []
                        on_txn_end(record)
                        skips += 1
                        continue
                    else:
                        # Begin/commit/abort records an engine provably
                        # ignores don't break runs; real markers (CC
                        # marks) flush first to keep their ordering vs.
                        # applies.
                        if marker_set is None or cls in marker_set:
                            if run:
                                serial += apply_group(run_table, run_kind,
                                                      run)
                                run = []
                            handle_marker(record)
                        skips += 1
                        continue
                    if change.table in sources:
                        if run and (change.table != run_table
                                    or change.__class__ is not run_kind):
                            serial += apply_group(run_table, run_kind, run)
                            run = []
                        if not run:
                            run_table = change.table
                            run_kind = change.__class__
                        owner = record.txn_id
                        run.append((change, record.lsn,
                                    owner if live(owner) else 0))
                    else:
                        skips += 1
                if run:
                    serial += apply_group(run_table, run_kind, run)
                serial += skips * skip_cost
                units = serial
                if shard_applied:
                    units += max(map(sub, shard_applied, charged_before))
        finally:
            self._iteration_records += records
            self.stats["propagated_records"] += records
            if span is not None:
                span.attrs["records"] = records
                span.attrs["units"] = units
                self.metrics.end_span(span)
        return units

    def _apply_group(self, table_name: str, kind: type,
                     items: List[Tuple[LogRecord, int, int]]) -> float:
        """Apply one consecutive (table, rule) run; returns the *serial*
        units it cost.

        ``items`` holds ``(change, lsn, owner)`` triples in LSN order.
        The touched target records feed the propagated lock table.  With
        one shard account every apply is serial; with several, each
        change the engine routes (:meth:`RuleEngine.shard_route`) is
        charged to its key's account instead and only unrouted changes
        (e.g. FOJ S-side records, which fan out to carrier rows of many
        keys) count as serial.
        """
        assert self.engine is not None
        touched_lists = self.engine.apply_run(table_name, kind, items)
        note = self.locks_held.note
        for (_change, _lsn, owner), touched in zip(items, touched_lists):
            for table, key in touched:
                note(owner, table.uid, key)
        if self.metrics.enabled:
            self.metrics.observe("tf.batch.group_size", len(items))
        shard_applied = self._shard_applied
        if not shard_applied:
            return float(len(items))
        route = self.engine.shard_route
        shard_of = self._planner.shard_of
        unrouted = 0
        for change, _, _ in items:
            key = route(change)
            if key is None:
                unrouted += 1
            else:
                shard_applied[shard_of(key)] += 1
        self._unrouted_applied += unrouted
        return float(unrouted)

    def _on_txn_end(self, record: EndRecord) -> None:
        """Release propagated locks when the end record is met (Section 3.4).

        "Source table locks held in the transformed tables are released as
        soon as the propagator has processed the abort log record of the
        lock owner transaction" -- and likewise for commits with the
        non-blocking commit strategy.
        """
        self.locks_held.release_txn(record.txn_id)
        if record.txn_id in self._old_txn_ids:
            woken = self.db.locks.release_all(proxy_owner(record.txn_id))
            self.db._notify_woken(woken)

    def _remaining(self) -> int:
        return max(0, self.db.log.end_lsn - self._cursor + 1)

    def _propagate(self, budget: int) -> Tuple[int, Phase]:
        """The PROPAGATING row: one propagation batch; the iteration's
        last one runs the analysis (:meth:`_finish_iteration`)."""
        units = self._propagate_batch(budget)
        if units < budget:
            # Leftover budget goes to operator background work, e.g. the
            # split consistency checker (Section 5.3, "run regularly" as
            # part of the low-priority process).
            units += self._background_work(budget - units)
        self._iteration_units += units
        self.metrics.inc("tf.units." + Phase.PROPAGATING.value, units)
        phase = self._finish_iteration() \
            if self._cursor > self._iteration_target else Phase.PROPAGATING
        return max(units, 1), phase

    def _finish_iteration(self) -> Phase:
        """End-of-iteration: write the cycle mark, run the analysis and
        return its verdict as the next phase -- another iteration, or
        synchronization (whose executor is built here)."""
        self.faults.fire(SITE_TF_ITERATION_END, transform=self.transform_id,
                         iteration=self._iteration)
        self.stats["iterations"] += 1
        if self._iteration_records > 0:
            # An idle iteration (nothing propagated) writes no new mark --
            # otherwise a caught-up propagator would fill the log with its
            # own cycle marks.
            mark_lsn = self.db.log.append(FuzzyMarkRecord(
                transform_id=self.transform_id, phase="cycle"))
            # Skip our own mark; everything after it is next cycle's work.
            if self._cursor == mark_lsn:
                self._cursor = mark_lsn + 1
        # Section 3.3's three analyses, as one point of the series: log
        # records produced since the fuzzy mark vs. consumed by the
        # propagator, the remaining tail, and the estimated remaining work.
        # The policy decides from the series; the point keeps the verdict.
        base = self._propagation_base_lsn
        consumed = self.stats["propagated_records"]
        produced = max(0, self.db.log.end_lsn - base) if base != NULL_LSN \
            else consumed
        point = self.convergence.observe_iteration(
            iteration=self._iteration,
            produced=produced,
            consumed=consumed,
            lag=self._remaining(),
            records=self._iteration_records,
            units=self._iteration_units)
        decision = self.policy.decide(self.convergence)
        point.decision = decision.value
        if self.metrics.enabled:
            self.metrics.inc("tf.iterations")
            self.metrics.inc("tf.decision." + decision.value)
            self.metrics.trace("tf.iteration", transform=self.transform_id,
                               **point.as_dict())
            if self._iter_span is not None:
                self.metrics.end_span(self._iter_span)
                self._iter_span = None
        if decision is Decision.SYNCHRONIZE and \
                self._ready_to_synchronize()[0]:
            self.faults.fire(SITE_TF_SYNC_ENTER, transform=self.transform_id,
                             strategy=self.options.sync_strategy.value)
            self._sync()
            return Phase.SYNCHRONIZING
        self._begin_iteration()
        return Phase.PROPAGATING

    # ------------------------------------------------------------------
    # Phase 4: synchronization
    # ------------------------------------------------------------------

    def _sync(self):
        """The synchronization executor, built when the analysis chooses
        synchronization -- or in PREPARED, for a blocking population."""
        if self._sync_executor is None:
            from repro.transform.sync import build_sync_executor
            self._sync_executor = build_sync_executor(self)
        return self._sync_executor

    def _synchronize(self, budget: int) -> Tuple[int, Phase]:
        """The SYNCHRONIZING and BACKGROUND rows: the executor's handover,
        then its post-swap propagation while old transactions live."""
        phase = self.phase
        units, new = self._sync_executor.step(budget)
        self.metrics.inc("tf.units." + phase.value, units)
        return max(units, 1), new

    # ------------------------------------------------------------------
    # The machine
    # ------------------------------------------------------------------

    #: The paper's four steps as one table: ``phase -> (handler, legal
    #: successors)``.  ``handler(self, budget)`` does up to ``budget``
    #: units of its phase's work and returns ``(units, next phase)``, the
    #: phase itself to stay.  0 units -- no budgeted work -- let the step
    #: go on in the next phase (CREATED -> PREPARED -> POPULATING); any
    #: other result ends it.  ABORTED is entered by :meth:`abort` alone.
    MACHINE: Dict[Phase, Tuple[Optional[Callable], Tuple[Phase, ...]]] = {
        Phase.CREATED: (_prepare, (Phase.PREPARED, Phase.ABORTED)),
        Phase.PREPARED: (_begin_population,
                         (Phase.POPULATING, Phase.ABORTED)),
        Phase.POPULATING: (_populate, (Phase.PROPAGATING, Phase.ABORTED)),
        Phase.PROPAGATING: (_propagate,
                            (Phase.SYNCHRONIZING, Phase.ABORTED)),
        Phase.SYNCHRONIZING: (_synchronize, (Phase.BACKGROUND, Phase.DONE,
                                             Phase.ABORTED)),
        Phase.BACKGROUND: (_synchronize, (Phase.DONE,)),
        Phase.DONE: (None, ()),
        Phase.ABORTED: (None, ()),
    }

    def step(self, budget: int = 256) -> StepReport:
        """Perform up to ``budget`` units of work; return a report.

        Runs the current phase's handler from :attr:`MACHINE` and enters
        the phase it returns.  A step never blocks (synchronization
        waits, e.g. blocking commit's drain, return with zero progress
        until the condition clears).
        """
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self._ensure_root_span()
        fault = self.faults.fire(SITE_TF_STEP, transform=self.transform_id,
                                 phase=self.phase.value)
        if isinstance(fault, DelayFault):
            # Starve the background process: this step only gets the
            # delay's (tiny) budget, regardless of what the caller offered.
            budget = min(budget, fault.budget)
        entered = phase = self.phase
        units = 0
        while self.MACHINE[phase][0] is not None:
            units, new = self.MACHINE[phase][0](self, budget)
            self._enter(new)
            if units or new is phase:
                break
            phase = new
        report = StepReport(self.phase, units, self.phase is Phase.DONE)
        if phase is Phase.PROPAGATING:
            latest = self.convergence.latest
            report.stalled = latest is not None and \
                latest.decision == Decision.STALLED.value
            report.info = {"remaining": self._remaining(),
                           "iteration": self._iteration}
        if self.metrics.enabled:
            # Per-phase unit totals ("tf.units.<phase>") are charged by
            # the handlers, next to the work itself -- a single step may
            # cross phase boundaries (prepare + populate), so charging
            # the entry or exit phase would misattribute.
            self.metrics.inc("tf.steps")
            if report.phase is not entered:
                self.metrics.trace("tf.phase", transform=self.transform_id,
                                   frm=entered.value, to=report.phase.value)
        return report

    def check_invariants(self, settled: bool = False) -> List[str]:
        """The stateless invariants, true between any two applied groups,
        as violations (empty when all hold):

        * the propagator's cursor never passes the log's end;
        * a finished transformation keeps no propagated lock.  A published
          view goes on noting the changes of the live writers it
          maintains, so for it this holds only once ``settled``: every
          writer has ended and the view has propagated its end.
        """
        violations: List[str] = []
        end = self.db.log.end_lsn
        if self._cursor > end + 1:
            violations.append(
                f"cursor {self._cursor} is past the log end {end}")
        if self.phase is Phase.DONE and (self.retires or settled) and \
                len(self.locks_held):
            violations.append(
                f"{len(self.locks_held)} propagated locks kept at DONE")
        return violations

    # ------------------------------------------------------------------
    # Completion / abort
    # ------------------------------------------------------------------

    def run(self, max_steps: int = 10_000_000,
            budget: int = 4096) -> None:
        """Drive the transformation to completion (single-threaded use).

        Raises :class:`TransformationStarvedError` if the analysis declares
        a stall (the Section 3.3 starvation decision: abort, then restart
        with a higher priority -- callers like the supervisor key their
        escalation off this subclass), or the plain
        :class:`TransformationAbortedError` when ``max_steps`` is exceeded.
        """
        for _ in range(max_steps):
            report = self.step(budget)
            if report.done:
                return
            if report.stalled:
                self.abort()
                raise TransformationStarvedError(
                    f"{self.transform_id}: propagator cannot keep up; "
                    "abort or raise its priority (Section 3.3)")
        self.abort()
        raise TransformationAbortedError(
            f"{self.transform_id}: exceeded {max_steps} steps")

    def abort(self) -> None:
        """Abort the transformation (Section 6: "Aborting the transformation
        simply means that log propagation is stopped, and that the
        transformed tables are deleted").

        Guaranteed to leave **zero residue**: transient targets dropped,
        source latches released, blocked tables unblocked, the propagated
        lock table cleared, every materialized proxy lock released and any
        installed lock mirror removed -- catalog and lock-manager state
        return to what they were before the transformation started.
        Aborting after the swap (BACKGROUND) is rejected: the transformed
        tables are already published, there is nothing to roll back to.
        """
        if self.phase in (Phase.DONE, Phase.BACKGROUND):
            raise TransformationStateError(
                f"cannot abort a transformation in phase {self.phase.value};"
                " the schema swap is already committed")
        if self.phase is Phase.ABORTED:
            return
        self.faults.fire(SITE_TF_ABORT, transform=self.transform_id,
                         phase=self.phase.value)
        self._uninstall_population_hook()
        self._release_population_snapshot()
        if self._sync_executor is not None:
            # The executor alone latches, blocks and mirrors.
            self._sync_executor.cleanup()
        for table in self.targets.values():
            if self.db.catalog.exists(table.name):
                self.db.drop_table(table.name)
        # Clear the propagated lock table and release every proxy owner
        # the handover materialized (its old transactions').
        self.locks_held = PropagatedLockTable()
        for txn_id in self._old_txn_ids:
            woken = self.db.locks.release_all(proxy_owner(txn_id))
            self.db._notify_woken(woken)
        self.targets = {}
        self._enter(Phase.ABORTED)

    @property
    def done(self) -> bool:
        """Whether the transformation completed successfully."""
        return self.phase is Phase.DONE

    def shard_summary(self) -> List[Dict[str, object]]:
        """Per-shard accounting snapshot (empty for shards=1): routed
        applies and population rows per shard account, closed by one
        ``"unrouted"`` entry for the applies no single shard owns, so
        ``applied`` sums to every record the rules were run on."""
        if not self._shard_applied:
            return []
        summary: List[Dict[str, object]] = [
            {"shard": shard, "applied": applied,
             "population_rows": [scan.rows_per_shard[shard]
                                 for scan in self._scans.values()]}
            for shard, applied in enumerate(self._shard_applied)]
        summary.append({"shard": "unrouted",
                        "applied": self._unrouted_applied,
                        "population_rows": []})
        return summary

    @property
    def sync_urgent(self) -> bool:
        """Whether the synchronization is in its latched critical section
        (the executor's ``urgent``): the simulator's server serves the
        transformation ahead of user work only while this holds -- the
        latch must clear in sub-millisecond time."""
        return self.phase is Phase.SYNCHRONIZING and \
            self._sync_executor.urgent

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.transform_id!r}, "
                f"phase={self.phase.value})")
