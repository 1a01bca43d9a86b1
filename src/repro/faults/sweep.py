"""Crash-at-every-step sweep over the registered injection sites.

The harness runs one workload-carrying scenario of the corpus
(:data:`repro.plan.corpus.CORPUS`: seed rows, a one-step plan and its
:class:`~repro.plan.corpus.Workload` -- interleaved user transactions, a
long-lived "old" transaction, an aborted transaction, post-swap probes)
around the plan's online transformation, built through the plan registry
(:data:`repro.plan.operators.PLAN_OPERATORS`), under one synchronization
strategy.  Nothing here names a table or an operator: every registered
operator has a scenario, and the oracle is the registry's ``reference``
folded over the committed state.  A first
*recording* pass executes the scenario fault-free and counts how often
each registered injection site is crossed.  The sweep then re-runs the
identical scenario once per crossed site with a :class:`CrashFault` armed
mid-scenario, catches the :class:`SimulatedCrashError`, abandons all
volatile state (the simulated kill of Section 6) and reruns ARIES
:func:`~repro.engine.recovery.restart` -- on the log *salvaged from the
simulated disk*, never on the pre-crash in-memory record list.  Every
scenario writes through a :class:`~repro.wal.durable.SimulatedDisk`, so
the crash sweep exercises the real durability boundary: what survives is
exactly the flushed, frame-checksummed prefix.

After every recovery the harness asserts the paper's crash invariants:

* committed-and-flushed user data is preserved -- the oracle derives the
  surviving transaction set from the commit records present in the
  salvaged log (a commit whose record was deferred by a group-commit
  :class:`~repro.wal.log.FlushPolicy` and never flushed may legitimately
  have vanished), sources match that state before the swap, published
  tables match the relational operator applied to it after the swap;
* the salvaged prefix is byte-for-byte identical to re-encoding the
  salvaged records, and a plain crash (no disk fault) never leaves a
  torn or corrupt tail -- staged-but-unsynced bytes simply do not count;
* transient transformation targets are discarded (crash before the
  :class:`~repro.wal.records.TransformSwapRecord` reached the disk) or
  deterministically rebuilt (crash after it), cf. Section 6 "no actions
  performed by the transformation need to be repeated [after the swap]";
* loser transactions -- including transactions doomed by a non-blocking
  synchronization and transactions whose commit record was lost with the
  unflushed tail -- are rolled back to completion;
* no latches, table blocks or propagated proxy locks leak into the
  recovered database: a fresh probe transaction can write to every
  visible table.

The expected catalog is likewise derived from the salvaged log (DDL
replay mirroring recovery's redo pass): a ``CREATE TABLE`` whose record
never reached the disk must not resurface after recovery.

One frozen :class:`RunConfig` describes a run: scenario, strategy,
storage, population mode, shards, step budgets, flush policy and a
generated history (:func:`draw_history`) run ahead of the scripted
workload.  Three producers build it: :func:`parse_label` for the sweep,
:func:`repro.faults.chaos.draw_config` for the seeded chaos soak, and the
hypothesis strategy of ``tests/test_matrix.py``.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import partial
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.common.errors import (
    DuplicateKeyError,
    LockWaitError,
    LogCorruptionError,
    NoSuchRowError,
    SimulatedCrashError,
)
from repro.engine.database import Database, Transaction
from repro.engine.recovery import restart
from repro.faults.injection import (
    CrashFault,
    FaultInjector,
    FaultPlan,
    SITE_REGISTRY,
)
from repro.plan.corpus import (
    BYSTANDER,
    WORKLOAD_SCENARIOS,
    CorpusScenario,
    diff_tables,
)
from repro.plan.operators import PLAN_OPERATORS
from repro.relational.spec import SplitSpec
from repro.storage.schema import TableSchema
from repro.transform.analysis import RemainingRecordsPolicy
from repro.transform.base import Phase, SyncStrategy, Transformation
from repro.transform.foj import FojTransformation
from repro.transform.options import (
    PER_ROW_MODES,
    POPULATION_MODES,
    STORAGE_BACKENDS,
    TransformOptions,
    population_problem,
)
from repro.transform.view import MaterializedFojView
from repro.wal.durable import SimulatedDisk
from repro.wal.frames import SEGMENT_HEADER, encode_frame
from repro.wal.log import (FIRST_LSN, IMMEDIATE_FLUSH, FlushPolicy,
                           LogManager)
from repro.wal.records import (
    BeginRecord,
    CommitRecord,
    CreateTableRecord,
    DropTableRecord,
    EndRecord,
    RenameTableRecord,
    TransformRetireRecord,
    TransformSwapRecord,
)

RowDict = Dict[str, object]

#: Every label the sweep runs: each workload-carrying corpus scenario
#: under the name of the plan operator it exercises, then once per
#: variant suffix its workload lists.  ``name@N`` runs the same scenario
#: with ``shards=N`` (:mod:`repro.shard`), adding the shard-scoped crash
#: site (``shard.plan``) to the sweep's coverage.  ``name:<mode>`` runs
#: it under another population mode: ``:lazy`` interleaves user reads
#: with small sweep steps so the migrate-on-read crash site
#: (``lazy.miss.transform``) is crossed between sweep chunks, ``:trigger``
#: a user write; ``:blocking`` runs under blocking commit only.
#: ``foj:view`` builds the join as a published
#: :class:`~repro.transform.view.MaterializedFojView` that keeps its
#: sources; ``split:rename`` runs the split's rename-based strategy
#: (``materialize_r=False``, blocking commit only).  Population chunks
#: have one site in every mode -- ``tf.populate.chunk``, fired by the
#: one scan -- and the notations compose (``split:lazy@3``).
ALL_OPERATORS: Tuple[str, ...] = tuple(
    operator + suffix
    for operator, scenario in WORKLOAD_SCENARIOS.items()
    for suffix in ("",) + scenario.workload.variants)

#: The paper's three synchronization strategies (Section 3.4) plus the
#: MVCC version flip (snapshot storage, no latched window anywhere).
ALL_STRATEGIES: Tuple[SyncStrategy, ...] = tuple(SyncStrategy)

#: Every legal (strategy, storage) pair: the version flip needs the MVCC
#: backend, the paper's three strategies run on either.
PAIRS: Tuple[Tuple[SyncStrategy, str], ...] = tuple(
    (strategy, storage) for strategy in SyncStrategy
    for storage in STORAGE_BACKENDS
    if storage == "mvcc" or strategy is not SyncStrategy.VERSION_FLIP)

_MAX_STEPS = 3000

#: What a generated transaction does: see :func:`draw_history`.
HISTORY_KINDS = ("insert", "update", "delete", "abort", "read")

#: A generated history: ``(kind, salt)`` per transaction, resolved
#: against the committed state when the run reaches it.
History = Tuple[Tuple[str, int], ...]


def draw_history(rng: random.Random, max_len: int) -> History:
    """Up to ``max_len`` generated transactions, drawn from ``rng``.

    Each entry is a kind of :data:`HISTORY_KINDS` and a salt; the salt
    seeds the choices a run makes when it reaches the entry (table, key,
    values), so the history is plain data -- the same description replays
    the same history -- while every value still comes from the rows
    committed at that moment (see :meth:`ScenarioRun.perform`).
    """
    return tuple((rng.choice(HISTORY_KINDS), rng.randrange(1 << 16))
                 for _ in range(rng.randint(0, max_len)))


@dataclass(frozen=True)
class RunConfig:
    """Everything a :class:`ScenarioRun` varies, as one frozen value.

    Attributes:
        scenario: A workload-carrying, single-step corpus scenario.
        strategy: Synchronization strategy.
        storage: ``"latch"`` or ``"mvcc"`` -- any pair of :data:`PAIRS`.
        population: Any mode the operator and strategy can run
            (:func:`~repro.transform.options.population_problem`).
        view: Build the scenario's join as a published
            :class:`~repro.transform.view.MaterializedFojView` (the
            sources stay), checked after ``refresh()``.
        shards: Shard accounts (:mod:`repro.shard`).
        budgets: Step budgets, used round-robin one per step.
        max_remaining: Synchronize once at most this many log records
            remain (Section 3.3).  At 2 the transformation cannot
            synchronize while user transactions keep arriving; at 64 it
            does after its first propagation pass, and the transactions
            still waiting land in the final, latched propagation (a
            view's: after the publication, see :meth:`ScenarioRun.execute`).
        flush_policy: Group-commit policy of the run's log.
        history: Generated transactions, run ahead of the scripted ones
            (the first before the transformation's first step).
    """

    scenario: CorpusScenario = field(repr=False)
    strategy: SyncStrategy = SyncStrategy.NONBLOCKING_ABORT
    storage: str = "latch"
    population: str = "eager"
    view: bool = False
    shards: int = 1
    budgets: Tuple[int, ...] = (24,)
    max_remaining: int = 2
    flush_policy: FlushPolicy = IMMEDIATE_FLUSH
    history: History = ()

    def __post_init__(self) -> None:
        scenario = self.scenario
        if scenario.workload is None or len(scenario.plan.steps) != 1:
            raise ValueError(
                f"scenario {scenario.name!r} is not sweepable: it needs a "
                "workload and a single-step plan")
        # TransformOptions validates the rest when the run is built.
        operator = PLAN_OPERATORS[scenario.plan.steps[0].operator]
        problem = population_problem(self.population, self.strategy,
                                     operator.supports_lazy)
        if problem is not None:
            raise ValueError(f"operator {operator.name!r}: {problem}")
        if self.view and (operator.transformation is not FojTransformation
                          or self.population != "eager"):
            raise ValueError(
                f"a materialized view is an eager one-to-many join, not "
                f"{operator.name!r} / {self.population!r}")

    @property
    def operator(self) -> str:
        """The plan operator the scenario exercises."""
        return self.scenario.plan.steps[0].operator

    @property
    def label(self) -> str:
        """The sweep label (``operator[:mode|:view|:rename][@N]``)."""
        params = self.scenario.plan.steps[0].params
        mode = "view" if self.view else \
            "rename" if params.get("materialize_r") is False else \
            "" if self.population == "eager" else self.population
        return self.operator + (f":{mode}" if mode else "") + \
            (f"@{self.shards}" if self.shards > 1 else "")


def parse_label(label: str) -> RunConfig:
    """Resolve ``operator[:mode|:view|:rename][@N]`` to a run description
    (``mode`` any non-eager population mode).

    The one place the suffix notation is parsed; :class:`RunConfig`
    rejects a mode the operator cannot run.
    """
    base, at, shards = label.partition("@")
    operator, _, mode = base.partition(":")
    if operator not in WORKLOAD_SCENARIOS \
            or mode not in ("", "view", "rename", *POPULATION_MODES[1:]) \
            or (mode == "rename" and operator != "split") \
            or (at and not shards.isdigit()):
        raise ValueError(
            f"unknown sweep operator {label!r}; available: "
            f"{sorted(WORKLOAD_SCENARIOS)} with an optional ':<mode>' "
            f"{POPULATION_MODES[1:]} / ':view' / 'split:rename' and "
            "'@<shards>' suffix")
    scenario = WORKLOAD_SCENARIOS[operator]
    if mode == "rename":
        step = scenario.plan.steps[0]
        step = replace(step, params={**step.params, "materialize_r": False})
        scenario = replace(scenario, plan=replace(scenario.plan,
                                                  steps=(step,)))
    # Blocking population and the rename-based split run under blocking
    # commit only: that is the strategy they parse to.
    return RunConfig(
        scenario, SyncStrategy.BLOCKING_COMMIT if mode in (
            "blocking", "rename") else SyncStrategy.NONBLOCKING_ABORT,
        population=mode if mode in POPULATION_MODES else "eager",
        view=mode == "view", shards=int(shards or 1))


def sweep_config(label: str, strategy: SyncStrategy) -> Optional[RunConfig]:
    """``label`` under ``strategy`` on the storage the strategy was
    designed on (MVCC for the flip); ``None`` if it cannot run there."""
    config = parse_label(label)
    if config.strategy is SyncStrategy.BLOCKING_COMMIT and \
            strategy is not SyncStrategy.BLOCKING_COMMIT:
        return None
    return replace(config, strategy=strategy,
                   storage="mvcc" if strategy is SyncStrategy.VERSION_FLIP
                   else "latch")


#: Every (label, strategy) pair the sweep runs.
SWEEP_COMBOS: Tuple[Tuple[str, SyncStrategy], ...] = tuple(
    (label, strategy) for label in ALL_OPERATORS
    for strategy in ALL_STRATEGIES
    if sweep_config(label, strategy) is not None)


# ---------------------------------------------------------------------------
# Durability-aware shadow oracle
# ---------------------------------------------------------------------------


class _Shadow:
    """Buffered workload script, resolved against a surviving log.

    Every operation is recorded per transaction and kept forever; nothing
    is applied eagerly.  The committed state is *derived* on demand by
    :meth:`resolve`: a transaction counts iff its commit record is present
    in the given log, and transactions apply in commit-record (LSN) order.
    The same buffered script therefore yields the right answer for the
    fault-free run (every commit is in the log) and for durable salvage
    (a group-commit-deferred commit whose record never reached the disk
    has legitimately vanished, and so has every operation it buffered).
    """

    def __init__(self) -> None:
        self.ops: Dict[int, List[Tuple]] = {}

    def record(self, txn_id: int, op: str, table: str, key: Tuple,
               payload: Optional[RowDict]) -> None:
        """Buffer one ``"i"`` / ``"u"`` / ``"d"`` operation of ``txn_id``
        (``payload``: the inserted values, the changes, ``None``)."""
        self.ops.setdefault(txn_id, []).append(
            (op, table, key, None if payload is None else dict(payload)))

    def resolve(self, log: LogManager) -> Dict[str, Dict[Tuple, RowDict]]:
        """Committed state per table, as the surviving ``log`` defines it.

        The commit sequence is read off the log's commit records -- LSN
        order is commit order.  Because the flushed log is always an LSN
        prefix, a transaction that reads another's writes can only be in
        the salvaged log if its dependency is too.
        """
        tables: Dict[str, Dict[Tuple, RowDict]] = {}
        for record in log.scan():
            if not isinstance(record, CommitRecord):
                continue
            for op, table, key, payload in self.ops.get(record.txn_id, ()):
                rows = tables.setdefault(table, {})
                if op == "i":
                    rows[key] = dict(payload)
                elif op == "u":
                    rows[key].update(payload)
                else:
                    del rows[key]
        return tables


def _visible_tables(log: LogManager) -> Set[str]:
    """Tables recovery will leave visible, by DDL replay of ``log``.

    An independent mirror of :func:`~repro.engine.recovery.restart`'s
    redo: transient creates are discarded, renames follow the transient
    flag, a swap (of a never-retired transformation, by a pre-scan where
    redo retires a view in the stream) retires its sources -- zombies
    are dropped at the end of recovery -- and publishes its targets.
    """
    retired_ids = {record.transform_id for record in log.scan()
                   if isinstance(record, TransformRetireRecord)}
    transient: Set[str] = set()
    visible: Set[str] = set()
    for record in log.scan():
        if isinstance(record, CreateTableRecord):
            if record.transient:
                transient.add(record.schema.name)
            else:
                visible.add(record.schema.name)
        elif isinstance(record, DropTableRecord):
            if record.table in transient:
                transient.discard(record.table)
            else:
                visible.discard(record.table)
        elif isinstance(record, RenameTableRecord):
            if record.old_name in transient:
                transient.discard(record.old_name)
                transient.add(record.new_name)
            else:
                visible.discard(record.old_name)
                visible.add(record.new_name)
        elif isinstance(record, TransformSwapRecord) and \
                record.transform_id not in retired_ids:
            visible.difference_update(record.retired)
            for name in record.published:
                transient.discard(name)
                visible.add(name)
    return visible


def _non_key(schema: TableSchema) -> List[str]:
    return [a for a in schema.attribute_names if a not in schema.primary_key]


def _borrow(rng: random.Random, schema: TableSchema, donors: List[RowDict],
            own: Optional[RowDict], determinant: str,
            together: FrozenSet[str]) -> RowDict:
    """Non-key values taken from a random row of ``donors``: all of them
    for an insert (``own`` is ``None``), a random subset for an update of
    ``own`` -- all of ``together``, the declared dependency, when it takes
    the ``determinant``, so a row moves to the donor's group whole."""
    attrs = _non_key(schema)
    donor = rng.choice(donors)
    picked = set(attrs) if own is None else \
        {a for a in attrs if rng.random() < 0.5} or {rng.choice(attrs)}
    if determinant in picked:
        picked |= together
    return {a: donor[a] for a in attrs if a in picked}


def _declared_dependency(scenario: CorpusScenario
                         ) -> Tuple[str, str, FrozenSet[str]]:
    """The functional dependency ``scenario``'s operator declares -- the
    split's split key -> ``s_attrs`` (Section 5.2) -- as its table, its
    determinant and the attributes that move together; none for the
    other operators."""
    step = scenario.plan.steps[0]
    spec = PLAN_OPERATORS[step.operator].spec(
        {schema.name: schema for schema, _ in scenario.seeds}, step.params)
    if isinstance(spec, SplitSpec):
        return spec.source_name, spec.split_attr, \
            frozenset((spec.split_attr, *spec.s_attrs))
    return "", "", frozenset()


# ---------------------------------------------------------------------------
# The scenario
# ---------------------------------------------------------------------------


class ScenarioRun:
    """One deterministic execution of a :class:`RunConfig`: the one model
    of "a transformation beside a user history".

    The same description runs for the recording pass and for every armed
    pass; an armed :class:`CrashFault` leaves the prefix bit-identical, so
    site crossing counts from the recording pass predict exactly where
    each armed pass dies.  The log writes through a fresh
    :class:`SimulatedDisk` under the description's flush policy.  Given a
    ``metrics`` registry, the run traces every fault firing into its
    ring as a ``fault.fired`` event.
    """

    def __init__(self, config: RunConfig,
                 faults: Optional[FaultInjector] = None,
                 metrics=None) -> None:
        self.config = config
        self.scenario = config.scenario
        self.strategy = config.strategy
        self.options = TransformOptions(
            sync=config.strategy, storage=config.storage,
            shards=config.shards, population_mode=config.population,
            policy=RemainingRecordsPolicy(config.max_remaining, patience=200))
        self.faults = faults if faults is not None else FaultInjector()
        self.disk = SimulatedDisk()
        self.log = LogManager(disk=self.disk,
                              flush_policy=config.flush_policy)
        # An observed run (chaos postmortems, interference probes) passes
        # a Metrics registry; the stock sweep stays on the null registry.
        self.db = Database(log=self.log, metrics=metrics,
                           faults=self.faults)
        if metrics is not None:
            # Traced before the fault acts: a crash never returns.
            self.faults.on_fire = lambda site, hit, kind: metrics.trace(
                "fault.fired", site=site, hit=hit, fault=kind)
        self.shadow = _Shadow()
        #: Writes into published tables, kept apart: an in-place change
        #: publishes under its source's name.
        self.published_shadow = _Shadow()
        self.tf: Optional[Transformation] = None
        #: The long-lived transaction of the workload, once begun.
        self.long_txn: Optional[Transaction] = None
        #: Keys each source table has held, in first-seen order, and the
        #: count of fresh keys handed out (see :meth:`perform`).
        self._keys: Dict[str, List[Tuple]] = {
            schema.name: [schema.key_of(row) for row in rows]
            for schema, rows in config.scenario.seeds}
        self._fresh = 0
        #: The declared dependency the history keeps (see _borrow).
        self._dependency = _declared_dependency(config.scenario)
        #: Breaches of the between-step invariants (see _check_step).
        self.step_violations: List[str] = []
        self._last_cursor = 0
        self._row_lsns: Dict[Tuple[int, int], int] = {}

    # -- committed-state bookkeeping ------------------------------------

    def _apply(self, txn: Transaction, op: Tuple) -> None:
        kind, table_name = op[0], op[1]
        schema = self.db.catalog.get_any(table_name).schema
        tf = self.tf
        # Old transactions keep an in-place source (Catalog.name_at).
        published = tf is not None and table_name in tf.targets \
            and tf.phase in (Phase.BACKGROUND, Phase.DONE) \
            and self.db.catalog.name_at(table_name) not in txn.tables_touched
        shadow = self.published_shadow if published else self.shadow
        if kind == "i":
            payload = schema.normalize(op[2])
            key = schema.key_of(payload)
            self.db.insert(txn, table_name, payload)
        elif kind == "u":
            key, payload = tuple(op[2]), op[3]
            self.db.update(txn, table_name, key, payload)
        elif kind == "d":
            key, payload = tuple(op[2]), None
            self.db.delete(txn, table_name, key)
        elif kind == "r":
            self.db.read(txn, table_name, tuple(op[2]))
            return
        else:  # pragma: no cover - script bug
            raise ValueError(f"unknown op kind {kind!r}")
        shadow.record(txn.txn_id, kind, table_name, key, payload)

    def _txn_do(self, ops: Iterable[Tuple], abort: bool = False,
                tolerant: bool = False) -> None:
        """One user transaction; the shadow counts commits only.

        A ``tolerant`` one -- generated, or scripted for the seeds alone
        but run after a generated history -- aborts on a duplicate key, a
        missing row or a lock held elsewhere (the long transaction), and
        when it would leave the declared dependency broken.
        """
        txn = self.db.begin()
        try:
            for op in ops:
                self._apply(txn, op)
        except (DuplicateKeyError, NoSuchRowError, LockWaitError):
            if not tolerant:
                raise
            abort = True
        if abort or tolerant and self._dependency_broken():
            self.db.abort(txn)
        else:
            self.db.commit(txn)

    def _dependency_broken(self) -> bool:
        """Whether two rows agree on the declared dependency's
        determinant but not on the attributes it determines."""
        table, determinant, together = self._dependency
        image: Dict[object, Tuple] = {}
        return bool(together) and any(
            image.setdefault(row.values[determinant], values) != values
            for row in self.db.table(table).scan()
            for values in [tuple(row.values[a] for a in sorted(together))])

    # -- the script ------------------------------------------------------

    def load(self, scenario: Optional[CorpusScenario] = None) -> None:
        """Create ``scenario``'s (default: the run's) source tables and
        bulk-load its seeds in one user transaction (an armed crash can
        fire inside it)."""
        scenario = scenario or self.scenario
        for schema, _ in scenario.seeds:
            self.db.create_table(schema)
        self._txn_do([("i", schema.name, dict(values))
                      for schema, rows in scenario.seeds
                      for values in rows])

    def _build(self, scenario: CorpusScenario,
               options: TransformOptions) -> Transformation:
        """Build ``scenario``'s transformation; the run's own one is
        checked (:meth:`_check_step`) after every group it applies, too."""
        step = scenario.plan.steps[0]
        operator = PLAN_OPERATORS[step.operator]
        if scenario is not self.scenario:
            return operator.build(self.db, step.params, options)
        if self.config.view:
            operator = replace(operator, transformation=MaterializedFojView)
        tf = operator.build(self.db, step.params, options)
        apply_group = tf._apply_group

        def checked(*group):
            units = apply_group(*group)
            self._check_step(tf)
            return units

        tf._apply_group = checked
        return tf

    # -- the generated history -------------------------------------------

    def perform(self, kind: str, salt: int) -> None:
        """Run one generated transaction (an entry of :func:`draw_history`):
        one to three operations of ``kind``, an ``"abort"`` being updates
        rolled back at the end."""
        self._txn_do(self._generate(kind, random.Random(salt)),
                     abort=kind == "abort", tolerant=True)

    def _generate(self, kind: str, rng: random.Random) -> Iterator[Tuple]:
        """The operations of one generated transaction, each built from
        the state the previous one left.

        Each picks a source table and a key -- one the table has held
        (seeded, committed, deleted) or a fresh one, unique across every
        table so that merged sources stay disjoint -- and, for writes,
        values borrowed from rows in that table right now: an insert
        copies one row's non-key values, an update takes some of another
        row's.  Borrowing keeps every value legal for its column (join
        values, predicate verdicts, lists, NULLs); the declared
        dependency holds at every commit -- a row changes group whole,
        and a group's dependent value changes on all its rows at once.
        """
        for _ in range(rng.randint(1, 3)):
            schema = rng.choice(self.scenario.seeds)[0]
            name = schema.name
            rows = [dict(row.values) for row in self.db.table(name).scan()]
            known = self._keys[name]
            known.extend(key for key in map(schema.key_of, rows)
                         if key not in known)
            if rng.random() < (0.6 if kind == "insert" else 0.1):
                self._fresh += 1
                key = tuple(1000 + self._fresh if isinstance(part, int)
                            else f"k{self._fresh}" for part in known[0])
                known.append(key)
            else:
                key = rng.choice(known)
            if kind in ("read", "delete"):
                yield kind[0], name, key
                continue
            own = next((r for r in rows if schema.key_of(r) == key), None)
            donors = [r for r in rows if r is not own] or \
                [dict(r) for s, seed in self.scenario.seeds
                 if s is schema for r in seed]
            table, determinant, together = self._dependency
            if name != table:
                determinant, together = "", frozenset()
            values = _borrow(rng, schema, donors,
                             None if kind == "insert" else own,
                             determinant, together)
            if kind == "insert":
                values.update(zip(schema.primary_key, key))
                yield "i", name, values
                continue
            yield "u", name, key, values
            rewritten = {a: v for a, v in values.items() if a in together}
            if own is not None and rewritten and determinant not in values:
                # A dependent value rewritten in place: every other row of
                # the group follows in the same transaction (Section 5.2).
                for row in rows:
                    if row is not own and \
                            row[determinant] == own[determinant]:
                        yield "u", name, schema.key_of(row), rewritten

    def _check_step(self, tf: Transformation) -> None:
        """Invariants after every step and every applied group:
        :meth:`Transformation.check_invariants`, and two with a history
        -- the propagator's cursor never moves back, and neither does the
        state identifier (LSN) of a target row, what the LSN guards of
        Section 5's rules promise.  A breach is kept for
        :func:`check_completed`.  An armed pass repeats its fault-free
        recording up to the crash, so only fault-free runs check."""
        if self.faults.plan.armed:
            return
        self.step_violations.extend(tf.check_invariants())
        if tf._cursor < self._last_cursor:
            self.step_violations.append(
                f"cursor moved back: {self._last_cursor} -> {tf._cursor}")
        self._last_cursor = tf._cursor
        for table in tf.targets.values():
            for rowid, lsn in table.lsns.items():
                seen = self._row_lsns.setdefault((table.uid, rowid), lsn)
                if lsn < seen:
                    self.step_violations.append(
                        f"{table.name} row {dict(table.rows[rowid])}: LSN "
                        f"{seen} -> {lsn}")
                self._row_lsns[table.uid, rowid] = lsn

    def _abort_episode(self) -> None:
        """Start a throwaway transformation, then abort it.

        Crosses ``tf.abort`` and the zero-residue cleanup behind it
        (target drops, unlatching, proxy-lock release), so the crash
        matrix also proves an *aborted* transformation is recoverable:
        a kill inside the cleanup must restore exactly the committed
        source state, with the transient target discarded.  The
        throwaway is the first step of the corpus's bystander scenario.
        """
        self.load(BYSTANDER)
        throwaway = self._build(BYSTANDER, TransformOptions(
            sync=self.strategy, storage=self.options.storage))
        throwaway.step(1)
        throwaway.abort()

    # -- driving ---------------------------------------------------------

    def execute(self, until: Optional[Callable[["ScenarioRun"], bool]]
                = None) -> None:
        """Run the full scenario; raises :class:`SimulatedCrashError`
        when an armed crash fault fires.

        One transaction of the generated history, then of the script,
        runs after every step while the transformation populates and
        propagates; those still waiting when synchronization starts all
        run before its first step, a backlog for the final propagation
        under the latch -- or, for a view, after its publication, beside
        budgeted maintenance.  ``until`` parks the run mid-transformation: it
        is asked after every step once both are used up, and a true
        answer returns there (the long transaction still open, no probes)
        -- e.g. under a policy that never synchronizes, "caught up in
        PROPAGATING".
        """
        workload = self.scenario.workload
        self.load()
        self.tf = self._build(self.scenario, self.options)
        self._abort_episode()
        mutations = [partial(self.perform, *entry)
                     for entry in self.config.history]
        mutations += [partial(self._txn_do, *txn, tolerant=bool(mutations))
                      for txn in workload.script]
        budgets = self.config.budgets

        # The long-lived transaction the synchronization strategies
        # disagree about: drained (blocking commit), doomed (non-blocking
        # abort) or carried across the swap (non-blocking commit).
        l_txn = self.long_txn = self.db.begin()
        self._apply(l_txn, workload.long_op)
        if self.config.history:
            # The history starts inside the window the propagator replays
            # from -- L's first write, before the begin mark -- so the
            # fuzzy copy already reflects records that are replayed: the
            # LSN guards of Section 5 at work.
            mutations.pop(0)()

        population = self.options.population_mode
        if population in PER_ROW_MODES:
            # One deliberately tiny first step keeps POPULATING open
            # (the step driver multiplies the budget by the shard count,
            # so even budget 1 sweeps a few rows): interleaved reads then
            # hit not-yet-migrated source records, crossing the
            # migrate-on-read crash sites, and a write fires the triggers.
            self.tf.step(1)
            if population == "lazy":
                txn = self.db.begin()
                for table_name, key in workload.lazy_reads:
                    self.db.read(txn, table_name, key)
                self.db.commit(txn)
            elif mutations:
                mutations.pop(0)()
        # Blocked from the first step to the swap: all runs before it.
        while population == "blocking" and mutations:
            mutations.pop(0)()

        l_active = True
        for i in range(_MAX_STEPS):
            report = self.tf.step(budgets[i % len(budgets)])
            self._check_step(self.tf)
            if l_active and (l_txn.doomed or l_txn.is_finished):
                # Non-blocking abort doomed and rolled back L.
                l_active = False
            if report.done:
                break
            if mutations and self.tf.phase in (Phase.POPULATING,
                                               Phase.PROPAGATING):
                mutations.pop(0)()
            elif mutations and self.tf.phase is Phase.SYNCHRONIZING \
                    and not self.config.view:
                while mutations:
                    mutations.pop(0)()
            elif until is not None and not mutations and until(self):
                return
            if l_active and self.strategy is SyncStrategy.BLOCKING_COMMIT \
                    and self.tf.phase in (Phase.PREPARED,
                                          Phase.SYNCHRONIZING):
                # Let the drain finish (before a blocking population, or
                # in the synchronization): commit L.
                self.db.commit(l_txn)
                l_active = False
            if l_active and self.strategy in (
                    SyncStrategy.NONBLOCKING_COMMIT,
                    SyncStrategy.VERSION_FLIP) \
                    and self.tf.phase is Phase.BACKGROUND:
                # L lives on as an old transaction: one more write through
                # the zombie namespace (non-blocking commit) or its pinned
                # pre-flip epoch (version flip), then commit (ends the
                # mirror).
                self._apply(l_txn, workload.long_post_swap_op)
                self.db.commit(l_txn)
                l_active = False
        else:
            raise AssertionError(
                f"scenario did not finish within {_MAX_STEPS} steps "
                f"({self.scenario.name}/{self.strategy.value}, "
                f"phase {self.tf.phase.value})")
        if self.config.view:
            # A published view is maintained after the fact: what still
            # waits commits beside budgeted maintenance.
            for i, mutation in enumerate(mutations):
                mutation()
                self.tf.maintain(budgets[i % len(budgets)])
        if l_active:
            # A view retires nothing, so L is nobody's old transaction: it
            # simply writes its sources again and commits.
            self._apply(l_txn, workload.long_post_swap_op)
            self.db.commit(l_txn)

        # Post-swap probes: plain user transactions against the published
        # schema (their redo must land in recovery's rebuilt tables).
        for probe in workload.probes:
            self._txn_do([probe])
        if self.config.view:
            self.tf.refresh()

    # -- expectations ----------------------------------------------------

    def expected_tables(self, log: LogManager) -> Dict[str, List[RowDict]]:
        """State the database must show, derived from the surviving log.

        The committed transaction set, the visible catalog and the swap
        point all come from ``log`` -- for a fault-free run that is the
        full log, after a crash it is the salvaged flushed prefix.
        Before the swap the expectation is simply the resolved sources;
        after it, the plan's reference oracle folded over the resolved
        sources plus any rows committed directly into the published
        tables (probes).
        """
        state = self.shadow.resolve(log)
        direct = self.published_shadow.resolve(log)

        def rows(name: str, state=state) -> List[RowDict]:
            return [dict(v) for v in state.get(name, {}).values()]

        visible = _visible_tables(log)
        swapped = any(isinstance(r, TransformSwapRecord)
                      for r in log.scan())
        published = self.scenario.fold(
            {schema.name: rows(schema.name)
             for schema, _ in self.scenario.seeds}) if swapped else {}
        return {name: published.get(name, rows(name)) + rows(name, direct)
                for name in visible}


# ---------------------------------------------------------------------------
# Invariant checks
# ---------------------------------------------------------------------------


def _check_data(run: ScenarioRun, db: Database, log: LogManager,
                violations: List[str]) -> None:
    expected = run.expected_tables(log)
    names = sorted(db.catalog.table_names())
    if names != sorted(expected):
        violations.append(
            f"catalog mismatch: visible tables {names} != "
            f"expected {sorted(expected)}")
        return
    violations.extend(diff_tables(db, expected))


def _check_engine(db: Database, violations: List[str]) -> None:
    """The side tables hold only what is still alive: the transaction
    table lists unfinished transactions only, and every lock-table entry
    belongs to one of them, natively or through its proxy owner."""
    finished = [t.txn_id for t in db.txns.active_txns() if t.is_finished]
    if finished:
        violations.append(
            f"finished transactions listed as active: {finished}")
    stale = sorted({(request.txn_id, repr(resource))
                    for resource, state in db.locks._resources.items()
                    for request in (*state.granted, *(state.waiting or ()))
                    if not db.txns.exists(abs(request.txn_id))})
    if stale:
        violations.append(f"locks of finished transactions: {stale}")


def _probe_writes(db: Database, violations: List[str]) -> None:
    """A fresh transaction must be able to write every visible table
    (no leaked latch, block or proxy lock) and roll back cleanly."""
    for salt, name in enumerate(sorted(db.catalog.table_names())):
        schema = db.catalog.get(name).schema
        values = {attr: 990000 + salt * 100 + i
                  for i, attr in enumerate(schema.attribute_names)}
        txn = db.begin()
        try:
            db.insert(txn, name, values)
            db.abort(txn)
        except Exception as exc:
            violations.append(
                f"probe write into recovered table {name!r} failed: "
                f"{exc!r}")
            if not txn.is_finished:
                try:
                    db.abort(txn)
                except Exception:
                    pass


def check_byte_identity(run: ScenarioRun, log: LogManager) -> List[str]:
    """Re-encoding the salvaged records must reproduce the surviving
    bytes exactly (the flushed prefix survives byte-for-byte)."""
    salvage = log.salvage
    reencoded = SEGMENT_HEADER + b"".join(
        encode_frame(record)
        for record in log.scan(FIRST_LSN, salvage.count))
    surviving = run.disk.crash_image()[:salvage.byte_length]
    if reencoded != surviving:
        return ["salvaged prefix is not byte-identical under re-encode "
                f"({len(surviving)} bytes on disk, "
                f"{len(reencoded)} re-encoded)"]
    return []


def check_salvage(run: ScenarioRun, log: LogManager) -> List[str]:
    """Durability invariants of a salvage performed without disk faults.

    A plain process kill must leave a clean, frame-aligned prefix --
    staged-but-unsynced bytes are simply absent, never torn -- and the
    prefix must pass :func:`check_byte_identity`.
    """
    salvage = log.salvage
    if salvage is None:
        return ["recovered log has no salvage report"]
    violations: List[str] = []
    if salvage.torn or salvage.tail_corrupt or salvage.dropped_bytes:
        violations.append(
            f"clean crash left a damaged log: {salvage.describe()}")
    return violations + check_byte_identity(run, log)


def check_recovered(run: ScenarioRun, recovered: Database,
                    log: LogManager) -> List[str]:
    """All crash invariants on a freshly recovered database.

    ``log`` is the recovered database's log -- the salvaged flushed
    prefix plus whatever recovery itself appended (CLRs, end records).
    Every expectation is derived from it, never from the pre-crash
    in-memory state.
    """
    violations: List[str] = []
    begun = {r.txn_id for r in log.scan() if isinstance(r, BeginRecord)}
    ended = {r.txn_id for r in log.scan() if isinstance(r, EndRecord)}
    unfinished = sorted(begun - ended)
    if unfinished:
        violations.append(
            f"transactions {unfinished} have no end record after "
            "recovery (losers not rolled back)")
    if recovered.txns.active_txns():
        violations.append("active transactions survived recovery")
    if recovered.locks._latches:
        violations.append(
            f"latches leaked into recovery: {recovered.locks._latches}")
    blocked = [n for n in recovered.catalog.table_names()
               if recovered.catalog.is_blocked(n)]
    if blocked:
        violations.append(f"tables still blocked after recovery: {blocked}")
    if recovered.catalog.zombie_names():
        violations.append(
            f"zombie tables survived recovery: "
            f"{recovered.catalog.zombie_names()}")
    _check_engine(recovered, violations)

    _check_data(run, recovered, log, violations)
    _probe_writes(recovered, violations)
    if not violations:
        # The probe transactions rolled back; state must be unchanged.
        _check_data(run, recovered, log, violations)
    return violations


def check_completed(run: ScenarioRun) -> List[str]:
    """The model's verdict on a fault-free scenario execution: published
    tables equal the reference folded over the committed sources, and
    the engine and transformation invariants hold."""
    violations: List[str] = []
    db = run.db
    if db.txns.active_txns():
        violations.append(
            f"scenario left active transactions: "
            f"{sorted(t.txn_id for t in db.txns.active_txns())}")
    if db.locks._latches:
        violations.append(f"latches leaked: {db.locks._latches}")
    _check_engine(db, violations)
    violations.extend(run.step_violations)
    if run.tf is not None:
        # After the run every writer has ended and a view has been
        # refreshed, so a view too must keep no propagated lock.
        violations.extend(run.tf.check_invariants(settled=True))
    run.log.drain_flushes()
    if run.log.flushed_lsn != run.log.end_lsn:
        violations.append(
            f"drain left unflushed tail: flushed {run.log.flushed_lsn} "
            f"< end {run.log.end_lsn}")
    _check_data(run, db, run.log, violations)
    return violations


# ---------------------------------------------------------------------------
# The sweep
# ---------------------------------------------------------------------------


def policy_name(policy: Optional[FlushPolicy]) -> str:
    if policy is None or policy.immediate:
        return "immediate"
    return (f"group({policy.max_pending_requests},"
            f"{policy.max_pending_records})")


def recording_pass(config: RunConfig
                   ) -> Tuple[Callable[..., ScenarioRun], Dict[str, int],
                              List[str]]:
    """The prologue of every crash experiment on one configuration.

    Runs the scenario fault-free and returns ``(make_run, hits,
    baseline)``: a factory for further runs of the identical
    configuration (``make_run(faults, metrics=None)``), how often the
    recording crossed each injection site, and the violations of the
    fault-free baseline check (empty unless the scenario itself is
    broken).
    """
    make_run = partial(ScenarioRun, config)
    recording = make_run(FaultInjector(FaultPlan()))
    recording.execute()
    # Snapshot before the baseline check: its drain crosses flush/disk
    # sites one more time, and those post-scenario crossings are not
    # reachable by an armed pass (it crashes or completes, never drains).
    hits = dict(recording.faults.hits)
    return make_run, hits, check_completed(recording)


def sweep(config: RunConfig) -> Dict[str, object]:
    """Crash at every crossed injection site for one configuration.

    Returns a JSON-able report: the sites the recording pass crossed (in
    first-crossing order), and per site its outcome (``ok`` /
    ``violation`` / ``error`` / ``not_hit``) and crossing count.
    Each armed pass crashes at the *middle* crossing of its site, placing
    the kill inside the interesting part of the scenario rather than at
    the very first crossing (often the bulk load).  Recovery always goes
    through the disk: the log is salvaged from the crash image, so only
    the flushed prefix survives -- under a coalescing ``flush_policy``
    that legitimately excludes deferred commits.
    """
    make_run, hits, baseline = recording_pass(config)
    if baseline:
        raise AssertionError(
            f"fault-free scenario {config} is broken: "
            + "; ".join(baseline))

    sites: List[Dict[str, object]] = []
    for site in sorted(hits):
        count = hits[site]
        hit_at = (count + 1) // 2
        run = make_run(FaultInjector(
            FaultPlan().arm(site, CrashFault(), hit=hit_at)))
        entry: Dict[str, object] = {
            "site": site,
            "layer": SITE_REGISTRY[site][0],
            "hits": count,
            "crash_at_hit": hit_at,
        }
        try:
            run.execute()
            entry["outcome"] = "not_hit"
            entry["detail"] = ["armed crash fault never fired"]
        except SimulatedCrashError:
            try:
                salvaged = LogManager.from_disk(run.disk)
            except LogCorruptionError as exc:
                # No disk fault was armed: corruption means the write
                # path itself produced bad bytes.
                entry["outcome"] = "violation"
                entry["detail"] = [f"salvage quarantined a clean-crash "
                                   f"log: {exc}"]
                sites.append(entry)
                continue
            problems = check_salvage(run, salvaged)
            recovered = restart(salvaged)
            problems += check_recovered(run, recovered, salvaged)
            entry["outcome"] = "ok" if not problems else "violation"
            entry["detail"] = problems
        except Exception as exc:  # noqa: BLE001 - report, don't die
            entry["outcome"] = "error"
            entry["detail"] = [repr(exc)]
        sites.append(entry)

    bad = [s for s in sites if s["outcome"] != "ok"]
    return {
        "operator": config.label,
        "strategy": config.strategy.value,
        "storage": config.storage,
        "flush_policy": policy_name(config.flush_policy),
        "crossed": list(hits),  # in first-crossing order
        "sites": sites,
        "site_count": len(sites),
        "violations": len(bad),
    }


def run_sweep() -> Dict[str, object]:
    """Full sweep: every combo of :data:`SWEEP_COMBOS` x crossed site.

    The summary reports per-layer coverage as registered-vs-fired
    counts and lists every registered site the whole sweep never
    crossed (``never_fired``) -- a site that exists but cannot be
    reached is dead crash-test surface and should fail loudly in the
    benchmark harness.
    """
    combos = [sweep(sweep_config(label, strategy))
              for label, strategy in SWEEP_COMBOS]
    covered = sorted({s["site"] for c in combos for s in c["sites"]})
    layers = Counter(SITE_REGISTRY[site][0] for site in covered)
    registered = Counter(layer for layer, _ in SITE_REGISTRY.values())
    return {
        "combos": combos,
        "summary": {
            "registered_sites": len(SITE_REGISTRY),
            "covered_sites": len(covered),
            "covered": covered,
            "never_fired": sorted(set(SITE_REGISTRY) - set(covered)),
            "layers": dict(layers),
            "layer_coverage": {
                layer: {"registered": registered[layer],
                        "covered": layers[layer]}
                for layer in sorted(registered)},
            "crash_runs": sum(c["site_count"] for c in combos),
            "violations": sum(c["violations"] for c in combos),
        },
    }
