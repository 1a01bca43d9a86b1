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

``workload_seed`` appends seeded random mutations to the scripted
workload, so harnesses (the chaos layer, the soak benchmark) can sweep
randomized workloads that are still perfectly reproducible from the seed.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.common.errors import LogCorruptionError, SimulatedCrashError
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
    Txn,
    diff_tables,
)
from repro.plan.operators import PLAN_OPERATORS
from repro.transform.analysis import RemainingRecordsPolicy
from repro.transform.base import Phase, SyncStrategy, Transformation
from repro.transform.options import TransformOptions
from repro.wal.durable import SimulatedDisk
from repro.wal.frames import SEGMENT_HEADER, encode_frame
from repro.wal.log import IMMEDIATE_FLUSH, FlushPolicy, LogManager
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
#: site (``shard.plan``) to the sweep's coverage.  ``name:lazy`` runs it
#: with access-triggered population (``population_mode="lazy"``),
#: interleaving user reads with small sweep steps so the migrate-on-read
#: crash site (``lazy.miss.transform``) is crossed between sweep chunks.
#: Population chunks have one site in every mode -- ``tf.populate.chunk``,
#: fired by the one scan -- and the two notations compose
#: (``split:lazy@3``).
ALL_OPERATORS: Tuple[str, ...] = tuple(
    operator + suffix
    for operator, scenario in WORKLOAD_SCENARIOS.items()
    for suffix in ("",) + scenario.workload.variants)

#: The paper's three synchronization strategies (Section 3.4) plus the
#: MVCC version flip (snapshot storage, no latched window anywhere).
ALL_STRATEGIES: Tuple[SyncStrategy, ...] = tuple(SyncStrategy)

_STEP_BUDGET = 24
_MAX_STEPS = 3000


def parse_label(label: str) -> Tuple[CorpusScenario, Dict[str, object]]:
    """Resolve ``operator[:lazy][@N]`` to a scenario and option overrides.

    The one place the suffix notation is parsed; ``:lazy`` is accepted
    iff the registry says the operator ``supports_lazy``.
    """
    base, at, shards = label.partition("@")
    operator, _, mode = base.partition(":")
    if operator not in WORKLOAD_SCENARIOS or mode not in ("", "lazy") \
            or (at and not shards.isdigit()):
        raise ValueError(
            f"unknown sweep operator {label!r}; available: "
            f"{sorted(WORKLOAD_SCENARIOS)} with an optional ':lazy' "
            "and '@<shards>' suffix")
    if mode and not PLAN_OPERATORS[operator].supports_lazy:
        raise ValueError(
            f"operator {operator!r} is eager-only; {label!r} cannot "
            "run with lazy population")
    overrides: Dict[str, object] = {}
    if mode:
        overrides["population_mode"] = mode
    if at:
        overrides["shards"] = int(shards)
    return WORKLOAD_SCENARIOS[operator], overrides


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

    Mirrors the redo pass of :func:`~repro.engine.recovery.restart`:
    transient creates are discarded, renames follow the transient flag,
    a swap (of a never-retired transformation) retires its sources --
    zombies are dropped at the end of recovery -- and publishes its
    targets.
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


# ---------------------------------------------------------------------------
# The scenario
# ---------------------------------------------------------------------------


class ScenarioRun:
    """One deterministic execution of a corpus scenario's workload.

    The same script runs for the recording pass and for every armed pass;
    an armed :class:`CrashFault` leaves the prefix bit-identical, so site
    crossing counts from the recording pass predict exactly where each
    armed pass dies.  ``overrides`` are :class:`TransformOptions` fields
    laid over the run's own (what a label's ``:lazy`` / ``@N`` suffix
    parses to, see :func:`parse_label`).  The log writes through a fresh
    :class:`SimulatedDisk` under ``flush_policy`` (immediate by default);
    ``workload_seed`` appends seeded random mutations to the script.
    """

    def __init__(self, scenario: CorpusScenario, strategy: SyncStrategy,
                 overrides: Optional[Dict[str, object]] = None,
                 faults: Optional[FaultInjector] = None,
                 flush_policy: Optional[FlushPolicy] = None,
                 workload_seed: Optional[int] = None,
                 metrics=None) -> None:
        if scenario.workload is None or len(scenario.plan.steps) != 1:
            raise ValueError(
                f"scenario {scenario.name!r} is not sweepable: it needs a "
                "workload and a single-step plan")
        self.scenario = scenario
        self.strategy = strategy
        # Version flip needs the MVCC backend; the rest run the paper's.
        storage = "mvcc" if strategy is SyncStrategy.VERSION_FLIP \
            else "latch"
        self.options = TransformOptions(
            sync=strategy, storage=storage,
            policy=RemainingRecordsPolicy(max_remaining=2, patience=200)
        ).evolve(**(overrides or {}))
        self.workload_seed = workload_seed
        self.faults = faults if faults is not None else FaultInjector()
        self.disk = SimulatedDisk()
        self.log = LogManager(
            disk=self.disk, flush_policy=flush_policy
            if flush_policy is not None else IMMEDIATE_FLUSH)
        # An observed run (chaos postmortems, interference probes) passes
        # a Metrics registry; the stock sweep stays on the null registry.
        self.db = Database(log=self.log, metrics=metrics,
                           faults=self.faults)
        self.shadow = _Shadow()
        #: Writes into published tables, kept apart: an in-place change
        #: publishes under its source's name.
        self.published_shadow = _Shadow()
        self.tf: Optional[Transformation] = None

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
        else:  # pragma: no cover - script bug
            raise ValueError(f"unknown op kind {kind!r}")
        shadow.record(txn.txn_id, kind, table_name, key, payload)

    def _txn_do(self, ops: Sequence[Tuple], abort: bool = False) -> None:
        txn = self.db.begin()
        for op in ops:
            self._apply(txn, op)
        if abort:
            self.db.abort(txn)
        else:
            self.db.commit(txn)

    # -- the script ------------------------------------------------------

    def _load(self, scenario: CorpusScenario) -> None:
        """Create ``scenario``'s source tables and bulk-load its seeds in
        one user transaction (an armed crash can fire inside it)."""
        for schema, _ in scenario.seeds:
            self.db.create_table(schema)
        self._txn_do([("i", schema.name, dict(values))
                      for schema, rows in scenario.seeds
                      for values in rows])

    def _build(self, scenario: CorpusScenario,
               options: TransformOptions) -> Transformation:
        step = scenario.plan.steps[0]
        return PLAN_OPERATORS[step.operator].build(
            self.db, step.params, options)

    def _random_mutations(self) -> List[Txn]:
        """Seeded extra transactions appended to the scripted workload.

        Inserts use a key range (100+) disjoint from the script; updates
        rewrite the workload's scratch attribute on
        :meth:`~repro.plan.corpus.CorpusScenario.safe_keys`; deletes only
        remove rows this generator itself committed.
        """
        if self.workload_seed is None:
            return []
        rng = random.Random(self.workload_seed)
        workload = self.scenario.workload
        table, scratch_attr = workload.scratch
        safe_keys = self.scenario.safe_keys()
        key_of = self.db.catalog.get_any(table).schema.key_of
        mutations: List[Txn] = []
        own_keys: List[Tuple] = []
        for i in range(rng.randint(2, 6)):
            choice = rng.random()
            abort = False
            if choice < 0.45 or not own_keys:
                row = workload.fresh_row(rng, i)
                abort = rng.random() < 0.2
                if not abort:
                    own_keys.append(key_of(row))
                op = ("i", table, row)
            elif choice < 0.8:
                op = ("u", table, rng.choice(safe_keys),
                      {scratch_attr: f"z{i}"})
            else:
                op = ("d", table, own_keys.pop(0))
            mutations.append(((op,), abort))
        return mutations

    def _abort_episode(self) -> None:
        """Start a throwaway transformation, then abort it.

        Crosses ``tf.abort`` and the zero-residue cleanup behind it
        (target drops, unlatching, proxy-lock release), so the crash
        matrix also proves an *aborted* transformation is recoverable:
        a kill inside the cleanup must restore exactly the committed
        source state, with the transient target discarded.  The
        throwaway is the first step of the corpus's bystander scenario.
        """
        self._load(BYSTANDER)
        throwaway = self._build(BYSTANDER, TransformOptions(
            sync=self.strategy, storage=self.options.storage))
        throwaway.step(1)
        throwaway.abort()

    # -- driving ---------------------------------------------------------

    def execute(self, until: Optional[Callable[["ScenarioRun"], bool]]
                = None) -> None:
        """Run the full scenario; raises :class:`SimulatedCrashError`
        when an armed crash fault fires.

        ``until`` parks the run mid-transformation: it is asked after
        every step once the mutation script is used up, and a true
        answer returns there (the long transaction still open, no
        probes) -- e.g. under a policy that never synchronizes, "caught
        up in PROPAGATING".
        """
        workload = self.scenario.workload
        self._load(self.scenario)
        self.tf = self._build(self.scenario, self.options)
        self._abort_episode()
        mutations = list(workload.script) + self._random_mutations()

        # The long-lived transaction the synchronization strategies
        # disagree about: drained (blocking commit), doomed (non-blocking
        # abort) or carried across the swap (non-blocking commit).
        l_txn = self.db.begin()
        self._apply(l_txn, workload.long_op)

        if self.options.population_mode == "lazy":
            # One deliberately tiny first step keeps POPULATING open
            # (the step driver multiplies the budget by the shard count,
            # so even budget 1 sweeps a few rows), and the interleaved
            # reads then hit not-yet-migrated source records, crossing
            # the migrate-on-read crash sites.
            self.tf.step(1)
            txn = self.db.begin()
            for table_name, key in workload.lazy_reads:
                self.db.read(txn, table_name, key)
            self.db.commit(txn)

        l_active = True
        for _ in range(_MAX_STEPS):
            report = self.tf.step(_STEP_BUDGET)
            if l_active and (l_txn.doomed or l_txn.is_finished):
                # Non-blocking abort doomed and rolled back L.
                l_active = False
            if report.done:
                break
            if mutations and self.tf.phase in (Phase.POPULATING,
                                               Phase.PROPAGATING):
                self._txn_do(*mutations.pop(0))
            elif until is not None and not mutations and until(self):
                return
            if l_active and self.strategy is SyncStrategy.BLOCKING_COMMIT \
                    and self.tf.phase is Phase.SYNCHRONIZING:
                # Let the drain finish: commit L.
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

        # Post-swap probes: plain user transactions against the published
        # schema (their redo must land in recovery's rebuilt tables).
        for probe in workload.probes:
            self._txn_do([probe])

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
        encode_frame(record) for record in salvage.records)
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

    _check_data(run, recovered, log, violations)
    _probe_writes(recovered, violations)
    if not violations:
        # The probe transactions rolled back; state must be unchanged.
        _check_data(run, recovered, log, violations)
    return violations


def check_completed(run: ScenarioRun) -> List[str]:
    """Sanity checks on a fault-free (recording) scenario execution."""
    violations: List[str] = []
    db = run.db
    if db.txns.active_txns():
        violations.append(
            f"scenario left active transactions: "
            f"{sorted(t.txn_id for t in db.txns.active_txns())}")
    if db.locks._latches:
        violations.append(f"latches leaked: {db.locks._latches}")
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


def recording_pass(label: str, strategy: SyncStrategy,
                   flush_policy: Optional[FlushPolicy] = None,
                   workload_seed: Optional[int] = None
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
    scenario, overrides = parse_label(label)
    make_run = partial(ScenarioRun, scenario, strategy, overrides,
                       flush_policy=flush_policy,
                       workload_seed=workload_seed)
    recording = make_run(FaultInjector(FaultPlan()))
    recording.execute()
    # Snapshot before the baseline check: its drain crosses flush/disk
    # sites one more time, and those post-scenario crossings are not
    # reachable by an armed pass (it crashes or completes, never drains).
    hits = dict(recording.faults.hits)
    return make_run, hits, check_completed(recording)


def sweep(operator: str, strategy: SyncStrategy,
          flush_policy: Optional[FlushPolicy] = None,
          workload_seed: Optional[int] = None) -> Dict[str, object]:
    """Crash at every crossed injection site for one scenario.

    ``operator`` is a label of :data:`ALL_OPERATORS`.  Returns a
    JSON-able report: the sites the recording pass crossed (in
    first-crossing order), and per site its outcome (``ok`` /
    ``violation`` / ``error`` / ``not_hit``) and crossing count.
    Each armed pass crashes at the *middle* crossing of its site, placing
    the kill inside the interesting part of the scenario rather than at
    the very first crossing (often the bulk load).  Recovery always goes
    through the disk: the log is salvaged from the crash image, so only
    the flushed prefix survives -- under a coalescing ``flush_policy``
    that legitimately excludes deferred commits.
    """
    make_run, hits, baseline = recording_pass(
        operator, strategy, flush_policy, workload_seed)
    if baseline:
        raise AssertionError(
            f"fault-free scenario {operator}/{strategy.value} is broken: "
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
        "operator": operator,
        "strategy": strategy.value,
        "flush_policy": policy_name(flush_policy),
        "workload_seed": workload_seed,
        "crossed": list(hits),  # in first-crossing order
        "sites": sites,
        "site_count": len(sites),
        "violations": len(bad),
    }


def run_sweep(operators: Sequence[str] = ALL_OPERATORS,
              strategies: Sequence[SyncStrategy] = ALL_STRATEGIES
              ) -> Dict[str, object]:
    """Full sweep: every operator label x strategy x crossed site.

    The summary reports per-layer coverage as registered-vs-fired
    counts and lists every registered site the whole sweep never
    crossed (``never_fired``) -- a site that exists but cannot be
    reached is dead crash-test surface and should fail loudly in the
    benchmark harness.
    """
    combos = [sweep(op, strategy)
              for op in operators for strategy in strategies]
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
