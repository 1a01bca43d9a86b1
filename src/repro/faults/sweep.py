"""Crash-at-every-step sweep over the registered injection sites.

The harness runs a deterministic concurrent-workload scenario (bulk load,
interleaved user transactions, a long-lived "old" transaction, an aborted
transaction and post-swap probes) around one online transformation --
full outer join, split, or one of the migration-plan corpus operators
(explode, horizontal partition/merge, retype) -- under one
synchronization strategy.  A first
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
randomized FOJ/split/lazy workloads that are still perfectly
reproducible from the seed.
"""

from __future__ import annotations

import random
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
from repro.relational.operators import (
    explode,
    full_outer_join,
    normalize_rows,
    retype,
    rows_equal,
    split,
)
from repro.relational.spec import ExplodeSpec, FojSpec, RetypeSpec, SplitSpec
from repro.storage.schema import TableSchema
from repro.transform.analysis import RemainingRecordsPolicy
from repro.transform.base import Phase, SyncStrategy, Transformation
from repro.transform.explode import ExplodeTransformation
from repro.transform.foj import FojTransformation
from repro.transform.options import TransformOptions
from repro.transform.partition import (
    AttrPredicate,
    MergeSpec,
    MergeTransformation,
    PartitionSpec,
    PartitionTransformation,
    merge_rows,
    partition_rows,
)
from repro.transform.retype import RetypeTransformation
from repro.transform.split import SplitTransformation
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

#: Operators the sweep exercises (FOJ and split, Sections 4 and 5).
#: ``name@N`` runs the same scenario with ``shards=N``
#: (:mod:`repro.shard`), adding the shard-scoped crash site
#: (``shard.plan``) to the sweep's coverage.  ``name:lazy`` runs the
#: scenario with access-triggered population
#: (``population_mode="lazy"``), interleaving user reads with small sweep
#: steps so the migrate-on-read crash site (``lazy.miss.transform``) is
#: crossed between sweep chunks.  Population chunks have one site in
#: every mode -- ``tf.populate.chunk``, fired by the one scan -- and the
#: two notations compose (``split:lazy@3``).
SCENARIO_OPERATORS: Tuple[str, ...] = (
    "foj", "split", "foj@2", "split@3", "foj:lazy", "split:lazy@3")

#: The migration-plan corpus operators (explode, horizontal partition
#: and merge, column retype), swept with the same notations.  The
#: partition and merge engines are eager-only, so only explode and
#: retype carry ``:lazy`` variants.
CORPUS_OPERATORS: Tuple[str, ...] = (
    "explode", "partition", "merge", "retype",
    "explode:lazy@2", "retype:lazy")

#: Every operator the sweep knows how to script.
ALL_OPERATORS: Tuple[str, ...] = SCENARIO_OPERATORS + CORPUS_OPERATORS

_OPERATOR_BASES = ("foj", "split", "explode", "partition", "merge",
                   "retype")
_EAGER_ONLY_BASES = ("partition", "merge")

#: The paper's three synchronization strategies (Section 3.4) plus the
#: MVCC version flip (snapshot storage, no latched window anywhere).
ALL_STRATEGIES: Tuple[SyncStrategy, ...] = (
    SyncStrategy.BLOCKING_COMMIT,
    SyncStrategy.NONBLOCKING_ABORT,
    SyncStrategy.NONBLOCKING_COMMIT,
    SyncStrategy.VERSION_FLIP,
)

_STEP_BUDGET = 24
_MAX_STEPS = 3000


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

    def begin(self, txn_id: int) -> None:
        self.ops.setdefault(txn_id, [])

    def insert(self, txn_id: int, table: str, key: Tuple,
               values: RowDict) -> None:
        self.ops.setdefault(txn_id, []).append(
            ("i", table, key, dict(values)))

    def update(self, txn_id: int, table: str, key: Tuple,
               changes: RowDict) -> None:
        self.ops.setdefault(txn_id, []).append(
            ("u", table, key, dict(changes)))

    def delete(self, txn_id: int, table: str, key: Tuple) -> None:
        self.ops.setdefault(txn_id, []).append(("d", table, key, None))

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
    """One deterministic execution of the sweep workload.

    The same script runs for the recording pass and for every armed pass;
    an armed :class:`CrashFault` leaves the prefix bit-identical, so site
    crossing counts from the recording pass predict exactly where each
    armed pass dies.  The log writes through a fresh
    :class:`SimulatedDisk` under ``flush_policy`` (immediate by default);
    ``workload_seed`` appends seeded random mutations to the script.
    """

    def __init__(self, operator: str, strategy: SyncStrategy,
                 faults: Optional[FaultInjector] = None,
                 flush_policy: Optional[FlushPolicy] = None,
                 workload_seed: Optional[int] = None,
                 metrics=None) -> None:
        base, _, shard_suffix = operator.partition("@")
        shards = int(shard_suffix) if shard_suffix else 1
        base, _, mode = base.partition(":")
        mode = mode or "eager"
        if base not in _OPERATOR_BASES or shards < 1 or \
                mode not in ("eager", "lazy"):
            raise ValueError(f"unknown sweep operator {operator!r}")
        if mode == "lazy" and base in _EAGER_ONLY_BASES:
            raise ValueError(
                f"operator {base!r} is eager-only; {operator!r} cannot "
                "run with lazy population")
        self.operator = operator
        self.operator_base = base
        self.shards = shards
        self.population_mode = mode
        self.strategy = strategy
        self.flush_policy = flush_policy if flush_policy is not None \
            else IMMEDIATE_FLUSH
        self.workload_seed = workload_seed
        self.faults = faults if faults is not None else FaultInjector()
        self.disk = SimulatedDisk()
        self.log = LogManager(disk=self.disk,
                              flush_policy=self.flush_policy)
        # An observed run (chaos postmortems, interference probes) passes
        # a Metrics registry; the stock sweep stays on the null registry.
        self.db = Database(log=self.log, metrics=metrics)
        self.db.attach_faults(self.faults)
        self.shadow = _Shadow()
        self.tf: Optional[Transformation] = None
        self.spec = None
        self.source_names: Tuple[str, ...] = ()
        self.published_names: Tuple[str, ...] = ()
        self._mutations: List[Callable[[], None]] = []
        self._l_txn: Optional[Transaction] = None
        self._l_op: Optional[Tuple] = None
        self._l_zombie_op: Optional[Tuple] = None
        self._lazy_reads: List[Tuple[str, Tuple]] = []
        self._probes: List[Tuple[str, RowDict]] = []

    def _tf_options(self) -> TransformOptions:
        return TransformOptions(
            sync=self.strategy, storage=self._storage(),
            policy=RemainingRecordsPolicy(max_remaining=2, patience=200),
            population_chunk=4, shards=self.shards,
            population_mode=self.population_mode)

    def _storage(self) -> str:
        """Storage backend matching the strategy (version flip needs MVCC)."""
        return "mvcc" if self.strategy is SyncStrategy.VERSION_FLIP \
            else "latch"

    # -- committed-state bookkeeping ------------------------------------

    def _apply(self, txn: Transaction, op: Tuple) -> None:
        kind, table_name = op[0], op[1]
        schema = self.db.catalog.get_any(table_name).schema
        if kind == "i":
            values = schema.normalize(op[2])
            self.db.insert(txn, table_name, values)
            self.shadow.insert(txn.txn_id, table_name,
                               schema.key_of(values), values)
        elif kind == "u":
            key, changes = tuple(op[2]), op[3]
            self.db.update(txn, table_name, key, changes)
            self.shadow.update(txn.txn_id, table_name, key, changes)
        elif kind == "d":
            key = tuple(op[2])
            self.db.delete(txn, table_name, key)
            self.shadow.delete(txn.txn_id, table_name, key)
        else:  # pragma: no cover - script bug
            raise ValueError(f"unknown op kind {kind!r}")

    def _txn_do(self, ops: Sequence[Tuple], abort: bool = False) -> None:
        txn = self.db.begin()
        self.shadow.begin(txn.txn_id)
        for op in ops:
            self._apply(txn, op)
        if abort:
            self.db.abort(txn)
        else:
            self.db.commit(txn)

    # -- scenario scripts ------------------------------------------------

    def _setup_foj(self) -> None:
        self.db.create_table(
            TableSchema("R", ["a", "b", "c"], primary_key=["a"]))
        self.db.create_table(
            TableSchema("S", ["c", "d", "e"], primary_key=["c"]))
        self.spec = FojSpec.derive(
            self.db.table("R").schema, self.db.table("S").schema,
            target_name="T", join_attr_r="c", join_attr_s="c")
        # Names before the bulk load: an armed crash can fire inside the
        # load, and the recovery checks need to know what to expect.
        self.source_names = ("R", "S")
        self.published_names = ("T",)
        self._txn_do(
            [("i", "R", {"a": i, "b": f"b{i}", "c": i % 5})
             for i in range(10)] +
            [("i", "S", {"c": c, "d": f"d{c}", "e": f"e{c}"})
             for c in range(4)])
        self.tf = FojTransformation(
            self.db, self.spec, options=self._tf_options())
        self._l_op = ("u", "R", (0,), {"b": "L0"})
        self._l_zombie_op = ("u", "R", (0,), {"b": "Lz"})
        self._lazy_reads = [("R", (1,)), ("R", (4,)), ("R", (7,)),
                            ("S", (2,))]
        self._mutations = [
            # The S update first: it lands while log propagation is still
            # running, which under shards > 1 makes it an unrouted
            # record (S rows fan out across every shard's carriers).
            lambda: self._txn_do([("u", "S", (1,), {"d": "dX"})]),
            lambda: self._txn_do(
                [("i", "R", {"a": 20, "b": "b20", "c": 2})]),
            lambda: self._txn_do([("d", "R", (5,))]),
            lambda: self._txn_do([("u", "R", (2,), {"b": "mX"})],
                                 abort=True),
            lambda: self._txn_do(
                [("i", "S", {"c": 9, "d": "d9", "e": "e9"})]),
            lambda: self._txn_do([("u", "R", (3,), {"b": "bX"})]),
            lambda: self._txn_do(
                [("i", "R", {"a": 21, "b": "b21", "c": 9})]),
        ]
        self._probes = [("T", {"a": 95001, "b": "probe", "c": 95001})]

    def _setup_split(self) -> None:
        self.db.create_table(TableSchema(
            "T", ["id", "name", "zip", "city"], primary_key=["id"]))
        self.spec = SplitSpec.derive(
            self.db.table("T").schema, r_name="T_r", s_name="postal",
            split_attr="zip", s_attrs=["city"])
        # Names before the bulk load (see _setup_foj).
        self.source_names = ("T",)
        self.published_names = ("T_r", "postal")
        rows = []
        for i in range(9):
            z = 7000 + (i % 3)
            rows.append(("i", "T", {"id": i, "name": f"n{i}", "zip": z,
                                    "city": f"C{z}"}))
        rows.append(("i", "T", {"id": 9, "name": "n9", "zip": 7009,
                                "city": "C7009"}))
        self._txn_do(rows)
        self.tf = SplitTransformation(
            self.db, self.spec, check_consistency=True,
            on_inconsistent="wait", options=self._tf_options())
        self._l_op = ("u", "T", (1,), {"name": "Ln"})
        self._l_zombie_op = ("u", "T", (1,), {"name": "Lz"})
        self._lazy_reads = [("T", (2,)), ("T", (5,)), ("T", (8,))]
        self._mutations = [
            lambda: self._txn_do(
                [("i", "T", {"id": 20, "name": "n20", "zip": 7001,
                             "city": "C7001"})]),
            # Touch every contributor of zip 7000 in one transaction: each
            # update U-flags the S record (counter > 1), the consistency
            # checker later finds the contributors agreeing on "CX".
            lambda: self._txn_do([
                ("u", "T", (0,), {"city": "CX"}),
                ("u", "T", (3,), {"city": "CX"}),
                ("u", "T", (6,), {"city": "CX"}),
            ]),
            lambda: self._txn_do([("d", "T", (4,))]),
            lambda: self._txn_do([("u", "T", (2,), {"name": "mX"})],
                                 abort=True),
            lambda: self._txn_do([("u", "T", (9,), {"name": "nX"})]),
            lambda: self._txn_do(
                [("i", "T", {"id": 21, "name": "n21", "zip": 7021,
                             "city": "C7021"})]),
        ]
        self._probes = [
            ("T_r", {"id": 95001, "name": "probe", "zip": 95001}),
            ("postal", {"zip": 95002, "city": "probe"}),
        ]

    def _setup_explode(self) -> None:
        self.db.create_table(TableSchema(
            "doc", ["id", "title", "tags"], primary_key=["id"]))
        self.spec = ExplodeSpec.derive(
            self.db.table("doc").schema, target_name="doc_tag",
            list_attr="tags", value_attr="tag")
        # Names before the bulk load (see _setup_foj).
        self.source_names = ("doc",)
        self.published_names = ("doc_tag",)
        tags = ["x,y", "y", None, "x,z,w", "z", "x,y", None, "w,q",
                "q", "x"]
        self._txn_do(
            [("i", "doc", {"id": i, "title": f"t{i}", "tags": tags[i]})
             for i in range(10)])
        self.tf = ExplodeTransformation(
            self.db, self.spec, options=self._tf_options())
        self._l_op = ("u", "doc", (0,), {"title": "L0"})
        self._l_zombie_op = ("u", "doc", (0,), {"title": "Lz"})
        self._lazy_reads = [("doc", (1,)), ("doc", (4,)), ("doc", (7,))]
        self._mutations = [
            # Sibling-group reconcile: one element survives (y), one
            # vanishes (x), one appears (v).
            lambda: self._txn_do([("u", "doc", (5,), {"tags": "y,v"})]),
            lambda: self._txn_do(
                [("i", "doc", {"id": 20, "title": "t20",
                               "tags": "q,x"})]),
            lambda: self._txn_do([("d", "doc", (3,))]),
            lambda: self._txn_do([("u", "doc", (2,), {"title": "mX"})],
                                 abort=True),
            # Kept-attribute change fanned out to all children.
            lambda: self._txn_do([("u", "doc", (7,), {"title": "tX"})]),
            # NULL list rewritten to elements, and vice versa.
            lambda: self._txn_do([("u", "doc", (6,), {"tags": "n1,n2"})]),
            lambda: self._txn_do([("u", "doc", (8,), {"tags": None})]),
        ]
        self._probes = [
            ("doc_tag", {"id": 95001, "title": "probe", "tag": "p"})]

    def _setup_partition(self) -> None:
        self.db.create_table(TableSchema(
            "orders", ["id", "region", "qty"], primary_key=["id"]))
        self.spec = PartitionSpec(
            "orders", "orders_eu", "orders_row",
            predicate=AttrPredicate("region", "==", "eu"))
        # Names before the bulk load (see _setup_foj).
        self.source_names = ("orders",)
        self.published_names = ("orders_eu", "orders_row")
        regions = ["eu", "us", "eu", "ap", "eu", "us", "ap", "eu",
                   "us", "eu"]
        self._txn_do(
            [("i", "orders", {"id": i, "region": regions[i], "qty": i})
             for i in range(10)])
        self.tf = PartitionTransformation(
            self.db, self.spec, options=self._tf_options())
        self._l_op = ("u", "orders", (0,), {"qty": 100})
        self._l_zombie_op = ("u", "orders", (0,), {"qty": 101})
        self._lazy_reads = []
        self._mutations = [
            # Predicate verdict flips: the row moves between sides.
            lambda: self._txn_do([("u", "orders", (1,),
                                   {"region": "eu"})]),
            lambda: self._txn_do(
                [("i", "orders", {"id": 20, "region": "eu",
                                  "qty": 20})]),
            lambda: self._txn_do([("d", "orders", (3,))]),
            lambda: self._txn_do([("u", "orders", (5,), {"qty": 55})],
                                 abort=True),
            lambda: self._txn_do([("u", "orders", (2,),
                                   {"region": "us"})]),
            lambda: self._txn_do(
                [("i", "orders", {"id": 21, "region": "ap",
                                  "qty": 21})]),
        ]
        self._probes = [
            ("orders_eu", {"id": 95001, "region": "eu", "qty": 1}),
            ("orders_row", {"id": 95002, "region": "us", "qty": 2}),
        ]

    def _setup_merge(self) -> None:
        self.db.create_table(TableSchema(
            "evt_a", ["id", "payload"], primary_key=["id"]))
        self.db.create_table(TableSchema(
            "evt_b", ["id", "payload"], primary_key=["id"]))
        self.spec = MergeSpec("evt_a", "evt_b", "evt")
        # Names before the bulk load (see _setup_foj).
        self.source_names = ("evt_a", "evt_b")
        self.published_names = ("evt",)
        self._txn_do(
            [("i", "evt_a", {"id": i, "payload": f"a{i}"})
             for i in range(0, 10, 2)] +
            [("i", "evt_b", {"id": i, "payload": f"b{i}"})
             for i in range(1, 10, 2)])
        self.tf = MergeTransformation(
            self.db, self.spec, options=self._tf_options())
        self._l_op = ("u", "evt_a", (0,), {"payload": "L0"})
        self._l_zombie_op = ("u", "evt_a", (0,), {"payload": "Lz"})
        self._lazy_reads = []
        self._mutations = [
            lambda: self._txn_do([("u", "evt_b", (1,),
                                   {"payload": "bX"})]),
            lambda: self._txn_do(
                [("i", "evt_a", {"id": 20, "payload": "a20"})]),
            lambda: self._txn_do([("d", "evt_b", (3,))]),
            lambda: self._txn_do([("u", "evt_a", (2,),
                                   {"payload": "mX"})], abort=True),
            lambda: self._txn_do(
                [("i", "evt_b", {"id": 21, "payload": "b21"})]),
            lambda: self._txn_do([("d", "evt_a", (4,))]),
        ]
        self._probes = [("evt", {"id": 95001, "payload": "probe"})]

    def _setup_retype(self) -> None:
        self.db.create_table(TableSchema(
            "reading", ["rid", "label", "value"], primary_key=["rid"]))
        self.spec = RetypeSpec.derive(
            self.db.table("reading").schema, target_name="reading_v2",
            attr="value", cast="int", default=0)
        # Names before the bulk load (see _setup_foj).
        self.source_names = ("reading",)
        self.published_names = ("reading_v2",)
        values = ["3", "14", None, "-7", "0", None, "8", "21", "5", "9"]
        self._txn_do(
            [("i", "reading", {"rid": i, "label": f"l{i}",
                               "value": values[i]})
             for i in range(10)])
        self.tf = RetypeTransformation(
            self.db, self.spec, options=self._tf_options())
        self._l_op = ("u", "reading", (0,), {"label": "L0"})
        self._l_zombie_op = ("u", "reading", (0,), {"label": "Lz"})
        self._lazy_reads = [("reading", (1,)), ("reading", (4,)),
                            ("reading", (7,))]
        self._mutations = [
            # Retyped-column change: the rule must cast it in flight.
            lambda: self._txn_do([("u", "reading", (1,),
                                   {"value": "41"})]),
            lambda: self._txn_do(
                [("i", "reading", {"rid": 20, "label": "l20",
                                   "value": "99"})]),
            lambda: self._txn_do([("d", "reading", (3,))]),
            lambda: self._txn_do([("u", "reading", (2,),
                                   {"label": "mX"})], abort=True),
            lambda: self._txn_do([("u", "reading", (6,),
                                   {"value": None})]),
            lambda: self._txn_do(
                [("i", "reading", {"rid": 21, "label": "l21",
                                   "value": None})]),
        ]
        self._probes = [
            ("reading_v2", {"rid": 95001, "label": "probe",
                            "value": 95001})]

    def _random_mutations(self) -> List[Callable[[], None]]:
        """Seeded extra mutations appended to the scripted workload.

        Inserts use a key range (100+) disjoint from the script; updates
        touch the name-like attribute of keys the script never deletes
        and the long-lived transaction never locks (and, for split, never
        the shared ``city`` attribute, which would wedge the consistency
        checker's wait loop); deletes only remove rows this generator
        itself committed.
        """
        if self.workload_seed is None:
            return []
        rng = random.Random(self.workload_seed)
        if self.operator_base == "foj":
            table, text_attr = "R", "b"
            safe_keys = (1, 2, 3, 4, 6, 7, 8)

            def new_row(i: int) -> RowDict:
                return {"a": 100 + i, "b": f"r{i}",
                        "c": rng.randint(0, 9)}
        elif self.operator_base == "split":
            table, text_attr = "T", "name"
            safe_keys = (0, 2, 3, 5, 6, 7, 8)

            def new_row(i: int) -> RowDict:
                z = 7100 + rng.randint(0, 3)
                return {"id": 100 + i, "name": f"r{i}", "zip": z,
                        "city": f"C{z}"}
        elif self.operator_base == "explode":
            table, text_attr = "doc", "title"
            safe_keys = (1, 2, 4, 5, 6, 7, 8, 9)

            def new_row(i: int) -> RowDict:
                tags = rng.choice(["x", "x,y", None, "p,q", "y,z,w"])
                return {"id": 100 + i, "title": f"r{i}", "tags": tags}
        elif self.operator_base == "partition":
            table, text_attr = "orders", "qty"
            safe_keys = (1, 2, 4, 6, 7, 8, 9)

            def new_row(i: int) -> RowDict:
                return {"id": 100 + i,
                        "region": rng.choice(["eu", "us", "ap"]),
                        "qty": i}
        elif self.operator_base == "merge":
            table, text_attr = "evt_a", "payload"
            safe_keys = (2, 6, 8)

            def new_row(i: int) -> RowDict:
                return {"id": 100 + i, "payload": f"r{i}"}
        else:
            table, text_attr = "reading", "label"
            safe_keys = (1, 2, 4, 5, 6, 7, 8, 9)

            def new_row(i: int) -> RowDict:
                return {"rid": 100 + i, "label": f"r{i}",
                        "value": str(rng.randint(0, 99))}

        mutations: List[Callable[[], None]] = []
        own_keys: List[int] = []
        for i in range(rng.randint(2, 6)):
            choice = rng.random()
            if choice < 0.45 or not own_keys:
                row = new_row(i)
                abort = rng.random() < 0.2
                if not abort:
                    own_keys.append(100 + i)
                mutations.append(
                    lambda row=row, abort=abort: self._txn_do(
                        [("i", table, row)], abort=abort))
            elif choice < 0.8:
                key = (rng.choice(safe_keys),)
                mutations.append(
                    lambda key=key, i=i: self._txn_do(
                        [("u", table, key, {text_attr: f"z{i}"})]))
            else:
                key = (own_keys.pop(0),)
                mutations.append(
                    lambda key=key: self._txn_do([("d", table, key)]))
        return mutations

    def _abort_episode(self) -> None:
        """Start a throwaway transformation, then abort it.

        Crosses ``tf.abort`` and the zero-residue cleanup behind it
        (target drops, unlatching, proxy-lock release), so the crash
        matrix also proves an *aborted* transformation is recoverable:
        a kill inside the cleanup must restore exactly the committed
        source state, with the transient target discarded.
        """
        self.db.create_table(
            TableSchema("A", ["k", "v"], primary_key=["k"]))
        self.db.create_table(
            TableSchema("B", ["v", "w"], primary_key=["v"]))
        self._txn_do(
            [("i", "A", {"k": i, "v": i % 2}) for i in range(3)] +
            [("i", "B", {"v": 0, "w": "w0"})])
        spec = FojSpec.derive(
            self.db.table("A").schema, self.db.table("B").schema,
            target_name="AB", join_attr_r="v", join_attr_s="v")
        throwaway = FojTransformation(
            self.db, spec,
            options=TransformOptions(sync=self.strategy,
                                     storage=self._storage(),
                                     population_chunk=2))
        throwaway.step(1)
        throwaway.abort()

    # -- driving ---------------------------------------------------------

    def execute(self) -> None:
        """Run the full scenario; raises :class:`SimulatedCrashError`
        when an armed crash fault fires."""
        setup = {
            "foj": self._setup_foj,
            "split": self._setup_split,
            "explode": self._setup_explode,
            "partition": self._setup_partition,
            "merge": self._setup_merge,
            "retype": self._setup_retype,
        }
        setup[self.operator_base]()
        self._abort_episode()
        self._mutations.extend(self._random_mutations())

        # The long-lived transaction the synchronization strategies
        # disagree about: drained (blocking commit), doomed (non-blocking
        # abort) or carried across the swap (non-blocking commit).
        self._l_txn = self.db.begin()
        self.shadow.begin(self._l_txn.txn_id)
        self._apply(self._l_txn, self._l_op)

        if self.population_mode == "lazy":
            # One deliberately tiny first step keeps POPULATING open
            # (the step driver multiplies the budget by the shard count,
            # so even budget 1 sweeps a few rows), and the interleaved
            # reads then hit not-yet-migrated source records, crossing
            # the migrate-on-read crash sites.
            self.tf.step(1)
            txn = self.db.begin()
            for table_name, key in self._lazy_reads:
                self.db.read(txn, table_name, key)
            self.db.commit(txn)

        mutations = list(self._mutations)
        l_active = True
        for _ in range(_MAX_STEPS):
            report = self.tf.step(_STEP_BUDGET)
            if l_active and (self._l_txn.doomed or
                             self._l_txn.is_finished):
                # Non-blocking abort doomed and rolled back L.
                l_active = False
            if report.done:
                break
            if mutations and self.tf.phase in (Phase.POPULATING,
                                               Phase.PROPAGATING):
                mutations.pop(0)()
            if l_active and self.strategy is SyncStrategy.BLOCKING_COMMIT \
                    and self.tf.phase is Phase.SYNCHRONIZING:
                # Let the drain finish: commit L.
                self.db.commit(self._l_txn)
                l_active = False
            if l_active and self.strategy in (
                    SyncStrategy.NONBLOCKING_COMMIT,
                    SyncStrategy.VERSION_FLIP) \
                    and self.tf.phase is Phase.BACKGROUND:
                # L lives on as an old transaction: one more write through
                # the zombie namespace (non-blocking commit) or its pinned
                # pre-flip epoch (version flip), then commit (ends the
                # mirror).
                self._apply(self._l_txn, self._l_zombie_op)
                self.db.commit(self._l_txn)
                l_active = False
        else:
            raise AssertionError(
                f"scenario did not finish within {_MAX_STEPS} steps "
                f"({self.operator}/{self.strategy.value}, "
                f"phase {self.tf.phase.value})")

        # Post-swap probes: plain user transactions against the published
        # schema (their redo must land in recovery's rebuilt tables).
        for table_name, values in self._probes:
            self._txn_do([("i", table_name, values)])

    # -- expectations ----------------------------------------------------

    def expected_tables(self, log: LogManager) -> Dict[str, List[RowDict]]:
        """State the database must show, derived from the surviving log.

        The committed transaction set, the visible catalog and the swap
        point all come from ``log`` -- for a fault-free run that is the
        full log, after a crash it is the salvaged flushed prefix.
        Before the swap the expectation is simply the resolved sources;
        after it, the relational operator applied to the resolved sources
        plus any rows committed directly into the published tables
        (probes).
        """
        state = self.shadow.resolve(log)

        def rows(name: str) -> List[RowDict]:
            return [dict(v) for v in state.get(name, {}).values()]

        visible = _visible_tables(log)
        swapped = any(isinstance(r, TransformSwapRecord)
                      for r in log.scan())
        if not swapped:
            return {name: rows(name) for name in visible}
        if self.operator_base == "foj":
            base = {"T": full_outer_join(self.spec, rows("R"), rows("S"))}
        elif self.operator_base == "split":
            r_rows, s_rows, _, _ = split(self.spec, rows("T"),
                                         strict=False)
            base = {"T_r": r_rows, "postal": s_rows}
        elif self.operator_base == "explode":
            base = {"doc_tag": explode(self.spec, rows("doc"))}
        elif self.operator_base == "partition":
            a_rows, b_rows = partition_rows(self.spec, rows("orders"))
            base = {"orders_eu": a_rows, "orders_row": b_rows}
        elif self.operator_base == "merge":
            base = {"evt": merge_rows(
                rows("evt_a"), rows("evt_b"),
                lambda values: (values["id"],))}
        else:
            base = {"reading_v2": retype(self.spec, rows("reading"))}
        expected: Dict[str, List[RowDict]] = {}
        for name in visible:
            if name in self.published_names:
                expected[name] = list(base.get(name, [])) + rows(name)
            else:
                expected[name] = rows(name)
        return expected


# ---------------------------------------------------------------------------
# Invariant checks
# ---------------------------------------------------------------------------


def _table_values(db: Database, name: str) -> List[RowDict]:
    return [dict(r.values) for r in db.catalog.get_any(name).scan()]


def _diff(name: str, actual: List[RowDict],
          expected: List[RowDict]) -> Optional[str]:
    if rows_equal(actual, expected):
        return None
    return (f"table {name!r} diverged from committed state: "
            f"actual={normalize_rows(actual)!r} "
            f"expected={normalize_rows(expected)!r}")


def _check_data(run: ScenarioRun, db: Database, log: LogManager,
                violations: List[str]) -> None:
    expected = run.expected_tables(log)
    names = sorted(db.catalog.table_names())
    if names != sorted(expected):
        violations.append(
            f"catalog mismatch: visible tables {names} != "
            f"expected {sorted(expected)}")
        return
    for name, rows in expected.items():
        problem = _diff(name, _table_values(db, name), rows)
        if problem:
            violations.append(problem)


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


def check_salvage(run: ScenarioRun, log: LogManager) -> List[str]:
    """Durability invariants of a salvage performed without disk faults.

    A plain process kill must leave a clean, frame-aligned prefix --
    staged-but-unsynced bytes are simply absent, never torn -- and
    re-encoding the salvaged records must reproduce the surviving bytes
    exactly (the flushed prefix survives byte-for-byte).
    """
    violations: List[str] = []
    salvage = log.salvage
    if salvage is None:
        return [f"recovered log has no salvage report"]
    if salvage.torn or salvage.tail_corrupt or salvage.dropped_bytes:
        violations.append(
            f"clean crash left a damaged log: {salvage.describe()}")
    reencoded = SEGMENT_HEADER + b"".join(
        encode_frame(record) for record in salvage.records)
    surviving = run.disk.crash_image()[:salvage.byte_length]
    if reencoded != surviving:
        violations.append(
            "salvaged prefix is not byte-identical under re-encode "
            f"({len(surviving)} bytes on disk, "
            f"{len(reencoded)} re-encoded)")
    return violations


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


def sweep(operator: str, strategy: SyncStrategy,
          flush_policy: Optional[FlushPolicy] = None,
          workload_seed: Optional[int] = None) -> Dict[str, object]:
    """Crash at every crossed injection site for one scenario.

    Returns a JSON-able report: per-site outcome (``ok`` / ``violation``
    / ``error`` / ``not_hit``) plus the recording pass's crossing counts.
    Each armed pass crashes at the *middle* crossing of its site, placing
    the kill inside the interesting part of the scenario rather than at
    the very first crossing (often the bulk load).  Recovery always goes
    through the disk: the log is salvaged from the crash image, so only
    the flushed prefix survives -- under a coalescing ``flush_policy``
    that legitimately excludes deferred commits.
    """
    recording = ScenarioRun(operator, strategy,
                            FaultInjector(FaultPlan()),
                            flush_policy=flush_policy,
                            workload_seed=workload_seed)
    recording.execute()
    # Snapshot before the baseline check: its drain crosses flush/disk
    # sites one more time, and those post-scenario crossings are not
    # reachable by an armed pass (it crashes or completes, never drains).
    hits = dict(recording.faults.hits)
    baseline = check_completed(recording)
    if baseline:
        raise AssertionError(
            f"fault-free scenario {operator}/{strategy.value} is broken: "
            + "; ".join(baseline))

    sites: List[Dict[str, object]] = []
    for site in sorted(hits):
        count = hits[site]
        hit_at = (count + 1) // 2
        plan = FaultPlan().arm(site, CrashFault(), hit=hit_at)
        run = ScenarioRun(operator, strategy, FaultInjector(plan),
                          flush_policy=flush_policy,
                          workload_seed=workload_seed)
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
        "flush_policy": "immediate" if flush_policy is None
        or flush_policy.immediate else
        f"group({flush_policy.max_pending_requests},"
        f"{flush_policy.max_pending_records})",
        "workload_seed": workload_seed,
        "sites": sites,
        "site_count": len(sites),
        "violations": len(bad),
    }


def run_sweep(operators: Sequence[str] = ALL_OPERATORS,
              strategies: Sequence[SyncStrategy] = ALL_STRATEGIES
              ) -> Dict[str, object]:
    """Full sweep: every operator x strategy x crossed site.

    The summary reports per-layer coverage as registered-vs-fired
    counts and lists every registered site the whole sweep never
    crossed (``never_fired``) -- a site that exists but cannot be
    reached is dead crash-test surface and should fail loudly in the
    benchmark harness.
    """
    combos = [sweep(op, strategy)
              for op in operators for strategy in strategies]
    covered = sorted({s["site"] for c in combos for s in c["sites"]})
    never_fired = sorted(set(SITE_REGISTRY) - set(covered))
    layers: Dict[str, int] = {}
    for site in covered:
        layer = SITE_REGISTRY[site][0]
        layers[layer] = layers.get(layer, 0) + 1
    registered_layers: Dict[str, int] = {}
    for layer, _ in SITE_REGISTRY.values():
        registered_layers[layer] = registered_layers.get(layer, 0) + 1
    layer_coverage = {
        layer: {"registered": registered_layers[layer],
                "covered": layers.get(layer, 0)}
        for layer in sorted(registered_layers)}
    return {
        "combos": combos,
        "summary": {
            "registered_sites": len(SITE_REGISTRY),
            "covered_sites": len(covered),
            "covered": covered,
            "never_fired": never_fired,
            "layers": layers,
            "layer_coverage": layer_coverage,
            "crash_runs": sum(c["site_count"] for c in combos),
            "violations": sum(c["violations"] for c in combos),
        },
    }
