"""The four workloads: seeded inputs, set-up, timed section, verification.

Every repetition builds a fresh database from ``(seed, workload, rep)``
alone -- schemas, rows and traffic are generated here, never by
``repro.sim`` -- runs one timed section on one thread, and checks the
output against :mod:`benchmarks.wallclock.oracle`.  The engine is driven
through ``repro.api`` (plus ``repro.wal.LogManager``, which the facade
does not re-export).

Flush policies (fixed): ``oltp_durable`` logs to a ``SimulatedDisk`` under
``GROUP_FLUSH``; the three transformation workloads keep the default
volatile log with ``IMMEDIATE_FLUSH``.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.api import (
    GROUP_FLUSH,
    Database,
    DeadlockError,
    FojSpec,
    FojTransformation,
    LockWaitError,
    Metrics,
    Phase,
    SimulatedDisk,
    SplitSpec,
    SplitTransformation,
    TableSchema,
    TransactionAbortedError,
    TransformOptions,
    bulk_load,
    restart_from_disk,
)
from repro.wal import LogManager

from benchmarks.wallclock import oracle
from benchmarks.wallclock.config import (
    INSERTS_PER_TXN,
    MAX_RETRIES,
    MAX_SESSIONS,
    OP_GAP_S,
    OPS_PER_TXN,
    RATE_TXN_PER_S,
    SLO_MS,
    TF_BUDGET_LIVE,
    TF_BUDGET_QUIESCENT,
    TF_ESCALATE_AFTER_S,
    TF_SHARE,
    Sizes,
)
from benchmarks.wallclock.openloop import (
    DONE,
    MORE,
    PARKED,
    Job,
    OpenLoop,
    Server,
)
from benchmarks.wallclock.stats import GcWatch
from benchmarks.wallclock.tracer import Tracer

clock = time.perf_counter

#: One operation of a planned transaction: (logical table, key, changed
#: attributes), ``None`` changes for a point read.
Op = Tuple[str, Tuple, Optional[Dict[str, object]]]

_POPULATING = (Phase.CREATED, Phase.PREPARED, Phase.POPULATING)
#: A live run that has not synchronized by then is broken, not slow.
_LIVE_TIMEOUT_S = 120.0


def rep_rng(seed: int, workload: str, rep: int) -> random.Random:
    """The one source of randomness of a repetition."""
    return random.Random(f"wallclock/{workload}/{seed}/{rep}")


class Rep:
    """One repetition of a workload: ``setup``, ``timed``, ``verify``.

    ``timed`` fills :attr:`out` with the repetition's raw measurements;
    :func:`run_rep` adds what is common (set-up time, collector pauses).
    """

    name = ""

    def __init__(self, rng: random.Random, sizes: Sizes) -> None:
        self.rng = rng
        self.sizes = sizes
        self.model = oracle.Model()
        self.out: Dict[str, object] = {}
        #: The collector watch of the timed section (set by ``run_rep``).
        self.watch: Optional[GcWatch] = None
        self._probed: Dict[int, object] = {}
        self._probe_base = (0, 0)

    def setup(self) -> None:
        raise NotImplementedError

    def timed(self, traced: bool) -> None:
        raise NotImplementedError

    def verify(self) -> None:
        raise NotImplementedError

    def _load(self, db: Database, schema: TableSchema,
              rows: List[Dict[str, object]]) -> None:
        db.create_table(schema)
        bulk_load(db, schema.name, rows)
        self.model.load(schema.name, schema.primary_key, rows)

    def _load_dummy(self, db: Database) -> None:
        self._load(db, TableSchema("dummy", ["id", "payload"],
                                   primary_key=["id"]),
                   [{"id": i, "payload": 0.0}
                    for i in range(self.sizes.dummy_rows)])

    def index_probes(self, db: Database, start: bool = False) -> None:
        """Count index probe-cache hits and probes over the timed section.

        Called at its start and at its end.  Every table visible at
        either moment is counted -- sources, targets and bystanders --
        and tables stay referenced here so a source retired by the swap
        keeps its count.
        """
        for name in db.catalog.table_names():
            table = db.table(name)
            self._probed[id(table)] = table
        hits = probes = 0
        for table in self._probed.values():
            for index in table.indexes.values():
                stats = index.probe_stats
                hits += stats["hits"]
                probes += stats["hits"] + stats["misses"] + stats["stale"]
        if start:
            self._probe_base = (hits, probes)
        else:
            self.out["index_hits"] = hits - self._probe_base[0]
            self.out["index_probes"] = probes - self._probe_base[1]


# ---------------------------------------------------------------------------
# oltp_durable
# ---------------------------------------------------------------------------


class OltpDurable(Rep):
    """Closed loop, one session, durable log; then crash and restart."""

    name = "oltp_durable"
    SCHEMA = TableSchema("acct", ["id", "bal", "owner"], primary_key=["id"])

    def setup(self) -> None:
        rng, rows = self.rng, self.sizes.acct_rows
        self.disk = SimulatedDisk()
        self.db = Database(log=LogManager(flush_policy=GROUP_FLUSH,
                                          disk=self.disk))
        self._load(self.db, self.SCHEMA, [
            {"id": i, "bal": float(i), "owner": f"o{i % 997}"}
            for i in range(rows)])
        # 50% 10-update, 35% 10-point-read, 15% 5-insert transactions.
        self.plan: List[List[Op]] = []
        next_id = rows
        for _ in range(self.sizes.oltp_txns):
            kind = rng.random()
            if kind < 0.5:
                ops = [("acct", (rng.randrange(rows),),
                        {"bal": rng.random()}) for _ in range(OPS_PER_TXN)]
            elif kind < 0.85:
                ops = [("acct", (rng.randrange(rows),), None)
                       for _ in range(OPS_PER_TXN)]
            else:
                ops = [("acct", (next_id + j,),
                        {"id": next_id + j, "bal": rng.random(),
                         "owner": "new"}) for j in range(INSERTS_PER_TXN)]
                next_id += INSERTS_PER_TXN
            self.plan.append(ops)

    def timed(self, traced: bool) -> None:
        db, model, disk = self.db, self.model, self.disk
        first_new = self.sizes.acct_rows
        op_ms: List[float] = []
        bytes_before = disk.size
        self.index_probes(db, start=True)
        for ops in self.plan:
            started = clock()
            txn = db.begin()
            for table, key, changes in ops:
                if changes is None:
                    model.check_read(table, key, db.read(txn, table, key))
                elif key[0] >= first_new:
                    db.insert(txn, table, changes)
                else:
                    db.update(txn, table, key, changes)
            db.commit(txn)
            op_ms.append((clock() - started) * 1000.0)
            model.apply(op for op in ops if op[2] is not None)
        db.log.flush()
        self.index_probes(db)
        out = self.out
        out["op_ms"] = op_ms
        out["slo_missed"] = sum(1 for x in op_ms if x > SLO_MS)
        out["wal_bytes"] = disk.size - bytes_before
        out["wal_syncs"] = disk.syncs
        out["lock_waits"] = db.locks.wait_count
        out["deadlocks"] = db.locks.deadlock_count
        out["restart_records"] = len(db.log)
        # Crash: only the durable bytes survive.  Everything in memory is
        # dropped before the restart reads the image.
        image = disk.crash_image()
        del self.db, self.disk, db, disk
        self._probed.clear()
        survivor = SimulatedDisk()
        survivor.reopen(image)
        metrics = Metrics(enabled=True) if traced else None
        started = clock()
        self.recovered = restart_from_disk(survivor, metrics=metrics)
        out["restart_s"] = clock() - started
        if metrics is not None:
            for phase in ("analysis", "redo", "undo"):
                span = metrics.spans.find(f"recovery.{phase}")
                out[f"restart_{phase}_s"] = span.duration
        out["attempted"] = len(self.plan)
        out["failed"] = 0

    def verify(self) -> None:
        oracle.check_recovered(self.model, "acct", ("id",),
                               self.recovered.table("acct"))


# ---------------------------------------------------------------------------
# split_quiescent
# ---------------------------------------------------------------------------


def split_source_rows(rng: random.Random, sizes: Sizes
                      ) -> List[Dict[str, object]]:
    """T(id, name, grp, info): ~40% distinct ``grp``; the dependency
    ``grp -> info`` holds by construction (Section 5.2's assumption)."""
    values = sizes.split_values
    rows = []
    for i in range(sizes.split_rows):
        grp = rng.randrange(values)
        rows.append({"id": i, "name": float(i), "grp": grp,
                     "info": f"g{grp}"})
    return rows


SPLIT_SCHEMA = TableSchema("T", ["id", "name", "grp", "info"],
                           primary_key=["id"])


def split_spec() -> SplitSpec:
    return SplitSpec.derive(SPLIT_SCHEMA, r_name="T_r", s_name="T_s",
                            split_attr="grp", s_attrs=["info"])


class SplitQuiescent(Rep):
    """Paper-size split, defaults, no user load, ``step(256)`` to done."""

    name = "split_quiescent"
    #: Overridden by the diagnostic arms (shards=4, metrics enabled).
    options: Optional[TransformOptions] = None

    def setup(self) -> None:
        self.db = Database()
        self._load(self.db, SPLIT_SCHEMA,
                   split_source_rows(self.rng, self.sizes))
        self.spec = split_spec()

    def timed(self, traced: bool) -> None:
        self.index_probes(self.db, start=True)
        tf = SplitTransformation(self.db, self.spec, options=self.options)
        step_ms: List[float] = []
        done = False
        while not done:
            started = clock()
            done = tf.step(TF_BUDGET_QUIESCENT).done
            step_ms.append((clock() - started) * 1000.0)
        self.index_probes(self.db)
        self.out.update(
            op_ms=step_ms, migrate_s=sum(step_ms) / 1000.0,
            slo_missed=sum(1 for x in step_ms if x > SLO_MS),
            rows=self.sizes.split_rows, tf_stats=dict(tf.stats),
            lock_waits=self.db.locks.wait_count,
            deadlocks=self.db.locks.deadlock_count,
            attempted=len(step_ms), failed=0)

    def verify(self) -> None:
        oracle.check_split(self.spec, self.model.rows("T"),
                           self.db.table("T_r"), self.db.table("T_s"))


# ---------------------------------------------------------------------------
# live workloads: open-loop traffic against a running transformation
# ---------------------------------------------------------------------------


class Traffic:
    """Seeded generator of user transactions (plans of ``OPS_PER_TXN``
    operations on logical tables)."""

    def __init__(self, rng: random.Random,
                 update_mix: List[Tuple[str, int, float]],
                 read_share: float = 0.0, read_table: str = "",
                 hot_keys: int = 0, hot_share: float = 0.0) -> None:
        """``update_mix`` lists ``(table, key count, probability)``."""
        self.rng = rng
        self.update_mix = update_mix
        self.read_share = read_share
        self.read_table = read_table
        self.hot_share = hot_share
        self.key_counts = {table: count for table, count, _p in update_mix}
        #: Per table, the hot set: a fixed random sample of its keys.
        self.hot = {table: rng.sample(range(count), min(hot_keys, count))
                    for table, count, _p in update_mix} if hot_keys else {}

    def _key(self, table: str) -> Tuple:
        rng = self.rng
        if self.hot and rng.random() < self.hot_share:
            return (rng.choice(self.hot[table]),)
        return (rng.randrange(self.key_counts[table]),)

    def next_txn(self) -> List[Op]:
        rng = self.rng
        if self.read_share and rng.random() < self.read_share:
            return [(self.read_table, self._key(self.read_table), None)
                    for _ in range(OPS_PER_TXN)]
        ops: List[Op] = []
        for _ in range(OPS_PER_TXN):
            pick = rng.random()
            for table, _count, share in self.update_mix:
                pick -= share
                if pick < 0:
                    break
            ops.append((table, self._key(table), {"v": rng.random()}))
        return ops


class _Txn:
    """Server-side state of one in-flight user transaction."""

    __slots__ = ("plan", "pos", "txn", "parked_since")

    def __init__(self, plan: List[Op]) -> None:
        self.plan = plan
        self.pos = 0
        self.txn = None
        self.parked_since = 0.0


#: Logical table -> (physical table, updated attribute, model table).
Routes = Dict[str, Tuple[str, str, str]]


class LiveServer(Server):
    """The engine behind the open loop, plus the throttled transformation.

    User operations have strict priority.  The transformation gets one
    ``step(TF_BUDGET_LIVE)`` only when the loop has no user work (see
    :class:`~benchmarks.wallclock.openloop.Server`) and its cumulative
    busy time is within ``TF_SHARE`` of the time since it (re)started --
    except inside its latched window, where it is stepped at once (users
    parked on the latch can only wait for it).  A collector
    pause that happens to start inside a step is not charged to the
    transformation's share: pauses are process-wide, triggered by
    everyone's allocations, and charging a 0.2 s pause costs 0.8 s of
    ``time_to_sync_s`` or nothing depending on where it lands.
    """

    def __init__(self, db: Database, model: oracle.Model, traffic: Traffic,
                 routes: Routes, routes_after_swap: Routes,
                 before_s: float, after_s: float, watch: GcWatch,
                 make_tf: Callable[[], object]) -> None:
        self.db = db
        self.watch = watch
        self.model = model
        self.traffic = traffic
        self.routes = routes
        self.routes_after_swap = routes_after_swap
        self.before_s = before_s
        self.after_s = after_s
        #: Called once, when the change is due: builds the transformation
        #: (or hands over the one paused during set-up).
        self.make_tf = make_tf
        self.tf = None
        self.t0: Optional[float] = None
        self.tf_started: Optional[float] = None
        self.swap_at: Optional[float] = None
        self.tf_busy = 0.0
        self.tf_finished = False
        self.step_ms: List[float] = []
        self.parked: Dict[int, Job] = {}
        self.wait_s = 0.0
        self.doomed = 0
        db.on_wake = self._on_wake

    # -- the transformation ----------------------------------------------------

    def _step(self) -> None:
        paused = self.watch.total_s
        started = clock()
        self.tf.step(TF_BUDGET_LIVE)
        now = clock()
        self.tf_busy += now - started - (self.watch.total_s - paused)
        self.step_ms.append((now - started) * 1000.0)
        if self.swap_at is None and \
                self.tf.phase in (Phase.BACKGROUND, Phase.DONE):
            self.swap_at = now
            self.routes = self.routes_after_swap
            # A session parked on a lock of a transaction the swap just
            # doomed has nobody left to wake it: let every parked session
            # retry (a retry that still has to wait parks again).
            self._on_wake(list(self.parked))
        self.tf_finished = self.tf.done

    def preempt(self) -> bool:
        if self.tf_started is None or self.tf_finished or \
                not self.tf.sync_urgent:
            return False
        self._step()
        return True

    def background(self, now: float) -> bool:
        if self.tf_finished:
            return False
        if self.tf_started is None:
            if now < self.t0 + self.before_s:
                return False
            self.tf = self.make_tf()
            self.tf_started = now
        if self.tf_busy > self._share(now) * (now - self.tf_started):
            return False
        self._step()
        return True

    def _share(self, now: float) -> float:
        """``TF_SHARE``, or everything once the change is overdue."""
        overdue = self.swap_at is None and \
            now - self.tf_started > TF_ESCALATE_AFTER_S
        return 1.0 if overdue else TF_SHARE

    def background_ready_at(self) -> Optional[float]:
        if self.tf_finished:
            return None
        if self.tf_started is None:
            return self.t0 + self.before_s
        return self.tf_started + self.tf_busy / self._share(clock())

    def accepting(self, now: float) -> bool:
        if self.t0 is None:
            self.t0 = now
        if now - self.t0 > _LIVE_TIMEOUT_S:
            raise RuntimeError(
                f"no swap within {_LIVE_TIMEOUT_S:.0f} s of live traffic")
        return self.swap_at is None or now < self.swap_at + self.after_s

    def finish(self) -> None:
        """Drive whatever is left of the transformation after the run."""
        while not self.tf.done:
            self.tf.step(TF_BUDGET_QUIESCENT)

    # -- user transactions --------------------------------------------------------

    def start(self, job: Job) -> None:
        job.work = _Txn(self.traffic.next_txn())

    def advance(self, job: Job) -> int:
        work: _Txn = job.work
        db = self.db
        try:
            if work.txn is None:
                work.txn = db.begin()
            if work.pos == len(work.plan):
                db.commit(work.txn)
                self._acknowledge(work)
                return DONE
            table, key, changes = work.plan[work.pos]
            physical, attr, model_table = self.routes[table]
            if changes is None:
                self.model.check_read(model_table, key,
                                      db.read(work.txn, physical, key))
            else:
                db.update(work.txn, physical, key, {attr: changes["v"]})
            work.pos += 1
            return MORE
        except LockWaitError:
            self.parked[work.txn.txn_id] = job
            work.parked_since = clock()
            return PARKED
        except DeadlockError:
            db.abort(work.txn)
        except TransactionAbortedError:
            # Doomed by the synchronization; the engine already rolled
            # the transaction back.
            self.doomed += 1
        return self._retry(job)

    def _retry(self, job: Job) -> int:
        """Run the same plan again in a fresh transaction (the intended
        start, and so the latency, stays the arrival's)."""
        job.retries += 1
        if job.retries > MAX_RETRIES:
            job.failed = True
            return DONE
        work: _Txn = job.work
        work.txn = None
        work.pos = 0
        return MORE

    def _acknowledge(self, work: _Txn) -> None:
        """The commit returned: only now does the model see the writes.
        Routes are read at acknowledgement; a transaction that wrote
        before the swap cannot reach here after it (it is doomed)."""
        routes = self.routes
        self.model.apply(
            (routes[table][2], key, {routes[table][1]: changes["v"]})
            for table, key, changes in work.plan if changes is not None)

    def _on_wake(self, txn_ids: List[int]) -> None:
        now = clock()
        for txn_id in txn_ids:
            job = self.parked.pop(txn_id, None)
            if job is not None:
                job.parked = False
                job.next_due = now
                self.wait_s += now - job.work.parked_since


class LiveRep(Rep):
    """Shared timed section and bookkeeping of the two live workloads."""

    def _server(self) -> LiveServer:
        raise NotImplementedError

    def timed(self, traced: bool) -> None:
        server = self._server()
        self.index_probes(self.db, start=True)
        loop = OpenLoop(RATE_TXN_PER_S, MAX_SESSIONS, OP_GAP_S)
        jobs = loop.run(server)
        ended = clock()
        server.finish()
        self.index_probes(self.db)
        # Latencies by window of the intended start: before the change,
        # during it (the ones the metrics are about), after the swap.
        before: List[float] = []
        during: List[float] = []
        missed = failed = 0
        for job in jobs:
            latency_ms = job.latency * 1000.0
            if job.due < server.tf_started:
                before.append(latency_ms)
            elif job.due < server.swap_at:
                during.append(latency_ms)
                if job.failed or job.retries or latency_ms > SLO_MS:
                    missed += 1
            failed += job.failed
        tf = server.tf
        self.out.update(
            before_ms=before, op_ms=during,
            slo_missed=missed, time_to_sync_s=server.swap_at -
            server.tf_started, timed_s=ended - loop.t0, idle_s=loop.idle_s,
            late_ms=[(job.noticed - job.due) * 1000.0 for job in jobs],
            step_ms=server.step_ms, tf_busy_s=server.tf_busy,
            tf_stats=dict(tf.stats), wait_s=server.wait_s,
            doomed=server.doomed, retries=sum(job.retries for job in jobs),
            lock_waits=self.db.locks.wait_count,
            deadlocks=self.db.locks.deadlock_count,
            attempted=len(jobs), failed=failed)


class FojCatchup(LiveRep):
    """A paused FOJ resumed on a backlog, under open-loop updates."""

    name = "foj_catchup"
    R_SCHEMA = TableSchema("R", ["a", "b", "c"], primary_key=["a"])
    S_SCHEMA = TableSchema("S", ["c", "d", "e"], primary_key=["c"])

    def setup(self) -> None:
        rng, sizes = self.rng, self.sizes
        n_r, n_s = sizes.foj_r_rows, sizes.foj_s_rows
        db = self.db = Database()
        # A sixth of the R rows find no join partner.
        self._load(db, self.R_SCHEMA, [
            {"a": i, "b": float(i), "c": rng.randrange(int(n_s * 1.2))}
            for i in range(n_r)])
        self._load(db, self.S_SCHEMA, [
            {"c": c, "d": float(c), "e": f"s{c}"} for c in range(n_s)])
        self._load_dummy(db)
        self.spec = FojSpec.derive(self.R_SCHEMA, self.S_SCHEMA,
                                   target_name="T", join_attr_r="c",
                                   join_attr_s="c")
        # 80% of the updates on the sources, uniform keys.
        self.traffic = Traffic(rng, [("R", n_r, 0.4), ("S", n_s, 0.4),
                                     ("dummy", sizes.dummy_rows, 0.2)])
        self.routes: Routes = {"R": ("R", "b", "R"), "S": ("S", "d", "S"),
                               "dummy": ("dummy", "payload", "dummy")}
        # Populate, then pause the transformation while the backlog builds.
        self.tf = FojTransformation(db, self.spec)
        while self.tf.phase in _POPULATING:
            self.tf.step(TF_BUDGET_QUIESCENT)
        log_before = len(db.log)
        for _ in range(sizes.backlog_txns):
            txn = db.begin()
            writes = []
            for table, key, changes in self.traffic.next_txn():
                physical, attr, _model = self.routes[table]
                db.update(txn, physical, key, {attr: changes["v"]})
                writes.append((table, key, {attr: changes["v"]}))
            db.commit(txn)
            self.model.apply(writes)
        self.out["backlog_records"] = len(db.log) - log_before

    def _server(self) -> LiveServer:
        # After the swap R.b lives on in T.b under the same key; S rows
        # have no row of their own any more, so S-aimed updates rewrite
        # T.b of the R row with that key number (S keys are R keys too).
        after = dict(self.routes, R=("T", "b", "R"), S=("T", "b", "R"))
        return LiveServer(self.db, self.model, self.traffic, self.routes,
                          after, self.sizes.foj_before_s, self.sizes.after_s,
                          self.watch, make_tf=lambda: self.tf)

    def verify(self) -> None:
        oracle.check_foj(self.spec, self.model.rows("R"),
                         self.model.rows("S"), self.db.table("T"))


class SplitLiveMixed(LiveRep):
    """A split started under open-loop reads and updates on a hot set."""

    name = "split_live_mixed"

    def setup(self) -> None:
        sizes = self.sizes
        db = self.db = Database()
        self._load(db, SPLIT_SCHEMA, split_source_rows(self.rng, sizes))
        self._load_dummy(db)
        self.spec = split_spec()
        # Half the transactions read T; of the updates 20% hit T; 80% of
        # all accesses go to each table's 200-key hot set.
        self.traffic = Traffic(
            self.rng, [("T", sizes.split_rows, 0.2),
                       ("dummy", sizes.dummy_rows, 0.8)],
            read_share=0.5, read_table="T",
            hot_keys=sizes.hot_keys, hot_share=0.8)
        self.routes: Routes = {"T": ("T", "name", "T"),
                               "dummy": ("dummy", "payload", "dummy")}

    def _server(self) -> LiveServer:
        after = dict(self.routes, T=("T_r", "name", "T"))
        return LiveServer(
            self.db, self.model, self.traffic, self.routes, after,
            self.sizes.split_before_s, self.sizes.after_s, self.watch,
            make_tf=lambda: SplitTransformation(self.db, self.spec))

    def verify(self) -> None:
        oracle.check_split(self.spec, self.model.rows("T"),
                           self.db.table("T_r"), self.db.table("T_s"))


REPS = {cls.name: cls for cls in (OltpDurable, SplitQuiescent, FojCatchup,
                                  SplitLiveMixed)}


def run_rep(rep: Rep, tracer: Optional[Tracer] = None) -> Dict[str, object]:
    """Set up, time and verify one repetition; returns its measurements.

    The collector keeps its default thresholds; one full collection runs
    right before the timed section.  With a ``tracer`` the timed section
    runs under its wrappers, inside one root span.

    One more full collection runs before set-up, off the clock, for the
    repetitions that share a process (the traced pair, the arms): the
    previous one's database is cyclic garbage, and a repetition that
    starts on top of it pays for it in ``setup_s`` (2.1 s against 1.4 s)
    and in every pause of its timed section (0.6 s against 0.44 s in all).
    """
    gc.collect()
    started = clock()
    rep.setup()
    setup_s = clock() - started
    gc.collect()
    with GcWatch() as watch:
        rep.watch = watch
        started = clock()
        if tracer is None:
            rep.timed(False)
        else:
            with tracer.installed(), tracer.span("timed"):
                rep.timed(True)
        wall_s = clock() - started
    out = rep.out
    out.setdefault("timed_s", wall_s)
    out.setdefault("idle_s", 0.0)
    out.update(setup_s=setup_s, gc_pause_total_ms=watch.total_s * 1000.0,
               gc_pause_max_ms=watch.max_s * 1000.0, gen2_collections=watch.gen2)
    rep.verify()
    return out
