"""Fixed-count microbenches and the diagnostic arms of the traced run.

None of this depends on the workload being traced: each microbench builds
its own small state from a fixed seed, runs a fixed number of calls
through one layer's public functions with tracing off, and reports
nanoseconds per call (or items per second).  The arms rerun
``split_quiescent`` with one default moved (shards, metrics) and report a
ratio; defaults stay, so they move no end-to-end metric.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import Callable, Dict, List

from repro.api import (
    GROUP_FLUSH,
    Database,
    FojSpec,
    FojTransformation,
    FuzzyScan,
    Metrics,
    Phase,
    Session,
    SimulatedDisk,
    SplitTransformation,
    SYNC_STRATEGIES,
    TableSchema,
    TransactionAbortedError,
    TransformOptions,
    bulk_load,
)
from repro.concurrency import LockManager, LockMode, record_resource
from repro.wal import LogManager, UpdateRecord

from benchmarks.wallclock.config import Sizes
from benchmarks.wallclock.workloads import (
    SPLIT_SCHEMA,
    SplitQuiescent,
    rep_rng,
    run_rep,
    split_source_rows,
    split_spec,
)

clock_ns = time.perf_counter_ns

#: Calls per microbench (``--quick`` makes fewer); rows of the tables
#: they run against; records per appended batch.
CALLS = 20_000
QUICK_CALLS = 1_000
ROWS = 10_000
BATCH = 64


def _per_call_ns(fn: Callable[[], None], calls: int) -> float:
    """Nanoseconds per call of ``fn`` run back to back ``calls`` times."""
    started = clock_ns()
    for _ in range(calls):
        fn()
    return (clock_ns() - started) / calls


def _update_records(n: int) -> List[UpdateRecord]:
    return [UpdateRecord(txn_id=1, table="t", key=(i,),
                         changes={"v": float(i)}, old_values={"v": 0.0})
            for i in range(n)]


def _table_db(rows: int = ROWS) -> Database:
    db = Database()
    db.create_table(TableSchema("t", ["id", "v", "w"], primary_key=["id"]))
    bulk_load(db, "t", [{"id": i, "v": 0.0, "w": i % 97}
                        for i in range(rows)])
    return db


def wal_micro(calls: int) -> Dict[str, float]:
    records = iter(_update_records(calls))
    log = LogManager()
    append_ns = _per_call_ns(lambda: log.append(next(records)), calls)

    batches = [_update_records(BATCH) for _ in range(calls // BATCH)]
    log = LogManager()
    started = clock_ns()
    for batch in batches:
        log.append_batch(batch)
    batch_ns = (clock_ns() - started) / (len(batches) * BATCH)

    started = clock_ns()
    scanned = 0
    for low in range(1, len(log) - BATCH, BATCH):
        scanned += len(log.records_slice(low, low + BATCH - 1))
    slice_per_s = scanned / ((clock_ns() - started) / 1e9)

    disk = SimulatedDisk()
    durable = LogManager(flush_policy=GROUP_FLUSH, disk=disk)
    header = disk.size
    durable.append_batch(_update_records(BATCH * 16))
    durable.flush()
    return {"wal.append_ns": append_ns,
            "wal.append_batch_ns_per_record": batch_ns,
            "wal.slice_records_per_s": slice_per_s,
            "wal.frame_bytes_per_record":
                (disk.size - header) / (BATCH * 16)}


def concurrency_micro(calls: int) -> Dict[str, float]:
    locks = LockManager()
    resources = iter([record_resource(1, (i,)) for i in range(calls)])
    txn_ids = iter(range(1, calls + 1))
    # Ten locks per owner, like a transaction; owners released in turn.
    acquire_ns = _per_call_ns(
        lambda: locks.acquire(1 + (next(txn_ids) - 1) // 10,
                              next(resources), LockMode.X), calls)
    owners = iter(range(1, calls // 10 + 1))
    release_ns = _per_call_ns(lambda: locks.release_all(next(owners)),
                              calls // 10)
    return {"concurrency.acquire_ns": acquire_ns,
            "concurrency.release_all_ns": release_ns}


def storage_micro(calls: int) -> Dict[str, float]:
    rng = random.Random(1)
    db = _table_db()
    table = db.table("t")
    index = table.create_index("by_w", ("w",))
    primary = next(iter(table.indexes.values()))
    # Uniform keys over 10k: the 256-entry probe cache mostly misses.
    keys = iter([(rng.randrange(ROWS),) for _ in range(calls)])
    lookup_ns = _per_call_ns(lambda: primary.lookup(next(keys)), calls)
    images = iter([({"w": i % 97}, ROWS + i) for i in range(calls)])
    insert_ns = _per_call_ns(lambda: index.insert(*next(images)), calls)

    fresh = iter([{"id": ROWS + i, "v": 0.0, "w": 1} for i in range(calls)])
    insert_row_ns = _per_call_ns(lambda: table.insert_row(next(fresh)), calls)
    rowids = list(table.rows)
    picks = iter([(rng.choice(rowids), {"v": rng.random()})
                  for _ in range(calls)])
    update_ns = _per_call_ns(lambda: table.update_rowid(*next(picks)), calls)
    return {"storage.index_lookup_ns": lookup_ns,
            "storage.index_insert_ns": insert_ns,
            "storage.insert_row_ns": insert_row_ns,
            "storage.update_rowid_ns": update_ns}


def engine_micro(calls: int) -> Dict[str, float]:
    rng = random.Random(2)
    db = _table_db()
    keys = [(rng.randrange(ROWS),) for _ in range(calls)]
    update = read = commit = 0
    # Ten operations per transaction, as in the workloads; only the named
    # call is inside each timed pair.
    for start in range(0, calls, 10):
        txn = db.begin()
        for key in keys[start:start + 10]:
            t0 = clock_ns()
            db.update(txn, "t", key, {"v": 1.0})
            t1 = clock_ns()
            db.read(txn, "t", key)
            t2 = clock_ns()
            update += t1 - t0
            read += t2 - t1
        t0 = clock_ns()
        db.commit(txn)
        commit += clock_ns() - t0
    scan = FuzzyScan(db.table("t"), 256)
    started = clock_ns()
    rows = 0
    while not scan.exhausted:
        rows += len(scan.next_chunk())
    return {"engine.update_ns": update / calls,
            "engine.read_ns": read / calls,
            "engine.commit_ns": commit / (calls // 10),
            "engine.fuzzy_chunk_rows_per_s":
                rows / ((clock_ns() - started) / 1e9)}


# -- transformation microbenches ---------------------------------------------------

_SMALL = Sizes().scaled(0.1)


def _small_split_db(rng: random.Random) -> Database:
    db = Database()
    db.create_table(SPLIT_SCHEMA)
    bulk_load(db, "T", split_source_rows(rng, _SMALL))
    return db


def _small_foj_db(rng: random.Random) -> Database:
    n_r, n_s = _SMALL.foj_r_rows, _SMALL.foj_s_rows
    db = Database()
    db.create_table(TableSchema("R", ["a", "b", "c"], primary_key=["a"]))
    db.create_table(TableSchema("S", ["c", "d", "e"], primary_key=["c"]))
    bulk_load(db, "R", [{"a": i, "b": 0.0, "c": rng.randrange(n_s)}
                        for i in range(n_r)])
    bulk_load(db, "S", [{"c": c, "d": 0.0, "e": f"s{c}"}
                        for c in range(n_s)])
    return db


def _propagation_ns_per_record(tf, db: Database,
                               updates: List) -> float:
    """Populate, build a backlog of source updates only, then time the
    steps that propagate it: wall nanoseconds per log record consumed
    (every data record is relevant, so this is the apply path)."""
    while tf.phase in (Phase.CREATED, Phase.PREPARED, Phase.POPULATING):
        tf.step(256)
    for start in range(0, len(updates), 10):
        with Session(db) as session:
            for table, key, changes in updates[start:start + 10]:
                session.update(table, key, changes)
    spent = 0
    while tf.phase is Phase.PROPAGATING:
        started = clock_ns()
        tf.step(64)
        spent += clock_ns() - started
    return spent / tf.stats["propagated_records"]


def transform_micro(calls: int) -> Dict[str, float]:
    rng = random.Random(3)
    n = calls
    db = _small_split_db(rng)
    split_ns = _propagation_ns_per_record(
        SplitTransformation(db, split_spec()), db,
        [("T", (rng.randrange(_SMALL.split_rows),), {"name": rng.random()})
         for _ in range(n)])
    db = _small_foj_db(rng)
    spec = FojSpec.derive(db.table("R").schema, db.table("S").schema,
                          target_name="T", join_attr_r="c", join_attr_s="c")
    foj_ns = _propagation_ns_per_record(
        FojTransformation(db, spec), db,
        [("R", (rng.randrange(_SMALL.foj_r_rows),), {"b": rng.random()})
         if i % 2 else
         ("S", (rng.randrange(_SMALL.foj_s_rows),), {"d": rng.random()})
         for i in range(n)])
    return {"transform.apply_ns_per_record.split": split_ns,
            "transform.apply_ns_per_record.foj": foj_ns}


def sync_window_ms(strategy: str) -> float:
    """Wall time of the steps taken in SYNCHRONIZING by one small split
    that meets one open transaction holding five source locks."""
    rng = random.Random(4)
    db = _small_split_db(rng)
    storage = "mvcc" if strategy == "version_flip" else "latch"
    tf = SplitTransformation(db, split_spec(), options=TransformOptions(
        sync=strategy, storage=storage))
    txn = db.begin()
    for key in range(5):
        db.update(txn, "T", (key,), {"name": -1.0})
    window_ns = polls = 0
    while not tf.done:
        synchronizing = tf.phase is Phase.SYNCHRONIZING
        started = clock_ns()
        tf.step(64)
        if synchronizing:
            window_ns += clock_ns() - started
            polls += 1
        # Strategies that wait for the open transaction get it ended
        # after a few polls; under non-blocking abort it is doomed.
        if txn is not None and (polls >= 3 or
                                tf.phase in (Phase.BACKGROUND, Phase.DONE)):
            try:
                db.commit(txn)
            except TransactionAbortedError:
                pass
            txn = None
    return window_ns / 1e6


def micro_metrics(calls: int = CALLS) -> Dict[str, float]:
    """Every workload-independent per-layer metric."""
    out: Dict[str, float] = {}
    for part in (wal_micro, concurrency_micro, storage_micro, engine_micro,
                 transform_micro):
        gc.collect()    # the previous part's garbage is not this part's pause
        out.update(part(calls))
    for strategy in sorted(SYNC_STRATEGIES):
        out[f"transform.sync_window_ms.{strategy}"] = sync_window_ms(strategy)
    return out


# -- diagnostic arms on split_quiescent ------------------------------------------------

ARM_REPS = 3


def _arm_median_s(seed: int, sizes: Sizes, options) -> float:
    times = []
    for rep in range(ARM_REPS):
        arm = SplitQuiescent(rep_rng(seed, "split_quiescent.arm", rep), sizes)
        arm.options = options
        times.append(run_rep(arm)["migrate_s"])
    return statistics.median(times)


def arm_metrics(seed: int, sizes: Sizes) -> Dict[str, float]:
    """``shards=4`` against ``shards=1`` and ``Metrics(enabled=True)``
    against the null registry, three repetitions each on the same inputs."""
    base = _arm_median_s(seed, sizes, None)
    sharded = _arm_median_s(seed, sizes, TransformOptions(shards=4))
    observed = _arm_median_s(
        seed, sizes, TransformOptions(metrics=Metrics(enabled=True)))
    return {"shard.wall_speedup_4": base / sharded,
            "obs.enabled_overhead_ratio": observed / base}
