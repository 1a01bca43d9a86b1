"""Property-based tests (hypothesis) for the core invariants.

The central property is Theorem 1's consequence: for ANY serializable
history of inserts/updates/deletes over the source tables -- interleaved
arbitrarily with transformation steps, including transaction aborts (CLRs)
-- the transformed tables converge to the oracle operator applied to the
final source state.
"""

import random

from hypothesis import given, settings, strategies as st

from repro import (
    Database,
    FojSpec,
    FojTransformation,
    Phase,
    Session,
    SplitSpec,
    SplitTransformation,
    TableSchema,
    TransformOptions,
)
from repro.common.errors import DuplicateKeyError, NoSuchRowError
from repro.engine.fuzzy import apply_log_with_lsn_guard, fuzzy_copy
from repro.relational import full_outer_join, rows_equal, split
from repro.storage import Table

from tests.conftest import table_counters, values_of

# Operation scripts: (kind, arg1, arg2, budget) tuples drive both the
# workload and the transformation stepping deterministically.

op_strategy = st.tuples(
    st.sampled_from([
        "ins_r", "del_r", "upd_r_join", "upd_r_other",
        "ins_s", "del_s", "upd_s_other",
        "abort_ins_r", "abort_upd_r",
    ]),
    st.integers(0, 39),       # key selector
    st.integers(0, 9),        # join value selector
    st.integers(1, 24),       # transformation step budget
)


def build_foj_db(script):
    db = Database()
    db.create_table(TableSchema("R", ["a", "b", "c"], primary_key=["a"]))
    db.create_table(TableSchema("S", ["c", "d"], primary_key=["c"]))
    with Session(db) as s:
        for i in range(12):
            s.insert("R", {"a": i, "b": i, "c": i % 10})
        for c in range(0, 10, 2):
            s.insert("S", {"c": c, "d": f"d{c}"})
    return db


def apply_foj_op(db, kind, key, join_value, counter):
    try:
        if kind == "ins_r":
            with Session(db) as s:
                s.insert("R", {"a": 100 + counter, "b": counter,
                               "c": join_value})
        elif kind == "del_r":
            with Session(db) as s:
                s.delete("R", (key % 12,))
        elif kind == "upd_r_join":
            with Session(db) as s:
                s.update("R", (key % 12,), {"c": join_value})
        elif kind == "upd_r_other":
            with Session(db) as s:
                s.update("R", (key % 12,), {"b": f"v{counter}"})
        elif kind == "ins_s":
            with Session(db) as s:
                s.insert("S", {"c": join_value, "d": f"new{counter}"})
        elif kind == "del_s":
            with Session(db) as s:
                s.delete("S", (join_value,))
        elif kind == "upd_s_other":
            with Session(db) as s:
                s.update("S", (join_value,), {"d": f"u{counter}"})
        elif kind == "abort_ins_r":
            txn = db.begin()
            try:
                db.insert(txn, "R", {"a": 200 + counter, "b": 0,
                                     "c": join_value})
            finally:
                db.abort(txn)
        elif kind == "abort_upd_r":
            txn = db.begin()
            try:
                db.update(txn, "R", (key % 12,), {"c": join_value,
                                                  "b": "aborted"})
            finally:
                db.abort(txn)
    except (NoSuchRowError, DuplicateKeyError):
        pass


@given(st.lists(op_strategy, min_size=0, max_size=40))
@settings(max_examples=60, deadline=None)
def test_foj_converges_for_any_history(script):
    db = build_foj_db(script)
    spec = FojSpec.derive(db.table("R").schema, db.table("S").schema,
                          "T", "c", "c")
    tf = FojTransformation(db, spec)
    for i, (kind, key, join_value, budget) in enumerate(script):
        apply_foj_op(db, kind, key, join_value, i)
        if not tf.done and tf.phase is not Phase.SYNCHRONIZING:
            tf.step(budget)
    r_rows, s_rows = values_of(db, "R"), values_of(db, "S")
    tf.run()
    assert rows_equal(values_of(db, "T"),
                      full_outer_join(spec, r_rows, s_rows))


split_op_strategy = st.tuples(
    st.sampled_from(["ins", "del", "move", "upd_name", "abort_move"]),
    st.integers(0, 39),
    st.integers(0, 5),
    st.integers(1, 24),
)


@given(st.lists(split_op_strategy, min_size=0, max_size=40))
@settings(max_examples=60, deadline=None)
def test_split_converges_for_any_fd_consistent_history(script):
    db = Database()
    db.create_table(TableSchema("T", ["id", "name", "zip", "city"],
                                primary_key=["id"]))
    city = {z: f"C{z}" for z in range(6)}
    with Session(db) as s:
        for i in range(12):
            z = i % 6
            s.insert("T", {"id": i, "name": i, "zip": z, "city": city[z]})
    spec = SplitSpec.derive(db.table("T").schema, "Tr", "Ts", "zip",
                            s_attrs=["city"])
    tf = SplitTransformation(db, spec)
    for i, (kind, key, z, budget) in enumerate(script):
        try:
            if kind == "ins":
                with Session(db) as s:
                    s.insert("T", {"id": 100 + i, "name": i, "zip": z,
                                   "city": city[z]})
            elif kind == "del":
                with Session(db) as s:
                    s.delete("T", (key % 12,))
            elif kind == "move":
                with Session(db) as s:
                    s.update("T", (key % 12,),
                             {"zip": z, "city": city[z]})
            elif kind == "upd_name":
                with Session(db) as s:
                    s.update("T", (key % 12,), {"name": f"n{i}"})
            elif kind == "abort_move":
                txn = db.begin()
                try:
                    db.update(txn, "T", (key % 12,),
                              {"zip": z, "city": city[z]})
                finally:
                    db.abort(txn)
        except (NoSuchRowError, DuplicateKeyError):
            pass
        if not tf.done and tf.phase is not Phase.SYNCHRONIZING:
            tf.step(budget)
    t_rows = values_of(db, "T")
    tf.run()
    r_rows, s_rows, counters, _ = split(spec, t_rows)
    assert rows_equal(values_of(db, "Tr"), r_rows)
    assert rows_equal(values_of(db, "Ts"), s_rows)
    assert table_counters(db, "Ts") == counters


@given(st.lists(op_strategy, min_size=0, max_size=30),
       st.integers(0, 10))
@settings(max_examples=40, deadline=None)
def test_fuzzy_copy_converges_for_any_history(script, chunk_offset):
    """Fuzzy copy + LSN-guarded redo equals the source, regardless of the
    operations racing the scan."""
    db = build_foj_db(script)
    target = Table(db.table("R").schema.rename("copy"))
    from repro.engine.fuzzy import FuzzyScan
    from repro.wal.records import FuzzyMarkRecord
    active = [t.txn_id for t in db.txns.active_on(["R"])]
    mark_lsn = db.log.append(FuzzyMarkRecord(transform_id="x",
                                             phase="begin"))
    scan = FuzzyScan(db.table("R"), chunk_size=2 + chunk_offset)
    i = 0
    while not scan.exhausted:
        for row in scan.next_chunk():
            target.insert_row(dict(row.values), lsn=row.lsn)
        if i < len(script):
            kind, key, join_value, _ = script[i]
            apply_foj_op(db, kind, key, join_value, i)
            i += 1
    for k in range(i, len(script)):
        kind, key, join_value, _ = script[k]
        apply_foj_op(db, kind, key, join_value, 1000 + k)
    apply_log_with_lsn_guard(db, "R", target, from_lsn=1)
    assert rows_equal([dict(r.values) for r in target.scan()],
                      values_of(db, "R"))


@given(st.lists(op_strategy, min_size=1, max_size=25))
@settings(max_examples=40, deadline=None)
def test_recovery_preserves_committed_state(script):
    """Restarting from the log at any point reproduces exactly the
    committed source state (losers rolled back)."""
    from repro import restart
    db = build_foj_db(script)
    for i, (kind, key, join_value, _) in enumerate(script):
        apply_foj_op(db, kind, key, join_value, i)
    # Snapshot the committed state, then leave one loser hanging.
    expected_r = values_of(db, "R")
    txn = db.begin()
    try:
        db.update(txn, "R", (0,), {"b": "loser"})
    except NoSuchRowError:
        pass
    recovered = restart(db.log)
    assert rows_equal(values_of(recovered, "R"), expected_r)
    assert rows_equal(values_of(recovered, "S"), values_of(db, "S"))


@given(st.lists(st.tuples(st.integers(1, 6), st.integers(0, 5),
                          st.booleans()),
                min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_lock_manager_never_grants_incompatible_pairs(script):
    """Whatever the acquire/release sequence, the granted set on every
    resource stays mutually compatible."""
    from repro.common.errors import DeadlockError, LockWaitError
    from repro.concurrency import LockManager, LockMode
    from repro.concurrency.locks import compatible
    lm = LockManager()
    for txn, key, exclusive in script:
        resource = ("rec", 1, (key,))
        mode = LockMode.X if exclusive else LockMode.S
        try:
            lm.acquire(txn, resource, mode)
        except (LockWaitError, DeadlockError):
            if exclusive and key % 2:
                lm.release_all(txn)  # abort sometimes
        for res_key in range(6):
            holders = lm.holders(("rec", 1, (res_key,)))
            for i, a in enumerate(holders):
                for b in holders[i + 1:]:
                    assert compatible(a.mode, a.origin, b.mode, b.origin)


partition_op_strategy = st.tuples(
    st.sampled_from(["ins", "del", "move", "upd"]),
    st.integers(0, 39),
    st.integers(0, 2),
    st.integers(1, 24),
)


@given(st.lists(partition_op_strategy, min_size=0, max_size=40))
@settings(max_examples=50, deadline=None)
def test_partition_converges_for_any_history(script):
    """Horizontal partition (§7 extension): for any history, including
    rows migrating between partitions, the final A/B equal the oracle."""
    from repro import PartitionSpec, PartitionTransformation
    from repro.transform.partition import partition_rows
    db = Database()
    db.create_table(TableSchema("T", ["id", "grp", "v"],
                                primary_key=["id"]))
    with Session(db) as s:
        for i in range(12):
            s.insert("T", {"id": i, "grp": i % 3, "v": i})
    spec = PartitionSpec("T", "A", "B",
                         predicate=lambda r: r["grp"] == 0,
                         predicate_desc="grp == 0")
    tf = PartitionTransformation(db, spec)
    for i, (kind, key, grp, budget) in enumerate(script):
        try:
            if kind == "ins":
                with Session(db) as s:
                    s.insert("T", {"id": 100 + i, "grp": grp, "v": i})
            elif kind == "del":
                with Session(db) as s:
                    s.delete("T", (key % 12,))
            elif kind == "move":
                with Session(db) as s:
                    s.update("T", (key % 12,), {"grp": grp})
            elif kind == "upd":
                with Session(db) as s:
                    s.update("T", (key % 12,), {"v": f"v{i}"})
        except (NoSuchRowError, DuplicateKeyError):
            pass
        if not tf.done and tf.phase is not Phase.SYNCHRONIZING:
            tf.step(budget)
    t_rows = values_of(db, "T")
    tf.run()
    a_rows, b_rows = partition_rows(spec, t_rows)
    assert rows_equal(values_of(db, "A"), a_rows)
    assert rows_equal(values_of(db, "B"), b_rows)


@given(st.lists(st.tuples(st.sampled_from(["ins_a", "ins_b", "del_a",
                                           "upd_b"]),
                          st.integers(0, 39), st.integers(1, 24)),
                min_size=0, max_size=40))
@settings(max_examples=50, deadline=None)
def test_merge_converges_for_any_history(script):
    """Horizontal merge (§7 extension): disjoint-key sources converge to
    their union."""
    from repro import MergeSpec, MergeTransformation
    from repro.transform.partition import merge_rows
    db = Database()
    db.create_table(TableSchema("A", ["k", "v"], primary_key=["k"]))
    db.create_table(TableSchema("B", ["k", "v"], primary_key=["k"]))
    with Session(db) as s:
        for i in range(8):
            s.insert("A", {"k": i, "v": f"a{i}"})
            s.insert("B", {"k": 100 + i, "v": f"b{i}"})
    tf = MergeTransformation(db, MergeSpec("A", "B", "M"))
    next_a, next_b = [20], [120]
    for i, (kind, key, budget) in enumerate(script):
        try:
            if kind == "ins_a":
                with Session(db) as s:
                    s.insert("A", {"k": next_a[0], "v": "na"})
                    next_a[0] += 1
            elif kind == "ins_b":
                with Session(db) as s:
                    s.insert("B", {"k": next_b[0], "v": "nb"})
                    next_b[0] += 1
            elif kind == "del_a":
                with Session(db) as s:
                    s.delete("A", (key % 20,))
            elif kind == "upd_b":
                with Session(db) as s:
                    s.update("B", (100 + key % 20,), {"v": f"u{i}"})
        except (NoSuchRowError, DuplicateKeyError):
            pass
        if not tf.done and tf.phase is not Phase.SYNCHRONIZING:
            tf.step(budget)
    a_rows, b_rows = values_of(db, "A"), values_of(db, "B")
    tf.run()
    expected = merge_rows(a_rows, b_rows, lambda v: (v["k"],))
    assert rows_equal(values_of(db, "M"), expected)


# ---------------------------------------------------------------------------
# Sharded pipeline equivalence (repro.shard)
# ---------------------------------------------------------------------------


def _run_foj_pipeline(script, shards, budget=None, storage="latch"):
    """Drive one FOJ pipeline over ``script``; returns (T rows, oracle).

    The op sequence is fixed by the script, so two pipelines run over the
    same script see identical workloads -- the only degrees of freedom
    are the shard count, the storage backend (``storage="mvcc"`` selects
    snapshot population plus the version-flip synchronization) and
    ``budget``, which replaces the script's step budgets when given.
    """
    db = build_foj_db(script)
    spec = FojSpec.derive(db.table("R").schema, db.table("S").schema,
                          "T", "c", "c")
    options = TransformOptions(shards=shards)
    if storage == "mvcc":
        options = options.evolve(sync="version_flip", storage="mvcc")
    tf = FojTransformation(db, spec, options=options)
    for i, (kind, key, join_value, step_budget) in enumerate(script):
        apply_foj_op(db, kind, key, join_value, i)
        if not tf.done and tf.phase is not Phase.SYNCHRONIZING:
            tf.step(budget or step_budget)
    r_rows, s_rows = values_of(db, "R"), values_of(db, "S")
    tf.run()
    return values_of(db, "T"), full_outer_join(spec, r_rows, s_rows)


@given(st.lists(op_strategy, min_size=0, max_size=40),
       st.sampled_from([2, 3, 7]))
@settings(max_examples=40, deadline=None)
def test_sharded_foj_identical_to_sequential(script, shards):
    """The N-shard FOJ pipeline produces row-for-row the same target as
    the sequential (N=1) pipeline under any concurrent history."""
    base_rows, base_oracle = _run_foj_pipeline(script, shards=1)
    sharded_rows, sharded_oracle = _run_foj_pipeline(script, shards=shards)
    assert rows_equal(base_oracle, sharded_oracle)  # same final sources
    assert rows_equal(sharded_rows, base_rows)
    assert rows_equal(sharded_rows, sharded_oracle)


def _run_split_pipeline(script, shards, budget=None, storage="latch"):
    """Drive one split pipeline over ``script``; returns
    (Tr rows, Ts rows, Ts counters, final T rows).  ``budget`` as in
    :func:`_run_foj_pipeline`."""
    db = Database()
    db.create_table(TableSchema("T", ["id", "name", "zip", "city"],
                                primary_key=["id"]))
    city = {z: f"C{z}" for z in range(6)}
    with Session(db) as s:
        for i in range(12):
            z = i % 6
            s.insert("T", {"id": i, "name": i, "zip": z, "city": city[z]})
    spec = SplitSpec.derive(db.table("T").schema, "Tr", "Ts", "zip",
                            s_attrs=["city"])
    options = TransformOptions(shards=shards)
    if storage == "mvcc":
        options = options.evolve(sync="version_flip", storage="mvcc")
    tf = SplitTransformation(db, spec, options=options)
    for i, (kind, key, z, step_budget) in enumerate(script):
        try:
            if kind == "ins":
                with Session(db) as s:
                    s.insert("T", {"id": 100 + i, "name": i, "zip": z,
                                   "city": city[z]})
            elif kind == "del":
                with Session(db) as s:
                    s.delete("T", (key % 12,))
            elif kind == "move":
                with Session(db) as s:
                    s.update("T", (key % 12,), {"zip": z, "city": city[z]})
            elif kind == "upd_name":
                with Session(db) as s:
                    s.update("T", (key % 12,), {"name": f"n{i}"})
            elif kind == "abort_move":
                txn = db.begin()
                try:
                    db.update(txn, "T", (key % 12,),
                              {"zip": z, "city": city[z]})
                finally:
                    db.abort(txn)
        except (NoSuchRowError, DuplicateKeyError):
            pass
        if not tf.done and tf.phase is not Phase.SYNCHRONIZING:
            tf.step(budget or step_budget)
    t_rows = values_of(db, "T")
    tf.run()
    return (values_of(db, "Tr"), values_of(db, "Ts"),
            table_counters(db, "Ts"), t_rows)


@given(st.lists(split_op_strategy, min_size=0, max_size=40),
       st.sampled_from([2, 3, 7]))
@settings(max_examples=40, deadline=None)
def test_sharded_split_identical_to_sequential(script, shards):
    """The N-shard split pipeline matches the sequential pipeline row for
    row -- including the S-table reference counters, whose commutative
    updates are what makes per-key routing sound."""
    base_r, base_s, base_counters, base_t = \
        _run_split_pipeline(script, shards=1)
    shard_r, shard_s, shard_counters, shard_t = \
        _run_split_pipeline(script, shards=shards)
    assert rows_equal(base_t, shard_t)  # same final sources
    assert rows_equal(shard_r, base_r)
    assert rows_equal(shard_s, base_s)
    assert shard_counters == base_counters


@given(st.lists(op_strategy, min_size=0, max_size=30))
@settings(max_examples=40, deadline=None)
def test_materialized_view_converges_for_any_history(script):
    """§7 extension: a published FOJ view, maintained deferred, always
    refreshes to the oracle join of the live sources."""
    from repro import MaterializedFojView
    db = build_foj_db(script)
    spec = FojSpec.derive(db.table("R").schema, db.table("S").schema,
                          "V", "c", "c")
    view = MaterializedFojView(db, spec)
    half = len(script) // 2
    for i, (kind, key, join_value, budget) in enumerate(script[:half]):
        apply_foj_op(db, kind, key, join_value, i)
        if not view.published and view.phase is not Phase.SYNCHRONIZING:
            view.step(budget)
    view.run()
    for i, (kind, key, join_value, budget) in enumerate(script[half:]):
        apply_foj_op(db, kind, key, join_value, 500 + i)
        view.maintain(budget)
    view.refresh()
    assert rows_equal(
        values_of(db, "V"),
        full_outer_join(spec, values_of(db, "R"), values_of(db, "S")))


# ---------------------------------------------------------------------------
# Step-budget equivalence (the one throttle)
# ---------------------------------------------------------------------------


@given(st.lists(op_strategy, min_size=0, max_size=40),
       st.sampled_from([1, 7, 64]),
       st.sampled_from([1, 3]))
@settings(max_examples=30, deadline=None)
def test_step_budget_foj_identical_to_run(script, budget, shards):
    """Every step budget converges row-for-row to what the script's
    budgets reach under the same history, sequential and sharded alike:
    budget 1 cuts one-record slices and chunks, 64 two full
    ``PROPAGATION_SLICE`` slices; grouping never reorders records."""
    base_rows, base_oracle = _run_foj_pipeline(script, shards)
    rows, oracle = _run_foj_pipeline(script, shards, budget=budget)
    assert rows_equal(base_oracle, oracle)  # same final sources
    assert rows_equal(rows, base_rows)
    assert rows_equal(rows, oracle)


@given(st.lists(split_op_strategy, min_size=0, max_size=40),
       st.sampled_from([1, 7, 64]),
       st.sampled_from([1, 3]))
@settings(max_examples=30, deadline=None)
def test_step_budget_split_identical_to_run(script, budget, shards):
    """Same equivalence for the split pipeline, including the S-table
    reference counters Rules 8--11 maintain."""
    base_r, base_s, base_counters, base_t = \
        _run_split_pipeline(script, shards)
    r, s, counters, t = _run_split_pipeline(script, shards, budget=budget)
    assert rows_equal(base_t, t)  # same final sources
    assert rows_equal(r, base_r)
    assert rows_equal(s, base_s)
    assert counters == base_counters


# ---------------------------------------------------------------------------
# MVCC snapshot backend equivalence (repro.storage.mvcc)
# ---------------------------------------------------------------------------


@given(st.lists(op_strategy, min_size=0, max_size=40),
       st.sampled_from([1, 3]))
@settings(max_examples=30, deadline=None)
def test_snapshot_foj_identical_to_latch(script, shards):
    """The MVCC snapshot backend (snapshot population + version-flip
    synchronization) converges to row-for-row the same FOJ target as the
    latch design under any concurrent history, sequential and sharded."""
    latch_rows, latch_oracle = _run_foj_pipeline(
        script, shards=shards, storage="latch")
    mvcc_rows, mvcc_oracle = _run_foj_pipeline(
        script, shards=shards, storage="mvcc")
    assert rows_equal(latch_oracle, mvcc_oracle)  # same final sources
    assert rows_equal(mvcc_rows, latch_rows)
    assert rows_equal(mvcc_rows, mvcc_oracle)


@given(st.lists(split_op_strategy, min_size=0, max_size=40),
       st.sampled_from([1, 3]))
@settings(max_examples=30, deadline=None)
def test_snapshot_split_identical_to_latch(script, shards):
    """Same equivalence for the split pipeline, including the S-table
    reference counters."""
    latch_r, latch_s, latch_counters, latch_t = \
        _run_split_pipeline(script, shards=shards, storage="latch")
    mvcc_r, mvcc_s, mvcc_counters, mvcc_t = \
        _run_split_pipeline(script, shards=shards, storage="mvcc")
    assert rows_equal(latch_t, mvcc_t)  # same final sources
    assert rows_equal(mvcc_r, latch_r)
    assert rows_equal(mvcc_s, latch_s)
    assert mvcc_counters == latch_counters


@given(st.lists(op_strategy, min_size=0, max_size=25))
@settings(max_examples=30, deadline=None)
def test_reader_pinned_before_flip_never_observes_new_schema(script):
    """A transaction whose snapshot was pinned before the version flip
    resolves names through the frozen catalog epoch: it keeps reading the
    retired source schema and can never see the published target -- for
    any workload history around the flip."""
    from repro.common.errors import NoSuchTableError
    db = build_foj_db(script)
    spec = FojSpec.derive(db.table("R").schema, db.table("S").schema,
                          "T", "c", "c")
    tf = FojTransformation(db, spec, options=TransformOptions(
        sync="version_flip", storage="mvcc"))
    for i, (kind, key, join_value, budget) in enumerate(script):
        apply_foj_op(db, kind, key, join_value, i)
        if not tf.done and tf.phase is not Phase.SYNCHRONIZING:
            tf.step(budget)
    # Pin a reader before the flip completes the transformation.
    reader = db.begin()
    assert db.catalog.version == 0
    r_keys = [dict(v) for v in values_of(db, "R")]
    tf.run()
    assert db.catalog.version == 1
    # The pinned reader still resolves the retired pre-flip schema ...
    for values in r_keys[:3]:
        got = db.read(reader, "R", (values["a"],))
        assert got is not None
    # ... and can never observe the new schema, not even by name.
    try:
        db.read(reader, "T", (0,))
        assert False, "pinned reader observed the post-flip schema"
    except NoSuchTableError:
        pass
    db.abort(reader)
    # A transaction begun after the flip sees exactly the new schema.
    fresh = db.begin()
    try:
        db.read(fresh, "R", (0,))
        assert False, "fresh reader observed the retired schema"
    except NoSuchTableError:
        pass
    finally:
        db.abort(fresh)
