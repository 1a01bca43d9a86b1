"""Tests for the horizontal partition and merge transformations (§7
extensions)."""

import random

import pytest

from repro import (
    AttrPredicate,
    Database,
    InconsistentDataError,
    MergeSpec,
    MergeTransformation,
    PartitionSpec,
    PartitionTransformation,
    Phase,
    SchemaError,
    Session,
    SyncStrategy,
    TableSchema,
    restart,
    restart_from_disk,
)
from repro.wal import LogManager, SimulatedDisk
from repro.relational import merge_rows, partition_rows, rows_equal

from tests.conftest import values_of
from tests.model import check_model, seeded
from repro.api import TransformOptions

SCHEMA = TableSchema("orders", ["oid", "region", "amount"],
                     primary_key=["oid"])


def spec_for(db):
    return PartitionSpec("orders", "orders_eu", "orders_row",
                         predicate=AttrPredicate("region", "==", "eu"))


def make_db(n=24, seed=1, log=None):
    rng = random.Random(seed)
    db = Database(log=log)
    db.create_table(SCHEMA)
    with Session(db) as s:
        for i in range(n):
            s.insert("orders", {"oid": i,
                                "region": rng.choice(["eu", "us", "asia"]),
                                "amount": i * 10})
    return db


# ---------------------------------------------------------------------------
# Partition
# ---------------------------------------------------------------------------


def test_partition_quiescent_matches_oracle():
    db = make_db()
    spec = spec_for(db)
    t_rows = values_of(db, "orders")
    PartitionTransformation(db, spec).run()
    a_rows, b_rows = partition_rows(spec, t_rows)
    assert rows_equal(values_of(db, "orders_eu"), a_rows)
    assert rows_equal(values_of(db, "orders_row"), b_rows)
    assert set(db.catalog.table_names()) == {"orders_eu", "orders_row"}


def test_partition_targets_share_source_schema():
    db = make_db()
    tf = PartitionTransformation(db, spec_for(db))
    tf.prepare()
    assert db.table("orders_eu").schema.attribute_names == \
        SCHEMA.attribute_names
    tf.abort()


def test_partition_update_moves_row_between_sides():
    db = make_db(n=4)
    spec = spec_for(db)
    tf = PartitionTransformation(db, spec,
                                 options=TransformOptions(sync=SyncStrategy.NONBLOCKING_ABORT))
    # Populate + first propagation.
    while tf.phase is not Phase.PROPAGATING:
        tf.step(4096)
    with Session(db) as s:
        s.update("orders", (0,), {"region": "eu"})
        s.update("orders", (1,), {"region": "us"})
    tf.run()
    assert db.table("orders_eu").get((0,)) is not None
    assert db.table("orders_row").get((0,)) is None
    assert db.table("orders_row").get((1,)) is not None


@pytest.mark.parametrize("seed", range(8))
def test_partition_interleaved_converges(seed):
    check_model(seeded("partition", seed))


def test_partition_recovery_rebuilds_after_swap():
    db = make_db()
    spec = spec_for(db)
    t_rows = values_of(db, "orders")
    PartitionTransformation(db, spec).run()
    recovered = restart(db.log)
    a_rows, b_rows = partition_rows(spec, t_rows)
    assert rows_equal(values_of(recovered, "orders_eu"), a_rows)
    assert rows_equal(values_of(recovered, "orders_row"), b_rows)


def test_a_callable_predicate_is_refused_before_anything_is_logged():
    """No frame holds a lambda.  A partition over one used to complete
    its handover on a durable database, and then every later commit
    raised ``FrameCodecError`` flushing the swap record.  The spec
    refuses it; an ``AttrPredicate`` partition of a durable database
    keeps committing and restarts."""
    disk = SimulatedDisk()
    db = make_db(log=LogManager(disk=disk))
    logged = db.log.end_lsn
    with pytest.raises(TypeError):
        PartitionSpec("orders", "orders_eu", "orders_row",
                      predicate=lambda r: r["region"] == "eu")
    assert db.log.end_lsn == logged
    spec = spec_for(db)
    t_rows = values_of(db, "orders")
    tf = PartitionTransformation(db, spec)
    tf.run()
    assert tf.phase is Phase.DONE
    new_row = {"oid": 999, "region": "us", "amount": 1}
    with Session(db) as s:
        s.insert("orders_row", new_row)
    recovered = restart_from_disk(disk)
    a_rows, b_rows = partition_rows(spec, t_rows)
    assert rows_equal(values_of(recovered, "orders_eu"), a_rows)
    assert rows_equal(values_of(recovered, "orders_row"), b_rows + [new_row])


# ---------------------------------------------------------------------------
# Merge
# ---------------------------------------------------------------------------


def make_merge_db(n=12, seed=1):
    db = Database()
    db.create_table(TableSchema("a", ["k", "v"], primary_key=["k"]))
    db.create_table(TableSchema("b", ["k", "v"], primary_key=["k"]))
    with Session(db) as s:
        for i in range(n):
            s.insert("a", {"k": i, "v": f"a{i}"})
            s.insert("b", {"k": 100 + i, "v": f"b{i}"})
    return db


def test_merge_quiescent_matches_oracle():
    db = make_merge_db()
    a_rows, b_rows = values_of(db, "a"), values_of(db, "b")
    MergeTransformation(db, MergeSpec("a", "b", "merged")).run()
    expected = merge_rows(a_rows, b_rows, lambda v: (v["k"],))
    assert rows_equal(values_of(db, "merged"), expected)
    assert db.catalog.table_names() == ["merged"]


def test_merge_rejects_union_incompatible():
    db = Database()
    db.create_table(TableSchema("a", ["k", "v"], primary_key=["k"]))
    db.create_table(TableSchema("b", ["k", "w"], primary_key=["k"]))
    with pytest.raises(SchemaError):
        MergeTransformation(db, MergeSpec("a", "b", "m"))


def test_merge_detects_key_collision():
    db = Database()
    db.create_table(TableSchema("a", ["k", "v"], primary_key=["k"]))
    db.create_table(TableSchema("b", ["k", "v"], primary_key=["k"]))
    with Session(db) as s:
        s.insert("a", {"k": 1, "v": "a"})
        s.insert("b", {"k": 1, "v": "b"})  # overlap
    tf = MergeTransformation(db, MergeSpec("a", "b", "m"))
    with pytest.raises(InconsistentDataError):
        tf.run()


def test_merge_oracle_detects_collision():
    with pytest.raises(InconsistentDataError):
        merge_rows([{"k": 1}], [{"k": 1}], lambda v: (v["k"],))


@pytest.mark.parametrize("seed", range(6))
def test_merge_interleaved_converges(seed):
    check_model(seeded("merge", seed))


def test_merge_recovery_rebuilds_after_swap():
    db = make_merge_db()
    a_rows, b_rows = values_of(db, "a"), values_of(db, "b")
    MergeTransformation(db, MergeSpec("a", "b", "merged")).run()
    recovered = restart(db.log)
    expected = merge_rows(a_rows, b_rows, lambda v: (v["k"],))
    assert rows_equal(values_of(recovered, "merged"), expected)


def test_partition_then_merge_roundtrip():
    """Partition and merge are inverses (up to table names)."""
    db = make_db()
    spec = spec_for(db)
    t_rows = values_of(db, "orders")
    PartitionTransformation(db, spec).run()
    MergeTransformation(db, MergeSpec("orders_eu", "orders_row",
                                      "orders")).run()
    assert rows_equal(values_of(db, "orders"), t_rows)


def test_merge_collision_reaching_propagation_raises_and_aborts_cleanly():
    """A key committed into B while A holds it, after population: the
    insert rule finds the key present and older -- two sources share it
    -- and raises (the reference would too), instead of keeping A's row
    and dropping B's.  Aborting then leaves both sources and no target."""
    db = make_merge_db(n=4)
    a_rows = values_of(db, "a")
    tf = MergeTransformation(db, MergeSpec("a", "b", "merged"))
    while tf.phase is not Phase.PROPAGATING:
        tf.step(4096)
    with Session(db) as s:
        s.insert("b", {"k": 1, "v": "dup"})
    b_rows = values_of(db, "b")
    with pytest.raises(InconsistentDataError) as excinfo:
        tf.run()
    assert excinfo.value.split_values == ((1,),)
    with pytest.raises(InconsistentDataError):
        merge_rows(a_rows, b_rows, lambda v: (v["k"],))
    tf.abort()
    assert tf.phase is Phase.ABORTED
    assert db.catalog.table_names() == ["a", "b"]
    assert rows_equal(values_of(db, "a"), a_rows)
    assert rows_equal(values_of(db, "b"), b_rows)
