"""Tests for the Section 2.4 attribute DDL: add/remove/rename attributes,
online.  Each is a ``retype`` column map published in place, so it is
logged, locked and redone at restart like every other transformation."""

import pytest

from repro import (
    Database,
    Session,
    TableSchema,
    add_attribute,
    remove_attribute,
    rename_attribute,
)
from repro.api import RetypeSpec, RetypeTransformation, TransformOptions
from repro.common.errors import SchemaError
from repro.engine import restart_from_disk
from repro.transform import Phase
from repro.wal import LogManager, SimulatedDisk


def make_db(log=None):
    db = Database(log=log)
    db.create_table(TableSchema("t", ["id", "a", "b"], primary_key=["id"]))
    with Session(db) as s:
        s.insert("t", {"id": 1, "a": "x", "b": "y"})
        s.insert("t", {"id": 2, "a": "z", "b": "w"})
    return db


def rejects(db, ddl, *args):
    """``ddl`` raises SchemaError before it writes any log record."""
    end = db.log.end_lsn
    with pytest.raises(SchemaError):
        ddl(db, "t", *args)
    assert db.log.end_lsn == end


# ---------------------------------------------------------------------------
# add_attribute
# ---------------------------------------------------------------------------


def test_add_attribute_with_default():
    db = make_db()
    add_attribute(db, "t", "c", default=0)
    assert db.table("t").schema.has_attribute("c")
    assert all(r.values["c"] == 0 for r in db.table("t").scan())
    with Session(db) as s:
        s.insert("t", {"id": 3, "a": "q", "b": "r", "c": 9})
        s.update("t", (1,), {"c": 5})
    assert db.table("t").get((1,)).values["c"] == 5


def test_add_attribute_duplicate_rejected():
    db = make_db()
    rejects(db, add_attribute, "a")


# ---------------------------------------------------------------------------
# remove_attribute
# ---------------------------------------------------------------------------


def test_remove_attribute_strips_values():
    db = make_db()
    remove_attribute(db, "t", "b")
    assert db.table("t").schema.attribute_names == ("id", "a")
    assert all("b" not in r.values for r in db.table("t").scan())


def test_remove_attribute_drops_covering_index():
    db = make_db()
    db.table("t").create_index("by_b", ["b"])
    db.table("t").create_index("by_a", ["a"])
    remove_attribute(db, "t", "b")
    assert "by_b" not in db.table("t").indexes
    assert [r.values["id"] for r in db.table("t").lookup("by_a", ("z",))] \
        == [2]


def test_remove_attribute_rejects_key_and_missing():
    db = make_db()
    rejects(db, remove_attribute, "id")
    rejects(db, remove_attribute, "nope")


# ---------------------------------------------------------------------------
# rename_attribute
# ---------------------------------------------------------------------------


def test_rename_attribute_full_roundtrip():
    db = make_db()
    db.table("t").create_index("by_a", ["a"])
    rename_attribute(db, "t", "a", "alpha")
    table = db.table("t")
    assert table.schema.attribute_names == ("id", "alpha", "b")
    assert table.get((1,)).values["alpha"] == "x"
    assert table.index("by_a").attrs == ("alpha",)
    assert [r.values["id"] for r in table.lookup("by_a", ("x",))] == [1]
    with Session(db) as s:
        s.update("t", (1,), {"alpha": "new"})
    assert table.get((1,)).values["alpha"] == "new"


def test_rename_attribute_in_primary_key():
    db = Database()
    db.create_table(TableSchema("t", ["k", "v"], primary_key=["k"]))
    with Session(db) as s:
        s.insert("t", {"k": 1, "v": "a"})
    rename_attribute(db, "t", "k", "key")
    assert db.table("t").schema.primary_key == ("key",)
    assert db.table("t").get((1,)).values["key"] == 1


def test_rename_attribute_validations():
    db = make_db()
    rejects(db, rename_attribute, "nope", "x")
    rejects(db, rename_attribute, "a", "b")


# ---------------------------------------------------------------------------
# durability and old transactions
# ---------------------------------------------------------------------------


def test_attribute_ddl_survives_restart():
    disk = SimulatedDisk()
    db = make_db(LogManager(disk=disk))
    add_attribute(db, "t", "c")
    rename_attribute(db, "t", "b", "bb")
    with Session(db) as s:
        s.update("t", (1,), {"c": 5, "bb": "yy"})
    db.log.flush()
    table = restart_from_disk(disk).table("t")
    assert table.schema.attribute_names == ("id", "a", "bb", "c")
    assert table.get((1,)).values == {"id": 1, "a": "x", "bb": "yy", "c": 5}
    assert table.get((2,)).values == {"id": 2, "a": "z", "bb": "w",
                                      "c": None}


def test_removed_attribute_stays_removed_after_restart():
    disk = SimulatedDisk()
    db = make_db(LogManager(disk=disk))
    remove_attribute(db, "t", "b")
    db.log.flush()
    table = restart_from_disk(disk).table("t")
    assert table.schema.attribute_names == ("id", "a")
    assert all("b" not in r.values for r in table.scan())


def test_old_transaction_writes_through_the_in_place_zombie():
    """Non-blocking commit: a transaction that wrote ``t`` before an
    in-place rename keeps writing the old shape under the old column
    name; its rows reach the published table renamed, while a new
    transaction writes the new shape under the same table name."""
    disk = SimulatedDisk()
    db = make_db(LogManager(disk=disk))
    old = db.begin()
    db.update(old, "t", (1,), {"b": "y1"})
    tf = RetypeTransformation(
        db, RetypeSpec.derive(db.table("t").schema, "t", rename={"b": "bb"}),
        options=TransformOptions(sync="nonblocking_commit"))
    while tf.phase is not Phase.BACKGROUND:
        tf.step(64)
    db.update(old, "t", (1,), {"b": "y2"})
    with Session(db) as s:
        s.update("t", (2,), {"bb": "w2"})
    db.commit(old)
    tf.run()
    rows = {r.values["id"]: r.values for r in db.table("t").scan()}
    assert rows == {1: {"id": 1, "a": "x", "bb": "y2"},
                    2: {"id": 2, "a": "z", "bb": "w2"}}
    assert db.catalog.zombie_names() == []
    db.log.flush()
    recovered = restart_from_disk(disk).table("t")
    assert {r.values["id"]: r.values for r in recovered.scan()} == rows
