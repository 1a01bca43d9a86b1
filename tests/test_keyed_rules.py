"""Lock maps of the one keyed rule engine (retype, partition, merge).

One source key owns one target row, so a source record lock maps to the
target holding the key -- to every target while the key is unknown --
and a target record lock maps to the key in every source, by the
engine's ``source_tables`` (an in-place retype's zombie after
``rename_source``).  Table-driven: each case builds a transformation to
where its maps are read and lists ``(map, table, key, expected)`` rows,
with the expected tables by name.
"""

import pytest

from repro import (
    AttrPredicate,
    Database,
    MergeSpec,
    MergeTransformation,
    PartitionSpec,
    PartitionTransformation,
    Phase,
    RetypeSpec,
    RetypeTransformation,
    Session,
    TableSchema,
    TransformOptions,
)
from repro.transform.keyed import KeyedRuleEngine

SOURCE, TARGET = "targets_of_source_lock", "sources_of_target_lock"


def _db(*tables):
    db = Database()
    for name, rows in tables:
        db.create_table(TableSchema(name, ["k", "v"], primary_key=["k"]))
        with Session(db) as s:
            for row in rows:
                s.insert(name, row)
    return db


def _populated(tf):
    while tf.phase is not Phase.PROPAGATING:
        tf.step(64)
    return tf


def partition():
    db = _db(("t", [{"k": 1, "v": "a"}, {"k": 2, "v": "b"}]))
    tf = _populated(PartitionTransformation(db, PartitionSpec(
        "t", "ta", "tb", predicate=AttrPredicate("v", "==", "a"))))
    return tf, [
        (SOURCE, "t", (1,), [("ta", (1,))]),
        (SOURCE, "t", (2,), [("tb", (2,))]),
        (SOURCE, "t", (9,), [("ta", (9,)), ("tb", (9,))]),
        (SOURCE, "ta", (1,), []),
        (TARGET, "tb", (2,), [("t", (2,))]),
        (TARGET, "t", (2,), []),
    ]


def merge():
    db = _db(("a", [{"k": 1, "v": "a"}]), ("b", [{"k": 2, "v": "b"}]))
    tf = _populated(MergeTransformation(db, MergeSpec("a", "b", "m")))
    return tf, [
        (SOURCE, "b", (2,), [("m", (2,))]),
        (SOURCE, "a", (9,), [("m", (9,))]),
        (TARGET, "m", (1,), [("a", (1,)), ("b", (1,))]),
        (TARGET, "m", (9,), [("a", (9,)), ("b", (9,))]),
    ]


def retype():
    db = _db(("t", [{"k": 1, "v": "1"}]))
    tf = _populated(RetypeTransformation(db, RetypeSpec.derive(
        db.table("t").schema, "t2", attr="v", cast="int")))
    return tf, [
        (SOURCE, "t", (1,), [("t2", (1,))]),
        (SOURCE, "t", (9,), [("t2", (9,))]),
        (TARGET, "t2", (1,), [("t", (1,))]),
    ]


def retype_in_place():
    """Past the swap an old transaction keeps the source alive as the
    zombie ``t@<swap LSN>``; the maps follow ``rename_source`` there."""
    db = _db(("t", [{"k": 1, "v": "1"}, {"k": 2, "v": "2"}]))
    old = db.begin()
    db.update(old, "t", (1,), {"v": "3"})
    tf = RetypeTransformation(
        db, RetypeSpec.derive(db.table("t").schema, "t", attr="v",
                              cast="int"),
        options=TransformOptions(sync="nonblocking_commit"))
    while tf.phase is not Phase.BACKGROUND:
        tf.step(64)
    [zombie] = db.catalog.zombie_names()
    return tf, [
        (SOURCE, zombie, (2,), [("t", (2,))]),
        (SOURCE, "t", (2,), []),
        (TARGET, "t", (1,), [(zombie, (1,))]),
    ]


@pytest.mark.parametrize("case", [partition, merge, retype, retype_in_place],
                         ids=lambda case: case.__name__)
def test_keyed_lock_maps(case):
    tf, rows = case()
    assert type(tf.engine) is KeyedRuleEngine
    for direction, table, key, expected in rows:
        mapped = getattr(tf.engine, direction)(table, key)
        assert [(t.name, k) for t, k in mapped] == expected, \
            (direction, table, key)
