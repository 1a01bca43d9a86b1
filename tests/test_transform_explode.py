"""Tests for the multi-value column explode transformation."""

import random

import pytest

from repro import (
    Database,
    ExplodeSpec,
    ExplodeTransformation,
    SchemaError,
    Session,
    TableSchema,
    TransformOptions,
    explode,
    restart,
)
from repro.relational import rows_equal

from tests.conftest import values_of
from tests.model import check_model, seeded

SCHEMA = TableSchema("doc", ["id", "title", "tags"], primary_key=["id"])

TAG_POOL = ("wal", "log", "schema", "split", None, "wal,log",
            "schema,split,log", "log,log", " wal , schema ")


def spec_for(db):
    return ExplodeSpec.derive(db.table("doc").schema, "doc_tag",
                              "tags", "tag")


def make_db(n=24, seed=1):
    rng = random.Random(seed)
    db = Database()
    db.create_table(SCHEMA)
    with Session(db) as s:
        for i in range(n):
            s.insert("doc", {"id": i, "title": f"t{i}",
                             "tags": rng.choice(TAG_POOL)})
    return db


def test_explode_quiescent_matches_oracle():
    db = make_db()
    spec = spec_for(db)
    source = values_of(db, "doc")
    ExplodeTransformation(db, spec).run()
    assert rows_equal(values_of(db, "doc_tag"), explode(spec, source))
    assert db.catalog.table_names() == ["doc_tag"]


def test_explode_null_and_empty_lists_keep_rows_represented():
    db = Database()
    db.create_table(SCHEMA)
    with Session(db) as s:
        s.insert("doc", {"id": 1, "title": "a", "tags": None})
        s.insert("doc", {"id": 2, "title": "b", "tags": " , ,"})
        s.insert("doc", {"id": 3, "title": "c", "tags": "x,x, x "})
    spec = spec_for(db)
    ExplodeTransformation(db, spec).run()
    rows = values_of(db, "doc_tag")
    # NULL / element-free lists yield one NULL-element child; duplicate
    # elements are folded.
    assert sorted((r["id"], r["tag"] or "") for r in rows) == [
        (1, ""), (2, ""), (3, "x")]


def test_explode_spec_rejects_key_and_collision():
    schema = TableSchema("d", ["id", "tags"], primary_key=["id"])
    with pytest.raises(SchemaError):
        ExplodeSpec.derive(schema, "t", "id", "v")      # key column
    with pytest.raises(SchemaError):
        ExplodeSpec.derive(schema, "t", "tags", "id")   # value collides
    with pytest.raises(SchemaError):
        ExplodeSpec.derive(schema, "t", "tags", "v", separator="")


@pytest.mark.parametrize("seed", range(6))
def test_explode_interleaved_converges(seed):
    check_model(seeded("explode", seed))


def test_explode_recovery_rebuilds_after_swap():
    db = make_db()
    spec = spec_for(db)
    source = values_of(db, "doc")
    ExplodeTransformation(db, spec).run()
    recovered = restart(db.log)
    assert rows_equal(values_of(recovered, "doc_tag"),
                      explode(spec, source))


def test_explode_lazy_population_converges():
    db = make_db()
    spec = spec_for(db)
    source = values_of(db, "doc")
    tf = ExplodeTransformation(
        db, spec, options=TransformOptions(population_mode="lazy"))
    tf.run()
    # Reads through the published table migrate on demand; the background
    # sweeper drains the rest.
    with Session(db) as s:
        s.read("doc_tag", (0, source[0]["tags"].split(",")[0].strip()
                           if source[0]["tags"] else None))
    while not tf.done:
        tf.step(4096)
    assert rows_equal(values_of(db, "doc_tag"), explode(spec, source))
