"""Tests for the column retype / default-change transformation."""

import random

import pytest

from repro import (
    Database,
    InconsistentDataError,
    RETYPE_CASTS,
    RetypeSpec,
    RetypeTransformation,
    SchemaError,
    Session,
    TableSchema,
    TransformOptions,
    restart,
    retype,
)
from repro.relational import rows_equal

from tests.conftest import values_of
from tests.model import check_model, seeded

SCHEMA = TableSchema("reading", ["rid", "sensor", "value"],
                     primary_key=["rid"])


def spec_for(db, cast="int", default=0):
    return RetypeSpec.derive(db.table("reading").schema, "reading_v2",
                             "value", cast=cast, default=default)


def make_db(n=30, seed=1):
    rng = random.Random(seed)
    db = Database()
    db.create_table(SCHEMA)
    with Session(db) as s:
        for i in range(n):
            raw = rng.choice([str(rng.randrange(100)),
                              f" {rng.randrange(100)} ", None])
            s.insert("reading", {"rid": i, "sensor": f"s{i % 4}",
                                 "value": raw})
    return db


def test_retype_quiescent_matches_oracle():
    db = make_db()
    spec = spec_for(db)
    source = values_of(db, "reading")
    RetypeTransformation(db, spec).run()
    assert rows_equal(values_of(db, "reading_v2"), retype(spec, source))
    assert db.catalog.table_names() == ["reading_v2"]


def test_retype_null_takes_new_default():
    db = Database()
    db.create_table(SCHEMA)
    with Session(db) as s:
        s.insert("reading", {"rid": 1, "sensor": "a", "value": None})
        s.insert("reading", {"rid": 2, "sensor": "a", "value": " 42 "})
    RetypeTransformation(db, spec_for(db, default=-1)).run()
    by_rid = {r["rid"]: r["value"] for r in values_of(db, "reading_v2")}
    assert by_rid == {1: -1, 2: 42}


def test_retype_unparseable_value_raises_inconsistent():
    db = Database()
    db.create_table(SCHEMA)
    with Session(db) as s:
        s.insert("reading", {"rid": 1, "sensor": "a", "value": "oops"})
    with pytest.raises(InconsistentDataError):
        RetypeTransformation(db, spec_for(db)).run()


def test_retype_spec_rejects_key_attr_and_unknown_cast():
    schema = TableSchema("t", ["k", "v"], primary_key=["k"])
    with pytest.raises(SchemaError):
        RetypeSpec.derive(schema, "t2", "k", cast="int")
    with pytest.raises(SchemaError):
        RetypeSpec.derive(schema, "t2", "nope", cast="int")
    with pytest.raises(SchemaError, match="available"):
        RetypeSpec.derive(schema, "t2", "v", cast="decimal")
    for cast in RETYPE_CASTS:
        RetypeSpec.derive(schema, "t2", "v", cast=cast)


@pytest.mark.parametrize("seed", range(6))
def test_retype_interleaved_converges(seed):
    check_model(seeded("retype", seed))


def test_retype_recovery_rebuilds_after_swap():
    db = make_db()
    spec = spec_for(db)
    source = values_of(db, "reading")
    RetypeTransformation(db, spec).run()
    recovered = restart(db.log)
    assert rows_equal(values_of(recovered, "reading_v2"),
                      retype(spec, source))


def test_retype_lazy_population_converges():
    db = make_db()
    spec = spec_for(db)
    source = values_of(db, "reading")
    tf = RetypeTransformation(
        db, spec, options=TransformOptions(population_mode="lazy"))
    tf.run()
    with Session(db) as s:
        s.read("reading_v2", (0,))
    while not tf.done:
        tf.step(4096)
    assert rows_equal(values_of(db, "reading_v2"), retype(spec, source))
