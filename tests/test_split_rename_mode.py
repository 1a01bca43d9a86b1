"""Tests for the rename-based split strategy (Section 5.2, alternative).

Only S is materialized; a temporary P table tracks per-row LSN and split
value during propagation; at synchronization the moved attributes are
stripped from T and T itself is published as R.
"""

import random

import pytest

from repro.api import TransformOptions
from repro import (
    Database,
    Session,
    SplitSpec,
    SplitTransformation,
    SyncStrategy,
    TableSchema,
    TransformationError,
)
from repro.relational import rows_equal, split

from tests.conftest import table_counters, values_of
from tests.model import check_model, seeded


def make_db(n=20, n_zip=4, seed=1):
    rng = random.Random(seed)
    db = Database()
    db.create_table(TableSchema("T", ["id", "name", "zip", "city"],
                                primary_key=["id"]))
    with Session(db) as s:
        for i in range(n):
            z = 7000 + rng.randrange(n_zip)
            s.insert("T", {"id": i, "name": f"n{i}", "zip": z,
                           "city": f"C{z}"})
    return db


def make_spec(db):
    return SplitSpec.derive(db.table("T").schema, "Tr", "Ts", "zip",
                            s_attrs=["city"])


def make_tf(db, spec, check_consistency=False, **option_overrides):
    options = TransformOptions(sync=SyncStrategy.BLOCKING_COMMIT,
                               **option_overrides)
    return SplitTransformation(db, spec, materialize_r=False,
                               check_consistency=check_consistency,
                               options=options)


def test_requires_blocking_commit():
    db = make_db()
    with pytest.raises(TransformationError):
        SplitTransformation(db, make_spec(db), materialize_r=False)
    with pytest.raises(TransformationError):
        SplitTransformation(
            db, make_spec(db), materialize_r=False,
            options=TransformOptions(sync=SyncStrategy.NONBLOCKING_COMMIT))


def test_quiescent_result_matches_oracle():
    db = make_db()
    spec = make_spec(db)
    t_rows = values_of(db, "T")
    make_tf(db, spec).run()
    r_rows, s_rows, counters, _ = split(spec, t_rows)
    assert rows_equal(values_of(db, "Tr"), r_rows)
    assert rows_equal(values_of(db, "Ts"), s_rows)
    assert table_counters(db, "Ts") == counters


def test_published_r_is_the_renamed_source_object():
    db = make_db()
    spec = make_spec(db)
    source = db.table("T")
    source_uid = source.uid
    make_tf(db, spec).run()
    published = db.table("Tr")
    assert published.uid == source_uid  # same physical table
    assert published.schema.attribute_names == ("id", "name", "zip")
    assert all("city" not in row.values for row in published.scan())


def test_only_s_appears_in_catalog_during_transformation():
    db = make_db()
    spec = make_spec(db)
    tf = make_tf(db, spec)
    tf.prepare()
    assert db.catalog.exists("Ts")
    assert not db.catalog.exists("Tr")  # P is internal, R not yet built
    tf.abort()


def test_p_table_is_skinny():
    db = make_db()
    spec = make_spec(db)
    tf = make_tf(db, spec)
    tf.step(10_000)  # populate
    assert tf._p_table.schema.attribute_names == ("id", "zip")
    assert tf._p_table.row_count == 20


@pytest.mark.parametrize("seed", range(6))
def test_interleaved_converges(seed):
    check_model(seeded("split:rename", seed))


def test_rename_mode_with_consistency_checking():
    db = make_db()
    spec = make_spec(db)
    tf = make_tf(db, spec, check_consistency=True)
    tf.run()
    for row in db.table("Ts").scan():
        assert row.meta["flag"] == "C"


def test_recovery_after_rename_mode_swap():
    from repro import restart
    db = make_db()
    spec = make_spec(db)
    t_rows = values_of(db, "T")
    make_tf(db, spec).run()
    recovered = restart(db.log)
    r_rows, s_rows, counters, _ = split(spec, t_rows)
    assert rows_equal(values_of(recovered, "Tr"), r_rows)
    assert rows_equal(values_of(recovered, "Ts"), s_rows)
