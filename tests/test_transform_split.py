"""End-to-end tests for the split transformation, including the
consistency checker of Section 5.3 and the repeated-split extension."""

import random

import pytest

from repro.api import TransformOptions
from repro import (
    Database,
    InconsistentDataError,
    Phase,
    Session,
    SplitSpec,
    SplitTransformation,
    TableSchema,
)
from repro.common.errors import DuplicateKeyError, NoSuchRowError
from repro.relational import rows_equal, split
from repro.transform.split import FLAG_CONSISTENT, FLAG_UNKNOWN

from tests.conftest import (
    load_split_data,
    split_spec,
    table_counters,
    values_of,
)
from tests.model import check_model, seeded


def test_quiescent_split_matches_oracle(split_db):
    load_split_data(split_db, n=25)
    spec = split_spec(split_db)
    t_rows = values_of(split_db, "T")
    SplitTransformation(split_db, spec).run()
    r_rows, s_rows, counters, _ = split(spec, t_rows)
    assert rows_equal(values_of(split_db, "T_r"), r_rows)
    assert rows_equal(values_of(split_db, "postal"), s_rows)
    assert table_counters(split_db, "postal") == counters
    assert set(split_db.catalog.table_names()) == {"T_r", "postal"}


def test_counter_invariant_after_interleaving(split_db):
    """Counters always equal the number of source rows sharing the split
    value (the Gupta et al. counting scheme)."""
    rng = random.Random(11)
    load_split_data(split_db, n=30, n_zip=4)
    spec = split_spec(split_db)
    tf = SplitTransformation(split_db, spec)
    next_id = [1000]
    for _ in range(120):
        try:
            with Session(split_db) as s:
                k = rng.random()
                z = 7000 + rng.randrange(4)
                if k < 0.3:
                    s.insert("T", {"id": next_id[0], "name": "x",
                                   "zip": z, "city": f"C{z}"})
                    next_id[0] += 1
                elif k < 0.6:
                    s.delete("T", (rng.randrange(30),))
                else:
                    s.update("T", (rng.randrange(30),),
                             {"zip": z, "city": f"C{z}"})
        except (NoSuchRowError, DuplicateKeyError):
            pass
        if not tf.done and tf.phase is not Phase.SYNCHRONIZING:
            tf.step(rng.randrange(1, 12))
    t_rows = values_of(split_db, "T")
    tf.run()
    _, _, counters, _ = split(spec, t_rows)
    assert table_counters(split_db, "T_r" if False else "postal") == counters


def test_split_with_cc_quiescent_all_flags_consistent(split_db):
    load_split_data(split_db, n=20)
    spec = split_spec(split_db)
    tf = SplitTransformation(split_db, spec, check_consistency=True)
    tf.run()
    for row in split_db.table("postal").scan():
        assert row.meta["flag"] == FLAG_CONSISTENT


def test_genuinely_inconsistent_data_raises(split_db):
    """The paper's Example 1: the framework 'has no means to decide'
    which city is correct, so the transformation cannot complete."""
    with Session(split_db) as s:
        s.insert("T", {"id": 1, "name": "Peter", "zip": 7050,
                       "city": "Trondheim"})
        s.insert("T", {"id": 134, "name": "Jen", "zip": 7050,
                       "city": "Trnodheim"})
    tf = SplitTransformation(split_db, split_spec(split_db),
                             check_consistency=True,
                             on_inconsistent="raise")
    with pytest.raises(InconsistentDataError) as excinfo:
        tf.run()
    assert (7050,) in excinfo.value.split_values


def test_inconsistency_repaired_by_user_completes(split_db):
    """With on_inconsistent='wait', the transformation keeps checking; a
    user transaction repairing the FD violation unblocks it."""
    with Session(split_db) as s:
        s.insert("T", {"id": 1, "name": "P", "zip": 7050,
                       "city": "Trondheim"})
        s.insert("T", {"id": 2, "name": "J", "zip": 7050,
                       "city": "Trnodheim"})
    tf = SplitTransformation(split_db, split_spec(split_db),
                             check_consistency=True,
                             on_inconsistent="wait")
    for _ in range(60):
        tf.step(64)
    assert not tf.done  # stuck on the U flag
    assert tf.checker.genuinely_inconsistent() == [(7050,)]
    with Session(split_db) as s:
        s.update("T", (2,), {"city": "Trondheim"})  # repair
    tf.run()
    assert tf.done
    assert split_db.table("postal").get((7050,)).values["city"] == \
        "Trondheim"


def test_cc_detects_population_fuzz_and_repairs(split_db):
    """An S record whose contributors were read at different moments gets
    a U flag from the fuzzy read; the CC verifies and clears it."""
    load_split_data(split_db, n=10, n_zip=2)
    spec = split_spec(split_db)
    tf = SplitTransformation(split_db, spec, check_consistency=True)
    # During population, rename a whole city (consistently).
    while tf.phase is not Phase.POPULATING:
        tf.step(1)
    tf.step(3)
    with Session(split_db) as s:
        rows = [r for r in split_db.table("T").scan()
                if r.values["zip"] == 7000]
        for r in rows:
            s.update("T", (r.values["id"],), {"city": "RENAMED"})
    tf.run()
    assert tf.done
    srow = split_db.table("postal").get((7000,))
    if srow is not None:
        assert srow.values["city"] == "RENAMED"
        assert srow.meta["flag"] == FLAG_CONSISTENT


def test_checker_statistics_accumulate(split_db):
    with Session(split_db) as s:
        s.insert("T", {"id": 1, "name": "P", "zip": 7050, "city": "A"})
        s.insert("T", {"id": 2, "name": "J", "zip": 7050, "city": "B"})
    tf = SplitTransformation(split_db, split_spec(split_db),
                             check_consistency=True,
                             on_inconsistent="wait")
    for _ in range(40):
        tf.step(64)
    assert tf.checker.stats["started"] > 0
    assert tf.checker.stats["inconsistent"] > 0


def test_source_split_index_created_for_cc(split_db):
    from repro.transform.split import SOURCE_SPLIT_INDEX
    load_split_data(split_db, n=5)
    tf = SplitTransformation(split_db, split_spec(split_db),
                             check_consistency=True)
    tf.prepare()
    assert SOURCE_SPLIT_INDEX in split_db.table("T").indexes
    tf.abort()


def test_invalid_on_inconsistent_rejected(split_db):
    with pytest.raises(ValueError):
        SplitTransformation(split_db, split_spec(split_db),
                            on_inconsistent="explode")


def test_repeated_split_produces_many_to_many():
    """Section 7: 'the split framework is able to split one source table
    into a many-to-many relationship by repeating splits' -- split off the
    city table, then split the remainder on a second attribute."""
    db = Database()
    db.create_table(TableSchema(
        "orders", ["oid", "item", "zip", "city", "carrier", "depot"],
        primary_key=["oid"]))
    with Session(db) as s:
        for i in range(12):
            z = 7000 + i % 3
            c = i % 2
            s.insert("orders", {
                "oid": i, "item": f"i{i}", "zip": z, "city": f"C{z}",
                "carrier": c, "depot": f"D{c}"})
    first = SplitSpec.derive(db.table("orders").schema, "orders1",
                             "places", "zip", s_attrs=["city"])
    SplitTransformation(db, first).run()
    second = SplitSpec.derive(db.table("orders1").schema, "orders2",
                              "carriers", "carrier", s_attrs=["depot"])
    SplitTransformation(db, second).run()
    assert set(db.catalog.table_names()) == \
        {"orders2", "places", "carriers"}
    assert db.table("places").row_count == 3
    assert db.table("carriers").row_count == 2
    assert db.table("orders2").row_count == 12
    # orders2 links both: a many-to-many decomposition.
    row = db.table("orders2").get((0,))
    assert row.values["zip"] == 7000 and row.values["carrier"] == 0


@pytest.mark.parametrize("seed", range(8))
def test_interleaved_split_converges(seed):
    check_model(seeded("split", seed))


