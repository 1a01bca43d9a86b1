"""Unit tests for the many-to-many FOJ propagation rules (Section 4.2
sketch, with the corrected symmetric S-side)."""

import random

import pytest

from repro import Database, Phase, TableSchema
from repro.common.errors import SchemaError
from repro.relational import full_outer_join, rows_equal
from repro.relational.spec import FojSpec
from repro.transform.foj import null_flag
from repro.transform.foj_m2m import (
    Many2ManyFojRuleEngine,
    Many2ManyFojTransformation,
)
from repro.wal.records import DeleteRecord, InsertRecord, UpdateRecord

R = TableSchema("R", ["a", "b", "c"], primary_key=["a"])
S = TableSchema("S", ["k", "c", "d"], primary_key=["k"])


def make_engine():
    db = Database()
    db.create_table(R)
    db.create_table(S)
    spec = FojSpec.derive(R, S, "T", "c", "c", many_to_many=True)
    target = Many2ManyFojTransformation.target_tables(db, spec)["T"]
    return Many2ManyFojRuleEngine(db, spec, target), target


def put(t, values, r_null=False, s_null=False):
    return t.insert_row(values, meta={"r_null": r_null, "s_null": s_null})


def ins_r(a, b, c):
    return InsertRecord(txn_id=1, table="R", key=(a,),
                        values={"a": a, "b": b, "c": c})


def ins_s(k, c, d):
    return InsertRecord(txn_id=1, table="S", key=(k,),
                        values={"k": k, "c": c, "d": d})


def full_rows(t):
    return sorted(
        ((r.values["a"], r.values["k"]) for r in t.scan()
         if not null_flag(r, "r_null") and not null_flag(r, "s_null")),
        key=repr)


def test_spec_guard_rejects_join_keyed_s():
    with pytest.raises(SchemaError):
        FojSpec.derive(R, TableSchema("S2", ["c", "d"], primary_key=["c"]),
                       "T", "c", "c", many_to_many=True)


def test_insert_r_fans_out_to_all_matching_s():
    engine, t = make_engine()
    put(t, {"a": None, "b": None, "c": 10, "k": 1, "d": "d1"},
        r_null=True)
    put(t, {"a": 9, "b": "b9", "c": 10, "k": 2, "d": "d2"})
    engine.apply(ins_r(1, "b1", 10))
    # Placeholder for s1 morphed; a new row pairs r1 with s2.
    assert (1, 1) in full_rows(t) and (1, 2) in full_rows(t)
    assert not any(null_flag(r, "r_null") for r in t.scan())


def test_insert_r_no_match_gets_snull_row():
    engine, t = make_engine()
    engine.apply(ins_r(1, "b1", 99))
    rows = list(t.scan())
    assert len(rows) == 1 and rows[0].meta["s_null"]


def test_insert_r_ignored_when_rkey_present():
    engine, t = make_engine()
    put(t, {"a": 1, "b": "newer", "c": 20, "k": 5, "d": "d"})
    engine.apply(ins_r(1, "old", 10))
    assert t.row_count == 1
    # The S side: an insert the fuzzy scan already copied is ignored on
    # replay too, also when S's key holds the join attribute under its
    # own name (x), not T's (c).
    db = Database()
    db.create_table(R)
    db.create_table(TableSchema("S", ["x", "d", "e"], primary_key=["x", "d"]))
    txn = db.begin()
    db.insert(txn, "R", {"a": 1, "b": "b1", "c": 10})
    db.commit(txn)
    txn = db.begin()
    db.insert(txn, "S", {"x": 10, "d": 2, "e": "e2"})
    spec = FojSpec.derive(db.table("R").schema, db.table("S").schema, "T",
                          "c", "x", many_to_many=True)
    tf = Many2ManyFojTransformation(db, spec)
    while tf.phase is not Phase.PROPAGATING:
        tf.step(64)
    db.commit(txn)
    r_rows = [dict(r.values) for r in db.table("R").scan()]
    s_rows = [dict(r.values) for r in db.table("S").scan()]
    tf.run()
    assert rows_equal([dict(r.values) for r in db.table("T").scan()],
                      full_outer_join(spec, r_rows, s_rows))


def test_insert_s_fans_out_to_all_matching_r():
    """The corrected S-side: a new S record joins with EVERY R record at
    its join value, including those already joined to other S records."""
    engine, t = make_engine()
    put(t, {"a": 1, "b": "b1", "c": 10, "k": 7, "d": "d7"})
    put(t, {"a": 2, "b": "b2", "c": 10, "k": None, "d": None},
        s_null=True)
    engine.apply(ins_s(8, 10, "d8"))
    assert (1, 8) in full_rows(t)   # new pairing for the matched r1
    assert (2, 8) in full_rows(t)   # placeholder of r2 morphed
    assert (1, 7) in full_rows(t)   # old pairing untouched


def test_delete_r_preserves_each_orphaned_s():
    engine, t = make_engine()
    put(t, {"a": 1, "b": "b1", "c": 10, "k": 7, "d": "d7"})
    put(t, {"a": 1, "b": "b1", "c": 10, "k": 8, "d": "d8"})
    put(t, {"a": 2, "b": "b2", "c": 10, "k": 7, "d": "d7"})
    engine.apply(DeleteRecord(txn_id=1, table="R", key=(1,)))
    # s7 still carried by r2; s8 lost its only carrier -> placeholder.
    assert (2, 7) in full_rows(t)
    placeholders = [r for r in t.scan() if null_flag(r, "r_null")]
    assert len(placeholders) == 1
    assert placeholders[0].values["k"] == 8


def test_delete_s_preserves_each_orphaned_r():
    engine, t = make_engine()
    put(t, {"a": 1, "b": "b1", "c": 10, "k": 7, "d": "d7"})
    put(t, {"a": 2, "b": "b2", "c": 10, "k": 7, "d": "d7"})
    put(t, {"a": 2, "b": "b2", "c": 10, "k": 8, "d": "d8"})
    engine.apply(DeleteRecord(txn_id=1, table="S", key=(7,)))
    # r2 still carried by its pairing with s8; r1 got a snull placeholder.
    assert (2, 8) in full_rows(t)
    placeholders = [r for r in t.scan() if null_flag(r, "s_null")]
    assert len(placeholders) == 1
    assert placeholders[0].values["a"] == 1


def test_update_r_join_moves_all_pairings():
    engine, t = make_engine()
    put(t, {"a": 1, "b": "b1", "c": 10, "k": 7, "d": "d7"})
    put(t, {"a": 1, "b": "b1", "c": 10, "k": 8, "d": "d8"})
    put(t, {"a": 9, "b": "b9", "c": 20, "k": 5, "d": "d5"})
    engine.apply(UpdateRecord(txn_id=1, table="R", key=(1,),
                              changes={"c": 20}, old_values={"c": 10}))
    # r1 now pairs with s5 at join 20; s7/s8 survive as placeholders.
    assert (1, 5) in full_rows(t)
    orphans = sorted(r.values["k"] for r in t.scan()
                     if null_flag(r, "r_null"))
    assert orphans == [7, 8]


def test_update_r_join_stale_ignored():
    engine, t = make_engine()
    put(t, {"a": 1, "b": "b1", "c": 30, "k": 7, "d": "d7"})
    engine.apply(UpdateRecord(txn_id=1, table="R", key=(1,),
                              changes={"c": 20}, old_values={"c": 10}))
    assert t.get((1, 7)).values["c"] == 30  # untouched


def test_update_s_join_moves_all_pairings():
    engine, t = make_engine()
    put(t, {"a": 1, "b": "b1", "c": 10, "k": 7, "d": "d7"})
    put(t, {"a": 2, "b": "b2", "c": 10, "k": 7, "d": "d7"})
    put(t, {"a": 3, "b": "b3", "c": 20, "k": None, "d": None},
        s_null=True)
    engine.apply(UpdateRecord(txn_id=1, table="S", key=(7,),
                              changes={"c": 20}, old_values={"c": 10}))
    # s7 now joins r3 at 20; r1/r2 keep snull placeholders at join 10.
    assert (3, 7) in full_rows(t)
    orphans = sorted(r.values["a"] for r in t.scan()
                     if null_flag(r, "s_null"))
    assert orphans == [1, 2]


def test_update_other_attrs_hit_all_pairings():
    engine, t = make_engine()
    put(t, {"a": 1, "b": "old", "c": 10, "k": 7, "d": "old"})
    put(t, {"a": 1, "b": "old", "c": 10, "k": 8, "d": "other"})
    engine.apply(UpdateRecord(txn_id=1, table="R", key=(1,),
                              changes={"b": "new"},
                              old_values={"b": "old"}))
    assert all(r.values["b"] == "new" for r in t.scan())
    engine.apply(UpdateRecord(txn_id=1, table="S", key=(7,),
                              changes={"d": "snew"},
                              old_values={"d": "old"}))
    assert t.get((1, 7)).values["d"] == "snew"
    assert t.get((1, 8)).values["d"] == "other"


def test_idempotent_reapplication():
    engine, t = make_engine()
    put(t, {"a": 1, "b": "b1", "c": 10, "k": 7, "d": "d7"})
    for record in (ins_r(2, "b2", 10), ins_s(8, 10, "d8"),
                   DeleteRecord(txn_id=1, table="R", key=(1,))):
        engine.apply(record)
    snapshot = sorted(
        (repr(sorted(r.values.items())), null_flag(r, "r_null"),
         null_flag(r, "s_null")) for r in t.scan())
    for record in (ins_r(2, "b2", 10), ins_s(8, 10, "d8"),
                   DeleteRecord(txn_id=1, table="R", key=(1,))):
        engine.apply(record)
    assert snapshot == sorted(
        (repr(sorted(r.values.items())), null_flag(r, "r_null"),
         null_flag(r, "s_null")) for r in t.scan())


def test_lock_mappings():
    engine, t = make_engine()
    put(t, {"a": 1, "b": "b1", "c": 10, "k": 7, "d": "d7"})
    put(t, {"a": 1, "b": "b1", "c": 10, "k": 8, "d": "d8"})
    targets = engine.targets_of_source_lock("R", (1,))
    assert sorted(key for _, key in targets) == [(1, 7), (1, 8)]
    sources = engine.sources_of_target_lock("T", (1, 7))
    assert sorted(tbl.name for tbl, _ in sources) == ["R", "S"]
    # A row with a NULL half is named like Table.lock_key names it (a
    # user transaction's record lock on T) and maps back to its one
    # source row.
    r_only = put(t, {"a": 2, "b": "b2", "c": 20, "k": None, "d": None},
                 s_null=True)
    s_only = put(t, {"a": None, "b": None, "c": 30, "k": 9, "d": "d9"},
                 r_null=True)
    for row, table, key in ((r_only, "R", (2,)), (s_only, "S", (9,))):
        assert engine.targets_of_source_lock(table, key) == \
            [(t, t.lock_key(row.values))]
        sources = engine.sources_of_target_lock("T", t.lock_key(row.values))
        assert [(tbl.name, k) for tbl, k in sources] == [(table, key)]
    # Each side's key is read from T by attribute name, not by position:
    # with R keyed (a, c) and S keyed (c, d), T's key is (a, c, d).
    db = Database()
    r = db.create_table(TableSchema("R", ["a", "b", "c"],
                                    primary_key=["a", "c"]))
    s = db.create_table(TableSchema("S", ["c", "d", "e"],
                                    primary_key=["c", "d"]))
    spec = FojSpec.derive(r.schema, s.schema, "T", "c", "c",
                          many_to_many=True)
    t = Many2ManyFojTransformation.target_tables(db, spec)["T"]
    engine = Many2ManyFojRuleEngine(db, spec, t)
    put(t, {"a": 1, "b": "b1", "c": 10, "d": 7, "e": "e7"})
    sources = engine.sources_of_target_lock("T", (1, 10, 7))
    assert [(tbl.name, k) for tbl, k in sources] == \
        [("R", (1, 10)), ("S", (10, 7))]


def flagged_rows(t):
    return sorted(
        (repr(sorted(r.values.items())), null_flag(r, "r_null"),
         null_flag(r, "s_null")) for r in t.scan())


@pytest.mark.parametrize("seed", range(20))
def test_chunks_in_mixed_orders_equal_the_insert_rule(seed):
    """Seeded R and S records -- several per join value on both sides,
    NULL join values too -- migrated as chunks in a random order (R,
    then S, then R again, some R records in both): T is the reference
    join, with the rnull / snull flags on exactly the unmatched rows,
    and what applying the insert rule record by record leaves."""
    rng = random.Random(seed)
    joins = [None] + list(range(5))
    r_rows = [{"a": a, "b": f"b{a}", "c": rng.choice(joins)}
              for a in range(1, 21)]
    s_rows = [{"k": k, "c": rng.choice(joins), "d": f"d{k}"}
              for k in range(1, 13)]
    cut = rng.randrange(len(r_rows))
    chunks = [("R", rng.sample(r_rows[:cut + 3], min(cut + 3, 20))),
              ("S", s_rows), ("R", r_rows[cut:])]
    if rng.random() < 0.5:
        chunks = chunks[1:] + chunks[:1]
    engine, t = make_engine()
    one_engine, one_t = make_engine()
    for table, rows in chunks:
        for start in range(0, len(rows), 4):
            engine.migrate_rows(table, [(dict(values), 0)
                                        for values in rows[start:start + 4]])
        for values in rows:
            key = (values["a"],) if table == "R" else (values["k"],)
            one_engine.apply(InsertRecord(txn_id=1, table=table, key=key,
                                          values=dict(values)))
    assert rows_equal([dict(r.values) for r in t.scan()],
                      full_outer_join(engine.spec, r_rows, s_rows))
    assert all(null_flag(r, "r_null") == (r.values["a"] is None) and
               null_flag(r, "s_null") == (r.values["k"] is None)
               for r in t.scan())
    assert flagged_rows(t) == flagged_rows(one_t)
