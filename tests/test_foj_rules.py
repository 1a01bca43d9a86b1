"""Unit tests for the FOJ propagation rules (Rules 1-7, Section 4.2).

Each test builds a small transformed table T in a known state, applies one
log record through the rule engine, and checks the exact resulting rows --
including the NULL-record bookkeeping the paper's notation (t^null_x,
t^y_null) describes.
"""

import random

import pytest

from repro import Database, Phase, TableSchema
from repro.common.errors import SimulatedCrashError, TransformationError
from repro.faults import NULL_FAULTS, CrashFault, FaultInjector, FaultPlan
from repro.relational.spec import FojSpec
from repro.transform.foj import (FojRuleEngine, FojTransformation,
                                 null_flag)
from repro.wal.records import (
    DeleteRecord,
    InsertRecord,
    LogRecord,
    UpdateRecord,
)
from tests.dispatch_contract import check_dispatch_contract

R = TableSchema("R", ["a", "b", "c"], primary_key=["a"])
S = TableSchema("S", ["c", "d"], primary_key=["c"])


def make_engine():
    db = Database()
    db.create_table(R)
    db.create_table(S)
    spec = FojSpec.derive(R, S, "T", "c", "c")
    target = FojTransformation.target_tables(db, spec)["T"]
    return FojRuleEngine(db, spec, target), target


def put(target, values, r_null=False, s_null=False):
    return target.insert_row(values, meta={"r_null": r_null,
                                           "s_null": s_null})


def rows_of(target):
    return sorted(
        ((tuple(sorted(r.values.items())), null_flag(r, "r_null"),
          null_flag(r, "s_null"))
         for r in target.scan()),
        key=repr)


def insert_r(a, b, c):
    return InsertRecord(txn_id=1, table="R", key=(a,),
                        values={"a": a, "b": b, "c": c})


def insert_s(c, d):
    return InsertRecord(txn_id=1, table="S", key=(c,),
                        values={"c": c, "d": d})


# ---------------------------------------------------------------------------
# Rule 1: insert r^y_x into R
# ---------------------------------------------------------------------------


def test_rule1_ignored_if_key_present():
    engine, t = make_engine()
    put(t, {"a": 1, "b": "newer", "c": 10, "d": "d"})
    engine.apply(insert_r(1, "old", 10))
    assert t.row_count == 1
    assert t.get((1,)).values["b"] == "newer"  # Theorem 1: untouched


def test_rule1_morphs_null_r_record():
    engine, t = make_engine()
    put(t, {"a": None, "b": None, "c": 10, "d": "d"}, r_null=True)
    touched = engine.apply(insert_r(1, "b1", 10))
    row = t.get((1,))
    assert row.values == {"a": 1, "b": "b1", "c": 10, "d": "d"}
    assert not null_flag(row, "r_null") and not null_flag(row, "s_null")
    assert t.row_count == 1
    assert (t, (1,)) in [(tab, key) for tab, key in touched]


def test_rule1_clones_s_part_of_sibling():
    engine, t = make_engine()
    put(t, {"a": 5, "b": "x", "c": 10, "d": "d10"})
    engine.apply(insert_r(1, "b1", 10))
    row = t.get((1,))
    assert row.values["d"] == "d10"  # S part extracted from t^5_10
    assert t.row_count == 2


def test_rule1_no_match_joins_with_snull():
    engine, t = make_engine()
    engine.apply(insert_r(1, "b1", 99))
    row = t.get((1,))
    assert row.values["d"] is None
    assert null_flag(row, "s_null") and not null_flag(row, "r_null")


def test_rule1_null_join_value_joins_with_snull():
    engine, t = make_engine()
    engine.apply(insert_r(1, "b1", None))
    row = t.get((1,))
    assert row.values["c"] is None and null_flag(row, "s_null")


def test_rule1_prefers_null_r_over_sibling_clone():
    engine, t = make_engine()
    put(t, {"a": None, "b": None, "c": 10, "d": "d"}, r_null=True)
    put(t, {"a": 5, "b": "x", "c": 10, "d": "d"})
    engine.apply(insert_r(1, "b1", 10))
    assert t.row_count == 2  # morphed the placeholder, no new row


def test_rule1_sibling_all_snull_inserts_snull_row():
    engine, t = make_engine()
    put(t, {"a": 5, "b": "x", "c": 10, "d": None}, s_null=True)
    engine.apply(insert_r(1, "b1", 10))
    row = t.get((1,))
    assert null_flag(row, "s_null")  # no real s^10 exists anywhere


# ---------------------------------------------------------------------------
# Rule 2: insert s^x into S
# ---------------------------------------------------------------------------


def test_rule2_fills_all_snull_carriers():
    engine, t = make_engine()
    put(t, {"a": 1, "b": "b1", "c": 10, "d": None}, s_null=True)
    put(t, {"a": 2, "b": "b2", "c": 10, "d": None}, s_null=True)
    engine.apply(insert_s(10, "d10"))
    assert t.get((1,)).values["d"] == "d10"
    assert t.get((2,)).values["d"] == "d10"
    assert not null_flag(t.get((1,)), "s_null")
    assert t.row_count == 2


def test_rule2_leaves_real_s_parts_untouched():
    engine, t = make_engine()
    put(t, {"a": 1, "b": "b1", "c": 10, "d": "newer"})
    engine.apply(insert_s(10, "older"))
    assert t.get((1,)).values["d"] == "newer"  # Theorem 1


def test_rule2_inserts_null_r_row_when_unmatched():
    engine, t = make_engine()
    engine.apply(insert_s(10, "d10"))
    assert t.row_count == 1
    row = next(iter(t.scan()))
    assert null_flag(row, "r_null")
    assert row.values == {"a": None, "b": None, "c": 10, "d": "d10"}


def test_rule2_rejects_null_join_value():
    engine, t = make_engine()
    with pytest.raises(TransformationError):
        engine.apply(insert_s(None, "d"))


# ---------------------------------------------------------------------------
# Rule 3: delete r^y from R
# ---------------------------------------------------------------------------


def test_rule3_ignored_if_absent():
    engine, t = make_engine()
    engine.apply(DeleteRecord(txn_id=1, table="R", key=(1,)))
    assert t.row_count == 0


def test_rule3_deletes_snull_row_outright():
    engine, t = make_engine()
    put(t, {"a": 1, "b": "b", "c": 99, "d": None}, s_null=True)
    engine.apply(DeleteRecord(txn_id=1, table="R", key=(1,)))
    assert t.row_count == 0


def test_rule3_preserves_last_s_carrier_as_null_r():
    engine, t = make_engine()
    put(t, {"a": 1, "b": "b", "c": 10, "d": "d10"})
    engine.apply(DeleteRecord(txn_id=1, table="R", key=(1,)))
    assert t.row_count == 1
    row = next(iter(t.scan()))
    assert null_flag(row, "r_null")
    assert row.values["c"] == 10 and row.values["d"] == "d10"


def test_rule3_plain_delete_when_siblings_carry_s():
    engine, t = make_engine()
    put(t, {"a": 1, "b": "b", "c": 10, "d": "d10"})
    put(t, {"a": 2, "b": "b", "c": 10, "d": "d10"})
    engine.apply(DeleteRecord(txn_id=1, table="R", key=(1,)))
    assert t.row_count == 1
    assert t.get((2,)) is not None


# ---------------------------------------------------------------------------
# Rule 4: delete s^x from S
# ---------------------------------------------------------------------------


def test_rule4_deletes_null_r_placeholder():
    engine, t = make_engine()
    put(t, {"a": None, "b": None, "c": 10, "d": "d"}, r_null=True)
    engine.apply(DeleteRecord(txn_id=1, table="S", key=(10,)))
    assert t.row_count == 0


def test_rule4_strips_s_part_of_carriers():
    engine, t = make_engine()
    put(t, {"a": 1, "b": "b", "c": 10, "d": "d"})
    put(t, {"a": 2, "b": "b", "c": 10, "d": "d"})
    engine.apply(DeleteRecord(txn_id=1, table="S", key=(10,)))
    for key in ((1,), (2,)):
        row = t.get(key)
        assert row.values["d"] is None
        assert null_flag(row, "s_null")
        assert row.values["c"] == 10  # the R-side join value stays


def test_rule4_ignored_when_no_carrier():
    engine, t = make_engine()
    put(t, {"a": 1, "b": "b", "c": 10, "d": None}, s_null=True)
    engine.apply(DeleteRecord(txn_id=1, table="S", key=(10,)))
    assert null_flag(t.get((1,)), "s_null")  # unchanged


# ---------------------------------------------------------------------------
# Rule 5: update join attribute of r^y
# ---------------------------------------------------------------------------


def upd_r_join(a, old_c, new_c, **extra):
    changes = {"c": new_c, **extra}
    old = {"c": old_c, **{k: f"old-{k}" for k in extra}}
    return UpdateRecord(txn_id=1, table="R", key=(a,), changes=changes,
                        old_values=old)


def test_rule5_ignored_when_absent_or_stale():
    engine, t = make_engine()
    engine.apply(upd_r_join(1, 10, 20))
    assert t.row_count == 0
    put(t, {"a": 1, "b": "b", "c": 30, "d": None}, s_null=True)
    engine.apply(upd_r_join(1, 10, 20))  # current join 30 != before 10
    assert t.get((1,)).values["c"] == 30


def test_rule5_already_reflected_move_applies_its_other_changes():
    """The fuzzy read saw the move, and an earlier replayed update wrote
    an older ``b`` back: the move's own ``b`` must still land."""
    engine, t = make_engine()
    put(t, {"a": 1, "b": "x1", "c": 20, "d": None}, s_null=True)
    touched = engine.apply(upd_r_join(1, 10, 20, b="x2"))
    assert t.get((1,)).values == {"a": 1, "b": "x2", "c": 20, "d": None}
    assert [key for _table, key in touched] == [(1,)]
    assert t.row_count == 1


def test_rule5_moves_to_null_r_destination():
    engine, t = make_engine()
    put(t, {"a": 1, "b": "b", "c": 10, "d": None}, s_null=True)
    put(t, {"a": None, "b": None, "c": 20, "d": "d20"}, r_null=True)
    engine.apply(upd_r_join(1, 10, 20))
    assert t.row_count == 1
    row = t.get((1,))
    assert row.values == {"a": 1, "b": "b", "c": 20, "d": "d20"}
    assert not null_flag(row, "r_null") and not null_flag(row, "s_null")


def test_rule5_preserves_old_s_when_last_carrier():
    engine, t = make_engine()
    put(t, {"a": 1, "b": "b", "c": 10, "d": "d10"})
    engine.apply(upd_r_join(1, 10, 99))
    assert t.row_count == 2
    placeholder = [r for r in t.scan() if null_flag(r, "r_null")][0]
    assert placeholder.values["c"] == 10
    assert placeholder.values["d"] == "d10"
    moved = t.get((1,))
    assert moved.values["c"] == 99 and null_flag(moved, "s_null")


def test_rule5_no_placeholder_when_siblings_remain():
    engine, t = make_engine()
    put(t, {"a": 1, "b": "b", "c": 10, "d": "d10"})
    put(t, {"a": 2, "b": "b", "c": 10, "d": "d10"})
    engine.apply(upd_r_join(1, 10, 99))
    assert t.row_count == 2
    assert not any(null_flag(r, "r_null") for r in t.scan())


def test_rule5_clones_destination_sibling_s_part():
    engine, t = make_engine()
    put(t, {"a": 1, "b": "b", "c": 10, "d": None}, s_null=True)
    put(t, {"a": 2, "b": "b", "c": 20, "d": "d20"})
    engine.apply(upd_r_join(1, 10, 20))
    assert t.get((1,)).values["d"] == "d20"
    assert t.row_count == 2


def test_rule5_carries_other_attribute_changes():
    engine, t = make_engine()
    put(t, {"a": 1, "b": "old-b", "c": 10, "d": None}, s_null=True)
    engine.apply(upd_r_join(1, 10, 20, b="new-b"))
    assert t.get((1,)).values["b"] == "new-b"


def test_rule5_to_null_join_value():
    engine, t = make_engine()
    put(t, {"a": 1, "b": "b", "c": 10, "d": None}, s_null=True)
    engine.apply(upd_r_join(1, 10, None))
    row = t.get((1,))
    assert row.values["c"] is None and null_flag(row, "s_null")


# ---------------------------------------------------------------------------
# Rule 6: update join attribute of s^x (join attr not S's key)
# ---------------------------------------------------------------------------

S2 = TableSchema("S2", ["k", "c", "d"], primary_key=["k"])


def make_engine_nonkey_join():
    db = Database()
    db.create_table(R)
    db.create_table(S2)
    spec = FojSpec.derive(R, S2, "T", "c", "c")
    target = FojTransformation.target_tables(db, spec)["T"]
    return FojRuleEngine(db, spec, target), target


def upd_s_join(k, old_c, new_c):
    return UpdateRecord(txn_id=1, table="S2", key=(k,),
                        changes={"c": new_c}, old_values={"c": old_c})


def test_rule6_detaches_and_reattaches():
    engine, t = make_engine_nonkey_join()
    # s(k=7) at join 10, carried by r1; r2 waits at join 20 with snull.
    put(t, {"a": 1, "b": "b", "c": 10, "k": 7, "d": "d7"})
    put(t, {"a": 2, "b": "b", "c": 20, "k": None, "d": None}, s_null=True)
    engine.apply(upd_s_join(7, 10, 20))
    r1 = t.get((1,))
    assert null_flag(r1, "s_null") and r1.values["k"] is None
    r2 = t.get((2,))
    assert r2.values["k"] == 7 and r2.values["d"] == "d7"
    assert not null_flag(r2, "s_null")


def test_rule6_deletes_null_r_placeholder_and_creates_new():
    engine, t = make_engine_nonkey_join()
    put(t, {"a": None, "b": None, "c": 10, "k": 7, "d": "d7"}, r_null=True)
    engine.apply(upd_s_join(7, 10, 20))
    assert t.row_count == 1
    row = next(iter(t.scan()))
    assert null_flag(row, "r_null")
    assert row.values["c"] == 20 and row.values["k"] == 7


def test_rule6_ignored_when_no_carrier():
    engine, t = make_engine_nonkey_join()
    engine.apply(upd_s_join(7, 10, 20))
    assert t.row_count == 0  # paper: "the log record is ignored"


def test_rule6_rejects_null_destination():
    engine, t = make_engine_nonkey_join()
    put(t, {"a": 1, "b": "b", "c": 10, "k": 7, "d": "d7"})
    with pytest.raises(TransformationError):
        engine.apply(upd_s_join(7, 10, None))


# ---------------------------------------------------------------------------
# Rule 7: update other attributes
# ---------------------------------------------------------------------------


def test_rule7_updates_r_side():
    engine, t = make_engine()
    put(t, {"a": 1, "b": "old", "c": 10, "d": "d"})
    engine.apply(UpdateRecord(txn_id=1, table="R", key=(1,),
                              changes={"b": "new"},
                              old_values={"b": "old"}))
    assert t.get((1,)).values["b"] == "new"


def test_rule7_r_ignored_when_absent():
    engine, t = make_engine()
    engine.apply(UpdateRecord(txn_id=1, table="R", key=(1,),
                              changes={"b": "new"},
                              old_values={"b": "old"}))
    assert t.row_count == 0


def test_rule7_updates_every_s_carrier_including_null_r():
    engine, t = make_engine()
    put(t, {"a": 1, "b": "b", "c": 10, "d": "old"})
    put(t, {"a": 2, "b": "b", "c": 10, "d": "old"})
    engine.apply(UpdateRecord(txn_id=1, table="S", key=(10,),
                              changes={"d": "new"},
                              old_values={"d": "old"}))
    assert t.get((1,)).values["d"] == "new"
    assert t.get((2,)).values["d"] == "new"


def test_rule7_s_ignored_when_no_carrier():
    engine, t = make_engine()
    engine.apply(UpdateRecord(txn_id=1, table="S", key=(10,),
                              changes={"d": "new"},
                              old_values={"d": "old"}))
    assert t.row_count == 0


def test_rule7_join_noop_update_routed_as_other():
    """An update record listing the join attr with an unchanged value is
    not a join move."""
    engine, t = make_engine()
    put(t, {"a": 1, "b": "old", "c": 10, "d": "d"})
    engine.apply(UpdateRecord(txn_id=1, table="R", key=(1,),
                              changes={"c": 10, "b": "new"},
                              old_values={"c": 10, "b": "old"}))
    assert t.get((1,)).values["b"] == "new"
    assert t.row_count == 1


# ---------------------------------------------------------------------------
# Idempotence (the paper: "a log record may be redone multiple times")
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("record_factory", [
    lambda: insert_r(1, "b1", 10),
    lambda: insert_s(10, "d10"),
    lambda: DeleteRecord(txn_id=1, table="R", key=(1,)),
    lambda: DeleteRecord(txn_id=1, table="S", key=(10,)),
    lambda: UpdateRecord(txn_id=1, table="R", key=(1,),
                         changes={"b": "z"}, old_values={"b": "b1"}),
])
def test_rules_idempotent_under_reapplication(record_factory):
    engine, t = make_engine()
    put(t, {"a": 1, "b": "b1", "c": 10, "d": "d10"})
    put(t, {"a": 2, "b": "b2", "c": 20, "d": None}, s_null=True)
    engine.apply(record_factory())
    snapshot = rows_of(t)
    engine.apply(record_factory())
    assert rows_of(t) == snapshot


def test_rule5_idempotent_under_reapplication():
    engine, t = make_engine()
    put(t, {"a": 1, "b": "b1", "c": 10, "d": "d10"})
    record = upd_r_join(1, 10, 20)
    engine.apply(record)
    snapshot = rows_of(t)
    engine.apply(upd_r_join(1, 10, 20))  # before-image no longer matches
    assert rows_of(t) == snapshot


# ---------------------------------------------------------------------------
# Lock mapping
# ---------------------------------------------------------------------------


def test_targets_of_source_lock_r_and_s():
    engine, t = make_engine()
    put(t, {"a": 1, "b": "b", "c": 10, "d": "d"})
    assert engine.targets_of_source_lock("R", (1,)) == [(t, (1,))]
    assert engine.targets_of_source_lock("S", (10,)) == [(t, (1,))]
    assert engine.targets_of_source_lock("S", (99,)) == []
    # An in-place swap renames a source to its zombie name; its old
    # writers' locks map under that name.
    engine.rename_source("S", "S@9")
    assert engine.targets_of_source_lock("S@9", (10,)) == [(t, (1,))]
    assert engine.targets_of_source_lock("S", (10,)) == []


def test_sources_of_target_lock():
    engine, t = make_engine()
    put(t, {"a": 1, "b": "b", "c": 10, "d": "d"})
    mapped = engine.sources_of_target_lock("T", (1,))
    names = [(table.name, key) for table, key in mapped]
    assert ("R", (1,)) in names
    assert ("S", (10,)) in names


def test_sources_of_target_lock_snull_row_maps_to_r_only():
    engine, t = make_engine()
    put(t, {"a": 1, "b": "b", "c": 99, "d": None}, s_null=True)
    mapped = engine.sources_of_target_lock("T", (1,))
    assert [table.name for table, _ in mapped] == ["R"]


def test_sources_of_target_lock_null_x_row_maps_to_s_only():
    """``t^null_x`` carries no R record: its lock key ``(NULL, x)``
    (``Table.lock_key``) names S record x alone, row or no row."""
    engine, t = make_engine()
    row = put(t, {"a": None, "b": None, "c": 10, "d": "d"}, r_null=True)
    assert t.lock_key(row.values) == (None, 10)
    for present in (True, False):
        mapped = engine.sources_of_target_lock("T", (None, 10))
        assert [(table.name, key) for table, key in mapped] == \
            [("S", (10,))]
        if present:
            t.delete_rowid(row.rowid)


# ---------------------------------------------------------------------------
# Dispatch: apply_run in arbitrary run splits == apply record by record
# ---------------------------------------------------------------------------


def _foj_stream(rng, n):
    """A valid mixed history of R / S2 / a foreign table: inserts, deletes,
    Rule 7 updates, join-attribute updates (Rules 5 and 6) and the
    compensating actions a rollback's CLRs carry (an operation directly
    followed by its inverse)."""
    r, s = {}, {}                                  # a -> c;  k -> c
    stream, next_id = [], [0]

    def emit(record, inverse=None):
        stream.append(record)
        if inverse is not None and rng.random() < 0.15:
            stream.append(inverse)                 # CLR-unwrapped action
            return False
        return True

    def free_join():
        return rng.choice([c for c in range(12) if c not in s.values()])

    while len(stream) < n:
        op = rng.randrange(9)
        if op == 0 or not r:
            next_id[0] += 1
            a, c = next_id[0], rng.choice([None] + list(range(12)))
            if emit(insert_r(a, f"b{a}", c),
                    DeleteRecord(txn_id=1, table="R", key=(a,))):
                r[a] = c
        elif op == 1:
            a = rng.choice(sorted(r))
            if emit(DeleteRecord(txn_id=1, table="R", key=(a,)),
                    insert_r(a, "back", r[a])):
                del r[a]
        elif op == 2:
            a = rng.choice(sorted(r))
            emit(UpdateRecord(txn_id=1, table="R", key=(a,),
                              changes={"b": f"b{len(stream)}"},
                              old_values={"b": "?"}))
        elif op == 3:
            a, c = rng.choice(sorted(r)), rng.choice([None] + list(range(12)))
            if c != r[a] and emit(upd_r_join(a, r[a], c),
                                  upd_r_join(a, c, r[a])):
                r[a] = c
        elif op == 4 and len(s) < 10:
            next_id[0] += 1
            k, c = next_id[0], free_join()
            if emit(InsertRecord(txn_id=1, table="S2", key=(k,),
                                 values={"k": k, "c": c, "d": f"d{k}"}),
                    DeleteRecord(txn_id=1, table="S2", key=(k,))):
                s[k] = c
        elif op == 5 and s:
            k = rng.choice(sorted(s))
            emit(DeleteRecord(txn_id=1, table="S2", key=(k,)))
            del s[k]
        elif op == 6 and s:
            k = rng.choice(sorted(s))
            emit(UpdateRecord(txn_id=1, table="S2", key=(k,),
                              changes={"d": f"d{len(stream)}"},
                              old_values={"d": "?"}))
        elif op == 7 and s:
            k, c = rng.choice(sorted(s)), free_join()
            emit(upd_s_join(k, s[k], c))
            s[k] = c
        elif op == 8:
            emit(InsertRecord(txn_id=1, table="elsewhere", key=(1,),
                              values={"a": 1}))
    return stream


@pytest.mark.parametrize("seed", range(6))
def test_apply_run_in_any_split_equals_apply_per_record(seed):
    rng = random.Random(seed)

    def make():
        engine, target = make_engine_nonkey_join()
        return engine, [target]

    expected = check_dispatch_contract(make, _foj_stream(rng, 300), rng,
                                       rows_of)
    assert any(len(touched) > 1 for touched in expected)


def test_unknown_table_or_record_class_touches_nothing():
    engine, t = make_engine()
    foreign = InsertRecord(txn_id=1, table="elsewhere", key=(1,),
                           values={"a": 1})
    assert engine.apply(foreign) == []
    assert engine.apply_run("elsewhere", InsertRecord,
                            [(foreign, 1, 1), (foreign, 2, 1)]) == [[], []]
    assert engine.apply_run("R", LogRecord, [(LogRecord(), 3, 1)]) == [[]]
    assert t.row_count == 0


# ---------------------------------------------------------------------------
# A committed update pair replayed over a fuzzy read that already saw it
# ---------------------------------------------------------------------------


def _replayed_update_pair(s_schema, s_rows, table, key, first, move):
    """Run a FOJ of R and ``s_schema`` to the swap while a committed
    transaction sits between a long transaction's first record and the
    begin mark: it updates ``table`` row ``key`` with ``first``, then in
    a later record with ``move`` (a join value change plus a side
    change).  The fuzzy read sees the final row; propagation replays
    both records."""
    db = Database()
    db.create_table(R)
    db.create_table(s_schema)
    txn = db.begin()
    for a, c in ((1, 10), (4, 30)):
        db.insert(txn, "R", {"a": a, "b": "b0", "c": c})
    for values in s_rows:
        db.insert(txn, s_schema.name, values)
    db.commit(txn)
    long = db.begin()
    db.update(long, "R", (1,), {"b": "long"})
    writer = db.begin()
    db.update(writer, table, key, first)
    db.update(writer, table, key, move)
    db.commit(writer)
    tf = FojTransformation(db, FojSpec.derive(R, s_schema, "T", "c", "c"))
    tf.step(1)
    db.commit(long)
    for _ in range(1000):
        if tf.phase is Phase.DONE:
            break
        tf.step(64)
    assert tf.phase is Phase.DONE
    return sorted((tuple(sorted(r.values.items())) for r in
                   db.table("T").scan()), key=repr)


def test_rule5_applies_side_changes_of_an_already_reflected_move():
    rows = _replayed_update_pair(
        S, [{"c": 10, "d": "d10"}, {"c": 20, "d": "d20"}],
        "R", (4,), {"b": "x1"}, {"c": 20, "b": "x2"})
    assert (("a", 4), ("b", "x2"), ("c", 20), ("d", "d20")) in rows


def test_rule6_applies_side_changes_of_an_already_reflected_move():
    rows = _replayed_update_pair(
        S2, [{"k": 1, "c": 10, "d": "d10"}],
        "S2", (1,), {"d": "x1"}, {"c": 30, "d": "x2"})
    assert rows == sorted([
        (("a", 1), ("b", "long"), ("c", 10), ("d", None), ("k", None)),
        (("a", 4), ("b", "b0"), ("c", 30), ("d", "x2"), ("k", 1))],
        key=repr)


# ---------------------------------------------------------------------------
# Population: migrate_rows a chunk at a time (Rules 1 and 2 over a chunk)
# ---------------------------------------------------------------------------


def reference_rows(engine, r_rows, s_rows):
    """:meth:`FojSpec.reference`'s rows in :func:`rows_of`'s form, each
    with the null flags population sets: rnull on the row of an S record
    no R row joins, snull on an R row no S record joins."""
    spec = engine.spec
    s_joins = {s[spec.join_attr_s] for s in s_rows} - {None}
    rows = spec.reference({}, {spec.r_name: r_rows, spec.s_name: s_rows})
    return sorted(
        ((tuple(sorted(row.items())), row["a"] is None,
          row["a"] is not None and row["c"] not in s_joins)
         for row in rows[spec.target_name]),
        key=repr)


def chunk(rows):
    return [(dict(values), 0) for values in rows]


def join_probes(target):
    return target.index("__join__").probe_stats["misses"]


def r_row(a, c):
    return {"a": a, "b": f"b{a}", "c": c}


def test_chunk_s_before_r_morphs_then_copies():
    """S first: the first R image at 10 morphs ``t^null_10`` in place,
    the next copies its S part; 20 keeps its ``t^null_20``; an R image
    with no partner, or a NULL join value, joins snull."""
    engine, t = make_engine()
    s_rows = [{"c": 10, "d": "d10"}, {"c": 20, "d": "d20"}]
    r_rows = [r_row(1, 10), r_row(2, 10), r_row(3, 30), r_row(4, None)]
    engine.migrate_rows("S", chunk(s_rows))
    [t_null_10] = t.index("__join__").lookup((10,))
    engine.migrate_rows("R", chunk(r_rows))
    assert t.rowid_of((1,)) == t_null_10
    assert rows_of(t) == reference_rows(engine, r_rows, s_rows)


def test_overlapping_replayed_r_chunk_adds_and_morphs_nothing_twice():
    """A second R chunk overlapping the first adds only its new key; an
    image whose key T holds already -- here with a newer join value
    whose ``t^null_20`` is still there -- morphs nothing."""
    engine, t = make_engine()
    s_rows = [{"c": 10, "d": "d10"}, {"c": 20, "d": "d20"}]
    engine.migrate_rows("S", chunk(s_rows))
    engine.migrate_rows("R", chunk([r_row(1, 10), r_row(2, 30)]))
    once = rows_of(t)
    engine.migrate_rows("R", chunk([r_row(1, 20), r_row(2, 30)]))
    assert rows_of(t) == once
    engine.migrate_rows("R", chunk([r_row(2, 30), r_row(3, 20)]))
    assert t.row_count == 3
    assert rows_of(t) == reference_rows(
        engine, [r_row(1, 10), r_row(2, 30), r_row(3, 20)], s_rows)


@pytest.mark.parametrize("s_first", [True, False])
def test_chunks_with_null_join_values_on_both_sides(s_first):
    """A NULL join value matches nothing: each such S record keeps its
    own rnull row, each such R row joins snull, in either order."""
    engine, t = make_engine_nonkey_join()
    s_rows = [{"k": 1, "c": None, "d": "n1"}, {"k": 2, "c": None, "d": "n2"},
              {"k": 3, "c": 5, "d": "d5"}]
    r_rows = [r_row(1, None), r_row(2, 5), r_row(3, None)]
    chunks = [("S2", s_rows), ("R", r_rows)]
    for table, rows in chunks if s_first else chunks[::-1]:
        engine.migrate_rows(table, chunk(rows))
    assert rows_of(t) == reference_rows(engine, r_rows, s_rows)


def test_two_images_at_one_join_value_share_one_probe():
    """Both R images at 10 copy the S part of the row T already joins
    there, and the chunk probes the join index once per distinct join
    value (a NULL one not at all); the primary index is not probed."""
    engine, t = make_engine()
    s_rows = [{"c": 10, "d": "d10"}]
    engine.migrate_rows("S", chunk(s_rows))
    engine.migrate_rows("R", chunk([r_row(1, 10)]))
    before = join_probes(t), t.index("__primary__").probe_stats["misses"]
    r_rows = [r_row(2, 10), r_row(3, 10), r_row(4, 30), r_row(5, None)]
    engine.migrate_rows("R", chunk(r_rows))
    after = join_probes(t), t.index("__primary__").probe_stats["misses"]
    assert (after[0] - before[0], after[1] - before[1]) == (2, 0)
    assert rows_of(t) == reference_rows(
        engine, [r_row(1, 10)] + r_rows, s_rows)


def test_two_s_images_at_one_join_value_place_as_one_by_one():
    """Two S records at one join value (a state no committed one-to-many
    join holds, but a fuzzy read may): the chunk leaves what migrating
    them one by one leaves -- the first one's ``t^null_7`` only."""
    s_rows = [{"k": 1, "c": 7, "d": "d1"}, {"k": 2, "c": 7, "d": "d2"}]
    engine, t = make_engine_nonkey_join()
    engine.migrate_rows("S2", chunk(s_rows))
    one_engine, one_t = make_engine_nonkey_join()
    for values in s_rows:
        one_engine.migrate_row("S2", dict(values))
    assert rows_of(t) == rows_of(one_t)
    assert t.row_count == 1


@pytest.mark.parametrize("seed", range(20))
def test_chunks_in_mixed_orders_equal_the_reference(seed):
    """Seeded R and S rows (NULL join values on both sides) migrated as
    chunks in a random order -- R, then S, then R again, each R row in
    at least one R chunk and some in both: T is the reference join, and
    what migrating the same images one by one leaves."""
    rng = random.Random(seed)
    joins = [None] + list(range(8))
    r_rows = [r_row(a, rng.choice(joins)) for a in range(1, 25)]
    s_rows = [{"k": k, "c": c, "d": f"d{k}"} for k, c in enumerate(
        rng.sample(range(12), 6) + [None, None])]
    rng.shuffle(s_rows)
    cut = rng.randrange(len(r_rows))
    chunks = [("R", rng.sample(r_rows[:cut + 3], min(cut + 3, 24))),
              ("S2", s_rows), ("R", r_rows[cut:])]
    engine, t = make_engine_nonkey_join()
    one_engine, one_t = make_engine_nonkey_join()
    for table, rows in chunks:
        for start in range(0, len(rows), 5):
            engine.migrate_rows(table, chunk(rows[start:start + 5]))
        for values in rows:
            one_engine.migrate_row(table, dict(values))
    assert rows_of(t) == reference_rows(engine, r_rows, s_rows)
    assert rows_of(t) == rows_of(one_t)


FAULT_R = [r_row(1, 10), r_row(2, 10), r_row(3, 20), r_row(4, None),
           r_row(5, 50), r_row(6, 40), r_row(7, 10)]
FAULT_S = [{"c": 10, "d": "d10"}, {"c": 20, "d": "d20"},
           {"c": 50, "d": "d50"}, {"c": 60, "d": "d60"}]


@pytest.mark.parametrize("site,hit,chunks,failing", [
    # R chunk 2 morphs t^null_50, then inserts the rest in one batch.
    ("table.insert", 1, [("R", FAULT_R[:4]), ("S", FAULT_S),
                         ("R", FAULT_R[4:])], 2),
    ("table.update", 1, [("R", FAULT_R[:4]), ("S", FAULT_S),
                         ("R", FAULT_R[4:])], 2),
    # The S chunk fills the snull carriers at 10 and 20 in place, then
    # inserts t^null_50 and t^null_60 in one batch.
    ("table.insert", 1, [("R", FAULT_R[:4]), ("S", FAULT_S),
                         ("R", FAULT_R[4:])], 1),
    ("table.update", 2, [("R", FAULT_R[:4]), ("S", FAULT_S),
                         ("R", FAULT_R[4:])], 1),
], ids=["r-insert", "r-update", "s-insert", "s-update"])
def test_a_chunk_that_raises_converges_on_retry(site, hit, chunks, failing):
    """A fault inside the failing chunk stores nothing of it (its morphs
    and fills are taken back), and the retried chunk, then the rest,
    publishes the reference rows and flags."""
    engine, t = make_engine()
    for position, (table, rows) in enumerate(chunks):
        if position == failing:
            t.faults = FaultInjector(FaultPlan().arm(site, CrashFault(),
                                                     hit=hit))
            with pytest.raises(SimulatedCrashError):
                engine.migrate_rows(table, chunk(rows))
            t.faults = NULL_FAULTS
        engine.migrate_rows(table, chunk(rows))
    assert rows_of(t) == reference_rows(engine, FAULT_R, FAULT_S)
