"""Unit tests for the split propagation rules (Rules 8-11, Section 5.2)
and the C/U flag transitions of Section 5.3."""

import random

import pytest

from repro import Database, Phase, Session, TableSchema
from repro.common.errors import SimulatedCrashError, TransformationError
from repro.faults import NULL_FAULTS, CrashFault, FaultInjector, FaultPlan
from repro.relational import rows_equal, split
from repro.relational.spec import SplitSpec
from repro.transform.split import (
    FLAG_CONSISTENT,
    FLAG_UNKNOWN,
    SplitRuleEngine,
    SplitTransformation,
)
from repro.wal.records import (
    CCBeginRecord,
    CCOkRecord,
    DeleteRecord,
    InsertRecord,
    LogRecord,
    UpdateRecord,
)
from tests.conftest import table_counters, values_of
from tests.dispatch_contract import check_dispatch_contract

T = TableSchema("T", ["id", "name", "zip", "city"], primary_key=["id"])


def make_engine(check_consistency=False):
    db = Database()
    db.create_table(T)
    spec = SplitSpec.derive(T, "Tr", "Ts", "zip", s_attrs=["city"])
    targets = SplitTransformation.target_tables(db, spec)
    engine = SplitRuleEngine(db, spec, targets["Tr"], targets["Ts"],
                             check_consistency=check_consistency,
                             transform_id="tf-test")
    return engine, targets["Tr"], targets["Ts"]


def ins(lsn, id_, zip_, city, name="n"):
    record = InsertRecord(txn_id=1, table="T", key=(id_,),
                          values={"id": id_, "name": name, "zip": zip_,
                                  "city": city})
    return record, lsn


def counter(s, zip_):
    return s.get((zip_,)).meta["counter"]


# ---------------------------------------------------------------------------
# Rule 8: insert
# ---------------------------------------------------------------------------


def test_rule8_inserts_r_and_s_with_lsn():
    engine, r, s = make_engine()
    record, lsn = ins(10, 1, 7050, "Trondheim")
    engine.apply(record, lsn)
    assert r.get((1,)).values == {"id": 1, "name": "n", "zip": 7050}
    assert r.get((1,)).lsn == 10
    srow = s.get((7050,))
    assert srow.values == {"zip": 7050, "city": "Trondheim"}
    assert srow.lsn == 10 and srow.meta["counter"] == 1


def test_rule8_second_contributor_bumps_counter_not_values():
    engine, r, s = make_engine()
    engine.apply(*ins(10, 1, 7050, "Trondheim"))
    engine.apply(*ins(20, 2, 7050, "IGNORED-DIFFERENT"))
    srow = s.get((7050,))
    assert srow.meta["counter"] == 2
    assert srow.lsn == 20  # max of contributors
    assert srow.values["city"] == "Trondheim"  # values never overwritten


def test_rule8_ignored_when_r_exists():
    engine, r, s = make_engine()
    engine.apply(*ins(10, 1, 7050, "A"))
    engine.apply(*ins(5, 1, 7050, "A"))  # duplicate replay
    assert counter(s, 7050) == 1  # no double count


def test_rule8_lower_lsn_does_not_regress_s_lsn():
    engine, r, s = make_engine()
    engine.apply(*ins(50, 1, 7050, "A"))
    engine.apply(*ins(20, 2, 7050, "A"))
    assert s.get((7050,)).lsn == 50


def test_rule8_rejects_null_split_value():
    engine, r, s = make_engine()
    with pytest.raises(TransformationError):
        engine.apply(*ins(10, 1, None, "A"))


# ---------------------------------------------------------------------------
# Rule 9: delete
# ---------------------------------------------------------------------------


def delete(lsn, id_):
    return DeleteRecord(txn_id=1, table="T", key=(id_,)), lsn


def test_rule9_removes_r_and_decrements_counter():
    engine, r, s = make_engine()
    engine.apply(*ins(10, 1, 7050, "A"))
    engine.apply(*ins(11, 2, 7050, "A"))
    engine.apply(*delete(20, 1))
    assert r.get((1,)) is None
    assert counter(s, 7050) == 1
    assert s.get((7050,)).lsn == 20  # raised by the delete (paper Rule 9)


def test_rule9_removes_s_at_zero():
    engine, r, s = make_engine()
    engine.apply(*ins(10, 1, 7050, "A"))
    engine.apply(*delete(20, 1))
    assert s.get((7050,)) is None


def test_rule9_ignored_when_absent_or_newer():
    engine, r, s = make_engine()
    engine.apply(*delete(20, 1))  # absent
    engine.apply(*ins(30, 1, 7050, "A"))
    engine.apply(*delete(25, 1))  # staler than the row's LSN 30
    assert r.get((1,)) is not None
    assert counter(s, 7050) == 1


# ---------------------------------------------------------------------------
# Rules 10/11: update
# ---------------------------------------------------------------------------


def upd(lsn, id_, changes, old):
    return UpdateRecord(txn_id=1, table="T", key=(id_,), changes=changes,
                        old_values=old), lsn


def test_rule10_updates_r_and_stamps_lsn_even_without_r_changes():
    engine, r, s = make_engine()
    engine.apply(*ins(10, 1, 7050, "A"))
    engine.apply(*upd(20, 1, {"city": "B"}, {"city": "A"}))
    assert r.get((1,)).lsn == 20  # paper: "changed even if no attribute
    # values in r^y_x are updated"
    assert s.get((7050,)).values["city"] == "B"


def test_rule10_stale_update_ignored_entirely():
    engine, r, s = make_engine()
    engine.apply(*ins(30, 1, 7050, "A"))
    engine.apply(*upd(20, 1, {"name": "x", "city": "B"},
                      {"name": "n", "city": "A"}))
    assert r.get((1,)).values["name"] == "n"
    assert s.get((7050,)).values["city"] == "A"  # Rule 11 gated on Rule 10


def test_rule11_s_value_guarded_by_s_lsn():
    """The S row's LSN may already exceed this update's (a sibling raced
    ahead); the value update is skipped but Rule 10 still applied."""
    engine, r, s = make_engine()
    engine.apply(*ins(10, 1, 7050, "A"))
    engine.apply(*ins(50, 2, 7050, "A"))   # s LSN now 50
    engine.apply(*upd(20, 1, {"city": "STALE"}, {"city": "A"}))
    assert r.get((1,)).lsn == 20
    assert s.get((7050,)).values["city"] == "A"  # skipped


def test_rule11_split_attr_change_moves_contribution():
    engine, r, s = make_engine()
    engine.apply(*ins(10, 1, 7050, "A"))
    engine.apply(*ins(11, 2, 7050, "A"))
    engine.apply(*upd(20, 1, {"zip": 5020, "city": "Bergen"},
                      {"zip": 7050, "city": "A"}))
    assert r.get((1,)).values["zip"] == 5020
    assert counter(s, 7050) == 1
    new = s.get((5020,))
    assert new.meta["counter"] == 1
    assert new.values["city"] == "Bergen"


def test_rule11_split_move_to_existing_bumps_counter_only():
    engine, r, s = make_engine()
    engine.apply(*ins(10, 1, 7050, "A"))
    engine.apply(*ins(11, 2, 5020, "Bergen"))
    engine.apply(*upd(20, 1, {"zip": 5020, "city": "OTHER"},
                      {"zip": 7050, "city": "A"}))
    assert s.get((7050,)) is None  # vacated
    new = s.get((5020,))
    assert new.meta["counter"] == 2
    assert new.values["city"] == "Bergen"  # "only the counter and
    # possibly the LSN of the record with the new key is updated"


def test_rule11_split_move_counter_survives_racing_s_lsn():
    """The counter movement is guarded by the R side only; a sibling
    having raced the S LSN forward must not suppress it."""
    engine, r, s = make_engine()
    engine.apply(*ins(10, 1, 7050, "A"))
    engine.apply(*ins(90, 2, 7050, "A"))   # s(7050) LSN 90
    engine.apply(*upd(20, 1, {"zip": 5020, "city": "B"},
                      {"zip": 7050, "city": "A"}))
    assert counter(s, 7050) == 1  # decremented despite LSN 90 > 20
    assert counter(s, 5020) == 1


def test_rule11_rejects_null_new_split_value():
    engine, r, s = make_engine()
    engine.apply(*ins(10, 1, 7050, "A"))
    with pytest.raises(TransformationError):
        engine.apply(*upd(20, 1, {"zip": None}, {"zip": 7050}))


def test_full_replay_is_idempotent():
    engine, r, s = make_engine()
    ops = [ins(10, 1, 7050, "A"), ins(11, 2, 7050, "A"),
           upd(12, 1, {"city": "B"}, {"city": "A"}),
           upd(13, 2, {"zip": 5020, "city": "C"},
               {"zip": 7050, "city": "B"}),
           delete(14, 1)]
    for record, lsn in ops:
        engine.apply(record, lsn)
    snap_r = sorted((tuple(sorted(x.values.items())), x.lsn)
                    for x in r.scan())
    snap_s = sorted((tuple(sorted(x.values.items())), x.lsn,
                     x.meta["counter"]) for x in s.scan())
    for record, lsn in ops:  # replay the whole suffix
        engine.apply(record, lsn)
    assert snap_r == sorted((tuple(sorted(x.values.items())), x.lsn)
                            for x in r.scan())
    assert snap_s == sorted((tuple(sorted(x.values.items())), x.lsn,
                             x.meta["counter"]) for x in s.scan())


# ---------------------------------------------------------------------------
# C/U flags (Section 5.3)
# ---------------------------------------------------------------------------


def test_flag_fresh_insert_is_consistent():
    engine, r, s = make_engine(check_consistency=True)
    engine.apply(*ins(10, 1, 7050, "A"))
    assert s.get((7050,)).meta["flag"] == FLAG_CONSISTENT


def test_flag_differing_insert_flips_to_unknown():
    engine, r, s = make_engine(check_consistency=True)
    engine.apply(*ins(10, 1, 7050, "A"))
    engine.apply(*ins(11, 2, 7050, "DIFFERENT"))
    assert s.get((7050,)).meta["flag"] == FLAG_UNKNOWN


def test_flag_equal_insert_keeps_consistent():
    engine, r, s = make_engine(check_consistency=True)
    engine.apply(*ins(10, 1, 7050, "A"))
    engine.apply(*ins(11, 2, 7050, "A"))
    assert s.get((7050,)).meta["flag"] == FLAG_CONSISTENT


def test_flag_update_with_counter_above_one_flips_to_unknown():
    engine, r, s = make_engine(check_consistency=True)
    engine.apply(*ins(10, 1, 7050, "A"))
    engine.apply(*ins(11, 2, 7050, "A"))
    engine.apply(*upd(20, 1, {"city": "B"}, {"city": "A"}))
    assert s.get((7050,)).meta["flag"] == FLAG_UNKNOWN


def test_flag_full_rewrite_of_counter_one_restores_consistent():
    engine, r, s = make_engine(check_consistency=True)
    engine.apply(*ins(10, 1, 7050, "A"))
    engine.apply(*ins(11, 2, 7050, "DIFF"))  # -> U
    engine.apply(*delete(12, 2))             # counter back to 1
    engine.apply(*upd(20, 1, {"city": "B"}, {"city": "A"}))
    assert s.get((7050,)).meta["flag"] == FLAG_CONSISTENT


def test_unknown_split_values_listing():
    engine, r, s = make_engine(check_consistency=True)
    engine.apply(*ins(10, 1, 7050, "A"))
    engine.apply(*ins(11, 2, 7050, "DIFF"))
    engine.apply(*ins(12, 3, 5020, "B"))
    assert engine.unknown_split_values() == [(7050,)]


# ---------------------------------------------------------------------------
# CC marker handling
# ---------------------------------------------------------------------------


def cc_begin(value):
    return CCBeginRecord(transform_id="tf-test", split_value=(value,))


def cc_ok(value, image, lsn=100):
    record = CCOkRecord(transform_id="tf-test", split_value=(value,),
                        image=image)
    record.lsn = lsn
    return record


def test_cc_clean_check_installs_image_and_flag():
    engine, r, s = make_engine(check_consistency=True)
    engine.apply(*ins(10, 1, 7050, "A"))
    engine.apply(*ins(11, 2, 7050, "DIFF"))  # U
    engine.handle_marker(cc_begin(7050))
    engine.handle_marker(cc_ok(7050, {"zip": 7050, "city": "Verified"}))
    srow = s.get((7050,))
    assert srow.values["city"] == "Verified"
    assert srow.meta["flag"] == FLAG_CONSISTENT
    assert srow.lsn == 100


def test_cc_dirty_check_discarded():
    engine, r, s = make_engine(check_consistency=True)
    engine.apply(*ins(10, 1, 7050, "A"))
    engine.apply(*ins(11, 2, 7050, "DIFF"))
    engine.handle_marker(cc_begin(7050))
    # An operation touches the value between the marks -> dirty.
    engine.apply(*ins(12, 3, 7050, "X"))
    engine.handle_marker(cc_ok(7050, {"zip": 7050, "city": "Verified"}))
    assert s.get((7050,)).meta["flag"] == FLAG_UNKNOWN


def test_cc_ok_without_begin_ignored():
    engine, r, s = make_engine(check_consistency=True)
    engine.apply(*ins(10, 1, 7050, "A"))
    engine.handle_marker(cc_ok(7050, {"zip": 7050, "city": "Z"}))
    assert s.get((7050,)).values["city"] == "A"


def test_cc_marks_of_other_transformations_ignored():
    engine, r, s = make_engine(check_consistency=True)
    engine.apply(*ins(10, 1, 7050, "A"))
    engine.apply(*ins(11, 2, 7050, "DIFF"))
    other = CCBeginRecord(transform_id="someone-else",
                          split_value=(7050,))
    engine.handle_marker(other)
    assert (7050,) not in engine._cc_inflight


# ---------------------------------------------------------------------------
# Lock mapping
# ---------------------------------------------------------------------------


def test_targets_of_source_lock():
    engine, r, s = make_engine()
    engine.apply(*ins(10, 1, 7050, "A"))
    mapped = engine.targets_of_source_lock("T", (1,))
    assert (r, (1,)) in mapped
    assert (s, (7050,)) in mapped
    assert engine.targets_of_source_lock("T", (99,)) == [(r, (99,))]


def test_sources_of_target_lock():
    engine, r, s = make_engine()
    # The reverse mapping reads the *source* table T, so populate it.
    source = engine.db.table("T")
    source.insert_row({"id": 1, "name": "n", "zip": 7050, "city": "A"})
    source.insert_row({"id": 2, "name": "n", "zip": 7050, "city": "A"})
    engine.apply(*ins(10, 1, 7050, "A"))
    engine.apply(*ins(11, 2, 7050, "A"))
    r_mapped = engine.sources_of_target_lock("Tr", (1,))
    assert [(t.name, k) for t, k in r_mapped] == [("T", (1,))]
    s_mapped = engine.sources_of_target_lock("Ts", (7050,))
    assert sorted(k for _, k in s_mapped) == [(1,), (2,)]


# ---------------------------------------------------------------------------
# Dispatch: apply_run in arbitrary run splits == apply record by record
# ---------------------------------------------------------------------------


def _split_stream(rng, n):
    """A valid mixed history of T and a foreign table: inserts, deletes,
    name / city updates, split-attribute moves and the compensating
    actions a rollback's CLRs carry (an operation directly followed by
    its inverse).  City is a function of zip, as the split requires."""
    rows, stream = {}, []                          # id -> zip

    def city(zip_):
        return f"city{zip_}"

    def emit(record, inverse=None):
        stream.append(record)
        if inverse is not None and rng.random() < 0.15:
            stream.append(inverse)                 # CLR-unwrapped action
            return False
        return True

    while len(stream) < n:
        op = rng.randrange(6)
        if op == 0 or not rows:
            id_, zip_ = len(stream) + 1, rng.randrange(5)
            if emit(ins(0, id_, zip_, city(zip_))[0], delete(0, id_)[0]):
                rows[id_] = zip_
        elif op == 1:
            id_ = rng.choice(sorted(rows))
            if emit(delete(0, id_)[0],
                    ins(0, id_, rows[id_], city(rows[id_]))[0]):
                del rows[id_]
        elif op == 2:
            id_ = rng.choice(sorted(rows))
            emit(upd(0, id_, {"name": f"n{len(stream)}"}, {"name": "?"})[0])
        elif op == 3:
            id_, zip_ = rng.choice(sorted(rows)), rng.randrange(5)
            old = rows[id_]
            if zip_ != old and emit(
                    upd(0, id_, {"zip": zip_, "city": city(zip_)},
                        {"zip": old, "city": city(old)})[0],
                    upd(0, id_, {"zip": old, "city": city(old)},
                        {"zip": zip_, "city": city(zip_)})[0]):
                rows[id_] = zip_
        elif op == 4:
            id_ = rng.choice(sorted(rows))
            emit(upd(0, id_, {"city": city(rows[id_])},
                     {"city": city(rows[id_])})[0])
        else:
            emit(InsertRecord(txn_id=1, table="elsewhere", key=(1,),
                              values={"id": 1}))
    return stream


def _state(table):
    return sorted((sorted(row.values.items()), row.lsn,
                   sorted((row.meta or {}).items()))
                  for row in table.scan())


@pytest.mark.parametrize("seed", range(6))
def test_apply_run_in_any_split_equals_apply_per_record(seed):
    rng = random.Random(seed)

    def make():
        engine, r, s = make_engine(check_consistency=True)
        return engine, [r, s]

    expected = check_dispatch_contract(make, _split_stream(rng, 300), rng,
                                       _state)
    assert any(len(touched) > 2 for touched in expected)   # a split move


def test_unknown_table_or_record_class_touches_nothing():
    engine, r, s = make_engine()
    foreign = InsertRecord(txn_id=1, table="elsewhere", key=(1,),
                           values={"id": 1})
    assert engine.apply(foreign, 1) == []
    assert engine.apply_run("elsewhere", InsertRecord,
                            [(foreign, 1, 1), (foreign, 2, 1)]) == [[], []]
    assert engine.apply_run("T", LogRecord, [(LogRecord(), 3, 1)]) == [[]]
    assert r.row_count == 0 and s.row_count == 0


# ---------------------------------------------------------------------------
# Population: a chunk at a time, all or nothing
# ---------------------------------------------------------------------------


def _populating_split(rows, check_consistency=False):
    """A split of ``rows`` (T(id, grp, info)), stepped into POPULATING."""
    db = Database()
    db.create_table(TableSchema("T", ["id", "grp", "info"],
                                primary_key=["id"]))
    with Session(db) as s:
        for values in rows:
            s.insert("T", values)
    spec = SplitSpec.derive(db.table("T").schema, r_name="T_r",
                            s_name="T_s", split_attr="grp",
                            s_attrs=["info"])
    tf = SplitTransformation(db, spec, check_consistency=check_consistency)
    while tf.phase is not Phase.POPULATING:
        tf.step(1)
    return db, spec, tf


def _target_state(table):
    return ({rowid: dict(values) for rowid, values in table.rows.items()},
            dict(table.lsns),
            {rowid: dict(meta) for rowid, meta in table.metas.items()},
            {name: dict(index._map) for name, index in table.indexes.items()})


def test_a_chunk_whose_s_insert_fails_leaves_no_row_and_retries_whole():
    """The second chunk brings new split values and contributions to one
    already in S; its S insert crashes: no R row, S row, counter or LSN
    of the chunk stays.  Its retry, then the rest of the population,
    publishes the reference split."""
    db, spec, tf = _populating_split(
        [{"id": i, "grp": i // 5, "info": f"g{i // 5}"} for i in range(40)])
    r_table, s_table = tf.targets["T_r"], tf.targets["T_s"]
    scan = tf._scans["T"]
    tf.engine.migrate_rows("T", scan.next_chunk(8))       # grps 0 and 1
    before = _target_state(r_table), _target_state(s_table)
    images = scan.next_chunk(8)                           # grps 1, 2, 3
    s_table.faults = FaultInjector(
        FaultPlan().arm("table.insert", CrashFault()))
    with pytest.raises(SimulatedCrashError):
        tf.engine.migrate_rows("T", images)
    assert (_target_state(r_table), _target_state(s_table)) == before
    s_table.faults = NULL_FAULTS
    tf.engine.migrate_rows("T", images)
    r_rows, s_rows, counters, _ = split(spec, values_of(db, "T"))
    tf.run()
    assert rows_equal(values_of(db, "T_r"), r_rows)
    assert rows_equal(values_of(db, "T_s"), s_rows)
    assert table_counters(db, "T_s") == counters


def test_population_flags_disagreeing_contributions_as_the_row_loop_did():
    """Under ``check_consistency=True`` a contribution that disagrees
    with its S row -- earlier in the same chunk or in an earlier one --
    flags the row U.  The expected S rows (split value, counter, LSN,
    info) and U-flagged values are what the per-row population loop
    produced on this seeded table."""
    rng = random.Random(11)
    rows = []
    for i in range(60):
        grp = rng.randrange(8)
        info = f"g{grp}" if rng.random() > 0.15 else f"x{rng.randrange(3)}"
        rows.append({"id": i, "grp": grp, "info": info})
    _db, _spec, tf = _populating_split(rows, check_consistency=True)
    while tf.phase is Phase.POPULATING:
        tf.step(7)
    assert tf.engine.unknown_split_values() == \
        [(1,), (2,), (3,), (4,), (6,)]
    assert sorted((row.values["grp"], row.meta["counter"], row.lsn,
                   row.values["info"])
                  for row in tf.targets["T_s"].scan()) == [
        (0, 6, 45, "g0"), (1, 9, 61, "x0"), (2, 8, 57, "x1"),
        (3, 12, 58, "g3"), (4, 9, 62, "g4"), (5, 3, 50, "g5"),
        (6, 7, 59, "g6"), (7, 6, 52, "g7")]
