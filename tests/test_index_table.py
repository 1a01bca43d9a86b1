"""Unit tests for hash indexes and heap tables."""

import gc
import random

import pytest

from repro.common.errors import (
    DuplicateKeyError,
    NoSuchIndexError,
    NoSuchRowError,
    SchemaError,
    SimulatedCrashError,
)
from repro.faults import NULL_FAULTS, CrashFault, FaultInjector, FaultPlan
from repro.storage import HashIndex, Table, TableSchema, index_key


# ---------------------------------------------------------------------------
# index_key / HashIndex
# ---------------------------------------------------------------------------


def test_index_key_none_semantics():
    assert index_key({"a": 1, "b": 2}, ("a", "b")) == (1, 2)
    assert index_key({"a": None, "b": 2}, ("a", "b")) is None
    assert index_key({"b": 2}, ("a",)) is None  # missing -> None -> skip


def test_hash_index_basic_lifecycle():
    idx = HashIndex("i", ("a",), unique=False)
    idx.insert({"a": 1}, 10)
    idx.insert({"a": 1}, 11)
    idx.insert({"a": 2}, 12)
    assert idx.lookup((1,)) == [10, 11]
    assert idx.count((1,)) == 2
    assert idx.contains((2,))
    idx.remove({"a": 1}, 10)
    assert idx.lookup((1,)) == [11]
    idx.remove({"a": 1}, 11)
    assert not idx.contains((1,))
    assert sorted(idx.keys()) == [(2,)]
    assert len(idx) == 1


def test_hash_index_unique_violation():
    idx = HashIndex("i", ("a",), unique=True, table_name="t")
    idx.insert({"a": 1}, 10)
    with pytest.raises(DuplicateKeyError):
        idx.insert({"a": 1}, 11)
    idx.insert({"a": 1}, 10)  # same rowid re-insert is idempotent


def test_hash_index_skips_null_keys():
    idx = HashIndex("i", ("a",), unique=True)
    idx.insert({"a": None}, 10)
    idx.insert({"a": None}, 11)  # no violation: NULLs unindexed
    assert idx.lookup((None,)) == []
    assert len(idx) == 0


def test_hash_index_update_moves_between_buckets():
    idx = HashIndex("i", ("a",), unique=False)
    idx.insert({"a": 1}, 10)
    idx.update({"a": 1}, {"a": 2}, 10)
    assert idx.lookup((1,)) == []
    assert idx.lookup((2,)) == [10]
    idx.update({"a": 2}, {"a": None}, 10)  # move to unindexed
    assert idx.lookup((2,)) == []
    idx.update({"a": None}, {"a": 3}, 10)  # back from unindexed
    assert idx.lookup((3,)) == [10]


def test_hash_index_lookup_one():
    idx = HashIndex("i", ("a",), unique=True)
    assert idx.lookup_one((1,)) is None
    idx.insert({"a": 1}, 10)
    assert idx.lookup_one((1,)) == 10


@pytest.mark.parametrize("unique", [True, False])
def test_hash_index_lookup_any_is_one_counted_probe(unique):
    """One rowid of the bucket (or ``None``), one counted probe; a NULL
    key is neither found nor counted."""
    idx = HashIndex("i", ("a",), unique=unique)
    rowids = [10] if unique else [10, 11, 12]
    for rowid in rowids:
        idx.insert({"a": 1}, rowid)
    assert idx.lookup_any((2,)) is None
    assert idx.lookup_any((1,)) in rowids
    assert idx.lookup_any((None,)) is None
    assert idx.probe_stats["misses"] == 2


# ---------------------------------------------------------------------------
# Table
# ---------------------------------------------------------------------------


def make_table() -> Table:
    return Table(TableSchema("t", ["id", "x", "y"], primary_key=["id"]))


def test_insert_and_get_by_key():
    table = make_table()
    row = table.insert_row({"id": 1, "x": "a"}, lsn=5)
    assert row.lsn == 5
    assert row.values == {"id": 1, "x": "a", "y": None}
    assert table.get((1,)) == row
    assert table.get((2,)) is None
    assert table.row_count == 1


def test_insert_duplicate_pk_rejected_atomically():
    table = make_table()
    table.insert_row({"id": 1, "x": "a"})
    with pytest.raises(DuplicateKeyError):
        table.insert_row({"id": 1, "x": "b"})
    assert table.row_count == 1
    assert table.get((1,)).values["x"] == "a"


def test_null_pk_rows_coexist_outside_primary_index():
    """FOJ NULL records have NULL key parts and live outside the unique
    primary index (partial-index semantics)."""
    table = make_table()
    table.insert_row({"id": None, "x": "n1"})
    table.insert_row({"id": None, "x": "n2"})  # no duplicate error
    assert table.row_count == 2
    assert table.get((None,)) is None


def test_delete_by_rowid_and_key():
    table = make_table()
    row = table.insert_row({"id": 1})
    table.delete_rowid(row.rowid)
    assert table.row_count == 0
    with pytest.raises(NoSuchRowError):
        table.delete_rowid(row.rowid)
    table.insert_row({"id": 2})
    table.delete_key((2,))
    with pytest.raises(NoSuchRowError):
        table.delete_key((2,))


def test_update_rowid_changes_values_and_lsn():
    table = make_table()
    row = table.insert_row({"id": 1, "x": "a"}, lsn=1)
    table.update_rowid(row.rowid, {"x": "b"}, lsn=9)
    assert row.values["x"] == "b"
    assert row.lsn == 9
    table.update_rowid(row.rowid, {"y": 3})  # lsn untouched when omitted
    assert row.lsn == 9


def test_update_can_change_key_reindexing():
    table = make_table()
    row = table.insert_row({"id": 1})
    table.update_rowid(row.rowid, {"id": 5})
    assert table.get((1,)) is None
    assert table.get((5,)) == row


def test_update_key_collision_rejected_before_mutation():
    table = make_table()
    table.insert_row({"id": 1, "x": "a"})
    row2 = table.insert_row({"id": 2, "x": "b"})
    with pytest.raises(DuplicateKeyError):
        table.update_rowid(row2.rowid, {"id": 1})
    assert row2.values == {"id": 2, "x": "b", "y": None}


def test_update_unknown_attribute_rejected():
    table = make_table()
    row = table.insert_row({"id": 1})
    with pytest.raises(SchemaError):
        table.update_rowid(row.rowid, {"bogus": 1})


def test_secondary_index_backfill_and_maintenance():
    table = make_table()
    table.insert_row({"id": 1, "x": "a"})
    table.insert_row({"id": 2, "x": "a"})
    idx = table.create_index("by_x", ["x"])
    assert {r.values["id"] for r in table.lookup("by_x", ("a",))} == {1, 2}
    table.insert_row({"id": 3, "x": "a"})
    assert len(table.lookup("by_x", ("a",))) == 3
    table.update_key((1,), {"x": "z"})
    assert len(table.lookup("by_x", ("a",))) == 2
    assert table.lookup("by_x", ("z",))[0].values["id"] == 1


def test_create_index_validates():
    table = make_table()
    with pytest.raises(SchemaError):
        table.create_index("bad", ["missing"])
    table.create_index("ok", ["x"])
    with pytest.raises(SchemaError):
        table.create_index("ok", ["x"])


def test_drop_index():
    table = make_table()
    table.create_index("i", ["x"])
    table.drop_index("i")
    with pytest.raises(NoSuchIndexError):
        table.index("i")
    with pytest.raises(NoSuchIndexError):
        table.drop_index("i")
    with pytest.raises(SchemaError):
        table.drop_index("__primary__")


def test_candidate_keys_create_unique_indexes():
    schema = TableSchema("t", ["id", "code"], primary_key=["id"],
                         candidate_keys=[["code"]])
    table = Table(schema)
    table.insert_row({"id": 1, "code": "x"})
    with pytest.raises(DuplicateKeyError):
        table.insert_row({"id": 2, "code": "x"})


def test_scan_order_and_mutation_tolerance():
    table = make_table()
    for i in range(5):
        table.insert_row({"id": i})
    seen = []
    for row in table.scan():
        seen.append(row.values["id"])
        if row.values["id"] == 1:
            table.delete_key((3,))
    assert seen == [0, 1, 2, 4]


def test_select_with_predicate():
    table = make_table()
    for i in range(6):
        table.insert_row({"id": i, "x": i % 2})
    evens = table.select(lambda r: r.values["x"] == 0)
    assert len(evens) == 3


def test_require_raises():
    table = make_table()
    with pytest.raises(NoSuchRowError):
        table.require((9,))


def test_rename_updates_schema_and_uid_stable():
    table = make_table()
    uid = table.uid
    table.rename("other")
    assert table.name == "other"
    assert table.uid == uid


def test_row_snapshot_is_isolated():
    """A row's only snapshot is a scan image, ``(values copy, lsn)``; a
    handle is live: it reads the table's maps, so it sees later updates."""
    from repro.engine.fuzzy import FuzzyScan

    table = make_table()
    row = table.insert_row({"id": 1, "x": "a"}, lsn=3)
    [(values, lsn)] = FuzzyScan(table).next_chunk()
    table.update_rowid(row.rowid, {"x": "b"}, lsn=4)
    assert (values["x"], lsn) == ("a", 3)
    assert (row.values["x"], row.lsn) == ("b", 4)


# ---------------------------------------------------------------------------
# Lookup freshness
# ---------------------------------------------------------------------------
# Every lookup reads the bucket (the ``probe_cache`` in these ids is the
# name the test floor knows them by): a lookup result is private and
# always reflects the latest write, through whatever path it came.


def test_probe_cache_hits_and_misses():
    """``probe_stats`` is what is left of the cache's counters (the
    wall-clock ledger reads these three keys): ``misses`` counts bucket
    probes, the other two stay 0."""
    idx = HashIndex("i", ("a",), unique=False)
    for rid in (10, 11, 12):
        idx.insert({"a": 1}, rid)
    assert idx.lookup((1,)) == [10, 11, 12]
    assert idx.lookup((1,)) == [10, 11, 12]
    assert idx.lookup((2,)) == []
    assert idx.lookup((None,)) == []              # NULL keys probe nothing
    assert idx.probe_stats == {"hits": 0, "misses": 3, "stale": 0}


def test_probe_cache_invalidated_by_writes():
    idx = HashIndex("i", ("a",), unique=False)
    idx.insert({"a": 1}, 10)
    assert idx.lookup((1,)) == [10]
    idx.insert({"a": 1}, 11)
    assert idx.lookup((1,)) == [10, 11]           # fresh result, not stale
    idx.remove({"a": 1}, 10)
    assert idx.lookup((1,)) == [11]


def test_probe_cache_result_is_a_private_copy():
    idx = HashIndex("i", ("a",), unique=False)
    idx.insert({"a": 1}, 10)
    first = idx.lookup((1,))
    first.append(999)                             # caller mutates its copy
    assert idx.lookup((1,)) == [10]


def test_probe_cache_cleared_with_index():
    idx = HashIndex("i", ("a",), unique=False)
    idx.insert({"a": 1}, 10)
    idx.lookup((1,))
    idx.clear()
    assert idx.lookup((1,)) == []


def test_probe_cache_not_served_across_mvcc_disjoint_update():
    """A disjoint-attr update takes the index-skipping fast path and the
    MVCC commit stamps a new version without touching the index; a
    lookup afterwards still finds the row, and the row is the new one."""
    from repro.engine import Database, Session
    from repro.storage.table import PRIMARY_INDEX

    db = Database()
    db.enable_mvcc()
    db.create_table(TableSchema("T", ["id", "x"], primary_key=["id"]))
    with Session(db) as s:
        s.insert("T", {"id": 1, "x": "old"})
    table = db.table("T")
    primary = table.indexes[PRIMARY_INDEX]
    before = primary.lookup((1,))
    assert len(before) == 1
    with Session(db) as s:
        s.update("T", (1,), {"x": "new"})         # disjoint from the pk
    assert primary.lookup((1,)) == before
    assert table.rows[before[0]]["x"] == "new"
    db.mvcc.gc()                                  # trims the chain, not the row
    assert primary.lookup((1,)) == before


# ---------------------------------------------------------------------------
# Index and table contract
# ---------------------------------------------------------------------------


def _index_state(index):
    return {key: index.lookup(key) for key in index.keys()}


def _table_state(table):
    return ({rowid: dict(values) for rowid, values in table.rows.items()},
            {name: _index_state(index)
             for name, index in table.indexes.items()})


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("unique", [True, False])
def test_hash_index_agrees_with_a_naive_model(unique, seed):
    """Random insert / remove / update / clear against ``key -> sorted
    rowids``: every read agrees after every step, NULL-containing keys
    stay unindexed, and a refused insert or update changes nothing."""
    rng = random.Random(seed)
    index = HashIndex("i", ("a", "b"), unique=unique, table_name="t")
    model = {}                       # key -> sorted rowids
    images = {}                      # rowid -> indexed row image

    def image():
        return {"a": rng.choice([None, 0, 1, 2]),
                "b": rng.choice([None, 0, 1])}

    def key_of(values):
        key = (values["a"], values["b"])
        return None if None in key else key

    def model_add(values, rowid):
        key = key_of(values)
        if key is not None and rowid not in model.get(key, ()):
            model[key] = sorted(model.get(key, []) + [rowid])

    def model_drop(values, rowid):
        key = key_of(values)
        if key is not None and rowid in model.get(key, ()):
            model[key].remove(rowid)
            if not model[key]:
                del model[key]

    def taken(values, rowid):
        return unique and model.get(key_of(values), [rowid]) != [rowid]

    for step in range(400):
        op = rng.random()
        if op < 0.45:
            rowid, values = rng.randrange(1, 40), image()
            if rowid in images:
                continue             # a rowid is indexed under one image
            if taken(values, rowid):
                before = _index_state(index)
                with pytest.raises(DuplicateKeyError):
                    index.insert(values, rowid)
                assert _index_state(index) == before
            else:
                index.insert(values, rowid)
                model_add(values, rowid)
                images[rowid] = values
        elif op < 0.65 and images:
            rowid = rng.choice(sorted(images))
            index.remove(images[rowid], rowid)
            model_drop(images.pop(rowid), rowid)
        elif op < 0.97 and images:
            rowid, new = rng.choice(sorted(images)), image()
            if key_of(new) != key_of(images[rowid]) and taken(new, rowid):
                before = _index_state(index)
                with pytest.raises(DuplicateKeyError):
                    index.update(images[rowid], new, rowid)
                assert _index_state(index) == before
            else:
                index.update(images[rowid], new, rowid)
                model_drop(images[rowid], rowid)
                model_add(new, rowid)
                images[rowid] = new
        elif op >= 0.97:
            index.clear()
            model.clear()
            images.clear()
        assert sorted(index.keys()) == sorted(model) and \
            len(index) == len(model)
        for a in (None, 0, 1, 2):
            for b in (None, 0, 1):
                rowids = model.get((a, b), [])
                assert index.lookup((a, b)) == rowids
                assert index.lookup_one((a, b)) == \
                    (rowids[0] if rowids else None)
                assert index.contains((a, b)) == bool(rowids)
                assert index.count((a, b)) == len(rowids)


def test_duplicate_on_second_unique_index_changes_nothing():
    """The violation sits on the *second* unique index, so the first has
    already accepted the key when it is found: rows and every index must
    still read exactly as before."""
    table = Table(TableSchema("t", ["id", "email", "grp"],
                              primary_key=["id"],
                              candidate_keys=[["email"]]))
    table.create_index("by_grp", ("grp",))
    table.insert_row({"id": 1, "email": "a@x", "grp": 1})
    other = table.insert_row({"id": 2, "email": "b@x", "grp": 1})
    before = _table_state(table)
    with pytest.raises(DuplicateKeyError):
        table.insert_row({"id": 3, "email": "a@x", "grp": 2})
    assert _table_state(table) == before
    with pytest.raises(DuplicateKeyError):
        table.update_rowid(other.rowid, {"id": 9, "email": "a@x", "grp": 3})
    assert _table_state(table) == before
    assert [r.rowid for r in table.lookup("by_grp", (1,))] == \
        sorted(table.rows)                          # rowid order


def test_unique_index_costs_no_set_per_key():
    """A unique index holds one rowid per key: loading rows into a table
    whose only index is its primary one creates no ``set`` for the
    collector to track (it used to create one per row)."""
    table = Table(TableSchema("t", ["id", "v"], primary_key=["id"]))

    def tracked_sets():
        return sum(1 for o in gc.get_objects() if type(o) is set)

    gc.collect()
    before = tracked_sets()
    for i in range(5000):
        table.insert_row({"id": i, "v": 0.0})
    assert tracked_sets() <= before


def test_probe_budget_of_get_and_insert_row():
    """``Table.get`` is one counted lookup; ``insert_row`` makes none --
    each unique index's claim is the insert itself -- read off
    ``probe_stats["misses"]``."""
    table = Table(TableSchema("t", ["id", "email", "grp"],
                              primary_key=["id"],
                              candidate_keys=[["email"]]))
    table.create_index("by_grp", ("grp",))

    def probes():
        return sum(index.probe_stats["misses"]
                   for index in table.indexes.values())

    for i in range(20):
        table.insert_row({"id": i, "email": f"{i}@x", "grp": i % 3})
    assert probes() == 0                            # two unique indexes
    base = probes()
    for i in range(30):
        table.get((i,))                             # 20 hits, 10 absent
    assert probes() - base == 30


# ---------------------------------------------------------------------------
# Table.insert_rows: a batch, all or nothing
# ---------------------------------------------------------------------------


def _keyed_table():
    table = Table(TableSchema("t", ["id", "email", "grp"],
                              primary_key=["id"],
                              candidate_keys=[["email"]]))
    table.create_index("by_grp", ("grp",))
    return table


def _full_state(table):
    return (_table_state(table), dict(table.lsns),
            {rowid: dict(meta) for rowid, meta in table.metas.items()})


def test_insert_rows_skips_and_reports_a_taken_primary_key():
    """A primary key held by a stored row, or by an earlier row of the
    batch, skips that row (a ``None`` rowid); the rest are stored with
    their LSNs and metas, in batch order."""
    table = _keyed_table()
    kept = table.insert_row({"id": 1, "email": "a@x", "grp": 0}, lsn=3)
    rowids = table.insert_rows(
        [(1, "b@x", 1), (2, "c@x", 1), (2, "d@x", 2), (3, None, 2)],
        [10, 11, 12, 13], [{"n": 0}, {"n": 1}, {"n": 2}, {"n": 3}])
    assert rowids[0] is None and rowids[2] is None
    two, three = rowids[1], rowids[3]
    assert list(table.rows) == [kept.rowid, two, three]
    assert table.get((1,)).values == {"id": 1, "email": "a@x", "grp": 0}
    assert table.rows[two] == {"id": 2, "email": "c@x", "grp": 1}
    assert (table.lsns[two], table.lsns[three]) == (11, 13)
    assert (table.metas[two], table.metas[three]) == ({"n": 1}, {"n": 3})
    assert table.lookup("by_grp", (1,)) == [table.get((2,))]
    assert [r.rowid for r in table.lookup("by_grp", (2,))] == [three]


@pytest.mark.parametrize("batch", [
    [(5, "a@x", 1)],                       # held by a stored row
    [(5, "n@x", 1), (6, "n@x", 2)],        # twice in the batch
], ids=["stored", "same_batch"])
def test_insert_rows_candidate_key_conflict_stores_nothing(batch):
    table = _keyed_table()
    table.insert_row({"id": 1, "email": "a@x", "grp": 0})
    before = _full_state(table)
    with pytest.raises(DuplicateKeyError) as excinfo:
        table.insert_rows([(9, "z@x", 1)] + batch,
                          [1] * (len(batch) + 1))
    assert excinfo.value.index == "__ck0__"
    assert _full_state(table) == before


def test_insert_rows_leaves_null_keys_unindexed():
    """Partial-index semantics: a key with a NULL part is not indexed,
    so NULL-keyed rows coexist in every unique index."""
    table = Table(TableSchema("t", ["a", "b", "v"], primary_key=["a", "b"],
                              candidate_keys=[["v"]]))
    rowids = table.insert_rows(
        [(None, 1, None), (None, 1, None), (1, 1, 7), (1, None, None)],
        [1, 2, 3, 4])
    assert None not in rowids and table.row_count == 4
    assert len(table.index("__primary__")) == 1
    assert len(table.index("__ck0__")) == 1
    assert table.get((1, 1)).rowid == rowids[2]


def test_insert_rows_fills_non_unique_buckets():
    table = _keyed_table()
    table.insert_row({"id": 0, "email": "z@x", "grp": 1})
    rowids = table.insert_rows(
        [(i, f"{i}@x", i % 2) for i in range(1, 7)], range(1, 7))
    assert [r.rowid for r in table.lookup("by_grp", (1,))] == \
        sorted([table.rowid_of((0,))] + rowids[0::2])
    assert [r.rowid for r in table.lookup("by_grp", (0,))] == rowids[1::2]


@pytest.mark.parametrize("site", ["table.insert", "table.insert.indexed"])
def test_a_fault_inside_insert_rows_changes_nothing(site):
    table = _keyed_table()
    table.insert_rows([(1, "a@x", 0), (2, "b@x", 0)], [1, 2])
    before = _full_state(table)
    table.faults = FaultInjector(FaultPlan().arm(site, CrashFault()))
    with pytest.raises(SimulatedCrashError):
        table.insert_rows([(3, "c@x", 0), (4, "d@x", 1)], [3, 4],
                          [{"n": 3}, {"n": 4}])
    assert _full_state(table) == before
    table.faults = NULL_FAULTS
    assert None not in table.insert_rows([(3, "c@x", 0)], [3])


def test_insert_rows_keeps_rows_untracked_and_builds_its_own_dicts():
    """Stored rows stay invisible to the cyclic collector, and each
    stored dict is built by the table, never the caller's object (here
    the value tuples; ``insert_row`` stores a normalized copy)."""
    table = Table(TableSchema("t", ["id", "v"], primary_key=["id"]))
    values = [(i, float(i)) for i in range(2000)]
    table.insert_rows(values, range(2000), [{"n": i} for i in range(2000)])
    image = {"id": -1, "v": 0.5}
    row = table.insert_row(image)
    assert row.values == image and row.values is not image
    gc.collect()
    assert not any(gc.is_tracked(values) or gc.is_tracked(meta)
                   for values, meta in zip(table.rows.values(),
                                           table.metas.values()))
    assert table.rows[table.rowid_of((7,))] == {"id": 7, "v": 7.0}
