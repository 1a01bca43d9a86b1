"""Tests for lazy (migrate-on-read) population.

``TransformOptions(population_mode="lazy")`` starts the transformed
table empty: a user read/update of a not-yet-migrated source record
triggers just-in-time transformation of exactly that record (plus its
join partners), while the budgeted background sweep drains everything
nobody touches through the one population scan
(:class:`~repro.engine.fuzzy.FuzzyScan`, hand-outs claimed).  The central property mirrors the
eager suite's: for ANY interleaved history -- now including reads that
fire the miss hook mid-population -- lazy converges to the reference
target, as eager population does: two configurations of the one model
(``tests/model.py``).
"""

import pytest
from hypothesis import given, settings

from repro import (
    Database,
    FojSpec,
    FojTransformation,
    Phase,
    Session,
    SplitSpec,
    SplitTransformation,
    TableSchema,
    TransformOptions,
)
from repro.common.errors import TransformationError
from repro.relational import full_outer_join, rows_equal, split
from repro.faults import AbortFault, FaultInjector, FaultPlan
from repro.obs import Metrics
from repro.transform.options import POPULATION_MODES

from tests import scan_contract
from tests.conftest import (
    foj_spec,
    load_foj_data,
    split_spec,
    table_counters,
    values_of,
)
from tests.model import backlogged, check_model


def _read(db, table_name, key):
    """One committed read transaction (the miss-hook trigger)."""
    txn = db.begin()
    try:
        db.read(txn, table_name, key)
    finally:
        db.commit(txn)


# ---------------------------------------------------------------------------
# Options plumbing
# ---------------------------------------------------------------------------


def test_population_mode_registry_and_validation():
    assert POPULATION_MODES == ("eager", "lazy", "blocking", "trigger")
    assert TransformOptions().population_mode == "eager"
    assert TransformOptions(population_mode="lazy").population_mode == "lazy"
    with pytest.raises(ValueError):
        TransformOptions(population_mode="sideways")
    with pytest.raises(ValueError):
        TransformOptions().evolve(population_mode="")


def test_lazy_rejects_engines_without_per_record_migration():
    """Operators whose engines cannot migrate single records (the
    many-to-many join) must refuse lazy mode up front, not mid-flight."""
    from repro import Many2ManyFojTransformation
    db = Database()
    db.create_table(TableSchema("R", ["a", "b", "c"], primary_key=["a"]))
    db.create_table(TableSchema("S", ["k", "c", "d"], primary_key=["k"]))
    with Session(db) as s:
        for i in range(6):
            s.insert("R", {"a": i, "b": i, "c": i % 3})
            s.insert("S", {"k": i, "c": i % 3, "d": f"d{i}"})
    spec = FojSpec.derive(db.table("R").schema, db.table("S").schema,
                          "T", "c", "c", many_to_many=True)
    tf = Many2ManyFojTransformation(
        db, spec, options=TransformOptions(population_mode="lazy"))
    with pytest.raises(TransformationError, match="supports_lazy"):
        tf.run()


# ---------------------------------------------------------------------------
# The sweeper's scan
# ---------------------------------------------------------------------------
# The sweep drains the one population scan with hand-outs claimed.  What
# that scan owes its callers is the parametrised contract in
# tests/scan_contract.py (run over every configuration by
# tests/test_fuzzy.py::test_scan_contract); these ids are its ``claims``
# rows, kept under the names the test floor knows them by.


def _sweeper(shards):
    return scan_contract.ScanCase("claims", shards)


def test_sweeper_drains_every_row_exactly_once():
    scan_contract.every_live_row_is_handed_out_exactly_once(_sweeper(3))


def test_sweeper_claimed_rows_are_skipped():
    scan_contract.claimed_rowids_are_skipped(_sweeper(1))
    scan_contract.handouts_are_claimed_only_on_request(_sweeper(1))


def test_sweeper_claim_accepts_unknown_rowids():
    scan_contract.unknown_rowids_are_claimable(_sweeper(2))


def test_sweeper_nonpositive_limit_returns_empty_without_advancing():
    scan_contract.nonpositive_limit_is_a_noop(_sweeper(2))


def test_sweeper_skips_rows_deleted_after_planning():
    scan_contract.rows_deleted_before_their_chunk_are_not_read_live(
        _sweeper(2))


def test_sweeper_never_yields_an_empty_chunk_mid_scan():
    scan_contract.empty_return_always_means_exhausted(_sweeper(3))


def test_sweeper_rejects_bad_chunk_size():
    scan_contract.chunk_size_below_one_raises(_sweeper(1))


# ---------------------------------------------------------------------------
# Miss hook wiring
# ---------------------------------------------------------------------------


def _step_into_populating(tf):
    while tf.phase is not Phase.POPULATING:
        tf.step(1)


def test_lazy_read_migrates_the_record_just_in_time(foj_db):
    load_foj_data(foj_db, n_r=30, n_s=6)
    spec = foj_spec(foj_db)
    tf = FojTransformation(
        foj_db, spec,
        options=TransformOptions(population_mode="lazy"))
    _step_into_populating(tf)
    assert len(foj_db.access_hooks) == 1
    # The last-inserted R row is far past the sweeper's cursor.
    _read(foj_db, "R", (29,))
    assert tf.stats["lazy_miss_migrations"] >= 1
    target = tf.targets[spec.target_name]
    migrated = [r.values for r in target.scan() if r.values["a"] == 29]
    assert migrated, "accessed record must be in the target pre-sync"
    r_rows, s_rows = values_of(foj_db, "R"), values_of(foj_db, "S")
    tf.run()
    assert foj_db.access_hooks == []  # hook removed once population ends
    assert rows_equal(values_of(foj_db, "T"),
                      full_outer_join(spec, r_rows, s_rows))


def test_lazy_miss_is_idempotent_per_record(foj_db):
    load_foj_data(foj_db, n_r=20, n_s=5)
    tf = FojTransformation(
        foj_db, foj_spec(foj_db),
        options=TransformOptions(metrics=Metrics(),
                                 population_mode="lazy"))
    _step_into_populating(tf)
    _read(foj_db, "R", (19,))
    # The row plus (at most) its S join partner were migrated.
    first = tf.stats["lazy_miss_migrations"]
    assert 1 <= first <= 2
    for _ in range(3):
        _read(foj_db, "R", (19,))
    assert tf.stats["lazy_miss_migrations"] == first  # re-reads are no-ops
    # The claim is counted where it is made: on the hook.
    assert tf._population_hook.miss_claims == first
    assert tf.metrics.counter_value("lazy.sweep.miss_claims") == first
    tf.run()


def test_lazy_failed_miss_leaves_the_row_to_the_sweeper(foj_db):
    """A miss migration that raises withdraws its claim, so the row is
    not lost: the background sweep hands it out like any other."""
    load_foj_data(foj_db, n_r=12, n_s=4)
    spec = foj_spec(foj_db)
    foj_db.attach_faults(FaultInjector(
        FaultPlan().arm("lazy.miss.transform", AbortFault(), hit=1)))
    tf = FojTransformation(
        foj_db, spec,
        options=TransformOptions(population_mode="lazy"))
    _step_into_populating(tf)
    scan = tf._scans["R"]
    rowid = foj_db.table("R").get((11,)).rowid
    with pytest.raises(TransformationError):
        _read(foj_db, "R", (11,))
    assert tf.stats["lazy_miss_migrations"] == 0
    assert scan.claim(rowid) is True         # the failed claim was withdrawn
    scan.unclaim(rowid)
    r_rows, s_rows = values_of(foj_db, "R"), values_of(foj_db, "S")
    tf.run()
    assert rows_equal(values_of(foj_db, "T"),
                      full_outer_join(spec, r_rows, s_rows))


def test_lazy_failed_split_miss_keeps_its_s_contribution():
    """A miss whose S insert fails takes its R insert back with it, so
    the sweeper's retry merges S: no split value loses a contributor,
    and none vanishes from S while an R row still names it."""
    db = Database()
    db.create_table(TableSchema("T", ["id", "grp", "info"],
                                primary_key=["id"]))
    with Session(db) as s:
        for i in range(12):
            s.insert("T", {"id": i, "grp": i % 3, "info": f"g{i % 3}"})
    spec = SplitSpec.derive(db.table("T").schema, r_name="T_r",
                            s_name="T_s", split_attr="grp",
                            s_attrs=["info"])
    tf = SplitTransformation(
        db, spec, options=TransformOptions(population_mode="lazy"))
    _step_into_populating(tf)
    # Crossing 1 is the R insert of id 7, crossing 2 its S insert (grp 1).
    db.attach_faults(FaultInjector(
        FaultPlan().arm("table.insert", AbortFault(), hit=2)))
    with pytest.raises(TransformationError):
        _read(db, "T", (7,))
    assert tf.targets["T_r"].get((7,)) is None
    with Session(db) as s:
        for key in (1, 4, 10):              # the other grp-1 contributors
            s.delete("T", (key,))
    t_rows = values_of(db, "T")
    tf.run()
    r_rows, s_rows, counters, _ = split(spec, t_rows)
    assert rows_equal(values_of(db, "T_r"), r_rows)
    assert rows_equal(values_of(db, "T_s"), s_rows)
    assert table_counters(db, "T_s") == counters
    assert counters[(1,)] == 1


def test_a_split_miss_goes_through_migrate_row_and_the_sweep_does_not():
    """The miss hook migrates its one image through ``migrate_row`` (the
    name a tracer of misses wraps); the sweeper hands whole chunks to
    ``migrate_rows`` and never calls it."""
    db = Database()
    db.create_table(TableSchema("T", ["id", "grp", "info"],
                                primary_key=["id"]))
    with Session(db) as s:
        for i in range(20):
            s.insert("T", {"id": i, "grp": i % 4, "info": f"g{i % 4}"})
    spec = SplitSpec.derive(db.table("T").schema, r_name="T_r",
                            s_name="T_s", split_attr="grp",
                            s_attrs=["info"])
    tf = SplitTransformation(
        db, spec, options=TransformOptions(population_mode="lazy"))
    _step_into_populating(tf)
    calls = []
    migrate_row = tf.engine.migrate_row
    tf.engine.migrate_row = lambda *args: (calls.append(args),
                                           migrate_row(*args))
    _read(db, "T", (13,))
    assert calls == [("T", {"id": 13, "grp": 1, "info": "g1"},
                      db.table("T").get((13,)).lsn)]
    assert tf.targets["T_r"].get((13,)).values == {"id": 13, "grp": 1}
    assert tf.targets["T_s"].get((1,)).meta["counter"] == 1
    tf.run()
    assert len(calls) == 1
    assert table_counters(db, "T_s") == {(g,): 5 for g in range(4)}


def test_lazy_update_also_triggers_migration(foj_db):
    load_foj_data(foj_db, n_r=25, n_s=5)
    spec = foj_spec(foj_db)
    tf = FojTransformation(
        foj_db, spec,
        options=TransformOptions(population_mode="lazy"))
    _step_into_populating(tf)
    with Session(foj_db) as s:
        s.update("R", (24,), {"b": "touched"})
    assert tf.stats["lazy_miss_migrations"] >= 1
    tf.run()
    row = next(r for r in values_of(foj_db, "T") if r["a"] == 24)
    assert row["b"] == "touched"


def test_lazy_hook_removed_on_abort(foj_db):
    load_foj_data(foj_db, n_r=10, n_s=4)
    tf = FojTransformation(
        foj_db, foj_spec(foj_db),
        options=TransformOptions(population_mode="lazy"))
    _step_into_populating(tf)
    assert len(foj_db.access_hooks) == 1
    tf.abort()
    assert foj_db.access_hooks == []
    assert tf.phase is Phase.ABORTED


def test_lazy_sweep_and_miss_stats_partition_the_table(foj_db):
    """Every source row is migrated by exactly one producer: the counts
    of swept and missed rows partition the scanned row set."""
    load_foj_data(foj_db, n_r=20, n_s=5)
    tf = FojTransformation(
        foj_db, foj_spec(foj_db),
        options=TransformOptions(population_mode="lazy"))
    _step_into_populating(tf)
    for key in (15, 16, 17):
        _read(foj_db, "R", (key,))
    misses = tf.stats["lazy_miss_migrations"]
    assert misses >= 3  # the 3 reads (+ any S join partners)
    n_source_rows = len(values_of(foj_db, "R")) + len(values_of(foj_db, "S"))
    tf.run()
    total_misses = tf.stats["lazy_miss_migrations"]
    assert tf.stats["lazy_sweep_rows"] + total_misses == n_source_rows


def test_eager_mode_installs_no_hooks(foj_db):
    load_foj_data(foj_db, n_r=10, n_s=4)
    tf = FojTransformation(foj_db, foj_spec(foj_db))
    _step_into_populating(tf)
    assert foj_db.access_hooks == []
    tf.run()
    assert tf.stats["lazy_miss_migrations"] == 0


def test_lazy_split_read_migrates_row_and_counter(split_db):
    from tests.conftest import load_split_data
    load_split_data(split_db, n=30, n_zip=4)
    spec = split_spec(split_db)
    tf = SplitTransformation(
        split_db, spec,
        options=TransformOptions(population_mode="lazy"))
    _step_into_populating(tf)
    _read(split_db, "T", (29,))
    assert tf.stats["lazy_miss_migrations"] == 1
    t_rows = values_of(split_db, "T")
    tf.run()
    r_rows, s_rows, counters, _ = split(spec, t_rows)
    assert rows_equal(values_of(split_db, "T_r"), r_rows)
    assert rows_equal(values_of(split_db, "postal"), s_rows)
    assert table_counters(split_db, "postal") == counters


# ---------------------------------------------------------------------------
# Property: lazy converges like eager for any history (reads included)
# ---------------------------------------------------------------------------


@given(backlogged("foj", population="lazy", shards=(1, 3)))
@settings(max_examples=10, deadline=None)
def test_lazy_foj_identical_to_eager(config):
    check_model(config)


@given(backlogged("split", population="lazy", shards=(1, 3)))
@settings(max_examples=10, deadline=None)
def test_lazy_split_identical_to_eager(config):
    check_model(config)
