"""The population-scan contract, spelled out once.

There is one chunk source -- :class:`repro.engine.fuzzy.FuzzyScan` -- and
three ways it is configured: ``plain`` (eager population), ``claims``
(lazy population: hand-outs are claimed, the miss hook claims out of
band) and ``snapshot`` (:class:`repro.storage.mvcc.SnapshotScan`, the
subclass that reads every rowid as of a pinned LSN).  ``shards`` only
selects how many accounts handed-out rows are charged to.  Every check
below takes a :class:`ScanCase` and must hold for all of them;
``tests/test_fuzzy.py::test_scan_contract`` runs the full matrix.
"""

from dataclasses import dataclass

import pytest

from repro import Database, Session, TableSchema
from repro.engine.fuzzy import FuzzyScan
from repro.shard import ShardPlanner
from repro.storage.mvcc import SnapshotScan

KINDS = ("plain", "claims", "snapshot")


@dataclass(frozen=True)
class ScanCase:
    kind: str
    shards: int

    def build(self, n, chunk_size):
        """A fresh ``n``-row table ``t(id, x)`` and a scan over it."""
        db = Database()
        if self.kind == "snapshot":
            db.enable_mvcc()
        db.create_table(TableSchema("t", ["id", "x"], primary_key=["id"]))
        with Session(db) as s:
            for i in range(n):
                s.insert("t", {"id": i, "x": i})
        return db, self.scan(db, chunk_size)

    def scan(self, db, chunk_size):
        table = db.table("t")
        planner = ShardPlanner(self.shards)
        if self.kind == "snapshot":
            return SnapshotScan(db.mvcc.versioned(table), db.mvcc.pin(),
                                chunk_size=chunk_size, planner=planner)
        return FuzzyScan(table, chunk_size, planner=planner,
                         claim_handouts=self.kind == "claims")


def drain(scan):
    """Ids in hand-out order; asserts an empty return means exhausted."""
    ids = []
    while True:
        chunk = scan.next_chunk()
        if not chunk:
            assert scan.exhausted and scan.remaining == 0
            return ids
        assert len(chunk) <= scan.chunk_size
        ids.extend(values["id"] for values, _lsn in chunk)


def rowid_of(db, ident):
    return db.table("t").get((ident,)).rowid


def every_live_row_is_handed_out_exactly_once(case):
    db, scan = case.build(10, 3)
    assert drain(scan) == list(range(10))       # once each, table order
    assert scan.next_chunk() == []
    # One account per shard, charged by the planner's key -> shard map.
    histogram = ShardPlanner(case.shards).histogram(
        (i,) for i in range(10))
    assert scan.rows_per_shard == [histogram[shard]
                                   for shard in range(case.shards)]


def claimed_rowids_are_skipped(case):
    db, scan = case.build(6, 2)
    assert scan.claim(rowid_of(db, 4)) is True
    assert scan.claim(rowid_of(db, 4)) is False  # second claim refused
    assert drain(scan) == [0, 1, 2, 3, 5]        # 4 migrated out of band
    assert sum(scan.rows_per_shard) == 5
    scan.unclaim(rowid_of(db, 4))                # withdrawn claims are
    assert scan.claim(rowid_of(db, 4)) is True   # claimable again


def handouts_are_claimed_only_on_request(case):
    db, scan = case.build(4, 2)
    scan.next_chunk()
    # ``claims`` refuses a row the cursor already handed out; the other
    # kinds never wrote it down (no per-row set write on the eager path).
    assert scan.claim(rowid_of(db, 0)) is (case.kind != "claims")
    assert scan.claim(rowid_of(db, 3)) is True   # not reached yet
    assert drain(scan) == [2]


def unknown_rowids_are_claimable(case):
    """Rows inserted after the scan began are not on its list, but the
    miss hook must still be able to claim them."""
    db, scan = case.build(3, 2)
    assert scan.claim(99_999) is True
    assert drain(scan) == [0, 1, 2]


def nonpositive_limit_is_a_noop(case):
    db, scan = case.build(5, 3)
    assert scan.next_chunk(0) == []
    assert scan.next_chunk(-7) == []
    assert scan.remaining == 5 and not scan.exhausted
    assert sum(scan.rows_per_shard) == 0
    assert [values["id"] for values, _lsn in scan.next_chunk(2)] == [0, 1]
    assert drain(scan) == [2, 3, 4]


def rows_deleted_before_their_chunk_are_not_read_live(case):
    db, scan = case.build(8, 3)
    assert [values["id"] for values, _lsn in scan.next_chunk()] == [0, 1, 2]
    with Session(db) as s:
        s.delete("t", (1,))                      # already handed out
        s.delete("t", (4,))
        s.delete("t", (6,))
    # The dirty read skips them; the snapshot read still resolves the
    # image that was committed at its pin.
    expected = [3, 4, 5, 6, 7] if case.kind == "snapshot" else [3, 5, 7]
    assert drain(scan) == expected
    assert sum(scan.rows_per_shard) == 3 + len(expected)


def empty_return_always_means_exhausted(case):
    """Whole chunks emptied by claims and deletions must not surface as
    ``[]`` mid-scan: population steps read that as "done"."""
    db, scan = case.build(24, 3)
    for i in range(0, 12):                       # four whole chunks
        scan.claim(rowid_of(db, i))
    with Session(db) as s:
        for i in range(13, 24, 2):
            s.delete("t", (i,))
    survivors = list(range(12, 24)) if case.kind == "snapshot" \
        else list(range(12, 24, 2))
    assert drain(scan) == survivors              # drain() checks each []
    assert sum(scan.rows_per_shard) == len(survivors)


def chunk_size_below_one_raises(case):
    db, _ = case.build(1, 1)
    for bad in (0, -3):
        with pytest.raises(ValueError):
            case.scan(db, bad)


CHECKS = (
    every_live_row_is_handed_out_exactly_once,
    claimed_rowids_are_skipped,
    handouts_are_claimed_only_on_request,
    unknown_rowids_are_claimable,
    nonpositive_limit_is_a_noop,
    rows_deleted_before_their_chunk_are_not_read_live,
    empty_return_always_means_exhausted,
    chunk_size_below_one_raises,
)
