"""Durability tests: the simulated disk, disk faults and salvage recovery.

Covers the write path (frames staged then synced, the durable horizon
honest at every step), the three disk faults (torn write, lying fsync,
bit flip), :meth:`LogManager.from_disk` salvage, and the satellite
properties: under EVERY flush policy, recovery from the flushed prefix
preserves exactly the committed-and-flushed transactions, and every
drain / coalescing-window exit leaves ``flushed_lsn == end_lsn``.
"""

import gc
import struct
import tracemalloc
import zlib
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import LogCorruptionError
from repro.engine import (
    Database,
    Session,
    bulk_load,
    restart,
    restart_from_disk,
)
from repro.faults import (
    BitFlipFault,
    FaultInjector,
    FaultPlan,
    LostFlushFault,
    TornWriteFault,
)
from repro.storage import TableSchema
from repro.wal import (
    GROUP_FLUSH,
    IMMEDIATE_FLUSH,
    BeginRecord,
    CLRecord,
    CommitRecord,
    DeleteRecord,
    DropTableRecord,
    FlushPolicy,
    FrameCodecError,
    InsertRecord,
    LogManager,
    SEGMENT_HEADER,
    SimulatedDisk,
    decode_segment,
    encode_frame,
)
from repro.wal.durable import SITE_DISK_SYNC
from repro.wal.frames import FRAME_HEADER_SIZE, walk_segment

#: Every flush policy the durability properties must hold under.
ALL_POLICIES = [
    IMMEDIATE_FLUSH,
    GROUP_FLUSH,
    FlushPolicy(max_pending_requests=3, max_pending_records=8),
]
_POLICY_IDS = ["immediate", "group_default", "group_small"]


def _records(n, txn_id=1):
    out = [BeginRecord(txn_id=txn_id)]
    out += [InsertRecord(txn_id=txn_id, table="t", key=(i,),
                         values={"k": i}) for i in range(n - 2)]
    out.append(CommitRecord(txn_id=txn_id))
    return out


# ---------------------------------------------------------------------------
# SimulatedDisk semantics
# ---------------------------------------------------------------------------


def test_staged_bytes_are_not_durable():
    disk = SimulatedDisk()
    disk.append(b"abc")
    assert disk.size == 3
    assert disk.durable_size == 0
    assert disk.pending_bytes == 3
    assert disk.crash_image() == b""  # a crash now loses everything staged


def test_sync_advances_durable_horizon():
    disk = SimulatedDisk()
    disk.append(b"abc")
    assert disk.sync() is True
    assert disk.durable_size == 3
    assert disk.crash_image() == b"abc"
    assert disk.sync() is False  # nothing staged


def test_lying_fsync_freezes_horizon_until_honest_sync():
    plan = FaultPlan()
    plan.arm(SITE_DISK_SYNC, LostFlushFault(), hit=1)
    disk = SimulatedDisk(faults=FaultInjector(plan))
    disk.append(b"abc")
    assert disk.sync() is False  # the lie: no exception, no durability
    assert disk.durable_size == 0
    assert disk.lost_syncs == 1
    # The page cache survived; a later honest sync persists it.
    disk.append(b"def")
    assert disk.sync() is True
    assert disk.crash_image() == b"abcdef"


def test_attach_disk_writes_segment_header():
    disk = SimulatedDisk()
    log = LogManager(disk=disk)
    assert disk.crash_image() == SEGMENT_HEADER
    # One disk per log: a second would misalign the frame offsets the
    # log reads its released records back through.
    with pytest.raises(ValueError):
        log.attach_disk(SimulatedDisk())


def test_flush_writes_frames_and_sync_makes_them_durable():
    disk = SimulatedDisk()
    log = LogManager(disk=disk)
    records = _records(4)
    for record in records:
        log.append(record)
    assert disk.crash_image() == SEGMENT_HEADER  # appended, not flushed
    log.flush()
    expected = SEGMENT_HEADER + b"".join(encode_frame(r) for r in records)
    assert disk.crash_image() == expected
    # Flushing again must not double-append the same frames.
    log.flush()
    assert disk.crash_image() == expected


def test_disk_attached_mid_life_gets_the_in_memory_frames():
    """A volatile log keeps its frames in memory; a disk attached later
    gets them as they are, from the log head, and the log reads the
    whole history back."""
    records = _records(3 * LogManager.SCAN_CHUNK)
    log = LogManager()
    for record in records[:2 * LogManager.SCAN_CHUNK]:
        log.append(record)
    log.flush()
    assert log.tail_lsn > 1
    disk = SimulatedDisk()
    log.attach_disk(disk)
    for record in records[2 * LogManager.SCAN_CHUNK:]:
        log.append(record)
    log.flush()
    assert disk.crash_image() == SEGMENT_HEADER + b"".join(
        encode_frame(r) for r in records)
    assert list(log.scan()) == records


def test_a_record_that_cannot_be_framed_is_not_appended():
    """``append`` and ``append_batch`` frame before they log: a refused
    record takes no LSN, leaves no frame and can be fixed and retried."""
    log = LogManager(disk=SimulatedDisk())
    log.append(BeginRecord(txn_id=1))
    bad = InsertRecord(txn_id=1, table="t", key=(1,),
                       values={"k": Decimal("1.5")})
    with pytest.raises(FrameCodecError):
        log.append(bad, prev_lsn=1)
    good = InsertRecord(txn_id=1, table="t", key=(2,), values={"k": 2})
    with pytest.raises(FrameCodecError):
        log.append_batch([good, bad])
    assert log.end_lsn == 1 and (bad.lsn, good.lsn) == (0, 0)
    bad.values["k"] = 1.5
    assert log.append_batch([good, bad]) == [2, 3]
    log.flush()
    assert LogManager.from_disk(log.disk).end_lsn == 3
    assert [encode_frame(r) for r in LogManager.from_disk(
        log.disk).scan()] == [encode_frame(r) for r in log.scan()]


@pytest.mark.parametrize("durable", [False, True],
                         ids=["volatile", "durable"])
@pytest.mark.parametrize("ending", ["commit", "abort"])
def test_an_unframeable_row_value_is_refused_before_it_is_logged(
        durable, ending):
    """A ``Decimal`` row value used to be logged and applied, and then
    every commit of a durable database raised ``FrameCodecError``
    flushing it.  The insert is refused before anything is logged or
    applied: the transaction can still end, and the next one commits."""
    log = LogManager(disk=SimulatedDisk()) if durable else LogManager()
    db = Database(log=log)
    db.create_table(TableSchema("T", ["id", "v"], primary_key=["id"]))
    txn = db.begin()
    db.insert(txn, "T", {"id": 1, "v": "a"})
    logged = log.end_lsn
    with pytest.raises(FrameCodecError):
        db.insert(txn, "T", {"id": 2, "v": Decimal("1.5")})
    assert log.end_lsn == logged
    assert db.table("T").get((2,)) is None
    getattr(db, ending)(txn)
    with Session(db) as s:
        s.insert("T", {"id": 3, "v": "c"})
    expected = [1, 3] if ending == "commit" else [3]
    assert sorted(r.values["id"] for r in db.table("T").scan()) == expected
    recovered = restart_from_disk(log.disk) if durable else restart(log)
    assert sorted(r.values["id"] for r in recovered.table("T").scan()) \
        == expected


def test_torn_write_cuts_last_flush_mid_frame():
    plan = FaultPlan()
    disk = SimulatedDisk()
    log = LogManager(disk=disk)
    for record in _records(3):
        log.append(record)
    log.flush()
    clean_len = disk.durable_size
    plan.arm(SITE_DISK_SYNC, TornWriteFault(cut=5))
    disk.faults = FaultInjector(plan)
    log.append(BeginRecord(txn_id=2))
    log.flush()
    image = disk.crash_image()
    # The tear cut the *last* flush: earlier frames intact, tail short.
    assert len(image) == disk.durable_size - 5
    assert len(image) > clean_len - 5
    salvaged = LogManager.from_disk(SimulatedDisk_from(image))
    assert salvaged.salvage.torn
    assert salvaged.end_lsn == 3  # the torn BeginRecord is gone


def test_bit_flip_corrupts_exactly_one_bit():
    plan = FaultPlan()
    plan.arm(SITE_DISK_SYNC, BitFlipFault(frame_index=0, bit=9))
    disk = SimulatedDisk(faults=FaultInjector(plan))
    log = LogManager()
    log.attach_disk(disk)
    for record in _records(3):
        log.append(record)
    log.flush()
    clean = SEGMENT_HEADER + b"".join(
        encode_frame(r) for r in log.scan())
    image = disk.crash_image()
    assert len(image) == len(clean)
    diff = [(i, a ^ b) for i, (a, b) in enumerate(zip(image, clean))
            if a != b]
    assert len(diff) == 1
    assert bin(diff[0][1]).count("1") == 1


def SimulatedDisk_from(image):
    disk = SimulatedDisk()
    disk.append(image)
    disk.sync()
    return disk


# ---------------------------------------------------------------------------
# from_disk salvage + restart
# ---------------------------------------------------------------------------


def test_from_disk_round_trips_flushed_records():
    disk = SimulatedDisk()
    log = LogManager(disk=disk)
    for record in _records(5):
        log.append(record)
    log.flush()
    log.append(BeginRecord(txn_id=9))  # never flushed
    salvaged = LogManager.from_disk(disk)
    assert salvaged.end_lsn == 5
    assert salvaged.flushed_lsn == 5
    assert [type(r).__name__ for r in salvaged.scan()] == \
        [type(r).__name__ for r in log.scan(to_lsn=5)]


def test_from_disk_continues_the_segment():
    disk = SimulatedDisk()
    log = LogManager(disk=disk)
    for record in _records(3):
        log.append(record)
    log.flush()
    salvaged = LogManager.from_disk(disk)
    salvaged.append(BeginRecord(txn_id=2))
    salvaged.flush()
    again = LogManager.from_disk(disk)
    assert again.end_lsn == 4
    assert not again.salvage.torn and not again.salvage.tail_corrupt


def test_from_disk_quarantines_midlog_corruption():
    disk = SimulatedDisk()
    log = LogManager(disk=disk)
    for record in _records(6):
        log.append(record)
    log.flush()
    # Corrupt a synced, non-final frame directly on the platter.
    disk._buffer[len(SEGMENT_HEADER) + 20] ^= 0x10
    with pytest.raises(LogCorruptionError) as excinfo:
        LogManager.from_disk(disk)
    assert excinfo.value.salvaged is not None


def test_from_disk_crashes_the_disk_itself_as_crash_image_does():
    """A pending tear shapes what ``from_disk`` salvages exactly as it
    shapes ``crash_image``: one crash path, applied to the disk's own
    buffer, which is then truncated to the salvaged prefix."""
    plan = FaultPlan()
    disk = SimulatedDisk()
    log = LogManager(disk=disk)
    for record in _records(3):
        log.append(record)
    log.flush()
    plan.arm(SITE_DISK_SYNC, TornWriteFault(cut=5))
    disk.faults = FaultInjector(plan)
    log.append(BeginRecord(txn_id=2))
    log.flush()
    log.append(BeginRecord(txn_id=3))  # staged, never synced
    disk.append(b"staged")
    image = disk.crash_image()
    salvaged = LogManager.from_disk(disk)
    assert salvaged.salvage.torn and salvaged.end_lsn == 3
    assert disk.size == disk.durable_size == salvaged.salvage.byte_length
    with disk.view() as view:
        assert view == image[:salvaged.salvage.byte_length]


def test_from_disk_does_not_copy_the_segment():
    """Salvage walks the crashed disk's bytes in place: the traced
    allocation peak of ``from_disk`` stays under half the segment's
    size (offsets, codes and txn ids only; a copy of the segment alone
    reads 1.0)."""
    disk = SimulatedDisk_from(_durable_history(updates=300))
    size = disk.size
    tracemalloc.start()
    try:
        log = LogManager.from_disk(disk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert log.salvage.count > 3000 and log.salvage.byte_length == size
    assert peak <= 0.5 * size, (peak, size)


def test_a_quarantined_disk_stays_writable():
    """A salvage that raises leaves no view of the disk's buffer behind
    (the buffer could not grow again while one is exported)."""
    disk = SimulatedDisk()
    log = LogManager(disk=disk)
    for record in _records(6):
        log.append(record)
    log.flush()
    disk._buffer[len(SEGMENT_HEADER) + 20] ^= 0x10
    with pytest.raises(LogCorruptionError):
        LogManager.from_disk(disk)
    disk.append(b"more")
    assert disk.size == disk.durable_size + 4


def test_restart_from_disk_recovers_committed_data():
    disk = SimulatedDisk()
    log = LogManager(disk=disk)
    db = Database(log=log)
    db.create_table(TableSchema("T", ["id", "v"], primary_key=["id"]))
    with Session(db) as s:
        s.insert("T", {"id": 1, "v": "a"})
        s.insert("T", {"id": 2, "v": "b"})
    recovered = restart_from_disk(disk)
    rows = sorted(r.values["id"] for r in recovered.table("T").scan())
    assert rows == [1, 2]


def test_restart_from_disk_drops_unflushed_commit():
    disk = SimulatedDisk()
    log = LogManager(disk=disk, flush_policy=FlushPolicy(
        max_pending_requests=100, max_pending_records=1000))
    db = Database(log=log)
    db.create_table(TableSchema("T", ["id", "v"], primary_key=["id"]))
    with Session(db) as s:
        s.insert("T", {"id": 1, "v": "a"})
    log.flush()  # the create + first commit are durable now
    with Session(db) as s:
        s.insert("T", {"id": 2, "v": "b"})  # commit deferred, never synced
    assert log.flushed_lsn < log.end_lsn
    recovered = restart_from_disk(disk)
    rows = sorted(r.values["id"] for r in recovered.table("T").scan())
    assert rows == [1]  # the unflushed commit legitimately vanished


# ---------------------------------------------------------------------------
# Satellite properties: flushed-prefix recovery under every policy
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("policy", ALL_POLICIES, ids=_POLICY_IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_recovery_preserves_exactly_committed_and_flushed(policy, data):
    """For any sequence of small transactions and any crash point, the
    recovered state contains exactly the transactions whose commit
    record made it into the salvaged flushed prefix."""
    txn_count = data.draw(st.integers(1, 8), label="txns")
    disk = SimulatedDisk()
    log = LogManager(disk=disk, flush_policy=policy)
    db = Database(log=log)
    db.create_table(TableSchema("T", ["id", "v"], primary_key=["id"]))
    log.flush()  # pin the DDL; the property is about the data txns
    for i in range(txn_count):
        with Session(db) as s:
            s.insert("T", {"id": i, "v": f"v{i}"})
    salvaged = LogManager.from_disk(disk)
    flushed_commits = {r.txn_id for r in salvaged.scan()
                      if isinstance(r, CommitRecord)}
    survivors = {r.txn_id for r in salvaged.scan()
                 if isinstance(r, InsertRecord)
                 and r.txn_id in flushed_commits}
    recovered = restart(salvaged)
    rows = sorted(r.values["id"] for r in recovered.table("T").scan())
    expected = sorted(i for i in range(txn_count)
                      if any(r.txn_id in flushed_commits and
                             isinstance(r, InsertRecord) and
                             r.key == (i,) for r in salvaged.scan()))
    assert rows == expected
    # Sanity: under IMMEDIATE_FLUSH nothing may vanish.
    if policy.immediate:
        assert rows == list(range(txn_count))


@pytest.mark.parametrize("policy", ALL_POLICIES, ids=_POLICY_IDS)
@settings(max_examples=25, deadline=None)
@given(script=st.lists(st.sampled_from(["append", "request"]),
                       min_size=1, max_size=30))
def test_drain_always_reaches_end_lsn(policy, script):
    """After any append/request interleaving, a trailing request plus
    :meth:`drain_flushes` leaves ``flushed_lsn == end_lsn`` -- deferred
    requests can delay durability but never strand it."""
    log = LogManager(disk=SimulatedDisk(), flush_policy=policy)
    txn = 1
    for op in script:
        if op == "append":
            log.append(BeginRecord(txn_id=txn))
            txn += 1
        else:
            log.request_flush()
    log.request_flush()
    log.drain_flushes()
    assert log.flushed_lsn == log.end_lsn
    assert log._pending_requests == 0


@pytest.mark.parametrize("policy", ALL_POLICIES, ids=_POLICY_IDS)
@settings(max_examples=25, deadline=None)
@given(script=st.lists(st.sampled_from(["append", "request"]),
                       min_size=1, max_size=20))
def test_coalescing_window_exit_reaches_end_lsn(policy, script):
    """Inside a coalescing window nothing flushes; the exit drains to
    the full horizon requested, which commit-style usage (a trailing
    full-horizon request) makes ``end_lsn``."""
    disk = SimulatedDisk()
    log = LogManager(disk=disk, flush_policy=policy)
    txn = 1
    with log.coalescing():
        for op in script:
            if op == "append":
                log.append(BeginRecord(txn_id=txn))
                txn += 1
            else:
                log.request_flush()
        log.request_flush()
        flushed_inside = log.flushed_lsn
    assert flushed_inside == 0  # the window deferred every request
    assert log.flushed_lsn == log.end_lsn
    # And the disk agrees byte-for-byte.
    expected = SEGMENT_HEADER + b"".join(
        encode_frame(r) for r in log.scan())
    assert disk.crash_image() == expected


# ---------------------------------------------------------------------------
# Restart streams the segment: frames, not a materialised record list
# ---------------------------------------------------------------------------


def _durable_history(updates=700):
    """A durable log image of ~10k records: a bulk load, then committed
    10-update transactions, then one loser left open by the crash."""
    disk = SimulatedDisk()
    db = Database(log=LogManager(disk=disk, flush_policy=GROUP_FLUSH))
    db.create_table(TableSchema("T", ["id", "v"], primary_key=["id"]))
    bulk_load(db, "T", [{"id": i, "v": 0.0} for i in range(1000)])
    for i in range(updates):
        with Session(db) as s:
            for j in range(10):
                s.update("T", ((i * 10 + j) % 1000,), {"v": float(i)})
    loser = db.begin()
    db.update(loser, "T", (0,), {"v": -1.0})
    db.log.flush()
    return disk.crash_image()


def _restarted(image):
    disk = SimulatedDisk()
    disk.reopen(image)
    return restart_from_disk(disk)


def test_restart_from_disk_keeps_no_record_objects():
    image = _durable_history()
    gc.collect()
    before = len(gc.get_objects())
    recovered = _restarted(image)
    log = recovered.log
    assert log.salvage.count > 9000
    gc.collect()
    per_record = (len(gc.get_objects()) - before) / log.salvage.count
    assert per_record < 0.05, per_record
    # The loser's rollback is appended and flushed; nothing is kept.
    assert log.tail_lsn == log.end_lsn + 1 > log.salvage.count + 1
    assert recovered.table("T").get((0,)).values["v"] == 600.0


def _frame_starts(image):
    """Byte offset of every frame of ``image`` (the walk's offsets, less
    the trailing end offset)."""
    return list(walk_segment(image)[1])[:-1]


def test_restart_quarantines_a_crc_valid_undecodable_frame():
    """A frame whose header walks (known code, the expected LSN) but
    whose payload does not decode is found by redo, and reported as
    salvage reports it: no database comes back."""
    image = _durable_history(updates=50)
    starts = _frame_starts(image)
    index = len(starts) // 2
    bad = DropTableRecord(table="x")
    bad.lsn = index + 1
    payload = encode_frame(bad)[FRAME_HEADER_SIZE:]
    assert payload.endswith(b"u\x01\x00\x00\x00x")  # marshal's str
    payload = payload[:-6] + b"u\x02\x00\x00\x00\xff\xfe"  # bad UTF-8
    frame = struct.pack(">II", len(payload), zlib.crc32(payload)) + payload
    image = image[:starts[index]] + frame + image[starts[index + 1]:]
    with pytest.raises(LogCorruptionError) as salvage:
        decode_segment(image)
    with pytest.raises(LogCorruptionError) as restarted:
        _restarted(image)
    for err in (salvage.value, restarted.value):
        assert (err.frame_index, err.lsn, err.offset) == \
            (index, index + 1, starts[index])
        assert "undecodable" in str(err)
    assert [encode_frame(r) for r in restarted.value.salvaged] == \
        [encode_frame(r) for r in salvage.value.salvaged]


def test_torn_tail_salvages_the_decode_segment_prefix():
    image = _durable_history(updates=50)
    starts = _frame_starts(image)
    torn = image[:starts[-3] + 5]
    expected = decode_segment(torn)
    assert expected.torn and len(expected.records) == len(starts) - 3
    disk = SimulatedDisk()
    disk.reopen(torn)
    log = LogManager.from_disk(disk)
    salvage = log.salvage
    assert salvage.records is None
    assert (salvage.count, salvage.byte_length, salvage.torn,
            salvage.dropped_bytes) == \
        (len(expected.records), expected.byte_length, True,
         expected.dropped_bytes)
    assert [encode_frame(r) for r in log.scan()] == \
        [encode_frame(r) for r in expected.records]


def test_rolled_back_clr_reads_back_with_its_action_lsn():
    """A record never changes after it is appended: the CLR's action
    carries the CLR's LSN in the frame a durable log reads back."""
    db = Database(log=LogManager(disk=SimulatedDisk()))
    db.create_table(TableSchema("T", ["id", "v"], primary_key=["id"]))
    txn = db.begin()
    db.insert(txn, "T", {"id": 1, "v": "a"})
    db.abort(txn)
    log = db.log
    assert log.tail_lsn == log.end_lsn + 1  # everything read from frames
    clrs = [r for r in log.scan() if isinstance(r, CLRecord)]
    assert len(clrs) == 1
    assert clrs[0].action.lsn == clrs[0].lsn != 0
    assert isinstance(clrs[0].action, DeleteRecord)
