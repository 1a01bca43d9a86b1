"""Unit tests for the WAL frame codec and salvage rules.

Every record kind must round-trip through its byte frame
*byte-identically* (decode -> re-encode yields the same bytes), values
outside the durable set must fail loudly at encode time, and
:func:`~repro.wal.decode_segment` must implement the torn-tail /
corrupt-tail / mid-log-quarantine trichotomy exactly.  The format is
pinned from outside the codec: format-1 frames written by the codec
that format 2 replaced still decode, and format-2 frames are built here
from hand-written payload heads and ``marshal.dumps(fields, 2)``.
"""

import copy
import inspect
import marshal
import os
import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import (Database, RetypeTransformation, Session,
                       restart_from_disk)
from repro.common.errors import LogCorruptionError
from repro.relational.spec import FojSpec, RetypeSpec, SplitSpec
from repro.storage.schema import TableSchema
from repro.wal import (
    FRAME_HEADER_SIZE,
    SEGMENT_HEADER,
    AbortRecord,
    BeginRecord,
    CatalogFlipRecord,
    CCBeginRecord,
    CCOkRecord,
    CheckpointRecord,
    CLRecord,
    CommitRecord,
    CreateTableRecord,
    DeleteRecord,
    DropTableRecord,
    EndRecord,
    FrameCodecError,
    FuzzyMarkRecord,
    InsertRecord,
    LogManager,
    RenameTableRecord,
    SimulatedDisk,
    TransformRetireRecord,
    TransformSwapRecord,
    UpdateRecord,
    decode_record,
    decode_segment,
    encode_frame,
    encode_record,
    frame_spans,
)
from repro.wal.frames import RECORD_CODES, SEGMENT_MAGIC, SEGMENT_VERSION

_SCHEMA = TableSchema("T", ["id", "name", "zip"], primary_key=["id"],
                      candidate_keys=[["name", "zip"]])

_FOJ_SPEC = FojSpec(
    target_name="T", r_name="R", s_name="S", join_attr_r="c",
    join_attr_s="c", r_attrs=("a", "b", "c"), s_attrs=("c", "d"),
    r_key=("a",), s_key=("c",), many_to_many=False)

_SPLIT_SPEC = SplitSpec(
    source_name="T", r_name="T_r", s_name="postal", split_attr="zip",
    r_attrs=("id", "name", "zip"), s_attrs=("zip", "city"),
    r_key=("id",))

#: One representative instance per record kind (all 18 codes).
SAMPLE_RECORDS = [
    BeginRecord(txn_id=3),
    CommitRecord(txn_id=3),
    AbortRecord(txn_id=4),
    EndRecord(txn_id=3, committed=True),
    InsertRecord(txn_id=3, table="T", key=(1,),
                 values={"id": 1, "name": "x", "zip": None}),
    DeleteRecord(txn_id=3, table="T", key=(2,),
                 old_values={"id": 2, "name": "y", "zip": 7001}),
    UpdateRecord(txn_id=3, table="T", key=(1,),
                 changes={"name": "z"}, old_values={"name": "x"}),
    CLRecord(txn_id=3,
             action=DeleteRecord(txn_id=3, table="T", key=(1,),
                                 old_values={"id": 1}),
             undo_next_lsn=0),
    FuzzyMarkRecord(txn_id=0, transform_id="tf-1", phase="start",
                    active_txns=(3, 4, 5)),
    CCBeginRecord(txn_id=0, transform_id="tf-1", split_value=(7001,)),
    CCOkRecord(txn_id=0, transform_id="tf-1", split_value=(7001,),
               image={"city": "C7001"}),
    CreateTableRecord(txn_id=0, schema=_SCHEMA, transient=True),
    DropTableRecord(txn_id=0, table="T_old"),
    RenameTableRecord(txn_id=0, old_name="T_new", new_name="T"),
    TransformSwapRecord(txn_id=0, transform_id="tf-1",
                        transform_kind="foj", retired=("R", "S"),
                        published={"T_new": "T"},
                        params={"spec": _FOJ_SPEC},
                        doomed_txns=(9,)),
    TransformSwapRecord(txn_id=0, transform_id="tf-2",
                        transform_kind="split", retired=("T",),
                        published={"T_r_new": "T_r"},
                        params={"spec": _SPLIT_SPEC},
                        doomed_txns=()),
    TransformRetireRecord(txn_id=0, transform_id="tf-1"),
    CatalogFlipRecord(txn_id=0, transform_id="tf-1", version=2,
                      retired=("R", "S"), published=("T",)),
    CheckpointRecord(txn_id=0, active_txns={3: 17, 4: 19}),
]


def _with_lsns(records):
    """Assign the dense LSNs the salvage path expects."""
    out = []
    for i, record in enumerate(records):
        record.lsn = i + 1
        record.prev_lsn = i  # arbitrary but stable chain
        out.append(record)
    return out


def _segment(records):
    return SEGMENT_HEADER + b"".join(encode_frame(r) for r in records)


def _placed(record, lsn, prev_lsn):
    record.lsn, record.prev_lsn = lsn, prev_lsn
    return record


_WIDE = {"long": "x" * 200, "raw": b"\x00\xff" * 70, "neg": -1,
         "min64": -2 ** 63, "big": 2 ** 64 + 1, "negbig": -(2 ** 70),
         "edge": [127, 128, -64, -65]}
_FLOATS = {"negzero": -0.0, "nan": float("nan"), "inf": float("inf"),
           "tiny": 5e-324}
_NESTED = {"négatif": "héllo – 日本語 🎉", "": None,
           "nest": {"t": (True, False, ()), "l": [[], {}]}}


def golden_records():
    """The records of ``tests/fixtures/wal_frames_v1.hex`` and
    ``wal_frames_v2.hex``, in file order: every sample kind, then the
    corners of the value codec."""
    return _with_lsns(copy.deepcopy(SAMPLE_RECORDS)) + [
        # Multi-byte varints in the format-1 header fields and lengths.
        _placed(InsertRecord(txn_id=70000, table="wide", key=(300, -1),
                             values=_WIDE), 300, 2 ** 21 + 5),
        _placed(UpdateRecord(txn_id=128, table="f", key=(1.5,),
                             changes=_FLOATS, old_values=_NESTED),
                16384, 16383),
        # CLRs: a nested action carrying its own LSNs, and none at all.
        _placed(CLRecord(
            txn_id=9,
            action=_placed(UpdateRecord(
                txn_id=9, table="T", key=("k", 2),
                changes={"name": "old"}, old_values={"name": "new"}),
                0, 0),
            undo_next_lsn=12345), 20000, 19999),
        _placed(CLRecord(txn_id=9, action=None, undo_next_lsn=0),
                20001, 20000),
    ]


def _v2_payload(code, lsn, prev_lsn, txn_id, flat):
    """A format-2 payload by hand: the head, then the flat fields."""
    return struct.pack(">BIII", code, lsn, prev_lsn, txn_id) + \
        marshal.dumps(flat, 2)


def _spec(name, *fields):
    """A registered dataclass as a swap parameter: ``(name, fields)``,
    each field ``(value,)``."""
    return (name, tuple((field,) for field in fields))


def golden_v2_payloads():
    """``golden_records()``' payloads, written from the format's
    definition: ``(code, lsn, prev_lsn, txn_id, flat fields)``."""
    schema = ("TableSchema", ("T", (("id", True), ("name", True),
                                    ("zip", True)),
                              ("id",), (("name", "zip"),), ()))
    foj = _spec("FojSpec", "T", "R", "S", "c", "c", ("a", "b", "c"),
                ("c", "d"), ("a",), ("c",), False)
    split = _spec("SplitSpec", "T", "T_r", "postal", "zip",
                  ("id", "name", "zip"), ("zip", "city"), ("id",))
    action = _v2_payload(7, 0, 0, 9, ("T", ("k", 2), {"name": "old"},
                                      {"name": "new"}))
    heads_and_flats = [
        (1, 1, 0, 3, ()),
        (2, 2, 1, 3, ()),
        (3, 3, 2, 4, ()),
        (4, 4, 3, 3, (True,)),
        (5, 5, 4, 3, ("T", (1,), {"id": 1, "name": "x", "zip": None})),
        (6, 6, 5, 3, ("T", (2,), {"id": 2, "name": "y", "zip": 7001})),
        (7, 7, 6, 3, ("T", (1,), {"name": "z"}, {"name": "x"})),
        (8, 8, 7, 3, (_v2_payload(6, 0, 0, 3, ("T", (1,), {"id": 1})), 0)),
        (9, 9, 8, 0, ("tf-1", "start", (3, 4, 5))),
        (10, 10, 9, 0, ("tf-1", (7001,))),
        (11, 11, 10, 0, ("tf-1", (7001,), {"city": "C7001"})),
        (12, 12, 11, 0, (schema, True)),
        (13, 13, 12, 0, ("T_old",)),
        (14, 14, 13, 0, ("T_new", "T")),
        (15, 15, 14, 0, ("tf-1", "foj", ("R", "S"), {"T_new": ("T",)},
                         {"spec": foj}, (9,))),
        (15, 16, 15, 0, ("tf-2", "split", ("T",), {"T_r_new": ("T_r",)},
                         {"spec": split}, ())),
        (16, 17, 16, 0, ("tf-1",)),
        (18, 18, 17, 0, ("tf-1", 2, ("R", "S"), ("T",))),
        (17, 19, 18, 0, ({3: 17, 4: 19},)),
        (5, 300, 2 ** 21 + 5, 70000, ("wide", (300, -1), _WIDE)),
        (7, 16384, 16383, 128, ("f", (1.5,), _FLOATS, _NESTED)),
        (8, 20000, 19999, 9, (action, 12345)),
        (8, 20001, 20000, 9, (None, 0)),
    ]
    return [_v2_payload(*entry) for entry in heads_and_flats]


def _golden_frames(version):
    path = os.path.join(os.path.dirname(__file__), "fixtures",
                        f"wal_frames_v{version}.hex")
    with open(path) as handle:
        return [bytes.fromhex(line) for line in handle.read().split()]


_V1_HEADER = SEGMENT_MAGIC + b"\x00\x01\x00\x00"


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------


def test_every_record_code_has_a_sample():
    covered = {type(r) for r in SAMPLE_RECORDS}
    assert covered == set(RECORD_CODES), (
        "SAMPLE_RECORDS must exercise every registered record kind")


@pytest.mark.parametrize("record", _with_lsns(SAMPLE_RECORDS),
                         ids=lambda r: type(r).__name__)
def test_record_round_trip_is_byte_identical(record):
    payload = encode_record(record)
    decoded = decode_record(payload)
    assert type(decoded) is type(record)
    assert decoded.lsn == record.lsn
    assert decoded.prev_lsn == record.prev_lsn
    assert decoded.txn_id == record.txn_id
    # Re-encoding the decoded record reproduces the exact bytes: the
    # byte-for-byte durability invariant the crash oracle checks.
    assert encode_record(decoded) == payload


def test_schema_round_trip_preserves_keys():
    record = CreateTableRecord(txn_id=0, schema=_SCHEMA, transient=False)
    record.lsn = 1
    decoded = decode_record(encode_record(record))
    schema = decoded.schema
    assert schema.name == "T"
    assert list(schema.primary_key) == ["id"]
    assert [list(ck) for ck in schema.candidate_keys] == [["name", "zip"]]
    assert schema.attribute_names == _SCHEMA.attribute_names


def test_spec_dataclass_round_trip():
    record = TransformSwapRecord(
        txn_id=0, transform_id="tf", transform_kind="foj",
        retired=(), published={}, params={"spec": _FOJ_SPEC},
        doomed_txns=())
    record.lsn = 1
    decoded = decode_record(encode_record(record))
    assert decoded.params["spec"] == _FOJ_SPEC


def _respec(payload, field_values):
    """A swap record's ``payload`` with its spec's fields replaced by
    ``field_values`` (e.g. the five fields ``RetypeSpec`` once had)."""
    head, flat = payload[:13], marshal.loads(payload[13:])
    params = dict(flat[4])
    params["spec"] = _spec(params["spec"][0], *field_values)
    return head + marshal.dumps(flat[:4] + (params,) + flat[5:], 2)


def _retype_swap_payload(spec, field_values):
    record = TransformSwapRecord(
        txn_id=0, transform_id="tf", transform_kind="retype",
        retired=(spec.source_name,), published={}, params={"spec": spec},
        doomed_txns=())
    record.lsn = 1
    return _respec(encode_record(record), field_values)


_RETYPE_SPEC = RetypeSpec("reading", "reading_v2", "value", "int", 0)
_PARENT_FIELDS = ("reading", "reading_v2", "value", "int", 0)


def test_a_spec_frame_missing_trailing_fields_decodes_to_defaults():
    decoded = decode_record(_retype_swap_payload(_RETYPE_SPEC,
                                                 _PARENT_FIELDS))
    spec = decoded.params["spec"]
    assert spec == _RETYPE_SPEC
    assert (spec.rename, spec.add, spec.drop) == ((), (), ())
    with pytest.raises(FrameCodecError):  # a field without a default
        decode_record(_retype_swap_payload(_RETYPE_SPEC, ("reading",)))
    with pytest.raises(FrameCodecError):  # more fields than the class
        decode_record(_retype_swap_payload(
            _RETYPE_SPEC, _PARENT_FIELDS + ((), (), (), "extra")))


def test_restart_rebuilds_from_a_parent_shaped_retype_swap_frame():
    db = Database(log=LogManager())
    db.create_table(TableSchema("reading", ["rid", "value"],
                                primary_key=["rid"]))
    with Session(db) as s:
        s.insert("reading", {"rid": 1, "value": " 7"})
        s.insert("reading", {"rid": 2, "value": None})
    RetypeTransformation(db, _RETYPE_SPEC).run()
    frames = []
    for record in db.log.scan():
        payload = encode_record(record)
        if isinstance(record, TransformSwapRecord):
            payload = _respec(payload, _PARENT_FIELDS)
        frames.append(_crc_valid_frame(payload))
    disk = SimulatedDisk()
    disk.reopen(SEGMENT_HEADER + b"".join(frames))
    table = restart_from_disk(disk).table("reading_v2")
    assert sorted((r.values["rid"], r.values["value"])
                  for r in table.scan()) == [(1, 7), (2, 0)]


def test_unframeable_value_raises_at_encode_time():
    record = TransformSwapRecord(
        txn_id=0, transform_id="tf", transform_kind="partition",
        retired=(), published={},
        params={"predicate": lambda row: True},  # callables not durable
        doomed_txns=())
    record.lsn = 1
    with pytest.raises(FrameCodecError):
        encode_record(record)


def test_decode_rejects_unknown_code_and_trailing_bytes():
    record = BeginRecord(txn_id=1)
    record.lsn = 1
    payload = encode_record(record)
    with pytest.raises(FrameCodecError):
        decode_record(b"\xff" + payload[1:])
    with pytest.raises(FrameCodecError):
        decode_record(payload + b"\x00")
    with pytest.raises(FrameCodecError):
        decode_record(b"")


def test_frame_spans_walks_valid_frames():
    records = _with_lsns([BeginRecord(txn_id=1), CommitRecord(txn_id=1),
                          EndRecord(txn_id=1, committed=True)])
    image = _segment(records)
    spans = list(frame_spans(image))
    assert len(spans) == 3
    for (start, length), record in zip(spans, records):
        assert decode_record(image[start:start + length]).lsn == record.lsn


# ---------------------------------------------------------------------------
# Salvage rules
# ---------------------------------------------------------------------------


def test_salvage_empty_image_is_clean_empty_log():
    report = decode_segment(b"")
    assert report.records == []
    assert report.byte_length == 0
    assert not report.torn and not report.tail_corrupt


def test_salvage_clean_segment():
    records = _with_lsns(list(SAMPLE_RECORDS))
    image = _segment(records)
    report = decode_segment(image)
    assert len(report.records) == len(records)
    assert report.byte_length == len(image)
    assert not report.torn and not report.tail_corrupt
    assert report.dropped_bytes == 0
    assert "clean" in report.describe()


def test_salvage_truncates_torn_tail():
    records = _with_lsns([BeginRecord(txn_id=1), CommitRecord(txn_id=1)])
    image = _segment(records)
    prefix_len = len(SEGMENT_HEADER) + FRAME_HEADER_SIZE + \
        len(encode_record(records[0]))
    for cut in (1, 5, FRAME_HEADER_SIZE, FRAME_HEADER_SIZE + 3):
        torn = image[:len(image) - cut]
        report = decode_segment(torn)
        assert report.torn and not report.tail_corrupt
        assert [r.lsn for r in report.records] == [1]
        assert report.byte_length == prefix_len
        assert report.dropped_bytes == len(torn) - prefix_len


def test_salvage_truncated_header_is_torn():
    report = decode_segment(SEGMENT_HEADER[:3])
    assert report.torn
    assert report.records == [] and report.byte_length == 0


def test_salvage_rejects_bad_header():
    with pytest.raises(LogCorruptionError):
        decode_segment(b"JUNKJUNK" + b"\x00" * 16)
    with pytest.raises(LogCorruptionError):
        decode_segment(b"XY")  # not even a prefix of the magic


def test_salvage_truncates_corrupt_final_frame():
    records = _with_lsns([BeginRecord(txn_id=1), CommitRecord(txn_id=1)])
    image = bytearray(_segment(records))
    image[-1] ^= 0x40  # rot inside the final frame's payload
    report = decode_segment(bytes(image))
    assert report.tail_corrupt and not report.torn
    assert [r.lsn for r in report.records] == [1]


def test_salvage_quarantines_midlog_corruption():
    records = _with_lsns([BeginRecord(txn_id=1),
                          InsertRecord(txn_id=1, table="T", key=(1,),
                                       values={"id": 1}),
                          CommitRecord(txn_id=1)])
    image = bytearray(_segment(records))
    # Flip a payload bit of the *first* frame: later frames exist, so
    # this is mid-log corruption, never a tail truncation.
    offset = len(SEGMENT_HEADER) + FRAME_HEADER_SIZE
    image[offset + 1] ^= 0x01
    with pytest.raises(LogCorruptionError) as excinfo:
        decode_segment(bytes(image))
    err = excinfo.value
    assert err.frame_index == 0
    assert err.salvaged == ()


def test_salvage_quarantine_carries_salvaged_prefix():
    records = _with_lsns([BeginRecord(txn_id=1), CommitRecord(txn_id=1),
                          EndRecord(txn_id=1, committed=True)])
    image = bytearray(_segment(records))
    spans = list(frame_spans(bytes(image)))
    start, _ = spans[1]
    image[start] ^= 0x20  # corrupt the middle frame
    with pytest.raises(LogCorruptionError) as excinfo:
        decode_segment(bytes(image))
    assert [r.lsn for r in excinfo.value.salvaged] == [1]
    assert excinfo.value.frame_index == 1


def test_salvage_quarantines_lsn_discontinuity():
    first, second = BeginRecord(txn_id=1), CommitRecord(txn_id=1)
    first.lsn = 1
    second.lsn = 5  # hole: a frame from some other log spliced in
    image = SEGMENT_HEADER + encode_frame(first) + encode_frame(second)
    with pytest.raises(LogCorruptionError) as excinfo:
        decode_segment(image)
    assert "discontinuity" in str(excinfo.value)
    assert [r.lsn for r in excinfo.value.salvaged] == [1]


def test_salvage_quarantines_undecodable_payload_with_valid_crc():
    first = BeginRecord(txn_id=1)
    first.lsn = 1
    # Unknown record code, CRC made valid.
    frame = _crc_valid_frame(b"\xee\x01\x02")
    # Later bytes exist, so the bad frame is not a tail case.
    tail = encode_frame(first)
    with pytest.raises(LogCorruptionError) as excinfo:
        decode_segment(SEGMENT_HEADER + frame + tail)
    assert "undecodable" in str(excinfo.value)


def _crc_valid_frame(payload):
    return struct.pack(">II", len(payload), zlib.crc32(payload)) + payload


def _head(code):
    return struct.pack(">BIII", code, 2, 0, 0)


#: Payloads a CRC cannot object to and the codec must still refuse, each
#: as :class:`FrameCodecError`; all carry lsn 2.
MALFORMED_PAYLOADS = {
    # DropTableRecord whose table name is a string over bad UTF-8.
    "UnicodeDecodeError": _head(13) + b"(\x01\x00\x00\x00"
                          + b"u\x02\x00\x00\x00\xff\xfe",
    # CheckpointRecord whose active_txns dict has a list as its key.
    "unhashable key": _head(17) + b"(\x01\x00\x00\x00"
                      + b"{[\x00\x00\x00\x00N0",
    # CreateTableRecord whose schema is named over five ints.
    "schema over int": _head(12) + marshal.dumps(
        (("TableSchema", (1, 1, 1, 1, 1)), False), 2),
    # DropTableRecord whose table name is a list nested 50,000 deep.
    "RecursionError": _head(13) + b"(\x01\x00\x00\x00"
                      + b"[\x01\x00\x00\x00" * 50000 + b"N",
    # marshal reads one object and ignores what follows it.
    "trailing bytes": _head(13) + marshal.dumps(("t",), 2) + b"\x00",
    # A body marshal reads, in a form version 2 does not write.
    "version 4 body": _head(13) + marshal.dumps(("t",), 4),
    # A head too short for its fields.
    "short head": _head(13)[:9],
}


@pytest.mark.parametrize("payload", list(MALFORMED_PAYLOADS.values()),
                         ids=list(MALFORMED_PAYLOADS))
def test_salvage_quarantines_crc_valid_garbage(payload):
    first, last = _with_lsns([BeginRecord(txn_id=1), CommitRecord(txn_id=1)])
    last.lsn = 3
    with pytest.raises(FrameCodecError):
        decode_record(payload)
    head = SEGMENT_HEADER + encode_frame(first)
    with pytest.raises(LogCorruptionError) as excinfo:
        decode_segment(head + _crc_valid_frame(payload) + encode_frame(last))
    err = excinfo.value
    assert "undecodable" in str(err)
    assert err.frame_index == 1
    assert err.offset == len(head)
    assert err.lsn == 2
    assert [type(r) for r in err.salvaged] == [BeginRecord]


# ---------------------------------------------------------------------------
# The format, pinned from outside the codec
# ---------------------------------------------------------------------------


def test_golden_frames_pin_format_version_1():
    """``wal_frames_v1.hex`` was written by the tagged-value codec that
    format 2 replaced: nothing writes format 1 any more, but its frames
    still decode to the records they were written from."""
    golden = _golden_frames(1)
    records = golden_records()
    assert len(golden) == len(records)
    for frame, record in zip(golden, records):
        decoded = decode_record(frame[FRAME_HEADER_SIZE:], version=1)
        # Equal frames: equal records, NaN and schemas included.
        assert encode_frame(decoded) == encode_frame(record), \
            type(record).__name__
    report = decode_segment(_V1_HEADER + b"".join(golden[:19]))
    assert not report.torn
    assert [encode_frame(r) for r in report.records] == \
        [encode_frame(r) for r in records[:19]]


def test_golden_frames_pin_format_version_2():
    """``wal_frames_v2.hex`` holds the frames built from the format's
    definition (:func:`golden_v2_payloads`): the codec writes exactly
    those bytes, and reads them back to records it re-encodes the same."""
    assert SEGMENT_VERSION == 2
    assert SEGMENT_HEADER == SEGMENT_MAGIC + b"\x00\x02\x00\x00"
    golden = [_crc_valid_frame(payload) for payload in golden_v2_payloads()]
    assert _golden_frames(2) == golden
    records = golden_records()
    for frame, record in zip(golden, records):
        assert encode_frame(record) == frame, type(record).__name__
        decoded = decode_record(frame[FRAME_HEADER_SIZE:])
        assert type(decoded) is type(record)
        assert encode_frame(decoded) == frame, type(record).__name__
    report = decode_segment(SEGMENT_HEADER + b"".join(golden[:19]))
    assert len(report.records) == 19 and not report.torn


def test_from_disk_refuses_a_format_1_segment():
    disk = SimulatedDisk()
    disk.reopen(_V1_HEADER + b"".join(_golden_frames(1)[:19]))
    with pytest.raises(LogCorruptionError) as excinfo:
        LogManager.from_disk(disk)
    assert "version 1" in str(excinfo.value)


@pytest.mark.parametrize("record", golden_records(),
                         ids=lambda r: f"{type(r).__name__}@{r.lsn}")
def test_every_strict_prefix_of_a_payload_is_a_codec_error(record):
    payload = encode_record(record)
    for cut in range(len(payload)):
        with pytest.raises(FrameCodecError):
            decode_record(payload[:cut])


def _same(a, b):
    """Equal, with the same container and scalar types all the way down
    (``True == 1`` and ``(1,) != [1]`` must both be noticed)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return len(a) == len(b) and all(
            _same(ka, kb) and _same(va, vb)
            for (ka, va), (kb, vb) in zip(a.items(), b.items()))
    if isinstance(a, float):
        return struct.pack(">d", a) == struct.pack(">d", b)
    return a == b


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-2 ** 80, max_value=2 ** 80), st.floats(),
    st.text(), st.characters(), st.text(st.characters(min_codepoint=128)),
    st.binary())
_KEYS = st.one_of(st.integers(), st.text(), st.booleans(),
                  st.tuples(st.integers(), st.text()))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_VALUES, st.dictionaries(_KEYS, _VALUES, max_size=4), st.booleans())
def test_record_values_round_trip_byte_identically(value, image,
                                                   compensated):
    """``encode_record(decode_record(p)) == p``, and the values come back
    with their types, for any row values, in a record or as a CLR's
    action."""
    record = _placed(InsertRecord(txn_id=7, table="t", key=(value,),
                                  values=image), 5, 4)
    if compensated:
        record = _placed(CLRecord(txn_id=7, action=record,
                                  undo_next_lsn=3), 6, 5)
    payload = encode_record(record)
    decoded = decode_record(payload)
    assert encode_record(decoded) == payload
    insert = decoded.action if compensated else decoded
    assert (insert.lsn, insert.prev_lsn) == (5, 4)
    assert _same(insert.key, (value,)) and _same(insert.values, image)


def test_subclass_values_frame_like_their_base_type():
    """``marshal`` writes exact types only; an instance of a subclass
    frames as its base type's value would."""
    import collections
    import enum

    class Colour(enum.IntEnum):
        RED = 300

    class Mode(str, enum.Enum):
        FAST = "é"

    def framed(value):
        return encode_record(InsertRecord(txn_id=1, table="t", key=(1,),
                                          values={"v": value}))

    assert framed(Colour.RED) == framed(300)
    assert framed(Mode.FAST) == framed("é")
    assert framed(collections.OrderedDict(a=1)) == framed({"a": 1})
    assert framed(collections.namedtuple("P", "x y")(1, 2)) == framed((1, 2))
    with pytest.raises(FrameCodecError):
        framed(object())


# ---------------------------------------------------------------------------
# The record classes' contract (what the codec and the engine rely on)
# ---------------------------------------------------------------------------

BY_CLASS = pytest.mark.parametrize("record", SAMPLE_RECORDS,
                                   ids=lambda r: type(r).__name__)


def _payload(record):
    return [getattr(record, name) for name in type(record).FIELDS]


@BY_CLASS
def test_fields_are_the_slots_and_the_positional_order(record):
    cls = type(record)
    assert cls.__slots__ == cls.FIELDS
    assert tuple(inspect.signature(cls).parameters) == \
        ("txn_id",) + cls.FIELDS
    assert not hasattr(record, "__dict__")


@BY_CLASS
def test_keyword_and_positional_construction_agree(record):
    cls = type(record)
    by_position = cls(record.txn_id, *_payload(record))
    by_keyword = cls(txn_id=record.txn_id,
                     **dict(zip(cls.FIELDS, _payload(record))))
    assert (by_position.lsn, by_position.prev_lsn) == (0, 0)
    assert by_position == by_keyword
    by_position.lsn, by_position.prev_lsn = record.lsn, record.prev_lsn
    assert by_position == record
    with pytest.raises(TypeError):
        cls(txn_id=1, no_such_field=2)
    with pytest.raises(TypeError):
        cls(lsn=1)  # assigned by the log manager, never constructed


@BY_CLASS
def test_default_instances_share_no_mutable_default(record):
    cls = type(record)
    one, other = cls(), cls()
    assert one == other and one.txn_id == 0
    for name in cls.FIELDS:
        value = getattr(one, name)
        if isinstance(value, (dict, list, set)):
            assert value is not getattr(other, name), name


@BY_CLASS
def test_equality_repr_and_hash_are_the_dataclass_ones(record):
    cls = type(record)
    twin = copy.copy(record)
    assert twin == record and not twin != record
    twin.lsn = record.lsn + 1       # lsn and prev_lsn take part
    assert twin != record and not twin == record
    for name in ("txn_id",) + cls.FIELDS:
        changed = copy.copy(record)
        setattr(changed, name, "something else")
        assert changed != record, name
    assert record.__eq__(object()) is NotImplemented
    assert repr(record) == "%s(%s)" % (cls.__name__, ", ".join(
        f"{name}={getattr(record, name)!r}"
        for name in ("lsn", "prev_lsn", "txn_id") + cls.FIELDS))
    with pytest.raises(TypeError):
        hash(record)


def test_records_of_different_classes_are_never_equal():
    assert BeginRecord(txn_id=3) != CommitRecord(txn_id=3)
    assert repr(EndRecord(txn_id=3, committed=False)) == \
        "EndRecord(lsn=0, prev_lsn=0, txn_id=3, committed=False)"
