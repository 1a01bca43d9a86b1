"""Unit tests for the durable WAL frame codec and salvage rules.

Every record kind must round-trip through its byte frame
*byte-identically* (decode -> re-encode yields the same bytes), values
outside the durable set must fail loudly at encode time, and
:func:`~repro.wal.decode_segment` must implement the torn-tail /
corrupt-tail / mid-log-quarantine trichotomy exactly.
"""

import copy
import inspect
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
from repro.wal.frames import (
    RECORD_CODES,
    SEGMENT_VERSION,
    decode_value,
    encode_value,
)

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


def golden_records():
    """The records of ``tests/fixtures/wal_frames_v1.hex``, in file order:
    every sample kind, then the corners of the value codec."""
    return _with_lsns(copy.deepcopy(SAMPLE_RECORDS)) + [
        # Multi-byte varints in the header fields and in a length.
        _placed(InsertRecord(
            txn_id=70000, table="wide", key=(300, -1),
            values={"long": "x" * 200, "raw": b"\x00\xff" * 70,
                    "neg": -1, "min64": -2 ** 63, "big": 2 ** 64 + 1,
                    "negbig": -(2 ** 70), "edge": [127, 128, -64, -65]}),
            300, 2 ** 21 + 5),
        _placed(UpdateRecord(
            txn_id=128, table="f", key=(1.5,),
            changes={"negzero": -0.0, "nan": float("nan"),
                     "inf": float("inf"), "tiny": 5e-324},
            old_values={"négatif": "héllo – 日本語 🎉", "": None,
                        "nest": {"t": (True, False, ()), "l": [[], {}]}}),
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


_GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "fixtures",
                            "wal_frames_v1.hex")


def _golden_frames():
    with open(_GOLDEN_PATH) as handle:
        return [bytes.fromhex(line) for line in handle.read().split()]


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


def _spec_value(spec, values):
    """``spec``'s frame bytes as a class with ``values`` as its fields
    would have written them."""
    out = bytearray(b"\x0c")  # the dataclass tag
    encode_value(out, type(spec).__name__)
    out.append(len(values))
    for value in values:
        encode_value(out, value)
    return bytes(out)


def _respec(payload, spec, field_values):
    """``payload`` with its one encoded ``spec`` re-encoded with
    ``field_values`` (e.g. the five fields ``RetypeSpec`` once had)."""
    whole = bytearray()
    encode_value(whole, spec)
    assert payload.count(bytes(whole)) == 1
    return payload.replace(bytes(whole), _spec_value(spec, field_values))


def _retype_swap_payload(spec, field_values):
    record = TransformSwapRecord(
        txn_id=0, transform_id="tf", transform_kind="retype",
        retired=(spec.source_name,), published={}, params={"spec": spec},
        doomed_txns=())
    record.lsn = 1
    return _respec(encode_record(record), spec, field_values)


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
            payload = _respec(payload, _RETYPE_SPEC, _PARENT_FIELDS)
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


#: Payloads a CRC cannot object to and the codec must still refuse: each
#: used to escape ``decode_segment`` as the named exception instead of
#: quarantining the log.  All carry lsn 2 (zig-zag ``04``).
MALFORMED_PAYLOADS = {
    # DropTableRecord whose table name is a string tag over bad UTF-8.
    "UnicodeDecodeError": b"\x0d\x04\x00\x00" + b"\x05\x02\xff\xfe",
    # CheckpointRecord whose active_txns dict has a list as its key.
    "unhashable key": b"\x11\x04\x00\x00" + b"\x09\x01\x08\x00\x00",
    # CreateTableRecord whose schema tag sits over five ints.
    "schema over int": b"\x0c\x04\x00\x00" + b"\x0b" + b"\x03\x02" * 5
                       + b"\x02",
    # DropTableRecord whose table name is a list nested 50,000 deep.
    "RecursionError": b"\x0d\x04\x00\x00" + b"\x08\x01" * 50000 + b"\x00",
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
    """``wal_frames_v1.hex`` was written by the interpreted codec this one
    replaced: encoder and decoder cannot drift together unnoticed."""
    assert SEGMENT_VERSION == 1
    golden = _golden_frames()
    records = golden_records()
    assert len(golden) == len(records)
    for frame, record in zip(golden, records):
        assert encode_frame(record) == frame, type(record).__name__
        decoded = decode_record(frame[FRAME_HEADER_SIZE:])
        assert type(decoded) is type(record)
        assert encode_frame(decoded) == frame, type(record).__name__
    report = decode_segment(SEGMENT_HEADER + b"".join(golden[:19]))
    assert len(report.records) == 19 and not report.torn


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
    st.text(), st.binary())
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
@given(_VALUES)
def test_value_round_trip_preserves_value_and_types(value):
    out = bytearray()
    encode_value(out, value)
    decoded, pos = decode_value(bytes(out), 0)
    assert pos == len(out)
    assert _same(decoded, value)
    again = bytearray()
    encode_value(again, decoded)
    assert again == out


def test_subclass_values_frame_like_their_base_type():
    """Exact types hit the encoder table; subclasses take the miss path
    and must frame to the same bytes as the plain value."""
    import collections
    import enum

    class Colour(enum.IntEnum):
        RED = 300

    class Name(str):
        pass

    def framed(value):
        out = bytearray()
        encode_value(out, value)
        return bytes(out)

    assert framed(Colour.RED) == framed(300)
    assert framed(Name("é")) == framed("é")
    assert framed(collections.OrderedDict(a=1)) == framed({"a": 1})
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
