"""Byte-frame serialization for log records (the durable WAL format).

Every :class:`~repro.wal.records.LogRecord` can be encoded into a
self-describing binary *frame* and decoded back, byte-identically.  A log
segment on (simulated) disk is::

    [segment header][frame][frame][frame]...

* **segment header** (8 bytes): magic ``b"RWAL"``, big-endian u16 format
  version, two reserved zero bytes.  A segment whose header does not match
  is quarantined -- it is not a torn tail, it is the wrong file or a
  corrupted head.
* **frame**: big-endian u32 payload length, big-endian u32 CRC-32 of the
  payload, then the payload bytes.  The CRC covers the payload only; the
  length field is implicitly validated by the CRC (a corrupt length either
  runs past the end of the segment -- indistinguishable from a torn tail --
  or mis-frames the payload so the CRC fails).
* **payload**: one byte record-kind code, the record's ``lsn``,
  ``prev_lsn`` and ``txn_id`` as zig-zag varints, then the record's
  payload fields in the order of its class's ``FIELDS``, each encoded with
  the tagged value codec below.

The value codec covers everything the record classes of
:mod:`repro.wal.records` actually store: ``None``, bools, arbitrary-size
ints, floats, strings, bytes, tuples, lists, dicts (insertion order is
preserved, so a decode/encode round trip is byte-identical), nested log
records (CLR actions), :class:`~repro.storage.schema.TableSchema` objects
(DDL records, swap records) and the frozen spec dataclasses the swap
records embed (:class:`~repro.relational.spec.FojSpec`, ...).  Values
outside this set -- e.g. the row predicate *callable* of a
:class:`~repro.relational.spec.PartitionSpec` -- raise
:class:`FrameCodecError` at encode time: a payload that cannot survive a
round trip must fail loudly at flush, not at recovery.

Salvage (:func:`walk_segment`, one pass over the image;
:func:`decode_segment` is the same pass decoding every record)
implements the torn-write rules the recovery path relies on:

* a frame that runs past the end of the segment, or trailing bytes too
  short to hold a frame header, are a **torn tail**: the write was cut by
  the crash; the tail is truncated and reported;
* a complete frame whose CRC fails *at the very end* of the segment is a
  **corrupt tail**: physically indistinguishable from a torn write that
  happened to cover the full claimed length, so it is also truncated --
  but reported separately (``tail_corrupt``), never silently applied;
* a frame whose CRC fails while later bytes exist is **mid-log
  corruption**: stable storage lied about previously-synced data, and the
  segment is quarantined with :class:`LogCorruptionError`.
"""

from __future__ import annotations

import dataclasses
import struct
from array import array
import zlib
from functools import partial
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Type)

from repro.common.errors import LogCorruptionError, ReproError
from repro.storage.schema import Attribute, FunctionalDependency, TableSchema
from repro.wal.records import (
    NULL_LSN,
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
    FuzzyMarkRecord,
    InsertRecord,
    LogRecord,
    RenameTableRecord,
    TransformRetireRecord,
    TransformSwapRecord,
    UpdateRecord,
)

#: Segment magic; the version is bumped on any incompatible layout change.
SEGMENT_MAGIC = b"RWAL"
SEGMENT_VERSION = 1
SEGMENT_HEADER = SEGMENT_MAGIC + struct.pack(">H", SEGMENT_VERSION) + b"\x00\x00"
SEGMENT_HEADER_SIZE = len(SEGMENT_HEADER)

#: Bytes of frame metadata preceding each payload: u32 length + u32 CRC.
FRAME_HEADER_SIZE = 8


class FrameCodecError(ReproError):
    """A record (or one of its payload values) cannot be framed."""


# ---------------------------------------------------------------------------
# Record-kind registry
# ---------------------------------------------------------------------------

#: Stable one-byte code per record class.  Codes are part of the on-disk
#: format: never renumber, only append.
RECORD_CODES: Dict[Type[LogRecord], int] = {
    BeginRecord: 1,
    CommitRecord: 2,
    AbortRecord: 3,
    EndRecord: 4,
    InsertRecord: 5,
    DeleteRecord: 6,
    UpdateRecord: 7,
    CLRecord: 8,
    FuzzyMarkRecord: 9,
    CCBeginRecord: 10,
    CCOkRecord: 11,
    CreateTableRecord: 12,
    DropTableRecord: 13,
    RenameTableRecord: 14,
    TransformSwapRecord: 15,
    TransformRetireRecord: 16,
    CheckpointRecord: 17,
    CatalogFlipRecord: 18,
}

#: Frozen dataclasses that may appear as payload values (swap-record
#: params, schema attributes).  Name -> class; encoded by field order.
_DATACLASS_REGISTRY: Dict[str, type] = {
    "Attribute": Attribute,
    "FunctionalDependency": FunctionalDependency,
}


def register_payload_dataclass(cls: type) -> type:
    """Allow instances of a frozen dataclass inside record payloads.

    The class is keyed by its ``__name__`` (part of the on-disk format);
    its fields must themselves be encodable values.  Returns ``cls`` so
    it can be used as a decorator.
    """
    existing = _DATACLASS_REGISTRY.get(cls.__name__)
    if existing is not None and existing is not cls:
        raise FrameCodecError(
            f"payload dataclass name {cls.__name__!r} already registered "
            f"for {existing!r}")
    _DATACLASS_REGISTRY[cls.__name__] = cls
    return cls


def _register_spec_dataclasses() -> None:
    # Imported lazily so repro.wal does not drag the relational layer in
    # at import time (and to keep the dependency direction one-way for
    # everything but this registration).
    from repro.relational.spec import (AttrPredicate, ExplodeSpec, FojSpec,
                                       MergeSpec, PartitionSpec, RetypeSpec,
                                       SplitSpec)
    register_payload_dataclass(FojSpec)
    register_payload_dataclass(SplitSpec)
    register_payload_dataclass(MergeSpec)
    register_payload_dataclass(ExplodeSpec)
    register_payload_dataclass(RetypeSpec)
    register_payload_dataclass(AttrPredicate)
    # Frame-codable only when its predicate is an AttrPredicate; a spec
    # holding a bare callable still raises FrameCodecError at encode time.
    register_payload_dataclass(PartitionSpec)


def _registered_dataclass(name: str) -> Optional[type]:
    cls = _DATACLASS_REGISTRY.get(name)
    if cls is None:
        _register_spec_dataclasses()
        cls = _DATACLASS_REGISTRY.get(name)
    return cls


# ---------------------------------------------------------------------------
# Primitive codec: zig-zag varints and tagged values
# ---------------------------------------------------------------------------
#
# Both directions are table-driven: encoding looks the value's exact
# ``type()`` up in ``_ENCODERS`` (a subclass or a registered dataclass
# misses and is classified by ``_encoder_for``), decoding indexes the
# 256-entry ``_DECODERS`` list with the tag byte.  The decoders do not
# bounds-check: a read past the end raises ``IndexError`` or
# ``struct.error``, a slice past the end comes back short and leaves
# ``pos`` beyond the payload; :func:`decode_record`, where untrusted bytes
# enter, turns either into :class:`FrameCodecError`.

_DOUBLE = struct.Struct(">d")
_FRAME_HEADER = struct.Struct(">II")


def _write_varint(out: bytearray, value: int) -> None:
    """Unsigned LEB128."""
    if value < 0:
        raise FrameCodecError(f"varint cannot encode negative {value}")
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    byte = data[pos]
    if byte < 0x80:
        return byte, pos + 1
    result = byte & 0x7F
    shift = 7
    while True:
        pos += 1
        byte = data[pos]
        if byte < 0x80:
            return result | (byte << shift), pos + 1
        result |= (byte & 0x7F) << shift
        shift += 7


def _write_svarint(out: bytearray, value: int) -> None:
    """Zig-zag signed varint (small magnitudes stay small)."""
    _write_varint(out, value * 2 if value >= 0 else -value * 2 - 1)


# Value tags (one byte each).
_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_TUPLE = 0x07
_T_LIST = 0x08
_T_DICT = 0x09
_T_RECORD = 0x0A
_T_SCHEMA = 0x0B
_T_DATACLASS = 0x0C

Encoder = Callable[[bytearray, object], None]
Decoder = Callable[[bytes, int], Tuple[object, int]]


# -- encoders: (out, value) -> None ------------------------------------------


def _enc_int(out: bytearray, value: int) -> None:
    out.append(_T_INT)
    _write_svarint(out, value)


def _enc_float(out: bytearray, value: float) -> None:
    out.append(_T_FLOAT)
    out += _DOUBLE.pack(value)


def _enc_sized(tag: int, out: bytearray, raw: bytes) -> None:
    out.append(tag)
    if len(raw) < 0x80:
        out.append(len(raw))
    else:
        _write_varint(out, len(raw))
    out += raw


def _enc_str(out: bytearray, value: str) -> None:
    _enc_sized(_T_STR, out, value.encode("utf-8"))


def _enc_items(tag: int, out: bytearray, value: Sequence) -> None:
    out.append(tag)
    _write_varint(out, len(value))
    for item in value:
        (_ENCODERS.get(type(item)) or _encoder_for(item))(out, item)


def _enc_dict(out: bytearray, value: dict) -> None:
    out.append(_T_DICT)
    _write_varint(out, len(value))
    get = _ENCODERS.get
    for key, item in value.items():
        (get(type(key)) or _encoder_for(key))(out, key)
        (get(type(item)) or _encoder_for(item))(out, item)


def _enc_record(out: bytearray, value: LogRecord) -> None:
    _enc_sized(_T_RECORD, out, encode_record(value))


def _enc_schema(out: bytearray, value: TableSchema) -> None:
    out.append(_T_SCHEMA)
    for part in (value.name, value.attributes, value.primary_key,
                 value.candidate_keys, value.functional_deps):
        encode_value(out, part)


def _enc_dataclass(out: bytearray, value: object) -> None:
    out.append(_T_DATACLASS)
    _enc_str(out, type(value).__name__)
    fields = dataclasses.fields(value)
    _write_varint(out, len(fields))
    for field in fields:
        encode_value(out, getattr(value, field.name))


#: The format's classification order: exact types are looked up in
#: ``_ENCODERS``, anything else walks this ladder (``bool`` and
#: ``NoneType`` cannot be subclassed, so they are not on it).
_ENCODER_LADDER: Tuple[Tuple[type, Encoder], ...] = (
    (int, _enc_int), (float, _enc_float), (str, _enc_str),
    (bytes, partial(_enc_sized, _T_BYTES)),
    (tuple, partial(_enc_items, _T_TUPLE)),
    (list, partial(_enc_items, _T_LIST)), (dict, _enc_dict),
    (LogRecord, _enc_record), (TableSchema, _enc_schema),
)
_ENCODERS: Dict[type, Encoder] = {
    type(None): lambda out, value: out.append(_T_NONE),
    bool: lambda out, value: out.append(_T_TRUE if value else _T_FALSE),
    **dict(_ENCODER_LADDER), **dict.fromkeys(RECORD_CODES, _enc_record)}


def _encoder_for(value: object) -> Encoder:
    """The encoder of a value whose exact type is not in ``_ENCODERS``;
    raises :class:`FrameCodecError` for non-durable values."""
    for base, encoder in _ENCODER_LADDER:
        if isinstance(value, base):
            return encoder
    cls = type(value)
    if dataclasses.is_dataclass(value) \
            and _registered_dataclass(cls.__name__) is cls:
        return _enc_dataclass
    raise FrameCodecError(
        f"value of type {cls.__name__} cannot be framed: {value!r} "
        f"(register_payload_dataclass for frozen dataclasses; callables "
        f"and arbitrary objects are not durable)")


def encode_value(out: bytearray, value: object) -> None:
    """Append the tagged encoding of ``value`` to ``out``."""
    (_ENCODERS.get(type(value)) or _encoder_for(value))(out, value)


# -- decoders: (data, pos after the tag) -> (value, next pos) ------------------


def _dec_int(data: bytes, pos: int) -> Tuple[object, int]:
    raw, pos = _read_varint(data, pos)
    return (raw >> 1) ^ -(raw & 1), pos


def _dec_float(data: bytes, pos: int) -> Tuple[object, int]:
    return _DOUBLE.unpack_from(data, pos)[0], pos + 8


def _dec_str(data: bytes, pos: int) -> Tuple[object, int]:
    length = data[pos]
    if length < 0x80:
        pos += 1
    else:
        length, pos = _read_varint(data, pos)
    end = pos + length
    return data[pos:end].decode("utf-8"), end


def _dec_bytes(data: bytes, pos: int) -> Tuple[object, int]:
    length, pos = _read_varint(data, pos)
    return bytes(data[pos:pos + length]), pos + length


def _dec_values(data: bytes, pos: int, count: int) -> Tuple[list, int]:
    """``count`` tagged values in a row."""
    values = []
    decoders = _DECODERS
    for _ in range(count):
        value, pos = decoders[data[pos]](data, pos + 1)
        values.append(value)
    return values, pos


def _dec_list(data: bytes, pos: int) -> Tuple[list, int]:
    count, pos = _read_varint(data, pos)
    return _dec_values(data, pos, count)


def _dec_tuple(data: bytes, pos: int) -> Tuple[object, int]:
    if data[pos] == 1:                 # a single-attribute key
        item, pos = _DECODERS[data[pos + 1]](data, pos + 2)
        return (item,), pos
    items, pos = _dec_list(data, pos)
    return tuple(items), pos


def _dec_dict(data: bytes, pos: int) -> Tuple[object, int]:
    count, pos = _read_varint(data, pos)
    result = {}
    decoders = _DECODERS
    for _ in range(count):
        key, pos = decoders[data[pos]](data, pos + 1)
        result[key], pos = decoders[data[pos]](data, pos + 1)
    return result, pos


def _dec_record(data: bytes, pos: int) -> Tuple[object, int]:
    body, pos = _dec_bytes(data, pos)
    return decode_record(body), pos


def _dec_schema(data: bytes, pos: int) -> Tuple[object, int]:
    (name, attributes, primary_key, candidate_keys,
     functional_deps), pos = _dec_values(data, pos, 5)
    return TableSchema(name, list(attributes), list(primary_key),
                       [list(ck) for ck in candidate_keys],
                       list(functional_deps)), pos


def _dec_dataclass(data: bytes, pos: int) -> Tuple[object, int]:
    class_name, pos = decode_value(data, pos)
    cls = _registered_dataclass(class_name)
    if cls is None:
        raise FrameCodecError(f"unknown payload dataclass {class_name!r}")
    values, pos = _dec_list(data, pos)
    fields = dataclasses.fields(cls)
    # A class may grow trailing fields with defaults: an older frame
    # leaves them out and decodes to their defaults.
    if len(values) > len(fields) or any(
            f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
            for f in fields[len(values):]):
        raise FrameCodecError(
            f"{class_name} field count changed: frame has {len(values)}, "
            f"class has {len(fields)}")
    return cls(*values), pos


def _dec_unknown(data: bytes, pos: int) -> Tuple[object, int]:
    raise FrameCodecError(f"unknown value tag 0x{data[pos - 1]:02x}")


#: Tag byte -> decoder.
_DECODERS: List[Decoder] = [_dec_unknown] * 256
_DECODERS[:_T_DATACLASS + 1] = [
    lambda data, pos: (None, pos), lambda data, pos: (True, pos),
    lambda data, pos: (False, pos), _dec_int, _dec_float, _dec_str,
    _dec_bytes, _dec_tuple, _dec_list, _dec_dict, _dec_record, _dec_schema,
    _dec_dataclass]


def decode_value(data: bytes, pos: int) -> Tuple[object, int]:
    """Decode one tagged value; returns ``(value, next_pos)``.  Trusts
    ``data``: :func:`decode_record` is the checked entry point."""
    return _DECODERS[data[pos]](data, pos + 1)


# ---------------------------------------------------------------------------
# Record payloads and frames
# ---------------------------------------------------------------------------

#: Record class -> (code, payload field names): the class's ``FIELDS``,
#: which is also the positional order of ``cls(txn_id, *payload)``.
#: Code -> (class, field count).
_ENCODE_PLANS: Dict[Type[LogRecord], Tuple[int, Tuple[str, ...]]] = {
    cls: (code, cls.FIELDS) for cls, code in RECORD_CODES.items()}
_DECODE_PLANS: Dict[int, Tuple[Type[LogRecord], int]] = {
    code: (cls, len(fields)) for cls, (code, fields) in _ENCODE_PLANS.items()}


def encode_record(record: LogRecord) -> bytes:
    """Serialize one record (without frame length/CRC)."""
    plan = _ENCODE_PLANS.get(type(record))
    if plan is None:
        raise FrameCodecError(
            f"record class {type(record).__name__} has no frame code; "
            f"add it to repro.wal.frames.RECORD_CODES")
    code, fields = plan
    out = bytearray((code,))
    _write_svarint(out, record.lsn)
    _write_svarint(out, record.prev_lsn)
    _write_svarint(out, record.txn_id)
    get = _ENCODERS.get
    for name in fields:
        value = getattr(record, name)
        (get(type(value)) or _encoder_for(value))(out, value)
    return bytes(out)


def decode_record(data: bytes) -> LogRecord:
    """Rebuild a record from :func:`encode_record` output.

    Every way the bytes can fail to be a record -- truncation, an unknown
    code or tag, invalid UTF-8, an unhashable dict key, a schema or spec
    the constructors reject, runaway nesting -- raises
    :class:`FrameCodecError`, so salvage quarantines the frame instead of
    crashing on it.
    """
    try:
        plan = _DECODE_PLANS.get(data[0])
        if plan is None:
            raise FrameCodecError(f"unknown record code 0x{data[0]:02x}")
        cls, count = plan
        lsn, pos = _read_varint(data, 1)
        prev_lsn, pos = _read_varint(data, pos)
        txn_id, pos = _read_varint(data, pos)
        values, pos = _dec_values(data, pos, count)
        if pos != len(data):
            raise FrameCodecError(
                f"{cls.__name__} payload ends at byte {pos} of {len(data)}")
        record = cls((txn_id >> 1) ^ -(txn_id & 1), *values)
    except FrameCodecError:
        raise
    except Exception as exc:
        raise FrameCodecError(
            f"malformed record payload: {type(exc).__name__}: {exc}") from exc
    record.lsn = (lsn >> 1) ^ -(lsn & 1)
    record.prev_lsn = (prev_lsn >> 1) ^ -(prev_lsn & 1)
    return record


def append_frame(buf: bytearray, record: LogRecord) -> None:
    """Append ``record``'s length-prefixed, CRC-protected frame to ``buf``
    (untouched if the record cannot be framed)."""
    payload = encode_record(record)
    buf += _FRAME_HEADER.pack(len(payload), zlib.crc32(payload))
    buf += payload


def encode_frame(record: LogRecord) -> bytes:
    """One length-prefixed, CRC-protected frame for ``record``."""
    buf = bytearray()
    append_frame(buf, record)
    return bytes(buf)


def frame_spans(image: bytes) -> Iterator[Tuple[int, int]]:
    """Yield ``(payload_offset, payload_length)`` for each *complete*,
    CRC-valid frame of a segment image (stops at the first bad frame).

    A parsing helper for fault targeting and tests; the authoritative
    salvage path is :func:`decode_segment`.
    """
    pos = SEGMENT_HEADER_SIZE
    while pos + FRAME_HEADER_SIZE <= len(image):
        length, crc = _FRAME_HEADER.unpack_from(image, pos)
        start = pos + FRAME_HEADER_SIZE
        if start + length > len(image):
            return
        if zlib.crc32(image[start:start + length]) != crc:
            return
        yield start, length
        pos = start + length


class SalvageReport:
    """What a salvage walk found and what it had to discard.

    Attributes:
        records: The salvaged record prefix, in LSN order, when the walk
            decoded it (:func:`decode_segment`); ``None`` when the frames
            stay on disk (:meth:`repro.wal.log.LogManager.from_disk`).
        count: Number of salvaged records (their LSNs are ``1..count``).
        codes: Record code of each salvaged frame (index ``lsn - 1``),
            read from the frame header.
        txn_ids: Transaction id of each salvaged frame, likewise.
        byte_length: Length of the valid byte prefix of the segment
            (header + intact frames); everything past it was truncated.
        torn: ``True`` when a partially-written frame was truncated
            (the crash cut a flush mid-frame).
        tail_corrupt: ``True`` when the *final* complete frame failed its
            CRC and was truncated (detected, reported, never applied).
        dropped_bytes: Bytes discarded past the valid prefix.
    """

    def __init__(self, records: Optional[List[LogRecord]], codes: bytes,
                 txn_ids: array, byte_length: int, torn: bool,
                 tail_corrupt: bool, dropped_bytes: int) -> None:
        self.records = records
        self.count = len(codes)
        self.codes = codes
        self.txn_ids = txn_ids
        self.byte_length = byte_length
        self.torn = torn
        self.tail_corrupt = tail_corrupt
        self.dropped_bytes = dropped_bytes

    def describe(self) -> str:
        status = []
        if self.torn:
            status.append("torn tail truncated")
        if self.tail_corrupt:
            status.append("corrupt tail frame discarded")
        if not status:
            status.append("clean")
        return (f"salvaged {self.count} records "
                f"({self.byte_length} bytes, "
                f"{self.dropped_bytes} dropped): {'; '.join(status)}")


def walk_segment(image: bytes, decode: bool = False
                 ) -> Tuple[SalvageReport, array]:
    """The one salvage pass over a segment image.

    Checks each frame's CRC and LSN continuity, truncates a torn or
    corrupt tail, and reads each frame's record code and transaction id
    from its header.  Returns the report and the byte offset of every
    salvaged frame followed by the end of the last one (index ``lsn -
    1``), so a reader can decode any record later.  With ``decode`` the
    payloads are decoded in the same pass into ``report.records``.

    Raises :class:`LogCorruptionError` on a bad segment header, on a CRC
    failure that is *not* at the tail (mid-log corruption), on an LSN
    discontinuity and on a CRC-valid frame that does not decode (with
    ``decode``; without it only the header is read, so the payload is
    checked when it is first decoded).  The error always names the
    first bad frame and carries the records decoded before it: a walk
    without ``decode`` that finds a problem walks again decoding.
    """
    image = bytes(image)
    codes = bytearray()
    txn_ids = array("q")
    if not image.startswith(SEGMENT_HEADER):
        if SEGMENT_HEADER.startswith(image):
            # Nothing was ever flushed, or a crash cut the very first
            # write inside the header.
            return SalvageReport([] if decode else None, b"", txn_ids, 0,
                                 torn=bool(image), tail_corrupt=False,
                                 dropped_bytes=len(image)), array("q", [0])
        raise LogCorruptionError(
            f"bad segment header {image[:SEGMENT_HEADER_SIZE]!r} "
            f"(expected {SEGMENT_HEADER!r})",
            frame_index=-1, lsn=NULL_LSN, offset=0)
    records: Optional[List[LogRecord]] = [] if decode else None
    offsets = array("q")
    expected_lsn = NULL_LSN + 1
    pos = SEGMENT_HEADER_SIZE
    size = len(image)
    unpack = _FRAME_HEADER.unpack_from
    crc32 = zlib.crc32
    plans = _DECODE_PLANS
    tail_corrupt = False
    while pos < size:
        start = pos + FRAME_HEADER_SIZE
        if start > size:
            break
        length, crc = unpack(image, pos)
        end = start + length
        if end > size:
            break
        payload = image[start:end]
        if crc32(payload) != crc:
            if end == size:
                # Final frame: indistinguishable from a torn write that
                # covered the whole claimed length with garbage.  Truncate
                # -- the corrupt bytes are reported, never applied.
                tail_corrupt = True
                break
            problem = "frame checksum mismatch with later frames present"
        else:
            try:
                if decode:
                    record = decode_record(payload)
                    code = RECORD_CODES[type(record)]
                    lsn, txn_id = record.lsn, record.txn_id
                else:
                    code = payload[0]
                    if code not in plans:
                        raise FrameCodecError(
                            f"unknown record code 0x{code:02x}")
                    # The header's three varints, read inline (the walk
                    # is restart's one pass over every frame): lsn,
                    # prev_lsn (skipped), txn_id.
                    lsn = shift = 0
                    at = 1
                    while True:
                        byte = payload[at]
                        at += 1
                        lsn |= (byte & 0x7F) << shift
                        if byte < 0x80:
                            break
                        shift += 7
                    while payload[at] >= 0x80:
                        at += 1
                    txn_id = shift = 0
                    at += 1
                    while True:
                        byte = payload[at]
                        at += 1
                        txn_id |= (byte & 0x7F) << shift
                        if byte < 0x80:
                            break
                        shift += 7
                    lsn = (lsn >> 1) ^ -(lsn & 1)
                    txn_id = (txn_id >> 1) ^ -(txn_id & 1)
            except (FrameCodecError, IndexError) as exc:
                # CRC passed but the payload does not parse: a codec bug
                # or deliberate tampering -- quarantine either way.
                problem = f"frame payload undecodable: {exc}"
            else:
                if lsn == expected_lsn:
                    if decode:
                        records.append(record)
                    offsets.append(pos)
                    codes.append(code)
                    txn_ids.append(txn_id)
                    expected_lsn += 1
                    pos = end
                    continue
                problem = (f"LSN discontinuity: frame carries lsn "
                           f"{lsn}, expected {expected_lsn}")
        if not decode:
            return walk_segment(image, decode=True)
        raise LogCorruptionError(
            problem, frame_index=len(records), lsn=expected_lsn, offset=pos,
            salvaged=tuple(records))
    offsets.append(pos)
    # Past ``pos``: a frame header or payload cut short by the crash (a
    # torn tail), or the corrupt final frame.
    return SalvageReport(records, bytes(codes), txn_ids, pos,
                         torn=pos < size and not tail_corrupt,
                         tail_corrupt=tail_corrupt,
                         dropped_bytes=size - pos), offsets


def decode_segment(image: bytes) -> SalvageReport:
    """Salvage a segment image into records: :func:`walk_segment`,
    decoding.

    Raises :class:`LogCorruptionError` on a bad segment header or on a
    CRC failure that is *not* at the tail (mid-log corruption).  An empty
    image is a valid empty log (nothing was ever flushed).
    """
    return walk_segment(image, decode=True)[0]


def decode_frames(data: bytes) -> List[LogRecord]:
    """Decode a run of consecutive whole frames, as a log wrote them.

    No salvage checks: the caller knows the bytes are frames it wrote or
    a walk already checked.  A payload that does not decode raises
    :class:`FrameCodecError`.
    """
    records = []
    pos, size = 0, len(data)
    unpack = _FRAME_HEADER.unpack_from
    while pos < size:
        start = pos + FRAME_HEADER_SIZE
        pos = start + unpack(data, pos)[0]
        records.append(decode_record(data[start:pos]))
    return records
