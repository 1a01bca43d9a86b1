"""Byte-frame serialization for log records: the one record codec.

Every :class:`~repro.wal.records.LogRecord` is encoded once, its fields
when it is appended (:func:`encode_fields`) and its frame when it is
flushed (:func:`append_frames`), into a self-describing binary *frame*
that decodes back to it byte-identically.  Both logs keep their history
as a segment of such frames -- a durable log on its (simulated) disk, a
volatile one in memory::

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
* **payload** (format version 2): a head -- record code (u8), ``lsn``,
  ``prev_lsn`` and ``txn_id`` (big-endian u32) -- then
  ``marshal.dumps(fields, 2)`` of the record's *flat* fields, its
  ``FIELDS`` values in order (:data:`_CONVERTED` flattens the few that
  hold a record, a schema or a spec).  A value ``marshal`` cannot write
  -- a callable, a ``Decimal`` -- raises :class:`FrameCodecError` from
  :func:`encode_fields`, at append, before anything is logged.

Why ``marshal`` version 2: it is C code writing exactly the plain values
the records hold (on an ``oltp_durable`` image, ~5x cheaper to encode
and ~2.5x to decode than the tagged values of format 1), and what
version 2 writes depends only on the value.  Versions 3 and 4 set a
back-reference flag from the objects' reference counts, so
``dumps(loads(p)) != p`` for an ordinary update record; the byte-identity
of a re-encoded salvaged prefix (the crash sweep's check), of a restart
repeated on one image, and of the ledger's ``wal_bytes`` rest on that
property.  ``marshal`` is not safe on crafted bytes; it
reads only CRC-checked frames, and :func:`decode_record` checks the head
before and the canonical form (``dumps(loads(body), 2) == body``) after
unmarshalling.

Format 1 (a tagged-value encoding) is still read by
:func:`decode_segment` and ``decode_record(data, version=1)``; nothing
writes it, and a log is never restarted from it.

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
import marshal
import struct
from array import array
import zlib
from operator import attrgetter
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
SEGMENT_VERSION = 2
SEGMENT_HEADER = SEGMENT_MAGIC + struct.pack(">H", SEGMENT_VERSION) + b"\x00\x00"
SEGMENT_HEADER_SIZE = len(SEGMENT_HEADER)
_V1_HEADER = SEGMENT_MAGIC + struct.pack(">H", 1) + b"\x00\x00"

#: Bytes of frame metadata preceding each payload: u32 length + u32 CRC.
FRAME_HEADER_SIZE = 8
_FRAME_HEADER = struct.Struct(">II")

#: A payload's head: record code, lsn, prev_lsn, txn_id.
_HEAD = struct.Struct(">BIII")

#: The ``marshal`` format of a payload's fields (see the module docstring:
#: the only version whose output depends on the value alone).
_MARSHAL_VERSION = 2
_dumps = marshal.dumps


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


def _registered_dataclass(name: str) -> Optional[type]:
    if name not in _DATACLASS_REGISTRY:
        # The spec classes register on first use, so repro.wal does not
        # drag the relational layer in at import time (and the dependency
        # stays one-way for everything but this registration).
        from repro.relational.spec import (AttrPredicate, ExplodeSpec,
                                           FojSpec, MergeSpec, PartitionSpec,
                                           RetypeSpec, SplitSpec)
        for cls in (FojSpec, SplitSpec, MergeSpec, ExplodeSpec, RetypeSpec,
                    AttrPredicate, PartitionSpec):
            register_payload_dataclass(cls)
    return _DATACLASS_REGISTRY.get(name)


def _dataclass_of(name: str, values: Sequence[object]) -> object:
    """The registered dataclass ``name`` built from its field values.  A
    class may grow trailing fields with defaults: an older frame leaves
    them out and decodes to their defaults."""
    cls = _registered_dataclass(name)
    if cls is None:
        raise FrameCodecError(f"unknown payload dataclass {name!r}")
    fields = dataclasses.fields(cls)
    if len(values) > len(fields) or any(
            f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
            for f in fields[len(values):]):
        raise FrameCodecError(
            f"{name} field count changed: frame has {len(values)}, "
            f"class has {len(fields)}")
    return cls(*values)


# ---------------------------------------------------------------------------
# Flat fields: what marshal writes of each record
# ---------------------------------------------------------------------------


def _flat_value(value: object) -> tuple:
    """``(name, fields)`` for a :class:`TableSchema` or a registered
    payload dataclass, each field flattened alike; ``(value,)`` for
    anything else -- no plain value reads back as either."""
    cls = type(value)
    if cls is TableSchema:
        return ("TableSchema", (
            value.name, tuple((a.name, a.nullable) for a in value.attributes),
            tuple(value.primary_key),
            tuple(tuple(ck) for ck in value.candidate_keys),
            tuple((fd.determinants, fd.dependents)
                  for fd in value.functional_deps)))
    if dataclasses.is_dataclass(cls) \
            and _registered_dataclass(cls.__name__) is cls:
        return (cls.__name__, tuple(
            _flat_value(getattr(value, f.name))
            for f in dataclasses.fields(cls)))
    return (value,)


def _value_of(flat: tuple) -> object:
    if len(flat) == 1:
        return flat[0]
    name, fields = flat
    if name == "TableSchema":
        name, attributes, primary_key, candidate_keys, deps = fields
        return TableSchema(
            name, [Attribute(*a) for a in attributes], list(primary_key),
            [list(ck) for ck in candidate_keys],
            [FunctionalDependency(*fd) for fd in deps])
    return _dataclass_of(name, [_value_of(field) for field in fields])


#: A mapping whose values are schemas or specs, flattened value by value.
_FLAT_MAPPING = (
    lambda mapping: {name: _flat_value(value)
                     for name, value in mapping.items()},
    lambda flat: {name: _value_of(value) for name, value in flat.items()})

#: The payload fields ``marshal`` cannot write as they are: class ->
#: field name -> (flatten, rebuild).  A CLR's action is its own payload;
#: a schema, and a swap record's published schemas and params, are
#: :func:`_flat_value` forms.
_CONVERTED: Dict[type, Dict[str, Tuple[Callable, Callable]]] = {
    CLRecord: {"action": (
        lambda action: None if action is None else encode_record(action),
        lambda data: None if data is None else decode_record(data))},
    CreateTableRecord: {"schema": (_flat_value, _value_of)},
    TransformSwapRecord: {"published": _FLAT_MAPPING,
                          "params": _FLAT_MAPPING},
}


def _converters(cls: type, side: int) -> Optional[tuple]:
    """Per field of ``cls``, its flatten (``side`` 0) or rebuild (1)
    function or ``None``; ``None`` when no field is converted."""
    converted = _CONVERTED.get(cls)
    return None if converted is None else tuple(
        converted[name][side] if name in converted else None
        for name in cls.FIELDS)


def _flattener(cls: type) -> Callable[[LogRecord], tuple]:
    """The record -> flat fields function of ``cls``: one C call unless
    a field is converted."""
    fields, converts = cls.FIELDS, _converters(cls, 0)
    if converts is not None:
        get = attrgetter(*fields)
        return lambda record: tuple(
            value if convert is None else convert(value)
            for convert, value in zip(converts, get(record)))
    if len(fields) > 1:
        return attrgetter(*fields)
    get = attrgetter("lsn", "txn_id", *fields)    # a tuple, always
    return lambda record: get(record)[2:]


#: Record class -> flattener; code -> (class, field count, per-field
#: rebuild or ``None`` when every field reads back as is).
_FLATTENERS: Dict[Type[LogRecord], Callable[[LogRecord], tuple]] = {
    cls: _flattener(cls) for cls in RECORD_CODES}
_DECODE_PLANS: Dict[int, Tuple[Type[LogRecord], int, Optional[tuple]]] = {
    code: (cls, len(cls.FIELDS), _converters(cls, 1))
    for cls, code in RECORD_CODES.items()}

#: Converters to the type ``marshal`` writes, for instances of subclasses
#: of it (``marshal`` writes exact types only).
_BASES = ((int, int.__int__), (float, float.__float__), (str, str.__str__),
          (bytes, bytes))


def _plain(value: object) -> object:
    """``value`` with each instance of a subclass of a type ``marshal``
    writes (an ``IntEnum``, a ``namedtuple``, an ``OrderedDict``) made an
    instance of that type; ``marshal`` refuses anything else."""
    if isinstance(value, dict):
        return {_plain(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        items = [_plain(item) for item in value]
        return tuple(items) if isinstance(value, tuple) else items
    if value.__class__ is not bool:
        for base, convert in _BASES:
            if isinstance(value, base):
                return convert(value)
    return value


# ---------------------------------------------------------------------------
# Record payloads and frames
# ---------------------------------------------------------------------------


def encode_fields(record: LogRecord) -> bytes:
    """The body of ``record``'s payload: ``marshal.dumps`` of its flat
    fields, and the one step that refuses a record for what it holds
    (the head is its code and three integers).  It runs in every
    ``append``, so the common case is one line."""
    try:
        return _dumps(_FLATTENERS[record.__class__](record), _MARSHAL_VERSION)
    except Exception:
        return _encode_refused(record)


def _encode_refused(record: LogRecord) -> bytes:
    """:func:`encode_fields` of a record its fast path refused: a class
    without a code, a value of a subclass of a type ``marshal`` writes,
    or a value no frame holds (:class:`FrameCodecError`)."""
    flatten = _FLATTENERS.get(record.__class__)
    if flatten is None:
        raise FrameCodecError(
            f"record class {type(record).__name__} has no frame code; "
            f"add it to repro.wal.frames.RECORD_CODES")
    try:
        return _dumps(_plain(flatten(record)), _MARSHAL_VERSION)
    except FrameCodecError:
        raise
    except Exception as exc:
        raise FrameCodecError(
            f"{type(record).__name__} cannot be framed: {exc} "
            f"(register_payload_dataclass for frozen dataclasses; "
            f"callables and arbitrary objects are not durable)") from None


def encode_record(record: LogRecord) -> bytes:
    """Serialize one record (without frame length/CRC): its head, then
    :func:`encode_fields`."""
    body = encode_fields(record)
    try:
        return _HEAD.pack(RECORD_CODES[record.__class__], record.lsn,
                          record.prev_lsn, record.txn_id) + body
    except struct.error as exc:
        raise FrameCodecError(f"{type(record).__name__} head: {exc}") \
            from None


def decode_record(data: bytes, version: int = SEGMENT_VERSION) -> LogRecord:
    """Rebuild a record from an :func:`encode_record` payload (or from a
    format-1 payload, with ``version=1``).

    Every way the bytes can fail to be a record -- truncation, an unknown
    code, trailing bytes, a body that is not the canonical ``marshal``
    form of its fields, a schema or spec the constructors reject --
    raises :class:`FrameCodecError`, so salvage quarantines the frame
    instead of crashing on it.
    """
    parse = _parse if version == SEGMENT_VERSION else \
        _parse_v1 if version == 1 else None
    if parse is None:
        raise FrameCodecError(f"unknown payload format version {version}")
    try:
        cls, lsn, prev_lsn, txn_id, values = parse(data)
        record = cls(txn_id, *values)
    except FrameCodecError:
        raise
    except Exception as exc:
        raise FrameCodecError(
            f"malformed record payload: {type(exc).__name__}: {exc}") from exc
    record.lsn, record.prev_lsn = lsn, prev_lsn
    return record


def _plan(code: int) -> Tuple[Type[LogRecord], int, Optional[tuple]]:
    plan = _DECODE_PLANS.get(code)
    if plan is None:
        raise FrameCodecError(f"unknown record code 0x{code:02x}")
    return plan


def _parse(data: bytes) -> tuple:
    """``(class, lsn, prev_lsn, txn_id, field values)`` of a payload: the
    head checked before the body is unmarshalled, the body's canonical
    form after (``marshal.loads`` ignores trailing bytes)."""
    code, lsn, prev_lsn, txn_id = _HEAD.unpack_from(data)
    cls, count, rebuild = _plan(code)
    body = data[_HEAD.size:]
    flat = marshal.loads(body)
    if flat.__class__ is not tuple or len(flat) != count \
            or _dumps(flat, _MARSHAL_VERSION) != body:
        raise FrameCodecError(
            f"{cls.__name__} body is not the canonical form of "
            f"{count} fields")
    if rebuild is not None:
        flat = [value if convert is None else convert(value)
                for convert, value in zip(rebuild, flat)]
    return cls, lsn, prev_lsn, txn_id, flat


def append_frames(buf: bytearray, records: Sequence[LogRecord],
                  bodies: Sequence[bytes], at: int) -> List[int]:
    """Append the length-prefixed, CRC-protected frame of each record,
    whose :func:`encode_fields` is the matching body, to ``buf``, the
    segment from offset ``at`` on; return the segment offset after each
    frame."""
    ends = []
    head, frame, crc32, codes = \
        _HEAD.pack, _FRAME_HEADER.pack, zlib.crc32, RECORD_CODES
    for record, body in zip(records, bodies):
        payload = head(codes[record.__class__], record.lsn, record.prev_lsn,
                       record.txn_id) + body
        buf += frame(len(payload), crc32(payload))
        buf += payload
        ends.append(at + len(buf))
    return ends


def encode_frame(record: LogRecord) -> bytes:
    """One length-prefixed, CRC-protected frame for ``record``."""
    payload = encode_record(record)
    return _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


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


# ---------------------------------------------------------------------------
# Format 1, read only: zig-zag varints and tagged values
# ---------------------------------------------------------------------------
#
# A format-1 payload is the record code, ``lsn``, ``prev_lsn`` and
# ``txn_id`` as zig-zag varints, then each field as a tagged value.  The
# reader does not bounds-check: a read past the end raises ``IndexError``
# or ``struct.error``, a slice past the end comes back short and leaves
# ``pos`` beyond the payload; :func:`decode_record` turns either into
# :class:`FrameCodecError`.

def _read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    result = shift = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, pos
        shift += 7


def _read_svarint(data: bytes, pos: int) -> Tuple[int, int]:
    raw, pos = _read_varint(data, pos)
    return (raw >> 1) ^ -(raw & 1), pos


def _v1_values(data: bytes, pos: int, count: int) -> Tuple[list, int]:
    values = []
    for _ in range(count):
        value, pos = _v1_value(data, pos)
        values.append(value)
    return values, pos


def _v1_value(data: bytes, pos: int) -> Tuple[object, int]:
    """The tagged value at ``pos`` and the position after it.  Tags:
    None, True, False, int, float, str, bytes, tuple, list, dict, record,
    schema, dataclass (0x00 - 0x0C)."""
    tag = data[pos]
    pos += 1
    if tag < 3:
        return (None, True, False)[tag], pos
    if tag == 3:
        return _read_svarint(data, pos)
    if tag == 4:
        return struct.unpack_from(">d", data, pos)[0], pos + 8
    if tag in (5, 6, 10):
        length, pos = _read_varint(data, pos)
        raw = bytes(data[pos:pos + length])
        value = raw.decode("utf-8") if tag == 5 else \
            decode_record(raw, 1) if tag == 10 else raw
        return value, pos + length
    if tag in (7, 8, 9):
        count, pos = _read_varint(data, pos)
        values, pos = _v1_values(data, pos, count * 2 if tag == 9 else count)
        return (tuple(values) if tag == 7 else values if tag == 8 else
                dict(zip(values[::2], values[1::2]))), pos
    if tag == 11:
        (name, attributes, primary_key, candidate_keys,
         deps), pos = _v1_values(data, pos, 5)
        return TableSchema(name, list(attributes), list(primary_key),
                           [list(ck) for ck in candidate_keys],
                           list(deps)), pos
    if tag == 12:
        name, pos = _v1_value(data, pos)
        count, pos = _read_varint(data, pos)
        values, pos = _v1_values(data, pos, count)
        return _dataclass_of(name, values), pos
    raise FrameCodecError(f"unknown value tag 0x{tag:02x}")


def _parse_v1(data: bytes) -> tuple:
    """:func:`_parse` of a format-1 payload."""
    cls, count, _rebuild = _plan(data[0])
    lsn, pos = _read_svarint(data, 1)
    prev_lsn, pos = _read_svarint(data, pos)
    txn_id, pos = _read_svarint(data, pos)
    values, pos = _v1_values(data, pos, count)
    if pos != len(data):
        raise FrameCodecError(
            f"{cls.__name__} payload ends at byte {pos} of {len(data)}")
    return cls, lsn, prev_lsn, txn_id, values


# ---------------------------------------------------------------------------
# Salvage
# ---------------------------------------------------------------------------


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
    """The one salvage pass over a segment image: any bytes-like object,
    read in place (a decoding walk copies each payload it decodes).

    Checks each frame's CRC and LSN continuity, truncates a torn or
    corrupt tail, and reads each frame's record code and transaction id
    from its payload head.  Returns the report and the byte offset of
    every salvaged frame followed by the end of the last one (index
    ``lsn - 1``), so a reader can decode any record later.  With
    ``decode`` the payloads are decoded in the same pass into
    ``report.records``; only a decoding walk reads a format-1 segment.

    Raises :class:`LogCorruptionError` on a bad segment header, on a CRC
    failure that is *not* at the tail (mid-log corruption), on an LSN
    discontinuity and on a CRC-valid frame that does not decode (with
    ``decode``; without it only the head is read, so the payload is
    checked when it is first decoded).  The error always names the
    first bad frame and carries the records decoded before it: a walk
    without ``decode`` that finds a problem walks again decoding.
    """
    codes = bytearray()
    txn_ids = array("q")
    head = bytes(image[:SEGMENT_HEADER_SIZE])
    version = SEGMENT_VERSION if head == SEGMENT_HEADER else \
        1 if decode and head == _V1_HEADER else None
    if version is None:
        if SEGMENT_HEADER.startswith(image):
            # Nothing was ever flushed, or a crash cut the very first
            # write inside the header.
            return SalvageReport([] if decode else None, b"", txn_ids, 0,
                                 torn=bool(image), tail_corrupt=False,
                                 dropped_bytes=len(image)), array("q", [0])
        raise LogCorruptionError(
            f"bad segment header {head!r} (expected {SEGMENT_HEADER!r}"
            + ("; segment format version 1 is read only by decode_segment"
               if head == _V1_HEADER else "") + ")",
            frame_index=-1, lsn=NULL_LSN, offset=0)
    records: Optional[List[LogRecord]] = [] if decode else None
    offsets = array("q")
    expected_lsn = NULL_LSN + 1
    pos = SEGMENT_HEADER_SIZE
    size = len(image)
    unpack = _FRAME_HEADER.unpack_from
    read_head = _HEAD.unpack_from
    crc32 = zlib.crc32
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
                    record = decode_record(bytes(payload), version)
                    code = RECORD_CODES[type(record)]
                    lsn, txn_id = record.lsn, record.txn_id
                else:
                    code, lsn, _prev_lsn, txn_id = read_head(payload)
                    _plan(code)
            except (FrameCodecError, struct.error) as exc:
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
        # No slice of the image may outlive the walk: a caller resizes
        # the buffer under it once the walk is over.
        payload = None
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
    decoding (format 2, or format 1 written before it).

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
