"""Append-only log manager.

The log is the single communication channel between user transactions and
the transformation framework: the framework never installs triggers or
touches user transactions; it only *reads the log* (the paper's central
design point, Section 1).  The manager therefore exposes, besides append,
cheap sequential scans starting from an arbitrary LSN.

A record stays an object only while a reader may still need it as one:
until it is flushed, and while it is at or above a pin
(:attr:`LogManager.pins` -- the oldest active transaction's undo chain,
every live transformation's cursor).  Below that tail every read
rebuilds a record ``==`` to the one appended, and nothing is dropped:

* With a :class:`~repro.wal.durable.SimulatedDisk` attached, every
  flush *writes*: the unflushed records are serialized into checksummed
  frames (:mod:`repro.wal.frames`), staged on the disk and synced before
  the durability horizon advances.  From then on the frame is the
  record, read back through an LSN -> offset index.
  :meth:`LogManager.from_disk` rebuilds a log from the salvaged flushed
  prefix after a crash without decoding it.
* Without a disk the log is the only copy of history (the reproduced
  prototype is a main-memory DBMS) and ``flush`` writes nothing -- it is
  tracked for API fidelity, commit forces the log.  Released records
  become *cold chunks*: :attr:`LogManager.SCAN_CHUNK` consecutive
  records as one :mod:`marshal`-ed list of flat tuples ``(kind,
  prev_lsn, txn_id, *FIELDS)`` (a CLR's action nested as ``(lsn,
  flat)``).  A ``bytes`` object is never tracked by the cyclic
  collector and costs ~75 bytes per record instead of ~400-500 for the
  record, its dicts and its key.  The few records ``marshal`` cannot
  hold -- DDL and swap records carrying schemas and specs -- stay
  objects in a side map.  Frames would give both logs one codec, but
  :func:`~repro.wal.frames.encode_record` costs ~9x a flat tuple plus
  ``marshal`` (9-10 us against ~1 us per update record, CPython 3.11 on
  a 2-core x86 box), and the volatile log's release runs inside user
  commits.
"""

from __future__ import annotations

import marshal
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from operator import attrgetter
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from repro.faults import NULL_FAULTS, FaultInjector, register_site
from repro.obs import NULL_METRICS, Metrics
from repro.wal.frames import (
    RECORD_CODES,
    SEGMENT_HEADER,
    FrameCodecError,
    append_frame,
    decode_frames,
    decode_segment,
    walk_segment,
)
from repro.wal.records import NULL_LSN, CLRecord, LogRecord

#: First LSN ever assigned.  LSN 0 is reserved as the null LSN.
FIRST_LSN = 1

SITE_WAL_APPEND = register_site(
    "wal.append", "wal", "before a record is assigned an LSN and stored")
SITE_WAL_APPEND_DONE = register_site(
    "wal.append.done", "wal", "after a record is stored, before observers")
SITE_WAL_FLUSH = register_site(
    "wal.flush", "wal", "before the durability horizon advances")
SITE_WAL_APPEND_BATCH = register_site(
    "wal.append_batch", "wal",
    "before a batch of records is assigned LSNs and stored")
SITE_WAL_APPEND_BATCH_DONE = register_site(
    "wal.append_batch.done", "wal",
    "after a batch is stored, before observers see its records")
SITE_WAL_GROUP_FLUSH = register_site(
    "wal.group_flush", "wal",
    "before a coalesced (group-commit) flush advances the horizon")


def _flat_clr(record: CLRecord) -> Optional[tuple]:
    """A CLR's flat tuple: its action nested as ``(lsn, flat)``."""
    action = record.action
    if action is not None:
        inner = _flat(action)
        if inner is None:
            return None
        action = (action.lsn, inner)
    return ("cl", record.prev_lsn, record.txn_id, action,
            record.undo_next_lsn)


#: Record class -> its flattener: ``(kind, prev_lsn, txn_id, *FIELDS)``
#: in one C call (a CLR nests its action as ``(lsn, flat)``).  The kind
#: names the class as its frame code does, and costs a cold chunk as
#: little: ``marshal`` writes a repeated object as a back-reference.
_FLATTEN: Dict[type, Callable[[LogRecord], Optional[tuple]]] = {
    cls: attrgetter("kind", "prev_lsn", "txn_id", *cls.FIELDS)
    for cls in RECORD_CODES}
_FLATTEN[CLRecord] = _flat_clr
_CLASS_OF = {cls.kind: cls for cls in RECORD_CODES}


def _flat(record: LogRecord) -> Optional[tuple]:
    """The flat tuple of ``record``, or ``None`` for a class without a
    record code (or a CLR whose action has none)."""
    flatten = _FLATTEN.get(record.__class__)
    return None if flatten is None else flatten(record)


def _marshals(flat: Optional[tuple]) -> bool:
    """Whether ``marshal`` holds ``flat`` (a record's payload may carry a
    schema, a spec or another value only the frame codec knows)."""
    if flat is None:
        return False
    try:
        marshal.dumps(flat)
    except ValueError:
        return False
    return True


def _inflate(flat: tuple, lsn: int) -> LogRecord:
    """The record of a :func:`_flat` tuple, with LSN ``lsn``."""
    cls = _CLASS_OF[flat[0]]
    if cls is CLRecord and flat[3] is not None:
        record = CLRecord(flat[2], _inflate(flat[3][1], flat[3][0]), flat[4])
    else:
        record = cls(flat[2], *flat[3:])
    record.lsn, record.prev_lsn = lsn, flat[1]
    return record


@dataclass(frozen=True)
class FlushPolicy:
    """Group-commit knobs: when a requested flush may be deferred.

    A *flush request* (``LogManager.request_flush``) is what commit and
    abort issue.  With the default policy every request flushes
    immediately -- byte-identical to the pre-group-commit behaviour.  A
    policy with larger thresholds lets requests coalesce: the durability
    horizon only advances once either threshold trips (or on an explicit
    ``flush``/drain), so N commits share one flush -- classic group
    commit.  Physically flushes are no-ops in this main-memory system, so
    deferral is recovery-neutral: the surviving log is identical.

    Attributes:
        max_pending_requests: Count threshold -- a real flush is forced
            once this many requests have coalesced.
        max_pending_records: Size threshold -- a real flush is forced
            once the unflushed log tail reaches this many records.
    """

    max_pending_requests: int = 1
    max_pending_records: int = 1

    def __post_init__(self) -> None:
        if self.max_pending_requests < 1:
            raise ValueError(
                f"max_pending_requests must be >= 1: "
                f"{self.max_pending_requests}")
        if self.max_pending_records < 1:
            raise ValueError(
                f"max_pending_records must be >= 1: "
                f"{self.max_pending_records}")

    @property
    def immediate(self) -> bool:
        """True when every request flushes at once (no coalescing)."""
        return self.max_pending_requests <= 1 and \
            self.max_pending_records <= 1


#: The default, non-coalescing policy: every flush request flushes.
IMMEDIATE_FLUSH = FlushPolicy()

#: A reasonable group-commit policy for batched runs.
GROUP_FLUSH = FlushPolicy(max_pending_requests=8, max_pending_records=64)


class LogManager:
    """Monotonic, append-only sequence of :class:`LogRecord` objects.

    LSNs are dense integers starting at :data:`FIRST_LSN`.  The objects
    of the tail (from :attr:`tail_lsn`) live in a list at index ``n -
    base``, so ``record_at`` is O(1) and a range read is one list slice.
    Below the tail a record is its written frame (with a disk) or part
    of a cold chunk (without one), and every read decodes it, returning
    a record ``==`` to the one appended.

    All reading APIs share one LSN contract: negative LSNs are rejected
    with :class:`ValueError` (they can only come from arithmetic bugs);
    ``NULL_LSN`` (0) and LSNs past the end are in-range for *bounds* (they
    clamp / yield nothing) but not for point lookups (``record_at``
    raises :class:`IndexError`).
    """

    def __init__(self, metrics: Optional[Metrics] = None,
                 faults: Optional[FaultInjector] = None,
                 flush_policy: Optional[FlushPolicy] = None,
                 disk: Optional["SimulatedDisk"] = None) -> None:
        #: The object tail: ``_records[i]`` has LSN ``_base + i``; the
        #: entries below :attr:`tail_lsn` are released (``None``) until
        #: the list is compacted.
        self._records: List[Optional[LogRecord]] = []
        self._base = FIRST_LSN
        self._tail_lsn = FIRST_LSN
        #: Byte offset on the disk of the frame of LSN ``FIRST_LSN + i``,
        #: then the end of the last written frame (empty without a disk).
        self._offsets = array("q")
        #: Cold chunks of a volatile log: ``_chunks[i]`` holds the
        #: records from LSN ``FIRST_LSN + i * SCAN_CHUNK`` on, marshalled;
        #: the ones ``marshal`` cannot hold are ``None`` there and
        #: objects in ``_parked`` by LSN.
        self._chunks: List[bytes] = []
        self._parked: Dict[int, LogRecord] = {}
        #: Readers that still need records as objects: each returns the
        #: lowest LSN it will read (``NULL_LSN`` when it reads nothing
        #: now).  Flushed records below every pin are released to their
        #: frames or cold chunks.  The engine pins its oldest active
        #: transaction's first LSN, a transformation its propagation
        #: cursor.
        self.pins: List[Callable[[], int]] = []
        self._flushed_lsn = NULL_LSN
        #: Group-commit policy applied by :meth:`request_flush`.
        self.flush_policy = flush_policy if flush_policy is not None \
            else IMMEDIATE_FLUSH
        self._pending_requests = 0
        self._pending_target = NULL_LSN
        self._coalesce_depth = 0
        #: Observability registry (``wal.appends``, ``wal.flushes``,
        #: ``wal.tail_depth``); the shared no-op singleton by default.
        self.metrics = metrics if metrics is not None else NULL_METRICS
        #: Simulated stable storage; ``None`` keeps flush a physical no-op.
        self._disk: Optional["SimulatedDisk"] = None
        #: Highest LSN whose frame has been staged on the disk (so a
        #: retried flush after a failed sync does not double-append).
        self._disk_staged_lsn = NULL_LSN
        #: :class:`~repro.wal.frames.SalvageReport` when this manager was
        #: rebuilt by :meth:`from_disk`; ``None`` for a fresh log.
        self.salvage: Optional["SalvageReport"] = None
        #: Fault injector; the shared no-op singleton by default.  The
        #: setter propagates the injector to the attached disk, so
        #: ``log.faults = injector`` arms the disk sites too.
        self.faults = faults if faults is not None else NULL_FAULTS
        #: Observers called synchronously with each appended record.  Used
        #: by tests and by the simulator's accounting; the transformation
        #: framework deliberately does NOT use observers -- it polls the log
        #: like the paper's propagator.
        self.observers: List[Callable[[LogRecord], None]] = []
        if disk is not None:
            self.attach_disk(disk)

    # -- durable storage ----------------------------------------------------

    @property
    def faults(self) -> FaultInjector:
        """Fault injector shared with the attached disk (if any)."""
        return self._faults

    @faults.setter
    def faults(self, injector: FaultInjector) -> None:
        self._faults = injector
        if self._disk is not None:
            self._disk.faults = injector

    @property
    def disk(self) -> Optional["SimulatedDisk"]:
        """The attached simulated disk, or ``None`` (volatile log)."""
        return self._disk

    def attach_disk(self, disk: "SimulatedDisk") -> None:
        """Write flushed frames to ``disk`` from now on.

        An empty disk gets the segment header immediately (staged and
        synced -- creating the log file is not a user-visible durability
        event, so no injection site is crossed for it).  Attaching a
        disk mid-life is allowed: the next flush writes every record
        from the log head up to the flush target.

        Log and disk always share one injector afterwards.  A disk that
        arrives with its own enabled injector keeps it (the log adopts
        it) rather than having it silently replaced by the log's no-op
        default; otherwise the log's injector propagates down.

        A log has at most one disk: its frame offsets (and the records
        it no longer holds as objects) live on that one.  Cold chunks
        made before the disk arrived stay the copy of their records.
        """
        if self._disk is not None:
            raise ValueError("log already writes to a disk")
        self._disk = disk
        if disk.faults.enabled and not self._faults.enabled:
            self._faults = disk.faults
        disk.faults = self._faults
        if disk.size == 0:
            disk.append(SEGMENT_HEADER)
            disk.sync()
        self._offsets = array("q", [disk.size])

    @classmethod
    def from_disk(cls, disk: "SimulatedDisk",
                  metrics: Optional[Metrics] = None,
                  flush_policy: Optional[FlushPolicy] = None
                  ) -> "LogManager":
        """Rebuild a log from the disk's crash image (salvage recovery).

        The image is salvaged with one
        :func:`repro.wal.frames.walk_segment` pass: a torn tail is
        truncated; mid-log corruption raises
        :class:`~repro.common.errors.LogCorruptionError` (the log is
        quarantined, nothing is applied).  The returned manager holds
        exactly the salvaged **flushed prefix** -- the records the
        pre-crash system never flushed are gone, as they would be on
        real hardware -- with ``flushed_lsn == end_lsn``, and the disk
        is rebased on the salvaged image so post-recovery appends
        continue the same segment.  No record is decoded here: each is
        read back from its frame when asked for, and a CRC-valid frame
        that does not decode raises the same ``LogCorruptionError``
        then.
        """
        image = disk.crash_image()
        salvage, offsets = walk_segment(image)
        log = cls(metrics=metrics, flush_policy=flush_policy)
        log._base = log._tail_lsn = FIRST_LSN + salvage.count
        log._flushed_lsn = log._disk_staged_lsn = log.end_lsn
        log.salvage = salvage
        disk.reopen(image[:salvage.byte_length])
        log._disk = disk
        if disk.size == 0:
            disk.append(SEGMENT_HEADER)
            disk.sync()
            offsets = array("q", [disk.size])
        log._offsets = offsets
        return log

    def _write_frames(self, up_to_lsn: int) -> None:
        """Stage + sync frames for records up to ``up_to_lsn``, then
        release the objects no pin reads (without a disk: release them
        into cold chunks)."""
        if self._disk is None:
            self._release(up_to_lsn)
            return
        if up_to_lsn <= self._disk_staged_lsn:
            return
        buf = bytearray()
        at = self._disk.size
        ends = []
        for record in self.records_slice(self._disk_staged_lsn + 1,
                                         up_to_lsn):
            append_frame(buf, record)
            ends.append(at + len(buf))
        self._disk.append(bytes(buf))
        self._offsets.extend(ends)
        self._disk_staged_lsn = up_to_lsn
        self._disk.sync()
        if self.metrics.enabled:
            self.metrics.inc("wal.disk.bytes", len(buf))
        self._release(up_to_lsn)

    def _release(self, written: int) -> None:
        """Drop the objects of the records up to ``written`` below every
        pin; a volatile log first packs them into cold chunks, whole
        chunks only, so its tail stays on a chunk boundary.

        Released entries become ``None``; the list sheds its released
        prefix once that is at least half of it, so a release costs
        amortised O(1) per record.
        """
        step = 1 if self._disk is not None else self.SCAN_CHUNK
        keep = written + 1
        keep -= (keep - FIRST_LSN) % step
        tail = self._tail_lsn
        if keep <= tail:
            return
        for pin in self.pins:
            lsn = pin()
            if NULL_LSN < lsn < keep:
                keep = lsn
        keep -= (keep - FIRST_LSN) % step
        if keep <= tail:
            return
        records, base = self._records, self._base
        if step > 1:
            self._freeze(records[tail - base:keep - base], tail)
        released = keep - base
        if released * 2 >= len(records):
            del records[:released]
            self._base = keep
        else:
            records[tail - base:released] = [None] * (keep - tail)
        self._tail_lsn = keep

    def _freeze(self, records: List[LogRecord], lsn: int) -> None:
        """Pack ``records`` (whole chunks, the first at ``lsn``) into cold
        chunks, parking the ones ``marshal`` cannot hold."""
        size, flatten = self.SCAN_CHUNK, _FLATTEN.get
        for start in range(0, len(records), size):
            chunk = records[start:start + size]
            # One C call per record; _flat sees only the unknown classes.
            flats = [flatten(record.__class__, _flat)(record)
                     for record in chunk]
            try:
                data = marshal.dumps(flats)
            except ValueError:
                flats = [flat if _marshals(flat) else None for flat in flats]
                data = marshal.dumps(flats)
            self._chunks.append(data)
            if None in flats:
                for at, flat in enumerate(flats):
                    if flat is None:
                        self._parked[lsn + start + at] = chunk[at]

    def _thawed(self, lo: int, hi: int) -> List[LogRecord]:
        """Records ``lo..hi`` (all below the tail) rebuilt from their
        cold chunks."""
        size, parked = self.SCAN_CHUNK, self._parked
        out: List[LogRecord] = []
        index = (lo - FIRST_LSN) // size
        lsn = FIRST_LSN + index * size
        while lsn <= hi:
            flats = marshal.loads(self._chunks[index])
            first = max(lo - lsn, 0)
            for at, flat in enumerate(flats[first:hi + 1 - lsn], lsn + first):
                out.append(parked[at] if flat is None else _inflate(flat, at))
            index += 1
            lsn += size
        return out

    def _decoded(self, lo: int, hi: int) -> List[LogRecord]:
        """Records ``lo..hi`` (all below the tail) read back from their
        cold chunks or frames.  A frame that does not decode is
        corruption, reported as salvage reports it."""
        cold = FIRST_LSN + len(self._chunks) * self.SCAN_CHUNK
        if lo < cold:
            thawed = self._thawed(lo, min(hi, cold - 1))
            return thawed if hi < cold else \
                thawed + self._decoded(cold, hi)
        offsets, disk = self._offsets, self._disk
        start = offsets[lo - FIRST_LSN]
        data = disk.read(start, offsets[hi + 1 - FIRST_LSN] - start)
        try:
            return decode_frames(data)
        except FrameCodecError:
            decode_segment(disk.read(0, disk.size))
            raise

    # -- append ------------------------------------------------------------

    def append(self, record: LogRecord, prev_lsn: int = NULL_LSN) -> int:
        """Append ``record``, assigning its LSN; return the new LSN.

        Args:
            record: The record to append.  Its ``lsn`` must be unassigned.
            prev_lsn: Back-chain pointer to the owning transaction's
                previous record (``NULL_LSN`` if none).
        """
        if record.lsn != NULL_LSN:
            raise ValueError(f"record already appended: lsn={record.lsn}")
        faults = self._faults
        if faults.enabled:
            faults.fire(SITE_WAL_APPEND, kind=record.kind)
        record.lsn = self._base + len(self._records)
        record.prev_lsn = prev_lsn
        self._records.append(record)
        if faults.enabled:
            faults.fire(SITE_WAL_APPEND_DONE, kind=record.kind,
                        lsn=record.lsn)
        if self.metrics.enabled:
            self.metrics.inc("wal.appends")
        for observer in self.observers:
            observer(record)
        return record.lsn

    def append_batch(self, records: Sequence[LogRecord],
                     prev_lsns: Optional[Sequence[int]] = None) -> List[int]:
        """Append ``records`` contiguously; return their new LSNs.

        The batch is assigned a dense LSN range in order, exactly as if
        each record had been :meth:`append`-ed individually -- same LSNs,
        same back-chains, same observer calls -- but the fault sites and
        the per-record bookkeeping are amortized over the batch.  An
        empty batch is a no-op.

        Args:
            records: Records to append; each ``lsn`` must be unassigned.
            prev_lsns: Optional parallel sequence of back-chain pointers
                (``NULL_LSN`` entries for records with no predecessor).
                Defaults to ``NULL_LSN`` for every record.
        """
        if not records:
            return []
        if prev_lsns is not None and len(prev_lsns) != len(records):
            raise ValueError(
                f"prev_lsns length {len(prev_lsns)} != "
                f"records length {len(records)}")
        for record in records:
            if record.lsn != NULL_LSN:
                raise ValueError(
                    f"record already appended: lsn={record.lsn}")
        faults = self._faults
        if faults.enabled:
            faults.fire(SITE_WAL_APPEND_BATCH, n=len(records),
                        kind=records[0].kind)
        lsns: List[int] = []
        base = self._base + len(self._records)
        for i, record in enumerate(records):
            record.lsn = base + i
            record.prev_lsn = prev_lsns[i] if prev_lsns is not None \
                else NULL_LSN
            self._records.append(record)
            lsns.append(record.lsn)
        if faults.enabled:
            faults.fire(SITE_WAL_APPEND_BATCH_DONE, n=len(records),
                        last_lsn=lsns[-1])
        if self.metrics.enabled:
            self.metrics.inc("wal.appends", len(records))
            self.metrics.inc("wal.append_batches")
            self.metrics.observe("wal.batch_size", len(records))
        for record in records:
            for observer in self.observers:
                observer(record)
        return lsns

    def flush(self, up_to_lsn: Optional[int] = None) -> None:
        """Force the log up to ``up_to_lsn`` (default: everything).

        ``flushed_lsn`` is monotonic: a flush bounded below the current
        flushed position (a latecomer whose records a group flush already
        covered) is a no-op rather than moving the durability horizon
        backwards.  With a disk attached, the unflushed records are
        framed, staged and synced *before* the horizon advances, so a
        crash inside the write path leaves ``flushed_lsn`` honest.
        """
        if up_to_lsn is not None and up_to_lsn < 0:
            raise ValueError(f"negative lsn: {up_to_lsn}")
        self.faults.fire(SITE_WAL_FLUSH, up_to_lsn=up_to_lsn)
        target = self.end_lsn if up_to_lsn is None \
            else min(up_to_lsn, self.end_lsn)
        if self.metrics.enabled:
            self.metrics.inc("wal.flushes")
            self.metrics.observe("wal.tail_depth",
                                 max(0, self.end_lsn - self._flushed_lsn))
        self._write_frames(target)
        self._flushed_lsn = max(self._flushed_lsn, target)
        if self._flushed_lsn >= self._pending_target:
            self._pending_requests = 0
            self._pending_target = NULL_LSN

    def request_flush(self, up_to_lsn: Optional[int] = None) -> bool:
        """Policy-aware flush: coalesce with neighbours when allowed.

        This is the group-commit entry point commit/abort use.  With the
        default :data:`IMMEDIATE_FLUSH` policy (and outside any
        :meth:`coalescing` window) it degenerates to :meth:`flush` --
        identical behaviour, identical counters.  Under a coalescing
        policy the request only records the desired horizon; a real flush
        happens once either threshold trips.  Returns ``True`` iff a real
        flush happened.
        """
        if up_to_lsn is not None and up_to_lsn < 0:
            raise ValueError(f"negative lsn: {up_to_lsn}")
        target = self.end_lsn if up_to_lsn is None \
            else min(up_to_lsn, self.end_lsn)
        self._pending_requests += 1
        self._pending_target = max(self._pending_target, target)
        if self._coalesce_depth > 0:
            return False
        policy = self.flush_policy
        if policy.immediate \
                or self._pending_requests >= policy.max_pending_requests \
                or (self.end_lsn - self._flushed_lsn
                    >= policy.max_pending_records):
            self._group_flush()
            return True
        self.metrics.inc("wal.flushes.deferred")
        return False

    def drain_flushes(self) -> None:
        """Force any deferred flush requests to complete now."""
        if self._pending_target > self._flushed_lsn:
            self._group_flush()
        else:
            self._pending_requests = 0
            self._pending_target = NULL_LSN

    def _group_flush(self) -> None:
        coalesced = self._pending_requests
        self.faults.fire(SITE_WAL_GROUP_FLUSH, coalesced=coalesced)
        if self.metrics.enabled and coalesced > 1:
            self.metrics.observe("wal.group_flush.coalesced", coalesced)
        self.flush(self._pending_target if self._pending_target else None)

    @contextmanager
    def coalescing(self) -> Iterator[None]:
        """Defer all flush requests until the window closes.

        Used around latched windows (synchronization dooming a batch of
        old transactions aborts each one, and each abort requests a
        flush): inside the window requests only accumulate; one group
        flush covering the highest requested horizon runs on exit.
        Reentrant -- only the outermost window drains.
        """
        self._coalesce_depth += 1
        try:
            yield
        finally:
            self._coalesce_depth -= 1
            if self._coalesce_depth == 0:
                self.drain_flushes()

    # -- positions ----------------------------------------------------------

    @property
    def end_lsn(self) -> int:
        """LSN of the most recently appended record (``NULL_LSN`` if empty)."""
        return self._base + len(self._records) - 1

    @property
    def next_lsn(self) -> int:
        """LSN that the next appended record will receive."""
        return self._base + len(self._records)

    @property
    def flushed_lsn(self) -> int:
        """Highest LSN known to be on stable storage."""
        return self._flushed_lsn

    @property
    def tail_lsn(self) -> int:
        """First LSN the log holds as an object; the records below it
        are read back from their frames or cold chunks."""
        return self._tail_lsn

    def __len__(self) -> int:
        return self._base + len(self._records) - FIRST_LSN

    # -- reading ------------------------------------------------------------

    def record_at(self, lsn: int) -> LogRecord:
        """Return the record with the given LSN.

        Raises :class:`ValueError` for negative LSNs (arithmetic bugs)
        and :class:`IndexError` for in-domain LSNs with no record
        (``NULL_LSN``, or past the end of the log).
        """
        if lsn < 0:
            raise ValueError(f"negative lsn: {lsn}")
        if lsn >= self._tail_lsn:
            index = lsn - self._base
            if index < len(self._records):
                return self._records[index]
        elif lsn >= FIRST_LSN:
            return self._decoded(lsn, lsn)[0]
        raise IndexError(f"no log record with lsn {lsn}")

    #: Records a :meth:`scan` reads per step (one list slice, one
    #: decoded run of frames or one cold chunk), and the records of a
    #: cold chunk.
    SCAN_CHUNK = 128

    def scan(self, from_lsn: int = FIRST_LSN,
             to_lsn: Optional[int] = None) -> Iterator[LogRecord]:
        """Yield records with ``from_lsn <= lsn <= to_lsn`` in LSN order.

        ``to_lsn`` defaults to the current end of the log, *fixed at call
        time*: records appended while the caller iterates are not included,
        which is exactly the bounded-cycle behaviour a log-propagation
        iteration needs.  The snapshot really is taken when :meth:`scan`
        is *called*, not when iteration starts -- a generator body would
        only read ``end_lsn`` at the first ``next()``, silently widening
        the window for callers that append between creating the iterator
        and draining it.  Records below the tail are decoded
        :attr:`SCAN_CHUNK` at a time (steps end on chunk boundaries), so
        a scan holds no more than that many decoded objects at once.

        Boundary contract: scanning an empty log yields nothing;
        ``from_lsn`` below :data:`FIRST_LSN` starts at the log head;
        ``from_lsn > end_lsn`` yields nothing; ``to_lsn`` beyond the end
        clamps to the end.  Negative bounds raise :class:`ValueError`.
        """
        if from_lsn < 0:
            raise ValueError(f"negative lsn: {from_lsn}")
        if to_lsn is not None and to_lsn < 0:
            raise ValueError(f"negative lsn: {to_lsn}")
        end = self.end_lsn if to_lsn is None else min(to_lsn, self.end_lsn)

        def _iterate(lsn: int) -> Iterator[LogRecord]:
            size = self.SCAN_CHUNK
            while lsn <= end:
                hi = min(end, lsn + size - 1 - (lsn - FIRST_LSN) % size)
                yield from self.records_slice(lsn, hi)
                lsn = hi + 1

        return _iterate(max(from_lsn, FIRST_LSN))

    def records_slice(self, from_lsn: int,
                      to_lsn: int) -> List[LogRecord]:
        """Records in the closed LSN interval, as a list.

        The batch-propagation fetch path: one C-level list slice of the
        object tail instead of per-record :meth:`record_at` calls (plus
        the decoded part below the tail).  Bounds follow the
        :meth:`scan` contract (clamping, :class:`ValueError` on negative
        LSNs); the returned list is a copy, safe against later appends.
        """
        if from_lsn < 0 or to_lsn < 0:
            raise ValueError(f"negative lsn: {min(from_lsn, to_lsn)}")
        tail, base = self._tail_lsn, self._base
        objects = self._records[max(from_lsn, tail) - base:
                                max(to_lsn + 1 - base, 0)]
        if from_lsn >= tail:
            return objects
        lo, hi = max(from_lsn, FIRST_LSN), min(to_lsn, tail - 1)
        return self._decoded(lo, hi) + objects if lo <= hi else objects

    def headers(self) -> Tuple[bytes, Sequence[int]]:
        """Record code and transaction id of every record, each indexed
        by ``lsn - FIRST_LSN``: restart analysis reads these, not the
        records.  The salvaged prefix of a log from :meth:`from_disk`
        comes from the salvage walk's frame headers; only the records
        after it are read."""
        salvage = self.salvage
        codes = bytearray(salvage.codes if salvage is not None else b"")
        txn_ids = array("q", salvage.txn_ids if salvage is not None else ())
        for record in self.scan(FIRST_LSN + len(codes)):
            codes.append(RECORD_CODES[type(record)])
            txn_ids.append(record.txn_id)
        return bytes(codes), txn_ids

    def records_between(self, from_lsn: int, to_lsn: int) -> int:
        """Number of records in the closed LSN interval (for analysis).

        Bounds follow the class-level LSN contract: negative LSNs raise
        :class:`ValueError`; in-domain bounds clamp (an empty or inverted
        interval counts zero).
        """
        if from_lsn < 0 or to_lsn < 0:
            raise ValueError(f"negative lsn: {min(from_lsn, to_lsn)}")
        if to_lsn < from_lsn:
            return 0
        lo = max(FIRST_LSN, from_lsn)
        hi = min(self.end_lsn, to_lsn)
        return max(0, hi - lo + 1)

    def tail_length(self, after_lsn: int) -> int:
        """Number of records appended after ``after_lsn`` (analysis helper).

        Negative LSNs raise :class:`ValueError` per the class-level LSN
        contract; ``NULL_LSN`` counts the whole log.
        """
        if after_lsn < 0:
            raise ValueError(f"negative lsn: {after_lsn}")
        return max(0, self.end_lsn - after_lsn)

    def dump(self) -> str:
        """Multi-line human-readable rendering of the whole log."""
        return "\n".join(record.describe() for record in self.scan())
