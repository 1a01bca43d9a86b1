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
rebuilds a record ``==`` to the one appended, and nothing is dropped.

Both logs keep history in one form.  ``append`` encodes each record's
fields (a record no frame holds is refused there, before anything is
logged), a flush frames them into a checksummed segment
(:mod:`repro.wal.frames`), and below the tail the frame is the record,
read back through an LSN -> offset index: from the disk, which a durable
log writes and syncs at every flush before the horizon advances
(:meth:`LogManager.from_disk` rebuilds one from the salvaged flushed
prefix, decoding nothing), or from memory on a volatile log, the only
copy of history in the reproduced main-memory DBMS (its ``flush``
writes nothing; commit forces the log for API fidelity).  A segment is
never walked by the cyclic collector and costs ~87 bytes per record with
its offset, against ~400-500 for a record object, its dicts and its key.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.faults import NULL_FAULTS, FaultInjector, register_site
from repro.obs import NULL_METRICS, Metrics
from repro.wal.frames import (
    RECORD_CODES,
    SEGMENT_HEADER,
    FrameCodecError,
    append_frames,
    decode_frames,
    decode_segment,
    encode_fields,
    walk_segment,
)
from repro.wal.records import NULL_LSN, LogRecord

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
    Below the tail a record is its frame, on the disk or in the
    in-memory segment, and every read decodes it, returning a record
    ``==`` to the one appended.

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
        #: Payload bodies of the records appended since the last flush,
        #: encoded by ``append``; a flush frames them into the segment.
        self._bodies: List[bytes] = []
        #: The segment bytes not on a disk, from segment offset
        #: ``_frames_at`` on: a volatile log's whole segment; a durable
        #: log's frames not yet staged (none after a flush).
        self._frames = bytearray(SEGMENT_HEADER)
        self._frames_at = 0
        #: Segment offset of the frame of LSN ``FIRST_LSN + i``, then the
        #: end of the last frame.
        self._offsets = array("q", [len(SEGMENT_HEADER)])
        #: Readers that still need records as objects: each returns the
        #: lowest LSN it will read (``NULL_LSN`` when it reads nothing
        #: now).  Flushed records below every pin are released to their
        #: frames.  The engine pins its oldest active transaction's first
        #: LSN, a transformation its propagation cursor.
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

        The empty disk gets the segment header immediately (staged and
        synced -- creating the log file is not a user-visible durability
        event, so no injection site is crossed for it).  Attaching a
        disk mid-life is allowed: the next flush writes the in-memory
        frames, as they are, from the log head up to the flush target.

        Log and disk always share one injector afterwards.  A disk that
        arrives with its own enabled injector keeps it (the log adopts
        it) rather than having it silently replaced by the log's no-op
        default; otherwise the log's injector propagates down.

        A log has at most one disk, and it starts empty: the frame
        offsets are the segment's (:meth:`from_disk` reopens a written
        one).
        """
        if self._disk is not None:
            raise ValueError("log already writes to a disk")
        if disk.size:
            raise ValueError(
                f"disk holds {disk.size} bytes: a log writes its segment "
                f"to an empty disk (LogManager.from_disk reopens one)")
        self._disk = disk
        if disk.faults.enabled and not self._faults.enabled:
            self._faults = disk.faults
        disk.faults = self._faults
        disk.append(SEGMENT_HEADER)
        disk.sync()
        del self._frames[:len(SEGMENT_HEADER)]
        self._frames_at = disk.size

    @classmethod
    def from_disk(cls, disk: "SimulatedDisk",
                  metrics: Optional[Metrics] = None,
                  flush_policy: Optional[FlushPolicy] = None
                  ) -> "LogManager":
        """Rebuild a log from the disk's crash image (salvage recovery).

        The disk is :meth:`~repro.wal.durable.SimulatedDisk.crash`-ed
        (its staged bytes lost, a pending tear or bit flip applied) and
        what remains is salvaged in place, never copied, with one
        :func:`repro.wal.frames.walk_segment` pass: a torn tail is
        truncated; mid-log corruption, or a segment of another format
        version, raises
        :class:`~repro.common.errors.LogCorruptionError` (the log is
        quarantined, nothing is applied).  The returned manager holds
        exactly the salvaged **flushed prefix** -- the records the
        pre-crash system never flushed are gone, as they would be on
        real hardware -- with ``flushed_lsn == end_lsn``, and the disk
        is truncated to the salvaged prefix so post-recovery appends
        continue the same segment.  No record is decoded here: each is
        read back from its frame when asked for, and a CRC-valid frame
        that does not decode raises the same ``LogCorruptionError``
        then.
        """
        disk.crash()
        with disk.view() as image:
            salvage, offsets = walk_segment(image)
        log = cls(metrics=metrics, flush_policy=flush_policy)
        log._base = log._tail_lsn = FIRST_LSN + salvage.count
        log._flushed_lsn = log.end_lsn
        log.salvage = salvage
        if salvage.byte_length:
            disk.truncate(salvage.byte_length)
        else:
            # Nothing salvaged, not even the header: the segment restarts.
            disk.reopen(SEGMENT_HEADER)
        log._disk = disk
        log._offsets = offsets if salvage.byte_length else \
            array("q", [disk.size])
        log._frames = bytearray()
        log._frames_at = disk.size
        return log

    def _write_frames(self, up_to_lsn: int) -> None:
        """Frame the payloads of the records up to ``up_to_lsn``, stage +
        sync the frames not yet on the disk, then release the objects no
        pin reads (without a disk: frame and release)."""
        offsets, bodies = self._offsets, self._bodies
        framed = len(offsets) - 1     # LSNs FIRST_LSN .. FIRST_LSN + framed - 1
        count = up_to_lsn + 1 - FIRST_LSN - framed
        if count > 0:
            first = FIRST_LSN + framed - self._base
            offsets.extend(append_frames(
                self._frames, self._records[first:first + count],
                bodies[:count], self._frames_at))
            del bodies[:count]
        disk, data = self._disk, self._frames
        if disk is not None and data:
            disk.append(data)
            self._frames_at += len(data)
            self._frames = bytearray()
            disk.sync()
            if self.metrics.enabled:
                self.metrics.inc("wal.disk.bytes", len(data))
        self._release(up_to_lsn)

    def _release(self, written: int) -> None:
        """Drop the objects of the records up to ``written`` below every
        pin.

        Released entries become ``None``; the list sheds its released
        prefix once that is at least half of it, so a release costs
        amortised O(1) per record.
        """
        keep = written + 1
        tail = self._tail_lsn
        if keep <= tail:
            return
        for pin in self.pins:
            lsn = pin()
            if NULL_LSN < lsn < keep:
                keep = lsn
        if keep <= tail:
            return
        records, base = self._records, self._base
        released = keep - base
        if released * 2 >= len(records):
            del records[:released]
            self._base = keep
        else:
            records[tail - base:released] = [None] * (keep - tail)
        self._tail_lsn = keep

    def _decoded(self, lo: int, hi: int) -> List[LogRecord]:
        """Records ``lo..hi`` (all below the tail) read back from their
        frames.  A frame that does not decode is corruption, reported as
        salvage reports it."""
        start = self._offsets[lo - FIRST_LSN]
        end = self._offsets[hi + 1 - FIRST_LSN]
        at, disk = self._frames_at, self._disk
        data = self._frames[start - at:end - at] if start >= at \
            else disk.read(start, end - start)
        try:
            return decode_frames(data)
        except FrameCodecError:
            if disk is not None:
                decode_segment(disk.read(0, disk.size))
            raise

    # -- append ------------------------------------------------------------

    def append(self, record: LogRecord, prev_lsn: int = NULL_LSN) -> int:
        """Append ``record``, assigning its LSN; return the new LSN.

        The record's fields are encoded here, and they are what every
        read below the tail returns, so it must not change afterwards.
        One that cannot be encoded (a value outside what
        :mod:`repro.wal.frames` writes) raises
        :class:`~repro.wal.frames.FrameCodecError` and is not logged.

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
        self._bodies.append(encode_fields(record))
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
        empty batch is a no-op; a batch with a record that cannot be
        encoded is not logged at all.

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
        self._bodies.extend([encode_fields(record) for record in records])
        base = self._base + len(self._records)
        lsns = list(range(base, base + len(records)))
        for i, record in enumerate(records):
            record.lsn = base + i
            record.prev_lsn = prev_lsns[i] if prev_lsns is not None \
                else NULL_LSN
        self._records.extend(records)
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
        are read back from their frames."""
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

    #: Records a :meth:`scan` reads per step (one list slice or one
    #: decoded run of frames).
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
