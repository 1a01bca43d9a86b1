"""A simulated disk the WAL actually writes frames to.

:class:`SimulatedDisk` models the only part of a storage stack the
paper's recovery story depends on: an append-only byte device with an
explicit durability barrier (``sync``) that can *misbehave* in the three
classic ways -- a torn write cutting the final flush mid-frame, a lying
fsync that loses the tail, and silent bit rot inside a synced frame.

The model is deliberately simple and deterministic:

* :meth:`append` stages bytes in the simulated page cache (the tail of
  the buffer past ``durable_size``);
* :meth:`sync` advances the durable horizon over everything staged --
  unless a :class:`~repro.faults.LostFlushFault` is armed on the
  ``disk.sync`` site, in which case the horizon stays frozen while the
  arming keeps firing (a later honest sync persists the cached bytes,
  exactly like a page cache that survived the lying fsync);
* :meth:`crash` is a simulated kill, applied to the disk's own buffer:
  the durable prefix survives, with any pending
  :class:`~repro.faults.TornWriteFault` tear (truncating the last synced
  write mid-frame) and :class:`~repro.faults.BitFlipFault` corruption
  (one inverted bit in a chosen frame's payload) applied;
  :meth:`crash_image` is the same on a copy.

Both ``disk.write`` and ``disk.sync`` are registered injection sites, so
the crash sweep also kills the system *inside* the flush path: bytes
staged but not synced must never count as durable.

Recovery goes through :meth:`repro.wal.log.LogManager.from_disk`, which
crashes the disk, salvages its bytes in place with one
:func:`repro.wal.frames.walk_segment` pass over a :meth:`view` and
:meth:`truncate`-s the disk to the salvaged prefix, so post-recovery
appends continue in the same segment and the segment is never copied.
A log with a disk reads the records it no longer holds as objects back
through :meth:`read`.
"""

from __future__ import annotations

import copy
import struct
from typing import List, Optional, Tuple

from repro.faults import (
    NULL_FAULTS,
    BitFlipFault,
    DiskFault,
    FaultInjector,
    LostFlushFault,
    TornWriteFault,
    register_site,
)
from repro.wal.frames import (
    FRAME_HEADER_SIZE,
    SEGMENT_HEADER,
    SEGMENT_HEADER_SIZE,
)

SITE_DISK_WRITE = register_site(
    "disk.write", "disk",
    "before frame bytes are staged in the disk's page cache")
SITE_DISK_SYNC = register_site(
    "disk.sync", "disk",
    "before staged bytes become durable (the fsync barrier)")


class SimulatedDisk:
    """Append-only byte device with an explicit durability barrier."""

    def __init__(self, faults: Optional[FaultInjector] = None) -> None:
        #: Everything ever written, durable or not (the OS page cache
        #: plus the platters).
        self._buffer = bytearray()
        #: Bytes guaranteed to survive a crash (advanced by honest syncs).
        self._durable_len = 0
        #: Byte length of the most recent write batch that reached
        #: durability -- the region a torn write may cut into.
        self._last_sync_len = 0
        #: Fault injector; the shared no-op singleton by default.
        self.faults = faults if faults is not None else NULL_FAULTS
        self._pending_tear: Optional[TornWriteFault] = None
        self._pending_flips: List[BitFlipFault] = []
        #: Total sync calls that were honoured / that lied (for reports).
        self.syncs = 0
        self.lost_syncs = 0

    # -- geometry ----------------------------------------------------------

    @property
    def size(self) -> int:
        """Bytes written (durable or staged)."""
        return len(self._buffer)

    @property
    def durable_size(self) -> int:
        """Bytes guaranteed to survive a crash."""
        return self._durable_len

    # -- the write path ----------------------------------------------------

    def append(self, data: bytes) -> None:
        """Stage ``data`` in the page cache (not yet durable)."""
        if not data:
            return
        self.faults.fire(SITE_DISK_WRITE, n=len(data), offset=self.size)
        self._buffer.extend(data)

    def sync(self) -> bool:
        """Durability barrier; returns ``True`` if the horizon advanced.

        A fired :class:`LostFlushFault` makes this a lying fsync: the
        call "succeeds" (no exception -- that is the point of the fault)
        but the durable horizon does not move.  Torn-write and bit-flip
        faults fired here are remembered and applied to the crash image.
        """
        fault = self.faults.fire(SITE_DISK_SYNC, staged=self.pending_bytes)
        if isinstance(fault, DiskFault):
            if isinstance(fault, LostFlushFault):
                self.lost_syncs += 1
                return False
            if isinstance(fault, TornWriteFault):
                self._pending_tear = fault
            elif isinstance(fault, BitFlipFault):
                self._pending_flips.append(fault)
        advanced = len(self._buffer) > self._durable_len
        if advanced:
            self._last_sync_len = len(self._buffer) - self._durable_len
            self._durable_len = len(self._buffer)
        self.syncs += 1
        return advanced

    def read(self, offset: int, length: int) -> bytes:
        """``length`` written bytes from ``offset``, durable or staged
        (the running process reads its own writes, lying fsync or not)."""
        return bytes(self._buffer[offset:offset + length])

    @property
    def pending_bytes(self) -> int:
        """Staged bytes not yet covered by an honest sync."""
        return len(self._buffer) - self._durable_len

    # -- what a crash leaves behind ----------------------------------------

    def crash(self) -> None:
        """A simulated kill, on this disk's own buffer: the staged bytes
        are lost and any pending tear and bit flips are applied to what
        was durable.  What remains is the crash image; all of it is
        durable, and no fault is pending."""
        image = self._buffer
        del image[self._durable_len:]
        if self._pending_tear is not None and image:
            cut = self._pending_tear.cut
            if cut is None:
                cut = max(1, self._last_sync_len // 2)
            # The tear stays inside the last synced write and never eats
            # the segment header.
            cut = min(cut, max(self._last_sync_len, 1),
                      max(len(image) - SEGMENT_HEADER_SIZE, 0))
            if cut:
                del image[len(image) - cut:]
        for flip in self._pending_flips:
            _apply_bit_flip(image, flip)
        self._durable_len = len(image)
        self._last_sync_len = 0
        self._pending_tear = None
        self._pending_flips = []

    def crash_image(self) -> bytearray:
        """The byte image a simulated kill would leave: :meth:`crash` of
        a copy of the durable bytes, this disk left as it is."""
        twin = copy.copy(self)
        twin._buffer = self._buffer[:self._durable_len]
        twin.crash()
        return twin._buffer

    def view(self) -> memoryview:
        """A read-only view of every written byte, no copy.  Release it
        (``with disk.view() as image:``) before the disk changes size."""
        return memoryview(self._buffer).toreadonly()

    # -- lifecycle ----------------------------------------------------------

    def reopen(self, image: bytes) -> None:
        """Rebase on a salvaged image (recovery continues the segment)."""
        self._buffer = bytearray(image)
        self._rebase()

    def truncate(self, length: int) -> None:
        """Rebase on this disk's own first ``length`` bytes, in place
        (recovery continues the segment); every view must be released."""
        del self._buffer[length:]
        self._rebase()

    def _rebase(self) -> None:
        self._durable_len = len(self._buffer)
        self._last_sync_len = 0
        self._pending_tear = None
        self._pending_flips = []
        self.faults = NULL_FAULTS


def _frame_regions(image: bytearray) -> List[Tuple[int, int]]:
    """``(payload_offset, payload_length)`` per structurally complete
    frame -- no CRC check (we are about to *break* a CRC on purpose)."""
    regions: List[Tuple[int, int]] = []
    if len(image) < SEGMENT_HEADER_SIZE or \
            bytes(image[:len(SEGMENT_HEADER)]) != SEGMENT_HEADER:
        return regions
    pos = SEGMENT_HEADER_SIZE
    while pos + FRAME_HEADER_SIZE <= len(image):
        (length,) = struct.unpack_from(">I", image, pos)
        start = pos + FRAME_HEADER_SIZE
        if start + length > len(image) or length == 0:
            break
        regions.append((start, length))
        pos = start + length
    return regions


def _apply_bit_flip(image: bytearray, flip: BitFlipFault) -> None:
    """Invert one payload bit of a chosen frame in ``image``."""
    regions = _frame_regions(image)
    if not regions:
        return
    index = flip.frame_index
    if index is None:
        # Prefer a non-final frame so the corruption is unambiguously
        # mid-log (quarantine, not tail truncation).
        index = len(regions) // 2 if len(regions) > 1 else 0
        if len(regions) > 1 and index == len(regions) - 1:
            index -= 1
    index = min(index, len(regions) - 1)
    start, length = regions[index]
    byte_index = (flip.bit // 8) % length
    image[start + byte_index] ^= 1 << (flip.bit % 8)
