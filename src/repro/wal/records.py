"""Typed log records for the write-ahead log.

The paper assumes an ARIES-style log [Mohan et al. 1992]: every record
carries a log sequence number (LSN), undo operations produce Compensating
Log Records (CLRs), and each transaction's records are back-chained through
``prev_lsn`` so rollback can walk the chain.

Beyond the classic record kinds (begin / commit / abort / insert / delete /
update / CLR / checkpoint), the transformation framework of the paper adds:

* **fuzzy marks** (Section 3.2/3.3) delimiting the fuzzy read and each log
  propagation cycle; the *begin* mark embeds the identifiers of all
  transactions active on the source tables, because propagation must start
  from the oldest record of any of them;
* **consistency-checker marks** (Section 5.3): ``Begin CC on v`` and
  ``CC: v is ok`` records bracketing a lock-free re-read of the source rows
  contributing to a suspect split record.

Records are plain frozen dataclasses.  ``lsn`` and ``prev_lsn`` are filled
in by :class:`repro.wal.log.LogManager` at append time; user code constructs
records with the payload fields only.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import ClassVar, Dict, Optional, Tuple

#: LSN value used before a record has been appended, and as "nil" prev_lsn.
NULL_LSN = 0


@dataclass
class LogRecord:
    """Base class of every log record.

    Attributes:
        lsn: Log sequence number, assigned monotonically at append time.
        prev_lsn: LSN of the previous record of the *same transaction*
            (``NULL_LSN`` for the first record of a transaction and for
            records not owned by any transaction, such as fuzzy marks).
        txn_id: Owning transaction id, or ``0`` for non-transactional
            records.
    """

    lsn: int = field(default=NULL_LSN, init=False)
    prev_lsn: int = field(default=NULL_LSN, init=False)
    txn_id: int = 0

    #: Short lowercase name of the record type, e.g. ``"insert"``;
    #: derived from the class name once, when the class is created.
    kind: ClassVar[str] = "log"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.kind = cls.__name__.replace("Record", "").lower()

    def describe(self) -> str:
        """One-line human-readable rendering used by debug dumps."""
        fields = dataclasses.asdict(self)
        fields.pop("lsn", None)
        fields.pop("prev_lsn", None)
        body = ", ".join(f"{k}={v!r}" for k, v in fields.items())
        return f"[{self.lsn}] {self.kind}({body}) prev={self.prev_lsn}"


# ---------------------------------------------------------------------------
# Transaction life-cycle records
# ---------------------------------------------------------------------------


@dataclass
class BeginRecord(LogRecord):
    """Transaction start."""


@dataclass
class CommitRecord(LogRecord):
    """Transaction committed; all of its locks may be released."""


@dataclass
class AbortRecord(LogRecord):
    """Transaction abort has *started*; rollback (CLRs) follows."""


@dataclass
class EndRecord(LogRecord):
    """Transaction fully finished (end record after commit or rollback).

    The log propagator of the transformation framework releases the
    mirrored locks of a transaction when it meets this record (the paper's
    "transaction aborted / committed log record"), because only then is the
    transaction's complete effect -- including compensations -- reflected in
    the transformed tables.

    Attributes:
        committed: ``True`` if the transaction committed, ``False`` if it
            was rolled back.
    """

    committed: bool = True


# ---------------------------------------------------------------------------
# Data-change records
# ---------------------------------------------------------------------------


@dataclass
class InsertRecord(LogRecord):
    """A row was inserted.  Carries the complete new row image.

    Attributes:
        table: Name of the table at the time of the operation.
        key: Primary-key tuple of the inserted row.
        values: Full attribute mapping of the new row (redo information;
            also sufficient for undo, which deletes by key).
    """

    table: str = ""
    key: Tuple = ()
    values: Dict = field(default_factory=dict)


@dataclass
class DeleteRecord(LogRecord):
    """A row was deleted.

    The paper notes that "the primary key of the record to delete is all
    the information needed" for redo; the old row image is retained as undo
    information (and is what a CLR re-inserts).

    Attributes:
        table: Name of the table.
        key: Primary-key tuple of the deleted row.
        old_values: Full attribute mapping of the row before deletion
            (undo information only -- propagation rules do not rely on it
            beyond what an index lookup could also provide).
    """

    table: str = ""
    key: Tuple = ()
    old_values: Dict = field(default_factory=dict)


@dataclass
class UpdateRecord(LogRecord):
    """A row was updated in place.

    Following the paper (Section 4.2, "Update Operations"), the redo part
    contains only the primary key and the *changed* attribute values; the
    old values of exactly those attributes are kept as undo information.
    Primary-key attributes can never appear among the changed attributes --
    key changes must be expressed as delete + insert.

    Attributes:
        table: Name of the table.
        key: Primary-key tuple of the updated row.
        changes: Mapping of changed attribute name to its new value.
        old_values: Mapping of the same attribute names to their values
            before the update (undo information).
    """

    table: str = ""
    key: Tuple = ()
    changes: Dict = field(default_factory=dict)
    old_values: Dict = field(default_factory=dict)


@dataclass
class CLRecord(LogRecord):
    """Compensating Log Record, written while rolling back.

    The ``action`` field holds an ordinary data-change record (insert,
    delete or update) describing the *compensating* operation, which is
    redo-only: a CLR is never undone.  ``undo_next_lsn`` points at the next
    record of the transaction that still needs undoing, so rollback can
    resume after a crash without compensating twice (ARIES).

    The transformation framework's log propagator treats the embedded
    ``action`` exactly like a normal logged operation -- this is what makes
    aborted user transactions converge correctly in the transformed tables.
    """

    action: Optional[LogRecord] = None
    undo_next_lsn: int = NULL_LSN


# ---------------------------------------------------------------------------
# Transformation-framework records
# ---------------------------------------------------------------------------


@dataclass
class FuzzyMarkRecord(LogRecord):
    """Delimiter written by the transformation framework (Section 3.2/3.3).

    Attributes:
        transform_id: Identifier of the owning transformation.
        phase: ``"begin"`` before the fuzzy read starts (this one embeds
            the active-transaction snapshot), ``"cycle"`` at the end of
            every log-propagation iteration, ``"end"`` when the
            transformation completes.
        active_txns: Ids of transactions active on the source tables when
            the mark was written (meaningful for ``"begin"`` marks).
    """

    transform_id: str = ""
    phase: str = "begin"
    active_txns: Tuple[int, ...] = ()


@dataclass
class CCBeginRecord(LogRecord):
    """``Begin CC on v``: the consistency checker starts examining ``v``.

    Attributes:
        transform_id: Identifier of the owning split transformation.
        split_value: The split-attribute value under examination.
    """

    transform_id: str = ""
    split_value: Tuple = ()


@dataclass
class CCOkRecord(LogRecord):
    """``CC: v is ok``: the re-read found the contributors consistent.

    Carries the correct image of the S-record so the propagator can install
    it (and flip the flag to *Consistent*) if no operation touched ``v``
    between the begin and ok marks.

    Attributes:
        transform_id: Identifier of the owning split transformation.
        split_value: The split-attribute value that was checked.
        image: The verified attribute mapping of the S-record.
    """

    transform_id: str = ""
    split_value: Tuple = ()
    image: Dict = field(default_factory=dict)


@dataclass
class CreateTableRecord(LogRecord):
    """DDL: a table was created.

    Attributes:
        schema: The created table's schema object.
        transient: ``True`` for transformation target tables, whose content
            is built by non-logged physical redo; restart recovery discards
            transient tables (the paper's crash policy is to abort an
            in-flight transformation and restart it).
    """

    schema: object = None
    transient: bool = False


@dataclass
class DropTableRecord(LogRecord):
    """DDL: a table was dropped."""

    table: str = ""


@dataclass
class RenameTableRecord(LogRecord):
    """DDL: a table was renamed."""

    old_name: str = ""
    new_name: str = ""


@dataclass
class TransformSwapRecord(LogRecord):
    """A transformation's synchronization swapped the schema (Section 3.4).

    At the moment this record is written the transformed tables are
    action-consistent with the (latched) source tables, so restart recovery
    can deterministically *recompute* them by applying the transformation
    operator to the recovered source state -- see
    :mod:`repro.engine.recovery`.

    Attributes:
        transform_id: Identifier of the transformation.
        transform_kind: Operator kind registered with the recovery
            rebuild registry (``"foj"``, ``"split"``, ...).
        retired: Names of the source tables removed from the schema.
        published: Mapping of public name to the published table's schema.
        params: Operator parameters needed to recompute the targets
            (join/split attribute names, projections, ...).
        doomed_txns: Transactions force-aborted by the synchronization
            (non-blocking abort strategy).
    """

    transform_id: str = ""
    transform_kind: str = ""
    retired: Tuple[str, ...] = ()
    published: Dict = field(default_factory=dict)
    params: Dict = field(default_factory=dict)
    doomed_txns: Tuple[int, ...] = ()


@dataclass
class TransformRetireRecord(LogRecord):
    """A published transformation artefact was retired (dropped).

    Written when a published derived table -- e.g. a materialized view --
    is dropped while its earlier :class:`TransformSwapRecord` is still in
    the log.  Restart recovery collects retired transform ids up front and
    *skips* the matching swap records entirely: no rebuild, no resurrected
    rule engine fed post-drop source changes the live system legitimately
    accepted once the artefact was gone.

    Attributes:
        transform_id: Identifier of the retired transformation.
    """

    transform_id: str = ""


@dataclass
class CheckpointRecord(LogRecord):
    """Fuzzy checkpoint: snapshot of the active-transaction table.

    Used by ARIES restart analysis to bound the log scan.

    Attributes:
        active_txns: Mapping of active transaction id to its last LSN at
            checkpoint time.
    """

    active_txns: Dict[int, int] = field(default_factory=dict)


@dataclass
class CatalogFlipRecord(LogRecord):
    """The versioned catalog write of an MVCC version-flip sync.

    Written right after the :class:`TransformSwapRecord` of a
    ``version_flip`` synchronization: the schema change was installed by
    atomically bumping the catalog version instead of closing a latched
    window.  Restart recovery rebuilds the published tables from the
    swap record as usual; this marker additionally makes the flip --
    the epoch boundary -- durable and auditable in the log.  (Snapshot
    pins and frozen epochs are volatile by design: no transaction
    survives a crash, so no pre-flip reader can exist after restart.)

    Attributes:
        transform_id: Identifier of the flipping transformation.
        version: The catalog version the flip installed.
        retired: Names retired from the visible namespace.
        published: Public names the flip made visible.
    """

    transform_id: str = ""
    version: int = 0
    retired: Tuple[str, ...] = ()
    published: Tuple[str, ...] = ()


#: Record kinds whose payload describes a data change (directly or, for
#: CLRs, through the embedded compensating action).
DATA_CHANGE_KINDS = ("insert", "delete", "update", "cl")


def data_change_of(record: LogRecord) -> Optional[LogRecord]:
    """Return the data-change payload of ``record``, unwrapping CLRs.

    Returns ``None`` for records that do not describe a data change
    (begin/commit/abort/end, fuzzy marks, CC marks, checkpoints).
    """
    if isinstance(record, CLRecord):
        return record.action
    if isinstance(record, (InsertRecord, DeleteRecord, UpdateRecord)):
        return record
    return None
