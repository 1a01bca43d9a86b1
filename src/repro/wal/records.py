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

Records are mutable ``__slots__`` classes with hand-written constructors
(the log is a main-memory engine's resident set: no ``__dict__`` per
record).  Each class names its payload fields once, in ``FIELDS``: the
positional order of ``cls(txn_id, *payload)`` and the field order of its
frame.  ``lsn`` and ``prev_lsn`` are filled in by
:class:`repro.wal.log.LogManager` at append time; user code constructs
records with the payload fields only, by keyword.
"""

from __future__ import annotations

from typing import ClassVar, Dict, Optional, Tuple

#: LSN value used before a record has been appended, and as "nil" prev_lsn.
NULL_LSN = 0


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

    __slots__ = ("lsn", "prev_lsn", "txn_id")

    #: Payload field names in frame order (everything but the three above).
    FIELDS: ClassVar[Tuple[str, ...]] = ()

    #: Short lowercase name of the record type, e.g. ``"insert"``;
    #: derived from the class name once, when the class is created.
    kind: ClassVar[str] = "log"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.kind = cls.__name__.replace("Record", "").lower()

    def __init__(self, txn_id: int = 0) -> None:
        self.lsn, self.prev_lsn, self.txn_id = NULL_LSN, NULL_LSN, txn_id

    def _body(self, names: Tuple[str, ...]) -> str:
        return ", ".join(f"{n}={getattr(self, n)!r}"
                         for n in names + self.FIELDS)

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, n) == getattr(other, n)
                   for n in LogRecord.__slots__ + self.FIELDS)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._body(LogRecord.__slots__)})"

    def describe(self) -> str:
        """One-line human-readable rendering used by debug dumps."""
        return (f"[{self.lsn}] {self.kind}({self._body(('txn_id',))}) "
                f"prev={self.prev_lsn}")


# ---------------------------------------------------------------------------
# Transaction life-cycle records
# ---------------------------------------------------------------------------


class BeginRecord(LogRecord):
    """Transaction start."""

    __slots__ = ()


class CommitRecord(LogRecord):
    """Transaction committed; all of its locks may be released."""

    __slots__ = ()


class AbortRecord(LogRecord):
    """Transaction abort has *started*; rollback (CLRs) follows."""

    __slots__ = ()


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

    __slots__ = FIELDS = ("committed",)

    def __init__(self, txn_id: int = 0, committed: bool = True) -> None:
        self.lsn, self.prev_lsn, self.txn_id = NULL_LSN, NULL_LSN, txn_id
        self.committed = committed


# ---------------------------------------------------------------------------
# Data-change records
# ---------------------------------------------------------------------------


class InsertRecord(LogRecord):
    """A row was inserted.  Carries the complete new row image.

    Attributes:
        table: Name of the table at the time of the operation.
        key: Primary-key tuple of the inserted row.
        values: Full attribute mapping of the new row (redo information;
            also sufficient for undo, which deletes by key).
    """

    __slots__ = FIELDS = ("table", "key", "values")

    def __init__(self, txn_id: int = 0, table: str = "", key: Tuple = (),
                 values: Optional[Dict] = None) -> None:
        self.lsn, self.prev_lsn, self.txn_id = NULL_LSN, NULL_LSN, txn_id
        self.table = table
        self.key = key
        self.values = {} if values is None else values


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

    __slots__ = FIELDS = ("table", "key", "old_values")

    def __init__(self, txn_id: int = 0, table: str = "", key: Tuple = (),
                 old_values: Optional[Dict] = None) -> None:
        self.lsn, self.prev_lsn, self.txn_id = NULL_LSN, NULL_LSN, txn_id
        self.table = table
        self.key = key
        self.old_values = {} if old_values is None else old_values


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

    __slots__ = FIELDS = ("table", "key", "changes", "old_values")

    def __init__(self, txn_id: int = 0, table: str = "", key: Tuple = (),
                 changes: Optional[Dict] = None,
                 old_values: Optional[Dict] = None) -> None:
        self.lsn, self.prev_lsn, self.txn_id = NULL_LSN, NULL_LSN, txn_id
        self.table = table
        self.key = key
        self.changes = {} if changes is None else changes
        self.old_values = {} if old_values is None else old_values


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

    __slots__ = FIELDS = ("action", "undo_next_lsn")

    def __init__(self, txn_id: int = 0, action: Optional[LogRecord] = None,
                 undo_next_lsn: int = NULL_LSN) -> None:
        self.lsn, self.prev_lsn, self.txn_id = NULL_LSN, NULL_LSN, txn_id
        self.action = action
        self.undo_next_lsn = undo_next_lsn


# ---------------------------------------------------------------------------
# Transformation-framework records
# ---------------------------------------------------------------------------


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

    __slots__ = FIELDS = ("transform_id", "phase", "active_txns")

    def __init__(self, txn_id: int = 0, transform_id: str = "",
                 phase: str = "begin",
                 active_txns: Tuple[int, ...] = ()) -> None:
        self.lsn, self.prev_lsn, self.txn_id = NULL_LSN, NULL_LSN, txn_id
        self.transform_id = transform_id
        self.phase = phase
        self.active_txns = active_txns


class CCBeginRecord(LogRecord):
    """``Begin CC on v``: the consistency checker starts examining ``v``.

    Attributes:
        transform_id: Identifier of the owning split transformation.
        split_value: The split-attribute value under examination.
    """

    __slots__ = FIELDS = ("transform_id", "split_value")

    def __init__(self, txn_id: int = 0, transform_id: str = "",
                 split_value: Tuple = ()) -> None:
        self.lsn, self.prev_lsn, self.txn_id = NULL_LSN, NULL_LSN, txn_id
        self.transform_id = transform_id
        self.split_value = split_value


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

    __slots__ = FIELDS = ("transform_id", "split_value", "image")

    def __init__(self, txn_id: int = 0, transform_id: str = "",
                 split_value: Tuple = (),
                 image: Optional[Dict] = None) -> None:
        self.lsn, self.prev_lsn, self.txn_id = NULL_LSN, NULL_LSN, txn_id
        self.transform_id = transform_id
        self.split_value = split_value
        self.image = {} if image is None else image


class CreateTableRecord(LogRecord):
    """DDL: a table was created.

    Attributes:
        schema: The created table's schema object.
        transient: ``True`` for transformation target tables, whose content
            is built by non-logged physical redo; restart recovery discards
            transient tables (the paper's crash policy is to abort an
            in-flight transformation and restart it).
    """

    __slots__ = FIELDS = ("schema", "transient")

    def __init__(self, txn_id: int = 0, schema: object = None,
                 transient: bool = False) -> None:
        self.lsn, self.prev_lsn, self.txn_id = NULL_LSN, NULL_LSN, txn_id
        self.schema = schema
        self.transient = transient


class DropTableRecord(LogRecord):
    """DDL: a table was dropped."""

    __slots__ = FIELDS = ("table",)

    def __init__(self, txn_id: int = 0, table: str = "") -> None:
        self.lsn, self.prev_lsn, self.txn_id = NULL_LSN, NULL_LSN, txn_id
        self.table = table


class RenameTableRecord(LogRecord):
    """DDL: a table was renamed."""

    __slots__ = FIELDS = ("old_name", "new_name")

    def __init__(self, txn_id: int = 0, old_name: str = "",
                 new_name: str = "") -> None:
        self.lsn, self.prev_lsn, self.txn_id = NULL_LSN, NULL_LSN, txn_id
        self.old_name = old_name
        self.new_name = new_name


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

    __slots__ = FIELDS = ("transform_id", "transform_kind", "retired", "published", "params", "doomed_txns")

    def __init__(self, txn_id: int = 0, transform_id: str = "",
                 transform_kind: str = "", retired: Tuple[str, ...] = (),
                 published: Optional[Dict] = None,
                 params: Optional[Dict] = None,
                 doomed_txns: Tuple[int, ...] = ()) -> None:
        self.lsn, self.prev_lsn, self.txn_id = NULL_LSN, NULL_LSN, txn_id
        self.transform_id = transform_id
        self.transform_kind = transform_kind
        self.retired = retired
        self.published = {} if published is None else published
        self.params = {} if params is None else params
        self.doomed_txns = doomed_txns


class TransformRetireRecord(LogRecord):
    """A published transformation artefact was retired (dropped).

    Written when a published derived table -- e.g. a materialized view --
    is dropped after its :class:`TransformSwapRecord`.  Restart's redo
    takes the live drop's catalog action here (the swap leaves the
    registry, its tables are unpublished) and feeds the rebuilt rule
    engine nothing after it: post-drop source changes never reach it.

    Attributes:
        transform_id: Identifier of the retired transformation.
    """

    __slots__ = FIELDS = ("transform_id",)

    def __init__(self, txn_id: int = 0, transform_id: str = "") -> None:
        self.lsn, self.prev_lsn, self.txn_id = NULL_LSN, NULL_LSN, txn_id
        self.transform_id = transform_id


class CheckpointRecord(LogRecord):
    """Fuzzy checkpoint: snapshot of the active-transaction table.

    Used by ARIES restart analysis to bound the log scan.

    Attributes:
        active_txns: Mapping of active transaction id to its last LSN at
            checkpoint time.
    """

    __slots__ = FIELDS = ("active_txns",)

    def __init__(self, txn_id: int = 0,
                 active_txns: Optional[Dict[int, int]] = None) -> None:
        self.lsn, self.prev_lsn, self.txn_id = NULL_LSN, NULL_LSN, txn_id
        self.active_txns = {} if active_txns is None else active_txns


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

    __slots__ = FIELDS = ("transform_id", "version", "retired", "published")

    def __init__(self, txn_id: int = 0, transform_id: str = "",
                 version: int = 0, retired: Tuple[str, ...] = (),
                 published: Tuple[str, ...] = ()) -> None:
        self.lsn, self.prev_lsn, self.txn_id = NULL_LSN, NULL_LSN, txn_id
        self.transform_id = transform_id
        self.version = version
        self.retired = retired
        self.published = published


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
