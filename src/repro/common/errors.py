"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause.  The hierarchy is
deliberately flat: one subclass per failure *category* (schema, storage,
concurrency, transaction, transformation, recovery), with a handful of leaf
classes for conditions callers commonly need to distinguish (deadlock,
lock-wait, doomed transaction, data inconsistency).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by the library."""


# ---------------------------------------------------------------------------
# Schema / catalog errors
# ---------------------------------------------------------------------------


class SchemaError(ReproError):
    """A table schema is malformed (bad attribute set, bad key, ...)."""


class NoSuchTableError(SchemaError):
    """An operation referenced a table that is not in the catalog."""

    def __init__(self, name: str) -> None:
        super().__init__(f"no such table: {name!r}")
        self.table_name = name


class DuplicateTableError(SchemaError):
    """``CREATE TABLE`` collided with an existing table name."""

    def __init__(self, name: str) -> None:
        super().__init__(f"table already exists: {name!r}")
        self.table_name = name


class NoSuchIndexError(SchemaError):
    """An operation referenced an index that does not exist on the table."""


# ---------------------------------------------------------------------------
# Storage errors
# ---------------------------------------------------------------------------


class StorageError(ReproError):
    """Base class for record-level storage failures."""


class DuplicateKeyError(StorageError):
    """An insert violated the unique (primary or candidate key) ``index``."""

    def __init__(self, table: str, key: tuple, index: str = "") -> None:
        super().__init__(f"duplicate key {key!r} in table {table!r}")
        self.table_name = table
        self.key = key
        self.index = index


class NoSuchRowError(StorageError):
    """A point operation addressed a primary key that is not present."""

    def __init__(self, table: str, key: tuple) -> None:
        super().__init__(f"no row with key {key!r} in table {table!r}")
        self.table_name = table
        self.key = key


# ---------------------------------------------------------------------------
# Concurrency errors
# ---------------------------------------------------------------------------


class ConcurrencyError(ReproError):
    """Base class for lock-manager related failures."""


class LockWaitError(ConcurrencyError):
    """The requested lock or latch could not be granted immediately.

    This is *not* a fatal error: the request has been enqueued (for locks) or
    the waiter registered (for latches), and the caller must retry the same
    operation once it is woken.  The simulator uses this exception to park
    clients; the convenience :class:`~repro.engine.session.Session` treats it
    as fatal because a single-threaded caller can never be woken.
    """

    def __init__(self, resource: object, txn_id: int) -> None:
        super().__init__(f"transaction {txn_id} must wait for {resource!r}")
        self.resource = resource
        self.txn_id = txn_id


class DeadlockError(ConcurrencyError):
    """Granting the request would close a cycle in the wait-for graph.

    The request has been withdrawn; the caller is expected to abort the
    victim transaction and (optionally) retry it from the beginning.
    """

    def __init__(self, txn_id: int, cycle: tuple) -> None:
        super().__init__(f"deadlock: transaction {txn_id} in cycle {cycle!r}")
        self.txn_id = txn_id
        self.cycle = cycle


# ---------------------------------------------------------------------------
# Transaction errors
# ---------------------------------------------------------------------------


class TransactionError(ReproError):
    """Base class for transaction life-cycle violations."""


class TransactionAbortedError(TransactionError):
    """The transaction has been (or must now be) aborted.

    Raised when an operation is attempted on a transaction that was doomed by
    a non-blocking-abort synchronization, aborted as a deadlock victim, or
    otherwise rolled back.
    """

    def __init__(self, txn_id: int, reason: str = "") -> None:
        msg = f"transaction {txn_id} aborted"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)
        self.txn_id = txn_id
        self.reason = reason


class TransactionStateError(TransactionError):
    """An operation was attempted in an illegal transaction state."""


# ---------------------------------------------------------------------------
# Transformation errors
# ---------------------------------------------------------------------------


class TransformationError(ReproError):
    """Base class for schema-transformation failures."""


class TransformationAbortedError(TransformationError):
    """The transformation was aborted (by the DBA or by policy)."""


class TransformationStarvedError(TransformationAbortedError):
    """The transformation was aborted because log propagation starved.

    Section 3.3: when the end-of-iteration analysis concludes that the
    propagator cannot catch up with the log producers at its current
    priority, the transformation is aborted so it can be *restarted with a
    higher priority*.  This subclass lets callers (in particular
    :class:`repro.transform.supervisor.TransformationSupervisor`) tell the
    retryable starvation abort apart from a hard abort.
    """


class TransformationStateError(TransformationError):
    """A transformation step was invoked in the wrong phase."""


class PlanValidationError(TransformationError):
    """A declarative migration plan failed eager validation.

    Raised by :class:`repro.plan.PlanValidator` *before* any table is
    created or populated: unknown operators, dangling table/attribute
    references, duplicate step ids, ill-formed options and incompatible
    operator/option combinations (e.g. lazy population on an eager-only
    engine) are all collected into :attr:`problems` and reported at once.
    """

    def __init__(self, plan_id: str, problems) -> None:
        self.plan_id = plan_id
        self.problems = list(problems)
        joined = "\n  - ".join(self.problems)
        super().__init__(
            f"migration plan {plan_id!r} failed validation with "
            f"{len(self.problems)} problem(s):\n  - {joined}")


class InconsistentDataError(TransformationError):
    """The source data violates what the operator requires.

    Section 5.1 (Example 1) of the paper: if two source rows share a split
    value but disagree on the dependent attributes, the split cannot decide
    which version is correct, and the transformation cannot complete until a
    user transaction repairs the data.  The other operators' analogues
    raise it too: a key in both of a merge's sources, a value a retype
    cannot cast.  ``split_values`` holds the offending split values or
    row keys.
    """

    def __init__(self, split_values: tuple) -> None:
        super().__init__(
            "source data is inconsistent at key or split value(s) "
            f"{split_values!r}; repair the data before synchronizing"
        )
        self.split_values = split_values


# ---------------------------------------------------------------------------
# Recovery errors
# ---------------------------------------------------------------------------


class RecoveryError(ReproError):
    """ARIES restart recovery could not complete."""


class LogCorruptionError(RecoveryError):
    """Salvage found corruption *inside* the durable log (not a torn tail).

    A frame whose checksum fails while later frames are still present
    means stable storage lied about previously-synced data (bit rot, a
    mis-directed write).  Unlike a torn tail -- which is expected after a
    crash and is silently truncated -- mid-log corruption cannot be
    repaired by truncation without losing committed transactions, so the
    log is *quarantined*: recovery refuses to proceed and the error
    carries everything an operator (or a test oracle) needs to inspect
    the damage.

    Attributes:
        frame_index: Zero-based index of the corrupt frame.
        lsn: LSN the corrupt frame was expected to carry.
        offset: Byte offset of the corrupt frame in the segment.
        salvaged: Records decoded successfully before the corruption.
    """

    def __init__(self, reason: str, frame_index: int = -1,
                 lsn: int = 0, offset: int = -1,
                 salvaged: tuple = ()) -> None:
        super().__init__(
            f"log corruption at frame {frame_index} (lsn {lsn}, "
            f"byte offset {offset}): {reason}; log quarantined with "
            f"{len(salvaged)} salvaged records")
        self.reason = reason
        self.frame_index = frame_index
        self.lsn = lsn
        self.offset = offset
        self.salvaged = tuple(salvaged)


# ---------------------------------------------------------------------------
# Fault-injection errors
# ---------------------------------------------------------------------------


class FaultInjectionError(ReproError):
    """Base class for errors raised by the fault-injection subsystem."""


class SimulatedCrashError(FaultInjectionError):
    """A :class:`repro.faults.CrashFault` fired: the process "died" here.

    The harness that armed the fault is expected to abandon every volatile
    object (``Database``, transformations, lock manager, buffered tables)
    and run :func:`repro.engine.recovery.restart` against the surviving
    :class:`repro.wal.log.LogManager`, exactly as after a real kill -9.
    """

    def __init__(self, site: str) -> None:
        super().__init__(f"simulated crash at injection site {site!r}")
        self.site = site
