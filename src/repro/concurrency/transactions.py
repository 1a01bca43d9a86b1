"""Transactions and the active-transaction table.

The transaction manager tracks life-cycle state and the per-transaction
bookkeeping the rest of the system needs:

* the **undo chain** head (``last_lsn``) and ``first_lsn``, used by rollback
  and by the transformation framework: the begin fuzzy mark embeds the
  identifiers of active transactions, and log propagation starts from "the
  oldest log record of any transaction that was active when the first fuzzy
  mark was written" (Section 3.3);
* the set of **tables touched**, used by the synchronization strategies to
  decide which transactions must drain (blocking commit), be aborted
  (non-blocking abort) or be tracked to completion (non-blocking commit);
* a **doomed** marker: a doomed transaction's next operation raises
  :class:`~repro.common.errors.TransactionAbortedError`, which triggers its
  rollback -- this is how non-blocking abort "forces" old transactions to
  abort without ripping state out from under them mid-operation.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Iterable, List, Optional, Set

from repro.common.errors import TransactionStateError
from repro.wal.records import NULL_LSN


class TxnState(Enum):
    """Life-cycle state of a transaction."""

    ACTIVE = "active"
    ROLLING_BACK = "rolling_back"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """A single transaction's control block."""

    __slots__ = (
        "txn_id", "state", "first_lsn", "last_lsn", "tables_touched",
        "doomed", "doom_reason", "start_time", "snapshot",
    )

    def __init__(self, txn_id: int, start_time: float = 0.0) -> None:
        self.txn_id = txn_id
        self.state = TxnState.ACTIVE
        self.first_lsn = NULL_LSN
        self.last_lsn = NULL_LSN
        self.tables_touched: Set[str] = set()
        self.doomed = False
        self.doom_reason = ""
        self.start_time = start_time
        #: MVCC snapshot pin (:class:`repro.storage.mvcc.SnapshotHandle`)
        #: when the database runs with the multi-version overlay enabled;
        #: ``None`` under the default latch-based storage.
        self.snapshot = None

    @property
    def is_active(self) -> bool:
        """Whether the transaction can still execute operations."""
        return self.state is TxnState.ACTIVE

    @property
    def is_finished(self) -> bool:
        """Whether the transaction has reached a terminal state."""
        return self.state in (TxnState.COMMITTED, TxnState.ABORTED)

    def note_record(self, lsn: int) -> None:
        """Record a newly appended log record in the undo chain."""
        if self.first_lsn == NULL_LSN:
            self.first_lsn = lsn
        self.last_lsn = lsn

    def doom(self, reason: str) -> None:
        """Mark the transaction for forced abort at its next operation."""
        if not self.is_finished:
            self.doomed = True
            self.doom_reason = reason

    def __repr__(self) -> str:
        flags = " doomed" if self.doomed else ""
        return f"Txn({self.txn_id}, {self.state.value}{flags})"


class TransactionManager:
    """Allocates transaction ids and holds the active-transaction table
    (a finished transaction's block is its owner's; nothing asks by id)."""

    def __init__(self) -> None:
        self._next_id = 1
        #: The active-transaction table: control blocks not yet in a
        #: terminal state, in begin order.  Its size, and the cost of
        #: every query below, follows the transactions in flight, not
        #: every transaction ever begun.
        self._active: Dict[int, Transaction] = {}

    def begin(self, start_time: float = 0.0) -> Transaction:
        """Create a new active transaction."""
        txn = Transaction(self._next_id, start_time)
        self._next_id += 1
        self.adopt(txn)
        return txn

    def adopt(self, txn: Transaction) -> None:
        """Register a non-terminal control block (``begin``; restart
        recovery's rebuilt losers)."""
        self._active[txn.txn_id] = txn

    def finished(self, txn: Transaction, state: TxnState) -> None:
        """Move ``txn`` to its terminal ``state`` and out of the
        active-transaction table -- the one place a transaction ends."""
        txn.state = state
        self._active.pop(txn.txn_id, None)

    def get(self, txn_id: int) -> Transaction:
        """Control block of a transaction not yet in a terminal state."""
        try:
            return self._active[txn_id]
        except KeyError:
            raise TransactionStateError(
                f"unknown or finished transaction {txn_id}") from None

    def exists(self, txn_id: int) -> bool:
        """Whether ``txn_id`` is still in the active-transaction table."""
        return txn_id in self._active

    # -- active-transaction-table queries -------------------------------------

    def active_txns(self) -> List[Transaction]:
        """All transactions not yet in a terminal state."""
        return list(self._active.values())

    def active_ids(self) -> List[int]:
        """Ids of all non-terminal transactions, ascending."""
        return sorted(self._active)

    def active_on(self, tables: Iterable[str]) -> List[Transaction]:
        """Active transactions that have touched any of ``tables``.

        This is the subset of the active-transaction table that a begin
        fuzzy mark embeds (Section 3.2: "the transaction identifiers of all
        transactions that are active on the source tables").
        """
        table_set = set(tables)
        return [
            t for t in self._active.values()
            if not table_set.isdisjoint(t.tables_touched)
        ]

    def oldest_first_lsn(self, txn_ids: Optional[Iterable[int]] = None
                         ) -> int:
        """Smallest ``first_lsn`` among the given transactions (default:
        every active one).

        Returns ``NULL_LSN`` if none of them has logged anything -- the
        propagation start point then falls back to the fuzzy mark itself.
        """
        active = self._active
        txns = active.values() if txn_ids is None else \
            (active[i] for i in txn_ids if i in active)
        return min((t.first_lsn for t in txns if t.first_lsn != NULL_LSN),
                   default=NULL_LSN)

    def doom_transactions(self, txn_ids: Iterable[int], reason: str) -> None:
        """Doom every listed transaction (non-blocking abort sync)."""
        for txn_id in txn_ids:
            txn = self._active.get(txn_id)
            if txn is not None:
                txn.doom(reason)
