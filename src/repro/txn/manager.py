"""Transactions and the transaction manager (OTS analogue).

A :class:`Transaction` buffers reads and writes against one
:class:`~repro.txn.store.ObjectStore` under strict two-phase locking and
commits in one phase: BEGIN and UPDATE records, then the forced COMMIT, then
the after-images are installed.  A crash before the COMMIT is durable loses
the transaction whole (presumed abort).

The repository service stores every script under one of these transactions.
The execution service does not: its journal has one writer, so each
durability barrier commits as one self-committing BATCH record
(:meth:`~repro.txn.store.ObjectStore.commit_batch`), which takes no locks.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Dict, Set, TypeVar

from .ids import IdSource, ObjectId, TransactionId
from .locks import LockConflict, LockMode
from .store import ObjectStore

T = TypeVar("T")


class TransactionState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class TransactionAborted(RuntimeError):
    """The transaction was aborted (conflict, explicit abort, or crash)."""

    def __init__(self, tid: TransactionId, reason: str = "") -> None:
        super().__init__(f"{tid} aborted: {reason}" if reason else f"{tid} aborted")
        self.tid = tid
        self.reason = reason


class RetriesExhausted(RuntimeError):
    """``TransactionManager.run`` gave up after its retry budget."""


class Transaction:
    """One flat ACID transaction on one store."""

    def __init__(self, manager: "TransactionManager", tid: TransactionId) -> None:
        self.manager = manager
        self.tid = tid
        self.state = TransactionState.ACTIVE
        self._writes: Dict[ObjectStore, Dict[str, Any]] = {}
        self._touched: Set[ObjectStore] = set()

    # -- data access ----------------------------------------------------------

    def read(self, store: ObjectStore, key: str, default: Any = ...) -> Any:
        """Read ``key`` with a shared lock; sees this transaction's own
        uncommitted writes."""
        self._require_active()
        buffered = self._writes.get(store, {})
        if key in buffered:
            return buffered[key]
        self._lock(store, key, LockMode.SHARED)
        if default is not ...:
            return store.get_committed(key, default)
        return store.read_committed(key)

    def write(self, store: ObjectStore, key: str, value: Any) -> None:
        """Write ``key`` with an exclusive lock (buffered until commit)."""
        self._require_active()
        self._lock(store, key, LockMode.EXCLUSIVE)
        self._writes.setdefault(store, {})[key] = value

    def _lock(self, store: ObjectStore, key: str, mode: LockMode) -> None:
        self._touched.add(store)
        try:
            store.locks.acquire(self.tid, ObjectId(key), mode)
        except LockConflict:
            self.abort(reason=f"lock conflict on {key!r}")
            raise TransactionAborted(self.tid, f"lock conflict on {key!r}") from None

    # -- termination -----------------------------------------------------------

    def commit(self) -> None:
        """Commit in one phase: log, force COMMIT, install, release."""
        self._require_active()
        participants = [store for store, writes in self._writes.items() if writes]
        if len(participants) > 1:
            self.abort(reason="writes to more than one store")
            raise ValueError(f"{self.tid} writes to more than one store")
        for store in participants:
            writes = self._writes[store]
            store.log_updates(self.tid, writes)
            store.commit(self.tid, writes)
        self.state = TransactionState.COMMITTED
        self._release_locks()
        self.manager.forget(self.tid)

    def abort(self, reason: str = "") -> None:
        """Abort and release.  Writes are buffered until :meth:`commit`
        logs them, so nothing of an aborted transaction reaches a log."""
        if self.state is not TransactionState.ACTIVE:
            return
        self.state = TransactionState.ABORTED
        self._release_locks()
        self.manager.forget(self.tid)

    def _release_locks(self) -> None:
        for store in self._touched:
            store.locks.release_all(self.tid)

    def _require_active(self) -> None:
        if self.state is not TransactionState.ACTIVE:
            raise TransactionAborted(self.tid, f"not active (state={self.state.value})")

    # -- context manager --------------------------------------------------------

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self.commit()
            return False
        self.abort(reason=str(exc))
        return False


class TransactionManager:
    """Creates transactions and counts their outcomes."""

    def __init__(self, name: str = "tm") -> None:
        self.name = name
        self._ids = IdSource(name)
        self._active: Dict[TransactionId, Transaction] = {}
        self.stats = {"begun": 0, "committed": 0, "aborted": 0, "retried": 0}

    def begin(self) -> Transaction:
        tid = self._ids.next_txn()
        txn = Transaction(self, tid)
        self._active[tid] = txn
        self.stats["begun"] += 1
        return txn

    def forget(self, tid: TransactionId) -> None:
        txn = self._active.pop(tid, None)
        if txn is not None:
            if txn.state is TransactionState.COMMITTED:
                self.stats["committed"] += 1
            elif txn.state is TransactionState.ABORTED:
                self.stats["aborted"] += 1

    # -- convenience: run-with-retries -----------------------------------------------

    def run(self, body: Callable[[Transaction], T], retries: int = 5) -> T:
        """Run ``body`` in a transaction, retrying on conflict aborts.

        This mirrors the paper's system-level "automatic (finite number of)
        retries of tasks that abort due to system level problems".
        """
        attempts = 0
        while True:
            txn = self.begin()
            try:
                result = body(txn)
                txn.commit()
                return result
            except TransactionAborted:
                attempts += 1
                self.stats["retried"] += 1
                if attempts > retries:
                    raise RetriesExhausted(
                        f"transaction retried {retries} times without success"
                    ) from None
            except Exception:
                txn.abort()
                raise
