"""Transactions and the transaction manager (OTS analogue).

A :class:`Transaction` buffers reads and writes against one or more
:class:`~repro.txn.store.ObjectStore` instances under strict two-phase
locking.  Commit uses one-phase (single store) or two-phase commit (multiple
stores): every participant forces a PREPARE record, the coordinator forces the
decision in its own log, then participants force COMMIT and install the
after-images.  Presumed abort: an in-doubt participant that finds no decision
aborts.

The execution service wraps every dependency-propagation step in one of these
transactions — this is the mechanism behind the paper's claim that "tasks
eventually receive their inputs and notifications despite a finite number of
intervening processor crashes".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, TypeVar

from ..sim.crashpoints import crash_point
from .ids import IdSource, ObjectId, TransactionId
from .locks import LockConflict, LockMode
from .store import NoSuchObject, ObjectStore
from . import wal as wal_mod

T = TypeVar("T")


class TransactionState(enum.Enum):
    ACTIVE = "active"
    PREPARED = "prepared"
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
    """One ACID transaction spanning one or more stores.

    Supports Arjuna-style **nested transactions** (§2: atomic tasks
    "possibly containing nested transactions within"): :meth:`begin_nested`
    opens a subtransaction whose effects are provisional — committing merges
    them into the parent (locks are inherited, not released); aborting
    discards them without disturbing the parent.  Durability only ever
    happens at top-level commit.
    """

    def __init__(
        self,
        manager: "TransactionManager",
        tid: TransactionId,
        parent: Optional["Transaction"] = None,
    ) -> None:
        self.manager = manager
        self.tid = tid
        self.parent = parent
        self.state = TransactionState.ACTIVE
        self._writes: Dict[ObjectStore, Dict[str, Any]] = {}
        self._touched: Set[ObjectStore] = set()
        self._active_child: Optional["Transaction"] = None

    # -- nesting ------------------------------------------------------------------

    @property
    def is_nested(self) -> bool:
        return self.parent is not None

    def begin_nested(self) -> "Transaction":
        """Open a subtransaction.  The parent must not be used until the
        child commits or aborts (single-threaded nesting discipline)."""
        self._require_active()
        child = Transaction(self.manager, self.manager._ids.next_txn(), parent=self)
        self._active_child = child
        return child

    # -- data access ----------------------------------------------------------

    def read(self, store: ObjectStore, key: str, default: Any = ...) -> Any:
        """Read ``key`` with a shared lock; sees this transaction's own
        uncommitted writes (and, when nested, its ancestors')."""
        self._require_active()
        scope: Optional[Transaction] = self
        while scope is not None:
            buffered = scope._writes.get(store, {})
            if key in buffered:
                return buffered[key]
            scope = scope.parent
        self._lock(store, key, LockMode.SHARED)
        if default is not ...:
            return store.get_committed(key, default)
        try:
            return store.read_committed(key)
        except NoSuchObject:
            raise

    def write(self, store: ObjectStore, key: str, value: Any) -> None:
        """Write ``key`` with an exclusive lock (buffered until commit)."""
        self._require_active()
        self._lock(store, key, LockMode.EXCLUSIVE)
        self._writes.setdefault(store, {})[key] = value

    @property
    def top(self) -> "Transaction":
        scope = self
        while scope.parent is not None:
            scope = scope.parent
        return scope

    def _lock(self, store: ObjectStore, key: str, mode: LockMode) -> None:
        # Locks are always taken under the top-level transaction id: a nested
        # transaction may freely touch what its ancestors hold, and strict
        # 2PL keeps everything until top-level commit/abort (conservative
        # Arjuna-style lock inheritance).
        self._touched.add(store)
        try:
            store.locks.acquire(self.top.tid, ObjectId(key), mode, wait=False)
        except LockConflict:
            self.abort(reason=f"lock conflict on {key!r}")
            raise TransactionAborted(self.tid, f"lock conflict on {key!r}") from None

    # -- termination -----------------------------------------------------------

    def commit(self) -> None:
        """Commit: nested transactions merge into their parent; top-level
        transactions use 1PC (single store) or 2PC (multiple stores)."""
        self._require_active()
        if self.is_nested:
            for store, writes in self._writes.items():
                self.parent._writes.setdefault(store, {}).update(writes)
            self.parent._touched |= self._touched
            self.parent._active_child = None
            self.state = TransactionState.COMMITTED
            return
        crash_point("txn.commit.pre", self.manager)
        participants = [s for s in self._writes if self._writes[s]]
        if len(participants) <= 1:
            self._commit_one_phase(participants)
        else:
            self._commit_two_phase(participants)
        self.state = TransactionState.COMMITTED
        crash_point("txn.commit.post", self.manager)
        self._release_locks()
        self.manager.forget(self.tid)

    def _commit_one_phase(self, participants: List[ObjectStore]) -> None:
        for store in participants:
            writes = self._writes[store]
            store.log_updates(self.tid, writes)
            store.commit(self.tid, writes)

    def _commit_two_phase(self, participants: List[ObjectStore]) -> None:
        # Phase 1: every participant logs updates and forces its vote.
        for store in participants:
            store.log_updates(self.tid, self._writes[store])
            store.prepare(self.tid)
        self.state = TransactionState.PREPARED
        crash_point("txn.2pc.prepared", self.manager)
        # Decision point: force the COMMIT decision in the coordinator log.
        self.manager.record_decision(self.tid, committed=True)
        crash_point("txn.2pc.decided", self.manager)
        # Phase 2: participants force COMMIT and install.
        for store in participants:
            store.commit(self.tid, self._writes[store])

    def abort(self, reason: str = "") -> None:
        """Abort and release; buffered writes are discarded."""
        if self.state in (TransactionState.COMMITTED, TransactionState.ABORTED):
            return
        if self._active_child is not None:
            self._active_child.abort(reason="parent aborted")
        if self.is_nested:
            # discard provisional writes; locks stay with the top-level
            # transaction (conservative inheritance) until it finishes, so
            # the parent must know which stores to release at its end
            self.parent._touched |= self._touched
            self.parent._active_child = None
            self.state = TransactionState.ABORTED
            return
        for store in self._touched:
            if self._writes.get(store):
                store.abort(self.tid)
        if self.state is TransactionState.PREPARED:
            self.manager.record_decision(self.tid, committed=False)
        self.state = TransactionState.ABORTED
        self._release_locks()
        self.manager.forget(self.tid)

    def _release_locks(self) -> None:
        for store in self._touched:
            store.locks.release_all(self.tid)

    def _require_active(self) -> None:
        if self.state is not TransactionState.ACTIVE:
            raise TransactionAborted(self.tid, f"not active (state={self.state.value})")
        if self._active_child is not None:
            raise TransactionAborted(
                self.tid, "a nested transaction is open; finish it first"
            )
        if self.parent is not None and self.parent._active_child is not self:
            raise TransactionAborted(self.tid, "nested transaction already closed")

    # -- context manager --------------------------------------------------------

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self.commit()
            return False
        if self.state is TransactionState.ACTIVE or self.state is TransactionState.PREPARED:
            self.abort(reason=str(exc))
        return False


class TransactionManager:
    """Creates transactions and keeps the coordinator decision log.

    The decision log is itself durable (it lives in an :class:`ObjectStore`'s
    WAL when one is supplied) so in-doubt participants can resolve after a
    coordinator crash — presumed abort when no decision record exists.
    """

    def __init__(self, name: str = "tm", decision_store: Optional[ObjectStore] = None) -> None:
        self.name = name
        self._ids = IdSource(name)
        self._active: Dict[TransactionId, Transaction] = {}
        self._decision_store = decision_store
        self._decisions: Dict[TransactionId, bool] = {}
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

    # -- coordinator decisions -----------------------------------------------------

    def record_decision(self, tid: TransactionId, committed: bool) -> None:
        self._decisions[tid] = committed
        if self._decision_store is not None:
            key = f"_decision:{tid.origin}:{tid.number}"
            self._decision_store.log_updates(tid, {key: committed})
            self._decision_store.commit(tid, {key: committed})

    def decision(self, tid: TransactionId) -> bool:
        """Resolve an in-doubt transaction.  Presumed abort: no record means
        the transaction never reached its decision point and must abort."""
        if tid in self._decisions:
            return self._decisions[tid]
        if self._decision_store is not None:
            key = f"_decision:{tid.origin}:{tid.number}"
            return bool(self._decision_store.get_committed(key, False))
        return False

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
