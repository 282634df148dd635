"""Durable object store.

One :class:`ObjectStore` models one node's stable storage, holding the
committed states of persistent atomic objects plus the write-ahead log that
makes updates recoverable.  The in-memory ``committed`` map is just a cache of
what the durable log says; :meth:`crash` drops unforced log records and
rebuilds the cache from the log — the store's entire crash semantics.

A follower that receives another store's log in batches (:meth:`ingest`)
folds each batch into the cache instead of replaying its whole log; the fold
and the full replay are one function (:func:`repro.txn.wal.fold`), so they
cannot drift apart.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, KeysView, List, Optional, Tuple

from ..sim.crashpoints import crash_point
from .ids import ObjectId, TransactionId
from .locks import LockManager
from . import wal as wal_mod
from .wal import LogRecord, WriteAheadLog

_MISSING = object()


class NoSuchObject(KeyError):
    """Read of an object that has never been committed."""


class ObjectStore:
    """Stable storage for one node: committed object images + WAL + locks."""

    def __init__(self, name: str, mirror_path: Optional[str] = None) -> None:
        self.name = name
        self.wal = WriteAheadLog(mirror_path)
        self.locks = LockManager()
        self._committed: Dict[str, Any] = {}
        # logged updates of undecided transactions in the durable log: with
        # ``_committed``, the replay state that :meth:`ingest` advances
        self._pending: Dict[TransactionId, List[LogRecord]] = {}
        self._derived: Dict[str, Callable[[], Any]] = {}

    # -- committed-state access -------------------------------------------------

    def read_committed(self, key: str) -> Any:
        try:
            return self._committed[key]
        except KeyError:
            raise NoSuchObject(key) from None

    def get_committed(self, key: str, default: Any = None) -> Any:
        value = self._committed.get(key, _MISSING)
        if value is not _MISSING:
            return value
        view = self._derived.get(key)
        return view() if view is not None else default

    def derive(self, key: str, view: Callable[[], Any]) -> None:
        """Answer :meth:`get_committed` for ``key`` — which is never written
        — with ``view()``, a value computed from other committed objects."""
        self._derived[key] = view

    def keys(self) -> KeysView[str]:
        return self._committed.keys()

    def snapshot(self) -> Dict[str, Any]:
        return dict(self._committed)

    # -- transactional application (called by the transaction manager) ----------

    def log_updates(self, txn: TransactionId, writes: Dict[str, Any]) -> None:
        """Append BEGIN+UPDATE records for ``writes`` (not yet durable)."""
        self.wal.append(wal_mod.BEGIN, txn)
        for key, value in writes.items():
            self.wal.append(wal_mod.UPDATE, txn, ObjectId(key), value)

    def commit(self, txn: TransactionId, writes: Dict[str, Any]) -> None:
        """Force the COMMIT record, then install the after-images."""
        self._force_and_install(wal_mod.COMMIT, txn, None, writes)

    def commit_batch(self, writes: Dict[str, Any]) -> None:
        """Commit ``writes`` as one BATCH record — its own commit, durable
        and whole exactly when its force completes — for objects only the
        caller ever writes: no locks, no BEGIN/UPDATE/COMMIT envelope.
        Refused before the log is touched if an open transaction holds a
        lock on any of the objects: that writer is not alone."""
        self.locks.refuse_if_held(writes)
        self._force_and_install(wal_mod.BATCH, None, writes, writes)

    def _force_and_install(
        self, kind: str, txn: Optional[TransactionId], value: Any, writes: Dict[str, Any]
    ) -> None:
        self.wal.append(kind, txn, None, value)
        self.wal.force()
        self._committed.update(writes)
        self._pending.pop(txn, None)

    def ingest(
        self,
        entries: Iterable[Tuple[str, Optional[TransactionId], Optional[ObjectId], Any]],
    ) -> None:
        """Append log records shipped from another store as ``(kind, txn,
        obj, value)``, make them durable in one force and fold them — and
        nothing before them — into the committed cache.  A transaction whose
        COMMIT arrives in a later batch stays pending until then."""
        wal = self.wal
        records = [wal.append(kind, txn, obj, value) for kind, txn, obj, value in entries]
        crash_point("store.ingest.pre", wal)  # torn: tears the force below
        wal.force()
        wal.sync()
        wal_mod.fold(records, self._committed, self._pending)

    def sync(self) -> bool:
        """The physical barrier: drain the WAL's pending mirror syncs.  The
        store's owner calls this at the end of each mutating operation."""
        return self.wal.sync()

    # -- failure model -----------------------------------------------------------

    def crash(self) -> int:
        """Lose volatile state: unforced log records vanish and the committed
        cache is rebuilt from the durable log.  Returns records lost.

        The lock table is volatile too — locks held by transactions that were
        in flight at crash time die with them, so recovery-time transactions
        start against a clean table instead of conflicting with ghosts.
        """
        lost = self.wal.lose_unforced()
        self.recover()
        self.locks = LockManager()
        return lost

    def recover(self) -> None:
        """Rebuild the committed cache from the durable log (idempotent)."""
        committed: Dict[str, Any] = {}
        pending: Dict[TransactionId, List[LogRecord]] = {}
        wal_mod.fold(self.wal.durable_records(), committed, pending)
        self._committed, self._pending = committed, pending

    def checkpoint(self) -> None:
        """Compact the log around the current committed snapshot."""
        self.wal.checkpoint(self.snapshot())
        self._pending.clear()  # as a replay from the checkpoint would
