"""Lock manager: strict two-phase locking without waiting.

A request that conflicts with another transaction's lock fails at once
(:meth:`LockManager.try_acquire` returns False, :meth:`LockManager.acquire`
raises :class:`LockConflict`); the caller aborts and retries.  The
repository's transactions are short, so nothing ever waits for a lock.

Locks are held until :meth:`release_all` at commit/abort — strict 2PL, which
serialises the repository's updates.

The table holds an entry only for objects that currently have a holder, and
every transaction indexes the objects it holds, so a release costs
O(objects of that transaction) however many keys the store has ever locked.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Set

from .ids import ObjectId, TransactionId


class LockMode(enum.Enum):
    SHARED = "shared"
    EXCLUSIVE = "exclusive"


class LockConflict(RuntimeError):
    """Non-blocking acquisition failed."""

    def __init__(
        self, txn: Optional[TransactionId], obj: ObjectId, holders: Set[TransactionId]
    ) -> None:
        who = txn or "a writer that takes no locks"
        super().__init__(f"{who} cannot lock {obj}: held by {sorted(holders)}")
        self.txn = txn
        self.obj = obj
        self.holders = set(holders)


@dataclass
class _LockEntry:
    holders: Dict[TransactionId, LockMode] = field(default_factory=dict)

    def compatible(self, txn: TransactionId, mode: LockMode) -> bool:
        others = {t: m for t, m in self.holders.items() if t != txn}
        if not others:
            return True
        if mode is LockMode.EXCLUSIVE:
            return False
        return all(m is LockMode.SHARED for m in others.values())


class LockManager:
    """Table of object locks, one per store."""

    def __init__(self) -> None:
        # only objects with a holder have an entry
        self._table: Dict[ObjectId, _LockEntry] = {}
        self._held: Dict[TransactionId, Set[ObjectId]] = defaultdict(set)

    def refuse_if_held(self, names: Iterable[str]) -> None:
        """Raise :class:`LockConflict` if an open transaction holds a lock on
        any of the objects ``names``; one truthiness test when none is held."""
        if self._table:
            for name in names:
                entry = self._table.get(ObjectId(name))
                if entry is not None:
                    raise LockConflict(None, ObjectId(name), set(entry.holders))

    # -- acquisition ----------------------------------------------------------

    def try_acquire(self, txn: TransactionId, obj: ObjectId, mode: LockMode) -> bool:
        """Acquire without waiting.  Returns False (and acquires nothing) if a
        conflicting holder exists.  Lock upgrades (shared -> exclusive by the
        sole holder) are supported."""
        entry = self._table.get(obj)
        if entry is None:
            entry = self._table[obj] = _LockEntry()
        current = entry.holders.get(txn)
        if current is LockMode.EXCLUSIVE or current is mode:
            return True
        if not entry.compatible(txn, mode):
            return False
        entry.holders[txn] = mode
        self._held[txn].add(obj)
        return True

    def acquire(self, txn: TransactionId, obj: ObjectId, mode: LockMode) -> None:
        """Acquire without waiting, raising :class:`LockConflict` if a
        conflicting holder exists."""
        if not self.try_acquire(txn, obj, mode):
            holders = {t for t in self._table[obj].holders if t != txn}
            raise LockConflict(txn, obj, holders)

    # -- release --------------------------------------------------------------

    def release_all(self, txn: TransactionId) -> None:
        """Release every lock held by ``txn`` (strict 2PL release point)."""
        table = self._table
        for obj in self._held.pop(txn, ()):
            entry = table[obj]
            entry.holders.pop(txn, None)
            if not entry.holders:
                del table[obj]
