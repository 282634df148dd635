"""Lock manager: strict two-phase locking with deadlock detection.

Two acquisition disciplines are offered:

* ``try_acquire`` — non-blocking; on conflict the caller typically aborts and
  retries (the execution service uses this: its transactions are short).
* ``acquire(..., wait=True)`` — enqueue behind the conflicting holders; a
  waits-for cycle raises :class:`DeadlockError` for the requester closing the
  cycle (its transaction should abort).

Locks are held until :meth:`release_all` at commit/abort — strict 2PL, which
is what gives the paper's atomic objects serialisable updates.

The table holds an entry only for objects that currently have a holder or a
waiter, and every transaction indexes the objects it holds and the queues it
may stand in, so a release costs O(objects of that transaction) however many
keys the store has ever locked.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Set, Tuple
from collections import deque

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


class DeadlockError(RuntimeError):
    """Blocking acquisition would create a waits-for cycle."""

    def __init__(self, txn: TransactionId, cycle: List[TransactionId]) -> None:
        super().__init__(f"deadlock: {txn} joins cycle {cycle}")
        self.txn = txn
        self.cycle = cycle


@dataclass
class _LockEntry:
    holders: Dict[TransactionId, LockMode] = field(default_factory=dict)
    waiters: Deque[Tuple[TransactionId, LockMode]] = field(default_factory=deque)

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
        # only objects with a holder or a waiter have an entry
        self._table: Dict[ObjectId, _LockEntry] = {}
        self._held: Dict[TransactionId, Set[ObjectId]] = defaultdict(set)
        # objects in whose waiter queue a transaction may stand: a superset,
        # emptied when the transaction releases
        self._waiting: Dict[TransactionId, Set[ObjectId]] = defaultdict(set)
        # waits-for graph: txn -> transactions it waits on
        self._waits_for: Dict[TransactionId, Set[TransactionId]] = defaultdict(set)
        # objects whose holders changed without a grant pass (transfer_all);
        # the next release_all looks at their queues
        self._regrant: Set[ObjectId] = set()

    # -- queries ---------------------------------------------------------------

    def holders(self, obj: ObjectId) -> Dict[TransactionId, LockMode]:
        entry = self._table.get(obj)
        return dict(entry.holders) if entry is not None else {}

    def held_by(self, txn: TransactionId) -> Set[ObjectId]:
        return set(self._held.get(txn, ()))

    def mode_of(self, txn: TransactionId, obj: ObjectId) -> Optional[LockMode]:
        entry = self._table.get(obj)
        return entry.holders.get(txn) if entry is not None else None

    def refuse_if_held(self, names: Iterable[str]) -> None:
        """Raise :class:`LockConflict` if an open transaction holds a lock on
        any of the objects ``names``; one truthiness test when none is held."""
        if self._table:
            for name in names:
                entry = self._table.get(ObjectId(name))
                if entry is not None and entry.holders:
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

    def acquire(self, txn: TransactionId, obj: ObjectId, mode: LockMode, wait: bool = False) -> None:
        """Acquire, raising :class:`LockConflict` (``wait=False``) or
        registering as a waiter and raising :class:`DeadlockError` on a
        waits-for cycle (``wait=True``)."""
        if self.try_acquire(txn, obj, mode):
            return
        entry = self._table[obj]
        holders = {t for t in entry.holders if t != txn}
        if not wait:
            raise LockConflict(txn, obj, holders)
        self._waits_for[txn] |= holders
        cycle = self._find_cycle(txn)
        if cycle:
            self._waits_for.pop(txn, None)
            raise DeadlockError(txn, cycle)
        entry.waiters.append((txn, mode))
        self._waiting[txn].add(obj)

    def _find_cycle(self, start: TransactionId) -> Optional[List[TransactionId]]:
        seen: Set[TransactionId] = set()
        path: List[TransactionId] = []

        def visit(txn: TransactionId) -> Optional[List[TransactionId]]:
            if txn in path:
                return path[path.index(txn):]
            if txn in seen:
                return None
            seen.add(txn)
            path.append(txn)
            for other in self._waits_for.get(txn, ()):
                found = visit(other)
                if found:
                    return found
            path.pop()
            return None

        return visit(start)

    # -- lock inheritance (nested transactions) ---------------------------------

    def transfer_all(self, child: TransactionId, parent: TransactionId) -> None:
        """Move every lock held by ``child`` to ``parent`` (Arjuna-style lock
        anti-inheritance: a committing nested transaction's locks are
        retained by its parent rather than released)."""
        for obj in self._held.pop(child, set()):
            entry = self._table[obj]
            mode = entry.holders.pop(child, None)
            if mode is None:
                continue
            current = entry.holders.get(parent)
            if current is not LockMode.EXCLUSIVE:
                entry.holders[parent] = (
                    LockMode.EXCLUSIVE if mode is LockMode.EXCLUSIVE else
                    current or mode
                )
            self._held[parent].add(obj)
            if entry.waiters:
                self._regrant.add(obj)
        self._waits_for.pop(child, None)
        for waiters in self._waits_for.values():
            waiters.discard(child)

    # -- release --------------------------------------------------------------

    def release_all(self, txn: TransactionId) -> List[Tuple[TransactionId, ObjectId]]:
        """Release every lock held by ``txn`` (strict 2PL release point) and
        grant queued waiters where now possible.  Returns the grants made as
        ``(waiter, object)`` pairs — objects in id order, FIFO within one
        object — so the caller can resume those transactions."""
        grants: List[Tuple[TransactionId, ObjectId]] = []
        table = self._table
        # a queue can only move where this call changes holders or waiters
        # (or transfer_all did): every other object keeps its blocked head
        touched = self._held.pop(txn, set())
        for obj in touched:
            table[obj].holders.pop(txn, None)
        self._waits_for.pop(txn, None)
        for waiters in self._waits_for.values():
            waiters.discard(txn)
        # drop the released transaction from the queues it stands in (it may
        # have been waiting elsewhere when it aborted)
        for obj in self._waiting.pop(txn, ()):
            entry = table.get(obj)
            if entry is not None and any(waiter == txn for waiter, _mode in entry.waiters):
                entry.waiters = deque(
                    (waiter, mode) for waiter, mode in entry.waiters if waiter != txn
                )
                touched.add(obj)
        if self._regrant:
            touched |= self._regrant
            self._regrant.clear()
        # grant pass: for each such object with waiters, admit compatible ones FIFO
        for obj in sorted(obj for obj in touched if table[obj].waiters):
            entry = table[obj]
            made_grant = True
            while made_grant and entry.waiters:
                waiter, mode = entry.waiters[0]
                if entry.compatible(waiter, mode):
                    entry.waiters.popleft()
                    entry.holders[waiter] = mode
                    self._held[waiter].add(obj)
                    self._waits_for.pop(waiter, None)
                    grants.append((waiter, obj))
                else:
                    made_grant = False
        for obj in touched:
            entry = table[obj]
            if not entry.holders and not entry.waiters:
                del table[obj]
        return grants
