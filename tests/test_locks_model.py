"""The indexed lock manager against the table-scanning one it replaced.

``ReferenceLockManager`` is the previous ``LockManager``, kept verbatim as
the model: its ``release_all`` purges waiters and grants by walking the whole
table, and its table never drops an entry.  A hypothesis state machine drives
both with the same random operations and demands the same answers.

One thing had to be pinned down to compare grant *order*.  The reference
grants in table order, which is the order objects were first touched — an
order that cannot outlive deleting entries.  The lock manager grants in
object-id order instead, so the reference's table is seeded with every object
in id order, which makes its first-touch order the same thing.
"""

from collections import defaultdict, deque
from typing import Dict, List, Optional, Set, Tuple

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.txn import ObjectStore, TransactionManager
from repro.txn.ids import ObjectId, TransactionId
from repro.txn.locks import (
    DeadlockError,
    LockConflict,
    LockManager,
    LockMode,
    _LockEntry,
)

TXNS = [TransactionId(n) for n in range(1, 5)]
OBJECTS = [ObjectId(name) for name in "abc"]  # few, so queues form


class ReferenceLockManager:
    """The lock manager as it was before release became O(own objects)."""

    def __init__(self) -> None:
        self._table: Dict[ObjectId, _LockEntry] = defaultdict(_LockEntry)
        self._held: Dict[TransactionId, Set[ObjectId]] = defaultdict(set)
        # waits-for graph: txn -> transactions it waits on
        self._waits_for: Dict[TransactionId, Set[TransactionId]] = defaultdict(set)
        for obj in sorted(OBJECTS):  # see the module docstring
            self._table[obj]

    # -- queries ---------------------------------------------------------------

    def holders(self, obj: ObjectId) -> Dict[TransactionId, LockMode]:
        return dict(self._table[obj].holders)

    def held_by(self, txn: TransactionId) -> Set[ObjectId]:
        return set(self._held.get(txn, ()))

    def mode_of(self, txn: TransactionId, obj: ObjectId) -> Optional[LockMode]:
        return self._table[obj].holders.get(txn)

    # -- acquisition ----------------------------------------------------------

    def try_acquire(self, txn: TransactionId, obj: ObjectId, mode: LockMode) -> bool:
        entry = self._table[obj]
        current = entry.holders.get(txn)
        if current is LockMode.EXCLUSIVE or current is mode:
            return True
        if not entry.compatible(txn, mode):
            return False
        entry.holders[txn] = mode
        self._held[txn].add(obj)
        return True

    def acquire(self, txn: TransactionId, obj: ObjectId, mode: LockMode, wait: bool = False) -> None:
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
        self._waits_for.pop(child, None)
        for waiters in self._waits_for.values():
            waiters.discard(child)

    # -- release --------------------------------------------------------------

    def release_all(self, txn: TransactionId) -> List[Tuple[TransactionId, ObjectId]]:
        grants: List[Tuple[TransactionId, ObjectId]] = []
        for obj in self._held.pop(txn, set()):
            entry = self._table[obj]
            entry.holders.pop(txn, None)
        self._waits_for.pop(txn, None)
        for waiters in self._waits_for.values():
            waiters.discard(txn)
        # drop the released transaction from every waiter queue (it may have
        # been waiting elsewhere when it aborted)
        for entry in self._table.values():
            if any(waiter == txn for waiter, _mode in entry.waiters):
                entry.waiters = deque(
                    (waiter, mode) for waiter, mode in entry.waiters if waiter != txn
                )
        # grant pass: for each object with waiters, admit compatible ones FIFO
        for obj, entry in list(self._table.items()):
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
        return grants


txns = st.sampled_from(TXNS)
objects = st.sampled_from(OBJECTS)
modes = st.sampled_from(list(LockMode))


class LockManagerAgainstReference(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.real = LockManager()
        self.model = ReferenceLockManager()

    @rule(txn=txns, obj=objects, mode=modes)
    def try_acquire(self, txn, obj, mode):
        assert self.real.try_acquire(txn, obj, mode) == self.model.try_acquire(txn, obj, mode)

    @rule(txn=txns, obj=objects, mode=modes, wait=st.booleans())
    def acquire(self, txn, obj, mode, wait):
        def attempt(manager):
            try:
                manager.acquire(txn, obj, mode, wait=wait)
            except LockConflict as error:
                return ("conflict", error.txn, error.obj, error.holders)
            except DeadlockError as error:
                return ("deadlock", error.txn, error.cycle)
            return None

        assert attempt(self.real) == attempt(self.model)

    @rule(child=txns, parent=txns)
    def transfer_all(self, child, parent):
        if child != parent:
            self.real.transfer_all(child, parent)
            self.model.transfer_all(child, parent)

    @rule(txn=txns)
    def release_all(self, txn):
        assert self.real.release_all(txn) == self.model.release_all(txn)

    @invariant()
    def same_locks_and_queues(self):
        for obj in OBJECTS:
            assert self.real.holders(obj) == self.model.holders(obj)
            entry = self.real._table.get(obj)
            queue = list(entry.waiters) if entry is not None else []
            assert queue == list(self.model._table[obj].waiters)
        for txn in TXNS:
            assert self.real.held_by(txn) == self.model.held_by(txn)
            for obj in OBJECTS:
                assert self.real.mode_of(txn, obj) is self.model.mode_of(txn, obj)
        assert self.real._waits_for == self.model._waits_for

    @invariant()
    def table_holds_only_live_entries(self):
        for obj, entry in self.real._table.items():
            assert entry.holders or entry.waiters, obj


LockManagerAgainstReference.TestCase.settings = settings(
    max_examples=400, stateful_step_count=50, deadline=None
)
TestLockManagerAgainstReference = LockManagerAgainstReference.TestCase


def test_transfer_leaves_a_grant_for_the_next_release():
    """The case the state machine found worth naming: ``transfer_all`` can
    unblock a queue head (the parent's own upgrade, once the child's share is
    its own) but grants nothing itself; the next release by *anyone* does."""
    real, model = LockManager(), ReferenceLockManager()
    child, parent, bystander = TXNS[:3]
    a, b = OBJECTS[:2]
    for manager in (real, model):
        manager.try_acquire(child, a, LockMode.SHARED)
        manager.try_acquire(parent, a, LockMode.SHARED)
        manager.acquire(parent, a, LockMode.EXCLUSIVE, wait=True)
        manager.try_acquire(bystander, b, LockMode.EXCLUSIVE)
        manager.transfer_all(child, parent)
    assert real.release_all(bystander) == model.release_all(bystander) == [(parent, a)]
    assert real.mode_of(parent, a) is LockMode.EXCLUSIVE


def test_giving_up_at_the_head_of_a_queue_unblocks_the_one_behind():
    """A release changes queues the transaction did not hold: here it only
    *waited* on the object, ahead of an upgrade that nothing else blocks."""
    real, model = LockManager(), ReferenceLockManager()
    sharer, upgrader, quitter = TXNS[:3]
    a = OBJECTS[0]
    for manager in (real, model):
        manager.try_acquire(sharer, a, LockMode.SHARED)
        manager.try_acquire(upgrader, a, LockMode.SHARED)
        manager.acquire(quitter, a, LockMode.EXCLUSIVE, wait=True)
        manager.acquire(upgrader, a, LockMode.EXCLUSIVE, wait=True)
        assert manager.release_all(sharer) == []  # the quitter is first in line
    assert real.release_all(quitter) == model.release_all(quitter) == [(upgrader, a)]
    assert real.mode_of(upgrader, a) is LockMode.EXCLUSIVE


def test_table_is_empty_after_a_thousand_committed_transactions():
    store = ObjectStore("s")
    manager = TransactionManager("tm")
    for n in range(1000):
        manager.run(lambda txn, n=n: txn.write(store, f"key-{n}", n))
    locks = store.locks
    assert len(store.keys()) == 1000
    assert len(locks._table) == 0
    assert not locks._held and not locks._waiting and not locks._waits_for


def test_waiter_that_gave_up_is_gone_from_every_queue():
    locks = LockManager()
    holder, quitter, patient = TXNS[:3]
    a, b = OBJECTS[:2]
    locks.try_acquire(holder, a, LockMode.EXCLUSIVE)
    locks.try_acquire(holder, b, LockMode.EXCLUSIVE)
    locks.acquire(quitter, a, LockMode.EXCLUSIVE, wait=True)
    locks.acquire(patient, a, LockMode.SHARED, wait=True)
    locks.acquire(quitter, b, LockMode.SHARED, wait=True)
    assert locks.release_all(quitter) == []  # the holder still blocks everyone
    for entry in locks._table.values():
        assert all(waiter != quitter for waiter, _mode in entry.waiters)
    assert quitter not in locks._waiting
    assert locks.release_all(holder) == [(patient, a)]
    assert set(locks._table) == {a}  # b had only the quitter: its entry is gone
    locks.release_all(patient)
    assert len(locks._table) == 0
