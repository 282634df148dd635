"""Unit tests for the strict-2PL lock manager (non-blocking)."""

import pytest

from repro.txn.ids import ObjectId, TransactionId
from repro.txn.locks import LockConflict, LockManager, LockMode

T1, T2, T3 = TransactionId(1), TransactionId(2), TransactionId(3)
A, B = ObjectId("a"), ObjectId("b")


@pytest.fixture
def locks():
    return LockManager()


def mode_of(locks, txn, obj):
    entry = locks._table.get(obj)
    return entry.holders.get(txn) if entry is not None else None


class TestBasicModes:
    def test_exclusive_acquire(self, locks):
        assert locks.try_acquire(T1, A, LockMode.EXCLUSIVE)
        assert mode_of(locks, T1, A) is LockMode.EXCLUSIVE

    def test_shared_locks_compatible(self, locks):
        assert locks.try_acquire(T1, A, LockMode.SHARED)
        assert locks.try_acquire(T2, A, LockMode.SHARED)

    def test_exclusive_blocks_shared(self, locks):
        locks.try_acquire(T1, A, LockMode.EXCLUSIVE)
        assert not locks.try_acquire(T2, A, LockMode.SHARED)

    def test_shared_blocks_exclusive(self, locks):
        locks.try_acquire(T1, A, LockMode.SHARED)
        assert not locks.try_acquire(T2, A, LockMode.EXCLUSIVE)

    def test_reacquire_same_mode_is_noop(self, locks):
        locks.try_acquire(T1, A, LockMode.SHARED)
        assert locks.try_acquire(T1, A, LockMode.SHARED)

    def test_upgrade_by_sole_holder(self, locks):
        locks.try_acquire(T1, A, LockMode.SHARED)
        assert locks.try_acquire(T1, A, LockMode.EXCLUSIVE)
        assert mode_of(locks, T1, A) is LockMode.EXCLUSIVE

    def test_upgrade_refused_with_other_sharers(self, locks):
        locks.try_acquire(T1, A, LockMode.SHARED)
        locks.try_acquire(T2, A, LockMode.SHARED)
        assert not locks.try_acquire(T1, A, LockMode.EXCLUSIVE)

    def test_exclusive_holder_may_downgrade_request(self, locks):
        locks.try_acquire(T1, A, LockMode.EXCLUSIVE)
        assert locks.try_acquire(T1, A, LockMode.SHARED)
        # holding exclusive already covers shared
        assert mode_of(locks, T1, A) is LockMode.EXCLUSIVE


class TestConflictsAndRelease:
    def test_acquire_raises_lock_conflict(self, locks):
        locks.try_acquire(T1, A, LockMode.EXCLUSIVE)
        with pytest.raises(LockConflict) as info:
            locks.acquire(T2, A, LockMode.SHARED)
        assert info.value.holders == {T1}

    def test_release_all_frees_objects(self, locks):
        locks.try_acquire(T1, A, LockMode.EXCLUSIVE)
        locks.try_acquire(T1, B, LockMode.SHARED)
        locks.release_all(T1)
        assert locks.try_acquire(T2, A, LockMode.EXCLUSIVE)
        assert locks.try_acquire(T2, B, LockMode.EXCLUSIVE)

    def test_release_all_empties_the_table(self, locks):
        locks.try_acquire(T1, A, LockMode.SHARED)
        locks.try_acquire(T2, A, LockMode.SHARED)
        locks.try_acquire(T1, B, LockMode.EXCLUSIVE)
        locks.release_all(T1)
        assert set(locks._table) == {A}
        locks.release_all(T2)
        assert not locks._table and not locks._held


class TestQueriesHaveNoSideEffects:
    def test_query_on_unknown_object_leaves_table_unchanged(self, locks):
        locks.try_acquire(T1, A, LockMode.SHARED)
        before = dict(locks._table)
        locks.refuse_if_held(["b", "never-locked"])
        with pytest.raises(LockConflict):
            locks.refuse_if_held(["a"])
        assert locks._table == before
        assert T3 not in locks._held
