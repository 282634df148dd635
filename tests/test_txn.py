"""Unit tests for stores, flat transactions and recovery."""

import pytest

from repro.txn import (
    NoSuchObject,
    ObjectStore,
    RetriesExhausted,
    TransactionAborted,
    TransactionManager,
    TransactionState,
)


@pytest.fixture
def store():
    return ObjectStore("s1")


@pytest.fixture
def tm(store):
    return TransactionManager("tm")


class TestStore:
    def test_read_missing_raises(self, store):
        with pytest.raises(NoSuchObject):
            store.read_committed("nope")

    def test_get_committed_default(self, store):
        assert store.get_committed("nope", 42) == 42

    def test_crash_loses_unforced_state_only(self, store, tm):
        with tm.begin() as txn:
            txn.write(store, "x", 1)
        store.crash()
        assert store.read_committed("x") == 1

    def test_snapshot_is_a_copy(self, store, tm):
        with tm.begin() as txn:
            txn.write(store, "x", 1)
        snap = store.snapshot()
        snap["x"] = 99
        assert store.read_committed("x") == 1

    def test_checkpoint_preserves_state(self, store, tm):
        for i in range(5):
            with tm.begin() as txn:
                txn.write(store, "x", i)
        store.checkpoint()
        store.crash()
        assert store.read_committed("x") == 4


class TestTransactions:
    def test_commit_installs_writes(self, store, tm):
        txn = tm.begin()
        txn.write(store, "x", "v")
        txn.commit()
        assert store.read_committed("x") == "v"
        assert txn.state is TransactionState.COMMITTED

    def test_abort_discards_writes(self, store, tm):
        txn = tm.begin()
        txn.write(store, "x", "v")
        txn.abort()
        assert "x" not in store.keys()

    def test_read_own_writes(self, store, tm):
        txn = tm.begin()
        txn.write(store, "x", 1)
        assert txn.read(store, "x") == 1
        txn.abort()

    def test_isolation_uncommitted_invisible(self, store, tm):
        txn = tm.begin()
        txn.write(store, "x", 1)
        assert "x" not in store.keys()
        txn.commit()

    def test_write_write_conflict_aborts_second(self, store, tm):
        t1 = tm.begin()
        t1.write(store, "x", 1)
        t2 = tm.begin()
        with pytest.raises(TransactionAborted):
            t2.write(store, "x", 2)
        assert t2.state is TransactionState.ABORTED
        t1.commit()
        assert store.read_committed("x") == 1

    def test_read_read_no_conflict(self, store, tm):
        with tm.begin() as setup:
            setup.write(store, "x", 0)
        t1, t2 = tm.begin(), tm.begin()
        assert t1.read(store, "x") == 0
        assert t2.read(store, "x") == 0
        t1.commit()
        t2.commit()

    def test_locks_released_on_commit(self, store, tm):
        t1 = tm.begin()
        t1.write(store, "x", 1)
        t1.commit()
        t2 = tm.begin()
        t2.write(store, "x", 2)
        t2.commit()
        assert store.read_committed("x") == 2

    def test_context_manager_commits_on_success(self, store, tm):
        with tm.begin() as txn:
            txn.write(store, "x", 1)
        assert store.read_committed("x") == 1

    def test_context_manager_aborts_on_exception(self, store, tm):
        with pytest.raises(RuntimeError):
            with tm.begin() as txn:
                txn.write(store, "x", 1)
                raise RuntimeError("boom")
        assert "x" not in store.keys()

    def test_operations_after_commit_rejected(self, store, tm):
        txn = tm.begin()
        txn.commit()
        with pytest.raises(TransactionAborted):
            txn.write(store, "x", 1)

    def test_writes_to_two_stores_are_refused(self, store, tm):
        other = ObjectStore("s2")
        with pytest.raises(ValueError, match="more than one store"):
            with tm.begin() as txn:
                txn.write(store, "x", 1)
                txn.write(other, "y", 2)
        assert txn.state is TransactionState.ABORTED
        assert "x" not in store.keys() and "y" not in other.keys()
        assert not store.locks._table and not other.locks._table

    def test_crash_before_commit_loses_writes(self, store, tm):
        txn = tm.begin()
        txn.write(store, "x", 1)
        store.crash()  # node dies mid-transaction
        assert "x" not in store.keys()

    def test_stats_track_outcomes(self, store, tm):
        with tm.begin() as txn:
            txn.write(store, "x", 1)
        bad = tm.begin()
        bad.abort()
        assert tm.stats["committed"] == 1
        assert tm.stats["aborted"] == 1


class TestRunWithRetries:
    def test_run_retries_conflicts(self, store, tm):
        with tm.begin() as setup:
            setup.write(store, "x", 0)
        blocker = tm.begin()
        blocker.write(store, "x", 99)
        calls = []

        def body(txn):
            calls.append(1)
            if len(calls) == 1:
                # first attempt hits the blocker's lock
                return txn.read(store, "x")
            return txn.read(store, "x")

        # release the blocker after the first conflict by running it inline:
        try:
            tm.run(lambda txn: txn.write(store, "x", 1), retries=0)
        except RetriesExhausted:
            pass
        blocker.commit()
        assert tm.run(lambda txn: txn.read(store, "x")) == 99

    def test_run_raises_after_retry_budget(self, store, tm):
        blocker = tm.begin()
        blocker.write(store, "x", 1)
        with pytest.raises(RetriesExhausted):
            tm.run(lambda txn: txn.write(store, "x", 2), retries=2)
        assert tm.stats["retried"] == 3

    def test_run_propagates_application_errors(self, store, tm):
        with pytest.raises(ValueError):
            tm.run(lambda txn: (_ for _ in ()).throw(ValueError("app")))
