"""Unit tests for stores, transactions, 2PC and recovery."""

import pytest

from repro.txn import (
    AtomicObject,
    NoSuchObject,
    ObjectStore,
    RetriesExhausted,
    TransactionAborted,
    TransactionManager,
    TransactionState,
    recover_with_coordinator,
)


@pytest.fixture
def store():
    return ObjectStore("s1")


@pytest.fixture
def tm(store):
    return TransactionManager("tm", decision_store=store)


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
        assert not store.exists("x")

    def test_read_own_writes(self, store, tm):
        txn = tm.begin()
        txn.write(store, "x", 1)
        assert txn.read(store, "x") == 1
        txn.abort()

    def test_isolation_uncommitted_invisible(self, store, tm):
        txn = tm.begin()
        txn.write(store, "x", 1)
        assert not store.exists("x")
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
        assert not store.exists("x")

    def test_operations_after_commit_rejected(self, store, tm):
        txn = tm.begin()
        txn.commit()
        with pytest.raises(TransactionAborted):
            txn.write(store, "x", 1)

    def test_crash_before_commit_loses_writes(self, store, tm):
        txn = tm.begin()
        txn.write(store, "x", 1)
        store.crash()  # node dies mid-transaction
        assert not store.exists("x")

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


class TestTwoPhaseCommit:
    def test_commit_spans_two_stores(self, tm):
        s1, s2 = ObjectStore("s1"), ObjectStore("s2")
        txn = tm.begin()
        txn.write(s1, "x", 1)
        txn.write(s2, "y", 2)
        txn.commit()
        assert s1.read_committed("x") == 1
        assert s2.read_committed("y") == 2

    def test_participants_log_prepare(self, tm):
        s1, s2 = ObjectStore("s1"), ObjectStore("s2")
        txn = tm.begin()
        txn.write(s1, "x", 1)
        txn.write(s2, "y", 2)
        txn.commit()
        kinds1 = [r.kind for r in s1.wal.durable_records()]
        assert "PREPARE" in kinds1 and "COMMIT" in kinds1

    def test_in_doubt_participant_resolves_commit(self, tm):
        s1, s2 = ObjectStore("s1"), ObjectStore("s2")
        txn = tm.begin()
        txn.write(s1, "x", 1)
        txn.write(s2, "y", 2)
        txn.commit()
        # simulate s2 crashing right after PREPARE: rebuild it from a log
        # that has no COMMIT record
        s2b = ObjectStore("s2b")
        tid = txn.tid
        s2b.log_updates(tid, {"y": 2})
        s2b.prepare(tid)
        s2b.crash()
        assert list(s2b.in_doubt()) == [tid]
        decisions = recover_with_coordinator(s2b, tm)
        assert decisions[tid] is True
        assert s2b.read_committed("y") == 2

    def test_in_doubt_without_decision_presumed_abort(self, store):
        lonely = TransactionManager("other", decision_store=ObjectStore("d"))
        s = ObjectStore("s")
        from repro.txn import TransactionId

        tid = TransactionId(77, "gone")
        s.log_updates(tid, {"x": 1})
        s.prepare(tid)
        decisions = recover_with_coordinator(s, lonely)
        assert decisions[tid] is False
        assert not s.exists("x")


class TestAtomicObject:
    def test_initial_value_durable(self, store, tm):
        counter = AtomicObject(store, "c", initial=0)
        store.crash()
        assert counter.peek() == 0

    def test_modify_read_modify_write(self, store, tm):
        counter = AtomicObject(store, "c", initial=10)
        with tm.begin() as txn:
            new = counter.modify(txn, lambda v: v + 5)
        assert new == 15
        assert counter.peek() == 15

    def test_existing_object_not_reinitialised(self, store, tm):
        AtomicObject(store, "c", initial=1)
        again = AtomicObject(store, "c", initial=99)
        assert again.peek() == 1

    def test_peek_missing_returns_none(self, store):
        obj = AtomicObject(store, "ghost", create=False)
        assert obj.peek() is None
