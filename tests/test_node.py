"""Unit tests for simulated nodes and services."""

import pytest

from repro.net.clock import EventClock
from repro.net.network import LatencyModel, Network
from repro.net.node import Node, NodeCrashed, Service
from repro.txn import wal as wal_mod
from repro.txn.ids import ObjectId, TransactionId
from repro.txn.locks import LockMode
from repro.txn.store import ObjectStore


class Recorder(Service):
    def __init__(self, name="svc"):
        super().__init__(name)
        self.messages = []
        self.started = 0
        self.recovered = 0

    def on_start(self):
        self.started += 1

    def on_message(self, message):
        self.messages.append(message.payload)

    def on_recover(self):
        self.recovered += 1


def half_done(store, writes):
    """Leave ``writes`` as a machine crash finds an interrupted commit: logged
    and locked, visible in the cache, not forced."""
    txn = TransactionId(1)
    for key in writes:
        store.locks.acquire(txn, ObjectId(key), LockMode.EXCLUSIVE)
    store.wal.append(wal_mod.BATCH, None, None, writes)
    store._committed.update(writes)


@pytest.fixture
def world():
    clock = EventClock()
    net = Network(clock, LatencyModel(1.0))
    return clock, net


class TestServices:
    def test_install_calls_on_start(self, world):
        clock, net = world
        node = Node("a", clock, net)
        svc = node.install(Recorder())
        assert svc.started == 1
        assert svc.node is node

    def test_duplicate_service_rejected(self, world):
        clock, net = world
        node = Node("a", clock, net)
        node.install(Recorder("x"))
        with pytest.raises(Exception):
            node.install(Recorder("x"))

    def test_addressed_message_routed_to_named_service(self, world):
        clock, net = world
        a, b = Node("a", clock, net), Node("b", clock, net)
        svc1, svc2 = b.install(Recorder("one")), b.install(Recorder("two"))
        a.send("b", {"service": "two", "data": 1})
        clock.run()
        assert svc1.messages == []
        assert len(svc2.messages) == 1

    def test_unaddressed_message_broadcast(self, world):
        clock, net = world
        a, b = Node("a", clock, net), Node("b", clock, net)
        svc1, svc2 = b.install(Recorder("one")), b.install(Recorder("two"))
        a.send("b", "plain")
        clock.run()
        assert svc1.messages == ["plain"]
        assert svc2.messages == ["plain"]


class TestCrashRecover:
    def test_crashed_node_cannot_send(self, world):
        clock, net = world
        node = Node("a", clock, net)
        node.crash()
        with pytest.raises(NodeCrashed):
            node.send("b", "x")

    def test_crashed_node_does_not_receive(self, world):
        clock, net = world
        a, b = Node("a", clock, net), Node("b", clock, net)
        svc = b.install(Recorder())
        b.crash()
        a.send("b", "x")
        clock.run()
        assert svc.messages == []

    def test_recover_calls_on_recover(self, world):
        clock, net = world
        node = Node("a", clock, net)
        svc = node.install(Recorder())
        node.crash()
        node.recover()
        assert svc.recovered == 1

    def test_recovered_node_receives_again(self, world):
        clock, net = world
        a, b = Node("a", clock, net), Node("b", clock, net)
        svc = b.install(Recorder())
        b.crash()
        b.recover()
        a.send("b", "x")
        clock.run()
        assert svc.messages == ["x"]

    def test_crash_is_idempotent(self, world):
        clock, net = world
        node = Node("a", clock, net)
        node.crash()
        node.crash()
        assert node.crash_count == 1

    def test_attached_stores_keep_exactly_their_forced_prefix(self, world):
        """Of every attached store, the forced prefix — and exactly that."""
        clock, net = world
        node = Node("a", clock, net)
        stores = [node.attach(ObjectStore(name)) for name in ("s1", "s2")]
        for n, store in enumerate(stores):
            store.commit_batch({"forced": n})
            half_done(store, {"unforced": n})
            assert len(store.wal) == store.wal.durable_length + 1
        node.crash()
        for n, store in enumerate(stores):
            assert store.snapshot() == {"forced": n}
            assert len(store.wal) == store.wal.durable_length == 1
            assert store.locks.holders(ObjectId("unforced")) == {}  # died with the machine
        node.recover()
        assert [store.snapshot() for store in stores] == [{"forced": 0}, {"forced": 1}]

    def test_store_crash_then_node_crash_is_node_crash_alone(self, world):
        """The frozen benchmark's order: a second crash of a store loses
        nothing more and folds to the same cache."""
        clock, net = world

        def crashed(store_first):
            node = Node("a" if store_first else "b", clock, net)
            store = node.attach(ObjectStore("s"))
            store.commit_batch({"k": 1, "gone": 0})
            store.commit_batch({"k": 2})
            half_done(store, {"k": 3})
            if store_first:
                assert store.crash() == 1
            node.crash()
            return store.snapshot(), list(store.wal.durable_records()), len(store.wal)

        assert crashed(store_first=True) == crashed(store_first=False)
        assert crashed(store_first=True)[0] == {"k": 2, "gone": 0}

    def test_recovery_presents_the_folded_store_to_on_recover(self, world):
        clock, net = world
        node = Node("a", clock, net)
        store = node.attach(ObjectStore("s"))

        class Reader(Service):
            seen = None

            def on_recover(self):
                self.seen = store.snapshot()

        reader = node.install(Reader("reader"))
        store.commit_batch({"k": "forced"})
        half_done(store, {"k": "unforced"})
        assert store.get_committed("k") == "unforced"  # the live cache ran ahead
        node.crash()
        node.recover()
        assert reader.seen == {"k": "forced"}

    def test_a_node_without_stores_still_crashes(self, world):
        clock, net = world
        node = Node("a", clock, net)
        assert node.stores() == []
        node.crash()
        assert not node.alive


class TestTimers:
    def test_timer_fires_on_live_node(self, world):
        clock, net = world
        node = Node("a", clock, net)
        seen = []
        node.call_after(5.0, lambda: seen.append(clock.now))
        clock.run()
        assert seen == [5.0]

    def test_timer_suppressed_if_node_crashed(self, world):
        clock, net = world
        node = Node("a", clock, net)
        seen = []
        node.call_after(5.0, lambda: seen.append(1))
        node.crash()
        clock.run()
        assert seen == []

    def test_timer_from_before_crash_suppressed_after_recovery(self, world):
        clock, net = world
        node = Node("a", clock, net)
        seen = []
        node.call_after(5.0, lambda: seen.append(1))
        clock.call_at(1.0, node.crash)
        clock.call_at(2.0, node.recover)
        clock.run()
        assert seen == []  # epoch changed: old timers are dead
