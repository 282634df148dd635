"""Unit tests for the ORB: marshalling, naming, invocation, failures."""

import pytest

from repro.core.values import ObjectRef
from repro.net import EventClock, LatencyModel, Network, Node
from repro.orb import (
    BadInterface,
    CommFailure,
    Interface,
    MarshalError,
    ObjectBroker,
    ObjectNotFound,
    Proxy,
    marshal,
)


class Calculator:
    def __init__(self):
        self.calls = 0

    def add(self, a, b):
        self.calls += 1
        return a + b

    def fail(self):
        raise ValueError("server-side")

    def echo(self, value):
        return value


CALC = Interface("Calculator", ("add", "fail", "echo"))


@pytest.fixture
def world():
    clock = EventClock()
    net = Network(clock, LatencyModel(1.0))
    broker = ObjectBroker(clock, net)
    server = Node("server", clock, net)
    client = Node("client", clock, net)
    servant = Calculator()
    broker.register("calc", CALC, servant, server)
    return clock, net, broker, server, client, servant


class TestMarshal:
    def test_primitives_pass_through(self):
        for value in (None, True, 3, 2.5, "s", b"b"):
            assert marshal(value) == value

    def test_containers_are_copied(self):
        original = {"k": [1, 2, {"n": (3, 4)}]}
        copy = marshal(original)
        assert copy == original
        copy["k"].append(99)
        assert len(original["k"]) == 3  # the original is untouched

    def test_sets_refused(self):
        for value in ({1, 2}, frozenset({1, 2})):
            with pytest.raises(MarshalError, match="set is not transferable"):
                marshal(value)

    def test_object_ref_is_transferable(self):
        ref = ObjectRef("Order", "o-1", "a/b", "done")
        copy = marshal(ref)
        assert copy == ref

    def test_arbitrary_object_rejected(self):
        class Opaque:
            pass

        with pytest.raises(MarshalError):
            marshal(Opaque())

    def test_exceptions_refused(self):
        with pytest.raises(MarshalError, match="ValueError is not transferable"):
            marshal(ValueError("boom"))

    def test_cycle_detected(self):
        loop = []
        loop.append(loop)
        with pytest.raises(MarshalError):
            marshal(loop)


class TestInvocation:
    def test_basic_invocation(self, world):
        clock, net, broker, server, client, servant = world
        assert broker.invoke(client, "calc", "add", 2, 3) == 5
        assert servant.calls == 1

    def test_unknown_object(self, world):
        clock, net, broker, server, client, servant = world
        with pytest.raises(ObjectNotFound):
            broker.invoke(client, "calc2", "add", 1, 2)

    def test_unknown_operation(self, world):
        clock, net, broker, server, client, servant = world
        with pytest.raises(BadInterface):
            broker.invoke(client, "calc", "subtract", 1, 2)

    def test_servant_must_implement_interface(self, world):
        clock, net, broker, server, client, servant = world
        with pytest.raises(BadInterface):
            broker.register("bad", CALC, object(), server)

    def test_server_exception_reaches_caller(self, world):
        clock, net, broker, server, client, servant = world
        with pytest.raises(ValueError):
            broker.invoke(client, "calc", "fail")

    def test_arguments_marshalled_not_shared(self, world):
        clock, net, broker, server, client, servant = world
        payload = {"inner": [1]}
        result = broker.invoke(client, "calc", "echo", payload)
        result["inner"].append(2)
        assert payload["inner"] == [1]

    def test_crashed_target_raises_comm_failure(self, world):
        clock, net, broker, server, client, servant = world
        server.crash()
        with pytest.raises(CommFailure):
            broker.invoke(client, "calc", "add", 1, 2)

    def test_partition_raises_comm_failure(self, world):
        clock, net, broker, server, client, servant = world
        net.partition({"client"}, {"server"})
        with pytest.raises(CommFailure):
            broker.invoke(client, "calc", "add", 1, 2)

    def test_same_node_call_bypasses_failure_checks(self, world):
        clock, net, broker, server, client, servant = world
        # servant co-located with caller: no marshalling boundary, no RTT
        assert broker.invoke(server, "calc", "add", 1, 1) == 2
        assert broker.stats.simulated_rtt == 0.0

    def test_remote_call_accumulates_rtt(self, world):
        clock, net, broker, server, client, servant = world
        broker.invoke(client, "calc", "add", 1, 1)
        broker.invoke(client, "calc", "add", 1, 1)
        assert broker.stats.simulated_rtt == 2 * broker.rtt


class TestDeferredInvocation:
    def test_reply_arrives_later(self, world):
        clock, net, broker, server, client, servant = world
        replies = []
        broker.invoke_deferred(client, "calc", "add", (4, 5), on_reply=replies.append)
        assert replies == []
        clock.run()
        assert replies == [9]

    def test_error_callback(self, world):
        clock, net, broker, server, client, servant = world
        errors = []
        broker.invoke_deferred(client, "calc", "fail", (), on_error=errors.append)
        clock.run()
        assert len(errors) == 1 and isinstance(errors[0], ValueError)

    def test_lost_request_never_calls_back(self, world):
        clock, net, broker, server, client, servant = world
        net.loss_rate = 0.999999
        replies = []
        broker.invoke_deferred(client, "calc", "add", (1, 1), on_reply=replies.append)
        clock.run()
        assert replies == []

    def test_target_crash_drops_request(self, world):
        clock, net, broker, server, client, servant = world
        replies = []
        broker.invoke_deferred(client, "calc", "add", (1, 1), on_reply=replies.append)
        server.crash()
        clock.run()
        assert replies == [] and servant.calls == 0

    def test_caller_crash_drops_reply(self, world):
        clock, net, broker, server, client, servant = world
        replies = []
        broker.invoke_deferred(client, "calc", "add", (1, 1), on_reply=replies.append)
        clock.call_at(1.5, client.crash)  # after request delivery, before reply
        clock.run()
        assert servant.calls == 1
        assert replies == []


class TestProxy:
    def test_proxy_forwards_calls(self, world):
        clock, net, broker, server, client, servant = world
        calc = Proxy(broker, client, "calc")
        assert calc.add(10, 20) == 30

    def test_proxy_rejects_unknown_operation(self, world):
        clock, net, broker, server, client, servant = world
        calc = Proxy(broker, client, "calc")
        with pytest.raises(BadInterface):
            calc.multiply
