"""Coverage for ORB marshalling (docs/PROTOCOLS.md §11): what crosses is
plain data and proven records.  Tuples and records pass by reference when
deeply immutable and are copied otherwise, lists and dicts are copied one
loop per container, and anything else is refused; the zero-copy fast path,
sealed types, the ORB's traffic in the paper applications, and the
boundary a dispatch crosses."""

import collections
import dataclasses
import importlib
import typing

import pytest

from repro.core.values import ObjectRef
from repro.engine import outcome
from repro.engine.plan import compile_plan
from repro.orb import MarshalError, marshal, marshal_call, sealed
from repro.services import EXECUTION_INTERFACE, WorkflowSystem
from repro.services.execution import ExecutionError
from repro.services.worker import TaskWorker, WorkRequest, work_request
from repro.workloads import APPLICATIONS, chain, paper_order, script_text

# the module itself: the package's ``repro.orb.marshal`` is the function
marshal_module = importlib.import_module("repro.orb.marshal")
PlainDict = marshal_module.PlainDict


class TestZeroCopyFastPath:
    def test_immutable_tuple_by_reference(self):
        value = (1, "a", (2.5, None), ObjectRef("Data", ("x",)))
        assert marshal(value) is value

    def test_tuple_with_mutable_member_copied(self):
        value = (1, [2])
        copy = marshal(value)
        assert copy == value
        assert copy is not value
        assert copy[1] is not value[1]

    def test_mutable_copied_immutable_by_reference(self):
        """The structural copy is the handler for anything mutable; only a
        deeply immutable value may cross by reference."""
        Point = collections.namedtuple("Point", "x y")
        for value in (
            (1, (2, 3)),
            Point(1, ("a", None)),
            ObjectRef("Data", (1, "b")),
            (ObjectRef("Data", 1.0), Point(0, 0)),
        ):
            assert marshal(value) is value, value
        for value in (
            [1, 2],
            {"k": (1, 2)},
            (1, {"k": 2}),
            Point(1, [2]),
            (1, ObjectRef("Data", [2])),
        ):
            copy = marshal(value)
            assert type(copy) is type(value), value
            assert copy is not value, value
        nested = (1, [2, (3, 4)])
        copy = marshal(nested)
        assert copy == nested
        copy[1].append(5)
        assert nested[1] == [2, (3, 4)]  # the far side cannot reach our list


class TestPlainContainers:
    """Exact dicts and lists — every request and reply record — are copied
    by one loop per container: a primitive member is kept as it stands and
    a nested exact dict or list is copied one level down by the same loop;
    only any other member goes back through marshal."""

    @staticmethod
    def record_marshal_calls(monkeypatch):
        """Every ``marshal`` call from here on, as (value, depth)."""
        calls = []
        original = marshal_module.marshal

        def counting(value, _depth=0):
            calls.append((value, _depth))
            return original(value, _depth)

        monkeypatch.setattr(marshal_module, "marshal", counting)
        return calls

    def test_no_marshal_call_per_plain_member(self, monkeypatch):
        calls = self.record_marshal_calls(monkeypatch)
        record = {
            "a": 1, "b": "x", 3: None,
            "c": [1.5, True, b"y", {"d": None, "f": [[2]]}],
            "e": (1, 2),
        }
        copy = marshal_module.marshal(record)
        assert copy == record and copy is not record
        assert copy["c"] is not record["c"] and copy["c"][3] is not record["c"][3]
        assert copy["c"][3]["f"][0] is not record["c"][3]["f"][0]
        assert copy["e"] is record["e"]  # immutable tuple: by reference
        # the record itself, then only the tuple: no call for a primitive,
        # a nested dict or a nested list
        assert calls == [(record, 0), ((1, 2), 1)]

    def test_nested_containers_keep_the_depth_of_their_level(self, monkeypatch):
        """A member that does go back through marshal is told how deep it
        sits, although the dicts and lists above it never called marshal."""
        calls = self.record_marshal_calls(monkeypatch)
        marshal_module.marshal({"a": [{"b": [(1, [2])]}]})
        # record 0, list 1, dict 2, list 3: only the tuple (4) calls marshal,
        # and the tuple's copy calls it for both its members (5)
        assert [depth for _value, depth in calls] == [0, 4, 5, 5]

    def test_self_containing_dict_and_list_hit_the_depth_guard(self):
        own_dict = {}
        own_dict["self"] = own_dict
        own_list = []
        own_list.append(own_list)
        for cyclic in (own_dict, own_list):
            with pytest.raises(MarshalError, match="deeply nested"):
                marshal(cyclic)

    def test_primitive_subclasses_and_refused_members_still_go_through_marshal(self):
        import enum

        class Level(enum.IntEnum):
            LOW = 1

        class Name(str):
            pass

        copy = marshal({Name("k"): [Level.LOW, Name("v")]})
        assert copy == {"k": [1, "v"]}
        for value in ({"k": object()}, [object()], {"k": [{"deep": object()}]}):
            with pytest.raises(MarshalError):
                marshal(value)

    def test_cycle_still_hits_the_depth_guard(self):
        for cyclic in ([], {}):
            if isinstance(cyclic, list):
                cyclic.append({"again": cyclic})
            else:
                cyclic["again"] = [cyclic]
            with pytest.raises(MarshalError, match="deeply nested"):
                marshal(cyclic)


class TestMarshalProtocol:
    def test_unregistered_class_rejected(self):
        class Opaque:
            pass

        with pytest.raises(MarshalError):
            marshal([Opaque()])


@dataclasses.dataclass(frozen=True)
class Money:
    currency: str
    amount: float


class Envelope:
    """A class that says how to copy itself: the ORB does not ask."""

    def __init__(self, inner):
        self.inner = inner

    def __marshal__(self):
        return {"inner": self.inner}

    @classmethod
    def __unmarshal__(cls, state):
        return cls(state["inner"])


class TestRefused:
    """Only plain data and records cross: a set, a dataclass, an exception
    or a class with a copy protocol of its own is refused, by name, alone
    or inside a container."""

    @pytest.mark.parametrize("value", [
        {1, 2}, frozenset({1}), Money("EUR", 1.0), ValueError("boom"), Envelope(1),
    ], ids=["set", "frozenset", "dataclass", "exception", "protocol"])
    def test_refused_by_name(self, value):
        name = type(value).__qualname__
        for wrapped in (value, [value], {"k": value}, (1, value), ObjectRef("Data", value)):
            with pytest.raises(MarshalError, match=f"{name} is not transferable"):
                marshal(wrapped)


class TestTraffic:
    """What the system sends: the paper applications under a worker crash
    and loss, with every client operation called, build handlers for
    exact dicts, lists and tuples and for record types only."""

    @pytest.mark.parametrize("replicas", [0, 2])
    def test_only_plain_data_and_records_cross(self, replicas):
        marshal_module._DISPATCH.clear()
        called = set()
        for app in APPLICATIONS.values():
            system = WorkflowSystem(workers=2, replicas=replicas, seed=3, loss_rate=0.1)
            app.binder(system.registry)
            system.deploy(app.script_name, app.text)
            client = system.execution_proxy()
            iid = system.instantiate(app.script_name, app.root_task, app.inputs(0))
            system.clock.advance(3.0)
            system.worker_nodes[0].crash()
            assert system.run_until_terminal(iid, max_time=3_000.0)["status"] == "completed"
            other = system.instantiate(app.script_name, app.root_task, app.inputs(1))
            waiting = [row["path"] for row in client.tasks(other) if row["state"] == "wait"]
            for operation, args in [
                ("status", (iid,)), ("result", (iid,)), ("list_instances", ()),
                ("tasks", (iid,)), ("trace", (iid,)), ("external_tasks", (iid,)),
                ("resilience_report", ()), ("reconfigure", (other, app.text)),
                ("force_abort", (other, waiting[-1])),
                ("complete_task", (other, waiting[-1], "done", {"out": ["x"]})),
                ("compact", ()),
            ]:
                try:
                    getattr(client, operation)(*args)
                except ExecutionError:
                    pass  # refused: the arguments crossed, the refusal is raised as it stands
                called.add(operation)
            adopter = WorkflowSystem(workers=1, replicas=replicas)
            app.binder(adopter.registry)
            assert adopter.execution_proxy().import_instance(client.export_instance(iid)) == iid
            called |= {"instantiate", "export_instance", "import_instance"}
        assert called == set(EXECUTION_INTERFACE.operations)
        handled = set(marshal_module._DISPATCH)
        assert {dict, list} <= handled  # the client calls' answers
        assert all(
            cls in (dict, list, tuple) or (issubclass(cls, tuple) and hasattr(cls, "_fields"))
            for cls in handled
        ), handled


Point = collections.namedtuple("Point", ["x", "y"])


class TypedPoint(typing.NamedTuple):
    x: int
    payload: list


class AnonymousBag(dict):
    """Unregistered dict subclass: decays to a plain dict on the far side."""


class TestTupleSubclasses:
    def test_namedtuple_deep_copy(self):
        """Regression: namedtuple constructors take fields positionally, so
        ``type(value)(copied_list)`` raised TypeError (missing arguments)."""
        original = Point(1, [2, 3])
        copy = marshal(original)
        assert type(copy) is Point
        assert copy == original
        copy.y.append(4)
        assert original.y == [2, 3]

    def test_typing_namedtuple_deep_copy(self):
        original = TypedPoint(7, ["a"])
        copy = marshal(original)
        assert type(copy) is TypedPoint
        assert copy == original
        assert copy.payload is not original.payload

    def test_namedtuple_nested_in_containers(self):
        data = {"points": (Point(0, []), Point(1, []))}
        copy = marshal(data)
        assert copy == data
        assert type(copy["points"][0]) is Point


class TestDictSubclasses:
    def test_unregistered_subclass_decays_to_plain_dict(self):
        copy = marshal(AnonymousBag({"k": "v"}))
        assert type(copy) is dict
        assert copy == {"k": "v"}


class TestSealed:
    """A sealed type is checked deeply immutable once, when it is built,
    and then crosses by reference with no immutability walk."""

    def _template(self):
        script = chain(1)[0]
        return compile_plan(script).by_path["pipeline/t1"].template

    def test_template_crosses_by_reference_with_no_walk(self, monkeypatch):
        template = self._template()
        walks = []
        walk = marshal_module._items_immutable

        def counting(value, depth):
            walks.append(value)
            return walk(value, depth)

        monkeypatch.setattr(marshal_module, "_items_immutable", counting)
        assert marshal(template) is template
        assert marshal({"template": template})["template"] is template
        assert marshal([template])[0] is template
        assert walks == []

    @pytest.mark.parametrize(
        "field, value",
        [("properties", (("k", ["v"]),)), ("taskclass", ["t", (), ()]), ("code", {"x": 1})],
        ids=["list in properties", "list taskclass", "dict code"],
    )
    def test_template_with_a_mutable_member_is_refused(self, field, value):
        template = self._template()
        with pytest.raises(MarshalError, match="not deeply immutable"):
            dataclasses.replace(template, **{field: value})

    def test_only_a_frozen_dataclass_can_be_sealed(self):
        with pytest.raises(TypeError):

            @sealed
            @dataclasses.dataclass
            class Mutable:
                n: int


class TestMarshalCall:
    def test_args_and_kwargs_copied(self):
        ref = ObjectRef("Money", ("EUR", 3.0))
        args, kwargs = marshal_call((ref, [1, 2]), {"note": "hi", "items": {"k": [3]}})
        assert args == (ref, [1, 2]) and args[0] is ref
        assert kwargs == {"note": "hi", "items": {"k": [3]}}

    def test_unmarshalable_kwarg_rejected(self):
        class Opaque:
            pass

        with pytest.raises(MarshalError):
            marshal_call((), {"bad": Opaque()})


class TestWorkRequestBoundary:
    """What a dispatch is on the wire (docs/PROTOCOLS.md §11): a request
    proven plain when built crosses whole by reference, the static template
    always does, mutable application values cross by copy, and the fencing
    epoch is the one at send time."""

    def _request(self, value):
        script = chain(1)[0]
        template = compile_plan(script).by_path["pipeline/t1"].template
        return work_request(
            "wf-1", 1, template, "main", {"inp": ObjectRef("Data", value)},
            1, 0, "execution-node", 1,
        )

    def test_immutable_parts_cross_by_reference(self):
        request = self._request("payload")
        assert type(request) is PlainDict
        ((copy,), _kwargs) = marshal_call((request,), {})
        assert copy is request  # proven plain when built: no walk, no copy
        # the same fields unproven take the walk, which copies only the dict
        walked = WorkRequest(**request)
        copy = marshal(walked)
        assert copy == walked and copy is not walked
        assert copy["template"] is walked["template"]
        assert copy["inputs"] is walked["inputs"]

    @pytest.mark.parametrize("value", [["a"], {"k": ["a"]}], ids=["list", "dict"])
    def test_mutable_input_is_copied_the_template_is_not(self, value):
        request = self._request(value)
        assert type(request) is dict  # not proven: takes the walk
        copy = marshal(request)
        assert copy == request and copy is not request
        assert copy["template"] is request["template"]
        assert copy["inputs"][0][1].value is not value

    def test_worker_mutation_is_invisible_to_the_coordinator(self):
        def mutate(ctx):
            seen = ctx.value("inp")
            seen.append("worker was here")
            return outcome("done", out=list(seen))

        _script, registry, root, _inputs = workload = chain(1)
        registry.register("stage", mutate)
        # no sweep before the assertions: the finished instance keeps the
        # tree the worker's reply was applied to
        system = WorkflowSystem(workers=1, registry=registry, sweep_interval=1_000.0)
        system.deploy("chain", script_text(workload))
        iid = system.instantiate("chain", root, {"inp": ["original"]})
        result = system.run_until_terminal(iid)
        assert result["objects"]["out"]["value"] == ["original", "worker was here"]
        tree = system.execution.runtimes[iid].tree
        _input_set, held = tree.node_at("pipeline/t1").chosen
        assert held["inp"].value == ["original"]

    def test_a_flight_resent_under_a_new_epoch_is_a_new_proven_request(self, monkeypatch):
        executed = []
        execute = TaskWorker.execute

        def recording(self, request):
            executed.append((type(request), request["epoch"]))
            return execute(self, request)

        monkeypatch.setattr(TaskWorker, "execute", recording)
        _script, registry, root, inputs = workload = chain(1)
        system = WorkflowSystem(
            workers=1, registry=registry, dispatch_timeout=5.0, sweep_interval=2.0
        )
        system.deploy("chain", script_text(workload))
        invoke, lost = system.broker.invoke_deferred, []

        def lose_first_dispatch(caller, target, operation, args=(), **kwargs):
            if operation == "perform" and not lost:
                lost.append(args[0])  # the request leg is lost
                return
            invoke(caller, target, operation, args, **kwargs)

        system.broker.invoke_deferred = lose_first_dispatch
        iid = system.instantiate("chain", root, inputs)
        ((sent,),) = lost  # a batch of one
        built_under = system.execution.epoch
        system.execution.epoch = built_under + 3  # as a promotion would
        assert system.run_until_terminal(iid)["status"] == "completed"
        assert type(sent) is PlainDict and sent["epoch"] == built_under  # never changed in place
        assert executed == [(PlainDict, built_under + 3)]

    def test_epoch_is_stamped_when_a_flight_is_resent_after_promotion(self, monkeypatch):
        executed = []
        execute = TaskWorker.execute

        def recording(self, request):
            executed.append((request["template"].task_path, request["epoch"]))
            return execute(self, request)

        monkeypatch.setattr(TaskWorker, "execute", recording)
        system = WorkflowSystem(workers=2, replicas=2, lease_duration=30.0)
        paper_order.default_registry(registry=system.registry)
        system.deploy("order", paper_order.SCRIPT_TEXT)
        iid = system.instantiate("order", paper_order.ROOT_TASK, {"order": "o-1"})
        standby = system.execution_replicas[1]
        system.clock.advance(6.0)
        # a standby holds the journal and no runtime; the flights its store
        # says are open, built here under the epoch a standby has
        assert standby.runtimes == {}
        assert iid in standby.repl_status()["instances"]
        stale = {
            path: flight.request["epoch"]
            for (path, _exec), flight in standby._replay(iid).in_flight.items()
        }
        assert stale
        system.execution_node.crash()
        before = len(executed)
        assert system.run_until_terminal(iid, max_time=2_000.0)["status"] == "completed"
        assert system.primary_execution() is standby
        assert all(built_under < standby.epoch for built_under in stale.values())
        resent = executed[before:]
        assert all((path, standby.epoch) in resent for path in stale)
        # nothing went out under the epoch a standby has
        assert not set(stale.values()) & {epoch for _path, epoch in executed}
        assert standby.runtimes[iid].tree.status.value == "completed"
        assert standby.stats["fenced_replies"] == 0
