"""Additional coverage for ORB marshalling protocols: transferable
dataclasses, the __marshal__/__unmarshal__ hook, structural copies of
tuple/dict subclasses (namedtuples and registered containers), and the
zero-copy fast path for deeply immutable values (docs/PROTOCOLS.md §11)."""

import collections
import dataclasses
import typing

import pytest

from repro.core.values import ObjectRef
from repro.engine import outcome
from repro.engine.plan import compile_plan
from repro.orb import MarshalError, is_transferable, marshal, marshal_call, transferable
from repro.services import WorkflowSystem
from repro.services.worker import TaskWorker, WorkRequest
from repro.workloads import chain, paper_order, script_text


@transferable
@dataclasses.dataclass(frozen=True)
class Money:
    currency: str
    amount: float


@transferable
class Envelope:
    """Non-dataclass transferable via the explicit protocol."""

    def __init__(self, inner):
        self.inner = inner

    def __marshal__(self):
        return {"inner": self.inner}

    @classmethod
    def __unmarshal__(cls, state):
        return cls(state["inner"])

    def __eq__(self, other):
        return isinstance(other, Envelope) and other.inner == self.inner


class TestTransferableDataclasses:
    def test_registered(self):
        assert is_transferable(Money)

    def test_frozen_immutable_passes_by_reference(self):
        """Zero-copy fast path: a frozen dataclass whose fields are all
        immutable is indistinguishable shared or copied, so marshal returns
        it by reference."""
        original = Money("EUR", 12.5)
        copy = marshal(original)
        assert copy == original
        assert copy is original

    def test_nested_inside_containers(self):
        data = {"payments": [Money("EUR", 1.0), Money("USD", 2.0)]}
        copy = marshal(data)
        assert copy == data
        assert copy["payments"][0] is data["payments"][0]  # immutable leaf
        assert copy["payments"] is not data["payments"]  # mutable list copied

    def test_frozen_with_mutable_field_still_copied(self):
        @transferable
        @dataclasses.dataclass(frozen=True)
        class Basket:
            items: list

        original = Basket([1, 2])
        copy = marshal(original)
        assert copy == original
        assert copy is not original
        assert copy.items is not original.items

    def test_mutable_dataclass_still_copied(self):
        @transferable
        @dataclasses.dataclass
        class Counter:
            n: int

        original = Counter(3)
        copy = marshal(original)
        assert copy == original
        assert copy is not original


class TestZeroCopyFastPath:
    def test_immutable_tuple_by_reference(self):
        value = (1, "a", (2.5, None), frozenset({"x"}))
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
            frozenset({1, (2, "b")}),
            Money("EUR", 1.0),
            (Money("EUR", 1.0), Point(0, 0)),
        ):
            assert marshal(value) is value, value
        for value in (
            [1, 2],
            {"k": (1, 2)},
            {1, 2},
            (1, {"k": 2}),
            Point(1, [2]),
            (1, Envelope(2)),
        ):
            copy = marshal(value)
            assert type(copy) is type(value), value
            assert copy is not value, value
        nested = (1, [2, (3, 4)])
        copy = marshal(nested)
        assert copy == nested
        copy[1].append(5)
        assert nested[1] == [2, (3, 4)]  # the far side cannot reach our list

    def test_late_registration_invalidates_dispatch_cache(self):
        """A type first marshalled (and rejected) before registration must be
        re-classified after @transferable — the memoized dispatch cache may
        not serve the stale 'unmarshalable' handler."""

        @dataclasses.dataclass(frozen=True)
        class LateComer:
            tag: str

        with pytest.raises(MarshalError):
            marshal(LateComer("early"))

        transferable(LateComer)
        copy = marshal(LateComer("late"))
        assert copy == LateComer("late")

    def test_late_registration_of_dict_subclass(self):
        """An unregistered dict subclass decays to plain dict; registering it
        afterwards must flip the cached handler to type-preserving."""

        class LateHeaders(dict):
            pass

        assert type(marshal(LateHeaders({"a": 1}))) is dict
        transferable(LateHeaders)
        assert type(marshal(LateHeaders({"a": 1}))) is LateHeaders


class TestPlainContainers:
    """Exact dicts and lists — every request and reply record — copy their
    primitive members in place; only containers go back through marshal."""

    def test_only_containers_recurse(self, monkeypatch):
        import importlib

        marshal_mod = importlib.import_module("repro.orb.marshal")
        depths = []
        original = marshal_mod.marshal

        def counting(value, _depth=0):
            depths.append(_depth)
            return original(value, _depth)

        monkeypatch.setattr(marshal_mod, "marshal", counting)
        record = {"a": 1, "b": "x", 3: None, "c": [1.5, True, b"y", {"d": None}], "e": (1, 2)}
        copy = counting(record)
        assert copy == record and copy is not record
        assert copy["c"] is not record["c"] and copy["c"][3] is not record["c"][3]
        assert copy["e"] is record["e"]  # immutable tuple: by reference
        # the record, its list, the list's dict, the tuple: no call per primitive
        assert sorted(depths) == [0, 1, 1, 2]

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
    def test_roundtrip_through_protocol(self):
        env = Envelope({"k": [1, 2]})
        copy = marshal(env)
        assert copy == env
        copy.inner["k"].append(3)
        assert env.inner["k"] == [1, 2]  # deep copy

    def test_unregistered_class_rejected(self):
        class Opaque:
            pass

        with pytest.raises(MarshalError):
            marshal([Opaque()])


Point = collections.namedtuple("Point", ["x", "y"])


class TypedPoint(typing.NamedTuple):
    x: int
    payload: list


@transferable
class Headers(dict):
    """Registered dict subclass: the subclass type must survive the copy."""


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
    def test_registered_subclass_type_preserved(self):
        """Regression: registered dict subclasses silently decayed to plain
        dicts because the dict branch never consulted the registry."""
        original = Headers({"a": [1]})
        copy = marshal(original)
        assert type(copy) is Headers
        assert copy == {"a": [1]}
        copy["a"].append(2)
        assert original["a"] == [1]

    def test_unregistered_subclass_decays_to_plain_dict(self):
        copy = marshal(AnonymousBag({"k": "v"}))
        assert type(copy) is dict
        assert copy == {"k": "v"}


class TestMarshalCall:
    def test_args_and_kwargs_copied(self):
        args, kwargs = marshal_call((Money("EUR", 3.0),), {"note": "hi"})
        assert args[0] == Money("EUR", 3.0)
        assert kwargs == {"note": "hi"}

    def test_unmarshalable_kwarg_rejected(self):
        class Opaque:
            pass

        with pytest.raises(MarshalError):
            marshal_call((), {"bad": Opaque()})


class TestWorkRequestBoundary:
    """What a dispatch is on the wire (docs/PROTOCOLS.md §11): the static
    template crosses by reference, mutable application values by copy, and
    the fencing epoch is the one at send time."""

    def _request(self, value):
        script = chain(1)[0]
        template = compile_plan(script, analyze=False).by_path["pipeline/t1"].template
        return WorkRequest(
            instance_id="wf-1", execution_index=1, template=template,
            input_set="main", inputs=(("inp", ObjectRef("Data", value)),),
            attempt=1, repeats=0, reply_to="execution-node", epoch=1,
        )

    def test_immutable_parts_cross_by_reference(self):
        request = self._request("payload")
        ((copy,), _kwargs) = marshal_call((request,), {})
        assert copy == request and copy is not request  # the dict itself is copied
        assert copy["template"] is request["template"]
        assert copy["inputs"] is request["inputs"]

    @pytest.mark.parametrize("value", [["a"], {"k": ["a"]}], ids=["list", "dict"])
    def test_mutable_input_is_copied_the_template_is_not(self, value):
        request = self._request(value)
        copy = marshal(request)
        assert copy == request
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
