"""Step messages on the wire (docs/PROTOCOLS.md §3, §11).

* A request, reply or mark is flagged plain (built as its by-reference twin)
  only when the ORB's immutability walk would also pass it by reference — a
  hypothesis property over nested values, with a seeded mutant of the proof
  that the property must catch.
* Neither side of the ORB can change what the other holds: an
  implementation mutating an input, a list it returned, or the objects of a
  mark after marking.
* A leg on a healthy network is one latency draw, bit-identical to
  ``Network.sample_delays``; with any fault set, legs take the general path.
"""

import copy as copy_module
import importlib
import inspect
import pickle
import sys
import types

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.core.schema import OutputKind
from repro.core.values import ObjectRef
from repro.engine import outcome
from repro.engine.context import TaskResult
from repro.engine.plan import compile_plan
from repro.net import EventClock, LatencyModel, Network, Node
from repro.orb import MarshalError, ObjectBroker, marshal
from repro.orb.marshal import PlainDict
from repro.services import WorkflowSystem
from repro.services import worker as worker_module
from repro.services.journal import Journal
from repro.sim.nemesis import Burst, NemesisSchedule, Partition
from repro.workloads import APPLICATIONS, chain, fan, script_text

marshal_module = importlib.import_module("repro.orb.marshal")

TEMPLATE = compile_plan(chain(1)[0]).by_path["pipeline/t1"].template


# -- the plain proof -------------------------------------------------------------------

primitives = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=4), st.binary(max_size=4),
)
values = st.recursive(
    primitives,
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.lists(inner, max_size=2),
        st.dictionaries(st.text(max_size=2), inner, max_size=2),
    ),
    max_leaves=4,
)
# an ObjectRef may hold a mutable value, or even a mutable field
fields = st.one_of(st.none(), st.text(max_size=3), st.lists(st.text(max_size=2), max_size=1))
refs = st.builds(ObjectRef, st.one_of(st.text(max_size=3), fields), values, fields, fields)
objects = st.dictionaries(st.text(max_size=3), refs, max_size=3)
outputs = st.dictionaries(st.text(max_size=3), st.one_of(values, refs), max_size=3)


def demoted(record):
    """``record`` rebuilt as plain record types all the way down, so the walk
    looks inside instead of trusting a twin.  A proven request becomes the
    tuple of its keys and values: the walk never passes a dict by reference,
    but would pass all of those."""
    if type(record) is PlainDict:
        return tuple(demoted(item) for pair in record.items() for item in pair)
    if isinstance(record, tuple) and type(record) in marshal_module.BY_REFERENCE:
        base = type(record).__mro__[1]
        return tuple.__new__(base, tuple(demoted(item) for item in record))
    if type(record) is tuple:
        return tuple(demoted(item) for item in record)
    return record


def assert_proof_sound(record):
    """Flagged plain only where marshal's walk also passes it by reference;
    either way, what crosses equals what was built."""
    if type(record) in marshal_module.BY_REFERENCE:
        walked = demoted(record)
        assert marshal(walked) is walked, record
    assert marshal(record) == record


def check_builders(module, data):
    request = module.work_request(
        data.draw(st.text(max_size=3)), 1, TEMPLATE, "main", data.draw(objects),
        1, 0, "execution-node", data.draw(st.integers(0, 3)),
    )
    assert_proof_sound(request)
    marks = [
        module.mark_record("wf-1", "t", 1, data.draw(st.text(max_size=2)), data.draw(objects))
        for _ in range(data.draw(st.integers(0, 2)))
    ]
    for mark in marks:
        assert_proof_sound(mark)
    kind = data.draw(st.sampled_from([OutputKind.OUTCOME, OutputKind.ABORT, OutputKind.REPEAT]))
    result = tuple.__new__(TaskResult, (kind, "done", data.draw(outputs)))
    reply = module.work_reply("wf-1", "t", 1, "worker-1", True, result, marks, None)
    assert_proof_sound(reply)


class TestPlainProof:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_a_record_is_flagged_plain_only_when_the_walk_agrees(self, data):
        check_builders(worker_module, data)

    def test_primitive_records_are_flagged_plain(self):
        ref = ObjectRef("Data", 1.5, "t", "out")
        assert type(worker_module.mark_record("wf", "t", 1, "m", {"c": ref})) is (
            worker_module.PlainMarkRecord
        )
        request = worker_module.work_request("wf", 1, TEMPLATE, "main", {"inp": ref}, 1, 0, "x", 0)
        assert type(request) is PlainDict
        assert marshal(request) is request

    @pytest.mark.parametrize("ref", [
        ObjectRef("Data", [1]),
        ObjectRef("Data", (1, [2])),
        ObjectRef(["Data"], 1),
        ObjectRef("Data", 1, ["t"]),
        ObjectRef("Data", 1, "t", {"via": 1}),
    ], ids=["list value", "nested list", "list class", "list producer", "dict via"])
    def test_a_mutable_leaf_takes_the_walk_and_is_copied(self, ref):
        request = worker_module.work_request("wf", 1, TEMPLATE, "main", {"inp": ref}, 1, 0, "x", 0)
        assert type(request) is dict
        copy = marshal(request)
        assert copy == request and copy["inputs"][0][1] is not ref

    @pytest.mark.parametrize("value", [{1}, frozenset({1})], ids=["set", "frozenset"])
    def test_a_set_is_not_proven_and_the_orb_refuses_it(self, value):
        ref = ObjectRef("Data", value)
        request = worker_module.work_request("wf", 1, TEMPLATE, "main", {"inp": ref}, 1, 0, "x", 0)
        mark = worker_module.mark_record("wf", "t", 1, "m", {"c": ref})
        assert type(request) is dict and type(mark) is worker_module.MarkRecord
        for record in (request, mark):
            with pytest.raises(MarshalError, match="set is not transferable"):
                marshal(record)

    def test_a_twins_own_constructors_prove_by_the_walk(self):
        plain = worker_module.PlainMarkRecord
        mark = worker_module.mark_record("wf", "t", 1, "m", {})
        assert type(mark._replace(name="n")) is plain
        assert type(plain(*mark)) is plain
        mutable = mark._replace(objects=(("c", ObjectRef("Data", [1])),))
        assert type(mutable) is worker_module.MarkRecord
        assert type(plain(*mutable)) is worker_module.MarkRecord

    def test_a_proven_request_is_read_only_and_its_copies_are_proven_anew(self):
        request = worker_module.work_request("wf", 1, TEMPLATE, "main", {}, 1, 0, "x", 0)
        for change in (
            lambda: request.__setitem__("epoch", 3), lambda: request.__delitem__("epoch"),
            lambda: request.update(epoch=3), lambda: request.setdefault("new", 1),
            lambda: request.pop("epoch"), request.popitem, request.clear,
        ):
            with pytest.raises(TypeError):
                change()
        with pytest.raises(TypeError):
            request |= {"epoch": 3}
        assert request["epoch"] == 0
        for copy in (
            PlainDict(request, epoch=3), copy_module.copy(request),
            copy_module.deepcopy(request), pickle.loads(pickle.dumps(request)),
        ):
            assert type(copy) is PlainDict
        restamped = PlainDict(request, epoch=3)
        assert restamped["epoch"] == 3 and request["epoch"] == 0
        mutable = PlainDict(request, inputs=(("inp", ObjectRef("Data", [1])),))
        assert type(mutable) is dict

    def test_a_proof_that_ignores_the_ref_value_is_caught(self):
        """Seeded mutation: the builders' proof with ``ObjectRef.value``
        left unchecked must fail the property."""
        source = inspect.getsource(worker_module)
        check = "type(ref.value) in plain"
        assert source.count(check) == 1  # the proof every builder runs
        mutant = types.ModuleType("repro.services._worker_mutant")
        mutant.__package__ = "repro.services"
        sys.modules[mutant.__name__] = mutant
        try:
            exec(compile(source.replace(check, "True"), "<mutant>", "exec"), mutant.__dict__)

            # no shrinking: the first counterexample is all the test needs
            @settings(max_examples=300, deadline=None, database=None, phases=[Phase.generate])
            @given(st.data())
            def property_on_the_mutant(data):
                check_builders(mutant, data)

            with pytest.raises(AssertionError):
                property_on_the_mutant()
        finally:
            del sys.modules[mutant.__name__]
            marshal_module.BY_REFERENCE.difference_update({
                mutant.PlainMarkRecord, mutant.PlainWorkReply,
            })


# -- isolation across the ORB ----------------------------------------------------------


def chain_system(implementation, length=2):
    _script, registry, root, inputs = workload = chain(length)
    registry.register("stage", implementation)
    # no sweep before the assertions: the finished instance keeps its tree
    system = WorkflowSystem(workers=1, registry=registry, sweep_interval=1_000.0)
    system.deploy("chain", script_text(workload))
    return system, root


def journaled(system, iid, kind):
    entries = Journal(system.execution_store).entries(iid)
    return [entry for entry in entries if entry["type"] == kind]


def journaled_outputs(system, iid):
    """What each journaled result says its ``out`` object was."""
    return [
        entry["result"]["objects"]["out"]["value"] for entry in journaled(system, iid, "result")
    ]


class TestIsolation:
    def test_an_implementation_that_mutates_a_list_it_returned_earlier(self):
        kept = []

        def stage(ctx):
            kept.append(len(kept))  # on its next run, changes what it returned
            return outcome("done", out=kept)

        system, root = chain_system(stage, length=3)
        iid = system.instantiate("chain", root, {"inp": ["original"]})
        result = system.run_until_terminal(iid)
        assert kept == [0, 1, 2]
        assert journaled_outputs(system, iid) == [[0], [0, 1], [0, 1, 2]]
        assert result["objects"]["out"]["value"] == [0, 1, 2]
        tree = system.execution.runtimes[iid].tree
        assert tree.node_at("pipeline/t2").chosen[1]["inp"].value == [0]
        assert tree.node_at("pipeline/t3").chosen[1]["inp"].value == [0, 1]

    def test_an_implementation_that_mutates_an_input_list(self):
        def stage(ctx):
            seen = ctx.value("inp")
            seen.append("worker was here")
            return outcome("done", out=seen)

        system, root = chain_system(stage)
        iid = system.instantiate("chain", root, {"inp": ["original"]})
        result = system.run_until_terminal(iid)
        once, twice = ["original", "worker was here"], ["original"] + ["worker was here"] * 2
        assert result["objects"]["out"]["value"] == twice
        assert journaled_outputs(system, iid) == [once, twice]
        tree = system.execution.runtimes[iid].tree
        assert tree.node_at("pipeline/t1").chosen[1]["inp"].value == ["original"]
        assert tree.node_at("pipeline/t2").chosen[1]["inp"].value == ["original", "worker was here"]


    @pytest.mark.parametrize("value", [object(), {1}], ids=["object", "set"])
    def test_a_result_the_orb_refuses_fails_the_task_not_the_run(self, value):
        """The worker copies an unproven reply inside the task's ``try``, so
        the refusal is the task's failure and takes the retry/abort path."""
        system, root = chain_system(lambda ctx: outcome("done", out=value), length=1)
        iid = system.instantiate("chain", root, {"inp": "x"})
        result = system.run_until_terminal(iid)
        assert result["status"] == "failed"
        assert "retries exhausted" in result["error"]
        assert f"{type(value).__qualname__} is not transferable" in result["error"]
        assert journaled_outputs(system, iid) == []


class TestMarkCrossesAsMarked:
    """A mark's objects are copied when the implementation marks, and that
    copy is what both the datagram and the reply carry: a later change to
    them reaches neither leg."""

    def run_trip(self, drop_mark_datagrams):
        trip = APPLICATIONS["trip"]
        system = WorkflowSystem(workers=2, sweep_interval=1_000.0)
        trip.binder(system.registry)
        marked = []

        def reserve(ctx):
            flight = ctx.value("flight")
            cost = [float(str(flight).rsplit("@", 1)[1])]
            ctx.mark("costKnown", cost=cost)
            marked.append(list(cost))
            cost.append("MUTATED-AFTER-MARK")
            return outcome("reserved", plane=f"plane({flight})")

        system.registry.register("refFlightReservation", reserve)
        send, datagrams = system.network.send, []

        def lossy_send(source, destination, payload):
            if isinstance(payload, worker_module.MarkRecord):
                datagrams.append(payload)
                if drop_mark_datagrams:
                    system.network.stats.sent += 1
                    system.network.stats.dropped_loss += 1
                    return
            send(source, destination, payload)

        system.network.send = lossy_send
        handled = []
        handle_mark = system.execution._handle_mark
        system.execution._handle_mark = lambda mark: (handled.append(mark), handle_mark(mark))
        system.deploy(trip.script_name, trip.text)
        iid = system.instantiate(trip.script_name, trip.root_task, trip.inputs(0))
        result = system.run_until_terminal(iid)
        assert result["status"] == "completed"
        (cost,) = marked
        assert len(datagrams) == 1
        return system, iid, result, cost, handled

    @pytest.mark.parametrize("drop", [False, True], ids=["datagram delivered", "datagram lost"])
    def test_the_journal_holds_the_objects_as_marked(self, drop):
        system, iid, result, cost, handled = self.run_trip(drop)
        # the datagram leg journals the mark, or the reply re-carries it
        assert len(handled) == (0 if drop else 1)
        (entry,) = journaled(system, iid, "mark")
        assert entry["name"] == "costKnown"
        assert entry["objects"]["cost"]["value"] == cost
        # what the coordinator released on from it: the trip's own mark
        (to_pay,) = [mark for mark in result["marks"] if mark["name"] == "toPay"]
        assert to_pay["objects"]["cost"]["value"] == cost


# -- the one-draw network leg ------------------------------------------------------------


def broker_pair(seed, latency, **faults):
    clock = EventClock()
    network = Network(clock, latency, seed=seed, **faults)
    broker = ObjectBroker(clock, network)
    return clock, network, broker, Node("a", clock, network), Node("b", clock, network)


class RecordingLatency(LatencyModel):
    """A latency model that notes when the general path draws from it."""

    def __init__(self, base, jitter, now):
        super().__init__(base, jitter)
        self.now, self.drawn_at = now, []

    def sample(self, rng):
        self.drawn_at.append(self.now())
        return super().sample(rng)


class TestOneDrawLeg:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        base=st.floats(0.0, 10.0),
        jitter=st.one_of(st.just(0.0), st.floats(1e-6, 5.0)),
        legs=st.integers(1, 20),
    )
    def test_a_healthy_leg_draws_what_the_general_path_draws(self, seed, base, jitter, legs):
        clock, network, broker, a, b = broker_pair(seed, LatencyModel(base, jitter))
        latency = network.latency = RecordingLatency(base, jitter, lambda: clock.now)
        drawn = []
        clock.call_after = lambda delay, action, label="": drawn.append(delay)
        for _ in range(legs):
            broker._datagram(a, b, lambda: None, "leg")
        assert latency.drawn_at == []  # one draw, not the general path
        # the general path, taken because of a partition no leg crosses
        reference = Network(EventClock(), LatencyModel(base, jitter), seed=seed)
        reference.partition({"x"}, {"y"})
        expected = [delay for _ in range(legs) for delay in reference.sample_delays("a", "b")]
        assert drawn == expected
        assert network._rng.getstate() == reference._rng.getstate()
        assert network.stats.sent == legs

    @pytest.mark.parametrize("faults, counter", [
        ({"loss_rate": 0.5}, "dropped_loss"),
        ({"dup_rate": 0.5}, "duplicated"),
        ({"reorder_window": 3.0}, "reordered"),
    ])
    def test_a_fault_set_at_construction_takes_the_general_path(self, faults, counter):
        clock, network, broker, a, b = broker_pair(5, LatencyModel(1.0, 0.5), **faults)
        latency = network.latency = RecordingLatency(1.0, 0.5, lambda: clock.now)
        for _ in range(40):
            broker._datagram(a, b, lambda: None, "leg")
        assert latency.drawn_at
        assert getattr(network.stats, counter) > 0

    def test_a_partition_takes_the_general_path(self):
        clock, network, broker, a, b = broker_pair(5, LatencyModel(1.0, 0.5))
        network.partition({"a"}, {"b"})
        delivered = []
        broker._datagram(a, b, lambda: delivered.append(1), "leg")
        clock.run()
        assert network.stats.dropped_partition == 1 and delivered == []

    @pytest.mark.parametrize("burst, counter", [
        (Burst(5.0, 60.0, "loss_rate", 0.4), "dropped_loss"),
        (Burst(5.0, 60.0, "dup_rate", 0.5), "duplicated"),
        (Burst(5.0, 60.0, "reorder_window", 4.0), "reordered"),
        (Partition(5.0, ("execution-node",), ("worker-node-1",), 60.0), "dropped_partition"),
    ], ids=["loss", "dup", "reorder", "partition"])
    def test_a_nemesis_burst_mid_run_takes_the_general_path_while_it_lasts(self, burst, counter):
        script, registry, root, inputs = workload = fan(8)
        system = WorkflowSystem(workers=2, registry=registry, seed=3)
        system.deploy("fan", script_text(workload))
        network = system.network
        latency = network.latency = RecordingLatency(
            network.latency.base, network.latency.jitter, lambda: system.clock.now
        )
        sampled_at = latency.drawn_at
        NemesisSchedule([burst]).arm(system)
        iids = [system.instantiate("fan", root, inputs)]
        system.clock.advance(4.0)
        assert sampled_at == []  # healthy so far: every leg one draw
        iids += [system.instantiate("fan", root, inputs) for _ in range(3)]
        system.clock.advance(80.0)
        assert sampled_at, "no leg took the general path during the burst"
        assert all(5.0 <= at <= 65.0 for at in sampled_at)
        assert getattr(network.stats, counter) > 0
        sampled, sent = len(sampled_at), network.stats.sent
        iids.append(system.instantiate("fan", root, inputs))
        for iid in iids:
            assert system.run_until_terminal(iid, max_time=5_000.0)["status"] == "completed"
        # healed: every leg since is one draw again
        assert network.stats.sent > sent and len(sampled_at) == sampled
