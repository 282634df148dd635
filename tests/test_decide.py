"""The execution service's decide half on its own (docs/PROTOCOLS.md §4).

``_Coordinator``'s events run on a service bound to no node, whose store and
broker refuse every use: each event updates the runtime and returns its
effect records as data — nothing is journaled, sent or armed, and the clock
reads 0.0."""

import pytest

from repro.core import ScriptBuilder, from_input, from_output
from repro.core.values import ObjectRef
from repro.engine import outcome
from repro.engine.plan import compile_plan
from repro.lang import format_script
from repro.resilience import ResilienceConfig
from repro.services.execution import (
    Answer, Arm, Dispatch, ExecutionService, _compiled, _Runtime,
)
from repro.services.worker import MarkRecord, work_reply
from repro.sim.crashpoints import EVENTS, SIDES, catalogue
from repro.workloads import generators

from tests.test_deadlines import deadline_script


class Untouchable:
    """A store or broker the decide half must not use."""

    def __init__(self, what):
        self.what = what

    def derive(self, *args):
        pass  # the constructor registers the stored index's reader

    def __getattr__(self, name):
        raise AssertionError(f"the decide half used the {self.what}'s {name}")


def coordinator():
    return ExecutionService(
        "execution", Untouchable("store"), Untouchable("broker"), "repository",
        ["w1", "w2"], ResilienceConfig(),
    )


def started(service, script, root, inputs, iid="wf-1"):
    """What ``instantiate`` builds before it decides, less the store."""
    compiled = _compiled(format_script(script))
    if compiled.plan is None:
        compiled.plan = compile_plan(compiled.script)
    tree = service._new_tree(compiled.script, root, compiled.plan)
    runtime = _Runtime(iid, compiled.script, tree)
    runtime.deadlines = compiled.deadlines.get(root, ())
    tree.start("main", inputs)
    service._drain(runtime)
    return runtime


def kinds(effects):
    return [type(effect).__name__ for effect in effects]


def flight_paths(dispatch):
    return [key[0] for key, _flight in dispatch.flights]


def reply(runtime, path, name, marks=(), **objects):
    exec_index = runtime.exec_counter[path]
    return work_reply(
        runtime.iid, path, exec_index, "w1", True, outcome(name, **objects), marks, None
    )


def mark_script():
    """``consumer`` runs on the mark ``producer`` releases early."""
    b = ScriptBuilder()
    b.object_class("Data")
    b.taskclass("Producer").input_set("main").mark("early", preview="Data").outcome(
        "done", out="Data"
    )
    b.taskclass("Consumer").input_set("main", inp="Data").outcome("done", out="Data")
    b.taskclass("Root").input_set("main").outcome("done", out="Data")
    c = b.compound("wf", "Root")
    c.task("producer", "Producer").implementation(code="producer").notify(
        "main", from_input("wf", "main")
    ).up()
    c.task("consumer", "Consumer").implementation(code="consumer").input(
        "main", "inp", from_output("producer", "early", "preview")
    ).up()
    c.output("done").object("out", from_output("consumer", "done", "out")).up()
    c.up()
    return b.build()


class TestEvents:
    def test_instantiate_and_replies(self):
        service = coordinator()
        script, _registry, root, inputs = generators.chain(2)
        runtime = started(service, script, root, inputs)
        effects = service._on_instantiate(runtime, "start", "normal")
        assert kinds(effects) == ["Dispatch", "Answer"]
        assert flight_paths(effects[0]) == ["pipeline/t1"] and effects[1] == Answer("wf-1")
        assert runtime.unsent == [] and service.runtimes["wf-1"] is runtime

        first = reply(runtime, "pipeline/t1", "done", out="x")
        effects = service._on_reply("wf-1", first)
        assert kinds(effects) == ["Journal", "Dispatch"]
        assert effects[0].entry["type"] == "result" and effects[0].runtime is runtime
        assert flight_paths(effects[1]) == ["pipeline/t2"] and not effects[1].closes
        # a duplicate is refused against the journal keys: no effect at all
        assert service._on_reply("wf-1", first) == []
        assert service.stats["duplicate_replies"] == 1

        effects = service._on_reply("wf-1", reply(runtime, "pipeline/t2", "done", out="y"))
        assert kinds(effects) == ["Journal", "Dispatch"]
        # the terminal barrier, nothing to send: it closes the journal
        assert effects[1] == Dispatch(runtime, closes=True)
        assert runtime.tree.status.value == "completed"

    def test_mark(self):
        service = coordinator()
        runtime = started(service, mark_script(), "wf", {})
        service._on_instantiate(runtime, "start", "normal")
        preview = ObjectRef("Data", "sneak", "wf/producer", "early")
        mark = MarkRecord("wf-1", "wf/producer", 1, "early", (("preview", preview),))
        effects = service._on_mark(mark)
        assert kinds(effects) == ["Journal", "Dispatch"]
        assert effects[0].entry["type"] == "mark"
        assert flight_paths(effects[1]) == ["wf/consumer"]
        assert service._on_mark(mark) == []  # exactly once
        # the reply carries the same mark again: only its result is journaled
        effects = service._on_reply(
            "wf-1", reply(runtime, "wf/producer", "done", marks=(mark,), out="final")
        )
        assert kinds(effects) == ["Journal"]
        assert effects[0].entry["type"] == "result"

    def test_deadline_armed_then_fired(self):
        service = coordinator()
        runtime = started(service, deadline_script("30"), "wf", {})
        effects = service._on_instantiate(runtime, "start", "normal")
        # the expiry rides in the step's own barrier, ahead of its send; the
        # timer is armed once that barrier is taken
        assert kinds(effects) == ["Journal", "Dispatch", "Arm", "Answer"]
        assert effects[0].entry == {
            "type": "deadline", "path": "wf/gather", "exec": 0, "expires_at": 30.0,
        }
        assert flight_paths(effects[1]) == ["wf/maybe"]
        assert effects[2] == Arm(("deadline", runtime, "wf/gather", 0), 30.0)
        # the timer fires: the waiting task is force-aborted, the instance ends
        # with ``maybe`` still out, so the terminal barrier does not close it
        effects = service._on_deadline(runtime, "wf/gather", 0)
        assert kinds(effects) == ["Journal", "Dispatch"]
        assert effects[0].entry == {"type": "force_abort", "path": "wf/gather", "name": None}
        assert effects[1] == Dispatch(runtime, closes=False)
        assert runtime.tree.root.machine.outcome == "expired"
        assert service._on_deadline(runtime, "wf/gather", 0) == []  # no longer waiting

    def test_force_abort_is_answered_once_durable(self):
        service = coordinator()
        runtime = started(service, deadline_script("30"), "wf", {})
        service._on_instantiate(runtime, "start", "normal")
        effects = service._on_admin(
            runtime, {"type": "force_abort", "path": "wf/gather", "name": None}
        )
        assert kinds(effects) == ["Journal", "Dispatch", "Dispatch", "Answer"]
        assert effects[-2:] == [Dispatch(runtime), Answer(True)]

    def test_an_illegal_entry_raises_with_no_effect(self):
        service = coordinator()
        runtime = started(service, deadline_script("30"), "wf", {})
        service._on_instantiate(runtime, "start", "normal")
        keys, status = set(runtime.journal_keys), runtime.tree.status
        with pytest.raises(Exception):
            service._on_admin(runtime, {"type": "force_abort", "path": "wf/maybe", "name": None})
        assert runtime.journal_keys == keys and runtime.tree.status is status

    def test_reconfig(self):
        service = coordinator()
        runtime = started(service, deadline_script("30"), "wf", {})
        service._on_instantiate(runtime, "start", "normal")
        text = format_script(deadline_script("45"))
        effects = service._on_admin(runtime, {"type": "reconfig", "script_text": text})
        assert kinds(effects) == ["Journal", "Dispatch", "Answer"]
        assert effects[0].entry["type"] == "reconfig"
        assert runtime.script is _compiled(text).script

    def test_overloaded(self):
        service = coordinator()
        script, _registry, root, inputs = generators.chain(2)
        runtime = started(service, script, root, inputs)
        effects = service._on_instantiate(runtime, "shed", "low")
        assert kinds(effects) == ["Journal", "Dispatch", "Answer"]
        assert effects[0].entry["type"] == "overloaded"
        assert effects[1] == Dispatch(runtime, closes=True)
        assert runtime.tree.status.value == "failed" and runtime.in_flight == {}

    def test_overdue_flight_is_resent_then_abandoned(self):
        service = coordinator()
        script, _registry, root, inputs = generators.chain(2)
        runtime = started(service, script, root, inputs)
        service._on_instantiate(runtime, "start", "normal")
        ((key, flight),) = runtime.in_flight.items()
        flight.sent = True  # what the shell's send would have set
        assert service._on_overdue(runtime, key, flight, 1.0) == []  # not yet due
        due = flight.dispatched_at + service.dispatch_timeout
        assert service._on_overdue(runtime, key, flight, due) == [
            Dispatch(runtime, ((key, flight),))
        ]
        assert flight.redispatches == 1
        flight.redispatches = 10_000  # past any cap
        effects = service._on_overdue(runtime, key, flight, due)
        assert kinds(effects)[0] == "Journal" and effects[0].entry["type"] == "failure"

    def test_nothing_was_performed(self):
        service = coordinator()
        script, _registry, root, inputs = generators.chain(2)
        runtime = started(service, script, root, inputs)
        service._on_instantiate(runtime, "start", "normal")
        service._on_reply("wf-1", reply(runtime, "pipeline/t1", "done", out="x"))
        assert service.node is None and service.journal.rows == {}
        assert service.stats["dispatches"] == 0


# the decide entries and the event kind the shell names each one's effects by
ENTRIES = {
    "_on_reply": "reply", "_on_mark": "mark", "_on_deadline": "deadline",
    "_on_stagger": "stagger", "_on_overdue": "overdue", "_on_admin": "admin",
    "_on_complete": "complete", "_on_instantiate": "instantiate", "_shed": "shed",
    "_resume": "resume",
}


def test_every_effect_the_decide_half_returns_has_its_crash_points(monkeypatch):
    """Each (event kind, effect kind) the decide half returns is declared
    in ``crashpoints.EVENTS``, and each side its effect keeps is a row of
    the catalogue: the shell offers no boundary the catalogue lacks."""
    seen = set()

    def record(event, effects):
        seen.update((event, type(effect).__name__.lower()) for effect in effects)

    for name, event in ENTRIES.items():
        def spy(self, *args, _original=getattr(ExecutionService, name), _event=event):
            effects = _original(self, *args)
            record(_event, effects)
            return effects
        monkeypatch.setattr(ExecutionService, name, spy)

    events = TestEvents()
    for test in (
        events.test_instantiate_and_replies, events.test_mark,
        events.test_deadline_armed_then_fired, events.test_force_abort_is_answered_once_durable,
        events.test_reconfig, events.test_overloaded,
        events.test_overdue_flight_is_resent_then_abandoned,
    ):
        test()
    service = coordinator()
    script, _registry, root, inputs = generators.chain(2)
    runtime = started(service, script, root, inputs)
    service._on_instantiate(runtime, "start", "normal")
    (key,) = runtime.in_flight
    assert kinds(service._resume(runtime)) == ["Arm"]  # staggered: a resend later
    assert kinds(service._on_stagger(runtime, key)) == ["Dispatch"]
    parked = work_reply("wf-1", key[0], key[1], "w1", True, None, (), None, external=True)
    assert kinds(service._on_reply("wf-1", parked)) == ["Journal"]
    assert kinds(service._on_complete(runtime, key[0], "done", {"out": "x"}))[-1] == "Answer"
    queued = started(service, script, root, inputs, iid="wf-2")
    service._on_instantiate(queued, "queue", "normal")
    promoted = []
    service._promote_ready(promoted)
    assert kinds(promoted) == ["Dispatch"]
    record("promote", promoted)

    names = {point.name for point in catalogue()}
    assert {event for event, _effect in seen} == set(EVENTS)
    for event, effect in sorted(seen):
        assert effect in EVENTS[event], (event, effect)
        for side in SIDES[effect]:
            assert f"exec.{event}.{effect}.{side}" in names
