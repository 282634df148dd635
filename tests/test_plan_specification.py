"""The compiled plan held to the Fig. 2 specification of readiness.

The paper defines readiness once (§3, §4.3): the first declared input set
that is satisfied wins, and within a binding the earliest-listed available
alternative.  ``core.selection.TaskInputTracker`` is that definition,
executable.  The engine never builds one: it runs ``PlanTracker``s over
compiled tables and offers each event only where a firing table says it can
matter.  :class:`SpecificationCheck` holds it to the definition after every
step or event of a tree and before every dequeue:

* each live WAIT node's tracker gives the ``ready()`` a ``TaskInputTracker``
  over the node's effective input sets gives when offered the node's whole
  outer-scope history;
* each unemitted output watcher of an EXECUTING compound gives the
  ``ready()`` of ``TaskInputTracker([watch_binding(b)])`` offered the
  compound's inner scope.

The specification tracker is offered every event, so a route missing from a
firing table shows up as a mismatch; the mutation tests at the end make
sure it does, on a local run and inside one drain of the execution service.  ``tests/test_plan_differential.py`` runs the same check over
hypothesis-drawn scripts.
"""

import pytest

from repro.core.builder import ScriptBuilder, from_input, from_output
from repro.core.selection import EventKind, TaskInputTracker
from repro.core.states import TaskState
from repro.engine import ImplementationRegistry, WorkflowStatus, outcome, pending
from repro.engine.instance import CompoundNode, InstanceTree
from repro.engine.local import LocalWorkflow
from repro.engine.plan import PlanTracker, compile_plan, effective_input_sets, watch_binding
from repro.lang import compile_script, format_script
from repro.services import WorkflowSystem
from repro.workloads import APPLICATIONS, generators, paper_order, paper_service_impact, paper_trip

from tests import test_dynamic_templates, test_reconfig, test_services


def _readiness(ready):
    """A ``ready()`` answer with the chosen values in their order."""
    return None if ready is None else (ready[0], list(ready[1].items()))


def _specified(bindings, events):
    spec = TaskInputTracker(bindings)
    spec.offer_all(events)
    return _readiness(spec.ready())


class SpecificationCheck:
    """Compares every compiled tracker and output watcher of the trees it is
    attached to with the specification, whenever a tree is quiescent (no
    event waiting to be offered) and running; ``mismatches`` collects
    ``(where, compiled, specified)``."""

    CHECKED = (
        "start", "begin_next", "apply_mark", "apply_result", "apply_failure",
        "force_abort", "reconfigure",
    )

    def __init__(self):
        self.checks = 0
        self.mismatches = []

    def attach_tree(self, tree):
        """Check ``tree`` after each call that offers events, and before each
        ``begin_next`` dequeues."""
        for name in self.CHECKED:
            setattr(tree, name, self._checked(tree, name, getattr(tree, name)))
        return tree

    def _checked(self, tree, name, method):
        def checked(*args, **kwargs):
            if name == "begin_next":
                # begin_next pumps, dequeues and starts, and the start leaves
                # its INPUT events pending; pump first and check here, so a
                # task readied by the previous start's events is compared
                # while it still waits
                tree._pump()
                self.check(tree)
            result = method(*args, **kwargs)
            self.check(tree)
            return result

        return checked

    def check(self, tree):
        if tree._pending or tree.status is not WorkflowStatus.RUNNING:
            return
        self.checks += 1
        for node in tree.walk():
            if not node.alive:
                continue
            if node.machine.state is TaskState.WAIT:
                self._compare(
                    node.path,
                    node.tracker.ready(),
                    _specified(
                        effective_input_sets(node.decl, node.taskclass),
                        node.outer_scope.events,
                    ),
                )
            if isinstance(node, CompoundNode) and node.machine.state is TaskState.EXECUTING:
                for binding, watcher in zip(node.compound_decl.outputs, node.output_watchers):
                    if binding.name not in node.emitted_outputs:
                        self._compare(
                            f"{node.path}.{binding.name}",
                            watcher.ready(),
                            _specified([watch_binding(binding)], node.inner_scope.events),
                        )

    def _compare(self, where, compiled, specified):
        compiled = _readiness(compiled)
        if compiled != specified:
            self.mismatches.append((where, compiled, specified))

    def verify(self):
        assert self.checks, "the specification check never ran"
        assert self.mismatches == []


def watch_every_tree(monkeypatch):
    """A check attached to every instance tree built from here on — by a
    ``LocalWorkflow``, a script binding's sub-run, the execution service's
    instantiate, a crash replay or a settled instance's replay."""
    check = SpecificationCheck()
    original = InstanceTree.__init__

    def init(tree, *args, **kwargs):
        original(tree, *args, **kwargs)
        check.attach_tree(tree)

    monkeypatch.setattr(InstanceTree, "__init__", init)
    return check


def checked_run(check, workload, shared_plan=False, **options):
    """Run a ``(script, registry, root, inputs)`` workload locally with
    ``check`` attached, on the script's shared plan (the execution
    service's route) or on tables the tree compiles itself (the local
    engine's)."""
    script, registry, root, inputs = workload
    plan = compile_plan(script, root_task=root) if shared_plan else None
    wf = LocalWorkflow(script, root, registry, plan=plan, **options)
    check.attach_tree(wf.tree)
    wf.start(inputs)
    return wf.run_to_completion()


def paper(module, inputs):
    return module.build(), module.default_registry(), module.ROOT_TASK, inputs


WORKLOADS = {
    "order": lambda: paper(paper_order, {"order": "order-1"}),
    "trip": lambda: paper(paper_trip, {"user": "demo-user"}),
    "service-impact": lambda: paper(paper_service_impact, {"alarmsSource": "alarm-feed"}),
    "chain": lambda: generators.chain(12),
    "fan": lambda: generators.fan(12),
    "diamond": generators.diamond,
}


@pytest.mark.parametrize("shared_plan", [False, True], ids=["tree-compiled", "shared"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workloads_meet_the_specification(name, shared_plan):
    check = SpecificationCheck()
    result = checked_run(check, WORKLOADS[name](), shared_plan)
    assert result.completed
    check.verify()


# -- reconfiguration: scopes recompiled against their history ------------------------


LIVE_RECONFIGURATIONS = [
    (test_reconfig.TestLiveReconfiguration, "test_add_t5_to_running_instance"),
    (test_reconfig.TestLiveReconfiguration, "test_added_task_sees_prior_events"),
    (test_reconfig.TestLiveReconfiguration, "test_implementation_swap_on_live_instance"),
    (test_dynamic_templates.TestAddTemplateInstances, "test_dynamic_fanout_on_running_instance"),
    (test_services.TestDistributedAdministration, "test_reconfigure_running_instance_via_service"),
    (test_services.TestDistributedAdministration, "test_reconfigure_survives_crash_via_journal"),
]


@pytest.mark.parametrize(
    "case, name", LIVE_RECONFIGURATIONS, ids=[name for _, name in LIVE_RECONFIGURATIONS]
)
def test_reconfiguration_scenarios_meet_the_specification(monkeypatch, case, name):
    """The reconfiguration tests' own scenarios, every tree they build checked."""
    check = watch_every_tree(monkeypatch)
    getattr(case(), name)()
    check.verify()


def reborn_script(stage):
    """``z`` parks, so ``x`` and ``y`` wait on it for good.  Stage 0 is the
    running script; stage 1 removes ``x`` (force-aborted while waiting, so it
    never started); stage 2 adds a new ``x`` of a class whose ``cancelled``
    is an outcome, not an abort, and lets ``y`` go on ``r``'s input plus a
    ``cancelled`` from ``x``."""
    x = {
        0: 'task x of taskclass Doomed { implementation { "code" is "stage" };'
        " inputs { input main { inputobject inp from { out of task z if output done } } } };",
        1: "",
        2: 'task x of taskclass Reborn { implementation { "code" is "stage" };'
        " inputs { input main { inputobject inp from { out of task z if output done } } } };",
    }[stage]
    y_inputs = (
        "inputobject inp from { inp of task r if input main };"
        " notification from { task x if output cancelled }"
        if stage == 2
        else "inputobject inp from { out of task z if output done }"
    )
    return compile_script(
        """
class Data;
taskclass Step {
    inputs { input main { inp of class Data } };
    outputs { outcome done { out of class Data } }
};
taskclass Doomed {
    inputs { input main { inp of class Data } };
    outputs { outcome done { }; abort outcome cancelled { } }
};
taskclass Reborn {
    inputs { input main { inp of class Data } };
    outputs { outcome cancelled { } }
};
compoundtask r of taskclass Step {
    task z of taskclass Step { implementation { "code" is "park" };
        inputs { input main { inputobject inp from { inp of task r if input main } } } };
    %s
    task y of taskclass Step { implementation { "code" is "stage" };
        inputs { input main { %s } } };
    outputs { outcome done { outputobject out from { out of task y if output done } } }
};
"""
        % (x, y_inputs)
    )


def test_a_recompiled_scope_routes_an_event_shape_no_declaration_has_left():
    """The scope history holds ``(x, abort, cancelled)`` from the removed
    ``x``; the new ``x`` declares ``cancelled`` as an outcome, so no
    declaration in the scope produces that key any more.  The specification
    replays the history and satisfies ``y`` with it; the recompiled firing
    table routes it only because ``augment_vocabulary`` folds the scope's
    history into the vocabulary."""
    registry = ImplementationRegistry()
    registry.register("park", lambda ctx: pending("never answered"))
    registry.register("stage", lambda ctx: outcome("done", out=ctx.value("inp")))
    check = SpecificationCheck()
    wf = LocalWorkflow(reborn_script(0), "r", registry)
    check.attach_tree(wf.tree)
    wf.start({"inp": "a"})
    assert wf.step()  # z parks; x and y wait on it
    wf.force_abort("r/x", "cancelled")
    wf.reconfigure(reborn_script(1))
    wf.reconfigure(reborn_script(2))
    result = wf.run_to_completion()
    check.verify()
    assert (result.status, result.value("out")) == (WorkflowStatus.COMPLETED, "a")


# -- the execution service's trees ------------------------------------------------------


@pytest.mark.parametrize("name", sorted(APPLICATIONS))
def test_service_trees_after_a_crash_replay_and_a_settled_replay(monkeypatch, name):
    """Every tree the service builds is checked at every event: the live one,
    the replay after a crash of the execution node mid-run, and the fresh
    replay a read of the settled instance makes."""
    check = watch_every_tree(monkeypatch)
    app = APPLICATIONS[name]
    system = WorkflowSystem(workers=2, seed=11, sweep_interval=5.0)
    app.binder(system.registry)
    system.deploy(app.script_name, app.text)
    iid = system.instantiate(app.script_name, app.root_task, app.inputs(0))
    system.clock.run(until=system.clock.now + 3.0)
    assert system.fate(iid)["status"] == "running"
    system.execution_node.crash()
    system.execution_node.recover()
    assert system.run_until_terminal(iid)["status"] == "completed"
    system.clock.run(until=system.clock.now + 20.0)
    service = system.execution
    assert service.runtimes[iid].settled
    checks = check.checks
    replay = service._full_runtime(iid)
    assert replay.tree.status is WorkflowStatus.COMPLETED
    assert check.checks > checks
    check.verify()


# -- mutations: a dropped route must not pass ----------------------------------------------


def drop_route(monkeypatch, routing, compound, position_of):
    """Mutate the engine: each time the compound named ``compound`` compiles
    its scope, its firing table ``routing`` (``plan_routing``, read by
    ``_pump``, or ``watcher_routing``, read by ``_evaluate_outputs``) loses
    the position ``position_of(node)``."""
    original = CompoundNode._recompile_plan

    def mutated(node):
        original(node)
        if node.local_name == compound:
            lost = position_of(node)
            table = getattr(node, routing)
            setattr(
                node,
                routing,
                {key: tuple(p for p in hits if p != lost) for key, hits in table.items()},
            )

    monkeypatch.setattr(CompoundNode, "_recompile_plan", mutated)


def test_a_child_route_dropped_from_pump_is_caught(monkeypatch):
    drop_route(
        monkeypatch, "plan_routing", "dag",
        lambda node: node.children.index(node.child("t1")),
    )
    check = SpecificationCheck()
    checked_run(check, generators.random_dag(8, seed=0))
    assert "dag/t1" in {where for where, _compiled, _specified in check.mismatches}


def test_every_task_the_service_starts_is_checked_just_before_its_dequeue(monkeypatch):
    """One drain dequeues and starts a batch of tasks, and each start leaves
    its INPUT events pending; the check before each dequeue still runs, so
    no start follows another unchecked."""
    check = watch_every_tree(monkeypatch)
    trace = []
    check_tree = check.check

    def traced_check(tree):
        checks = check.checks
        check_tree(tree)
        if check.checks > checks:
            trace.append("check")

    check.check = traced_check
    begin_next = InstanceTree.begin_next

    def traced_begin_next(tree):
        taken = begin_next(tree)
        if taken is not None:
            trace.append(taken[0].path)
        return taken

    monkeypatch.setattr(InstanceTree, "begin_next", traced_begin_next)
    script, registry, root, inputs = generators.fan(8)
    system = WorkflowSystem(registry=registry)
    system.deploy("fan", format_script(script))
    iid = system.instantiate("fan", root, inputs)
    assert system.run_until_terminal(iid)["status"] == "completed"
    starts = [i for i, step in enumerate(trace) if step != "check"]
    assert len(starts) == 10  # source, eight branches, sink
    assert [trace[i - 1] for i in starts] == ["check"] * len(starts)
    check.verify()


def input_chain_script():
    """``b`` takes ``a``'s input (``inp of task a if input main``), so it is
    readied by ``a``'s start and starts in the drain that started ``a``."""
    b = ScriptBuilder()
    b.object_class("Data")
    b.taskclass("Stage").input_set("main", inp="Data").outcome("done", out="Data")
    root = b.compound("r", "Stage")
    root.task("a", "Stage").implementation(code="stage").input(
        "main", "inp", from_input("r", "main", "inp")
    ).up()
    root.task("b", "Stage").implementation(code="stage").input(
        "main", "inp", from_input("a", "main", "inp")
    ).up()
    root.output("done").object("out", from_output("b", "done", "out")).up()
    root.up()
    return b.build()


def test_a_wrong_value_from_a_siblings_start_is_caught_on_the_service(monkeypatch):
    """Mutate the compiled trackers: ``a``'s INPUT event reaches them with
    another value.  ``b`` is ready on it only between two dequeues of one
    drain, and the check there must see it."""
    original = PlanTracker.offer

    def mutated(tracker, event):
        if event.kind is EventKind.INPUT and event.producer == "a":
            event = event._replace(objects={
                name: ref._replace(value="corrupted") for name, ref in event.objects.items()
            })
        return original(tracker, event)

    monkeypatch.setattr(PlanTracker, "offer", mutated)
    check = watch_every_tree(monkeypatch)
    registry = ImplementationRegistry()
    registry.register("stage", lambda ctx: outcome("done", out=ctx.value("inp")))
    system = WorkflowSystem(registry=registry)
    system.deploy("chain", format_script(input_chain_script()))
    iid = system.instantiate("chain", "r", {"inp": "seed"})
    system.run_until_terminal(iid)
    assert "r/b" in {where for where, _compiled, _specified in check.mismatches}


def test_a_watcher_route_dropped_from_evaluate_outputs_is_caught(monkeypatch):
    drop_route(
        monkeypatch, "watcher_routing", "checkFlightReservation",
        lambda node: [b.name for b in node.compound_decl.outputs].index("flightFound"),
    )
    check = SpecificationCheck()
    checked_run(check, WORKLOADS["trip"]())
    assert any(
        where.endswith("/checkFlightReservation.flightFound")
        for where, _compiled, _specified in check.mismatches
    )
