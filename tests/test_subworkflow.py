"""Tests for scripts used as task implementations (§4.4: a compound task
"used to specify a task implementation")."""

import pytest

from repro.core import ScriptBuilder, from_input, from_output
from repro.core.schema import Implementation, TaskDecl
from repro.engine import (
    ImplementationRegistry,
    LocalEngine,
    WorkflowStatus,
    abort,
    outcome,
)
from repro.services import WorkflowSystem
from repro.lang import format_script


def outer_script():
    """A workflow whose single task is implemented by another script."""
    b = ScriptBuilder()
    b.object_class("Data")
    b.taskclass("Work").input_set("main", inp="Data").outcome("done", out="Data")
    b.taskclass("Root").input_set("main", inp="Data").outcome("done", out="Data")
    c = b.compound("outer", "Root")
    c.task("worker", "Work").implementation(code="subflow").input(
        "main", "inp", from_input("outer", "main", "inp")
    ).up()
    c.output("done").object("out", from_output("worker", "done", "out")).up()
    c.up()
    return b.build()


def inner_script():
    """The implementation: same task class signature, two internal stages."""
    b = ScriptBuilder()
    b.object_class("Data")
    b.taskclass("Stage").input_set("main", inp="Data").outcome("done", out="Data")
    b.taskclass("Work").input_set("main", inp="Data").outcome("done", out="Data")
    c = b.compound("inner", "Work")
    c.task("s1", "Stage").implementation(code="stage").input(
        "main", "inp", from_input("inner", "main", "inp")
    ).up()
    c.task("s2", "Stage").implementation(code="stage").input(
        "main", "inp", from_output("s1", "done", "out")
    ).up()
    c.output("done").object("out", from_output("s2", "done", "out")).up()
    c.up()
    return b.build()


@pytest.fixture
def registry():
    reg = ImplementationRegistry()
    reg.register("stage", lambda ctx: outcome("done", out=f"[{ctx.value('inp')}]"))
    reg.register_script("subflow", inner_script())
    return reg


class TestLocalSubWorkflow:
    def test_sub_workflow_runs_and_maps_outcome(self, registry):
        result = LocalEngine(registry).run(outer_script(), inputs={"inp": "x"})
        assert result.completed
        assert result.value("out") == "[[x]]"

    def test_sub_workflow_failure_propagates(self):
        reg = ImplementationRegistry()
        reg.register("stage", lambda ctx: outcome("ghostOutcome"))
        reg.register_script("subflow", inner_script())
        result = LocalEngine(reg, default_retries=0).run(
            outer_script(), inputs={"inp": "x"}
        )
        assert result.status is WorkflowStatus.FAILED

    def test_register_script_needs_unique_or_named_task(self):
        reg = ImplementationRegistry()
        two = inner_script()
        two.add_task(two.tasks["inner"].tasks[0])  # add a second top-level task
        with pytest.raises(Exception):
            reg.register_script("x", two)
        reg.register_script("x", two, task_name="inner")

    def test_online_upgrade_rebinding(self, registry):
        # §3: swap the implementation without touching the script
        result1 = LocalEngine(registry).run(outer_script(), inputs={"inp": "x"})
        registry.register("subflow", lambda ctx: outcome("done", out="direct"))
        result2 = LocalEngine(registry).run(outer_script(), inputs={"inp": "x"})
        assert result1.value("out") == "[[x]]"
        assert result2.value("out") == "direct"


class TestDistributedSubWorkflow:
    def test_worker_runs_script_binding(self, registry):
        system = WorkflowSystem(workers=2, registry=registry)
        system.deploy("outer", format_script(outer_script()))
        iid = system.instantiate("outer", "outer", {"inp": "y"})
        result = system.run_until_terminal(iid)
        assert result["status"] == "completed"
        assert result["objects"]["out"]["value"] == "[[y]]"


# -- one runner: both engines agree on what a bound script does -------------------


def bound_task(**properties):
    """A top-level task bound to code ``subflow``: what it releases and how
    it ends is the whole instance's result.  Two classes, because a class
    that can abort may not release marks (§4.2): ``Releasing`` for
    ``bound_task()``, ``Atomic`` for ``bound_task(atomic=...)``."""
    atomic = properties.pop("atomic", False)
    b = ScriptBuilder()
    b.object_class("Data")
    work = b.taskclass("Work").input_set("main", inp="Data").outcome("done", out="Data")
    if atomic:
        work.abort_outcome("failed")
    else:
        work.mark("early", preview="Data")
    script = b.build(validate=False)
    script.add_task(TaskDecl("outer", "Work", Implementation.of(code="subflow", **properties)))
    return script


def inner_compound(end):
    """A compound that ends as its single leaf does, every leaf output mapped
    upward.  ``done``: the leaf marks ``early`` first; ``failed``: an abort
    outcome; ``weird``: an outcome the outer class does not declare."""
    b = ScriptBuilder()
    b.object_class("Data")
    for name in ("Leaf", "Block"):
        taskclass = b.taskclass(name).input_set("main", inp="Data")
        if end == "done":
            taskclass.mark("early", preview="Data").outcome("done", out="Data")
        else:
            taskclass.outcome("weird", out="Data").abort_outcome("failed")
    c = b.compound("inner", "Block")
    c.task("leaf", "Leaf").implementation(code="leaf").input(
        "main", "inp", from_input("inner", "main", "inp")
    ).up()
    if end == "done":
        c.output("early").object("preview", from_output("leaf", "early", "preview")).up()
        c.output("done").object("out", from_output("leaf", "done", "out")).up()
    else:
        c.output("weird").object("out", from_output("leaf", "weird", "out")).up()
        c.output("failed").notify(from_output("leaf", "failed")).up()
    c.up()
    return b.build()


def leaf_ending(end):
    def leaf(ctx):
        if end == "failed":
            return abort("failed")
        if end == "done":
            ctx.mark("early", preview=f"{ctx.value('inp')}?")
        return outcome(end, out=f"{ctx.value('inp')}!")

    return leaf


def parity_case(name):
    """``(outer script, registry, expected (status, outcome, values, marks))``."""
    registry = ImplementationRegistry()
    if name == "marks-released":
        registry.register("leaf", leaf_ending("done"))
        registry.register_script("subflow", inner_compound("done"))
        early = [("early", {"preview": "x?"})]
        return bound_task(), registry, ("completed", "done", {"out": "x!"}, early)
    if name == "declared-abort":
        registry.register("leaf", leaf_ending("failed"))
        registry.register_script("subflow", inner_compound("failed"))
        return bound_task(atomic=True), registry, ("aborted", "failed", {}, [])
    if name == "undeclared-outcome":
        # a task failure: retried, then the first abort outcome (§3)
        registry.register("leaf", leaf_ending("weird"))
        registry.register_script("subflow", inner_compound("weird"))
        return bound_task(atomic=True), registry, ("aborted", "failed", {}, [])
    assert name == "timeout-property"
    registry.register("subflow", lambda ctx: outcome("done", out=ctx.timeout))
    return bound_task(timeout="2.5"), registry, ("completed", "done", {"out": 2.5}, [])


def run_on(engine, script, registry):
    if engine == "distributed":
        system = WorkflowSystem(workers=2, registry=registry)
        system.deploy("outer", format_script(script))
        result = system.run_until_terminal(system.instantiate("outer", "outer", {"inp": "x"}))
        return (
            result["status"],
            result["outcome"],
            {name: ref["value"] for name, ref in result["objects"].items()},
            [
                (mark["name"], {k: ref["value"] for k, ref in mark["objects"].items()})
                for mark in result["marks"]
            ],
        )
    result = LocalEngine(registry).run(script, inputs={"inp": "x"})
    return (
        result.status.value,
        result.outcome,
        {name: ref.value for name, ref in result.objects.items()},
        [(name, {k: ref.value for k, ref in objects.items()}) for name, objects in result.marks],
    )


@pytest.mark.parametrize(
    "case", ["marks-released", "declared-abort", "undeclared-outcome", "timeout-property"]
)
def test_a_bound_script_behaves_the_same_on_every_engine(case):
    script, registry, expected = parity_case(case)
    for engine in ("local", "distributed"):
        assert run_on(engine, script, registry) == expected, engine
