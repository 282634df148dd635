"""Regression tests for the step-budget accounting of the local engine.

Covers two historical bugs:

* ``LocalWorkflow.step()`` used to dequeue a ready node *before* checking
  the budget; when the budget tripped, the popped node was silently
  discarded (never executed, never re-queued) and the comparison was
  off-by-one.
* ``_execute_subworkflow`` gave each child ``max_steps - steps`` but never
  charged the child's consumed steps back to the parent, so nested script
  bindings multiplied the global budget; a child could also be created
  with a budget of 0 or less.
"""

from __future__ import annotations

import pytest

from repro.core import ScriptBuilder, from_input, from_output
from repro.core.selection import EventKind
from repro.core.states import TaskState
from repro.engine import ImplementationRegistry, LocalEngine, WorkflowStatus, outcome
from tests.conftest import build_pipeline_script, stage_registry


def pipeline(code: str, length: int, name: str = "pipeline"):
    """A linear pipeline of ``length`` Stage tasks bound to ``code``."""
    b = ScriptBuilder()
    b.object_class("Data")
    b.taskclass("Stage").input_set("main", inp="Data").outcome("done", out="Data")
    b.taskclass("Root").input_set("main", inp="Data").outcome("done", out="Data")
    root = b.compound(name, "Root")
    source = from_input(name, "main", "inp")
    for index in range(length):
        task = f"t{index + 1}"
        root.task(task, "Stage").implementation(code=code).input(
            "main", "inp", source
        ).up()
        source = from_output(task, "done", "out")
    root.output("done").object("out", from_output(f"t{length}", "done", "out")).up()
    root.up()
    return b.build()


class TestStepBudget:
    def test_exact_budget_completes(self):
        # exactly as many steps as tasks: no spurious failure, no off-by-one
        engine = LocalEngine(stage_registry(), max_steps=3)
        result = engine.run(build_pipeline_script(3), inputs={"inp": "x"})
        assert result.completed
        assert result.stats["steps"] == 3

    def test_exhaustion_fails_without_losing_the_ready_node(self):
        engine = LocalEngine(stage_registry(), max_steps=3)
        wf = engine.workflow(build_pipeline_script(5))
        wf.start({"inp": "x"})
        result = wf.run_to_completion()
        assert result.status is WorkflowStatus.FAILED
        assert "max_steps=3" in result.error
        # exactly max_steps tasks ran; none was silently dropped
        started = [
            e.producer_path
            for e in result.log.of_kind(EventKind.INPUT)
            if e.producer_path != "pipeline"
        ]
        assert started == ["pipeline/t1", "pipeline/t2", "pipeline/t3"]
        # the node that hit the budget is still queued and waiting, not lost
        survivor = wf.tree.node_at("pipeline/t4")
        assert survivor.machine.state is TaskState.WAIT
        assert wf.tree.peek_ready() == [survivor]

    def test_budget_not_consumed_when_nothing_ready(self):
        engine = LocalEngine(stage_registry(), max_steps=100)
        wf = engine.workflow(build_pipeline_script(2))
        wf.start({"inp": "x"})
        wf.run_to_completion()
        before = wf.steps
        assert not wf.step()  # nothing ready any more
        assert wf.steps == before


class TestNestedSubworkflowBudget:
    """Script-bound children draw on — and are charged against — one
    global budget."""

    @staticmethod
    def _nested_registry() -> ImplementationRegistry:
        reg = ImplementationRegistry()
        # every outer stage runs a 3-task inner pipeline of "leaf" tasks
        reg.register_script("sub", pipeline("leaf", 3, name="inner"), "inner")
        reg.register("leaf", lambda ctx: outcome("done", out=f"{ctx.value('inp')}+"))
        return reg

    def test_child_steps_charged_to_parent(self):
        # 3 outer tasks, each one step + 3 inner steps = 12 steps total
        engine = LocalEngine(self._nested_registry(), max_steps=12)
        result = engine.run(pipeline("sub", 3), inputs={"inp": "x"})
        assert result.completed
        assert result.stats["steps"] == 12
        assert result.value("out") == "x+++++++++"

    def test_nested_bindings_cannot_multiply_the_budget(self):
        # the old accounting only counted the 3 outer steps, so max_steps=6
        # passed despite 12 actual task executions
        engine = LocalEngine(self._nested_registry(), max_steps=6)
        result = engine.run(pipeline("sub", 3), inputs={"inp": "x"})
        assert result.status is WorkflowStatus.FAILED
        assert "max_steps=6" in result.error

    def test_zero_remaining_budget_fails_instead_of_spawning_child(self):
        # one step for the outer task leaves 0 for the child
        engine = LocalEngine(self._nested_registry(), max_steps=1)
        result = engine.run(pipeline("sub", 1), inputs={"inp": "x"})
        assert result.status is WorkflowStatus.FAILED
        assert "max_steps=1" in result.error

    def test_generous_budget_unaffected(self):
        engine = LocalEngine(self._nested_registry(), max_steps=100)
        result = engine.run(pipeline("sub", 2), inputs={"inp": "x"})
        assert result.completed
        assert result.stats["steps"] == 8  # 2 outer + 2 * 3 inner
