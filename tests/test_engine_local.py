"""Tests for the local engine: scheduling, marks, repeats, retries, aborts."""

import pytest

from repro.core import ScriptBuilder, from_input, from_output, from_task
from repro.core.schema import Implementation, TaskDecl
from repro.core.selection import EventKind
from repro.engine import (
    ImplementationRegistry,
    LocalEngine,
    WorkflowStatus,
    abort,
    outcome,
    repeat,
)
from tests.conftest import build_pipeline_script, stage_registry


class TestBasicExecution:
    def test_pipeline_runs_in_order(self):
        script = build_pipeline_script(4)
        result = LocalEngine(stage_registry()).run(script, inputs={"inp": "x"})
        assert result.completed
        assert result.value("out") == "x++++"
        order = result.log.started_order()
        assert order == [
            "pipeline",
            "pipeline/t1",
            "pipeline/t2",
            "pipeline/t3",
            "pipeline/t4",
        ]

    def test_dataflow_carries_provenance(self):
        script = build_pipeline_script(1)
        result = LocalEngine(stage_registry()).run(script, inputs={"inp": "x"})
        ref = result.objects["out"]
        assert ref.produced_by == "pipeline"
        assert ref.class_name == "Data"

    def test_missing_root_input_rejected(self):
        script = build_pipeline_script(1)
        with pytest.raises(Exception):
            LocalEngine(stage_registry()).run(script, inputs={})

    def test_unknown_root_input_rejected(self):
        script = build_pipeline_script(1)
        with pytest.raises(Exception):
            LocalEngine(stage_registry()).run(script, inputs={"inp": "x", "bogus": 1})

    def test_missing_binding_fails_task_then_workflow(self):
        script = build_pipeline_script(1)
        result = LocalEngine(ImplementationRegistry()).run(script, inputs={"inp": "x"})
        assert result.status is WorkflowStatus.FAILED

    def test_run_requires_unique_root_or_name(self):
        b = ScriptBuilder()
        b.taskclass("T").outcome("ok")
        script = b.build(validate=False)
        script.add_task(TaskDecl("a", "T", Implementation.of(code="c")))
        script.add_task(TaskDecl("b", "T", Implementation.of(code="c")))
        reg = ImplementationRegistry().register("c", lambda ctx: outcome("ok"))
        with pytest.raises(Exception):
            LocalEngine(reg).run(script)
        assert LocalEngine(reg).run(script, "a").completed


class TestOutcomeValidation:
    def make_script(self):
        b = ScriptBuilder()
        b.object_class("Data")
        b.taskclass("T").input_set("main").outcome("ok", out="Data")
        b.taskclass("Root").input_set("main").outcome("done", out="Data")
        c = b.compound("wf", "Root")
        c.task("t", "T").implementation(code="impl").notify(
            "main", from_input("wf", "main")
        ).up()
        c.output("done").object("out", from_output("t", "ok", "out")).up()
        c.up()
        return b.build()

    def test_undeclared_outcome_fails(self):
        reg = ImplementationRegistry().register("impl", lambda ctx: outcome("ghost"))
        result = LocalEngine(reg, default_retries=0).run(self.make_script(), inputs={})
        assert result.status is WorkflowStatus.FAILED

    def test_missing_output_object_fails(self):
        reg = ImplementationRegistry().register("impl", lambda ctx: outcome("ok"))
        result = LocalEngine(reg, default_retries=0).run(self.make_script(), inputs={})
        assert result.status is WorkflowStatus.FAILED

    def test_extra_output_object_fails(self):
        reg = ImplementationRegistry().register(
            "impl", lambda ctx: outcome("ok", out=1, extra=2)
        )
        result = LocalEngine(reg, default_retries=0).run(self.make_script(), inputs={})
        assert result.status is WorkflowStatus.FAILED

    def test_non_taskresult_return_fails(self):
        reg = ImplementationRegistry().register("impl", lambda ctx: "oops")
        result = LocalEngine(reg, default_retries=0).run(self.make_script(), inputs={})
        assert result.status is WorkflowStatus.FAILED


class TestSystemRetries:
    def flaky_script(self, retries=None):
        b = ScriptBuilder()
        b.object_class("Data")
        b.taskclass("T").input_set("main").outcome("ok", out="Data")
        b.taskclass("Root").input_set("main").outcome("done", out="Data")
        c = b.compound("wf", "Root")
        task = c.task("t", "T").notify("main", from_input("wf", "main"))
        if retries is None:
            task.implementation(code="impl")
        else:
            task.implementation(code="impl", retries=str(retries))
        task.up()
        c.output("done").object("out", from_output("t", "ok", "out")).up()
        c.up()
        return b.build()

    def test_transient_failure_retried_silently(self):
        calls = []

        def impl(ctx):
            calls.append(ctx.attempt)
            if len(calls) < 3:
                raise RuntimeError("transient")
            return outcome("ok", out="v")

        reg = ImplementationRegistry().register("impl", impl)
        result = LocalEngine(reg).run(self.flaky_script(), inputs={})
        assert result.completed
        assert calls == [1, 2, 3]  # attempt counter visible to implementations
        # no abort events leaked into the log
        assert result.log.of_kind(EventKind.ABORT) == []

    def test_retry_budget_from_implementation_property(self):
        calls = []

        def impl(ctx):
            calls.append(1)
            raise RuntimeError("always")

        reg = ImplementationRegistry().register("impl", impl)
        result = LocalEngine(reg).run(self.flaky_script(retries=1), inputs={})
        assert result.status is WorkflowStatus.FAILED
        assert len(calls) == 2  # initial + 1 retry

    def test_exhausted_retries_surface_as_abort_outcome_when_declared(self):
        b = ScriptBuilder()
        b.object_class("Data")
        b.taskclass("T").input_set("main").outcome("ok").abort_outcome("failed")
        b.taskclass("Root").input_set("main").outcome("done").outcome("gaveUp")
        c = b.compound("wf", "Root")
        c.task("t", "T").implementation(code="impl", retries="1").notify(
            "main", from_input("wf", "main")
        ).up()
        c.output("done").notify(from_output("t", "ok")).up()
        c.output("gaveUp").notify(from_output("t", "failed")).up()
        c.up()
        reg = ImplementationRegistry().register(
            "impl", lambda ctx: (_ for _ in ()).throw(RuntimeError("die"))
        )
        result = LocalEngine(reg).run(b.build(), inputs={})
        assert result.completed
        assert result.outcome == "gaveUp"


class TestMarks:
    def mark_script(self):
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

    def test_mark_releases_early_and_downstream_consumes_it(self):
        seen = []

        def producer(ctx):
            ctx.mark("early", preview="sneak")
            seen.append("after-mark")
            return outcome("done", out="final")

        reg = ImplementationRegistry()
        reg.register("producer", producer)
        reg.register("consumer", lambda ctx: outcome("done", out=ctx.value("inp")))
        result = LocalEngine(reg).run(self.mark_script(), inputs={})
        assert result.completed
        assert result.value("out") == "sneak"

    def test_mark_of_undeclared_name_is_failure(self):
        def producer(ctx):
            ctx.mark("ghost", preview="x")
            return outcome("done", out="y")

        reg = ImplementationRegistry()
        reg.register("producer", producer)
        reg.register("consumer", lambda ctx: outcome("done", out="z"))
        result = LocalEngine(reg, default_retries=0).run(self.mark_script(), inputs={})
        assert result.status is WorkflowStatus.FAILED

    def test_failure_after_mark_fails_workflow(self):
        # a task that released results can no longer be silently retried
        def producer(ctx):
            ctx.mark("early", preview="x")
            raise RuntimeError("too late")

        reg = ImplementationRegistry()
        reg.register("producer", producer)
        reg.register("consumer", lambda ctx: outcome("done", out=ctx.value("inp")))
        result = LocalEngine(reg).run(self.mark_script(), inputs={})
        assert result.status is WorkflowStatus.FAILED


class TestRepeats:
    def repeat_script(self):
        b = ScriptBuilder()
        b.object_class("Data")
        (
            b.taskclass("Looper")
            .input_set("main", inp="Data")
            .outcome("done", out="Data")
            .repeat_outcome("again", carry="Data")
        )
        b.taskclass("Root").input_set("main", inp="Data").outcome("done", out="Data")
        c = b.compound("wf", "Root")
        c.task("loop", "Looper").implementation(code="loop").input(
            "main",
            "inp",
            from_output("loop", "again", "carry"),
            from_input("wf", "main", "inp"),
        ).up()
        c.output("done").object("out", from_output("loop", "done", "out")).up()
        c.up()
        return b.build()

    def test_repeat_feeds_own_input(self):
        def loop(ctx):
            value = ctx.value("inp")
            if ctx.repeats < 3:
                return repeat("again", carry=f"{value}+")
            return outcome("done", out=value)

        reg = ImplementationRegistry().register("loop", loop)
        result = LocalEngine(reg).run(self.repeat_script(), inputs={"inp": "s"})
        assert result.completed
        # the repeat source is listed FIRST, so after the first repeat the
        # carried value takes precedence over the root input
        assert result.value("out") == "s+++"

    def test_runaway_repeat_bounded(self):
        reg = ImplementationRegistry().register(
            "loop", lambda ctx: repeat("again", carry="x")
        )
        result = LocalEngine(reg, max_repeats=10).run(
            self.repeat_script(), inputs={"inp": "s"}
        )
        assert result.status is WorkflowStatus.FAILED
        assert "max_repeats" in result.error


class TestAbortsAndStalls:
    def test_application_abort_propagates(self):
        b = ScriptBuilder()
        b.object_class("Data")
        b.taskclass("T").input_set("main").outcome("ok").abort_outcome("nope")
        b.taskclass("Root").input_set("main").outcome("done").outcome("cancelled")
        c = b.compound("wf", "Root")
        c.task("t", "T").implementation(code="impl").notify(
            "main", from_input("wf", "main")
        ).up()
        c.output("done").notify(from_output("t", "ok")).up()
        c.output("cancelled").notify(from_output("t", "nope")).up()
        c.up()
        reg = ImplementationRegistry().register("impl", lambda ctx: abort("nope"))
        result = LocalEngine(reg).run(b.build(), inputs={})
        assert result.outcome == "cancelled"

    def test_root_abort_outcome_gives_aborted_status(self):
        b = ScriptBuilder()
        b.taskclass("T").input_set("main").outcome("ok").abort_outcome("nope")
        b.taskclass("Root").input_set("main").outcome("done").abort_outcome("rootFail")
        c = b.compound("wf", "Root")
        c.task("t", "T").implementation(code="impl").notify(
            "main", from_input("wf", "main")
        ).up()
        c.output("done").notify(from_output("t", "ok")).up()
        c.output("rootFail").notify(from_output("t", "nope")).up()
        c.up()
        reg = ImplementationRegistry().register("impl", lambda ctx: abort("nope"))
        result = LocalEngine(reg).run(b.build(), inputs={})
        assert result.status is WorkflowStatus.ABORTED
        assert result.outcome == "rootFail"

    def test_unsatisfiable_dependencies_stall(self):
        b = ScriptBuilder()
        b.object_class("Data")
        b.taskclass("T").input_set("main", inp="Data").outcome("ok", out="Data")
        b.taskclass("Root").input_set("main").outcome("done", out="Data")
        c = b.compound("wf", "Root")
        c.task("a", "T").implementation(code="impl").input(
            "main", "inp", from_output("b", "ok", "out")
        ).up()
        c.task("b", "T").implementation(code="impl").input(
            "main", "inp", from_output("a", "ok", "out")
        ).up()
        c.output("done").object("out", from_output("a", "ok", "out")).up()
        c.up()
        reg = ImplementationRegistry().register(
            "impl", lambda ctx: outcome("ok", out="x")
        )
        result = LocalEngine(reg).run(b.build(), inputs={})
        assert result.status is WorkflowStatus.STALLED

    def test_force_abort_from_wait(self):
        b = ScriptBuilder()
        b.object_class("Data")
        b.taskclass("T").input_set("main").outcome("ok").abort_outcome("timedOut")
        b.taskclass("Root").input_set("main").outcome("done").outcome("expired")
        c = b.compound("wf", "Root")
        # a waiting task whose dependency never fires (self-notification)
        waiting = c.task("t", "T").implementation(code="impl")
        waiting.notify("main", from_output("t", "ok"))
        waiting.up()
        c.output("done").notify(from_output("t", "ok")).up()
        c.output("expired").notify(from_output("t", "timedOut")).up()
        c.up()
        script = b.build()
        reg = ImplementationRegistry().register("impl", lambda ctx: outcome("ok"))
        engine = LocalEngine(reg)
        wf = engine.workflow(script)
        wf.start({})
        wf.run_to_completion()
        assert wf.status is WorkflowStatus.STALLED
        wf.tree.force_abort("wf/t")  # timer/user abort (Fig. 3 abort-from-wait)
        result = wf.run_to_completion()
        assert result.completed
        assert result.outcome == "expired"


class TestPriorities:
    def test_higher_priority_task_starts_first(self):
        b = ScriptBuilder()
        b.taskclass("T").input_set("main").outcome("ok")
        b.taskclass("Root").input_set("main").outcome("done")
        c = b.compound("wf", "Root")
        c.task("slow", "T").implementation(code="impl", priority="1").notify(
            "main", from_input("wf", "main")
        ).up()
        c.task("fast", "T").implementation(code="impl", priority="9").notify(
            "main", from_input("wf", "main")
        ).up()
        c.output("done").notify(from_output("slow", "ok")).up()
        c.up()
        reg = ImplementationRegistry().register("impl", lambda ctx: outcome("ok"))
        result = LocalEngine(reg).run(b.build(), inputs={})
        order = result.log.started_order()
        assert order.index("wf/fast") < order.index("wf/slow")
