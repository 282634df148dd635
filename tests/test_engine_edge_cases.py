"""Edge cases of the instance semantics: compound marks, deep termination,
stale results, event-log helpers, multi-root scripts."""

import pytest

from repro.core import ScriptBuilder, from_input, from_output
from repro.core.schema import Implementation, TaskDecl
from repro.core.selection import EventKind
from repro.core.states import TaskState
from repro.engine import (
    ImplementationRegistry,
    LocalEngine,
    WorkflowStatus,
    outcome,
    repeat,
)


class TestCompoundMarks:
    def script(self):
        """A compound whose mark output fires from an inner task's mark,
        while a sibling outside the compound consumes it."""
        b = ScriptBuilder()
        b.object_class("Data")
        (
            b.taskclass("Inner")
            .input_set("main")
            .mark("progress", sofar="Data")
            .outcome("done", out="Data")
        )
        (
            b.taskclass("Block")
            .input_set("main")
            .mark("partial", sofar="Data")
            .outcome("finished", out="Data")
        )
        b.taskclass("Watcher").input_set("main", inp="Data").outcome("saw", out="Data")
        b.taskclass("Root").input_set("main").outcome("done", out="Data")
        c = b.compound("wf", "Root")
        block = c.compound("block", "Block")
        block.notify("main", from_input("wf", "main"))
        block.task("inner", "Inner").implementation(code="inner").notify(
            "main", from_input("block", "main")
        ).up()
        block.output("partial").object(
            "sofar", from_output("inner", "progress", "sofar")
        ).up()
        block.output("finished").object("out", from_output("inner", "done", "out")).up()
        block.up()
        c.task("watcher", "Watcher").implementation(code="watcher").input(
            "main", "inp", from_output("block", "partial", "sofar")
        ).up()
        c.output("done").object("out", from_output("watcher", "saw", "out")).up()
        c.up()
        return b.build()

    def test_compound_mark_propagates_outward(self):
        reg = ImplementationRegistry()

        def inner(ctx):
            ctx.mark("progress", sofar="halfway")
            return outcome("done", out="final")

        reg.register("inner", inner)
        reg.register("watcher", lambda ctx: outcome("saw", out=ctx.value("inp")))
        result = LocalEngine(reg).run(self.script(), inputs={})
        assert result.completed
        # the watcher consumed the compound's *mark*, released before the
        # compound itself finished
        assert result.value("out") == "halfway"

    def test_compound_mark_emitted_once(self):
        reg = ImplementationRegistry()

        def inner(ctx):
            ctx.mark("progress", sofar="x")
            return outcome("done", out="final")

        reg.register("inner", inner)
        reg.register("watcher", lambda ctx: outcome("saw", out=ctx.value("inp")))
        result = LocalEngine(reg).run(self.script(), inputs={})
        marks = [
            e for e in result.log.entries
            if e.producer_path == "wf/block" and e.event.kind is EventKind.MARK
        ]
        assert len(marks) == 1


class TestDeepTermination:
    def test_grandchildren_deactivated_when_ancestor_finishes(self):
        b = ScriptBuilder()
        b.object_class("Data")
        b.taskclass("Fast").input_set("main").outcome("done", out="Data")
        b.taskclass("Slow").input_set("main").outcome("done", out="Data")
        b.taskclass("Mid").input_set("main").outcome("done", out="Data")
        b.taskclass("Root").input_set("main").outcome("done", out="Data")
        c = b.compound("wf", "Root")
        c.task("fast", "Fast").implementation(code="fast").notify(
            "main", from_input("wf", "main")
        ).up()
        mid = c.compound("mid", "Mid")
        mid.notify("main", from_input("wf", "main"))
        mid.task("slowA", "Slow").implementation(code="slow").notify(
            "main", from_input("mid", "main")
        ).up()
        mid.task("slowB", "Slow").implementation(code="slow").notify(
            "main", from_output("slowA", "done")
        ).up()
        mid.output("done").object("out", from_output("slowB", "done", "out")).up()
        mid.up()
        # root completes as soon as `fast` finishes
        c.output("done").object("out", from_output("fast", "done", "out")).up()
        c.up()
        ran = []
        reg = ImplementationRegistry()
        reg.register("fast", lambda ctx: ran.append(ctx.task_path) or outcome("done", out="f"))
        reg.register("slow", lambda ctx: ran.append(ctx.task_path) or outcome("done", out="s"))
        wf = LocalEngine(reg).workflow(b.build())
        wf.start({})
        result = wf.run_to_completion()
        assert result.completed
        # slowB never ran: its compound was deactivated when the root finished
        assert "wf/mid/slowB" not in ran
        node = wf.tree.node_at("wf/mid/slowB")
        assert not node.alive


class TestStaleResults:
    def test_result_after_compound_repeat_is_ignored(self):
        """A node from a previous repeat round cannot inject its result."""
        b = ScriptBuilder()
        b.object_class("Data")
        b.taskclass("Inner").input_set("main").outcome("done", out="Data")
        (
            b.taskclass("Looping")
            .input_set("main")
            .outcome("ok", out="Data")
            .repeat_outcome("again")
        )
        b.taskclass("Root").input_set("main").outcome("done", out="Data")
        c = b.compound("wf", "Root")
        loop = c.compound("loop", "Looping")
        loop.notify("main", from_input("wf", "main"))
        loop.task("inner", "Inner").implementation(code="inner").notify(
            "main", from_input("loop", "main")
        ).up()
        loop.output("again").notify(from_output("inner", "done")).up()
        loop.output("ok").object("out", from_output("inner", "done", "out")).up()
        c.output("done").object("out", from_output("loop", "ok", "out")).up()
        loop.up()
        c.up()
        script = b.build()
        reg = ImplementationRegistry()
        reg.register("inner", lambda ctx: outcome("done", out="x"))
        wf = LocalEngine(reg, max_repeats=3).workflow(script)
        wf.start({})
        wf.step()  # first inner execution triggers `again` (declared first)
        result = wf.run_to_completion()
        # the loop hits max_repeats because `again` always wins; the engine
        # fails cleanly rather than looping forever
        assert result.status is WorkflowStatus.FAILED

    def test_apply_result_on_terminated_node_is_noop(self):
        from repro.engine.context import TaskResult
        from repro.core.schema import OutputKind

        b = ScriptBuilder()
        b.object_class("Data")
        b.taskclass("T").input_set("main").outcome("ok", out="Data")
        b.taskclass("Root").input_set("main").outcome("done", out="Data")
        c = b.compound("wf", "Root")
        c.task("t", "T").implementation(code="t").notify(
            "main", from_input("wf", "main")
        ).up()
        c.output("done").object("out", from_output("t", "ok", "out")).up()
        c.up()
        reg = ImplementationRegistry().register("t", lambda ctx: outcome("ok", out="1"))
        wf = LocalEngine(reg).workflow(b.build())
        wf.start({})
        wf.run_to_completion()
        node = wf.tree.node_at("wf/t")
        before = len(wf.tree.log)
        wf.tree.apply_result(node, TaskResult(OutputKind.OUTCOME, "ok", {"out": "2"}))
        assert len(wf.tree.log) == before  # silently dropped


class TestEventLogHelpers:
    def result(self):
        from repro.workloads import paper_order

        return LocalEngine(paper_order.default_registry()).run(
            paper_order.build(), inputs={"order": "o"}
        )

    def test_first_and_for_task(self):
        result = self.result()
        entry = result.log.first(
            "processOrderApplication/dispatch", EventKind.OUTCOME
        )
        assert entry is not None and entry.event.name == "dispatchCompleted"
        events = result.log.for_task("processOrderApplication/dispatch")
        assert {e.event.kind for e in events} == {EventKind.INPUT, EventKind.OUTCOME}

    def test_happened_before_with_missing_events(self):
        result = self.result()
        assert not result.log.happened_before(
            ("ghost", EventKind.INPUT),
            ("processOrderApplication", EventKind.OUTCOME),
        )

    def test_of_kind(self):
        result = self.result()
        outcomes = result.log.of_kind(EventKind.OUTCOME)
        assert len(outcomes) == 5  # 4 tasks + the compound


class TestMultiRootScripts:
    def test_each_root_runs_independently(self):
        b = ScriptBuilder()
        b.taskclass("T").input_set("main").outcome("ok")
        script = b.build(validate=False)
        script.add_task(TaskDecl("first", "T", Implementation.of(code="a")))
        script.add_task(TaskDecl("second", "T", Implementation.of(code="b")))
        calls = []
        reg = ImplementationRegistry()
        reg.register("a", lambda ctx: calls.append("a") or outcome("ok"))
        reg.register("b", lambda ctx: calls.append("b") or outcome("ok"))
        engine = LocalEngine(reg)
        assert engine.run(script, "first").completed
        assert engine.run(script, "second").completed
        assert calls == ["a", "b"]
