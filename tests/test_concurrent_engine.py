"""Concurrent execution: tasks with no mutual dependency run at the same time
on different worker nodes of the simulated distributed system (§3, Fig. 1:
"t2 and t3 can be performed concurrently") — the one concurrent engine.

Covers equivalence with the sequential reference engine, genuine overlap of
independent tasks on distinct workers, the life-cycle features (system
retries, repeats, parked external tasks) under concurrent dispatch, and
cooperative task timeouts under the local engine and a distributed worker.
"""

from __future__ import annotations

import time

import pytest

from repro.core import ScriptBuilder, TaskTimeout, from_input, from_output
from repro.engine import (
    ImplementationRegistry,
    LocalEngine,
    WorkflowStatus,
    outcome,
    pending,
    repeat,
)
from repro.lang import format_script
from repro.services import WorkflowSystem
from repro.workloads import generators, paper_order, paper_service_impact, paper_trip
from tests.conftest import build_pipeline_script, stage_registry


def fingerprint(result):
    """Everything the language semantics promise: status, outcome, output
    objects, marks — engine-independent (the event log interleaving is not)."""
    return (
        result.status.value,
        result.outcome,
        {name: ref.value for name, ref in result.objects.items()},
        [
            (name, {k: v.value for k, v in objects.items()})
            for name, objects in result.marks
        ],
    )


def distributed_fingerprint(result):
    """:func:`fingerprint` of an ``ExecutionService.result`` reply."""
    return (
        result["status"],
        result["outcome"],
        {name: ref["value"] for name, ref in result["objects"].items()},
        [
            (mark["name"], {k: ref["value"] for k, ref in mark["objects"].items()})
            for mark in result["marks"]
        ],
    )


def deploy(script, registry, root=None, inputs=None, **system_kwargs):
    """A system running one instance of ``script``: (system, iid)."""
    system = WorkflowSystem(registry=registry, **system_kwargs)
    root = root or next(iter(script.tasks))
    system.deploy("wf", format_script(script))
    return system, system.instantiate("wf", root, inputs or {})


def run_distributed(script, registry, root=None, inputs=None, **system_kwargs):
    system, iid = deploy(script, registry, root, inputs, **system_kwargs)
    return system, iid, system.run_until_terminal(iid)


class TestSequentialEquivalence:
    @pytest.mark.parametrize(
        "module,inputs",
        [
            (paper_order, {"order": "order-1"}),
            (paper_trip, {"user": "demo-user"}),
            (paper_service_impact, {"alarmsSource": "alarm-feed"}),
        ],
        ids=["order", "trip", "service-impact"],
    )
    def test_paper_examples_identical(self, module, inputs):
        script = module.build()
        sequential = LocalEngine(module.default_registry()).run(script, inputs=inputs)
        _, _, concurrent = run_distributed(
            script, module.default_registry(), inputs=inputs, workers=3
        )
        assert distributed_fingerprint(concurrent) == fingerprint(sequential)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_dags_identical_across_seeds(self, seed):
        script, registry, root, inputs = generators.random_dag(24, max_deps=3, seed=seed)
        sequential = LocalEngine(registry).run(script, root, inputs=inputs)
        # two schedules: the seed fixes the network latencies, and with them
        # the order in which the concurrent tasks' replies land
        for system_seed in (seed, seed + 100):
            _, _, concurrent = run_distributed(
                script, registry, root, inputs, workers=3, seed=system_seed
            )
            assert distributed_fingerprint(concurrent) == fingerprint(sequential)

    def test_fan_out_identical(self):
        script, registry, root, inputs = generators.fan(8)
        sequential = LocalEngine(registry).run(script, root, inputs=inputs)
        system, _, concurrent = run_distributed(script, registry, root, inputs, workers=3)
        assert distributed_fingerprint(concurrent) == fingerprint(sequential)
        executions = sum(len(worker.executed) for worker in system.workers)
        assert executions == sequential.stats["steps"]

    def test_pipeline_still_honours_dependency_order(self):
        script = build_pipeline_script(4)
        system, iid, result = run_distributed(
            script, stage_registry(), inputs={"inp": "x"}, workers=3
        )
        assert result["status"] == "completed"
        assert result["objects"]["out"]["value"] == "x++++"
        log = system.execution._full_runtime(iid).tree.log
        assert log.started_order() == [
            "pipeline",
            "pipeline/t1",
            "pipeline/t2",
            "pipeline/t3",
            "pipeline/t4",
        ]


class TestParallelDispatch:
    def test_independent_tasks_overlap(self):
        """At one simulated instant several of the fan's workers are in
        flight together, on distinct worker nodes."""
        script, registry, root, inputs = generators.fan(6)
        system, iid = deploy(script, registry, root, inputs, workers=3)
        runtime = system.execution.runtimes[iid]
        peak_flights = peak_workers = 0
        while system.fate(iid)["status"] == "running":
            system.clock.run(until=system.clock.now + 0.1)
            flights = runtime.in_flight.values()
            peak_flights = max(peak_flights, len(flights))
            peak_workers = max(
                peak_workers, len({w for flight in flights for w in flight.sent_to})
            )
        assert system.fate(iid)["status"] == "completed"
        assert peak_flights == 6  # every worker task dispatched in one pass
        assert peak_workers >= 2  # ... and served by distinct nodes at once

    def test_parallelism_one_degrades_to_sequential_loop(self):
        script = build_pipeline_script(3)
        system, _, result = run_distributed(
            script, stage_registry(), inputs={"inp": "x"}, workers=1
        )
        assert result["status"] == "completed"
        assert result["objects"]["out"]["value"] == "x+++"
        assert [path for _, path, _ in system.workers[0].executed] == [
            "pipeline/t1", "pipeline/t2", "pipeline/t3",
        ]

    def test_step_budget_enforced(self):
        """The budget binds even when the whole fan is ready at once: the
        run fails at the budget, not after draining the ready set."""
        script, registry, root, inputs = generators.fan(8)
        result = LocalEngine(registry, max_steps=3).run(script, root, inputs=inputs)
        assert result.status is WorkflowStatus.FAILED
        assert "max_steps=3" in result.error
        assert result.stats["steps"] == 3

    def test_system_retries_still_work(self):
        script = build_pipeline_script(2)
        registry = ImplementationRegistry()

        def flaky(ctx):
            if ctx.attempt < 3:
                raise RuntimeError(f"transient #{ctx.attempt}")
            return outcome("done", out=f"{ctx.value('inp')}+")

        registry.register("stage", flaky)
        _, _, result = run_distributed(script, registry, inputs={"inp": "x"})
        assert result["status"] == "completed"
        assert result["objects"]["out"]["value"] == "x++"

    def test_repeat_outcomes_still_loop(self):
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

        def loop(ctx):
            if ctx.repeats < 3:
                return repeat("again", carry=f"{ctx.value('inp')}+")
            return outcome("done", out=ctx.value("inp"))

        registry = ImplementationRegistry().register("loop", loop)
        _, _, result = run_distributed(b.build(), registry, inputs={"inp": "s"})
        assert result["status"] == "completed"
        assert result["objects"]["out"]["value"] == "s+++"

    def test_pending_external_stalls_and_resumes(self):
        script = build_pipeline_script(2)
        registry = ImplementationRegistry()
        registry.register("stage", lambda ctx: pending("waiting for a human"))
        system, iid = deploy(script, registry, inputs={"inp": "x"})
        system.clock.run(until=system.clock.now + 100.0)
        client = system.execution_proxy()
        assert client.external_tasks(iid) == ["pipeline/t1"]
        assert client.status(iid)["status"] == "running"
        client.complete_task(iid, "pipeline/t1", "done", {"out": "by-hand"})
        registry.register("stage", lambda ctx: outcome("done", out=f"{ctx.value('inp')}+"))
        result = system.run_until_terminal(iid)
        assert result["status"] == "completed"
        assert result["objects"]["out"]["value"] == "by-hand+"


def slow_script():
    b = ScriptBuilder()
    b.object_class("Data")
    (
        b.taskclass("Slow")
        .input_set("main", inp="Data")
        .outcome("done", out="Data")
        .abort_outcome("tooSlow")
    )
    b.taskclass("Root").input_set("main", inp="Data").abort_outcome("gaveUp")
    c = b.compound("wf", "Root")
    c.task("slow", "Slow").implementation(
        code="slow", timeout="0.01", retries="0"
    ).input("main", "inp", from_input("wf", "main", "inp")).up()
    c.output("gaveUp").notify(from_output("slow", "tooSlow")).up()
    c.up()
    return b.build()


def quick_script():
    b = ScriptBuilder()
    b.object_class("Data")
    b.taskclass("Quick").input_set("main", inp="Data").outcome("done", out="Data")
    b.taskclass("Root").input_set("main", inp="Data").outcome("done", out="Data")
    c = b.compound("wf", "Root")
    c.task("quick", "Quick").implementation(code="quick", timeout="5").input(
        "main", "inp", from_input("wf", "main", "inp")
    ).up()
    c.output("done").object("out", from_output("quick", "done", "out")).up()
    c.up()
    return b.build()


class TestTaskTimeout:
    def test_cooperative_timeout_aborts_task(self):
        seen = []

        def slow(ctx):
            seen.append(ctx.timeout)
            time.sleep(0.03)
            ctx.check_timeout()  # cooperative check: raises TaskTimeout
            return outcome("done", out="never")

        registry = ImplementationRegistry().register("slow", slow)
        local = LocalEngine(registry).run(slow_script(), inputs={"inp": "x"})
        _, _, distributed = run_distributed(slow_script(), registry, inputs={"inp": "x"})
        # the timeout failed the task; retries=0 surfaced its abort outcome,
        # on the local engine and on a distributed worker alike
        assert local.status is WorkflowStatus.ABORTED and local.outcome == "gaveUp"
        assert distributed["status"] == "aborted"
        assert distributed["outcome"] == "gaveUp"
        assert seen == [pytest.approx(0.01)] * 2

    def test_timeout_visible_in_context_and_sequential_engine(self):
        def quick(ctx):
            assert ctx.timeout == pytest.approx(5.0)
            assert ctx.remaining() is not None and ctx.remaining() > 0
            assert not ctx.timed_out
            ctx.check_timeout()  # within budget: no-op
            return outcome("done", out="fast")

        registry = ImplementationRegistry().register("quick", quick)
        result = LocalEngine(registry).run(quick_script(), inputs={"inp": "x"})
        assert result.completed
        assert result.value("out") == "fast"
        _, _, distributed = run_distributed(quick_script(), registry, inputs={"inp": "x"})
        assert distributed["status"] == "completed"
        assert distributed["objects"]["out"]["value"] == "fast"

    def test_check_timeout_raises_tasktimeout(self):
        from repro.engine.context import TaskContext

        ctx = TaskContext(
            task_path="wf/slow",
            taskclass=build_pipeline_script(1).taskclasses["Stage"],
            input_set="main",
            inputs={},
            properties={},
            timeout=0.001,
        )
        time.sleep(0.005)
        assert ctx.timed_out
        with pytest.raises(TaskTimeout):
            ctx.check_timeout()
