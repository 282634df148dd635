"""Plan compilation: table layout, firing tables, runtime equivalence of a
tree on the script's shared plan and one that compiles its own scopes, the
compiled tracker against the specification tracker, and the ``repro plan``
dump."""

import json

import pytest

from repro.core import ScriptBuilder, from_input, from_output
from repro.core.selection import (
    HOTPATH_STATS,
    EventKind,
    TaskInputTracker,
    WorkflowEvent,
)
from repro.core.values import ObjectRef
from repro.engine import LocalEngine, LocalWorkflow, compile_plan
from repro.engine.plan import (
    PlanTracker,
    compile_bindings,
    compound_scope_vocabulary,
    effective_input_sets,
)
from repro.workloads import generators, paper_order, paper_service_impact, paper_trip
from tests.test_concurrent_engine import distributed_fingerprint, run_distributed
from tests.test_concurrent_engine import fingerprint as plain_fingerprint

PAPER = [
    (paper_order, {"order": "order-1"}),
    (paper_trip, {"user": "demo-user"}),
    (paper_service_impact, {"alarmsSource": "alarm-feed"}),
]


def canonical_log(log):
    """Byte-level identity of an event log: every field of every entry."""
    return [
        (
            entry.seq,
            entry.time,
            entry.scope_path,
            entry.producer_path,
            entry.event.producer,
            entry.event.kind.value,
            entry.event.name,
            entry.event.seq,
            tuple(
                (name, ref.class_name, ref.value, ref.produced_by, ref.via)
                for name, ref in entry.event.objects.items()
            ),
        )
        for entry in log.entries
    ]


def fingerprint(result):
    return (
        result.status,
        result.outcome,
        {name: ref.value for name, ref in result.objects.items()},
        [(name, {k: v.value for k, v in objects.items()}) for name, objects in result.marks],
    )


def shared_plan_run(script, registry, root, inputs):
    """A local run on the script's shared plan, as the execution service
    builds its trees (``LocalEngine`` compiles each tree's own scopes)."""
    plan = compile_plan(script, root_task=root, analyze=False)
    seeded = LocalWorkflow(script, root, registry, plan=plan)
    seeded.start(inputs)
    return seeded.run_to_completion()


class TestSequentialByteIdentity:
    @pytest.mark.parametrize(
        "module,inputs", PAPER, ids=["order", "trip", "service-impact"]
    )
    def test_paper_workloads_byte_identical(self, module, inputs):
        script, registry = module.build(), module.default_registry()
        shared_run = shared_plan_run(script, registry, module.ROOT_TASK, inputs)
        compiled_run = LocalEngine(registry).run(script, inputs=inputs)
        assert canonical_log(shared_run.log) == canonical_log(compiled_run.log)
        assert shared_run.stats["steps"] == compiled_run.stats["steps"]

    @pytest.mark.parametrize(
        "workload",
        [generators.chain(12), generators.fan(12), generators.diamond()],
        ids=["chain", "fan", "diamond"],
    )
    def test_generated_workloads_byte_identical(self, workload):
        script, registry, root, inputs = workload
        shared_run = shared_plan_run(script, registry, root, inputs)
        compiled_run = LocalEngine(registry).run(script, root, inputs=inputs)
        assert canonical_log(shared_run.log) == canonical_log(compiled_run.log)

    def test_seeded_plan_byte_identical(self):
        """A precompiled ExecutionPlan passed as a table cache changes nothing."""
        script, registry, root, inputs = generators.fan(6)
        seeded_result = shared_plan_run(script, registry, root, inputs)
        plain = LocalEngine(registry).run(script, root, inputs=inputs)
        assert canonical_log(seeded_result.log) == canonical_log(plain.log)


class TestConcurrentEquivalence:
    @pytest.mark.parametrize(
        "module,inputs", PAPER, ids=["order", "trip", "service-impact"]
    )
    def test_paper_workloads_same_fingerprint(self, module, inputs):
        """The distributed system runs plans with tasks in flight together
        on worker nodes; its log may interleave, but the semantics (outcome,
        objects, marks) must match the local engine's."""
        script = module.build()
        _, _, plan_run = run_distributed(
            script, module.default_registry(), inputs=inputs, workers=3
        )
        local_run = LocalEngine(module.default_registry()).run(script, inputs=inputs)
        assert distributed_fingerprint(plan_run) == plain_fingerprint(local_run)


class TestTableLayout:
    def test_fan_sink_bitmask_layout(self):
        script, _, root, _ = generators.fan(4)
        plan = compile_plan(script, root_task=root, analyze=False)
        sink = plan.task_at("fan/sink")
        assert sink is not None and not sink.compound
        (set_plan,) = sink.table.sets
        assert set_plan.name == "main"
        # 1 object slot + 3 notification slots -> mask covers 4 bits
        assert set_plan.mask == 0b1111
        assert set_plan.layout == (("inp", 0),)
        assert [s.notification for s in sink.table.slots] == [False, True, True, True]
        # each worker outcome feeds exactly one sink slot
        for worker, slot in [("w1", 0), ("w2", 1), ("w3", 2), ("w4", 3)]:
            groups = sink.table.entries[(worker, EventKind.OUTCOME, "done")]
            assert [g[0] for g in groups] == [slot]

    def test_task_ids_are_dense_and_ordered(self):
        script, _, root, _ = generators.chain(5)
        plan = compile_plan(script, root_task=root, analyze=False)
        assert [t.task_id for t in plan.tasks] == list(range(len(plan.tasks)))
        assert plan.tasks[0].path == "pipeline"
        assert plan.tasks[0].compound

    def test_anonymous_set_for_classless_inputs(self):
        b = ScriptBuilder()
        b.taskclass("Free").outcome("done")
        b.taskclass("Root").outcome("done")
        c = b.compound("wf", "Root")
        c.task("free", "Free").implementation(code="free").up()
        c.output("done").notify(from_output("free", "done")).up()
        c.up()
        script = b.build()
        decl = script.tasks["wf"].task("free")
        sets = effective_input_sets(decl, script.taskclass_of(decl))
        assert len(sets) == 1 and sets[0].name == ""
        plan = compile_plan(script, analyze=False)
        free = plan.task_at("wf/free")
        assert free.table.sets[0].mask == 0  # always satisfied
        assert free.table.slot_count == 0

    def test_liveness_annotation_marks_dead_keys(self):
        # a <-> b cycle: both statically dead, but their firing keys exist
        b = ScriptBuilder()
        b.object_class("Data")
        b.taskclass("Stage").input_set("main", inp="Data").outcome("done", out="Data")
        b.taskclass("Root").input_set("main", inp="Data").outcome("done", out="Data")
        c = b.compound("wf", "Root")
        c.task("a", "Stage").implementation(code="s").input(
            "main", "inp", from_output("b", "done", "out")
        ).up()
        c.task("b", "Stage").implementation(code="s").input(
            "main", "inp", from_output("a", "done", "out")
        ).up()
        c.output("done").object("out", from_output("a", "done", "out")).up()
        c.up()
        plan = compile_plan(b.build())
        a = plan.task_at("wf/a")
        assert a.startable == ()  # liveness: never ready
        rendered = plan.render()
        assert "DEAD" in rendered
        assert plan.stats()["dead_keys"] > 0


class TestPlanTrackerSemantics:
    def _compiled_pair(self):
        """The same bindings as the specification tracker and a PlanTracker."""
        script, _, root, _ = generators.fan(3)
        decl = script.tasks[root]
        taskclass = script.taskclass_of(decl)
        sink_decl = decl.task("sink")
        vocab = compound_scope_vocabulary(
            decl, taskclass, [(t.name, script.taskclass_of(t), t) for t in decl.tasks]
        )
        bindings = effective_input_sets(sink_decl, script.taskclass_of(sink_decl))
        table = compile_bindings(bindings, vocab)
        return TaskInputTracker(bindings), PlanTracker(table)

    def _event(self, producer, name="done", seq=1, **objects):
        refs = {
            k: ObjectRef("Data", v, producer, name) for k, v in objects.items()
        }
        return WorkflowEvent(producer, EventKind.OUTCOME, name, refs, seq)

    def test_same_fold_as_interpretive(self):
        spec, plan = self._compiled_pair()
        events = [
            self._event("w2", seq=1),
            self._event("w1", seq=2, out="first"),
            self._event("w3", seq=3),
            self._event("w1", seq=4, out="refreshed"),  # refresh of current best
        ]
        for event in events:
            assert spec.offer(event) == plan.offer(event)
            assert (spec.ready() is None) == (plan.ready() is None)
        assert spec.ready() == plan.ready()
        name, values = plan.ready()
        assert name == "main"
        assert values["inp"].value == "refreshed"

    def test_unmatched_event_is_single_lookup(self):
        _, plan = self._compiled_pair()
        before = HOTPATH_STATS.source_evals
        assert plan.offer(self._event("stranger")) is False
        assert HOTPATH_STATS.source_evals == before  # no slot touched


class TestPlanCli:
    def test_text_and_json_dump(self, tmp_path, capsys):
        from repro.cli import main
        from repro.lang import format_script

        script, _, _, _ = generators.fan(3)
        path = tmp_path / "fan.wf"
        path.write_text(format_script(script))
        assert main(["plan", str(path)]) == 0
        text = capsys.readouterr().out
        assert "execution plan:" in text
        assert "scope fan:" in text
        assert main(["plan", str(path), "--json", "--no-liveness"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["roots"] == ["fan"]
        assert payload["stats"]["tasks"] == len(payload["tasks"])

    def test_unknown_task_fails(self, tmp_path, capsys):
        from repro.cli import main
        from repro.lang import format_script

        script, _, _, _ = generators.chain(2)
        path = tmp_path / "chain.wf"
        path.write_text(format_script(script))
        assert main(["plan", str(path), "nonexistent"]) == 1
