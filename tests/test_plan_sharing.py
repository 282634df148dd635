"""One compiled ExecutionPlan per script, shared read-only by every instance
the execution service builds on it (docs/PROTOCOLS.md §10): compiled once,
never written through, abandoned by an instance at its first
reconfiguration, and kept by the compile cache while the script is in use."""

from collections import OrderedDict

import pytest

from repro.engine import outcome
from repro.engine import instance as instance_mod
from repro.engine import plan as plan_mod
from repro.engine.plan import compile_plan
from repro.services import WorkflowSystem
from repro.services import execution as execution_mod
from repro.services.journal import Journal, script_digest
from repro.sim import oracles
from repro.workloads import chain, fan, paper_order, script_text

from tests.test_plan import canonical_log


@pytest.fixture(autouse=True)
def cold_compile_cache(monkeypatch):
    """Each test starts with an empty compile cache of its own."""
    monkeypatch.setattr(execution_mod, "_COMPILE_CACHE", OrderedDict())


def deployed(workload, name="wl", **kwargs):
    _script, registry, root, inputs = workload
    system = WorkflowSystem(registry=registry, **kwargs)
    system.deploy(name, script_text(workload))
    return system, root, inputs


def shared_plan(text):
    return execution_mod._COMPILE_CACHE[text].plan


def event_log(service, iid):
    """Every field of every log entry except the simulated time (index 1),
    which depends on what else the network carried."""
    return [
        entry[:1] + entry[2:]
        for entry in canonical_log(service._full_runtime(iid).tree.log)
    ]


class TestCompiledOnce:
    def test_n_instances_compile_each_task_once(self, monkeypatch):
        calls = []
        original = plan_mod.compile_node_table

        def counting(decl, taskclass, vocabulary):
            calls.append(decl.name)
            return original(decl, taskclass, vocabulary)

        monkeypatch.setattr(plan_mod, "compile_node_table", counting)
        monkeypatch.setattr(instance_mod, "compile_node_table", counting)
        workload = fan(5)
        system, root, inputs = deployed(workload)
        assert calls == []  # deploy stores the script; nothing is compiled
        for _ in range(6):
            iid = system.instantiate("wl", root, inputs)
            assert system.run_until_terminal(iid)["status"] == "completed"
        tasks = [path for path, _decl in workload[0].walk_tasks()]
        assert len(calls) == len(tasks) == 8
        plan = shared_plan(script_text(workload))
        service = system.execution
        assert all(service._full_runtime(iid).tree.plan is plan for iid in service.runtimes)

    def test_plan_is_read_only(self):
        script = fan(3)[0]
        plan = compile_plan(script)
        scope = plan.scopes["fan"]
        table = scope.tables[0]
        key = next(iter(table.entries))
        for mapping in (plan.scopes, plan.by_path, scope.routing,
                        scope.watch_routing, table.entries):
            with pytest.raises(TypeError):
                mapping[key] = ()
        for frozen, attr in ((plan, "scopes"), (scope, "tables"), (table, "sets"),
                             (scope.templates[0], "code")):
            with pytest.raises(AttributeError):
                setattr(frozen, attr, None)


class TestReconfigurationLeavesTheSharedPlan:
    def test_neighbour_of_a_reconfigured_instance_is_undisturbed(self):
        def run(reconfigure_first):
            workload = chain(3)
            workload[1].register("stage2", lambda ctx: outcome("done", out="swapped"))
            system, root, inputs = deployed(workload, workers=2)
            text = script_text(workload)
            service = system.execution
            first = system.instantiate("wl", root, inputs) if reconfigure_first else None
            second = system.instantiate("wl", root, inputs)
            plan = shared_plan(text)
            before = compile_plan(service.runtimes[second].script)
            if reconfigure_first:
                head, _sep, tail = text.rpartition('"code" is "stage"')
                system.execution_proxy().reconfigure(first, head + '"code" is "stage2"' + tail)
                assert service.runtimes[first].tree.plan is None
                assert service.runtimes[second].tree.plan is plan
                result = system.run_until_terminal(first)
                assert result["objects"]["out"]["value"] == "swapped"
            assert system.run_until_terminal(second)["status"] == "completed"
            # the shared plan still says what a fresh compile says
            assert shared_plan(text) is plan
            assert plan.by_path == before.by_path and plan.scopes == before.scopes
            return event_log(service, second)

        assert run(reconfigure_first=True) == run(reconfigure_first=False)


class TestRebuildsUseTheSharedPlan:
    def test_crash_recovery(self):
        workload = chain(4)
        system, root, inputs = deployed(workload, workers=2)
        iids = [system.instantiate("wl", root, inputs) for _ in range(3)]
        system.run_until_terminal(iids[0])
        plan = shared_plan(script_text(workload))
        system.execution_node.crash()
        system.execution_node.recover()
        service = system.execution
        assert sorted(service.runtimes) == sorted(iids)
        assert all(service._full_runtime(iid).tree.plan is plan for iid in iids)
        assert oracles.check_replay_agreement(service) == []
        for iid in iids:
            assert system.run_until_terminal(iid)["status"] == "completed"

    def test_standby_promotion(self):
        system = WorkflowSystem(workers=2, replicas=2, lease_duration=30.0)
        paper_order.default_registry(registry=system.registry)
        system.deploy("order", paper_order.SCRIPT_TEXT)
        iid = system.instantiate("order", paper_order.ROOT_TASK, {"order": "o-1"})
        system.clock.advance(6.0)
        plan = shared_plan(paper_order.SCRIPT_TEXT)
        standby = system.execution_replicas[1]
        # a standby holds the text, not a tree built on it
        assert standby.runtimes == {}
        assert Journal(standby.store).script_text(script_digest(paper_order.SCRIPT_TEXT))
        system.execution_node.crash()
        while system.primary_execution() is None:
            system.clock.advance(1.0)
        promoted = system.primary_execution()
        assert promoted is standby
        assert promoted.runtimes[iid].tree.plan is plan  # what promotion built
        system.clock.advance(200.0)
        assert promoted._full_runtime(iid).tree.plan is plan
        assert oracles.check_replay_agreement(promoted) == []
        assert promoted.status(iid)["status"] == "completed"

    def test_import_instance(self):
        source, root, inputs = deployed(chain(3), workers=2)
        target, _root, _inputs = deployed(chain(3), workers=2)
        iid = source.instantiate("wl", root, inputs)
        snapshot = source.execution_proxy().export_instance(iid)
        target.execution_proxy().import_instance(snapshot)
        adopted = target.execution.runtimes[iid]
        assert adopted.tree.plan is source.execution.runtimes[iid].tree.plan
        assert target.run_until_terminal(iid)["status"] == "completed"


class TestPerScriptFacts:
    """What every instance of a text needs to know about it — its digest,
    whether any task declares a deadline, the root task's criticality — is
    worked out once per text, beside the plan."""

    def test_computed_once_across_instances_recovery_and_standby_images(self, monkeypatch):
        walks, lookups = [], []
        original_walk = execution_mod.Script.walk_tasks
        original_criticality = execution_mod.criticality_of

        def walk_tasks(script):
            walks.append(script)
            return original_walk(script)

        def criticality_of(script, root_task):
            lookups.append(root_task)
            return original_criticality(script, root_task)

        system = WorkflowSystem(workers=2, replicas=2, lease_duration=30.0)
        paper_order.default_registry(registry=system.registry)
        system.deploy("order", paper_order.SCRIPT_TEXT)
        monkeypatch.setattr(execution_mod.Script, "walk_tasks", walk_tasks)
        monkeypatch.setattr(execution_mod, "criticality_of", criticality_of)
        iids = [
            system.instantiate("order", paper_order.ROOT_TASK, {"order": f"o-{n}"})
            for n in range(4)
        ]
        system.clock.advance(6.0)
        system.execution_node.crash()
        system.clock.advance(200.0)  # failover: three services built every tree
        for iid in iids:
            assert system.run_until_terminal(iid)["status"] == "completed"
        compiled = execution_mod._compiled(paper_order.SCRIPT_TEXT)
        assert walks == [compiled.script]
        assert lookups == [paper_order.ROOT_TASK]
        assert compiled.digest == script_digest(paper_order.SCRIPT_TEXT)
        assert compiled.deadlines == {}

    def test_reconfiguration_takes_the_new_texts_facts(self):
        workload = chain(2)
        system, root, inputs = deployed(workload, workers=2)
        text = script_text(workload)
        iid = system.instantiate("wl", root, inputs)
        runtime = system.execution.runtimes[iid]
        assert runtime.deadlines == ()
        head, _sep, tail = text.rpartition('"code" is "stage"')
        with_deadline = head + '"code" is "stage"; "deadline" is "500"' + tail
        system.execution_proxy().reconfigure(iid, with_deadline)
        deadlines = ((f"{root}/t2", 500.0),)
        assert execution_mod._compiled(with_deadline).deadlines == {root: deadlines}
        assert runtime.deadlines == deadlines
        # and so does the replay of the journaled reconfiguration
        system.execution_node.crash()
        system.execution_node.recover()
        assert system.execution.runtimes[iid].deadlines == deadlines
        assert system.run_until_terminal(iid)["status"] == "completed"


class TestCompileCacheEviction:
    def test_hot_script_survives_a_stream_of_one_off_scripts(self):
        hot = script_text(chain(2))
        script = execution_mod._compiled(hot).script
        system, root, inputs = deployed(chain(2))
        system.run_until_terminal(system.instantiate("wl", root, inputs))
        plan = shared_plan(hot)
        assert plan is not None and plan.script is script
        for n in range(200):
            execution_mod._compiled(hot.replace("pipeline", f"oneoff{n}"))
            if n % 50 == 25:  # the hot script stays in use between them
                system.run_until_terminal(system.instantiate("wl", root, inputs))
        assert len(execution_mod._COMPILE_CACHE) == execution_mod._COMPILE_CACHE_MAX
        assert execution_mod._compiled(hot).script is script
        assert shared_plan(hot) is plan
