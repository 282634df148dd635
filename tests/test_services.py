"""Integration tests for the distributed workflow system (paper Fig. 4):
repository, execution service, workers, crash recovery, reconfiguration."""

import pytest

from repro.core.errors import SchemaError, ValidationReport
from repro.net import FaultPlan, LatencyModel
from repro.services import WorkflowSystem
from repro.txn.wal import WriteAheadLog
from repro.workloads import paper_order, paper_trip


def order_system(**kwargs):
    system = WorkflowSystem(**kwargs)
    paper_order.default_registry(registry=system.registry)
    system.deploy("order", paper_order.SCRIPT_TEXT)
    return system


class NeverForcingLog(WriteAheadLog):
    """The E14 ablation, "remove transactional propagation": a log whose
    force is a no-op, under the unchanged execution service."""

    def force(self) -> int:
        return 0


def ablated_order_system(**kwargs):
    """An order system whose execution store never forces its log; a crash
    of the execution node takes the store's unforced records with it."""
    system = order_system(**kwargs)
    system.execution_store.wal = NeverForcingLog()
    return system


class TestRepository:
    def test_store_and_get_script(self):
        system = WorkflowSystem()
        repo = system.repository_proxy()
        assert repo.store_script("order", paper_order.SCRIPT_TEXT) == 1
        assert repo.get_script("order") == paper_order.SCRIPT_TEXT

    def test_invalid_script_rejected(self):
        system = WorkflowSystem()
        repo = system.repository_proxy()
        with pytest.raises((SchemaError, ValidationReport, Exception)):
            repo.store_script("bad", "task t of taskclass Ghost { }")
        assert "bad" not in repo.list_scripts()

    def test_versioning(self):
        system = WorkflowSystem()
        repo = system.repository_proxy()
        repo.store_script("order", paper_order.SCRIPT_TEXT)
        v2 = repo.store_script("order", paper_order.SCRIPT_TEXT + "\n// v2\n")
        assert v2 == 2
        assert repo.versions("order") == 2
        assert "// v2" in repo.get_script("order")
        assert "// v2" not in repo.get_script("order", 1)

    def test_list_scripts(self):
        system = WorkflowSystem()
        repo = system.repository_proxy()
        repo.store_script("order", paper_order.SCRIPT_TEXT)
        repo.store_script("trip", paper_trip.SCRIPT_TEXT)
        assert repo.list_scripts() == ["order", "trip"]

    def test_inspect_gives_structure(self):
        system = WorkflowSystem()
        repo = system.repository_proxy()
        repo.store_script("order", paper_order.SCRIPT_TEXT)
        info = repo.inspect("order")
        assert info["tasks"]["processOrderApplication"]["tasks"] == 4
        assert "Dispatch" in info["taskclasses"]

    def test_remove_script(self):
        system = WorkflowSystem()
        repo = system.repository_proxy()
        repo.store_script("order", paper_order.SCRIPT_TEXT)
        assert repo.remove_script("order") is True
        assert repo.list_scripts() == []
        assert repo.remove_script("order") is False

    def test_repository_survives_node_crash(self):
        system = WorkflowSystem()
        repo = system.repository_proxy()
        repo.store_script("order", paper_order.SCRIPT_TEXT)
        system.repository_node.crash()
        system.repository_node.recover()
        assert repo.get_script("order") == paper_order.SCRIPT_TEXT

    def test_mutations_end_with_the_physical_barrier(self, tmp_path):
        """A caller that sees store_script / remove_script return has seen an
        fsync: no forced mirror row is left waiting for a later barrier."""
        from repro.services.repository import RepositoryService
        from repro.txn.store import ObjectStore

        path = tmp_path / "repository.jsonl"
        store = ObjectStore("repository-store", mirror_path=str(path))
        repo = RepositoryService("repository", store)
        repo.store_script("order", paper_order.SCRIPT_TEXT)
        assert store.wal._pending_syncs == 0
        assert len(path.read_text().splitlines()) == store.wal.durable_length
        repo.remove_script("order")
        assert store.wal._pending_syncs == 0
        store.wal.close()


class TestHappyPathExecution:
    def test_order_completes(self):
        system = order_system(workers=2)
        iid = system.instantiate("order", paper_order.ROOT_TASK, {"order": "o-1"})
        result = system.run_until_terminal(iid)
        assert result["status"] == "completed"
        assert result["outcome"] == "orderCompleted"
        assert result["objects"]["dispatchNote"]["value"] == "note:stock:o-1"

    def test_status_reports_progress(self):
        system = order_system()
        iid = system.instantiate("order", paper_order.ROOT_TASK, {"order": "o-1"})
        status = system.status(iid)
        assert status["status"] in ("running", "completed")
        system.run_until_terminal(iid)
        assert system.status(iid)["status"] == "completed"

    def test_multiple_concurrent_instances(self):
        system = order_system(workers=3)
        iids = [
            system.instantiate("order", paper_order.ROOT_TASK, {"order": f"o-{i}"})
            for i in range(5)
        ]
        for iid in iids:
            assert system.run_until_terminal(iid)["status"] == "completed"
        assert system.execution_proxy().list_instances() == sorted(iids)

    def test_work_spread_across_workers(self):
        system = order_system(workers=3)
        for i in range(6):
            iid = system.instantiate("order", paper_order.ROOT_TASK, {"order": f"o-{i}"})
            system.run_until_terminal(iid)
        busy = [w for w in system.workers if w.executed]
        assert len(busy) >= 2

    def test_trip_app_with_marks_runs_distributed(self):
        system = WorkflowSystem(workers=3)
        paper_trip.default_registry(registry=system.registry)
        system.deploy("trip", paper_trip.SCRIPT_TEXT)
        iid = system.instantiate("trip", paper_trip.ROOT_TASK, {"user": "bob"})
        result = system.run_until_terminal(iid, max_time=50_000)
        assert result["outcome"] == "tripArranged"
        assert [m["name"] for m in result["marks"]] == ["toPay"]


class TestFaultTolerance:
    def test_execution_node_crash_recovers_and_completes(self):
        system = order_system(workers=2)
        iid = system.instantiate("order", paper_order.ROOT_TASK, {"order": "o-1"})
        FaultPlan(system.clock).crash_at(
            system.execution_node, when=2.0, down_for=50.0
        ).arm()
        result = system.run_until_terminal(iid, max_time=10_000)
        assert result["status"] == "completed"
        assert system.execution.stats["recoveries"] == 1

    def test_worker_crash_redispatches_elsewhere(self):
        system = order_system(workers=2, dispatch_timeout=20.0, sweep_interval=5.0)
        iid = system.instantiate("order", paper_order.ROOT_TASK, {"order": "o-1"})
        FaultPlan(system.clock).crash_at(
            system.worker_nodes[0], when=0.5, down_for=500.0
        ).arm()
        result = system.run_until_terminal(iid, max_time=10_000)
        assert result["status"] == "completed"
        # the adaptive dispatcher moves work off a dead worker via a hedge,
        # a failover or a timed-out redispatch, depending on timing
        stats = system.execution.stats
        moved = stats["redispatches"] + stats["hedges"] + stats["failovers"]
        assert moved >= 1

    def test_message_loss_tolerated(self):
        system = order_system(workers=2, loss_rate=0.25, seed=11,
                              dispatch_timeout=15.0, sweep_interval=5.0)
        iid = system.instantiate("order", paper_order.ROOT_TASK, {"order": "o-1"})
        result = system.run_until_terminal(iid, max_time=20_000)
        assert result["status"] == "completed"
        assert system.network.stats.dropped_loss > 0

    def test_repeated_crashes_still_complete(self):
        system = order_system(workers=2)
        iid = system.instantiate("order", paper_order.ROOT_TASK, {"order": "o-1"})
        plan = FaultPlan(system.clock)
        plan.crash_at(system.execution_node, when=2.0, down_for=20.0)
        plan.crash_at(system.execution_node, when=60.0, down_for=20.0)
        plan.crash_at(system.worker_nodes[1], when=5.0, down_for=100.0)
        plan.arm()
        result = system.run_until_terminal(iid, max_time=20_000)
        assert result["status"] == "completed"
        assert system.execution.stats["recoveries"] == 2

    def test_partition_heals_and_completes(self):
        system = order_system(workers=2, dispatch_timeout=15.0, sweep_interval=5.0)
        iid = system.instantiate("order", paper_order.ROOT_TASK, {"order": "o-1"})
        system.network.partition(
            {system.execution_node.name},
            {n.name for n in system.worker_nodes},
        )
        system.clock.call_at(40.0, system.network.heal)
        result = system.run_until_terminal(iid, max_time=20_000)
        assert result["status"] == "completed"

    def test_duplicate_replies_deduplicated(self):
        # aggressive re-dispatch under load: replies may arrive twice, but
        # each execution is applied exactly once
        system = order_system(workers=2, dispatch_timeout=2.0, sweep_interval=1.0,
                              latency=LatencyModel(3.0, 1.0), seed=5)
        iid = system.instantiate("order", paper_order.ROOT_TASK, {"order": "o-1"})
        result = system.run_until_terminal(iid, max_time=20_000)
        assert result["status"] == "completed"
        assert result["outcome"] == "orderCompleted"

    def test_recovery_replay_reaches_same_state(self):
        # run to completion, then force a recovery and compare results
        system = order_system(workers=2)
        iid = system.instantiate("order", paper_order.ROOT_TASK, {"order": "o-1"})
        before = system.run_until_terminal(iid)
        system.execution_node.crash()
        system.execution_node.recover()
        after = system.execution.result(iid)
        assert after["outcome"] == before["outcome"]
        assert after["objects"] == before["objects"]

    def test_ablation_durable_false_loses_instance_on_crash(self):
        system = ablated_order_system(workers=2)
        iid = system.instantiate("order", paper_order.ROOT_TASK, {"order": "o-1"})
        FaultPlan(system.clock).crash_at(
            system.execution_node, when=1.0, down_for=10.0
        ).arm()
        result = system.run_until_terminal(iid, max_time=3_000)
        assert result["status"] == "lost"

    def test_durable_false_without_crash_still_works(self):
        system = ablated_order_system(workers=2)
        iid = system.instantiate("order", paper_order.ROOT_TASK, {"order": "o-1"})
        result = system.run_until_terminal(iid)
        assert result["status"] == "completed"
        assert system.execution_store.wal.durable_length == 0


class TestSweeperWorkingSet:
    """The sweeper visits the unsettled instances — the ones that can still
    have a flight out — not every instance ever created; ``runtimes`` itself
    stays complete."""

    def test_finished_instances_leave_at_the_next_sweep(self):
        system = order_system(workers=2, sweep_interval=5.0)
        service = system.execution
        iids = [
            system.instantiate("order", paper_order.ROOT_TASK, {"order": f"o-{n}"})
            for n in range(6)
        ]
        assert list(service._live) == iids
        for iid in iids:
            assert system.run_until_terminal(iid)["status"] == "completed"
        system.clock.advance(2 * service.sweep_interval)
        assert service._live == {}
        assert list(service.runtimes) == iids
        late = system.instantiate("order", paper_order.ROOT_TASK, {"order": "o-late"})
        assert list(service._live) == [late]

    def test_a_terminal_instance_stays_while_a_flight_is_still_out(self):
        from repro.core import ScriptBuilder, from_input, from_output
        from repro.engine import outcome
        from repro.lang import format_script

        system = WorkflowSystem(workers=2, dispatch_timeout=10.0, sweep_interval=5.0)
        service = system.execution
        fast_worker, slow_worker = service.worker_names
        b = ScriptBuilder()
        b.object_class("Data")
        b.taskclass("Work").input_set("main").outcome("done", out="Data")
        b.taskclass("Root").input_set("main").outcome("done", out="Data")
        c = b.compound("wf", "Root")
        for name, worker in (("fast", fast_worker), ("slow", slow_worker)):
            c.task(name, "Work").implementation(code="work", location=worker).notify(
                "main", from_input("wf", "main")
            ).up()
        c.output("done").object("out", from_output("fast", "done", "out")).up()
        c.up()
        system.registry.register("work", lambda ctx: outcome("done", out="x"))
        system.deploy("race", format_script(b.build()))
        system.worker_nodes[1].crash()  # slow's pinned dispatch is never answered
        iid = system.instantiate("race", "wf", {})
        system.clock.advance(8.0)
        runtime = service.runtimes[iid]
        assert runtime.tree.status.value == "completed"
        assert list(runtime.in_flight) == [("wf/slow", 1)] and iid in service._live
        assert not runtime.settled
        system.clock.advance(60.0)
        # the orphan flight was still swept: re-sent off its pin, answered
        assert service.stats["redispatches"] == 1
        assert not runtime.in_flight and iid not in service._live
        assert runtime.settled  # only now: the answer is in the journal
        journal = service.export_instance(iid)["journal"]
        assert [e["path"] for e in journal if e["type"] == "result"] == ["wf/fast", "wf/slow"]

    def test_recovery_starts_live_from_the_unsettled(self):
        system = order_system(workers=2, sweep_interval=5.0)
        service = system.execution
        done = system.instantiate("order", paper_order.ROOT_TASK, {"order": "o-1"})
        assert system.run_until_terminal(done)["status"] == "completed"
        running = system.instantiate("order", paper_order.ROOT_TASK, {"order": "o-2"})
        system.execution_node.crash()
        system.execution_node.recover()
        assert list(service.runtimes) == [done, running]
        assert list(service._live) == [running]
        assert service._live[running] is service.runtimes[running]
        assert service.runtimes[done].settled
        assert system.run_until_terminal(running)["status"] == "completed"


class TestDistributedAdministration:
    def test_force_abort_through_service(self):
        system = WorkflowSystem(workers=1)
        paper_order.default_registry(registry=system.registry)
        # make dispatch hang forever by binding a code that stalls the task:
        # simplest hang = a workflow whose dispatch dependency never fires,
        # so force-abort the WAITing dispatch task instead
        system.registry.register(
            "refCheckStock",
            lambda ctx: __import__("repro.engine", fromlist=["outcome"]).outcome(
                "stockNotAvailable"
            ),
        )
        system.deploy("order", paper_order.SCRIPT_TEXT)
        iid = system.instantiate("order", paper_order.ROOT_TASK, {"order": "o"})
        result = system.run_until_terminal(iid, max_time=2_000)
        assert result["outcome"] == "orderCancelled"

    def test_reconfigure_running_instance_via_service(self):
        from repro.workloads import diamond
        from repro.lang import format_script
        from repro.core import AddTask, Implementation
        from repro.core.schema import (
            GuardKind,
            InputObjectBinding,
            InputSetBinding,
            Source,
            TaskDecl,
        )

        script, registry, root, inputs = diamond()
        system = WorkflowSystem(workers=1, registry=registry)
        registry.register(
            "join2",
            lambda ctx: __import__("repro.engine", fromlist=["outcome"]).outcome(
                "done", out="j2"
            ),
        )
        system.deploy("diamond", format_script(script))
        iid = system.instantiate("diamond", root, inputs)
        t5 = TaskDecl(
            "t5",
            "Join",
            Implementation.of(code="join2"),
            (
                InputSetBinding(
                    "main",
                    (
                        InputObjectBinding(
                            "left", (Source("t2", "out", GuardKind.OUTPUT, "done"),)
                        ),
                        InputObjectBinding(
                            "right", (Source("t3", "out", GuardKind.OUTPUT, "done"),)
                        ),
                    ),
                ),
            ),
        )
        new_script = AddTask("fig1", t5).apply_checked(script)
        system.execution_proxy().reconfigure(iid, format_script(new_script))
        result = system.run_until_terminal(iid, max_time=5_000)
        assert result["status"] == "completed"

    def test_reconfigure_survives_crash_via_journal(self):
        from repro.workloads import diamond
        from repro.lang import format_script
        from repro.core import AddTask, Implementation
        from repro.core.schema import (
            GuardKind,
            InputObjectBinding,
            InputSetBinding,
            Source,
            TaskDecl,
        )
        from repro.engine import outcome as mk_outcome

        script, registry, root, inputs = diamond()
        registry.register("join2", lambda ctx: mk_outcome("done", out="j2"))
        system = WorkflowSystem(workers=1, registry=registry)
        system.deploy("diamond", format_script(script))
        iid = system.instantiate("diamond", root, inputs)
        t5 = TaskDecl(
            "t5",
            "Join",
            Implementation.of(code="join2"),
            (
                InputSetBinding(
                    "main",
                    (
                        InputObjectBinding(
                            "left", (Source("t2", "out", GuardKind.OUTPUT, "done"),)
                        ),
                        InputObjectBinding(
                            "right", (Source("t3", "out", GuardKind.OUTPUT, "done"),)
                        ),
                    ),
                ),
            ),
        )
        new_script = AddTask("fig1", t5).apply_checked(script)
        system.execution_proxy().reconfigure(iid, format_script(new_script))
        system.execution_node.crash()
        system.execution_node.recover()
        # the replayed instance must know about t5
        runtime = system.execution.runtimes[iid]
        assert runtime.tree.script.tasks["fig1"].task("t5") is not None
        result = system.run_until_terminal(iid, max_time=5_000)
        assert result["status"] == "completed"


class TestRepeatRoundExecutionIdentity:
    """Regression: after a compound repeat rebuilds its constituents, their
    machine.starts counters reset — journal keys must still be unique, or
    round-2 replies are dropped as duplicates (found by the chaos suite)."""

    def trip_system(self):
        from repro.workloads import paper_trip

        system = WorkflowSystem(workers=2)
        paper_trip.default_registry(
            hotel_rounds_until_success=2,
            hotel_attempts_needed=1,
            hotel_max_tries=3,
            registry=system.registry,
        )
        system.deploy("trip", paper_trip.SCRIPT_TEXT)
        return system

    def test_br_retry_round_completes_distributed(self):
        system = self.trip_system()
        iid = system.instantiate("trip", paper_trip.ROOT_TASK, {"user": "rounds"})
        result = system.run_until_terminal(iid, max_time=100_000)
        assert result["status"] == "completed"
        assert result["outcome"] == "tripArranged"
        # dataAcquisition ran in both rounds: two distinct journal results
        runtime = system.execution._full_runtime(iid)
        da_keys = [
            k
            for k in runtime.journal_keys
            if k[0] == "result" and k[1].endswith("dataAcquisition")
        ]
        assert len(da_keys) == 2
        assert len({k[2] for k in da_keys}) == 2  # distinct execution indices

    def test_recovery_mid_second_round(self):
        system = self.trip_system()
        iid = system.instantiate("trip", paper_trip.ROOT_TASK, {"user": "rounds"})
        # run partway: let round 1 fail and round 2 begin, then crash
        system.clock.advance(40.0)
        system.execution_node.crash()
        system.execution_node.recover()
        result = system.run_until_terminal(iid, max_time=100_000)
        assert result["status"] == "completed"
        assert result["outcome"] == "tripArranged"
