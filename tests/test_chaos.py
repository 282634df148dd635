"""Chaos integration tests: many instances, sustained random failures.

The strongest form of the paper's §3 guarantee: a fleet of workflow
instances all complete despite continuous random crashes of every node,
message loss and a partition episode — the only casualty is time.
"""

import json

import pytest

from repro.services import WorkflowSystem
from repro.services.system import SystemSpec
from repro.sim.explorer import replay
from repro.sim.harness import SimHarness
from repro.sim.nemesis import NemesisSchedule, RandomCrashes
from repro.workloads import paper_order, paper_trip

FLEET = SystemSpec(workers=3, loss_rate=0.10, seed=42, dispatch_timeout=20.0, sweep_interval=5.0)
FLEET_CHAOS = RandomCrashes(
    ("execution-node", "worker-node-1", "worker-node-2", "worker-node-3"),
    interval=40.0, downtime=20.0, seed=7,
)


class TestChaosFleet:
    def test_ten_orders_under_sustained_chaos(self):
        system = WorkflowSystem(FLEET)
        paper_order.default_registry(registry=system.registry)
        system.deploy("order", paper_order.SCRIPT_TEXT)
        iids = [
            system.instantiate("order", paper_order.ROOT_TASK, {"order": f"o-{i}"})
            for i in range(10)
        ]
        crashes = NemesisSchedule([FLEET_CHAOS]).arm(system)
        for iid in iids:
            result = system.run_until_terminal(iid, max_time=100_000)
            assert result["status"] == "completed", iid
            assert result["outcome"] == "orderCompleted"
        assert len(crashes) > 0  # chaos actually happened
        assert system.execution.stats["recoveries"] > 0

    def test_the_fleets_chaos_passes_every_oracle_and_replays(self, tmp_path):
        """The same chaos under the sim harness, where the oracles watch
        every crash and recovery; its repro file replays byte for byte."""
        harness = SimHarness(
            NemesisSchedule([FLEET_CHAOS], name="fleet-chaos"),
            workload="order", instances=10, system=FLEET,
        )
        report = harness.run()
        assert report.ok, report.violations
        assert {c["node"] for c in report.crashes} >= {"execution-node"}
        assert all(info["status"] == "completed" for info in report.instances.values())
        path = tmp_path / "repro-fleet-chaos.json"
        repro = {"harness": harness.to_plain(), "fingerprint": report.fingerprint()}
        path.write_text(json.dumps(repro))
        reproduced, recorded, fresh, _report = replay(str(path))
        assert reproduced, (recorded, fresh)

    def test_trip_app_with_loops_under_chaos(self):
        system = WorkflowSystem(
            workers=2,
            loss_rate=0.05,
            seed=5,
            dispatch_timeout=20.0,
            sweep_interval=5.0,
        )
        paper_trip.default_registry(
            hotel_rounds_until_success=2,
            hotel_attempts_needed=1,
            hotel_max_tries=3,
            registry=system.registry,
        )
        system.deploy("trip", paper_trip.SCRIPT_TEXT)
        iid = system.instantiate("trip", paper_trip.ROOT_TASK, {"user": "chaos"})
        NemesisSchedule([RandomCrashes(
            ("execution-node", "worker-node-1", "worker-node-2"),
            interval=60.0, downtime=25.0, seed=11,
        )]).arm(system)
        result = system.run_until_terminal(iid, max_time=200_000)
        assert result["status"] == "completed"
        assert result["outcome"] == "tripArranged"
        # the loop + compensation semantics held under chaos
        assert [m["name"] for m in result["marks"]] == ["toPay"]

    def test_partition_episode_mid_fleet(self):
        system = WorkflowSystem(
            workers=2, seed=3, dispatch_timeout=15.0, sweep_interval=5.0
        )
        paper_order.default_registry(registry=system.registry)
        system.deploy("order", paper_order.SCRIPT_TEXT)
        iids = [
            system.instantiate("order", paper_order.ROOT_TASK, {"order": f"p-{i}"})
            for i in range(4)
        ]
        workers = {n.name for n in system.worker_nodes}
        system.clock.call_at(
            5.0, lambda: system.network.partition({system.execution_node.name}, workers)
        )
        system.clock.call_at(60.0, system.network.heal)
        for iid in iids:
            result = system.run_until_terminal(iid, max_time=50_000)
            assert result["status"] == "completed"
        assert system.network.stats.dropped_partition > 0


class TestWorkerMigration:
    def test_servant_migrates_between_nodes_mid_run(self):
        """The paper's reconfiguration motivation includes "services being
        moved": re-registering a worker under the same name on another node
        is transparent to the execution service."""
        from repro.net import Node
        from repro.services.worker import WORKER_INTERFACE, TaskWorker

        system = WorkflowSystem(workers=1, dispatch_timeout=15.0, sweep_interval=5.0)
        paper_order.default_registry(registry=system.registry)
        system.deploy("order", paper_order.SCRIPT_TEXT)

        # kill the original worker node and move its servant elsewhere
        system.worker_nodes[0].crash()
        new_node = Node("worker-node-new", system.clock, system.network)
        migrated = TaskWorker("worker-1b", system.registry)
        new_node.install(migrated)
        system.broker.register("worker-1", WORKER_INTERFACE, migrated, new_node)

        iid = system.instantiate("order", paper_order.ROOT_TASK, {"order": "m-1"})
        result = system.run_until_terminal(iid, max_time=20_000)
        assert result["status"] == "completed"
        assert migrated.executed  # the migrated servant did the work
