"""Failover under the chaos stack: faults that strike the bootstrap
primary by its node name, the replicated harness, its oracles, and the
failover sweep (docs/PROTOCOLS.md §12)."""

import pytest

from repro.sim.crashpoints import catalogue, point_named
from repro.sim.explorer import ChaosSweep

FAILOVER_WORKLOADS = ChaosSweep.FAILOVER_WORKLOADS
from repro.services.system import SystemSpec, WorkflowSystem
from repro.sim import oracles
from repro.sim.harness import SimHarness
from repro.sim.nemesis import (
    CrashAtPoint,
    CrashAtTime,
    NemesisSchedule,
    Partition,
    fault_from_plain,
    fault_to_plain,
)

REPLICATION_POINTS = [p.name for p in catalogue() if p.name.startswith("repl.")]
SHORT_LEASE = SystemSpec(replicas=2, lease_duration=30.0)
PRIMARY = "execution-node"  # the bootstrap primary's node
KILL_RESURRECT = NemesisSchedule([CrashAtTime(10.0, PRIMARY, downtime=190.0)],
                                 name="kill-resurrect")


def cut_off_primary(heal_after):
    """The bootstrap primary cut off from every other node of SHORT_LEASE."""
    others = ("client-node", "lease-node", "repository-node", "standby-node-2",
              "worker-node-1", "worker-node-2")
    return Partition(10.0, (PRIMARY,), others, heal_after=heal_after)


class TestReplicationFaults:
    def test_plain_forms_round_trip(self):
        faults = [
            CrashAtTime(10.0, PRIMARY, downtime=None),
            CrashAtTime(10.0, PRIMARY, downtime=190.0),
            cut_off_primary(60.0),
            cut_off_primary(None),
        ]
        for fault in faults:
            assert fault_from_plain(fault_to_plain(fault)) == fault
        schedule = NemesisSchedule(faults, name="repl-faults")
        assert NemesisSchedule.from_json(schedule.to_json()) == schedule

    def test_healability(self):
        # a primary killed for good never heals; one that comes back does
        assert not NemesisSchedule([CrashAtTime(10.0, PRIMARY, downtime=None)]).heals()
        assert KILL_RESURRECT.heals()
        # an unhealed partition never heals by itself
        assert not NemesisSchedule([cut_off_primary(None)]).heals()


class TestReplicatedHarness:
    def test_kill_and_resurrect_completes_with_clean_oracles(self):
        report = SimHarness(schedule=KILL_RESURRECT, system=SHORT_LEASE, instances=2).run()
        assert report.ok, report.violations
        assert all(
            info["status"] == "completed" for info in report.instances.values()
        )
        assert report.replicas == 2
        # exactly one replica ended up primary, on a fresh epoch
        roles = [s["role"] for s in report.replication.values()]
        assert roles.count("primary") == 1
        assert sum(s["promotions"] for s in report.replication.values()) >= 1
        assert max(s["epoch"] for s in report.replication.values()) >= 2
        # the killed node was the primary: it is back, a standby of the successor
        assert [(c["node"], c["time"]) for c in report.crashes] == [(PRIMARY, 10.0)]
        assert report.replication["execution-r1"]["role"] == "standby"
        assert report.replication["execution-r1"]["alive"]

    @pytest.mark.parametrize("node, owed", [(PRIMARY, True), ("worker-node-1", False)])
    def test_a_replica_crashed_for_good_leaves_liveness_owed(self, monkeypatch, node, owed):
        """An execution replica's node crashed for good excuses nothing its
        live successor owes; any other node crashed for good waives the
        liveness oracle."""
        checked = []
        original = oracles.check_liveness
        monkeypatch.setattr(oracles, "check_liveness",
                            lambda *args: checked.append(args) or original(*args))
        schedule = NemesisSchedule([CrashAtTime(10.0, node, downtime=None)])
        report = SimHarness(schedule=schedule, system=SHORT_LEASE).run()
        assert report.ok, report.violations
        assert bool(checked) is owed

    def test_partition_then_heal_completes(self):
        schedule = NemesisSchedule([cut_off_primary(150.0)], name="cut-heal")
        report = SimHarness(schedule=schedule, system=SHORT_LEASE).run()
        assert report.ok, report.violations
        assert all(
            info["status"] == "completed" for info in report.instances.values()
        )
        # the isolated primary was fenced out, not forked: one primary at end
        roles = [s["role"] for s in report.replication.values()]
        assert roles.count("primary") == 1

    def test_replicated_run_is_deterministic(self):
        schedule = NemesisSchedule(
            [CrashAtTime(10.0, PRIMARY, downtime=60.0)], name="det-failover"
        )
        system = SystemSpec(replicas=2, seed=13)
        first = SimHarness(schedule=schedule, system=system).run()
        second = SimHarness(
            schedule=NemesisSchedule.from_json(schedule.to_json()), system=system
        ).run()
        assert first.ok, first.violations
        assert first.fingerprint() == second.fingerprint()

    @pytest.mark.parametrize("workload", FAILOVER_WORKLOADS)
    def test_all_paper_workloads_survive_failover(self, workload):
        report = SimHarness(schedule=KILL_RESURRECT, system=SHORT_LEASE, workload=workload).run()
        assert report.ok, report.violations
        assert all(
            info["status"] == "completed" for info in report.instances.values()
        )


class TestReplicationCrashPoints:
    def test_catalogue_declares_the_replication_points(self):
        assert set(REPLICATION_POINTS) == {
            "repl.lease.grant",
            "repl.tail.apply",
            "repl.promote.pre",
            "repl.promote.post",
        }

    def test_plans_for_replication_points_use_replicas(self):
        sweep = ChaosSweep()
        for name in REPLICATION_POINTS:
            harness = sweep.plan_for_point(point_named(name))
            assert harness.system.replicas >= 2, name
            crashes = [f.point for f in harness.schedule.faults if isinstance(f, CrashAtPoint)]
            assert name in crashes
            if name != "repl.tail.apply":
                # a driver crash of the primary just after its first barrier
                # forces the grant/promotion to happen after the injector is
                # armed
                assert crashes[0] == "exec.reply.dispatch.forced", name

    @pytest.mark.parametrize("name", REPLICATION_POINTS)
    def test_each_replication_point_fires_clean(self, name):
        sweep = ChaosSweep()
        report = sweep._run(sweep.plan_for_point(point_named(name)))
        assert report.ok, report.violations
        assert report.points_visited.get(name, 0) > 0, f"{name} never reached"


class TestFailoverSweep:
    @pytest.mark.parametrize("replicas, workers", [(2, 2), (3, 1)])
    def test_the_partition_cuts_the_primary_from_every_other_node(self, replicas, workers):
        cut = ChaosSweep(workers=workers).failover_schedules(replicas)[2].faults[0]
        system = WorkflowSystem(SystemSpec(replicas=replicas, workers=workers))
        assert cut.group_a == (PRIMARY,) == (system.primary_execution().node.name,)
        assert set(cut.group_b) == set(system.nodes) - {PRIMARY}

    def test_failover_sweep_clean_and_exhaustive(self):
        result = ChaosSweep().failover_sweep(replicas=2)
        # every workload x every failover schedule, no oracle violations,
        # and every replication crash point was reached at least once
        assert len(result.reports) == 3 * len(FAILOVER_WORKLOADS)
        assert result.unreached == []
        assert not result.failures, result.summary()
