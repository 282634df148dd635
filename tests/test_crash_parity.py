"""A machine crash means one thing however it is armed: the same fixed-time
crash of the same node, armed once with ``NemesisSchedule.arm`` on a plain
system and once inside the sim harness, must leave the same committed stores,
the same crash log and the same instance fates — so what the harness adds
around a crash (crash points, the oracle check after a recovery) does not
change what the crash does."""

import pytest

from repro.services import WorkflowSystem
from repro.services.system import SystemSpec
from repro.sim.harness import SimHarness
from repro.sim.nemesis import CrashAtTime, NemesisSchedule
from repro.workloads import APPLICATIONS

SHAPE = SystemSpec(workers=2, seed=11, replicas=2)
# off every timer's grid, so neither path's scheduling order can matter
AT, DOWNTIME = 7.3, 41.9
VICTIMS = {
    "execution": "execution-node",
    "lease": "lease-node",
    "standby": "standby-node-2",
    "repository": "repository-node",
    "worker": "worker-node-1",
}


def stable_state(system):
    return {
        name: [(store.name, store.snapshot(), store.wal.durable_length) for store in node.stores()]
        for name, node in system.nodes.items()
    }


@pytest.mark.parametrize("victim", sorted(VICTIMS))
@pytest.mark.parametrize("workload", sorted(APPLICATIONS))
def test_fault_plan_and_nemesis_crash_the_same_machine(workload, victim):
    schedule = NemesisSchedule([CrashAtTime(at=AT, node=VICTIMS[victim], downtime=DOWNTIME)])
    harness = SimHarness(schedule, workload=workload, system=SHAPE)
    report = harness.run()
    assert report.ok, report.violations
    assert [(c["node"], c["time"]) for c in report.crashes] == [(VICTIMS[victim], AT)]

    app = APPLICATIONS[workload]
    system = WorkflowSystem(SHAPE)
    app.binder(system.registry)
    crashes = schedule.arm(system)
    system.deploy(app.script_name, app.text)
    iid = system.instantiate(app.script_name, app.root_task, app.inputs(0))
    system.clock.run(until=report.end_time)

    assert crashes == report.crashes
    assert {iid: system.fate(iid)} == report.instances
    assert report.instances[iid]["status"] == "completed"
    assert stable_state(system) == stable_state(harness._system)
