"""A machine crash means one thing however it is scheduled: the same
fixed-time crash of the same node, driven once through ``FaultPlan.crash_at``
on a hand-built system and once through a ``CrashAtTime`` nemesis inside the
sim harness, must leave the same committed stores and the same instance
fates.  (Before ``Node`` owned its stores the first crashed the endpoint only
and the second also dropped each store's unforced log suffix.)"""

import pytest

from repro.net.failures import FaultPlan
from repro.services import WorkflowSystem
from repro.sim.harness import SimHarness
from repro.sim.nemesis import CrashAtTime, NemesisSchedule
from repro.workloads import APPLICATIONS

SHAPE = dict(workers=2, seed=11, replicas=2)
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
    node_name = VICTIMS[victim]
    harness = SimHarness(
        NemesisSchedule([CrashAtTime(at=AT, node=node_name, downtime=DOWNTIME)]),
        workload=workload, **SHAPE,
    )
    report = harness.run()
    assert report.ok, report.violations
    assert [(c["node"], c["time"]) for c in report.crashes] == [(node_name, AT)]

    app = APPLICATIONS[workload]
    system = WorkflowSystem(**SHAPE)
    app.binder(system.registry)
    plan = FaultPlan(system.clock)
    plan.crash_at(system.nodes[node_name], when=AT, down_for=DOWNTIME).arm()
    system.deploy(app.script_name, app.text)
    iid = system.instantiate(app.script_name, app.root_task, app.inputs(0))
    system.clock.run(until=report.end_time)

    assert [(e.node, e.crash_time) for e in plan.history] == [(node_name, AT)]
    assert {iid: system.fate(iid)} == report.instances
    assert report.instances[iid]["status"] == "completed"
    assert stable_state(system) == stable_state(harness._system)
