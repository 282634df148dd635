#!/usr/bin/env python3
"""§5.1 / Fig. 6 on the distributed system (Fig. 4) under injected failures.

The serviceImpactApplication runs on the full simulated workflow system —
repository node, execution-service node and two worker nodes behind the ORB —
while a nemesis schedule (``repro.sim.nemesis``, the one way faults are
injected) crashes the execution node mid-run and crashes a worker, and the
network drops 15% of all messages.  The transactional journal brings the
instance back exactly where it was (the paper's §3 system-level fault
tolerance).

Run:  python examples/fault_tolerant_execution.py
"""

from repro.services import WorkflowSystem
from repro.sim.nemesis import CrashAtTime, NemesisSchedule
from repro.workloads import paper_service_impact


def main() -> None:
    system = WorkflowSystem(
        workers=2,
        loss_rate=0.15,
        seed=2024,
        dispatch_timeout=20.0,
        sweep_interval=5.0,
    )
    paper_service_impact.default_registry(registry=system.registry)

    print("deploying script to the repository service...")
    system.deploy("service-impact", paper_service_impact.SCRIPT_TEXT)

    print("instantiating workflow through the execution service...")
    iid = system.instantiate(
        "service-impact",
        paper_service_impact.ROOT_TASK,
        inputs={"alarmsSource": "alarm-feed-7"},
    )

    print("arming failures: execution node crash @t=3 (down 40), "
          "worker-1 crash @t=5 (down 60), 15% message loss")
    crashes = NemesisSchedule([
        CrashAtTime(3.0, "execution-node", downtime=40.0),
        CrashAtTime(5.0, "worker-node-1", downtime=60.0),
    ]).arm(system)

    result = system.run_until_terminal(iid, max_time=20_000)

    print(f"\nstatus  : {result['status']}")
    print(f"outcome : {result['outcome']}")
    if result["objects"]:
        report = result["objects"].get("resolutionReport", {}).get("value")
        print(f"report  : {report}")
    print(f"\ncrashes injected       : {[(c['node'], c['time']) for c in crashes]}")
    print(f"execution-service stats: {system.execution.stats}")
    print(f"network stats          : {system.network.stats.as_dict()}")
    print(f"virtual time elapsed   : {system.clock.now:.1f}")
    assert result["status"] == "completed"


if __name__ == "__main__":
    main()
