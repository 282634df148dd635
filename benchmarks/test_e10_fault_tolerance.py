"""E10 — §3 fault-tolerance claim.

"Notification and dataflow dependencies must be implemented such that tasks
eventually receive their inputs and notifications despite finite number of
intervening processor crashes and temporary network related failures."

We sweep crash aggressiveness and message-loss rate on the distributed
system: with the durable journal the workflow must *always* complete; the
cost is visible as extra virtual time and re-dispatches.
"""

from repro.services import WorkflowSystem
from repro.sim.nemesis import CrashAtTime, NemesisSchedule, RandomCrashes
from repro.workloads import paper_order

from .conftest import report


def run_under_faults(crash_interval=None, loss_rate=0.0, seed=0):
    system = WorkflowSystem(
        workers=2,
        loss_rate=loss_rate,
        seed=seed,
        dispatch_timeout=20.0,
        sweep_interval=5.0,
    )
    paper_order.default_registry(registry=system.registry)
    system.deploy("order", paper_order.SCRIPT_TEXT)
    iid = system.instantiate("order", paper_order.ROOT_TASK, {"order": "o"})
    if crash_interval is not None:
        nodes = ("execution-node",) + tuple(node.name for node in system.worker_nodes)
        chaos = RandomCrashes(nodes, crash_interval, downtime=25.0, seed=seed)
        NemesisSchedule([chaos]).arm(system)
    result = system.run_until_terminal(iid, max_time=100_000)
    return result, system


def test_e10_baseline_no_faults(benchmark):
    result, system = benchmark.pedantic(
        lambda: run_under_faults(), rounds=3, iterations=1
    )
    assert result["status"] == "completed"


def test_e10_crash_rate_sweep(benchmark):
    rows = []
    for label, interval in [("none", None), ("mild", 40.0), ("harsh", 12.0)]:
        completed = 0
        total_time = 0.0
        redispatches = 0
        recoveries = 0
        for seed in range(5):
            result, system = run_under_faults(crash_interval=interval, seed=seed)
            if result["status"] == "completed":
                completed += 1
            total_time += system.clock.now
            redispatches += system.execution.stats["redispatches"]
            recoveries += system.execution.stats["recoveries"]
        rows.append(
            (label, f"{completed}/5", f"{total_time / 5:.0f}", redispatches, recoveries)
        )
    report(
        "E10: completion under random crashes (durable journal ON)",
        ["crash rate", "completed", "avg virtual time", "redispatches", "recoveries"],
        rows,
    )
    # the paper's guarantee: everything completes, at a latency cost
    assert all(row[1] == "5/5" for row in rows)
    assert float(rows[0][2]) <= float(rows[2][2])

    benchmark.pedantic(
        lambda: run_under_faults(crash_interval=60.0, seed=1), rounds=2, iterations=1
    )


def test_e10_loss_rate_sweep(benchmark):
    rows = []
    for loss in (0.0, 0.1, 0.3):
        result, system = run_under_faults(loss_rate=loss, seed=3)
        assert result["status"] == "completed"
        rows.append(
            (
                loss,
                result["status"],
                f"{system.clock.now:.0f}",
                system.network.stats.dropped_loss,
                system.execution.stats["redispatches"],
            )
        )
    report(
        "E10: completion under message loss",
        ["loss rate", "status", "virtual time", "dropped", "redispatches"],
        rows,
    )
    assert float(rows[0][2]) <= float(rows[2][2])

    benchmark.pedantic(
        lambda: run_under_faults(loss_rate=0.3, seed=3), rounds=2, iterations=1
    )


def test_e10_targeted_worst_case(benchmark):
    """Crash the coordinator AND a worker AND lose messages, all at once."""

    def run():
        system = WorkflowSystem(
            workers=2, loss_rate=0.2, seed=9, dispatch_timeout=15.0, sweep_interval=5.0
        )
        paper_order.default_registry(registry=system.registry)
        system.deploy("order", paper_order.SCRIPT_TEXT)
        iid = system.instantiate("order", paper_order.ROOT_TASK, {"order": "o"})
        NemesisSchedule([
            CrashAtTime(2.0, "execution-node", downtime=30.0),
            CrashAtTime(4.0, "worker-node-1", downtime=200.0),
            CrashAtTime(80.0, "execution-node", downtime=30.0),
        ]).arm(system)
        return system.run_until_terminal(iid, max_time=100_000)

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert result["status"] == "completed"
    assert result["outcome"] == "orderCompleted"
