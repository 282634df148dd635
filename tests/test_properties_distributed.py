"""Property-based invariants of the distributed engine: for arbitrary crash
times and loss seeds, the workflow completes with the same outcome, and a
post-hoc recovery replay reproduces the exact result."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.services import WorkflowSystem
from repro.sim.nemesis import CrashAtTime, NemesisSchedule
from repro.workloads import paper_order

# pin settings per test (profiles are process-global; another module's
# profile may be active by the time these run)
DIST = settings(
    deadline=None, max_examples=12, suppress_health_check=[HealthCheck.too_slow]
)


def run_order(crash_at=None, down_for=30.0, loss=0.0, seed=0, workers=2):
    system = WorkflowSystem(
        workers=workers,
        loss_rate=loss,
        seed=seed,
        dispatch_timeout=15.0,
        sweep_interval=5.0,
    )
    paper_order.default_registry(registry=system.registry)
    system.deploy("order", paper_order.SCRIPT_TEXT)
    iid = system.instantiate("order", paper_order.ROOT_TASK, {"order": "p"})
    if crash_at is not None:
        NemesisSchedule([CrashAtTime(crash_at, "execution-node", downtime=down_for)]).arm(system)
    result = system.run_until_terminal(iid, max_time=50_000)
    return system, iid, result


@DIST
@given(st.floats(min_value=0.5, max_value=60.0))
def test_completion_invariant_under_any_crash_time(crash_at):
    _system, _iid, result = run_order(crash_at=crash_at)
    assert result["status"] == "completed"
    assert result["outcome"] == "orderCompleted"
    assert result["objects"]["dispatchNote"]["value"] == "note:stock:p"


@DIST
@given(st.integers(0, 10_000), st.sampled_from([0.0, 0.1, 0.2]))
def test_completion_invariant_under_any_loss_seed(seed, loss):
    _system, _iid, result = run_order(loss=loss, seed=seed)
    assert result["status"] == "completed"
    assert result["outcome"] == "orderCompleted"


@DIST
@given(st.floats(min_value=0.5, max_value=40.0), st.integers(0, 1000))
def test_recovery_replay_equivalence(crash_at, seed):
    """Whatever happened during the run, crash+recover afterwards rebuilds
    the identical terminal state from the journal."""
    system, iid, result = run_order(crash_at=crash_at, loss=0.05, seed=seed)
    assert result["status"] == "completed"
    system.execution_node.crash()
    system.execution_node.recover()
    again = system.execution.result(iid)
    assert again["outcome"] == result["outcome"]
    assert again["objects"] == result["objects"]
    assert again["marks"] == result["marks"]


@DIST
@given(st.integers(1, 4))
def test_worker_pool_size_does_not_change_semantics(workers):
    _system, _iid, result = run_order(workers=workers)
    assert result["outcome"] == "orderCompleted"
    assert result["objects"]["dispatchNote"]["value"] == "note:stock:p"
