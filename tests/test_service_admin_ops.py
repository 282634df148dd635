"""Tests for the execution service's monitoring and maintenance operations."""

from repro.net import FaultPlan
from repro.services import WorkflowSystem
from repro.workloads import paper_order


def started_system():
    system = WorkflowSystem(workers=2)
    paper_order.default_registry(registry=system.registry)
    system.deploy("order", paper_order.SCRIPT_TEXT)
    iid = system.instantiate("order", paper_order.ROOT_TASK, {"order": "o-1"})
    return system, iid


class TestTrace:
    def test_trace_of_finished_instance(self):
        system, iid = started_system()
        system.run_until_terminal(iid)
        trace = system.execution_proxy().trace(iid)
        assert "orderCompleted" in trace
        assert "dispatch" in trace

    def test_trace_of_running_instance(self):
        system, iid = started_system()
        trace = system.execution_proxy().trace(iid)
        assert "input:main" in trace  # at least the root start is visible


class TestCompaction:
    def test_compact_shrinks_the_log(self):
        system, iid = started_system()
        system.run_until_terminal(iid)
        before = len(system.execution_store.wal)
        after = system.execution_proxy().compact()
        assert after < before

    def test_recovery_works_after_compaction(self):
        system, iid = started_system()
        result = system.run_until_terminal(iid)
        system.execution_proxy().compact()
        system.execution_node.crash()
        system.execution_node.recover()
        again = system.execution.result(iid)
        assert again["outcome"] == result["outcome"]
        assert again["objects"] == result["objects"]

    def test_compaction_mid_run_preserves_progress(self):
        system, iid = started_system()
        system.clock.advance(3.0)  # partial progress
        system.execution_proxy().compact()
        FaultPlan(system.clock).crash_at(
            system.execution_node, when=system.clock.now + 1.0, down_for=20.0
        ).arm()
        result = system.run_until_terminal(iid, max_time=10_000)
        assert result["status"] == "completed"
