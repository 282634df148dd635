"""Tests for instance migration between execution services (coordinator
failover via export/import of the durable journal)."""

import pytest

from repro.core.errors import ExecutionError
from repro.services import WorkflowSystem
from repro.services.journal import Journal, script_digest
from repro.sim.oracles import check_journal_integrity
from repro.workloads import paper_order


def make_system(**kwargs):
    system = WorkflowSystem(**kwargs)
    paper_order.default_registry(registry=system.registry)
    system.deploy("order", paper_order.SCRIPT_TEXT)
    return system


class TestExportImport:
    def test_finished_instance_round_trips(self):
        source = make_system(workers=2)
        iid = source.instantiate("order", paper_order.ROOT_TASK, {"order": "m-1"})
        result = source.run_until_terminal(iid)

        snapshot = source.execution_proxy().export_instance(iid)
        assert snapshot["instance"] == iid
        assert snapshot["meta"]["root_task"] == paper_order.ROOT_TASK
        assert len(snapshot["journal"]) >= 4  # one result per task

        target = make_system(workers=2)
        target.execution.import_instance(snapshot)
        adopted = target.execution.result(iid)
        assert adopted["outcome"] == result["outcome"]
        assert adopted["objects"] == result["objects"]

    def test_midflight_instance_completes_on_new_coordinator(self):
        source = make_system(workers=2)
        iid = source.instantiate("order", paper_order.ROOT_TASK, {"order": "m-2"})
        source.clock.advance(3.0)  # partial progress
        snapshot = source.execution_proxy().export_instance(iid)

        # the old coordinator "goes away for good"
        source.execution_node.crash()

        target = make_system(workers=2)
        target.execution.import_instance(snapshot)
        result = target.run_until_terminal(iid, max_time=10_000)
        assert result["status"] == "completed"
        assert result["outcome"] == "orderCompleted"

    def test_import_preserves_progress(self):
        source = make_system(workers=2)
        iid = source.instantiate("order", paper_order.ROOT_TASK, {"order": "m-3"})
        source.clock.advance(3.0)
        done_before = len(source.execution_proxy().export_instance(iid)["journal"])

        target = make_system(workers=2)
        target.execution.import_instance(
            source.execution_proxy().export_instance(iid)
        )
        # the adopted instance re-executes nothing that was journaled
        runtime = target.execution.runtimes[iid]
        assert len(runtime.journal_keys) >= done_before
        target.run_until_terminal(iid, max_time=10_000)
        # total executions across both coordinators' workers == 4 distinct
        executed = set()
        for system in (source, target):
            for worker in system.workers:
                executed.update((p, e) for _i, p, e in worker.executed)
        assert len(executed) == 4

    def test_duplicate_import_refused(self):
        source = make_system(workers=1)
        iid = source.instantiate("order", paper_order.ROOT_TASK, {"order": "m-4"})
        source.run_until_terminal(iid)
        snapshot = source.execution_proxy().export_instance(iid)
        with pytest.raises(Exception):
            source.execution.import_instance(snapshot)

    def test_imported_instance_survives_new_coordinator_crash(self):
        source = make_system(workers=1)
        iid = source.instantiate("order", paper_order.ROOT_TASK, {"order": "m-5"})
        source.clock.advance(2.0)
        snapshot = source.execution_proxy().export_instance(iid)

        target = make_system(workers=2)
        target.execution.import_instance(snapshot)
        target.execution_node.crash()
        target.execution_node.recover()  # replays from ITS OWN store now
        result = target.run_until_terminal(iid, max_time=10_000)
        assert result["status"] == "completed"

    def test_snapshot_is_self_contained_for_a_service_that_never_saw_the_script(self):
        source = make_system(workers=1)
        iid = source.instantiate("order", paper_order.ROOT_TASK, {"order": "m-6"})
        source.clock.advance(2.0)
        snapshot = source.execution_proxy().export_instance(iid)
        # the wire carries the text, not the source store's reference to it
        assert snapshot["meta"]["script_text"] == paper_order.SCRIPT_TEXT
        assert "script" not in snapshot["meta"]

        # nothing deployed: neither its repository nor its store knows "order"
        target = WorkflowSystem(workers=2)
        paper_order.default_registry(registry=target.registry)
        store = target.execution_store
        assert not any(key.startswith("script:") for key in store.keys())
        target.execution.import_instance(snapshot)
        def import_record(imported):
            (record,) = [
                record for record in store.wal.durable_records()
                if f"instance:{imported}:spec" in (record.value or ())
            ]
            return record

        # the text was re-interned beside the imported spec, in one record
        digest = script_digest(paper_order.SCRIPT_TEXT)
        key = f"script:{digest}"
        assert store.get_committed(key) == paper_order.SCRIPT_TEXT
        assert Journal(store).spec(iid)["script"] == digest
        assert list(import_record(iid).value)[0] == key
        assert check_journal_integrity(store) == []

        target.execution_node.crash()
        target.execution_node.recover()  # replays from its own store alone
        result = target.run_until_terminal(iid, max_time=10_000)
        assert result["status"] == "completed"
        assert result["outcome"] == "orderCompleted"
        # a second import of the same version does not log the text again
        other = source.instantiate("order", paper_order.ROOT_TASK, {"order": "m-7"})
        target.execution.import_instance(source.execution_proxy().export_instance(other))
        assert key not in import_record(other).value
