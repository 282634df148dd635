"""Settled instances (docs/PROTOCOLS.md §4.2): once an instance is terminal,
flushed and has no flight out, the execution service keeps a summary of it
and rebuilds anything else from its journal.  What a client can ask stays the
same; what the process holds is proportional to what is still live."""

import gc
import tracemalloc

import pytest

from repro.core import ScriptBuilder, from_input, from_output
from repro.core.errors import ExecutionError
from repro.core.selection import Scope
from repro.core.states import IllegalTransition
from repro.engine import pending
from repro.engine.instance import TaskNode
from repro.engine.plan import PlanTracker
from repro.lang import format_script
from repro.overload import OverloadConfig
from repro.services import WorkflowSystem
from repro.services.journal import Journal
from repro.workloads import APPLICATIONS
from repro.sim.oracles import check_replay_agreement
from repro.workloads import chain, fan, paper_order, paper_trip, script_text
from repro.workloads.traffic import cohort_script, traffic_registry

from tests.test_closed_mark import count_fresh_trees

SWEEP = 400.0  # longer than any of these instances runs: nothing settles early


def views(service, iid):
    return (
        service.status(iid),
        service.result(iid),
        # the instance's own trace: the dispatch layer's section below it is
        # the service's log, which also carries events of no instance
        service.trace(iid).split("\n\n-- resilience --")[0],
        service.tasks(iid),
        service.external_tasks(iid),
    )


def settle(system):
    """Let the next sweep run."""
    system.clock.advance(system.execution.sweep_interval + 1.0)


# -- (a) one answer before the sweep, after it, and from a fresh replay -----------


def _catalogue(name):
    def build():
        spec = APPLICATIONS[name]
        system = WorkflowSystem(workers=2, sweep_interval=SWEEP)
        spec.binder(system.registry)
        system.deploy(spec.script_name, spec.text)
        return system, lambda: system.instantiate(
            spec.script_name, spec.root_task, spec.inputs(0)
        )

    return build


def _generated(workload):
    def build():
        _script, registry, root, inputs = workload
        system = WorkflowSystem(workers=2, registry=registry, sweep_interval=SWEEP)
        system.deploy("wl", script_text(workload))
        return system, lambda: system.instantiate("wl", root, inputs)

    return build


def _repeat_round():
    system = WorkflowSystem(workers=2, sweep_interval=SWEEP)
    paper_trip.default_registry(
        hotel_rounds_until_success=2, hotel_attempts_needed=1, hotel_max_tries=3,
        registry=system.registry,
    )
    system.deploy("trip", paper_trip.SCRIPT_TEXT)
    return system, lambda: system.instantiate(
        "trip", paper_trip.ROOT_TASK, {"user": "rounds"}
    )


def _shed():
    system = WorkflowSystem(
        workers=1, registry=traffic_registry(), sweep_interval=SWEEP,
        overload=OverloadConfig(queue_capacity=2, initial_window=1, min_window=1),
    )
    script, root = cohort_script(1, 2)
    system.deploy("cohort", format_script(script))

    def submit():
        system.execution.admission.pressure = 3  # shed whatever arrives
        return system.instantiate("cohort", root, {"inp": "late"})

    return system, submit


def _failed():
    workload = chain(3)
    workload[1].register("stage2", lambda ctx: 1 / 0)  # no abort outcome to fall to
    text = script_text(workload).replace('"code" is "stage"', '"code" is "stage2"', 2)
    system = WorkflowSystem(workers=2, registry=workload[1], sweep_interval=SWEEP)
    system.deploy("wl", text)
    return system, lambda: system.instantiate("wl", workload[2], workload[3])


SHAPES = {
    "order": _catalogue("order"),
    "trip": _catalogue("trip"),
    "service-impact": _catalogue("service-impact"),
    "chain": _generated(chain(8)),
    "fan": _generated(fan(8)),
    "repeat-round": _repeat_round,
    "shed": _shed,
    "failed": _failed,
}


class TestSameAnswers:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_views_survive_the_sweep_and_equal_a_replay(self, shape):
        system, submit = SHAPES[shape]()
        service = system.execution
        iid = submit()
        system.run_until_terminal(iid, max_time=SWEEP / 2)
        runtime = service.runtimes[iid]
        assert runtime.tree.status.value in ("completed", "aborted", "failed")
        assert not runtime.settled and iid in service._live
        before = views(service, iid)
        polled = (runtime.tree.status, runtime.tree.error, runtime.tree.root.machine.outcome)

        settle(system)
        assert service.runtimes[iid] is runtime  # the same object, hollowed
        assert runtime.settled and iid not in service._live
        assert views(service, iid) == before
        assert (
            runtime.tree.status, runtime.tree.error, runtime.tree.root.machine.outcome
        ) == polled

        # a fresh replay, put where the summary is, answers the same
        service.runtimes[iid] = service._replay(iid)
        assert views(service, iid) == before
        service.runtimes[iid] = runtime
        assert check_replay_agreement(service) == []

    def test_the_summary_survives_crash_and_recovery(self):
        system, submit = SHAPES["trip"]()
        iid = submit()
        system.run_until_terminal(iid, max_time=SWEEP / 2)
        before = views(system.execution, iid)
        system.execution_node.crash()
        system.execution_node.recover()
        assert system.execution.runtimes[iid].settled
        assert views(system.execution, iid) == before


# -- (b), (c) memory follows what is live --------------------------------------------


def tree_objects():
    """Live nodes, scopes and trackers, however they are reachable."""
    return sum(
        isinstance(obj, (TaskNode, Scope, PlanTracker)) for obj in gc.get_objects()
    )


def fan_system(**kwargs):
    workload = fan(64)
    _script, registry, root, inputs = workload
    system = WorkflowSystem(workers=2, registry=registry, **kwargs)
    system.deploy("fan", script_text(workload))

    def run(count):
        for _ in range(count):
            iid = system.instantiate("fan", root, inputs)
            assert system.run_until_terminal(iid)["status"] == "completed"
        settle(system)

    return system, run


class TestMemoryFollowsWhatIsLive:
    def test_finished_instances_leave_no_tree_behind(self):
        gc.collect()
        baseline = tree_objects()
        system, run = fan_system()
        run(40)
        service = system.execution
        assert len(service.runtimes) == 40 and service._live == {}
        gc.collect()  # the oracle-free run made no cyclic garbage, but be fair
        assert tree_objects() == baseline

        system.execution_node.crash()
        system.execution_node.recover()
        assert len(service.runtimes) == 40 and service._live == {}
        assert tree_objects() == baseline  # no collection: recovery shed as it went
        assert service.result("wf-7")["status"] == "completed"

    def test_a_standby_image_sheds_too(self):
        gc.collect()
        baseline = tree_objects()
        system, run = fan_system(replicas=2, lease_duration=30.0)
        run(10)
        primary, standby = system.execution_replicas
        assert primary.is_primary() and not standby.is_primary()
        assert len(primary.runtimes) == 10 and primary._live == {}
        assert all(runtime.settled for runtime in primary.runtimes.values())
        # a standby retains no per-instance heap at all: the journals are in
        # its store, and it has built nothing from them
        assert standby.runtimes == {} == standby._live
        assert len(Journal(standby.store).instances()) == 10
        gc.collect()
        assert tree_objects() == baseline
        # nor does its promotion build a tree for an instance that is closed
        system.execution_node.crash()
        system.clock.advance(60.0)
        assert standby.is_primary()
        assert len(standby.runtimes) == 10 and standby._live == {}
        assert all(runtime.settled for runtime in standby.runtimes.values())
        assert not any(hasattr(runtime, "journal_keys") for runtime in standby.runtimes.values())
        assert tree_objects() == baseline  # no collection: nothing was built
        assert standby.result("wf-7")["status"] == "completed"

    def test_growth_per_finished_instance_is_the_journal(self):
        system, run = fan_system()
        run(5)  # warm: plan, caches, the resilience log's ring
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run(40)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # 241 KB at the parent of this change; what is left is the store's
        # copy of the durable journal and the WAL's records
        assert grown / 40 <= 100 * 1024

    def test_the_shed_frees_by_reference_count(self):
        gc.collect()
        gc.disable()
        try:
            baseline = tree_objects()
            system, _run = fan_system(sweep_interval=SWEEP)
            _script, _registry, root, inputs = fan(64)
            for _ in range(3):
                iid = system.instantiate("fan", root, inputs)
                system.run_until_terminal(iid, max_time=SWEEP / 4)
            held = tree_objects() - baseline
            assert held >= 3 * 66  # three whole trees, nothing settled yet
            settle(system)
            assert tree_objects() == baseline
        finally:
            gc.enable()

    def test_a_repeat_round_leaves_no_cycle_behind(self):
        gc.collect()
        gc.disable()
        try:
            baseline = tree_objects()
            system, submit = _repeat_round()
            system.run_until_terminal(submit(), max_time=SWEEP / 2)
            settle(system)
            assert tree_objects() == baseline
        finally:
            gc.enable()


# -- (d) a settled instance is closed --------------------------------------------------


class TestClosed:
    def settled_order(self):
        system = WorkflowSystem(workers=2, sweep_interval=5.0)
        paper_order.default_registry(registry=system.registry)
        system.deploy("order", paper_order.SCRIPT_TEXT)
        iid = system.instantiate("order", paper_order.ROOT_TASK, {"order": "o-1"})
        system.run_until_terminal(iid)
        settle(system)
        assert system.execution.runtimes[iid].settled
        return system, iid

    def observed(self, system, iid):
        service = system.execution
        return (
            len(system.execution_store.wal),
            system.execution_store.get_committed(f"instance:{iid}:meta"),
            list(service.journal.buffer),
            views(service, iid),
            service.runtimes[iid].settled,
            iid in service._live,
        )

    def last_result(self, system, iid):
        journal = system.execution.export_instance(iid)["journal"]
        return [entry for entry in journal if entry["type"] == "result"][-1]

    def test_a_duplicate_reply_journals_nothing(self):
        system, iid = self.settled_order()
        service = system.execution
        entry = self.last_result(system, iid)
        before = self.observed(system, iid)
        duplicates = service.stats["duplicate_replies"]
        service._handle_reply(iid, {
            "instance_id": iid, "task_path": entry["path"],
            "execution_index": entry["exec"], "ok": True,
            "result": entry["result"], "marks": [], "error": None,
            "worker": service.worker_names[0],
        })
        assert service.stats["duplicate_replies"] == duplicates + 1
        assert self.observed(system, iid) == before

    def test_a_late_reply_to_an_execution_the_journal_never_saw_is_dropped(self):
        system, iid = self.settled_order()
        service = system.execution
        entry = self.last_result(system, iid)
        before = self.observed(system, iid)
        service._handle_reply(iid, {
            "instance_id": iid, "task_path": entry["path"],
            "execution_index": entry["exec"] + 7, "ok": False,
            "error": "late", "marks": [{"name": "m", "objects": {}}],
            "worker": service.worker_names[0],
        })
        assert self.observed(system, iid) == before

    def test_a_late_mark_datagram_journals_nothing(self):
        system, iid = self.settled_order()
        entry = self.last_result(system, iid)
        before = self.observed(system, iid)
        system.execution._handle_mark({
            "type": "mark", "instance_id": iid, "task_path": entry["path"],
            "execution_index": entry["exec"], "name": "never-journaled",
            "objects": {},
        })
        assert self.observed(system, iid) == before

    def test_a_hedge_losers_reply_still_credits_its_worker(self):
        system, iid = self.settled_order()
        service = system.execution
        entry = self.last_result(system, iid)
        loser = service.worker_names[1]
        ack = (iid, entry["path"], entry["exec"], loser)
        service._pending_acks[ack] = system.clock.now - 3.0
        before = self.observed(system, iid)
        service._handle_reply(iid, {
            "instance_id": iid, "task_path": entry["path"],
            "execution_index": entry["exec"], "ok": True,
            "result": entry["result"], "marks": [], "error": None,
            "worker": loser,
        })
        assert ack not in service._pending_acks  # health saw the latency
        assert self.observed(system, iid) == before


# -- (e) the mutating operations on a settled instance ----------------------------------


def parked_then_failed_system():
    """Two parallel tasks: one parks awaiting an external completion, the
    other fails with no retry and no abort outcome to fall back to — a failed
    instance that still has a parked task."""
    b = ScriptBuilder()
    b.object_class("Data")
    b.taskclass("Work").input_set("main").outcome("done", out="Data")
    b.taskclass("Root").input_set("main").outcome("done", out="Data")
    c = b.compound("wf", "Root")
    c.task("approve", "Work").implementation(code="approve").notify(
        "main", from_input("wf", "main")
    ).up()
    c.task("boom", "Work").implementation(code="boom", retries="0").notify(
        "main", from_input("wf", "main")
    ).up()
    c.output("done").object("out", from_output("approve", "done", "out")).up()
    c.up()
    system = WorkflowSystem(workers=2, sweep_interval=5.0)
    system.registry.register("approve", lambda ctx: pending("a human"))
    system.registry.register("boom", lambda ctx: 1 / 0)
    system.deploy("wf", format_script(b.build()))
    return system


class TestOperationsOnASettledInstance:
    def settled_chain(self):
        workload = chain(3)
        _script, registry, root, inputs = workload
        system = WorkflowSystem(workers=2, registry=registry, sweep_interval=5.0)
        system.deploy("wl", script_text(workload))
        iid = system.instantiate("wl", root, inputs)
        assert system.run_until_terminal(iid)["status"] == "completed"
        settle(system)
        assert system.execution.runtimes[iid].settled
        return system, iid, script_text(workload)

    def test_force_abort_is_refused_as_on_a_live_finished_tree(self):
        system, submit = SHAPES["order"]()
        service = system.execution
        iid = submit()
        system.run_until_terminal(iid, max_time=SWEEP / 2)
        settle(system)
        summary = service.runtimes[iid]
        assert summary.settled
        records = len(system.execution_store.wal)
        with pytest.raises(IllegalTransition, match="abort after termination"):
            service.force_abort(iid, f"{paper_order.ROOT_TASK}/dispatch")
        with pytest.raises(ExecutionError, match="no instance at path"):
            service.force_abort(iid, f"{paper_order.ROOT_TASK}/nowhere")
        assert service.runtimes[iid] is summary and iid not in service._live
        assert len(system.execution_store.wal) == records

    def test_complete_task_is_refused_when_nothing_is_parked(self):
        system, iid, _text = self.settled_chain()
        with pytest.raises(ExecutionError, match="not awaiting"):
            system.execution.complete_task(iid, "pipeline/t1", "done")
        assert system.execution.runtimes[iid].settled

    def test_reconfigure_journals_and_the_instance_settles_again(self):
        system, iid, text = self.settled_chain()
        service = system.execution
        before = views(service, iid)
        assert service.reconfigure(iid, text) is True
        reopened = service.runtimes[iid]
        assert not reopened.settled and service._live[iid] is reopened
        journal = service.export_instance(iid)["journal"]
        assert [e["type"] for e in journal].count("reconfig") == 1
        settle(system)
        assert reopened.settled and iid not in service._live
        assert views(service, iid) == before
        system.execution_node.crash()
        system.execution_node.recover()
        assert views(service, iid) == before

    def test_complete_task_on_a_failed_instance_that_still_has_a_parked_task(self):
        system = parked_then_failed_system()
        service = system.execution
        iid = system.instantiate("wf", "wf", {})
        system.clock.advance(20.0)
        summary = service.runtimes[iid]
        assert summary.settled and service.status(iid)["status"] == "failed"
        assert service.external_tasks(iid) == ["wf/approve"]
        assert service.status(iid)["awaiting_external"] == 1
        events = service.status(iid)["events"]

        assert service.complete_task(iid, "wf/approve", "done", {"out": "late"})
        reopened = service.runtimes[iid]
        assert reopened is not summary and service._live[iid] is reopened
        assert service.external_tasks(iid) == []
        # as on a live failed tree: the outcome is logged, nothing is scheduled
        assert service.status(iid)["events"] == events + 1
        assert service.status(iid)["status"] == "failed"
        settle(system)
        assert reopened.settled and service.external_tasks(iid) == []


# -- (f) promotion of a mostly settled image ---------------------------------------------


class TestPromotionOfASettledImage:
    def test_only_the_unsettled_resume(self, monkeypatch):
        system = WorkflowSystem(workers=2, replicas=2, lease_duration=30.0)
        paper_order.default_registry(registry=system.registry)
        system.deploy("order", paper_order.SCRIPT_TEXT)
        done = [
            system.instantiate("order", paper_order.ROOT_TASK, {"order": f"o-{n}"})
            for n in range(3)
        ]
        for iid in done:
            assert system.run_until_terminal(iid)["status"] == "completed"
        settle(system)
        running = system.instantiate("order", paper_order.ROOT_TASK, {"order": "o-9"})
        system.clock.advance(6.0)
        standby = system.execution_replicas[1]
        stored = Journal(standby.store)
        assert stored.instances() == done + [running]
        assert [iid for iid in stored.instances() if not stored.closed(iid)] == [running]
        assert standby.runtimes == {} == standby._live
        flights = sorted(standby._replay(running).in_flight)  # what the store says is out
        assert flights

        rebuilt, resumed, replayed = [], [], count_fresh_trees(standby)
        rebuild = standby.admission.rebuild
        resume = type(standby)._resume_flights
        monkeypatch.setattr(
            standby.admission, "rebuild",
            lambda iids, now: (rebuilt.append(sorted(iids)), rebuild(iids, now))[1],
        )
        monkeypatch.setattr(
            type(standby), "_resume_flights",
            lambda self, runtime: (
                resumed.append((runtime.iid, sorted(runtime.in_flight))),
                resume(self, runtime),
            )[1],
        )
        system.execution_node.crash()
        system.clock.advance(60.0)
        assert system.primary_execution() is standby
        assert list(standby.runtimes) == done + [running]
        assert all(standby.runtimes[iid].settled for iid in done)
        assert replayed == [running]  # the closed were taken in by key
        assert rebuilt == [[running]]
        assert resumed == [(running, flights)]
        assert system.run_until_terminal(running, max_time=2_000.0)["status"] == "completed"
        settle(system)
        assert standby._live == {} and len(standby.runtimes) == 4
        assert check_replay_agreement(standby) == []
