"""The ``closed`` mark (docs/PROTOCOLS.md §4.1, §4.2, §9.3, §12).

The barrier that leaves an instance terminal with no flight out writes
``closed`` into its ``meta``, in the deciding entry's own record.  Whoever
opens the store afterwards — a crash recovery, a standby's promotion — takes
a closed instance in by its key and replays only the open ones, and a
standby, which only follows the log, replays nothing at all.  These tests
count replays instead of timing them, tear the deciding force, and show that
the ``closed-is-settled`` oracle fires on a journal that marks too eagerly
and its converse, ``settled-is-closed``, on one that never marks.
"""

import pytest

from repro.core.selection import HOTPATH_STATS
from repro.replication import Role
from repro.services import WorkflowSystem
from repro.services import execution as execution_mod
from repro.services.journal import Journal
from repro.services.system import SystemSpec
from repro.sim import crashpoints
from repro.sim.crashpoints import ArmedCrash, CrashPointInjector, SimulatedCrash
from repro.sim.harness import SimHarness
from repro.sim.nemesis import CrashAtPoint, NemesisSchedule
from repro.sim.oracles import (
    check_closed_is_settled, check_journal_integrity, check_settled_is_closed,
)
from repro.workloads import chain, fan, random_dag, script_text


def deployed(workload, **kwargs):
    _script, registry, root, inputs = workload
    system = WorkflowSystem(registry=registry, **kwargs)
    system.deploy("wl", script_text(workload))
    return system, root, inputs


def count_fresh_trees(service):
    """The ids ``service`` builds a fresh tree for from here on — one per
    replay — in order."""
    built = []
    fresh = service._fresh_runtime

    def _fresh_runtime(iid, spec):
        built.append(iid)
        return fresh(iid, spec)

    service._fresh_runtime = _fresh_runtime
    return built


def finished_and_open(system, root, inputs, finished, opened=3):
    done = [system.instantiate("wl", root, inputs) for _ in range(finished)]
    results = {iid: system.run_until_terminal(iid) for iid in done}
    assert all(result["status"] == "completed" for result in results.values())
    running = [system.instantiate("wl", root, inputs) for _ in range(opened)]
    system.clock.advance(3.0)  # part of the way down the chain
    return done, results, running


class TestRebuildsAreBoundedByWhatIsOpen:
    @pytest.mark.parametrize("finished", [10, 100])
    def test_a_recovery_replays_the_open_instances_only(self, finished):
        system, root, inputs = deployed(chain(8), workers=2)
        service, store = system.execution, system.execution_store
        done, results, running = finished_and_open(system, root, inputs, finished)
        stored = Journal(store)
        assert [iid for iid in stored.instances() if not stored.closed(iid)] == running
        listed = service.list_instances()
        statuses = {iid: service.status(iid) for iid in done}

        built = count_fresh_trees(service)
        system.execution_node.crash()
        system.execution_node.recover()
        assert built == running  # 3, whatever the history
        assert list(service.runtimes) == stored.instances()
        assert list(service._live) == running
        assert service.list_instances() == listed

        # a closed instance's summary is one replay away, once
        del built[:]
        for iid in done:
            assert service.result(iid) == results[iid]
        assert built == done
        for iid in done:
            assert service.result(iid) == results[iid]
            assert service.status(iid) == statuses[iid]
            assert service.external_tasks(iid) == []
        assert built == done
        for iid in running:
            assert system.run_until_terminal(iid)["status"] == "completed"
        assert check_closed_is_settled(service) == []
        assert all(stored.closed(iid) for iid in stored.instances())

    def test_a_standby_executes_nothing_and_its_promotion_replays_the_open(self):
        def evaluations(**kwargs):
            system, root, inputs = deployed(fan(16), workers=3, **kwargs)
            HOTPATH_STATS.reset()
            for _ in range(5):
                iid = system.instantiate("wl", root, inputs)
                assert system.run_until_terminal(iid)["status"] == "completed"
            return HOTPATH_STATS.source_evals

        alone = evaluations()

        system, root, inputs = deployed(
            chain(8), workers=2, replicas=2, lease_duration=30.0, repl_interval=5.0
        )
        primary, standby = system.execution_replicas
        executed = []
        for name in ("_replay", "_fresh_runtime", "_apply_entry"):
            def watched(*args, _name=name, _original=getattr(standby, name)):
                if standby.role is Role.STANDBY:
                    executed.append(_name)
                return _original(*args)

            setattr(standby, name, watched)
        done, results, running = finished_and_open(system, root, inputs, finished=5, opened=2)
        assert standby.role is Role.STANDBY
        assert standby.runtimes == {} == standby._live
        assert standby.repl_status()["instances"] == sorted(done + running)
        assert executed == []
        # the engine ran once per step, as it does without a standby
        assert evaluations(replicas=2, lease_duration=30.0) == alone

        built = count_fresh_trees(standby)
        system.execution_node.crash()
        while system.primary_execution() is None:
            system.clock.advance(1.0)
        assert system.primary_execution() is standby
        assert executed == []
        assert built == running
        assert list(standby.runtimes) == done + running
        for iid in running:
            assert system.run_until_terminal(iid)["status"] == "completed"
        for iid in done:
            assert standby.result(iid) == results[iid]
        assert check_closed_is_settled(standby) == []


class TestTheMarkAndItsEntryAreOneRecord:
    """A crash inside the deciding barrier's force leaves the instance, on
    each store, either unmarked and shorter or marked and complete."""

    @staticmethod
    def stored_state(store, iid):
        stored = Journal(store)
        return stored.closed(iid), stored.length(iid), stored.entries(iid)

    def run(self, point, mode, replicas):
        system, root, inputs = deployed(
            chain(3), workers=2, replicas=replicas, lease_duration=30.0
        )
        service = system.primary_execution()
        victim = system.execution_replicas[1] if point == "store.ingest.pre" else service
        node = system.replica_nodes[1] if victim is not service else system.execution_node

        def crash(_node_name, fault, scope):
            if fault.mode == "torn":
                scope.torn_force()
            node.crash()

        injector = CrashPointInjector(crash)
        for scope in (victim.store, victim.store.wal):
            injector.bind(scope, node.name)
        commit = service.journal.commit

        def arm_at_the_deciding_barrier(closed=()):
            if closed and point is not None and not injector.fired:
                injector.arm(ArmedCrash(point, mode=mode))
            return commit(closed)

        service.journal.commit = arm_at_the_deciding_barrier
        iid = system.instantiate("wl", root, inputs)
        crashpoints.install(injector)
        try:
            system.clock.advance(100.0)
        except SimulatedCrash:
            pass
        finally:
            crashpoints.uninstall()
        return system, victim, node, iid, injector

    @pytest.mark.parametrize(
        "point, mode, replicas, survives",
        [
            ("store.commit.pre", "clean", 0, False),
            ("wal.force.pre", "torn", 0, False),  # a lone BATCH, torn away whole
            ("store.ingest.pre", "clean", 2, False),
            # the follower's tail is the torn record; what it names is durable
            ("store.ingest.pre", "torn", 2, True),
        ],
    )
    def test_a_torn_deciding_force_never_splits_them(self, point, mode, replicas, survives):
        reference, *_rest, iid, _injector = self.run(None, "clean", replicas)
        closed, full, entries = self.stored_state(reference.execution_store, iid)
        assert closed and full == len(entries) > 0 and None not in entries

        system, victim, node, iid, injector = self.run(point, mode, replicas)
        assert injector.fired == [(point, node.name)]
        stores = [replica.store for replica in system.execution_replicas] or [victim.store]
        for store in stores:
            closed, length, entries = self.stored_state(store, iid)
            if closed:
                assert length == full == len(entries) and None not in entries
            else:
                assert length < full and None not in entries
            assert check_journal_integrity(store) == []
        assert self.stored_state(victim.store, iid)[0] is survives
        assert check_closed_is_settled(victim) == []
        node.recover()
        assert system.run_until_terminal(iid)["status"] == "completed"
        system.clock.advance(20.0)
        for store in stores:
            assert self.stored_state(store, iid)[:2] == (True, full)
        for service in system.execution_replicas or [system.execution]:
            assert check_closed_is_settled(service) == []


class EveryBarrierCloses(Journal):
    """Seeded fault: whatever a barrier touches it marks closed, terminal
    or not."""

    def commit(self, closed=()):
        return super().commit({iid for iid, _entry in self.buffer})


class EveryTerminalBarrierCloses(Journal):
    """Seeded fault: the terminal barrier marks the instance closed whether
    or not a flight is still out."""

    service = None

    def commit(self, closed=()):
        runtimes = self.service.runtimes
        return super().commit({
            iid for iid, _entry in self.buffer
            if runtimes[iid].tree.status.value != "running"
        })


def oracle_after_every_barrier(service):
    found = []
    flush = service.flush_journal

    def flush_journal(closed=()):
        flushed = flush(closed)
        found.extend(check_closed_is_settled(service))
        return flushed

    service.flush_journal = flush_journal
    return found


class TestClosedIsSettledOracle:
    MID_RUN_CRASH = NemesisSchedule(
        [CrashAtPoint("exec.reply.applied", at_hit=3, downtime=30.0)], name="mid-run"
    )

    @pytest.mark.parametrize("workload", ["order", "trip", "service-impact"])
    def test_it_fires_when_every_barrier_marks(self, workload, monkeypatch):
        honest = SimHarness(schedule=self.MID_RUN_CRASH, workload=workload).run()
        assert honest.ok, honest.violations
        assert honest.crashes
        monkeypatch.setattr(execution_mod, "Journal", EveryBarrierCloses)
        report = SimHarness(schedule=self.MID_RUN_CRASH, workload=workload).run()
        fired = {violation["oracle"] for violation in report.violations}
        assert "closed-is-settled" in fired, report.violations
        # and what it warns of happened: the recovery skipped a running
        # instance, which then never finished
        assert "liveness" in fired and report.instances["wf-1"]["status"] == "running"

    def test_it_fires_when_a_terminal_instance_is_marked_with_a_flight_out(self):
        """``random_dag(12, seed=5)`` is a script that ends with a flight
        out: the root's outcome is decided while ``t11`` still runs.  None of
        the paper scripts does — under the honest journal an instance like
        this stays unmarked until its last flight is answered."""
        def run(journal_class):
            system, root, inputs = deployed(random_dag(12, seed=5), workers=2)
            service = system.execution
            service.journal = journal_class(service.store)
            service.journal.service = service
            found = oracle_after_every_barrier(service)
            out_at_the_end = []
            dispatch = service._dispatch_pending

            def _dispatch_pending(runtime):
                dispatch(runtime)
                if runtime.tree.status.value != "running" and runtime.in_flight:
                    out_at_the_end.append(sorted(runtime.in_flight))

            service._dispatch_pending = _dispatch_pending
            iid = system.instantiate("wl", root, inputs)
            assert system.run_until_terminal(iid)["status"] == "completed"
            assert out_at_the_end and ("dag/t11", 1) in out_at_the_end[0]
            return service, iid, found

        service, iid, found = run(Journal)
        assert found == []
        assert service.journal.closed(iid)  # once the last flight was answered
        _service, iid, found = run(EveryTerminalBarrierCloses)
        assert found and {violation.oracle for violation in found} == {"closed-is-settled"}
        assert all(violation.subject == iid for violation in found)
        assert "still in flight" in found[0].detail

    def test_every_harness_run_checks_every_replica(self, monkeypatch):
        from repro.sim import oracles

        checked = []
        original = oracles.check_closed_is_settled

        def check(service, phase=""):
            stored = service.journal
            checked.append(
                (service.name, phase, [iid for iid in stored.instances() if stored.closed(iid)])
            )
            return original(service, phase)

        monkeypatch.setattr(oracles, "check_closed_is_settled", check)
        system = SystemSpec(replicas=2, lease_duration=30.0)
        report = SimHarness(system=system, instances=2).run()
        assert report.ok, report.violations
        at_the_end = {name: marked for name, phase, marked in checked if phase == "quiescence"}
        assert set(at_the_end) == {"execution-r1", "execution-r2"}
        assert all(marked == ["wf-1", "wf-2"] for marked in at_the_end.values())


class NeverCloses(Journal):
    """Seeded fault: ``Journal.commit`` ignoring ``closed``."""

    def commit(self, closed=()):
        return super().commit(())


class TestSettledIsClosedOracle:
    """The converse of ``closed-is-settled``: whatever a primary holds
    settled carries the mark that keeps it out of the next rebuild."""

    @pytest.mark.parametrize("workload", ["order", "trip", "service-impact"])
    def test_it_fires_when_the_barrier_ignores_closed(self, workload, monkeypatch):
        honest = SimHarness(workload=workload, instances=2).run()
        assert honest.ok, honest.violations
        monkeypatch.setattr(execution_mod, "Journal", NeverCloses)
        report = SimHarness(workload=workload, instances=2).run()
        fired = {(violation["oracle"], violation["subject"]) for violation in report.violations}
        assert fired == {("settled-is-closed", "wf-1"), ("settled-is-closed", "wf-2")}

    def test_the_harness_runs_it_on_the_primary_at_every_deep_check(self, monkeypatch):
        from repro.sim import oracles

        checked = []
        original = oracles.check_settled_is_closed

        def check(service, phase=""):
            checked.append((service.name, phase))
            return original(service, phase)

        monkeypatch.setattr(oracles, "check_settled_is_closed", check)
        schedule = NemesisSchedule([CrashAtPoint("exec.reply.applied", at_hit=3, downtime=30.0)])
        report = SimHarness(schedule=schedule, instances=2).run()
        assert report.ok, report.violations
        assert checked == [("execution", "recovery"), ("execution", "quiescence")]

    def test_an_imported_instance_is_exempt(self):
        system, root, inputs = deployed(chain(3), workers=2)
        iid = system.instantiate("wl", root, inputs)
        assert system.run_until_terminal(iid)["status"] == "completed"
        snapshot = system.execution.export_instance(iid)
        target, _root, _inputs = deployed(chain(3), workers=2)
        target.execution.import_instance(snapshot)
        service = target.execution
        assert service.runtimes[iid].settled and not service.journal.closed(iid)
        (violation,) = check_settled_is_closed(service)
        assert (violation.oracle, violation.subject) == ("settled-is-closed", iid)
        assert check_settled_is_closed(service, imported=[iid]) == []
