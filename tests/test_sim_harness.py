"""Tests for the deterministic simulation harness (repro.sim).

Covers the crash-point plumbing, torn-write injection, nemesis schedule
serialisation, full harness runs under crash schedules (including crashes
mid-compaction), replay determinism, the chaos explorer's
exhaustive and random sweeps, greedy shrinking, and repro-file round trips.
"""

import json
import os
import re
import sys

import pytest

from repro.services.system import SystemSpec
from repro.sim import oracles
from repro.sim.crashpoints import (
    EVENTS,
    SIDES,
    ArmedCrash,
    CrashPointInjector,
    SimulatedCrash,
    catalogue,
    crash_point,
    install,
    point_named,
    uninstall,
)
from repro.sim import explorer, nemesis
from repro.sim.explorer import UNCOVERED, ChaosSweep, replay
from repro.sim.harness import SimHarness, SimReport
from repro.sim.nemesis import (
    Burst,
    CrashAtPoint,
    CrashAtTime,
    LoadSpike,
    NemesisSchedule,
    Partition,
    fault_from_plain,
    fault_to_plain,
)
from repro.txn.wal import WriteAheadLog

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestCatalogue:
    def test_names_unique(self):
        names = [p.name for p in catalogue()]
        assert len(names) == len(set(names))

    def test_every_point_is_instrumented(self):
        """Each declared point must appear as a crash_point() call in the
        module the catalogue says holds it, and each generated one is an
        event kind the shell is called with and an effect boundary it
        offers — the docs table and the sweep both trust this mapping."""
        for point in catalogue():
            path = os.path.join(REPO_ROOT, point.module)
            with open(path, "r", encoding="utf-8") as fh:
                source = fh.read()
            if point.name.startswith("exec."):
                _exec, event, effect, side = point.name.split(".")
                assert re.search(rf'self\._perform\(\s*"{event}"', source), point.name
                assert f'crashpoints.offer(event, kind.__name__, "{side}", self)' in source, (
                    point.name
                )
            else:
                assert f'crash_point("{point.name}"' in source, (
                    f"{point.name} not instrumented in {point.module}"
                )

    def test_the_service_rows_are_generated_from_the_kinds(self):
        """Every ``exec.`` row is an event kind, an effect it can return and
        a side that effect keeps, and every such triple is a row."""
        generated = [p.name for p in catalogue() if p.name.startswith("exec.")]
        assert generated == [
            f"exec.{event}.{effect}.{side}"
            for event, effects in EVENTS.items()
            for effect in effects for side in SIDES[effect]
        ]
        assert set(SIDES) == {"journal", "dispatch", "arm", "answer"}
        assert {effect for effects in EVENTS.values() for effect in effects} == set(SIDES)

    def test_the_protocols_table_renders_the_catalogue(self):
        """docs/PROTOCOLS.md §9.1 lists every declared crash point in
        catalogue order with the catalogue's file, step and flags, then the
        kinds the service's rows are generated from, and nothing else."""
        path = os.path.join(REPO_ROOT, "docs", "PROTOCOLS.md")
        with open(path, "r", encoding="utf-8") as fh:
            section = fh.read().split("### 9.1 Crash points", 1)[1].split("\n### ", 1)[0]
        rows = [
            [cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in section.splitlines()
            if line.startswith("| `")
        ]
        expected = [
            [f"`{point.name}`", f"`{point.module[len('src/repro/'):]}`", point.step,
             "torn" if point.torn else ""]
            for point in catalogue() if not point.name.startswith("exec.")
        ] + [
            [f"`{event}`", ", ".join(
                f"`{effect}` ({', '.join(SIDES[effect]) or 'none'})" for effect in effects
            )]
            for event, effects in EVENTS.items()
        ]
        assert rows == expected

    def test_an_unarmed_step_makes_no_probe_call(self):
        """With no injector installed the service's shell tests it inline:
        a fault-free ``chain(8)`` run makes no call into
        ``repro.sim.crashpoints`` from the execution service, its journal
        or the replica."""
        from repro.lang import format_script
        from repro.services import WorkflowSystem
        from repro.workloads import chain

        script, registry, root, inputs = chain(8)
        system = WorkflowSystem(registry=registry, workers=2)
        system.deploy("w", format_script(script))
        probes = os.path.join("repro", "sim", "crashpoints.py")
        callers = []

        def profile(frame, event, _arg):
            if event == "call" and frame.f_code.co_filename.endswith(probes):
                callers.append(os.path.basename(frame.f_back.f_code.co_filename))

        sys.setprofile(profile)
        try:
            for _ in range(3):
                system.run_until_terminal(system.instantiate("w", root, inputs))
        finally:
            sys.setprofile(None)
        assert system.execution.stats["dispatches"] >= 24
        assert [name for name in callers
                if name in ("execution.py", "journal.py", "replica.py")] == []
        assert set(callers) == {"wal.py", "worker.py"}  # the declared probes

    def test_point_named_rejects_unknown(self):
        with pytest.raises(ValueError):
            point_named("no.such.point")

    def test_crash_point_rejects_undeclared_name_when_installed(self):
        injector = CrashPointInjector(lambda node, fault, scope: None)
        install(injector)
        try:
            with pytest.raises(ValueError):
                crash_point("not.in.catalogue", scope=object())
        finally:
            uninstall()

    def test_crash_point_is_noop_without_injector(self):
        crash_point("not.in.catalogue", scope=object())  # must not raise


class TestArmedCrash:
    def test_validates_point_name(self):
        with pytest.raises(ValueError):
            ArmedCrash(point="bogus.point")

    def test_rejects_torn_on_non_torn_point(self):
        with pytest.raises(ValueError):
            ArmedCrash(point="wal.force.post", mode="torn")

    def test_rejects_bad_mode_and_hit(self):
        with pytest.raises(ValueError):
            ArmedCrash(point="wal.force.pre", mode="sideways")
        with pytest.raises(ValueError):
            ArmedCrash(point="wal.force.pre", at_hit=0)


class TestInjector:
    def test_unbound_scope_is_ignored(self):
        injector = CrashPointInjector(lambda node, fault, scope: None)
        injector.arm(ArmedCrash(point="wal.force.pre"))
        injector.visit("wal.force.pre", scope=object())  # unbound: no crash
        assert injector.visits == {}
        assert injector.fired == []

    def test_fires_on_nth_hit_from_bound_scope(self):
        crashed = []
        injector = CrashPointInjector(
            lambda node, fault, scope: crashed.append(node)
        )
        scope = object()
        injector.bind(scope, "node-1")
        injector.arm(ArmedCrash(point="wal.force.pre", at_hit=2))
        injector.visit("wal.force.pre", scope)
        assert crashed == []
        with pytest.raises(SimulatedCrash):
            injector.visit("wal.force.pre", scope)
        assert crashed == ["node-1"]
        assert injector.fired == [("wal.force.pre", "node-1")]
        assert injector.pending() == []

    def test_node_restriction(self):
        injector = CrashPointInjector(lambda node, fault, scope: None)
        a, b = object(), object()
        injector.bind(a, "node-a")
        injector.bind(b, "node-b")
        injector.arm(ArmedCrash(point="wal.force.pre", node="node-b"))
        injector.visit("wal.force.pre", a)  # wrong node: no crash
        with pytest.raises(SimulatedCrash):
            injector.visit("wal.force.pre", b)


class TestTornForce:
    def test_torn_force_keeps_all_but_last_pending(self):
        wal = WriteAheadLog()
        wal.append("BEGIN", "t1")
        wal.append("UPDATE", "t1", "x", 1)
        wal.append("COMMIT", "t1")
        assert wal.torn_force() == 2
        assert wal.durable_length == 2
        assert wal.lose_unforced() == 1  # the torn COMMIT vanishes at crash
        kinds = [record.kind for record in wal.durable_records()]
        assert kinds == ["BEGIN", "UPDATE"]

    def test_torn_force_with_one_pending_record_loses_it(self):
        wal = WriteAheadLog()
        wal.append("BEGIN", "t1")
        assert wal.torn_force() == 0
        assert wal.durable_length == 0
        assert wal.lose_unforced() == 1


class TestNemesisSerialisation:
    def _full_schedule(self):
        return NemesisSchedule(
            [
                CrashAtPoint("exec.reply.dispatch.forced", at_hit=2, downtime=45.0),
                CrashAtPoint("wal.force.pre", mode="torn"),
                CrashAtTime(at=12.5, node="worker-node-1", downtime=None),
                Partition(at=20.0, group_a=("execution-node",),
                          group_b=("worker-node-1", "worker-node-2"),
                          heal_after=30.0),
                Burst(at=5.0, duration=10.0, knob="loss_rate", value=0.25),
                Burst(at=6.0, duration=8.0, knob="dup_rate", value=0.5),
                Burst(at=7.0, duration=9.0, knob="reorder_window", value=4.0),
            ],
            name="everything",
        )

    def test_all_fault_kinds_round_trip_through_json(self):
        schedule = self._full_schedule()
        restored = NemesisSchedule.from_json(schedule.to_json())
        assert restored.name == schedule.name
        assert restored.faults == schedule.faults

    def test_fault_plain_forms_round_trip(self):
        for fault in self._full_schedule().faults:
            assert fault_from_plain(fault_to_plain(fault)) == fault

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ValueError):
            fault_from_plain({"kind": "meteor_strike", "at": 1.0})

    def test_without_drops_exactly_one_fault(self):
        schedule = self._full_schedule()
        shrunk = schedule.without(2)
        assert len(shrunk.faults) == len(schedule.faults) - 1
        assert schedule.faults[2] not in shrunk.faults
        assert len(schedule.faults) == 7  # original untouched

    def test_six_fault_kinds(self):
        assert sorted(nemesis._FAULT_TYPES) == [
            "burst", "crash_at_point", "crash_at_time", "load_spike", "partition", "random_crashes",
        ]

    def test_burst_validates_its_knob(self):
        for knob in nemesis.BURST_KNOBS:
            Burst(1.0, 2.0, knob, 0.5)
        with pytest.raises(ValueError, match="knob"):
            Burst(1.0, 2.0, "latency", 0.5)

    def test_crash_at_point_validates_eagerly(self):
        with pytest.raises(ValueError):
            CrashAtPoint("bogus.point")
        with pytest.raises(ValueError):
            CrashAtPoint("exec.reply.dispatch.forced", mode="torn")  # not a force site


class TestHarnessRuns:
    def test_fault_free_run_completes_cleanly(self):
        report = SimHarness(instances=2).run()
        assert report.ok, report.violations
        assert report.crashes == []
        assert all(
            info["status"] == "completed" for info in report.instances.values()
        )

    def test_crash_point_run_fires_recovers_and_completes(self):
        schedule = NemesisSchedule(
            [CrashAtPoint("exec.reply.dispatch.forced", downtime=30.0)], name="one-crash"
        )
        report = SimHarness(schedule=schedule).run()
        assert report.ok, report.violations
        assert len(report.crashes) == 1
        assert report.crashes[0]["node"] == "execution-node"
        assert ["exec.reply.dispatch.forced", "execution-node"] in report.fired
        assert report.unfired == []
        assert all(
            info["status"] == "completed" for info in report.instances.values()
        )

    def test_torn_write_crash_recovers(self):
        schedule = NemesisSchedule(
            [CrashAtPoint("wal.force.pre", mode="torn", at_hit=3)], name="torn"
        )
        report = SimHarness(schedule=schedule).run()
        assert report.ok, report.violations
        assert report.crashes[0]["mode"] == "torn"
        assert all(
            info["status"] == "completed" for info in report.instances.values()
        )

    def test_node_stays_down_when_downtime_is_none(self):
        schedule = NemesisSchedule(
            [CrashAtTime(at=5.0, node="execution-node", downtime=None)],
            name="dead-forever",
        )
        report = SimHarness(schedule=schedule, max_time=300.0).run()
        # liveness is waived for unhealable schedules; safety must still hold
        assert report.ok, report.violations
        assert all(
            info["status"] == "lost" for info in report.instances.values()
        )

    def test_a_crash_mid_instantiate_never_adopts_a_spike_instance(self):
        """After a crash inside ``instantiate`` the harness takes the oldest
        instance it does not know yet as the workload's, never one a load
        spike submitted (``wf-10`` sorts before ``wf-2``)."""
        schedule = NemesisSchedule([
            CrashAtPoint("wal.force.pre", downtime=10.0),
            LoadSpike(at=0.0, duration=60.0, rate=0.5),
        ])
        harness = SimHarness(
            schedule, workload="order", instances=3,
            system=SystemSpec(seed=0, workers=2),
        )
        report = harness.run()
        assert len(report.instances) == 3
        assert not set(report.instances) & set(harness._spike_submitted)
        assert report.ok, report.violations

    def test_replay_determinism_identical_fingerprints(self):
        schedule = NemesisSchedule(
            [
                CrashAtPoint("exec.reply.journal.pre", downtime=25.0),
                Burst(at=10.0, duration=40.0, knob="loss_rate", value=0.2),
            ],
            name="det",
        )
        first = SimHarness(schedule=schedule, system=SystemSpec(seed=7)).run()
        second = SimHarness(
            schedule=NemesisSchedule.from_json(schedule.to_json()),
            system=SystemSpec(seed=7),
        ).run()
        assert first.to_json() == second.to_json()
        assert first.fingerprint() == second.fingerprint()


class TestCompactionCrashes:
    """Satellite: a crash anywhere inside ExecutionService.compact() must
    land recovery on the pre- or post-compaction journal — never on a
    half-compacted store."""

    @pytest.mark.parametrize(
        "point",
        [
            "wal.checkpoint.forced",
        ],
    )
    def test_crash_during_compaction_recovers_whole(self, point):
        schedule = NemesisSchedule(
            [CrashAtPoint(point, downtime=30.0)], name=f"compact:{point}"
        )
        harness = SimHarness(schedule=schedule, compact_every=40.0)
        report = harness.run()
        assert report.ok, report.violations
        assert ["%s" % point, "execution-node"] in report.fired
        assert all(
            info["status"] == "completed" for info in report.instances.values()
        )
        # the recovered store must agree with its own durable log and keep a
        # contiguous journal (the oracles already enforced this at recovery
        # and quiescence; spot-check the final state explicitly here)
        store = harness._system.execution_store
        assert not oracles.check_store_agreement(store)
        assert not oracles.check_journal_integrity(store)


class TestExhaustiveSweep:
    def test_every_crash_point_fires_and_no_oracle_trips(self):
        """Every declared point fires, every generated one but the ledgered
        coverage gaps does, and no oracle trips.  A ledgered point is not
        run: no run the planner reads visits it, so armed it could not fire."""
        sweep = ChaosSweep()
        result = sweep.exhaustive()
        torn_variants = sum(1 for p in catalogue() if p.torn)
        # and wal.force.pre (clean, torn) at its last hit
        assert len(result.reports) == len(catalogue()) - len(UNCOVERED) + torn_variants + 2
        assert result.unreached == []
        assert result.uncovered == [
            f"{p.name} (clean)" for p in catalogue() if p.name in UNCOVERED
        ]
        assert all(reason for reason in UNCOVERED.values())
        assert not result.failures, result.summary()

    @pytest.mark.parametrize("workload, instances", [("order", 1), ("order", 3), ("trip", 2)])
    def test_every_run_fires_its_own_point(self, workload, instances):
        """A run is planned only in a run that visits its point, so each one
        fires that point, not only the crash that drives it there."""
        for label, name, mode, harness in ChaosSweep(workload, instances=instances).plans():
            if harness is not None:
                fired = [point for point, _node in harness.run().fired]
                assert name in fired, f"{label} ({mode}) fired only {fired}"

    @pytest.mark.parametrize("workload", ["trip", "service-impact"])
    def test_every_paper_workload_leaves_only_the_ledgered_points(self, workload):
        """A point the sweep's workload never visits runs on the first one
        whose run does, so each workload's sweep reaches the same points."""
        result = ChaosSweep(workload).exhaustive()
        assert result.unreached == []
        assert sorted(name.split(" ")[0] for name in result.uncovered) == sorted(UNCOVERED)
        assert not result.failures, result.summary()

    def test_an_unledgered_point_that_does_not_fire_fails_the_sweep(self, monkeypatch):
        """A generated point the ledger does not name is unreached when it
        does not fire, as a declared one is: the CLI fails on it."""
        monkeypatch.delitem(explorer.UNCOVERED, "exec.admin.journal.pre")
        result = ChaosSweep().exhaustive()
        assert result.unreached == ["exec.admin.journal.pre (clean)"]
        assert "exec.admin.journal.pre (clean)" not in result.uncovered

    def test_a_broken_fault_free_run_is_the_whole_pass(self, monkeypatch):
        """When the sweep's own fault-free run raises, the pass is that run
        alone (the tree is broken; each armed run would only repeat it)."""
        def broken(harness):
            raise RuntimeError("broken")

        monkeypatch.setattr(SimHarness, "run", broken)
        ((label, name, mode, harness),) = ChaosSweep().plans()
        assert label == "fault-free" and not harness.schedule.faults
        with pytest.raises(RuntimeError):
            ChaosSweep().exhaustive()

    def test_a_force_point_is_armed_again_at_its_last_hit(self):
        """The last force of a closed loop is the barrier that ends its last
        instance, the only kind that writes a ``meta``: the extra runs arm
        the WAL's pre-force point at its last visit in the fault-free run."""
        sweep = ChaosSweep()
        fault_free = sweep._harness(NemesisSchedule(), sweep.base_seed).run()
        plans = [plan for plan in sweep.plans() if plan[0].endswith("@last")]
        assert [(name, mode) for _label, name, mode, _harness in plans] == [
            ("wal.force.pre", "clean"), ("wal.force.pre", "torn"),
        ]
        for _label, name, mode, harness in plans:
            (fault,) = harness.schedule.faults
            assert (fault.point, fault.mode) == (name, mode)
            assert fault.at_hit == fault_free.points_visited[name] > 1
            report = harness.run()
            assert report.ok, report.violations
            assert [name, "execution-node"] in report.fired

    def test_plan_for_point_policies(self):
        sweep = ChaosSweep()

        def plan(name):
            harness = sweep.plan_for_point(point_named(name))
            crashes = [f.point for f in harness.schedule.faults if isinstance(f, CrashAtPoint)]
            return crashes, harness.system.replicas

        # a point only a rebuild visits gets a driver crash first: just after
        # the first barrier the fault-free run takes for an event
        assert plan("exec.resume.arm.pre") == (
            ["exec.reply.dispatch.forced", "exec.resume.arm.pre"], 0)
        # a point only standbys visit runs replicated, fault-free but for it
        assert plan("store.ingest.pre") == (["store.ingest.pre"], 2)
        # ... and one only a failover visits, after the driver kills the primary
        assert plan("repl.promote.pre") == (
            ["exec.reply.dispatch.forced", "repl.promote.pre"], 2)
        # compaction points enable the compactor
        assert sweep.plan_for_point(point_named("wal.checkpoint.forced")).compact_every
        # a point the sweep's workload never visits runs on the first paper
        # workload whose run does (order emits no marks, trip does) ...
        assert sweep.plan_for_point(point_named("exec.mark.journal.pre")).workload == "trip"
        assert ChaosSweep("trip").plan_for_point(point_named("wal.force.pre")).workload == "trip"
        # ... and a ledgered point no run visits has no plan, whether a
        # rebuild would be its only caller or a client operation
        assert sweep.plan_for_point(point_named("exec.resume.journal.pre")) is None
        assert sweep.plan_for_point(point_named("exec.admin.journal.pre")) is None


class TestRandomSweep:
    def test_random_schedules_are_seed_reproducible(self):
        sweep = ChaosSweep()
        assert sweep.random_schedule(11).faults == sweep.random_schedule(11).faults
        distinct = {
            json.dumps(sweep.random_schedule(s).to_plain(), sort_keys=True)
            for s in range(10)
        }
        assert len(distinct) > 1

    def test_a_random_crash_point_is_one_a_run_can_reach(self):
        """The random pass runs without standbys, and no run reaches a
        ledgered point: a drawn crash at either could not fire."""
        drawn = {
            fault.point for seed in range(64)
            for fault in ChaosSweep().random_schedule(seed).faults
            if isinstance(fault, CrashAtPoint)
        }
        assert drawn and not drawn & set(UNCOVERED)
        assert not [name for name in drawn if name.startswith(("repl.", "store."))]

    def test_small_random_sweep_passes_all_oracles(self):
        result = ChaosSweep(base_seed=3).random_sweep(6)
        assert len(result.reports) == 6
        assert not result.failures, result.summary()


class _FakeSweep(ChaosSweep):
    """Shrinker unit-test double: a run 'violates' iff the schedule still
    contains a crash of worker-node-2."""

    def __init__(self):
        super().__init__()
        self.runs = 0

    def _run(self, harness):
        self.runs += 1
        schedule = harness.schedule
        bad = any(
            isinstance(f, CrashAtTime) and f.node == "worker-node-2"
            for f in schedule.faults
        )
        violations = (
            [{"oracle": "fake", "subject": "x", "detail": "boom", "phase": ""}]
            if bad else []
        )
        return SimReport(
            workload="order", seed=0, workers=2,
            schedule=schedule.to_plain(), instances={}, violations=violations,
        )


class TestShrinking:
    def test_greedy_shrink_isolates_the_culprit_fault(self):
        sweep = _FakeSweep()
        schedule = NemesisSchedule(
            [
                Burst(at=1.0, duration=5.0, knob="loss_rate", value=0.1),
                CrashAtTime(at=10.0, node="worker-node-2", downtime=30.0),
                Burst(at=2.0, duration=5.0, knob="dup_rate", value=0.3),
            ],
            name="triple",
        )
        shrunk, report = sweep.shrink(SimHarness(schedule))
        assert len(shrunk.schedule.faults) == 1
        assert isinstance(shrunk.schedule.faults[0], CrashAtTime)
        assert shrunk.schedule.faults[0].node == "worker-node-2"
        assert report.violations

    def test_shrink_keeps_irreducible_schedule(self):
        sweep = _FakeSweep()
        schedule = NemesisSchedule(
            [CrashAtTime(at=10.0, node="worker-node-2", downtime=30.0)],
            name="single",
        )
        shrunk, _ = sweep.shrink(SimHarness(schedule))
        assert len(shrunk.schedule.faults) == 1


class TestReproFiles:
    @staticmethod
    def force_violations(monkeypatch):
        def always_violates(store, phase=""):
            return [
                oracles.OracleViolation(
                    "journal-contiguity", "synthetic", "injected for test",
                    phase,
                )
            ]

        monkeypatch.setattr(oracles, "check_journal_integrity", always_violates)

    FORCED = NemesisSchedule(
        [
            CrashAtPoint("exec.reply.dispatch.forced", downtime=30.0),
            Burst(at=5.0, duration=20.0, knob="loss_rate", value=0.1),
        ],
        name="forced",
    )

    def test_violating_run_is_shrunk_recorded_and_replayed(
        self, tmp_path, monkeypatch
    ):
        """End-to-end repro pipeline with a synthetic invariant violation:
        a patched journal oracle always fires, the sweep shrinks the
        schedule to one fault, writes the repro file, and replay()
        reproduces the recorded report byte-for-byte."""
        self.force_violations(monkeypatch)
        sweep = ChaosSweep(out_dir=str(tmp_path))
        harness = sweep._harness(self.FORCED, seed=3)
        report = sweep._run(harness)
        assert report.violations
        failure = sweep._shrink_and_record(harness, report)
        assert failure.repro_path and os.path.exists(failure.repro_path)
        # shrunk to one fault
        assert len(failure.harness["schedule"]["faults"]) == 1
        with open(failure.repro_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        assert data["fingerprint"] == failure.fingerprint
        reproduced, recorded, fresh, _ = replay(failure.repro_path)
        assert reproduced
        assert recorded == fresh

    def test_replicated_violation_is_recorded_and_replayed(self, tmp_path, monkeypatch):
        """The repro file carries the whole system spec: a forced violation
        on a replicated, short-lease harness replays byte for byte."""
        self.force_violations(monkeypatch)
        sweep = ChaosSweep(out_dir=str(tmp_path))
        harness = SimHarness(
            self.FORCED, system=SystemSpec(replicas=2, lease_duration=30.0)
        )
        failure = sweep._shrink_and_record(harness, sweep._run(harness))
        with open(failure.repro_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        assert data["harness"]["system"]["replicas"] == 2
        assert data["harness"]["system"]["lease_duration"] == 30.0
        assert SimHarness.from_plain(data["harness"]).system == harness.system
        reproduced, recorded, fresh, report = replay(failure.repro_path)
        assert reproduced and recorded == fresh == failure.fingerprint
        assert report.replicas == 2

    def test_replay_detects_fingerprint_mismatch(self, tmp_path):
        schedule = NemesisSchedule(
            [CrashAtPoint("exec.reply.journal.pre", downtime=30.0)], name="clean"
        )
        harness = SimHarness(schedule, system=SystemSpec(seed=5))
        report = harness.run()
        path = tmp_path / "repro.json"
        good = {"harness": harness.to_plain(), "fingerprint": report.fingerprint()}
        path.write_text(json.dumps(good), encoding="utf-8")
        reproduced, recorded, fresh, _ = replay(str(path))
        assert reproduced and recorded == fresh

        good["fingerprint"] = "0" * 64
        path.write_text(json.dumps(good), encoding="utf-8")
        reproduced, recorded, fresh, _ = replay(str(path))
        assert not reproduced
        assert recorded != fresh
