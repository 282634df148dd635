"""Overload robustness (docs/PROTOCOLS.md §13): bounded admission, the
delay-gradient controller, priority shedding, the traffic generator, and
the no-silent-drop guarantee under chaos.
"""

import pytest

from repro.lang import format_script
from repro.orb import Overloaded
from repro.overload import (
    QUEUE,
    REJECT,
    SHED,
    START,
    AdmissionController,
    CRITICALITY_CLASSES,
    OverloadConfig,
    criticality_of,
)
from repro.services import WorkflowSystem
from repro.services.execution import _PENDING_ACK_CAP
from repro.workloads import (
    TrafficSpec,
    arrival_schedule,
    cohort_script,
    run_traffic,
    traffic_registry,
)

TERMINAL = ("completed", "aborted", "failed")


def tight_system(
    *,
    queue_capacity=2,
    window=1,
    workers=1,
    service_time=15.0,
    seed=0,
    **overrides,
):
    cfg = OverloadConfig(
        queue_capacity=queue_capacity,
        initial_window=window,
        min_window=min(window, 8),
        **overrides,
    )
    return WorkflowSystem(
        workers=workers,
        registry=traffic_registry(),
        seed=seed,
        overload=cfg,
        worker_service_time=service_time,
    )


def deploy_cohort(system, cohort=1, length=2):
    """Deploy one cohort pipeline; returns (script_name, root_task)."""
    script, root = cohort_script(cohort, length)
    name = f"traffic-c{cohort}"
    system.deploy(name, format_script(script))
    return name, root


def drive(system, iids, max_time=3_000.0, step=10.0):
    service = system.execution
    deadline = system.clock.now + max_time
    while system.clock.now < deadline:
        if all(
            service.runtimes[iid].tree.status.value in TERMINAL for iid in iids
        ):
            return
        system.clock.advance(step)


class TestCriticality:
    def test_declared_on_root_implementation(self):
        for cohort, expected in ((0, "high"), (1, "normal"), (2, "low")):
            script, root = cohort_script(cohort, 2)
            assert criticality_of(script, root) == expected

    def test_unknown_or_absent_defaults_to_normal(self):
        script, root = cohort_script(0, 2)
        assert criticality_of(script, "no-such-task") == "normal"
        assert set(CRITICALITY_CLASSES) == {"low", "normal", "high"}


class TestAdmissionController:
    def cfg(self, **kw):
        params = dict(
            queue_capacity=4, initial_window=2, min_window=1,
            sojourn_target=10.0, control_interval=5.0,
        )
        params.update(kw)
        return OverloadConfig(**params)

    def test_start_within_window_then_queue_then_reject(self):
        ctrl = AdmissionController(self.cfg(queue_capacity=2))
        assert ctrl.decide("normal", 0.0) == START
        ctrl.on_start("a", 0.0)
        ctrl.on_start("b", 0.0)
        assert ctrl.decide("normal", 1.0) == QUEUE
        ctrl.enqueue("c", "normal", 1.0)
        ctrl.enqueue("d", "normal", 1.0)
        assert ctrl.decide("normal", 2.0) == REJECT

    def test_promotion_fills_freed_slots_fifo(self):
        ctrl = AdmissionController(self.cfg())
        ctrl.on_start("a", 0.0)
        ctrl.on_start("b", 0.0)
        ctrl.enqueue("c", "normal", 1.0)
        ctrl.enqueue("d", "low", 2.0)
        assert ctrl.promote_ready(3.0) == []  # window still full
        ctrl.release("a", 3.0)
        promoted = ctrl.promote_ready(4.0)
        assert [(iid, crit) for iid, crit, _ in promoted] == [("c", "normal")]
        assert promoted[0][2] == pytest.approx(3.0)  # sojourn observed

    def test_pressure_escalation_and_priority_order(self):
        ctrl = AdmissionController(self.cfg(initial_window=1))
        ctrl.on_start("a", 0.0)
        assert ctrl.allow_hedge()
        # standing queue: head age drives the controller past shed_all_at
        ctrl.enqueue("q", "normal", 0.0)
        ctrl.control(60.0)
        assert ctrl.pressure == 3
        assert not ctrl.allow_hedge()
        assert ctrl.decide("high", 61.0) == SHED  # any class goes
        ctrl.pressure = 2
        assert ctrl.decide("low", 61.0) == SHED
        assert ctrl.decide("normal", 61.0) == QUEUE
        ctrl.pressure = 1
        assert not ctrl.allow_hedge()
        assert ctrl.decide("low", 61.0) == QUEUE

    def test_evict_low_only_at_pressure_two(self):
        ctrl = AdmissionController(self.cfg(initial_window=1))
        ctrl.on_start("a", 0.0)
        ctrl.enqueue("n", "normal", 0.0)
        ctrl.enqueue("l", "low", 0.0)
        assert ctrl.evict_low(1.0) == []
        ctrl.pressure = 2
        assert ctrl.evict_low(1.0) == [("l", "low")]
        assert list(ctrl.queue) == ["n"]

    def test_window_shrinks_multiplicatively_and_regrows(self):
        ctrl = AdmissionController(
            self.cfg(initial_window=10, min_window=2, queue_capacity=8)
        )
        for i in range(10):
            ctrl.on_start(f"a{i}", 0.0)
        ctrl.enqueue("q", "normal", 0.0)
        ctrl.control(60.0)  # head waited 60 >> target 10
        assert ctrl.window == 8  # int(10 * 0.8)
        ctrl.control(120.0)
        assert ctrl.window == 6  # keeps shrinking while delay stands
        ctrl.forget("q")
        ctrl.control(180.0)  # idle interval: relax and regrow
        assert ctrl.pressure == 0
        assert ctrl.window == 7

    def test_retry_after_deterministic_and_pressure_scaled(self):
        a = AdmissionController(self.cfg(queue_capacity=4))
        b = AdmissionController(self.cfg(queue_capacity=4))
        for ctrl in (a, b):
            ctrl.enqueue("x", "normal", 0.0)
            ctrl.enqueue("y", "normal", 0.0)
        assert a.retry_after(5.0) == b.retry_after(5.0)
        base = a.retry_after(5.0)
        a.pressure = 2
        assert a.retry_after(5.0) > base

    def test_rebuild_readmits_survivors_and_clears_pressure(self):
        ctrl = AdmissionController(self.cfg(initial_window=2))
        ctrl.on_start("a", 0.0)
        ctrl.enqueue("q", "normal", 0.0)
        ctrl.pressure = 3
        ctrl.rebuild(["a", "b", "c"], 100.0)
        assert ctrl.queue == {}
        assert ctrl.in_flight == {"a", "b", "c"}
        assert ctrl.pressure == 0
        assert ctrl.window >= 3  # every rebuilt instance fits the window


class TestBoundedAdmission:
    def test_full_queue_refuses_with_deterministic_retry_after(self):
        hints = []
        for _ in range(2):
            system = tight_system(retry_after_base=10.0)
            name, root = deploy_cohort(system)
            for i in range(3):  # 1 starts, 2 queue
                system.instantiate(name, root, {"inp": f"k{i}"})
            with pytest.raises(Overloaded) as exc:
                system.instantiate(name, root, {"inp": "k3"})
            assert exc.value.retry_after > 0
            hints.append(exc.value.retry_after)
            assert system.execution.stats["overload_rejections"] == 1
        assert hints[0] == hints[1]  # same history, same hint

    def test_queued_instances_start_when_window_frees(self):
        system = tight_system()
        name, root = deploy_cohort(system)
        iids = [system.instantiate(name, root, {"inp": f"k{i}"}) for i in range(3)]
        report = system.execution.admission.report()
        assert report["in_flight"] == 1 and report["queue_depth"] == 2
        drive(system, iids)
        service = system.execution
        for iid in iids:
            assert service.runtimes[iid].tree.status.value == "completed"
        report = service.admission.report()
        assert report["promoted"] == 2
        assert report["queue_depth"] == 0 and report["in_flight"] == 0


class TestShedding:
    def shed_one(self, system, cohort=1):
        """Fill the window, force max pressure, submit one arrival."""
        name, root = deploy_cohort(system, cohort=cohort)
        blocker = system.instantiate(name, root, {"inp": "hot"})
        system.execution.admission.pressure = 3
        victim = system.instantiate(name, root, {"inp": "late"})
        return blocker, victim

    def test_shed_is_journaled_decisive_failure(self):
        system = tight_system()
        _, victim = self.shed_one(system)
        service = system.execution
        status = system.status(victim)
        assert status["status"] == "failed"
        assert status["error"].startswith("overloaded")
        entries = service.export_instance(victim)["journal"]
        assert any(e["type"] == "overloaded" for e in entries)
        assert service.stats["shed"] == 1
        assert service.resilience_report()["overload"]["shed_normal"] == 1

    def test_shed_survives_crash_and_replay(self):
        system = tight_system()
        _, victim = self.shed_one(system)
        before = system.status(victim)
        system.execution_node.crash()
        system.execution_node.recover()
        after = system.status(victim)
        assert after["status"] == "failed"
        assert after["error"] == before["error"]

    def test_started_work_is_never_shed(self):
        system = tight_system()
        blocker, _ = self.shed_one(system)
        drive(system, [blocker])
        assert system.execution.runtimes[blocker].tree.status.value == "completed"

    def test_shed_event_reaches_the_trace(self):
        system = tight_system()
        _, victim = self.shed_one(system)
        assert "shed" in system.execution.trace(victim)

    def test_unbounded_window_admits_everything(self):
        """No admission control is a value: a window no run can fill starts
        every arrival at once and gives the controller nothing to act on."""
        unbounded = 10_000
        system = WorkflowSystem(
            workers=1, registry=traffic_registry(), seed=0,
            overload=OverloadConfig(initial_window=unbounded, max_window=unbounded),
            worker_service_time=5.0,
        )
        name, root = deploy_cohort(system)
        iids = [system.instantiate(name, root, {"inp": f"k{i}"}) for i in range(6)]
        admission = system.execution.admission
        assert admission.report()["admitted"] == 6
        assert not admission.queue
        drive(system, iids)
        for iid in iids:
            assert system.execution.runtimes[iid].tree.status.value == "completed"
        after = admission.report()
        assert after["window"] == unbounded and after["window_changes"] == 0
        assert after["pressure"] == 0 and after["queued"] == 0
        assert after["rejected"] == after["shed_low"] == after["shed_normal"] == 0


class TestPendingAcksBounded:
    def test_hard_cap_evicts_oldest(self):
        system = tight_system(queue_capacity=8, window=4, service_time=5.0)
        service = system.execution
        for i in range(_PENDING_ACK_CAP + 500):
            service._pending_acks[(f"ghost-{i}", "t", 0, "w")] = float(i)
        name, root = deploy_cohort(system)
        iid = system.instantiate(name, root, {"inp": "k"})
        drive(system, [iid])
        assert service.runtimes[iid].tree.status.value == "completed"
        assert len(service._pending_acks) <= _PENDING_ACK_CAP


class TestTrafficGenerator:
    def spec(self, **kw):
        params = dict(rate=0.5, duration=60.0, drain=240.0, seed=11, slo=60.0)
        params.update(kw)
        return TrafficSpec(**params)

    def test_schedule_is_deterministic_and_in_horizon(self):
        spec = self.spec()
        first = arrival_schedule(spec)
        second = arrival_schedule(spec)
        assert first == second
        assert first, "schedule must not be empty"
        assert all(0 < a.at < spec.duration for a in first)
        assert [a.at for a in first] == sorted(a.at for a in first)
        assert {a.criticality for a in first} <= set(CRITICALITY_CLASSES)

    def test_burst_schedule_offers_more_than_poisson(self):
        poisson = arrival_schedule(self.spec())
        burst = arrival_schedule(self.spec(arrival="burst"))
        assert len(burst) > len(poisson)

    def test_same_seed_same_fingerprint(self):
        reports = []
        for _ in range(2):
            system = tight_system(
                queue_capacity=8, window=4, workers=2, service_time=1.0, seed=11
            )
            reports.append(run_traffic(system, self.spec()))
        assert reports[0].fingerprint() == reports[1].fingerprint()
        assert reports[0].offered > 0
        assert reports[0].unfinished == 0

    def test_different_seed_different_fingerprint(self):
        fingerprints = []
        for seed in (11, 12):
            system = tight_system(
                queue_capacity=8, window=4, workers=2, service_time=1.0, seed=seed
            )
            fingerprints.append(run_traffic(system, self.spec(seed=seed)).fingerprint())
        assert fingerprints[0] != fingerprints[1]

    def test_every_offered_arrival_is_accounted_for(self):
        system = tight_system(
            queue_capacity=4, window=2, workers=1, service_time=4.0, seed=3
        )
        report = run_traffic(system, self.spec(rate=1.0, seed=3))
        assert report.offered == (
            report.admitted + report.refused + report.lost
        )
        assert report.admitted == (
            report.completed + report.shed + report.failed + report.unfinished
        )


class TestReconfigureUnderTraffic:
    def test_live_reconfiguration_while_generator_runs(self):
        from repro.core import Implementation, ReplaceImplementation

        spec = TrafficSpec(rate=0.5, duration=120.0, drain=500.0, seed=5)
        system = tight_system(
            queue_capacity=32, window=4, workers=2, service_time=2.0, seed=5
        )
        script0, root0 = cohort_script(0, spec.script_length)
        new_text = format_script(
            ReplaceImplementation(
                f"{root0}/t{spec.script_length}",
                Implementation.of(code="stage", tier="upgraded"),
            ).apply_checked(script0)
        )
        proxy = system.execution_proxy()
        reconfigured = []

        def attempt() -> None:
            service = system.primary_execution()
            if service is not None:
                for iid in sorted(service.runtimes):
                    runtime = service.runtimes[iid]
                    if runtime.tree.status.value != "running":
                        continue
                    if root0 not in runtime.tree.script.tasks:
                        continue  # another cohort's instance
                    try:
                        proxy.reconfigure(iid, new_text)
                    except Exception:
                        continue  # e.g. the target task already finished
                    reconfigured.append(iid)
                    return
            system.clock.call_after(10.0, attempt, label="test:reconfig")

        system.clock.call_after(30.0, attempt, label="test:reconfig")
        report = run_traffic(system, spec)

        assert reconfigured, "no live instance was ever reconfigured"
        iid = reconfigured[0]
        service = system.execution
        runtime = service._full_runtime(iid)
        # applied exactly once: visible in the instance's tree and journaled once
        upgraded = runtime.tree.script.tasks[root0].task(f"t{spec.script_length}")
        assert upgraded.implementation.get("tier") == "upgraded"
        entries = service.export_instance(iid)["journal"]
        assert sum(1 for e in entries if e["type"] == "reconfig") == 1
        # nothing lost while reconfiguration raced the generator
        assert report.lost == 0
        assert report.unfinished == 0
        assert report.offered == report.admitted + report.refused


class TestChaosNoSilentDrop:
    def test_load_spike_with_worker_crash(self):
        from repro.sim.harness import SimHarness
        from repro.sim.nemesis import CrashAtTime, LoadSpike, NemesisSchedule

        schedule = NemesisSchedule(
            [
                LoadSpike(at=50.0, duration=100.0, rate=1.0),
                CrashAtTime(at=80.0, node="worker-node-1", downtime=40.0),
            ],
            name="spike+worker-crash",
        )
        harness = SimHarness(
            schedule=schedule, workload="order", seed=3, instances=2,
            service_time=2.0,
            overload=OverloadConfig(
                queue_capacity=8, initial_window=8, min_window=2
            ),
        )
        report = harness.run()
        assert report.ok, report.violations
        assert report.spike["accepted"] > 0
        assert report.spike["refused"] > 0  # backpressure actually engaged

    def test_spike_runs_are_reproducible(self):
        from repro.sim.harness import SimHarness
        from repro.sim.nemesis import LoadSpike, NemesisSchedule

        def once():
            harness = SimHarness(
                schedule=NemesisSchedule(
                    [LoadSpike(at=25.0, duration=50.0, rate=0.8)], name="spike"
                ),
                workload="order", seed=7, instances=1, service_time=1.0,
                overload=OverloadConfig(
                    queue_capacity=4, initial_window=4, min_window=2
                ),
            )
            return harness.run()

        first, second = once(), once()
        assert first.ok and second.ok
        assert first.fingerprint() == second.fingerprint()

    def test_schedule_round_trips_load_spike(self):
        from repro.sim.nemesis import LoadSpike, NemesisSchedule

        schedule = NemesisSchedule(
            [LoadSpike(at=10.0, duration=20.0, rate=2.0)], name="s"
        )
        again = NemesisSchedule.from_json(schedule.to_json())
        assert again.faults == schedule.faults
        assert schedule.network_quiet_at() == 30.0
