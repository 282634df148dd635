"""The nemesis interpreter on a plain system: a schedule armed with
``NemesisSchedule.arm(system)`` crashes and recovers machines the way its
faults say, and logs what it did."""

import pytest

from repro.services import WorkflowSystem
from repro.sim.nemesis import CrashAtPoint, CrashAtTime, LoadSpike, NemesisSchedule, RandomCrashes

A, B = "worker-node-1", "worker-node-2"


def armed(*faults, workers=2):
    system = WorkflowSystem(workers=workers)
    return system, NemesisSchedule(list(faults)).arm(system)


class TestCrashAtTime:
    def test_crash_at_scheduled_time(self):
        system, _log = armed(CrashAtTime(5.0, A, downtime=None))
        system.clock.run(until=4.9)
        assert system.nodes[A].alive
        system.clock.run(until=5.1)
        assert not system.nodes[A].alive

    def test_recovery_after_downtime(self):
        system, _log = armed(CrashAtTime(5.0, A, downtime=3.0))
        system.clock.run(until=6.0)
        assert not system.nodes[A].alive
        system.clock.run(until=8.5)
        assert system.nodes[A].alive

    def test_permanent_crash_without_downtime(self):
        system, _log = armed(CrashAtTime(1.0, A, downtime=None))
        system.clock.run(until=100.0)
        assert not system.nodes[A].alive

    def test_log_records_only_executed_crashes(self):
        system, log = armed(CrashAtTime(5.0, A, downtime=1.0))
        assert log == []
        system.clock.run(until=4.0)
        assert log == []
        system.clock.run(until=5.5)
        assert log == [
            {"node": A, "time": 5.0, "point": None, "mode": "clean", "downtime": 1.0}
        ]

    def test_a_crash_that_finds_its_node_down_schedules_no_recovery(self):
        system, log = armed(
            CrashAtTime(1.0, A, downtime=None),  # permanent
            CrashAtTime(2.0, A, downtime=1.0),   # strikes a dead node
        )
        system.clock.run(until=10.0)
        assert not system.nodes[A].alive
        assert [(c["node"], c["time"]) for c in log] == [(A, 1.0)]

    def test_multiple_nodes(self):
        system, log = armed(CrashAtTime(1.0, A, downtime=None), CrashAtTime(2.0, B, downtime=None))
        system.clock.run(until=3.0)
        assert not system.nodes[A].alive and not system.nodes[B].alive
        assert [c["node"] for c in log] == [A, B]


@pytest.mark.parametrize(
    "fault", [CrashAtPoint("wal.force.pre"), LoadSpike(at=1.0, duration=5.0, rate=1.0)]
)
def test_kinds_that_need_the_harness_are_refused_before_anything_is_armed(fault):
    system = WorkflowSystem(workers=2)
    with pytest.raises(ValueError, match=fault.kind):
        NemesisSchedule([CrashAtTime(1.0, A), fault]).arm(system)
    system.clock.run(until=10.0)
    assert system.nodes[A].alive


class TestRandomCrashes:
    NODES = ("worker-node-1", "worker-node-2", "worker-node-3")

    def test_injects_crashes_and_recovers_each_victim_after_its_downtime(self):
        chaos = RandomCrashes(self.NODES, interval=10.0, downtime=5.0, seed=1)
        system, log = armed(chaos, workers=3)
        alive = {name: True for name in self.NODES}
        downs, ups = [], set()
        # the chain never ends: step to a horizon, watching every node
        while system.clock.now < 500.0:
            system.clock.step()
            for name in self.NODES:
                if system.nodes[name].alive == alive[name]:
                    continue
                alive[name] = system.nodes[name].alive
                if alive[name]:
                    ups.add((system.clock.now, name))
                else:
                    downs.append((system.clock.now, name))
        assert len(log) > 5
        assert downs == [(crash["time"], crash["node"]) for crash in log]
        for time, name in downs:
            if time + 5.0 <= system.clock.now:
                assert (time + 5.0, name) in ups

    def test_deterministic_under_seed(self):
        def run(seed):
            chaos = RandomCrashes(self.NODES[:2], interval=5.0, downtime=2.0, seed=seed)
            system, log = armed(chaos)
            system.clock.run(until=200.0)
            return [(c["node"], c["time"]) for c in log]

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_round_trips_through_a_repro_file(self):
        chaos = RandomCrashes(self.NODES, interval=40.0, downtime=20.0, seed=7)
        schedule = NemesisSchedule([chaos])
        assert NemesisSchedule.from_json(schedule.to_json()) == schedule

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError, match="interval"):
            RandomCrashes(self.NODES, interval=0.0, downtime=1.0)
