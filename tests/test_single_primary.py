"""One primary per instant (docs/PROTOCOLS.md §12): a replica acts only
inside its lease, so at no event of any schedule do two live replicas answer
``is_primary()``, and no worker ever has to fence a primary that still acts.
The seeded mutation is primacy read off the role alone, with a lapsed lease
noticed only at the primary's next lease tick."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.replication import Role
from repro.replication.replica import ReplicatedExecutionService
from repro.services import WorkflowSystem
from repro.services.system import SystemSpec
from repro.sim import oracles
from repro.sim.harness import SimHarness
from repro.sim.nemesis import CrashAtTime, NemesisSchedule, Partition
from repro.workloads import generators, script_text


@pytest.fixture
def tick_only_rule(monkeypatch):
    primary_tick = ReplicatedExecutionService._primary_tick

    def lapsed_at_tick(self):
        if self._now() >= self.lease["expires_at"]:
            self._demote_self("lease expired without renewal")
            return
        primary_tick(self)

    monkeypatch.setattr(
        ReplicatedExecutionService, "is_primary", lambda self: self.role is Role.PRIMARY
    )
    monkeypatch.setattr(ReplicatedExecutionService, "_primary_tick", lapsed_at_tick)


# The standby's crash moves its lease polls to 11 + 25k; the primary, renewed
# at 25 and cut off from the arbiter at 26, is leased until 55 and ticks again
# at 75; the standby is granted epoch 2 at 61.
OFF_TICK = NemesisSchedule([
    CrashAtTime(1.0, "standby-node-2", downtime=10.0),
    Partition(2.0, ("execution-node",), ("worker-node-1",), heal_after=63.0),
    Partition(26.0, ("execution-node",), ("lease-node", "standby-node-2")),
], name="lease-off-tick")
OFF_TICK_SPEC = SystemSpec(
    replicas=2, workers=1, lease_duration=30.0, repl_interval=25.0,
    dispatch_timeout=8.0, sweep_interval=4.0,
)


def single_primary_violations(check_every):
    report = SimHarness(
        schedule=OFF_TICK, system=OFF_TICK_SPEC, check_every=check_every
    ).run()
    return [v for v in report.violations if v["oracle"] == "single-primary"]


class TestSinglePrimaryOracle:
    def test_holds_when_a_lease_term_is_not_a_multiple_of_the_tick(self):
        assert single_primary_violations(check_every=1.0) == []

    def test_fires_on_a_primary_that_acts_until_its_tick(self, tick_only_rule):
        found = single_primary_violations(check_every=1.0)
        assert found and "2 live replicas" in found[0]["detail"]


def stepped_run(tick, term, standby_down, cut, cut_standby, heal_after, primary_down):
    """A replicated system running ``chain(8)`` instances whose tasks take
    3 s each, under the drawn faults, one event at a time; yields after
    every event."""
    workload = generators.chain(8)
    _script, registry, root, inputs = workload
    system = WorkflowSystem(
        registry=registry, replicas=2, workers=1, lease_duration=term,
        repl_interval=tick, dispatch_timeout=8.0, sweep_interval=4.0,
        worker_service_time=3.0,
    )
    system.deploy("w", script_text(workload))
    for _ in range(4):
        system.instantiate("w", root, inputs)
    faults = [
        CrashAtTime(standby_down[0], "standby-node-2", downtime=standby_down[1]),
        Partition(
            cut, ("execution-node",),
            ("lease-node", "standby-node-2") if cut_standby else ("lease-node",),
            heal_after=heal_after,
        ),
    ]
    if primary_down is not None:
        faults.append(CrashAtTime(primary_down[0], "execution-node", downtime=primary_down[1]))
    NemesisSchedule(faults).arm(system)
    clock = system.clock
    horizon = cut + 3 * term + 2 * tick
    while clock.now < horizon and clock.step():
        yield system


times = st.floats(min_value=0.5, max_value=60.0)


@settings(deadline=None, max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(
    tick=st.floats(min_value=2.0, max_value=25.0),
    multiple=st.integers(min_value=1, max_value=4),
    fraction=st.floats(min_value=0.05, max_value=0.95),
    standby_down=st.tuples(times, times),
    cut=times,
    cut_standby=st.booleans(),
    heal_after=st.one_of(st.none(), st.floats(min_value=1.0, max_value=120.0)),
    primary_down=st.one_of(st.none(), st.tuples(st.floats(60.0, 200.0), times)),
)
def test_at_most_one_replica_acts_after_every_event(
    tick, multiple, fraction, standby_down, cut, cut_standby, heal_after, primary_down
):
    term = tick * (multiple + fraction)  # never a multiple of the tick
    for system in stepped_run(
        tick, term, standby_down, cut, cut_standby, heal_after, primary_down
    ):
        replicas = system.execution_replicas
        assert oracles.check_single_primary(replicas, "event") == []
        assert [r.stats["fenced_replies"] for r in replicas] == [0, 0]
