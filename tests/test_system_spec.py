"""One description of a deployment: ``SystemSpec`` is what ``WorkflowSystem``
builds, what a ``SimHarness`` runs on and what a repro file records, and it
refuses the values that used to hang the clock or crash the build."""

import json
from dataclasses import fields

import pytest

from repro.net.network import LatencyModel
from repro.overload import OverloadConfig
from repro.resilience import BreakerConfig, ResilienceConfig, RetryPolicy
from repro.services.system import SystemSpec, WorkflowSystem
from repro.sim.explorer import ChaosSweep
from repro.sim.harness import SimHarness
from repro.workloads import TrafficSpec


@pytest.mark.parametrize(
    "changes",
    [
        # the sweeper re-armed at the same instant forever
        {"sweep_interval": 0},
        {"sweep_interval": -1.0},
        # the same loop, in the replication tick
        {"repl_interval": 0, "replicas": 2},
        # an IndexError while the execution tier was built
        {"replicas": -1},
        # silently treated as instantaneous
        {"worker_service_time": -1.0},
        # refused only when worker_service_time > 0
        {"worker_lanes": 0},
        {"worker_lanes": 0, "worker_service_time": 1.0},
        {"workers": 0},
        {"loss_rate": 1.0},
        {"dispatch_timeout": 0},
        {"lease_duration": 0, "replicas": 2},
    ],
    ids=lambda changes: ",".join(f"{k}={v}" for k, v in changes.items()),
)
def test_the_system_refuses_values_that_hang_or_crash(changes):
    name = next(iter(changes))
    with pytest.raises(ValueError, match=f"^{name}: "):
        WorkflowSystem(**changes)
    with pytest.raises(ValueError, match=f"^{name}: "):
        SystemSpec(**changes)


def test_one_construction_path():
    spec = SystemSpec(workers=3, seed=4)
    system = WorkflowSystem(spec, replicas=2)
    assert system.spec == SystemSpec(workers=3, seed=4, replicas=2)
    assert WorkflowSystem(workers=3, seed=4, replicas=2).spec == system.spec
    assert len(system.workers) == 3
    assert len(system.execution_replicas) == 2
    assert WorkflowSystem().spec == SystemSpec()


# Every settable value of every settings table, in declaration order.  A new
# knob is then a reviewed diff here, as a new CLI option is one in
# tests/test_tools.py::OPTIONS; a value that only tests would set belongs in
# a module constant (breaker.HALF_OPEN_PROBES, admission.SOJOURN_TARGET, ...).
SETTINGS = {
    SystemSpec: [
        "workers", "latency", "loss_rate", "seed", "dispatch_timeout", "sweep_interval",
        "resilience", "mirror_path", "replicas", "lease_duration", "repl_interval",
        "overload", "worker_service_time", "worker_lanes",
    ],
    ResilienceConfig: ["breaker", "hedge_delay", "max_redispatches", "recovery_stagger", "seed"],
    BreakerConfig: ["failure_threshold", "cooldown"],
    OverloadConfig: ["queue_capacity", "initial_window", "min_window", "max_window"],
    RetryPolicy: ["multiplier", "jitter", "seed"],
    TrafficSpec: [
        "arrival", "rate", "duration", "cohorts", "skew", "seed", "script_length",
        "burst_factor", "burst_period", "burst_duty", "drain", "max_attempts", "slo",
    ],
    ChaosSweep: ["workload", "workers", "instances", "base_seed", "max_time", "out_dir", "verbose"],
}


def test_every_settings_table_keeps_its_fields():
    assert {table: [item.name for item in fields(table)] for table in SETTINGS} == SETTINGS


def test_every_field_describes_itself():
    for item in fields(SystemSpec):
        assert item.metadata["help"], item.name
        assert "unit" in item.metadata, item.name


def test_the_harness_runs_on_a_spec_and_copies_none_of_it():
    assert SimHarness().system == SystemSpec()
    harness_fields = {item.name for item in fields(SimHarness)}
    assert not harness_fields & {item.name for item in fields(SystemSpec)}


def test_plain_form_round_trips_with_every_nested_bundle():
    spec = SystemSpec(
        workers=3,
        latency=LatencyModel(2.0, 0.25),
        loss_rate=0.05,
        seed=9,
        resilience=ResilienceConfig.for_timeouts(20.0, 5.0, seed=9, max_redispatches=None),
        mirror_path="wal.jsonl",
        replicas=2,
        lease_duration=30.0,
        overload=OverloadConfig(queue_capacity=8, initial_window=8, min_window=2),
        worker_service_time=1.5,
        worker_lanes=2,
    )
    assert SystemSpec.from_plain(spec.to_plain()) == spec
    assert SystemSpec.from_plain(json.loads(json.dumps(spec.to_plain()))) == spec
    assert SystemSpec.from_plain(SystemSpec().to_plain()) == SystemSpec()


def test_a_harness_round_trips_through_json():
    harness = SimHarness(
        workload="trip", instances=2, compact_every=40.0,
        system=SystemSpec(replicas=2, lease_duration=30.0, seed=3),
    )
    plain = json.loads(json.dumps(harness.to_plain()))
    assert SimHarness.from_plain(plain) == harness
