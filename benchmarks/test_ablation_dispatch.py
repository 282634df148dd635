"""Leave-one-out ablation of the dispatch and overload mechanisms.

The paper's system half (§3) promises that tasks eventually receive their
inputs despite a finite number of crashes and temporary network failures.
The dispatch and overload layers meet that promise with several adaptive
mechanisms; this experiment gives each one a number of its own, following
E14's pattern (remove exactly one piece, keep everything else).

Each *arm* sets one mechanism to its neutral value through the values the
system already takes — no flag exists to switch anything off — and every
scenario that motivates a mechanism runs under the full system and under
each arm, on the same seeds.  Time is simulated, so the spread comes from
the seeds, not from the host.  The rule: a mechanism whose neutral value
makes no scenario's median worse by more than the full system's
interquartile range is deleted, one at a time, re-measuring after each; a
kept one has its scenario and number in EXPERIMENTS.md (E15).  The
dispatcher's exponential backoff and its jitter left that way.

``test_kept_mechanisms_still_earn_their_lines`` asserts that each kept
mechanism still moves its scenario beyond the spread, so one that stops
earning shows up here.  ``python -m benchmarks.test_ablation_dispatch``
prints the whole table (every arm on every scenario) as markdown.
"""

from __future__ import annotations

import statistics
import sys
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Sequence, Tuple
from unittest import mock

from repro.core.builder import ScriptBuilder, from_input, from_output
from repro.engine.context import outcome
from repro.lang import format_script
from repro.overload import OverloadConfig, admission
from repro.resilience import ResilienceConfig, RetryPolicy
from repro.services import WorkflowSystem
from repro.services.system import TERMINAL
from repro.services.worker import ServiceProfile
from repro.sim.nemesis import CrashAtTime, NemesisSchedule, Partition, RandomCrashes
from repro.workloads import TrafficSpec, paper_order, run_traffic, traffic_registry

from .conftest import report
from .test_overload import BASE_RATE, DRAIN_S, DURATION_S, OVERLOAD_FACTOR, SLO_S, TIGHT, UNBOUNDED

DISPATCH_TIMEOUT = 20.0
SWEEP_INTERVAL = 5.0
SEEDS = tuple(range(10))
HORIZON = 20_000.0   # the permanent outage's budget; an unfinished run reads this
POLL = 0.5           # completion times are read on this grid


# -- arms: one mechanism at its neutral value ----------------------------------------


def _same(value):
    return value


def _nothing(_system: WorkflowSystem) -> None:
    pass


@dataclass(frozen=True)
class Arm:
    """One mechanism set neutral, as values of the bundles a system takes."""

    name: str
    resilience: Callable[[ResilienceConfig], ResilienceConfig] = _same
    overload: Callable[[OverloadConfig], OverloadConfig] = _same
    client: Callable[[RetryPolicy], RetryPolicy] = _same
    system: Callable[[WorkflowSystem], None] = _nothing
    module: Tuple[Tuple[str, float], ...] = ()   # admission constants for the run


def _least_in_flight(system: WorkflowSystem) -> None:
    """Health scoring neutral: the score is the in-flight count alone (no
    latency average, no failure streak); the breakers stay."""
    for service in system.execution_replicas or (system.execution,):
        health = service.health
        health._STREAK_WEIGHT = 0.0
        on_reply = health.on_reply

        def forget_latency(name, latency, now, on_reply=on_reply, health=health):
            on_reply(name, latency, now)
            if name in health.workers:
                health.workers[name].ewma_latency = None

        health.on_reply = forget_latency


FULL = Arm("full system")
ARMS: Tuple[Arm, ...] = (
    Arm("redispatch cap", resilience=lambda cfg: replace(cfg, max_redispatches=None)),
    Arm("recovery stagger", resilience=lambda cfg: replace(cfg, recovery_stagger=0.0)),
    Arm(
        "circuit breaker",
        resilience=lambda cfg: replace(
            cfg, breaker=replace(cfg.breaker, failure_threshold=10**9)
        ),
    ),
    Arm("health scoring", system=_least_in_flight),
    Arm("hedging", resilience=lambda cfg: replace(cfg, hedge_delay=None)),
    Arm("admission queue", overload=lambda cfg: replace(cfg, **UNBOUNDED)),
    Arm(
        "delay-gradient window",
        overload=lambda cfg: replace(
            cfg, min_window=cfg.initial_window, max_window=cfg.initial_window
        ),
    ),
    Arm(
        "priority shedding",
        module=(("SHED_LOW_AT", float("inf")), ("SHED_ALL_AT", float("inf"))),
    ),
    Arm("client overload backoff", client=lambda policy: replace(policy, multiplier=1.0, jitter=0.0)),
)


def build(arm: Arm, seed: int, overload: OverloadConfig = OverloadConfig(), **spec) -> WorkflowSystem:
    resilience = ResilienceConfig.for_timeouts(DISPATCH_TIMEOUT, SWEEP_INTERVAL, seed=seed)
    spec.setdefault("workers", 3)
    system = WorkflowSystem(
        seed=seed,
        dispatch_timeout=DISPATCH_TIMEOUT,
        sweep_interval=SWEEP_INTERVAL,
        resilience=arm.resilience(resilience),
        overload=arm.overload(overload),
        **spec,
    )
    arm.system(system)
    return system


# -- workloads ------------------------------------------------------------------------


def pinned_script():
    """``wf`` runs one task pinned to ``worker-1`` (§4.3's placement
    property), then one free task."""
    b = ScriptBuilder()
    b.object_class("Data")
    b.taskclass("T").input_set("main").outcome("ok", out="Data")
    b.taskclass("Root").input_set("main").outcome("done", out="Data")
    c = b.compound("wf", "Root")
    c.task("pinned", "T").implementation(code="step", location="worker-1").notify(
        "main", from_input("wf", "main")
    ).up()
    c.task("free", "T").implementation(code="step").notify(
        "main", from_output("pinned", "ok")
    ).up()
    c.output("done").object("out", from_output("free", "ok", "out")).up()
    c.up()
    return b.build()


def stream(system: WorkflowSystem, arrivals: Sequence[float], app: str = "order",
           horizon: float = HORIZON) -> float:
    """Submit one instance per arrival time and return the mean completion
    latency (arrival to terminal status).  An instance still open at
    ``horizon`` counts as finishing there."""
    if app == "order":
        paper_order.default_registry(registry=system.registry)
        system.deploy("order", paper_order.SCRIPT_TEXT)
        submit = lambda i: system.instantiate("order", paper_order.ROOT_TASK, {"order": f"o-{i}"})
    else:
        system.registry.register("step", lambda ctx: outcome("ok", out="x"))
        system.deploy("pinned", format_script(pinned_script()))
        submit = lambda i: system.instantiate("pinned", "wf", {})
    clock = system.clock
    start = clock.now
    pending: Dict[str, float] = {}
    latencies: List[float] = []
    queue = list(arrivals)
    while (queue or pending) and clock.now < start + horizon:
        while queue and clock.now >= start + queue[0]:
            pending[submit(len(latencies) + len(pending))] = start + queue.pop(0)
        clock.run(until=clock.now + POLL)
        for iid, arrived in list(pending.items()):
            fate = system.fate(iid)
            if fate is not None and fate["status"] in TERMINAL:
                latencies.append(clock.now - arrived)
                del pending[iid]
    latencies += [start + horizon - arrived for arrived in pending.values()]
    return statistics.fmean(latencies)


STREAM = [15.0 * i for i in range(10)]


def storm(arm: Arm, seed: int) -> float:
    system = build(arm, seed)
    workers = tuple(node.name for node in system.worker_nodes)
    NemesisSchedule([RandomCrashes(workers, 10.0, 120.0, seed)]).arm(system)
    return stream(system, STREAM)


def partition(arm: Arm, seed: int) -> float:
    system = build(arm, seed)
    cut = (system.worker_nodes[0].name,)
    NemesisSchedule([Partition(0.0, ("execution-node",), cut, heal_after=400.0)]).arm(system)
    return stream(system, STREAM)


def gray(arm: Arm, seed: int) -> float:
    system = build(arm, seed)
    system.workers[0].profile = ServiceProfile(service_time=40.0)
    return stream(system, STREAM)


def lossy(arm: Arm, seed: int) -> float:
    return stream(build(arm, seed, loss_rate=0.3), STREAM)


def herd(arm: Arm, seed: int) -> float:
    system = build(arm, seed, worker_service_time=1.0)
    NemesisSchedule([CrashAtTime(10.0, "execution-node", downtime=30.0)]).arm(system)
    return stream(system, [0.0] * 30)


def pinned(arm: Arm, seed: int) -> float:
    system = build(arm, seed)
    NemesisSchedule([RandomCrashes(("worker-node-1",), 50.0, 50.0, seed)]).arm(system)
    return stream(system, [5.0 * i for i in range(30)], app="pinned")


def outage(arm: Arm, seed: int) -> float:
    """Every worker cut off for good: how long until the instance settles
    (failed, by the redispatch cap and the task's retries)."""
    system = build(arm, seed)
    workers = tuple(node.name for node in system.worker_nodes)
    NemesisSchedule([Partition(0.0, ("execution-node",), workers)]).arm(system)
    return stream(system, [0.0])


def traffic(arm: Arm, seed: int, spec: TrafficSpec, overload: OverloadConfig, **system_spec):
    system = build(arm, seed, overload, registry=traffic_registry(), **system_spec)
    with mock.patch.multiple(admission, **dict(arm.module)) if arm.module else nullcontext():
        return run_traffic(system, spec, policy=arm.client(RetryPolicy(seed=spec.seed)))


def overload_10x(arm: Arm, seed: int) -> float:
    """``benchmarks/test_overload.py``'s 10x storm; SLO goodput."""
    spec = TrafficSpec(
        rate=BASE_RATE * OVERLOAD_FACTOR, duration=DURATION_S, drain=DRAIN_S, seed=seed, slo=SLO_S
    )
    return traffic(
        arm, seed, spec, OverloadConfig(**TIGHT),
        workers=2, worker_service_time=1.0, worker_lanes=1,
    ).slo_goodput


def burst(arm: Arm, seed: int) -> float:
    """``repro load --arrival burst --rate 1.0 --duration 120 --drain 300``;
    clients turned away."""
    spec = TrafficSpec(arrival="burst", rate=1.0, duration=120.0, drain=300.0, seed=seed, slo=120.0)
    overload = OverloadConfig(queue_capacity=16, initial_window=16, min_window=4)
    return traffic(arm, seed, spec, overload, workers=2, worker_service_time=1.0).refused


@dataclass(frozen=True)
class Scenario:
    name: str
    run: Callable[[Arm, int], float]
    metric: str
    lower_is_better: bool = True


SCENARIOS: Tuple[Scenario, ...] = (
    Scenario("storm", storm, "mean latency s"),
    Scenario("partition", partition, "mean latency s"),
    Scenario("gray", gray, "mean latency s"),
    Scenario("lossy", lossy, "mean latency s"),
    Scenario("herd", herd, "mean latency s"),
    Scenario("pinned", pinned, "mean latency s"),
    Scenario("outage", outage, "settled at s"),
    Scenario("10x overload", overload_10x, "SLO goodput /s", lower_is_better=False),
    Scenario("burst", burst, "refused"),
)


# -- the comparison -------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    median: float
    better: int
    worse: int
    moved: bool   # median moved by more than the full system's IQR


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(scenario: Scenario, full: Sequence[float], arm: Sequence[float]) -> Cell:
    q1, median, q3 = quartiles(full)
    sign = 1 if scenario.lower_is_better else -1
    better = sum(1 for f, a in zip(full, arm) if sign * (a - f) < 0)
    worse = sum(1 for f, a in zip(full, arm) if sign * (a - f) > 0)
    arm_median = statistics.median(arm)
    return Cell(arm_median, better, worse, abs(arm_median - median) > q3 - q1)


def measure(scenario: Scenario, arm: Arm, seeds: Sequence[int] = SEEDS) -> List[float]:
    return [scenario.run(arm, seed) for seed in seeds]


def table(arms: Sequence[Arm] = ARMS, scenarios: Sequence[Scenario] = SCENARIOS,
          seeds: Sequence[int] = SEEDS, out=sys.stdout) -> None:
    """Print the leave-one-out table as markdown."""
    full = {s.name: measure(s, FULL, seeds) for s in scenarios}
    head = ["arm"] + [f"{s.name} ({s.metric})" for s in scenarios]
    print("| " + " | ".join(head) + " |", file=out)
    print("|" + "---|" * len(head), file=out)
    cells = []
    for s in scenarios:
        q1, median, q3 = quartiles(full[s.name])
        cells.append(f"{median:.4g} (IQR {q3 - q1:.3g})")
    print("| full system, median (IQR) | " + " | ".join(cells) + " |", file=out)
    for arm in arms:
        cells = []
        for s in scenarios:
            cell = compare(s, full[s.name], measure(s, arm, seeds))
            mark = "**" if cell.moved else ""
            cells.append(f"{mark}{cell.median:.4g}{mark} {cell.better}/{cell.worse}")
        print(f"| {arm.name} | " + " | ".join(cells) + " |", file=out)
        out.flush()


# -- the guard ------------------------------------------------------------------------

ARM = {arm.name: arm for arm in ARMS}
SCENARIO = {s.name: s for s in SCENARIOS}

# (mechanism, the scenario that motivates it): set neutral, each must still
# move its scenario beyond the full system's spread, for the worse
KEPT = (
    ("hedging", "lossy"),
    ("circuit breaker", "pinned"),
    ("health scoring", "partition"),
    ("recovery stagger", "herd"),
    ("redispatch cap", "outage"),
    ("admission queue", "10x overload"),
)


def test_kept_mechanisms_still_earn_their_lines():
    rows = []
    for mechanism, name in KEPT:
        scenario = SCENARIO[name]
        full = measure(scenario, FULL, SEEDS[:8])
        cell = compare(scenario, full, measure(scenario, ARM[mechanism], SEEDS[:8]))
        q1, median, q3 = quartiles(full)
        rows.append((mechanism, name, f"{median:.4g}", f"{q3 - q1:.3g}",
                     f"{cell.median:.4g}", f"{cell.better}/{cell.worse}"))
        assert cell.moved and cell.worse > cell.better, (mechanism, name, full, cell)
    report(
        "Dispatch ablation: each kept mechanism set neutral (8 seeds)",
        ["mechanism", "scenario", "full median", "IQR", "neutral median", "better/worse"],
        rows,
    )


if __name__ == "__main__":
    table()
