"""Deterministic sustained-traffic generator (docs/PROTOCOLS.md §13).

Drives a :class:`~repro.services.system.WorkflowSystem` with a precomputed
arrival schedule — Poisson or bursty inter-arrivals, user cohorts carrying
different criticality classes, hot-key input skew — and reports the SLO
view: goodput, sojourn percentiles, shed/refusal counts by class.

Everything is derived from ``TrafficSpec.seed`` **before** the simulation
runs: the whole arrival schedule (times, cohorts, keys) is materialised up
front with one ``random.Random(seed)``, so the same spec always produces
the same schedule regardless of how the simulation interleaves, and the
report's canonical fingerprint is byte-stable.  Clients submit through
:func:`~repro.orb.call_with_backoff`: an ``Overloaded`` refusal is retried
cooperatively (never before the service's retry-after hint, jittered so
refused clients do not return as one wave), and a client out of patience
counts as *refused* — turned away at the edge, the correct outcome under
sustained overload.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.builder import ScriptBuilder, from_input, from_output
from ..core.schema import Script
from ..engine import ImplementationRegistry
from ..lang import format_script
from ..orb import CommFailure, Overloaded, call_with_backoff
from ..resilience import RetryPolicy
from ..services.system import TERMINAL
from .generators import _noop_registry

# Cohort index -> criticality class, cycling.  Cohort 0 is the premium tier:
# its work is the last to be shed.
COHORT_CRITICALITY = ("high", "normal", "low")


@dataclass(frozen=True)
class TrafficSpec:
    """One reproducible traffic scenario."""

    arrival: str = "poisson"     # "poisson" | "burst"
    rate: float = 0.5            # mean arrivals per virtual second (off-burst)
    duration: float = 300.0      # arrival-generation horizon
    cohorts: int = 3             # user cohorts, cycling high/normal/low
    skew: float = 0.5            # probability an arrival touches the hot key
    seed: int = 0
    script_length: int = 3       # pipeline stages per instance
    burst_factor: float = 8.0    # burst mode: peak rate multiplier
    burst_period: float = 60.0   # burst mode: cycle length
    burst_duty: float = 0.25     # burst mode: fraction of the cycle at peak
    drain: float = 600.0         # extra time to let admitted work finish
    max_attempts: int = 4        # client patience with Overloaded refusals
    slo: float = 0.0             # goodput latency bound; 0 = raw completions

    def __post_init__(self) -> None:
        if self.arrival not in ("poisson", "burst"):
            raise ValueError("arrival must be 'poisson' or 'burst'")
        if self.rate <= 0 or self.duration <= 0:
            raise ValueError("rate and duration must be positive")
        if self.cohorts < 1:
            raise ValueError("cohorts must be >= 1")
        if not 0.0 <= self.skew <= 1.0:
            raise ValueError("skew must be in [0, 1]")
        if not 0.0 < self.burst_duty < 1.0:
            raise ValueError("burst_duty must be in (0, 1)")


@dataclass(frozen=True)
class Arrival:
    """One scheduled submission."""

    number: int
    at: float
    cohort: int
    criticality: str
    key: str          # input payload; "hot" under skew


def cohort_script(cohort: int, length: int) -> Tuple[Script, str]:
    """The pipeline script one cohort submits, with its criticality class
    declared as a root-task implementation property — the script *is* the
    priority declaration, exactly like ``location`` pins placement (§4.3)."""
    criticality = COHORT_CRITICALITY[cohort % len(COHORT_CRITICALITY)]
    b = ScriptBuilder()
    b.object_class("Data")
    b.taskclass("Stage").input_set("main", inp="Data").outcome("done", out="Data")
    b.taskclass("Root").input_set("main", inp="Data").outcome("done", out="Data")
    root_name = f"job{cohort}"
    root = b.compound(root_name, "Root").implementation(criticality=criticality)
    source = from_input(root_name, "main", "inp")
    for index in range(length):
        name = f"t{index + 1}"
        root.task(name, "Stage").implementation(code="stage").input(
            "main", "inp", source
        ).up()
        source = from_output(name, "done", "out")
    root.output("done").object("out", source).up()
    root.up()
    return b.build(), root_name


def traffic_registry() -> ImplementationRegistry:
    """Registry the workers need for cohort scripts."""
    return _noop_registry(["stage"])


def arrival_schedule(spec: TrafficSpec) -> List[Arrival]:
    """The full arrival schedule, materialised deterministically up front."""
    import random

    rng = random.Random(spec.seed)
    arrivals: List[Arrival] = []
    t = 0.0
    number = 0
    while True:
        if spec.arrival == "poisson":
            current_rate = spec.rate
        else:
            phase = (t % spec.burst_period) / spec.burst_period
            current_rate = (
                spec.rate * spec.burst_factor if phase < spec.burst_duty else spec.rate
            )
        t += rng.expovariate(current_rate)
        if t >= spec.duration:
            break
        number += 1
        cohort = 0 if rng.random() < spec.skew else rng.randrange(spec.cohorts)
        key = "hot" if rng.random() < spec.skew else f"k{rng.randrange(100)}"
        arrivals.append(
            Arrival(
                number=number,
                at=t,
                cohort=cohort,
                criticality=COHORT_CRITICALITY[cohort % len(COHORT_CRITICALITY)],
                key=key,
            )
        )
    return arrivals


@dataclass
class SLOReport:
    """What the traffic run measured, with a canonical fingerprint."""

    spec: Dict[str, Any]
    offered: int = 0
    admitted: int = 0
    completed: int = 0
    shed: int = 0          # journaled decisive ``overloaded`` outcomes
    refused: int = 0       # clients out of patience with Overloaded refusals
    failed: int = 0        # other terminal failures/aborts
    unfinished: int = 0    # still non-terminal when the run ended
    lost: int = 0          # submissions that hit a non-overload CommFailure
    goodput: float = 0.0   # completions per virtual second of the horizon
    # completions whose end-to-end sojourn met ``spec.slo`` — the honest
    # measure under overload, where a completion hours late is not "good"
    slo_completed: int = 0
    slo_goodput: float = 0.0
    p50_sojourn: float = 0.0
    p99_sojourn: float = 0.0
    max_sojourn: float = 0.0
    by_class: Dict[str, Dict[str, int]] = field(default_factory=dict)
    overload: Dict[str, Any] = field(default_factory=dict)

    def to_plain(self) -> Dict[str, Any]:
        return {
            "spec": self.spec,
            "offered": self.offered,
            "admitted": self.admitted,
            "completed": self.completed,
            "shed": self.shed,
            "refused": self.refused,
            "failed": self.failed,
            "unfinished": self.unfinished,
            "lost": self.lost,
            "goodput": round(self.goodput, 6),
            "slo_completed": self.slo_completed,
            "slo_goodput": round(self.slo_goodput, 6),
            "p50_sojourn": round(self.p50_sojourn, 3),
            "p99_sojourn": round(self.p99_sojourn, 3),
            "max_sojourn": round(self.max_sojourn, 3),
            "by_class": self.by_class,
            "overload": self.overload,
        }

    def fingerprint(self) -> str:
        """SHA-256 over the canonical JSON form: same seed, same bytes."""
        canonical = json.dumps(self.to_plain(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def render(self) -> str:
        lines = [
            "-- traffic SLO report --",
            f"offered {self.offered}  admitted {self.admitted}  "
            f"completed {self.completed}  shed {self.shed}  "
            f"refused {self.refused}  failed {self.failed}  "
            f"unfinished {self.unfinished}  lost {self.lost}",
            f"goodput {self.goodput:.3f}/s (slo {self.slo_goodput:.3f}/s)   "
            f"sojourn p50 {self.p50_sojourn:.1f} "
            f"p99 {self.p99_sojourn:.1f} max {self.max_sojourn:.1f}",
        ]
        for criticality in sorted(self.by_class):
            row = self.by_class[criticality]
            lines.append(
                f"  {criticality:<7} offered {row['offered']:>4}  "
                f"completed {row['completed']:>4}  shed {row['shed']:>4}"
            )
        if self.overload:
            lines.append(
                f"admission: window {self.overload.get('window')}  "
                f"pressure {self.overload.get('pressure')}  "
                f"rejected {self.overload.get('rejected')}  "
                f"promoted {self.overload.get('promoted')}"
            )
        lines.append(f"fingerprint {self.fingerprint()[:16]}")
        return "\n".join(lines)


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[index]


def run_traffic(
    system: Any,
    spec: TrafficSpec,
    poll_every: float = 5.0,
    policy: Optional[RetryPolicy] = None,
) -> SLOReport:
    """Run one traffic scenario against a built WorkflowSystem.

    Deploys one script per cohort, schedules every arrival on the event
    clock, drives the clock until the horizon passes and admitted work
    drains, then assembles the SLO report.  Submissions go through the ORB
    like any client's would; cohort scripts resolve the ``stage`` code, so
    build the system with :func:`traffic_registry`.
    """
    clock = system.clock
    policy = policy or RetryPolicy(seed=spec.seed)
    arrivals = arrival_schedule(spec)

    script_names: List[str] = []
    roots: List[str] = []
    for cohort in range(spec.cohorts):
        script, root_name = cohort_script(cohort, spec.script_length)
        name = f"traffic-c{cohort}"
        system.deploy(name, format_script(script))
        script_names.append(name)
        roots.append(root_name)

    proxy = system.execution_proxy()
    base = clock.now
    # submission tracking: iid -> (arrival, submitted_at)
    live: Dict[str, Tuple[Arrival, float]] = {}
    done: Dict[str, Tuple[Arrival, float, float, str]] = {}  # + finished_at, fate
    counters = {"refused": 0, "lost": 0}
    by_class: Dict[str, Dict[str, int]] = {
        criticality: {"offered": 0, "completed": 0, "shed": 0}
        for criticality in COHORT_CRITICALITY[: min(spec.cohorts, 3)]
    }

    def submit(arrival: Arrival) -> None:
        def invoke() -> Optional[str]:
            try:
                return proxy.instantiate(
                    script_names[arrival.cohort],
                    roots[arrival.cohort],
                    "main",
                    {"inp": arrival.key},
                )
            except Overloaded:
                raise  # cooperative backoff handles this one
            except CommFailure:
                return None  # an outage ate the submission: counted as lost

        def on_result(iid: Optional[str]) -> None:
            if iid is None:
                counters["lost"] += 1
            else:
                live[iid] = (arrival, clock.now)

        def on_give_up(_exc: Exception) -> None:
            counters["refused"] += 1

        call_with_backoff(
            clock,
            policy,
            key=f"arrival-{arrival.number}",
            call=invoke,
            on_result=on_result,
            on_give_up=on_give_up,
            max_attempts=spec.max_attempts,
        )

    for arrival in arrivals:
        by_class.setdefault(
            arrival.criticality, {"offered": 0, "completed": 0, "shed": 0}
        )
        by_class[arrival.criticality]["offered"] += 1
        clock.call_after(
            max(base + arrival.at - clock.now, 0.0),
            lambda a=arrival: submit(a),
            label=f"traffic:{arrival.number}",
        )

    horizon = base + spec.duration + spec.drain
    while clock.now < horizon:
        clock.advance(poll_every)
        # one primary lookup per poll, and no ``system.fate``: the benchmark's
        # stopwatch client stands in for the system here and that lookup is
        # its only hook (benchmarks/bench/workloads.py, frozen)
        service = system.primary_execution()
        if service is None:
            continue
        for iid in list(live):
            runtime = service.runtimes.get(iid)
            if runtime is None:
                continue
            status = runtime.tree.status.value
            if status not in TERMINAL:
                continue
            arrival, submitted_at = live.pop(iid)
            error = runtime.tree.error or ""
            if status == "completed":
                fate = "completed"
            elif error.startswith("overloaded"):
                fate = "shed"
            else:
                fate = "failed"
            done[iid] = (arrival, submitted_at, clock.now, fate)
        if clock.now >= base + spec.duration and not live:
            break  # horizon passed and everything admitted has settled

    sojourns: List[float] = []
    report = SLOReport(spec=dict(spec.__dict__))
    report.offered = len(arrivals)
    report.refused = counters["refused"]
    report.lost = counters["lost"]
    report.unfinished = len(live)
    report.admitted = len(live) + len(done)
    for arrival, submitted_at, finished_at, fate in done.values():
        if fate == "completed":
            report.completed += 1
            by_class[arrival.criticality]["completed"] += 1
            sojourn = finished_at - (base + arrival.at)
            sojourns.append(sojourn)
            if spec.slo <= 0 or sojourn <= spec.slo:
                report.slo_completed += 1
        elif fate == "shed":
            report.shed += 1
            by_class[arrival.criticality]["shed"] += 1
        else:
            report.failed += 1
    report.goodput = report.completed / spec.duration
    report.slo_goodput = report.slo_completed / spec.duration
    report.p50_sojourn = _percentile(sojourns, 0.50)
    report.p99_sojourn = _percentile(sojourns, 0.99)
    report.max_sojourn = max(sojourns) if sojourns else 0.0
    report.by_class = by_class
    service = system.primary_execution()
    if service is not None:
        report.overload = service.admission.report()
    return report
