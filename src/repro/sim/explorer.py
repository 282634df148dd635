"""Chaos explorer: systematic search of the fault-schedule space.

Two passes, in the FoundationDB tradition:

1. **Exhaustive one-crash sweep** — one run per registered crash point (plus
   a torn-write variant for every point that supports it), each killing the
   owning node exactly at that protocol step, in the first run that visits
   it (:meth:`ChaosSweep.plan_for_point`: the planner learns where a point
   fires from runs, not from the catalogue).  A point no such run visits
   is not run (:data:`UNCOVERED` ledgers the generated ones with their
   reasons; any other that does not fire fails).  The WAL's pre-force point
   is armed a second time at its *last* visit in the fault-free run: the
   last force of a closed loop is the barrier that ends its last instance,
   the only kind that writes a ``meta`` seal.
2. **Random nemesis sweep** — seeded random schedules composing one to
   three faults (crash-at-point, timed crashes, partitions, bursts of
   loss, duplication or reordering).  Each seed is an independent, fully
   reproducible universe.

Any run whose oracles report a violation is **shrunk** — faults are
greedily dropped while the violation persists — and the minimal schedule is
written as a JSON repro file containing the harness (``SimHarness.to_plain``:
its schedule and system spec nested) and the report fingerprint.
``replay()`` re-runs a repro file and demands the new report match the
recorded fingerprint byte-for-byte (same canonical JSON),
which the determinism of the substrate guarantees for an unchanged tree.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from ..services.system import SystemSpec
from ..settings import require, setting
from ..workloads import APPLICATIONS
from .crashpoints import EVENTS, SIDES, CrashPoint, catalogue, point_named
from .harness import SimHarness, SimReport
from .nemesis import Burst, CrashAtPoint, CrashAtTime, NemesisSchedule, Partition

#: Points only visited when the harness drives compaction: every run the
#: planner reads ends before the compactor's first tick.
_NEEDS_COMPACTOR = ("wal.checkpoint.",)
#: Points only visited with a replicated execution service.  The random
#: pass leaves them out and the failover pass requires each: both are read
#: from this list, not from runs, so a random schedule does not depend on a
#: run that a seeded mutant can break.
_NEEDS_REPLICAS = ("repl.", "store.ingest.")
#: Points armed once more at their last visit in the fault-free run.
_AT_LAST_HIT = ("wal.force.pre",)

_DEADLINE = "no paper workload declares a deadline, which alone journals an expiry or arms a timer"
_QUEUE = "the sweep's load never fills the admission window: nothing is queued, shed or promoted"
#: The generated boundaries no paper workload's run reaches, each with its
#: reason (EXPERIMENTS.md E16's coverage table): the exhaustive pass lists
#: them as uncovered, and any other point that does not fire as unreached.
UNCOVERED: Dict[str, str] = {
    **{f"exec.{event}.{effect}.{side}": reason for event, effects, reason in (
        ("deadline", EVENTS["deadline"], _DEADLINE), ("shed", EVENTS["shed"], _QUEUE),
        ("promote", EVENTS["promote"], _QUEUE),
        ("admin", EVENTS["admin"], "no paper workload reconfigures, force-aborts or imports"),
        ("complete", EVENTS["complete"], "no paper workload has an external task"),
        ("mark", ("dispatch",), "trip's one task mark feeds a compound mark no task waits on"),
        ("overdue", ("dispatch",), "a flight is overdue only when its reply is lost"),
        ("resume", ("dispatch",), "a rebuilt flight is resent after its stagger timer"),
    ) for effect in effects for side in SIDES[effect]},
    **{f"exec.{event}.arm.pre": _DEADLINE for event in ("reply", "mark", "overdue", "instantiate")},
    "exec.overdue.journal.pre": "a flight is abandoned only past the redispatch cap",
    "exec.instantiate.journal.pre": f"{_DEADLINE}; and {_QUEUE}", "exec.resume.journal.pre": _DEADLINE,
}


@dataclass
class SweepFailure:
    """One violating schedule, after shrinking."""

    name: str
    harness: Dict[str, Any]           # the shrunk SimHarness, plain form
    violations: List[Dict[str, str]]
    fingerprint: str                  # of the shrunk run's report
    report: Dict[str, Any]
    repro_path: Optional[str] = None

    def to_plain(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "harness": self.harness,
            "violations": self.violations,
            "fingerprint": self.fingerprint,
            "report": self.report,
        }


@dataclass
class SweepResult:
    reports: List[SimReport] = field(default_factory=list)
    failures: List[SweepFailure] = field(default_factory=list)
    unreached: List[str] = field(default_factory=list)  # points that never fired
    uncovered: List[str] = field(default_factory=list)  # generated ones: gaps (E16)

    def summary(self) -> str:
        lines = [
            f"{len(self.reports)} runs, {len(self.failures)} violating "
            f"schedule(s), {len(self.unreached)} unreached point(s)"
            + (f", {len(self.uncovered)} generated boundaries uncovered" if self.uncovered else "")
        ]
        for failure in self.failures:
            lines.append(f"  FAIL {failure.name}: "
                         + "; ".join(v["detail"] for v in failure.violations[:3]))
            if failure.repro_path:
                lines.append(f"       repro: {failure.repro_path}")
        for name in self.unreached:
            lines.append(f"  unreached crash point: {name}")
        return "\n".join(lines)


@dataclass
class ChaosSweep:
    """Run the exhaustive and random sweeps; shrink and record violations."""

    workload: str = setting(
        "order", "paper application to run under chaos", choices=tuple(APPLICATIONS)
    )
    workers: int = setting(2, "worker-node pool size", "count")
    instances: int = setting(1, "concurrent workflow instances per run", "count")
    base_seed: int = setting(0, "base seed of every pass")
    max_time: float = setting(
        5_000.0, "virtual-time budget per run before an instance counts as stuck", "s"
    )
    out_dir: Optional[str] = setting(
        None, "directory for shrunk repro JSON files (written only on violation)", "dir"
    )
    verbose: bool = setting(False, "print every run's summary")

    def __post_init__(self) -> None:
        require(self, "workers", self.workers >= 1, "must be at least 1")
        require(self, "instances", self.instances >= 1, "must be at least 1")
        self._visited: Dict[Tuple[str, int, Optional[str]], Optional[Dict[str, int]]] = {}

    # -- exhaustive pass -------------------------------------------------------

    def plan_for_point(self, point: CrashPoint, mode: str = "clean") -> Optional[SimHarness]:
        """The harness that makes ``point`` fire: the first run, in this
        order, that visits it, armed there too — fault-free on the sweep's
        workload, then on each other paper workload (``order`` emits no
        marks, ``trip`` does); then on the sweep's workload after a driver
        crash at the first ``forced`` boundary its fault-free run visits (a
        rebuild runs only after one); then the same on a replicated service
        (killing the primary forces the failover that makes a post-bootstrap
        grant or promotion happen).  None when no such run visits it."""
        if point.name.startswith(_NEEDS_COMPACTOR):
            # every run above ends before the compactor's first tick
            return self._config(self.workload, 0, None, point.name, mode, compact_every=40.0)
        for replicas in (0, 2):
            visits = self._visits(self.workload, replicas) or ()
            driver = next((p.name for p in catalogue()
                           if p.name.endswith(".forced") and p.name in visits), None)
            runs = [(name, None) for name in (self.workload, *APPLICATIONS)]
            for workload, drive in runs + [(self.workload, driver)]:
                if point.name in (self._visits(workload, replicas, drive) or ()):
                    return self._config(workload, replicas, drive, point.name, mode)
        return None

    def _config(self, workload: str, replicas: int, driver: Optional[str],
                point: Optional[str] = None, mode: str = "clean", **changes: Any) -> SimHarness:
        """A run of ``workload``, crashed at ``driver`` first if one is given
        and then at ``point`` if one is given."""
        faults = [CrashAtPoint(driver)] if driver else []
        if point:
            faults.append(CrashAtPoint(point, mode=mode))
        name = f"point:{point}{'-torn' if mode == 'torn' else ''}" if point else "fault-free"
        return self._harness(NemesisSchedule(faults, name=name), self.base_seed,
                             replicas=replicas, workload=workload, **changes)

    def _visits(self, workload: str, replicas: int,
                driver: Optional[str] = None) -> Optional[Dict[str, int]]:
        """The points :meth:`_config`'s run visits, run once per sweep; None
        if it raises (it visits nothing a plan could use)."""
        key = (workload, replicas, driver)
        if key not in self._visited:
            try:
                self._visited[key] = self._run(self._config(*key)).points_visited
            except Exception:  # a broken tree: plans() runs it again, to show how
                self._visited[key] = None
        return self._visited[key]

    def plans(self) -> List[Tuple[str, str, str, Optional[SimHarness]]]:
        """The exhaustive pass, ``(label, point name, mode, harness)``: one per
        crash point and mode (:meth:`plan_for_point`; no harness when no run
        visits the point), then each of ``_AT_LAST_HIT`` armed again at its
        last visit in the fault-free run (``@last``).  When the sweep's own
        fault-free run raises, the pass is that run alone."""
        visits = self._visits(self.workload, 0)
        if visits is None:
            return [("fault-free", "", "clean", self._config(self.workload, 0, None))]
        plans = [(point.name, point.name, mode, self.plan_for_point(point, mode))
                 for point in catalogue() for mode in ["clean"] + (["torn"] if point.torn else [])]
        return plans + [(f"{name}@last", name, mode, self._harness(NemesisSchedule(
            [CrashAtPoint(name, at_hit=visits[name], mode=mode)],
            name=f"point:{name}{'-torn' if mode == 'torn' else ''}@last"), self.base_seed))
            for name in _AT_LAST_HIT for mode in ["clean"] + (["torn"] if point_named(name).torn else [])]

    def exhaustive(self) -> SweepResult:
        """Run :meth:`plans`.  A ledgered point (:data:`UNCOVERED`) that does
        not fire is uncovered, any other unreached."""
        result = SweepResult()
        for label, name, mode, harness in self.plans():
            report = self._run(harness) if harness else None
            if report is not None:
                result.reports.append(report)
                self._log(report)
                if report.violations:
                    result.failures.append(self._shrink_and_record(harness, report))
            if report is None or not any(fired[0] == name for fired in report.fired):
                (result.uncovered if name in UNCOVERED else result.unreached).append(
                    f"{label} ({mode})")
        return result

    # -- random pass -------------------------------------------------------------

    def random_schedule(self, seed: int) -> NemesisSchedule:
        """A reproducible random composition of one to three faults."""
        rng = random.Random(seed)
        points = [p.name for p in catalogue()
                  if p.name not in UNCOVERED and not p.name.startswith(_NEEDS_REPLICAS)]
        workers = [f"worker-node-{i + 1}" for i in range(self.workers)]
        faults: List[Any] = []
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.45:
                name = rng.choice(points)
                torn = rng.random() < 0.3 and point_named(name).torn
                faults.append(CrashAtPoint(
                    name, at_hit=rng.randint(1, 3), mode="torn" if torn else "clean",
                    downtime=rng.choice([15.0, 30.0, 60.0]),
                ))
            elif roll < 0.60:
                faults.append(
                    CrashAtTime(
                        at=round(rng.uniform(5.0, 200.0), 1),
                        node=rng.choice(["execution-node"] + workers),
                        downtime=rng.choice([15.0, 30.0, 60.0]),
                    )
                )
            elif roll < 0.75:
                cut = tuple(sorted(rng.sample(
                    workers, rng.randint(1, len(workers)))))
                faults.append(
                    Partition(
                        at=round(rng.uniform(5.0, 150.0), 1),
                        group_a=("execution-node",),
                        group_b=cut,
                        heal_after=round(rng.uniform(20.0, 80.0), 1),
                    )
                )
            else:
                knob, low, high, digits = (
                    ("loss_rate", 0.1, 0.5, 2) if roll < 0.85
                    else ("dup_rate", 0.2, 0.8, 2) if roll < 0.93
                    else ("reorder_window", 2.0, 12.0, 1)
                )
                faults.append(Burst(
                    round(rng.uniform(0.0, 100.0), 1), round(rng.uniform(10.0, 60.0), 1),
                    knob, round(rng.uniform(low, high), digits),
                ))
        return NemesisSchedule(faults, name=f"random-{seed}")

    def random_sweep(self, seeds: int) -> SweepResult:
        result = SweepResult()
        for index in range(seeds):
            seed = self.base_seed + index
            harness = self._harness(
                self.random_schedule(seed), seed, compact_every=60.0
            )
            report = self._run(harness)
            result.reports.append(report)
            self._log(report)
            if report.violations:
                result.failures.append(self._shrink_and_record(harness, report))
        return result

    # -- failover pass ---------------------------------------------------------

    #: Every paper workload must survive a failover (ISSUE 9 acceptance).
    FAILOVER_WORKLOADS = tuple(APPLICATIONS)

    def failover_schedules(self, replicas: int = 2) -> List[NemesisSchedule]:
        """The canonical failover scenarios, each striking the bootstrap
        primary (``execution-node``) at t = 10 of a system with ``replicas``
        replicas: kill it and bring it back long after its successor took
        over (the stale-primary return the fencing epoch must neutralise),
        kill it with ordinary downtime, and cut it off from every other
        node, the lease arbiter included, until its lease lapses."""
        primary = "execution-node"
        # every other node WorkflowSystem builds for such a system
        others = ("client-node", "lease-node", "repository-node",
                  *(f"standby-node-{i + 1}" for i in range(1, replicas)),
                  *(f"worker-node-{i + 1}" for i in range(self.workers)))
        return [
            NemesisSchedule([CrashAtTime(10.0, primary, downtime=190.0)],
                            name="failover:kill-resurrect"),
            NemesisSchedule([CrashAtTime(10.0, primary)],
                            name="failover:kill-primary"),
            NemesisSchedule([Partition(10.0, (primary,), others, heal_after=150.0)],
                            name="failover:partition-heal"),
        ]

    def failover_sweep(self, replicas: int = 2) -> SweepResult:
        """Run every failover scenario against every paper workload on a
        replicated execution service; additionally demand that each
        replication crash point was *visited* at least once across the pass
        (a scenario that no longer exercises promotion is itself a bug)."""
        result = SweepResult()
        visited: set = set()
        for workload in self.FAILOVER_WORKLOADS:
            for schedule in self.failover_schedules(replicas):
                harness = self._harness(
                    schedule, self.base_seed, replicas=replicas, workload=workload
                )
                report = self._run(harness)
                result.reports.append(report)
                self._log(report)
                visited |= set(report.points_visited)
                if report.violations:
                    result.failures.append(self._shrink_and_record(harness, report))
        for point in catalogue():
            if point.name.startswith(_NEEDS_REPLICAS) and point.name not in visited:
                result.unreached.append(f"{point.name} (failover sweep)")
        return result

    # -- shrinking + repro files ---------------------------------------------------

    def shrink(self, harness: SimHarness) -> Tuple[SimHarness, SimReport]:
        """Greedily drop faults while the run still violates an oracle."""
        current = harness
        report = self._run(current)
        changed = True
        while changed and len(current.schedule.faults) > 1:
            changed = False
            for index in range(len(current.schedule.faults)):
                candidate = replace(current, schedule=current.schedule.without(index))
                candidate_report = self._run(candidate)
                if candidate_report.violations:
                    current, report = candidate, candidate_report
                    changed = True
                    break
        return current, report

    def _shrink_and_record(self, harness: SimHarness, report: SimReport) -> SweepFailure:
        shrunk, shrunk_report = self.shrink(harness)
        failure = SweepFailure(
            name=harness.schedule.name,
            harness=shrunk.to_plain(),
            violations=list(shrunk_report.violations),
            fingerprint=shrunk_report.fingerprint(),
            report=shrunk_report.to_plain(),
        )
        if self.out_dir:
            os.makedirs(self.out_dir, exist_ok=True)
            slug = failure.name.replace(":", "-").replace(".", "-")
            path = os.path.join(self.out_dir, f"repro-{slug}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(failure.to_plain(), fh, indent=2, sort_keys=True)
                fh.write("\n")
            failure.repro_path = path
        return failure

    # -- plumbing ----------------------------------------------------------------

    def _harness(
        self, schedule: NemesisSchedule, seed: int, replicas: int = 0, **changes: Any
    ) -> SimHarness:
        system = SystemSpec(workers=self.workers, seed=seed, replicas=replicas)
        if replicas:
            # a short lease keeps a forced failover inside the time budget
            system = replace(system, lease_duration=30.0)
        changes.setdefault("workload", self.workload)
        return SimHarness(
            schedule, instances=self.instances, max_time=self.max_time,
            system=system, **changes,
        )

    def _run(self, harness: SimHarness) -> SimReport:
        return harness.run()

    def _log(self, report: SimReport) -> None:
        if self.verbose:
            print(report.summary())


def replay(path: str) -> Tuple[bool, str, str, SimReport]:
    """Re-run a repro file; return (reproduced, recorded_fp, new_fp, report).

    ``reproduced`` means the fresh run's canonical report is byte-for-byte
    identical to the recorded one (equal SHA-256 fingerprints).
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    report = SimHarness.from_plain(data["harness"]).run()
    recorded = data["fingerprint"]
    fresh = report.fingerprint()
    return fresh == recorded, recorded, fresh, report
