"""Chaos explorer: systematic search of the fault-schedule space.

Two passes, in the FoundationDB tradition:

1. **Exhaustive one-crash sweep** — one run per registered crash point (plus
   a torn-write variant for every point that supports it), each killing the
   owning node exactly at that protocol step.  Recovery-only points are
   paired with a preceding driver crash (``on_recover`` only runs after
   one); points only reachable through compaction get the harness's
   compactor enabled.  The WAL's pre-force point is armed a second time
   at its *last* visit in the fault-free run: the last force of a closed
   loop is the barrier that ends its last instance, the only kind that
   writes a ``meta`` seal.
2. **Random nemesis sweep** — seeded random schedules composing one to
   three faults (crash-at-point, timed crashes, partitions, loss/dup/
   reorder bursts).  Each seed is an independent, fully reproducible
   universe.

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
from .crashpoints import CrashPoint, catalogue
from .harness import SimHarness, SimReport
from .nemesis import (
    CrashAtPoint,
    CrashAtTime,
    DupBurst,
    KillPrimary,
    LossBurst,
    NemesisSchedule,
    Partition,
    PartitionPrimary,
    ReorderBurst,
    ResurrectStalePrimary,
)

#: Points only visited when the harness drives compaction.
_NEEDS_COMPACTOR = ("wal.checkpoint.",)
#: Points only visited with a replicated execution service.  The lease
#: grant and the promotion points additionally need a failover (the
#: bootstrap grant/promotion happen before the injector is installed), which
#: the recovery driver crash below conveniently provides: killing the
#: primary at a journal append forces a standby through acquire + promote.
_NEEDS_REPLICAS = ("repl.", "store.ingest.")
#: The driver crash paired with recovery-only points.
_RECOVERY_DRIVER = "exec.journal.post"
#: Points armed once more at their last visit in the fault-free run.
_AT_LAST_HIT = ("wal.force.pre",)


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

    def summary(self) -> str:
        lines = [
            f"{len(self.reports)} runs, {len(self.failures)} violating "
            f"schedule(s), {len(self.unreached)} unreached point(s)"
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
    downtime: float = setting(30.0, "how long a crashed node stays down", "s")
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

    # -- exhaustive pass -------------------------------------------------------

    def plan_for_point(self, point: CrashPoint, mode: str = "clean") -> SimHarness:
        """The harness (schedule and system) that makes ``point`` fire."""
        faults: List[Any] = []
        replicated = point.name.startswith(_NEEDS_REPLICAS)
        if point.recovery or point.name == "repl.lease.grant":
            # on_recover only runs after a crash: drive one first.  For the
            # replication points the same driver kills the primary, forcing
            # the failover that makes a post-bootstrap grant/promotion happen.
            faults.append(
                CrashAtPoint(_RECOVERY_DRIVER, downtime=self.downtime)
            )
        faults.append(CrashAtPoint(point.name, mode=mode, downtime=self.downtime))
        suffix = "-torn" if mode == "torn" else ""
        schedule = NemesisSchedule(faults, name=f"point:{point.name}{suffix}")
        changes: Dict[str, Any] = {}
        if point.name.startswith(_NEEDS_COMPACTOR):
            changes["compact_every"] = 40.0
        if point.name == "exec.mark.recv" and self.workload == "order":
            # the order workload emits no marks; the trip workload does
            changes["workload"] = "trip"
        return self._harness(
            schedule, self.base_seed, replicas=2 if replicated else 0, **changes
        )

    def plans_at_last_hit(self) -> List[Tuple[CrashPoint, str, SimHarness]]:
        """``(point, mode, harness)`` for each point of ``_AT_LAST_HIT`` and
        mode: the harness of :meth:`plan_for_point` armed at the point's
        last visit in that harness's fault-free run, which this runs once."""
        fault_free = self._harness(NemesisSchedule(name="fault-free"), self.base_seed)
        visits = self._run(fault_free).points_visited
        plans = []
        for point in catalogue():
            if point.name not in _AT_LAST_HIT:
                continue
            for mode in ["clean"] + (["torn"] if point.torn else []):
                suffix = "-torn" if mode == "torn" else ""
                schedule = NemesisSchedule(
                    [CrashAtPoint(point.name, at_hit=max(1, visits.get(point.name, 0)),
                                  mode=mode, downtime=self.downtime)],
                    name=f"point:{point.name}{suffix}@last",
                )
                plans.append((point, mode, self._harness(schedule, self.base_seed)))
        return plans

    def exhaustive(self) -> SweepResult:
        """One run per crash point (torn variants included), then one per
        :meth:`plans_at_last_hit`."""
        result = SweepResult()

        def sweep(label: str, point: CrashPoint, mode: str, harness: SimHarness) -> None:
            report = self._run(harness)
            result.reports.append(report)
            self._log(report)
            if not any(fired[0] == point.name for fired in report.fired):
                result.unreached.append(f"{label} ({mode})")
            if report.violations:
                result.failures.append(self._shrink_and_record(harness, report))

        for point in catalogue():
            for mode in ["clean"] + (["torn"] if point.torn else []):
                sweep(point.name, point, mode, self.plan_for_point(point, mode))
        for point, mode, harness in self.plans_at_last_hit():
            sweep(f"{point.name}@last", point, mode, harness)
        return result

    # -- random pass -------------------------------------------------------------

    def random_schedule(self, seed: int) -> NemesisSchedule:
        """A reproducible random composition of one to three faults."""
        rng = random.Random(seed)
        points = [p.name for p in catalogue()]
        workers = [f"worker-node-{i + 1}" for i in range(self.workers)]
        faults: List[Any] = []
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.45:
                name = rng.choice(points)
                mode = "torn" if (rng.random() < 0.3 and
                                  any(p.torn and p.name == name
                                      for p in catalogue())) else "clean"
                faults.append(
                    CrashAtPoint(
                        name,
                        at_hit=rng.randint(1, 3),
                        mode=mode,
                        downtime=rng.choice([15.0, 30.0, 60.0]),
                    )
                )
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
            elif roll < 0.85:
                faults.append(
                    LossBurst(
                        at=round(rng.uniform(0.0, 100.0), 1),
                        duration=round(rng.uniform(10.0, 60.0), 1),
                        rate=round(rng.uniform(0.1, 0.5), 2),
                    )
                )
            elif roll < 0.93:
                faults.append(
                    DupBurst(
                        at=round(rng.uniform(0.0, 100.0), 1),
                        duration=round(rng.uniform(10.0, 60.0), 1),
                        rate=round(rng.uniform(0.2, 0.8), 2),
                    )
                )
            else:
                faults.append(
                    ReorderBurst(
                        at=round(rng.uniform(0.0, 100.0), 1),
                        duration=round(rng.uniform(10.0, 60.0), 1),
                        window=round(rng.uniform(2.0, 12.0), 1),
                    )
                )
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

    def failover_schedules(self) -> List[NemesisSchedule]:
        """The canonical failover scenarios: kill the primary mid-workload
        and resurrect it later (stale-primary return), kill it with ordinary
        downtime, and isolate it from the cluster until its lease lapses."""
        return [
            NemesisSchedule(
                [KillPrimary(at=10.0, downtime=None),
                 ResurrectStalePrimary(at=200.0)],
                name="failover:kill-resurrect",
            ),
            NemesisSchedule(
                [KillPrimary(at=10.0, downtime=self.downtime)],
                name="failover:kill-primary",
            ),
            NemesisSchedule(
                [PartitionPrimary(at=10.0, heal_after=150.0)],
                name="failover:partition-heal",
            ),
        ]

    def failover_sweep(self, replicas: int = 2) -> SweepResult:
        """Run every failover scenario against every paper workload on a
        replicated execution service; additionally demand that each
        replication crash point was *visited* at least once across the pass
        (a scenario that no longer exercises promotion is itself a bug)."""
        result = SweepResult()
        visited: set = set()
        for workload in self.FAILOVER_WORKLOADS:
            for schedule in self.failover_schedules():
                harness = self._harness(
                    schedule, self.base_seed, replicas=replicas, workload=workload
                )
                report = self._run(harness)
                result.reports.append(report)
                self._log(report)
                visited |= {
                    name for name, count in report.points_visited.items()
                    if count > 0
                }
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
