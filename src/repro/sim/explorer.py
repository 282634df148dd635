"""Chaos explorer: systematic search of the fault-schedule space.

Two passes, in the FoundationDB tradition:

1. **Exhaustive one-crash sweep** — one run per registered crash point (plus
   a torn-write variant for every point that supports it), each killing the
   owning node exactly at that protocol step.  Recovery-only points are
   paired with a preceding driver crash (``on_recover`` only runs after
   one); points only reachable through compaction or two-phase commit get
   the harness's compactor/2PC-probe enabled.
2. **Random nemesis sweep** — seeded random schedules composing one to
   three faults (crash-at-point, timed crashes, partitions, loss/dup/
   reorder bursts).  Each seed is an independent, fully reproducible
   universe.

Any run whose oracles report a violation is **shrunk** — faults are
greedily dropped while the violation persists — and the minimal schedule is
written as a JSON repro file containing the harness configuration and the
report fingerprint.  ``replay()`` re-runs a repro file and demands the new
report match the recorded fingerprint byte-for-byte (same canonical JSON),
which the determinism of the substrate guarantees for an unchanged tree.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

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
_NEEDS_COMPACTOR = ("wal.checkpoint.", "exec.compact.")
#: Points only visited by the harness's two-store 2PC probe, the one
#: locking writer it binds (journal, lease and standby tail commit BATCHes).
_NEEDS_PROBE = ("store.prepare.", "store.abort.", "store.log_updates.", "txn.")
#: Points only visited with a replicated execution service.  The lease
#: grant and the promotion points additionally need a failover (the
#: bootstrap grant/promotion happen before the injector is installed), which
#: the recovery driver crash below conveniently provides: killing the
#: primary at a journal append forces a standby through acquire + promote.
_NEEDS_REPLICAS = ("repl.", "store.ingest.")
#: The driver crash paired with recovery-only points.
_RECOVERY_DRIVER = "exec.journal.post"


@dataclass
class SweepFailure:
    """One violating schedule, after shrinking."""

    name: str
    schedule: Dict[str, Any]          # shrunk schedule, plain form
    harness: Dict[str, Any]           # SimHarness kwargs that reproduce it
    violations: List[Dict[str, str]]
    fingerprint: str                  # of the shrunk run's report
    report: Dict[str, Any]
    repro_path: Optional[str] = None

    def to_plain(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "schedule": self.schedule,
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

    @property
    def ok(self) -> bool:
        return not self.failures

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


class ChaosSweep:
    """Run the exhaustive and random sweeps; shrink and record violations."""

    def __init__(
        self,
        workload: str = "order",
        workers: int = 2,
        instances: int = 1,
        base_seed: int = 0,
        downtime: float = 30.0,
        max_time: float = 5_000.0,
        out_dir: Optional[str] = None,
        verbose: bool = False,
    ) -> None:
        self.workload = workload
        self.workers = workers
        self.instances = instances
        self.base_seed = base_seed
        self.downtime = downtime
        self.max_time = max_time
        self.out_dir = out_dir
        self.verbose = verbose

    # -- exhaustive pass -------------------------------------------------------

    def plan_for_point(
        self, point: CrashPoint, mode: str = "clean"
    ) -> Tuple[NemesisSchedule, Dict[str, Any]]:
        """The schedule + harness configuration that makes ``point`` fire."""
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
        kwargs = self._harness_kwargs(seed=self.base_seed)
        if point.name.startswith(_NEEDS_COMPACTOR):
            kwargs["compact_every"] = 40.0
        if point.name.startswith(_NEEDS_PROBE):
            kwargs["probe_every"] = 15.0
        if replicated:
            # a short lease keeps the forced failover inside the time budget
            kwargs["replicas"] = 2
            kwargs["lease_duration"] = 30.0
        if point.name == "exec.mark.recv" and self.workload == "order":
            # the order workload emits no marks; the trip workload does
            kwargs["workload"] = "trip"
        return schedule, kwargs

    def exhaustive(self) -> SweepResult:
        """One run per crash point (torn variants included)."""
        result = SweepResult()
        for point in catalogue():
            modes = ["clean"] + (["torn"] if point.torn else [])
            for mode in modes:
                schedule, kwargs = self.plan_for_point(point, mode)
                report = self._run(schedule, kwargs)
                result.reports.append(report)
                self._log(report)
                if not any(fired[0] == point.name for fired in report.fired):
                    result.unreached.append(f"{point.name} ({mode})")
                if report.violations:
                    result.failures.append(
                        self._shrink_and_record(schedule, kwargs, report)
                    )
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
            schedule = self.random_schedule(seed)
            kwargs = self._harness_kwargs(seed=seed)
            kwargs["compact_every"] = 60.0
            kwargs["probe_every"] = 25.0
            report = self._run(schedule, kwargs)
            result.reports.append(report)
            self._log(report)
            if report.violations:
                result.failures.append(
                    self._shrink_and_record(schedule, kwargs, report)
                )
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
                kwargs = self._harness_kwargs(seed=self.base_seed)
                kwargs["workload"] = workload
                kwargs["replicas"] = replicas
                kwargs["lease_duration"] = 30.0
                report = self._run(schedule, kwargs)
                result.reports.append(report)
                self._log(report)
                visited |= {
                    name for name, count in report.points_visited.items()
                    if count > 0
                }
                if report.violations:
                    result.failures.append(
                        self._shrink_and_record(schedule, kwargs, report)
                    )
        for point in catalogue():
            if point.name.startswith(_NEEDS_REPLICAS) and point.name not in visited:
                result.unreached.append(f"{point.name} (failover sweep)")
        return result

    # -- shrinking + repro files ---------------------------------------------------

    def shrink(
        self, schedule: NemesisSchedule, kwargs: Dict[str, Any]
    ) -> Tuple[NemesisSchedule, SimReport]:
        """Greedily drop faults while the run still violates an oracle."""
        current = schedule
        report = self._run(current, kwargs)
        changed = True
        while changed and len(current.faults) > 1:
            changed = False
            for index in range(len(current.faults)):
                candidate = current.without(index)
                candidate_report = self._run(candidate, kwargs)
                if candidate_report.violations:
                    current, report = candidate, candidate_report
                    changed = True
                    break
        return current, report

    def _shrink_and_record(
        self,
        schedule: NemesisSchedule,
        kwargs: Dict[str, Any],
        report: SimReport,
    ) -> SweepFailure:
        shrunk, shrunk_report = self.shrink(schedule, kwargs)
        failure = SweepFailure(
            name=schedule.name,
            schedule=shrunk.to_plain(),
            harness=dict(kwargs),
            violations=list(shrunk_report.violations),
            fingerprint=shrunk_report.fingerprint(),
            report=shrunk_report.to_plain(),
        )
        if self.out_dir:
            os.makedirs(self.out_dir, exist_ok=True)
            slug = schedule.name.replace(":", "-").replace(".", "-")
            path = os.path.join(self.out_dir, f"repro-{slug}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(failure.to_plain(), fh, indent=2, sort_keys=True)
                fh.write("\n")
            failure.repro_path = path
        return failure

    # -- plumbing ----------------------------------------------------------------

    def _harness_kwargs(self, seed: int) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "workers": self.workers,
            "instances": self.instances,
            "seed": seed,
            "max_time": self.max_time,
        }

    def _run(self, schedule: NemesisSchedule, kwargs: Dict[str, Any]) -> SimReport:
        return SimHarness(schedule=schedule, **kwargs).run()

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
    schedule = NemesisSchedule.from_plain(data["schedule"])
    report = SimHarness(schedule=schedule, **data["harness"]).run()
    recorded = data["fingerprint"]
    fresh = report.fingerprint()
    return fresh == recorded, recorded, fresh, report
