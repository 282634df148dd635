"""Deterministic simulation harness.

A :class:`SimHarness` runs one workload on a fresh
:class:`~repro.services.system.WorkflowSystem` while a
:class:`~repro.sim.nemesis.NemesisSchedule` injects faults underneath it —
armed by the same :class:`~repro.sim.nemesis.Nemesis` interpreter that arms
a schedule on any system, plus the two kinds only the harness can arm:
crash-at-protocol-step faults through the crash-point injector and load
spikes of its own workload — and the invariant oracles of
:mod:`repro.sim.oracles` watch the whole run.  The result is a
:class:`SimReport`: final instance outcomes, every violation, every crash,
network counters, and a fingerprint over the canonical JSON form so two runs
of the same (schedule, seed) can be compared byte-for-byte.

Determinism is inherited from the substrate: one
:class:`~repro.net.clock.EventClock` orders all events, all randomness is
seeded, and crash points count *visits* rather than sampling times — so the
same schedule always kills the same node in the same protocol step with the
same stack above it.

Crash mechanics
---------------

When a crash fires (at a point or a scheduled time) the machine dies
exactly:

1. for a ``torn`` fault at a WAL force, :meth:`WriteAheadLog.torn_force`
   first makes every pending record except the last durable — the classic
   torn write;
2. the interpreter crashes the node (:meth:`repro.net.node.Node.crash`, the
   one place that says what that does to a machine's stores, endpoint and
   timers) and logs the crash;
3. recovery is scheduled ``downtime`` later — unless ``downtime`` is None,
   in which case the machine stays down and the liveness oracle is waived.
   Around it the harness adds what it owns: in-doubt probe transactions are
   resolved before the node re-attaches under its new incarnation and its
   services replay their journals, and the oracles look at the result.

The :class:`~repro.sim.crashpoints.SimulatedCrash` that unwinds the Python
stack is caught at the event-loop boundary in :meth:`SimHarness._advance`
(and around the synchronous client calls ``deploy``/``instantiate``, which
run servant code on the caller's stack).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..orb.broker import CommFailure, Overloaded
from ..services.system import TERMINAL, SystemSpec, WorkflowSystem
from ..txn import wal as wal_mod
from ..txn.manager import TransactionManager
from ..txn.store import ObjectStore
from ..txn.wal import WriteAheadLog
from ..workloads import APPLICATIONS, Application
from . import oracles
from .crashpoints import (
    ArmedCrash,
    CrashPointInjector,
    SimulatedCrash,
    install,
    uninstall,
)
from .nemesis import CrashAtPoint, LoadSpike, Nemesis, NemesisSchedule


# An armed fault waits this long after the instances end for late protocol
# activity to reach it; a healable run gets this long to come back.
SETTLE = 250.0
QUIESCE_GRACE = 600.0


@dataclass
class SimReport:
    """Everything one harness run produced, in JSON-serialisable form."""

    workload: str
    seed: int
    workers: int
    schedule: Dict[str, Any]
    instances: Dict[str, Dict[str, Any]]
    violations: List[Dict[str, str]] = field(default_factory=list)
    crashes: List[Dict[str, Any]] = field(default_factory=list)
    fired: List[List[str]] = field(default_factory=list)   # (point, node) pairs
    unfired: List[str] = field(default_factory=list)       # armed but never hit
    points_visited: Dict[str, int] = field(default_factory=dict)
    network: Dict[str, int] = field(default_factory=dict)
    end_time: float = 0.0
    replicas: int = 0
    replication: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    spike: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_plain(self) -> Dict[str, Any]:
        return asdict(self)

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, fixed separators — the byte string
        the fingerprint (and therefore replay comparison) is defined over."""
        return json.dumps(self.to_plain(), sort_keys=True, separators=(",", ":"))

    def fingerprint(self) -> str:
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    def summary(self) -> str:
        outcome = "OK" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        statuses = ",".join(
            f"{iid}={info['status']}" for iid, info in sorted(self.instances.items())
        )
        return (
            f"[{outcome}] workload={self.workload} seed={self.seed} "
            f"crashes={len(self.crashes)} t={self.end_time:.1f} {statuses}"
        )


@dataclass
class SimHarness:
    """Run one nemesis schedule against one workload and report."""

    schedule: NemesisSchedule = field(default_factory=NemesisSchedule)
    workload: str = "order"
    instances: int = 1
    max_time: float = 5_000.0
    check_every: float = 25.0
    compact_every: Optional[float] = None
    probe_every: Optional[float] = None
    system: SystemSpec = field(default_factory=SystemSpec)

    def __post_init__(self) -> None:
        if self.workload not in APPLICATIONS:
            raise ValueError(
                f"unknown workload {self.workload!r}; choose from {sorted(APPLICATIONS)}"
            )

    def to_plain(self) -> Dict[str, Any]:
        """JSON-ready form, the schedule and the system spec nested: what a
        repro file records and :meth:`from_plain` reads back."""
        plain = {item.name: getattr(self, item.name) for item in fields(self)}
        plain.update(schedule=self.schedule.to_plain(), system=self.system.to_plain())
        return plain

    @classmethod
    def from_plain(cls, data: Dict[str, Any]) -> "SimHarness":
        return cls(**{
            **data,
            "schedule": NemesisSchedule.from_plain(data["schedule"]),
            "system": SystemSpec.from_plain(data["system"]),
        })

    # -- setup ----------------------------------------------------------------

    def run(self) -> SimReport:
        """One run on a fresh system; a harness may be run again."""
        spec = APPLICATIONS[self.workload]
        system = WorkflowSystem(self.system)
        spec.binder(system.registry)
        self._system = system
        self._probe_manager: Optional[TransactionManager] = None
        self._probes: List[ObjectStore] = []
        self._violations: List[oracles.OracleViolation] = []
        self._violation_keys: Set[Tuple[str, str, str]] = set()
        self._terminal_seen: Dict[str, Tuple[str, Optional[str]]] = {}
        self._spike_submitted: Dict[str, str] = {}
        self._spike_refused: int = 0
        injector = CrashPointInjector(self._on_crash)
        if self.probe_every is not None:
            # Two scratch stores on the execution node plus a manager whose
            # decision log is the execution store: the only code path in the
            # system that runs genuine two-phase commit, so the prepare/2PC
            # crash points (and in-doubt recovery) get exercised.
            self._probes = [
                system.execution_node.attach(ObjectStore(name))
                for name in ("probe-a", "probe-b")
            ]
            self._probe_manager = TransactionManager(
                "probe-tm", decision_store=system.execution_store
            )
            injector.bind(self._probe_manager, "execution-node")
        # Every store, log and service of every machine is a crash-point
        # scope of that machine — but for the repository's, deliberately left
        # unbound so deploy-time visits do not shift hit counts (see
        # CrashPointInjector docstring).
        for name, node in system.nodes.items():
            if node is system.repository_node:
                continue
            for store in node.stores():
                injector.bind(store, name)
                injector.bind(store.wal, name)
            for service in node.services():
                injector.bind(service, name)
        self._injector = injector
        self._nemesis = Nemesis(
            system,
            before_recover=self._resolve_in_doubt,
            after_recover=lambda _node: self._check("recovery", deep=True),
        )
        self._nemesis.arm(self.schedule, owned={
            CrashAtPoint: lambda fault: injector.arm(fault.to_armed()),
            LoadSpike: partial(self._arm_load_spike, spec=spec),
        })
        if self.compact_every is not None:
            self._arm_compactor()
        if self.probe_every is not None:
            self._arm_prober()
        install(injector)
        try:
            self._deploy(spec)
            iids = self._instantiate_all(spec)
            self._drive(iids)
        finally:
            uninstall()
        return self._report(iids)

    def _every(self, interval: float, label: str, action: Callable[[], None]) -> None:
        clock = self._system.clock

        def tick() -> None:
            # reschedule first: a SimulatedCrash inside the action must not
            # silence all future ticks
            clock.call_after(interval, tick, label=label)
            action()

        clock.call_after(interval, tick, label=label)

    def _arm_compactor(self) -> None:
        system = self._system

        def compact() -> None:
            service = system.primary_execution()
            if service is not None:
                # always the primary: compacting a demoted standby's store
                # would fork its log from the stream the primary ships
                service.compact()

        self._every(float(self.compact_every), "harness:compact", compact)

    def _arm_prober(self) -> None:
        """Periodic 2PC probe: one transaction increments a counter in both
        probe stores (two participants → genuine two-phase commit, with the
        decision forced in the execution store's log), then a second
        transaction writes and deliberately aborts.  The atomic-commit
        oracle later demands the two counters never diverge — a crash
        anywhere inside the protocol must either commit both or neither
        once in-doubt participants are resolved."""
        system = self._system
        store_a, store_b = self._probes
        manager = self._probe_manager

        def probe() -> None:
            if not system.execution_node.alive:
                return

            def body(txn) -> None:
                a = txn.read(store_a, "probe-counter", 0)
                b = txn.read(store_b, "probe-counter", 0)
                txn.write(store_a, "probe-counter", a + 1)
                txn.write(store_b, "probe-counter", b + 1)

            manager.run(body)
            scratch = manager.begin()
            scratch.write(store_b, "probe-scratch", system.clock.now)
            scratch.abort(reason="probe abort")
            # the physical barrier of every store the probe forced records
            # in (the coordinator's decisions go to the execution store)
            for store in (store_a, store_b, system.execution_store):
                store.sync()

        self._every(float(self.probe_every), "harness:probe", probe)

    def _arm_load_spike(self, fault: LoadSpike, spec: Application) -> None:
        """Schedule the spike's submissions on the event clock.

        Each submission rides the ORB proxy directly — ``system.instantiate``
        drives the clock, which is illegal inside a clock callback — so the
        admission layer sees the spike exactly as client traffic.  The
        nemesis is an impatient client: an ``Overloaded`` refusal is counted
        and never retried; any other ``CommFailure`` means an outage ate the
        request before the service accepted it, so nothing is owed."""
        system = self._system
        proxy = system.execution_proxy()
        count = max(1, int(fault.rate * fault.duration))
        step = fault.duration / count
        for index in range(count):
            at = fault.at + index * step

            def fire(t: float = at, i: int = index) -> None:
                try:
                    iid = proxy.instantiate(
                        spec.script_name, spec.root_task, "main",
                        dict(spec.inputs(1_000 + i)),
                    )
                except Overloaded:
                    self._spike_refused += 1
                except CommFailure:
                    pass
                else:
                    self._spike_submitted[iid] = f"spike@{t:g}"

            system.clock.call_at(at, fire, label=f"nemesis:spike:{index}")

    # -- crash machinery --------------------------------------------------------

    def _on_crash(self, node_name: str, fault: ArmedCrash, scope: Any) -> None:
        """Injector callback: make the crash real before the stack unwinds."""
        if fault.mode == "torn" and isinstance(scope, WriteAheadLog):
            scope.torn_force()
        self._nemesis.strike(node_name, fault.downtime, point=fault.point, mode=fault.mode)

    def _resolve_in_doubt(self, node_name: str) -> None:
        """Before the execution node comes back, finish 2PC for transactions
        caught between PREPARE and the decision: presumed abort unless the
        coordinator's decision log (the execution store) says commit.
        Completing the record and re-replaying the log is all a redo-only
        participant needs."""
        if node_name != "execution-node" or self._probe_manager is None:
            return
        # the probe's transaction manager is in-memory: its active-transaction
        # table and cached commit decisions died with the machine (durable
        # decisions live in the decision store's log, nowhere else); nothing
        # reads them while the node is down
        self._probe_manager._active.clear()
        self._probe_manager._decisions.clear()
        for store in self._probes:
            for tid in list(store.in_doubt()):
                committed = self._probe_manager.decision(tid)
                store.wal.append(
                    wal_mod.COMMIT if committed else wal_mod.ABORT, tid
                )
                store.wal.force()
                store.sync()
                store.recover()

    # -- oracle plumbing ----------------------------------------------------------

    def _record(self, found: List[oracles.OracleViolation]) -> None:
        for violation in found:
            key = (violation.oracle, violation.subject, violation.detail)
            if key in self._violation_keys:
                continue
            self._violation_keys.add(key)
            self._violations.append(violation)

    def _check(self, phase: str, deep: bool = False) -> None:
        system = self._system
        found: List[oracles.OracleViolation] = []
        for node in system.nodes.values():
            for store in node.stores():
                found += oracles.check_store_agreement(store, phase)
        services = system.execution_replicas or [system.execution]
        journals = [service.store for service in services]
        if system.execution_replicas:
            found += oracles.check_epoch_fencing(journals, phase)
            found += oracles.check_single_primary(services, system.clock.now, phase)
        for store in journals:
            found += oracles.check_journal_integrity(store, phase)
        if deep:
            for service in services:
                found += oracles.check_closed_is_settled(service, phase)
        primary = system.primary_execution()
        if primary is not None:
            # terminals are only *recorded* once replicated to the full ISR
            # (a group-acked barrier survives any single failover); base
            # services report settled unconditionally, so this gate is a
            # no-op for the unreplicated layout
            if primary.replication_settled():
                oracles.observe_terminal(primary, self._terminal_seen)
            found += oracles.check_durability(
                primary, self._terminal_seen, phase
            )
            if self._probes and system.execution_node.alive:
                found += oracles.check_atomic_commit(*self._probes, phase=phase)
            if deep:
                found += oracles.check_replay_agreement(primary, phase)
                found += oracles.check_settled_is_closed(primary, phase)
        self._record(found)

    # -- driving --------------------------------------------------------------------

    def _advance(self, delta: float) -> None:
        """Advance virtual time, absorbing simulated crashes at the event
        boundary (the crash callback already did all the state work)."""
        clock = self._system.clock
        target = clock.now + delta
        while True:
            try:
                clock.run(until=target)
                return
            except SimulatedCrash:
                continue

    def _all_alive(self) -> bool:
        return all(node.alive for node in self._system.nodes.values())

    def _all_terminal(self, iids: List[str]) -> bool:
        fates = map(self._system.fate, iids)
        return all(fate is not None and fate["status"] in TERMINAL for fate in fates)

    def _await_recovery(self) -> None:
        """Wait out an outage after a crash interrupted a client call."""
        deadline = self._system.clock.now + QUIESCE_GRACE
        while self._system.clock.now < deadline:
            if self._all_alive():
                return
            self._advance(self.check_every)
            self._check("continuous")

    def _deploy(self, spec: Application) -> None:
        for _ in range(5):
            try:
                self._system.deploy(spec.script_name, spec.text)
                return
            except (SimulatedCrash, CommFailure):
                self._await_recovery()
        raise RuntimeError("could not deploy workload script")

    def _instantiate_all(self, spec: Application) -> List[str]:
        iids: List[str] = []
        for index in range(self.instances):
            iid = self._instantiate_one(spec, index, iids)
            if iid is None:
                break  # node stays down: nothing more can be created
            iids.append(iid)
        return iids

    def _instantiate_one(
        self, spec: Application, index: int, known: List[str]
    ) -> Optional[str]:
        """Instantiate once, riding out crashes mid-call.

        A crash may land anywhere inside the synchronous ``instantiate``
        path — before or after the instance meta was committed — so after
        recovery the harness never *predicts* the id: it asks the recovered
        service which instances exist and only retries when nothing new was
        persisted.
        """
        system = self._system
        for _ in range(8):
            try:
                return system.instantiate(
                    spec.script_name, spec.root_task, spec.inputs(index)
                )
            except (SimulatedCrash, CommFailure):
                pass
            self._await_recovery()
            service = system.primary_execution()
            if service is None:
                if system.execution_replicas:
                    continue  # failover may still be electing a successor
                return None  # the only execution node stays down
            fresh = sorted(set(service.runtimes) - set(known))
            if fresh:
                return fresh[0]
        return None

    def _drive(self, iids: List[str]) -> None:
        system = self._system
        deadline = system.clock.now + self.max_time
        # a load spike only exerts pressure if the run is still alive when
        # it fires: never declare quiescence before its window has passed
        spike_until = max(
            (f.at + f.duration for f in self.schedule.faults
             if isinstance(f, LoadSpike)),
            default=0.0,
        )
        terminal_since: Optional[float] = None
        while system.clock.now < deadline:
            self._advance(self.check_every)
            self._check("continuous")
            if system.clock.now < spike_until:
                continue
            if self._all_terminal(iids + sorted(self._spike_submitted)):
                if not self._injector.pending():
                    break
                # armed faults still waiting: give late protocol activity
                # (compaction ticks, sweeps) a bounded chance to hit them
                if terminal_since is None:
                    terminal_since = system.clock.now
                elif system.clock.now - terminal_since >= SETTLE:
                    break
            else:
                terminal_since = None
        healable = self.schedule.heals()
        if healable:
            guard = system.clock.now + QUIESCE_GRACE
            while system.clock.now < guard:
                if self._all_alive() and self._all_terminal(
                    iids + sorted(self._spike_submitted)
                ):
                    break
                self._advance(self.check_every)
                self._check("continuous")
        self._check("quiescence", deep=True)
        if healable and self._all_alive():
            primary = system.primary_execution()
            if primary is not None:
                self._record(oracles.check_liveness(primary, iids))
                if self._spike_submitted:
                    self._record(oracles.check_no_silent_drop(
                        primary, self._spike_submitted
                    ))
            else:
                self._record([oracles.OracleViolation(
                    "liveness", "primary",
                    "no replica holds the primary role although every node "
                    "is healthy and the network is quiet", "quiescence",
                )])

    # -- reporting -------------------------------------------------------------------

    def _report(self, iids: List[str]) -> SimReport:
        system = self._system
        lost = {"status": "lost", "outcome": None, "error": None}
        instances = {iid: system.fate(iid) or lost for iid in iids}
        return SimReport(
            workload=self.workload,
            seed=self.system.seed,
            workers=self.system.workers,
            schedule=self.schedule.to_plain(),
            instances=instances,
            violations=[v.to_plain() for v in self._violations],
            crashes=self._nemesis.crashes,
            fired=[[point, node] for point, node in self._injector.fired],
            unfired=[fault.point for fault in self._injector.pending()],
            points_visited=dict(sorted(self._injector.visits.items())),
            network=system.network.stats.as_dict(),
            end_time=system.clock.now,
            replicas=self.system.replicas,
            replication={
                svc.name: {
                    "node": svc.node.name,
                    "alive": svc.node.alive,
                    "role": svc.role.value,
                    "epoch": svc.epoch,
                    "promotions": svc.repl_stats["promotions"],
                    "demotions": svc.repl_stats["demotions"],
                    "resyncs": svc.repl_stats["resyncs"],
                }
                for svc in system.execution_replicas
            },
            spike={
                "accepted": len(self._spike_submitted),
                "refused": self._spike_refused,
            },
        )
