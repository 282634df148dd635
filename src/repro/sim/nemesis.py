"""Declarative nemesis schedules and the one interpreter that arms them.

A :class:`NemesisSchedule` is a composable, JSON-serialisable list of fault
declarations — the "nemesis" of Jepsen terminology — and the only way
anything in the repository injects a fault.  Schedules are pure data, so
they round-trip through repro files, shrink by dropping elements, and diff
meaningfully in CI logs.  :class:`Nemesis` interprets one against a live
:class:`~repro.services.system.WorkflowSystem`: ``schedule.arm(system)`` arms
every time-based fault on any system and returns the log of the crashes it
makes; the sim harness arms the same way and adds only what it owns (crash
points, load spikes and the oracle check after a recovery).

Fault kinds::

    crash_at_point   kill a node the Nth time a named protocol step runs
                     (mode "torn" also tears the in-progress WAL force;
                     needs the harness's crash-point injector)
    crash_at_time    classic wall-clock crash of a named node
    random_crashes   from the moment it is armed, crash a randomly chosen
                     node after each exponentially distributed gap
    partition        sever two node groups, optionally healing later
    burst            set one network knob (loss_rate, dup_rate or
                     reorder_window) to a value for a while
    load_spike       submit extra workflow instances at a sustained rate
                     (drives the overload/admission layer, §13; needs the
                     harness's workload)

Every fault says what happens, to which named nodes, when and for how long:
a replication scenario names its victim like any other (the bootstrap
primary runs on ``execution-node``), so a failover is a ``crash_at_time`` of
that node and a stale primary's return is the same crash with a downtime
that ends after its successor took over.

A crash that finds its node already down does nothing: it is not logged and
schedules no recovery.  Recoveries are scheduled by the crash that made them
necessary, ``downtime`` after it.

Every kind keeps its place with a seeded mutant only a schedule holding it
catches (``benchmarks/mutants.py``), or a written reason (EXPERIMENTS.md
E16).
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple, Type

from ..settings import require
from .crashpoints import ArmedCrash

if TYPE_CHECKING:
    from ..services.system import WorkflowSystem


@dataclass(frozen=True)
class CrashAtPoint:
    """Crash the node that makes the ``at_hit``-th visit to ``point``."""

    point: str
    at_hit: int = 1
    mode: str = "clean"             # "clean" | "torn"
    node: Optional[str] = None      # restrict to one node; None = first to hit
    downtime: Optional[float] = 30.0

    kind = "crash_at_point"

    def __post_init__(self) -> None:
        self.to_armed()  # validates point name, mode, torn capability, at_hit

    def to_armed(self) -> ArmedCrash:
        return ArmedCrash(
            point=self.point, at_hit=self.at_hit, mode=self.mode,
            node=self.node, downtime=self.downtime,
        )


@dataclass(frozen=True)
class CrashAtTime:
    """Crash ``node`` at virtual time ``at``."""

    at: float
    node: str
    downtime: Optional[float] = 30.0

    kind = "crash_at_time"


@dataclass(frozen=True)
class RandomCrashes:
    """From the moment the schedule is armed, crash one of ``nodes`` (chosen
    uniformly) after each exponentially distributed gap of mean
    ``interval``; each victim comes back ``downtime`` after its strike.  The
    chain never ends.  Every draw comes from ``random.Random(seed)``: one
    ``expovariate`` per gap, one ``choice`` per strike."""

    nodes: Tuple[str, ...]
    interval: float
    downtime: float
    seed: int = 0

    kind = "random_crashes"

    def __post_init__(self) -> None:
        require(self, "nodes", len(self.nodes) > 0, "must name at least one node")
        require(self, "interval", self.interval > 0, "must be positive")


@dataclass(frozen=True)
class Partition:
    """Sever ``group_a`` from ``group_b`` at ``at``; heal ``heal_after``
    later (never if None)."""

    at: float
    group_a: Tuple[str, ...]
    group_b: Tuple[str, ...]
    heal_after: Optional[float] = None

    kind = "partition"


#: The network knobs a burst may set: the datagram loss and duplication
#: rates and the reordering window (:meth:`repro.net.network.Network.sample_delays`).
BURST_KNOBS = ("loss_rate", "dup_rate", "reorder_window")


@dataclass(frozen=True)
class Burst:
    """Set the network's ``knob`` to ``value`` at ``at`` for ``duration``."""

    at: float
    duration: float
    knob: str
    value: float

    kind = "burst"

    def __post_init__(self) -> None:
        require(self, "knob", self.knob in BURST_KNOBS, f"must be one of {BURST_KNOBS}")


@dataclass(frozen=True)
class LoadSpike:
    """Sustained arrival burst aimed straight at the execution service.

    During ``[at, at + duration)`` the harness submits ``rate`` extra
    instances per virtual second of the run's own workload script —
    admission-bypassing nothing: each submission goes through the ORB like
    any client's, so the overload layer sees the spike exactly as it would
    see a traffic storm.  ``Overloaded`` refusals are counted, not retried
    (the nemesis is an impatient client).  Spike instances are tracked by
    the liveness oracle: every admitted one must reach a terminal state."""

    at: float
    duration: float
    rate: float                  # extra instances per virtual second

    kind = "load_spike"


_FAULT_TYPES: Dict[str, Type] = {
    cls.kind: cls for cls in (CrashAtPoint, CrashAtTime, RandomCrashes, Partition, Burst, LoadSpike)
}

Fault = Any  # union of the dataclasses above


def fault_to_plain(fault: Fault) -> Dict[str, Any]:
    data = asdict(fault)
    data["kind"] = fault.kind
    return data


def fault_from_plain(data: Dict[str, Any]) -> Fault:
    data = dict(data)
    kind = data.pop("kind")
    try:
        cls = _FAULT_TYPES[kind]
    except KeyError:
        raise ValueError(f"unknown fault kind {kind!r}") from None
    # JSON has no tuples: node-name groups come back as lists
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in data.items()})


@dataclass
class NemesisSchedule:
    """An ordered bag of fault declarations plus a label for reports."""

    faults: List[Fault] = field(default_factory=list)
    name: str = ""

    # -- composition --------------------------------------------------------

    def without(self, index: int) -> "NemesisSchedule":
        """A copy with the ``index``-th fault dropped (shrinking step)."""
        kept = [f for i, f in enumerate(self.faults) if i != index]
        return NemesisSchedule(kept, name=f"{self.name}-drop{index}")

    def heals(self) -> bool:
        """Whether every fault ends: a crash whose ``downtime`` is None or a
        partition whose ``heal_after`` is None never does."""
        return not any(None in (getattr(fault, "downtime", 0.0), getattr(fault, "heal_after", 0.0))
                       for fault in self.faults)

    def arm(self, system: "WorkflowSystem") -> List[Dict[str, Any]]:
        """Arm every fault on ``system``'s clock; returns the crash log,
        filled in as the crashes happen.  ``ValueError`` if the schedule
        holds a kind only the sim harness can arm."""
        return Nemesis(system).arm(self)

    # -- serialisation ------------------------------------------------------

    def to_plain(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "faults": [fault_to_plain(fault) for fault in self.faults],
        }

    @classmethod
    def from_plain(cls, data: Dict[str, Any]) -> "NemesisSchedule":
        return cls(
            faults=[fault_from_plain(item) for item in data.get("faults", [])],
            name=data.get("name", ""),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_plain(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "NemesisSchedule":
        return cls.from_plain(json.loads(text))


def _nothing(_node: str) -> None:
    pass


class Nemesis:
    """The interpreter: arms a schedule's faults on one live system and logs
    every crash it makes as ``{"node", "time", "point", "mode",
    "downtime"}``.

    ``after_recover`` runs after each recovery it makes (of a node that is
    down), with the node's name.  :meth:`strike`
    is public so a caller that finds its own victims (the harness's crash
    points) crashes them the same way.
    """

    def __init__(
        self,
        system: "WorkflowSystem",
        after_recover: Callable[[str], None] = _nothing,
    ) -> None:
        self.system = system
        self.after_recover = after_recover
        self.crashes: List[Dict[str, Any]] = []

    def arm(
        self,
        schedule: NemesisSchedule,
        owned: Optional[Dict[Type, Callable[[Fault], None]]] = None,
    ) -> List[Dict[str, Any]]:
        """Arm ``schedule``; ``owned`` maps the fault kinds the caller arms
        itself to the function that does.  Any other kind this interpreter
        cannot arm is refused (``ValueError``) before anything is armed.

        Registration order is part of the behaviour — events at one instant
        run in the order they were registered — so it is fixed: crashes and
        owned faults in schedule order, then the network episodes, each of
        which registers its heal or restore when it starts."""
        now = {
            RandomCrashes: self._random_crashes,
            CrashAtTime: lambda fault: self._at(fault, lambda f: self.strike(f.node, f.downtime)),
            **(owned or {}),
        }
        episodes = {Partition: self._partition, Burst: self._burst}
        for fault in schedule.faults:
            if type(fault) not in now and type(fault) not in episodes:
                raise ValueError(f"a {fault.kind} fault needs the sim harness to arm it")
        for fault in schedule.faults:
            if type(fault) in now:
                now[type(fault)](fault)
        for fault in schedule.faults:
            if type(fault) in episodes:
                self._at(fault, episodes[type(fault)])
        return self.crashes

    def _at(self, fault: Fault, action: Callable[[Fault], None]) -> None:
        self.system.clock.call_at(fault.at, partial(action, fault), label=f"nemesis:{fault.kind}")

    # -- crashes and recoveries -------------------------------------------------

    def strike(
        self,
        name: str,
        downtime: Optional[float],
        point: Optional[str] = None,
        mode: str = "clean",
    ) -> None:
        """Crash node ``name`` if it is up, log it and schedule its recovery
        ``downtime`` later (never, if None)."""
        node = self.system.nodes[name]
        if not node.alive:
            return
        node.crash()
        self.crashes.append(
            {"node": name, "time": self.system.clock.now, "point": point, "mode": mode,
             "downtime": downtime}
        )
        if downtime is not None:
            self.system.clock.call_after(
                downtime, partial(self._recover, name), label=f"nemesis:recover:{name}"
            )

    def _recover(self, name: str) -> None:
        node = self.system.nodes[name]
        if node.alive:
            return
        node.recover()  # may raise SimulatedCrash via a recovery crash point
        self.after_recover(name)

    def _random_crashes(self, fault: RandomCrashes) -> None:
        rng = random.Random(fault.seed)
        clock = self.system.clock

        def schedule_next() -> None:
            gap = rng.expovariate(1.0 / fault.interval)
            clock.call_after(gap, hit, label="nemesis:random-crash")

        def hit() -> None:
            self.strike(rng.choice(fault.nodes), fault.downtime)
            schedule_next()

        schedule_next()

    # -- network episodes -----------------------------------------------------------

    def _partition(self, fault: Partition) -> None:
        network = self.system.network
        group_a, group_b = set(fault.group_a), set(fault.group_b)
        network.partition(group_a, group_b)
        if fault.heal_after is not None:
            self.system.clock.call_at(
                fault.at + fault.heal_after, partial(network.heal, group_a, group_b),
                label="nemesis:heal",
            )

    def _burst(self, fault: Burst) -> None:
        """Set the burst's knob for ``fault.duration``, then restore the value
        it had when the burst began (bursts may nest; last restore wins,
        which is fine for the disjoint bursts schedules generate)."""
        network = self.system.network
        previous = getattr(network, fault.knob)
        setattr(network, fault.knob, fault.value)
        self.system.clock.call_at(
            fault.at + fault.duration, partial(setattr, network, fault.knob, previous),
            label="nemesis:burst-end",
        )
