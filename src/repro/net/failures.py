"""Fault-injection schedules.

Experiments E10/E14 need repeatable failure patterns: "crash node X at time t,
recover it at t+d", "crash a random node every ~p time units".  These helpers
arrange such patterns on the shared clock so benchmark code stays declarative.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from .clock import EventClock
from .network import Network
from .node import Node


@dataclass
class CrashEvent:
    """Record of one injected crash (for reporting)."""

    node: str
    crash_time: float
    recover_time: Optional[float]


@dataclass
class NetworkEvent:
    """Record of one injected network fault episode (for reporting)."""

    kind: str          # "partition" | "loss" | "dup" | "reorder"
    start: float
    end: Optional[float]
    detail: str = ""


class FaultPlan:
    """A declarative schedule of crashes and recoveries.

    Example::

        plan = FaultPlan(clock)
        plan.crash_at(node_a, when=10.0, down_for=5.0)
        plan.crash_at(node_b, when=12.0)          # stays down
        plan.arm()
    """

    def __init__(self, clock: EventClock) -> None:
        self.clock = clock
        self._pending: List[Tuple[Node, CrashEvent]] = []
        self.history: List[CrashEvent] = []
        self.network_history: List[NetworkEvent] = []
        self._network_actions: List = []  # zero-arg closures run at arm()
        self._armed = False

    def crash_at(self, node: Node, when: float, down_for: Optional[float] = None) -> "FaultPlan":
        """Crash ``node`` at virtual time ``when``; recover ``down_for`` later
        (never, if ``down_for`` is None)."""
        recover_time = None if down_for is None else when + down_for
        self._pending.append((node, CrashEvent(node.name, when, recover_time)))
        return self

    # -- network faults ------------------------------------------------------

    def partition_at(
        self,
        network: Network,
        when: float,
        group_a: Set[str],
        group_b: Set[str],
        heal_after: Optional[float] = None,
    ) -> "FaultPlan":
        """Partition ``group_a`` from ``group_b`` at ``when``; heal that cut
        ``heal_after`` later (never, if None)."""
        heal_at = None if heal_after is None else when + heal_after
        group_a, group_b = set(group_a), set(group_b)

        def start() -> None:
            network.partition(group_a, group_b)
            self.network_history.append(
                NetworkEvent(
                    "partition", when, heal_at,
                    f"{sorted(group_a)} x {sorted(group_b)}",
                )
            )
            if heal_at is not None:
                self.clock.call_at(
                    heal_at,
                    lambda: network.heal(group_a, group_b),
                    label="nemesis:heal",
                )

        self._network_actions.append(
            lambda: self.clock.call_at(when, start, label="nemesis:partition")
        )
        return self

    def _burst(
        self,
        network: Network,
        kind: str,
        attr: str,
        when: float,
        duration: float,
        value: float,
    ) -> "FaultPlan":
        """Raise a network knob to ``value`` for ``duration``, then restore
        the value it had when the burst began (bursts may nest; last restore
        wins, which is fine for the disjoint bursts schedules generate)."""

        def start() -> None:
            previous = getattr(network, attr)
            setattr(network, attr, value)
            self.network_history.append(
                NetworkEvent(kind, when, when + duration, f"{attr}={value}")
            )
            self.clock.call_at(
                when + duration,
                lambda: setattr(network, attr, previous),
                label=f"nemesis:{kind}-end",
            )

        self._network_actions.append(
            lambda: self.clock.call_at(when, start, label=f"nemesis:{kind}")
        )
        return self

    def loss_burst(
        self, network: Network, when: float, duration: float, rate: float
    ) -> "FaultPlan":
        """Drop datagrams with probability ``rate`` during the burst."""
        return self._burst(network, "loss", "loss_rate", when, duration, rate)

    def dup_burst(
        self, network: Network, when: float, duration: float, rate: float
    ) -> "FaultPlan":
        """Duplicate datagrams with probability ``rate`` during the burst."""
        return self._burst(network, "dup", "dup_rate", when, duration, rate)

    def reorder_burst(
        self, network: Network, when: float, duration: float, window: float
    ) -> "FaultPlan":
        """Hold roughly half of all datagrams back by up to ``window`` extra
        time units during the burst, letting later sends overtake them."""
        return self._burst(
            network, "reorder", "reorder_window", when, duration, window
        )

    def arm(self) -> None:
        """Schedule every planned event on the clock.  Idempotent.

        ``history`` records only *executed* crashes: an event is appended
        when its scheduled callback actually fires and finds the node alive,
        not at arm time — so a plan armed but never run (or a crash of an
        already-dead node) leaves no trace.  Network fault episodes are
        recorded in ``network_history`` when they begin.
        """
        if self._armed:
            return
        self._armed = True
        for node, event in self._pending:

            def fire(node=node, event=event) -> None:
                if node.alive:
                    node.crash()
                    self.history.append(event)

            self.clock.call_at(event.crash_time, fire, label=f"crash:{node.name}")
            if event.recover_time is not None:
                self.clock.call_at(event.recover_time, node.recover, label=f"recover:{node.name}")
        for schedule_action in self._network_actions:
            schedule_action()


class RandomCrasher:
    """Poisson-ish random crash/recover injector for a set of nodes.

    Every ``interval`` time units (exponentially distributed), one node chosen
    uniformly at random crashes, then recovers after ``downtime``.  Runs until
    :meth:`stop` or until ``limit`` crashes have been injected.  Deterministic
    under a fixed seed.
    """

    def __init__(
        self,
        clock: EventClock,
        nodes: Sequence[Node],
        interval: float,
        downtime: float,
        seed: int = 0,
        limit: Optional[int] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.clock = clock
        self.nodes = list(nodes)
        self.interval = interval
        self.downtime = downtime
        self.limit = limit
        self.injected: List[CrashEvent] = []
        self._rng = random.Random(seed)
        self._stopped = False

    def start(self) -> "RandomCrasher":
        self._schedule_next()
        return self

    def stop(self) -> None:
        self._stopped = True

    def _schedule_next(self) -> None:
        if self._stopped:
            return
        if self.limit is not None and len(self.injected) >= self.limit:
            return
        delay = self._rng.expovariate(1.0 / self.interval)
        self.clock.call_after(delay, self._strike, label="random-crash")

    def _strike(self) -> None:
        if self._stopped or not self.nodes:
            return
        node = self._rng.choice(self.nodes)
        if node.alive:
            node.crash()
            recover_at = self.clock.now + self.downtime
            self.clock.call_at(recover_at, node.recover, label=f"recover:{node.name}")
            self.injected.append(CrashEvent(node.name, self.clock.now, recover_at))
        self._schedule_next()
