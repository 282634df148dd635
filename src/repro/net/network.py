"""Simulated message-passing network.

Models the failure environment the paper's execution service must survive:
message latency, transient message loss and network partitions.  Delivery is
asynchronous through the shared :class:`~repro.net.clock.EventClock`, so the
whole distributed system remains deterministic and replayable.

The network delivers *datagrams*: best-effort, unordered (subject to the
latency model), possibly dropped.  Reliable semantics (the "tasks eventually
receive their inputs" guarantee of the paper) are built *above* this layer by
the transactional execution service, exactly as in the paper.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from .clock import EventClock, SimulationError


@dataclass(frozen=True)
class Message:
    """A datagram in flight."""

    source: str
    destination: str
    payload: Any
    sent_at: float


@dataclass
class LatencyModel:
    """Per-hop latency: ``base`` plus uniform jitter in ``[0, jitter]``."""

    base: float = 1.0
    jitter: float = 0.0

    def sample(self, rng: random.Random) -> float:
        if self.jitter <= 0:
            return self.base
        return self.base + rng.uniform(0.0, self.jitter)


@dataclass
class NetworkStats:
    """Counters maintained by :class:`Network`."""

    sent: int = 0
    delivered: int = 0
    dropped_loss: int = 0
    dropped_partition: int = 0
    dropped_dead: int = 0
    dropped_stale: int = 0   # addressed to a crashed incarnation
    duplicated: int = 0      # extra copies injected by dup_rate
    reordered: int = 0       # held back by reorder_window

    def as_dict(self) -> Dict[str, int]:
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped_loss": self.dropped_loss,
            "dropped_partition": self.dropped_partition,
            "dropped_dead": self.dropped_dead,
            "dropped_stale": self.dropped_stale,
            "duplicated": self.duplicated,
            "reordered": self.reordered,
        }


class Network:
    """Best-effort simulated network between named endpoints.

    Endpoints register a receive callback with :meth:`attach`.  The network
    consults its partition sets and loss rate at *send* time, samples a
    latency, and schedules delivery on the shared clock.  A receiver that is
    detached (e.g. its node crashed) at delivery time silently loses the
    message — exactly the behaviour crash-recovery protocols must cope with.
    """

    def __init__(
        self,
        clock: EventClock,
        latency: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
        seed: int = 0,
        dup_rate: float = 0.0,
        reorder_window: float = 0.0,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise SimulationError(f"loss_rate must be in [0, 1), got {loss_rate!r}")
        if not 0.0 <= dup_rate < 1.0:
            raise SimulationError(f"dup_rate must be in [0, 1), got {dup_rate!r}")
        if reorder_window < 0.0:
            raise SimulationError(
                f"reorder_window must be >= 0, got {reorder_window!r}"
            )
        self.clock = clock
        self.latency = latency or LatencyModel()
        self.loss_rate = loss_rate
        self.dup_rate = dup_rate
        self.reorder_window = reorder_window
        self.stats = NetworkStats()
        self._rng = random.Random(seed)
        self._endpoints: Dict[str, Callable[[Message], None]] = {}
        self._incarnations: Dict[str, int] = {}
        # severed endpoint pairs; empty on a healthy network, which is what
        # every partition check tests first
        self.partitions: Set[FrozenSet[str]] = set()

    # -- endpoint management -------------------------------------------------

    def attach(
        self, name: str, receiver: Callable[[Message], None], incarnation: int = 0
    ) -> None:
        """Register ``receiver`` to handle messages addressed to ``name``.

        ``incarnation`` distinguishes successive lives of the same endpoint
        (a node passes its ``crash_count``): a datagram is stamped with the
        destination's incarnation at *send* time, and delivery to any other
        incarnation is dropped as ``dropped_stale`` — a message sent to a
        node that then crashed must not leak into its recovered self.
        """
        self._endpoints[name] = receiver
        self._incarnations[name] = incarnation

    def detach(self, name: str) -> None:
        """Remove an endpoint (e.g. on node crash)."""
        self._endpoints.pop(name, None)

    # -- partitions -----------------------------------------------------------

    def partition(self, group_a: Set[str], group_b: Set[str]) -> None:
        """Sever communication between every endpoint in ``group_a`` and every
        endpoint in ``group_b`` (both directions)."""
        for a in group_a:
            for b in group_b:
                if a != b:
                    self.partitions.add(frozenset((a, b)))

    def heal(self, group_a: Optional[Set[str]] = None, group_b: Optional[Set[str]] = None) -> None:
        """Heal partitions.

        * ``heal()`` — clear every partition;
        * ``heal(group_a, group_b)`` — heal only the ``group_a`` x ``group_b``
          cut;
        * ``heal(group)`` (one group) — heal every severed edge *touching*
          that group, leaving unrelated partitions intact.  (Historically a
          single-group call silently cleared all partitions, which let
          partial-heal experiments pass vacuously.)
        """
        if group_a is None and group_b is None:
            self.partitions.clear()
            return
        if group_a is None or group_b is None:
            touched = set(group_a if group_a is not None else group_b)
            self.partitions = {
                pair for pair in self.partitions if not (pair & touched)
            }
            return
        for a in group_a:
            for b in group_b:
                self.partitions.discard(frozenset((a, b)))

    def partitioned(self, a: str, b: str) -> bool:
        return frozenset((a, b)) in self.partitions

    # -- sending ----------------------------------------------------------------

    def sample_delays(self, source: str, destination: str) -> Optional[List[float]]:
        """Apply the send-time failure model to one datagram.

        Returns ``None`` if the datagram is dropped at send time (partition
        or loss, counters updated), otherwise a non-empty list of delivery
        delays: the first is the message itself, any further entries are
        duplicate copies injected by ``dup_rate``.  ``reorder_window > 0``
        holds roughly half the messages back by an extra uniform delay in
        ``[0, reorder_window)`` (counted as ``reordered``), which lets later
        sends overtake them.  All sampling uses the network RNG, so runs
        stay deterministic under a fixed seed.

        Shared by :meth:`send` and the ORB's datagram legs so every message
        path in the system sees one failure model.  With no partition, loss,
        duplication or reordering set *now* (read at every send: a nemesis
        burst changes them mid-run) it is one latency draw, ``[base]`` or
        ``[base + jitter * random()]``: :meth:`LatencyModel.sample` to the
        bit, since ``uniform(0.0, j)`` is ``0.0 + (j - 0.0) * random()``
        (docs/PROTOCOLS.md §3).
        """
        if not (self.partitions or self.loss_rate or self.dup_rate or self.reorder_window):
            latency = self.latency
            if latency.jitter <= 0:
                return [latency.base]
            return [latency.base + latency.jitter * self._rng.random()]
        if self.partitions and self.partitioned(source, destination):
            self.stats.dropped_partition += 1
            return None
        if self.loss_rate > 0.0 and self._rng.random() < self.loss_rate:
            self.stats.dropped_loss += 1
            return None
        delay = self.latency.sample(self._rng)
        if self.reorder_window > 0.0 and self._rng.random() < 0.5:
            delay += self._rng.uniform(0.0, self.reorder_window)
            self.stats.reordered += 1
        delays = [delay]
        if self.dup_rate > 0.0 and self._rng.random() < self.dup_rate:
            self.stats.duplicated += 1
            delays.append(self.latency.sample(self._rng))
        return delays

    def send(self, source: str, destination: str, payload: Any) -> None:
        """Send a datagram.  May be silently dropped (loss, partition, dead
        or stale receiver), duplicated, or reordered; delivery order follows
        sampled latencies."""
        self.stats.sent += 1
        delays = self.sample_delays(source, destination)
        if delays is None:
            return
        message = Message(source, destination, payload, self.clock.now)
        stamp = self._incarnations.get(destination, 0)
        for delay in delays:
            self.clock.call_after(
                delay,
                lambda: self._deliver(message, stamp),
                label=f"deliver->{destination}",
            )

    def _deliver(self, message: Message, incarnation: int = 0) -> None:
        # Partition may have formed while the message was in flight.
        if self.partitions and self.partitioned(message.source, message.destination):
            self.stats.dropped_partition += 1
            return
        receiver = self._endpoints.get(message.destination)
        if receiver is None:
            self.stats.dropped_dead += 1
            return
        if self._incarnations.get(message.destination, incarnation) != incarnation:
            # the destination crashed (and recovered) after this datagram was
            # sent: it belongs to a dead incarnation, not the current one
            self.stats.dropped_stale += 1
            return
        self.stats.delivered += 1
        receiver(message)
