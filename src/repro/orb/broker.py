"""Object request broker.

The paper's services are CORBA objects reached through an ORB.  Our broker
provides the pieces the workflow system actually relies on:

* **interface declarations** (IDL analogue): a named set of operations, used
  to type-check registrations and invocations;
* **naming**: servants registered under string names, resolvable from
  anywhere;
* **invocation**: synchronous request/reply with marshalled arguments and
  results (plain data and records, :mod:`repro.orb.marshal`), raising
  :class:`CommFailure` when the caller or target node is crashed or
  partitioned — the failure CORBA surfaces as ``COMM_FAILURE`` and
  that the paper says applications "must be prepared to face".

Invocation is modelled synchronously (the simulation's transaction code runs
to completion within one event) but each call *accounts* a round-trip cost,
and :meth:`ObjectBroker.invoke_deferred` offers genuinely asynchronous
messaging where the engine needs it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Optional, Tuple

from ..net.clock import EventClock
from ..net.network import Network
from ..net.node import Node
from .marshal import marshal, marshal_call


class CommFailure(RuntimeError):
    """Communication with the target object failed (node down / partition)."""


class Fenced(CommFailure):
    """The servant refused the invocation because the caller's view of who
    serves this name is stale (e.g. a demoted replication standby).  A
    subclass of :class:`CommFailure` so existing retry logic treats it as a
    transient routing failure — retry after re-resolving — rather than an
    application error (docs/PROTOCOLS.md §12)."""


class Overloaded(CommFailure):
    """The servant refused the invocation because its admission queue is
    full (docs/PROTOCOLS.md §13).  Carries ``retry_after``, a deterministic
    hint (derived from queue depth and controller pressure, never from a
    live RNG) for when the caller should try again.  A subclass of
    :class:`CommFailure` because CORBA surfaces resource exhaustion the same
    way as unreachability — but typed, so cooperative clients can
    distinguish "back off" from "route elsewhere"."""

    def __init__(self, message: str, retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


@dataclass(frozen=True)
class DelayedResult:
    """A servant's way of modelling finite capacity: its answer leaves in
    ``parts``, each ``(delay, value)`` departing ``delay`` simulated seconds
    after the request was delivered (queueing + service time at the
    servant).  The synchronous :meth:`ObjectBroker.invoke` path blocks
    through the longest delay (only accounted, like the rtt) and returns the
    parts' values as one tuple.  The deferred path sends each part as its
    own reply leg — one with no delay at once — and drops a delayed one if
    the servant's node crashes or restarts before the modelled work
    completes, exactly as a real backlog dies with its process."""

    parts: Tuple[Tuple[float, Any], ...]


class BadInterface(TypeError):
    """Servant or invocation does not match the declared interface."""


class ObjectNotFound(LookupError):
    """No servant registered under the requested name."""


@dataclass(frozen=True)
class Interface:
    """IDL-style interface: a name plus its operation names."""

    name: str
    operations: Tuple[str, ...]

    def validate_servant(self, servant: Any) -> None:
        missing = [op for op in self.operations if not callable(getattr(servant, op, None))]
        if missing:
            raise BadInterface(
                f"servant {type(servant).__name__} does not implement "
                f"{self.name} operations: {missing}"
            )

    def validate_operation(self, operation: str) -> None:
        if operation not in self.operations:
            raise BadInterface(f"interface {self.name} has no operation {operation!r}")


@dataclass
class _Registration:
    name: str
    interface: Interface
    servant: Any
    node: Node
    # Optional gatekeeper consulted on every invocation: returns a refusal
    # reason (-> Fenced raised at the caller) or None to admit the call.
    # Replicated services fence all client operations while not primary.
    fence: Optional[Callable[[str], Optional[str]]] = None


@dataclass
class BrokerStats:
    invocations: int = 0
    failures: int = 0
    simulated_rtt: float = 0.0


class ObjectBroker:
    """Naming + invocation for servants hosted on simulated nodes."""

    def __init__(self, clock: EventClock, network: Network, rtt: float = 2.0) -> None:
        self.clock = clock
        self.network = network
        self.rtt = rtt
        self.stats = BrokerStats()
        self._registry: Dict[str, _Registration] = {}

    # -- naming -----------------------------------------------------------------

    def register(
        self,
        name: str,
        interface: Interface,
        servant: Any,
        node: Node,
        fence: Optional[Callable[[str], Optional[str]]] = None,
    ) -> None:
        interface.validate_servant(servant)
        self._registry[name] = _Registration(name, interface, servant, node, fence)

    def resolve(self, name: str) -> _Registration:
        try:
            return self._registry[name]
        except KeyError:
            raise ObjectNotFound(name) from None

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._registry))

    # -- synchronous invocation ---------------------------------------------------

    def invoke(
        self,
        caller: Optional[Node],
        target: str,
        operation: str,
        *args: Any,
        **kwargs: Any,
    ) -> Any:
        """Invoke ``operation`` on the servant named ``target``.

        Arguments and the result cross a marshalling boundary.  Raises
        :class:`CommFailure` if either endpoint is down or the pair is
        partitioned.  An exception raised by the servant propagates to the
        caller as raised; it is not marshalled.
        """
        registration = self.resolve(target)
        registration.interface.validate_operation(operation)
        self.stats.invocations += 1
        remote = caller is None or caller.name != registration.node.name
        if remote:
            if caller is not None and not caller.alive:
                self.stats.failures += 1
                raise CommFailure(f"caller node {caller.name!r} is down")
            if not registration.node.alive:
                self.stats.failures += 1
                raise CommFailure(f"target node {registration.node.name!r} is down")
            if caller is not None and self.network.partitioned(caller.name, registration.node.name):
                self.stats.failures += 1
                raise CommFailure(
                    f"network partition between {caller.name!r} and {registration.node.name!r}"
                )
            self.stats.simulated_rtt += self.rtt
        if registration.fence is not None:
            reason = registration.fence(operation)
            if reason is not None:
                self.stats.failures += 1
                raise Fenced(f"{target}.{operation}: {reason}")
        m_args, m_kwargs = marshal_call(args, kwargs) if remote else (args, kwargs)
        method = getattr(registration.servant, operation)
        result = method(*m_args, **m_kwargs)
        if isinstance(result, DelayedResult):
            # synchronous caller: blocks through the modelled service time
            # (accounted, like the rtt; the event itself runs to completion)
            self.stats.simulated_rtt += max(delay for delay, _value in result.parts)
            result = tuple(value for _delay, value in result.parts)
        return marshal(result) if remote else result

    # -- deferred (asynchronous) invocation ------------------------------------------

    def invoke_deferred(
        self,
        caller: Node,
        target: str,
        operation: str,
        args: Tuple[Any, ...] = (),
        on_reply: Optional[Callable[[Any], None]] = None,
        on_error: Optional[Callable[[Exception], None]] = None,
    ) -> None:
        """Fire-and-callback invocation routed as two one-way messages through
        the (lossy, partitionable) network.  Either callback may never run if
        a message is lost — callers needing reliability must retry.  An
        exception the servant raises reaches ``on_error`` as raised; an
        answer that cannot be marshalled raises at the servant's side."""
        registration = self.resolve(target)
        registration.interface.validate_operation(operation)
        self.stats.invocations += 1
        m_args = tuple(map(marshal, args))

        def perform() -> None:
            if not registration.node.alive:
                return
            if registration.fence is not None:
                # re-evaluated at delivery time: the servant may have been
                # demoted while the request leg was in flight
                reason = registration.fence(operation)
                if reason is not None:
                    self.stats.failures += 1
                    if on_error is not None:
                        failure = Fenced(f"{target}.{operation}: {reason}")
                        self._datagram(
                            registration.node, caller, partial(on_error, failure), "orb-reply"
                        )
                    return
            try:
                outcome = getattr(registration.servant, operation)(*m_args)
            except Exception as exc:  # the error reply carries it as raised
                if on_error is not None:
                    self._datagram(
                        registration.node, caller, partial(on_error, exc), "orb-reply"
                    )
                return
            # each part of the answer is its own reply leg; one with modelled
            # service time departs only when the servant finishes that work —
            # and not at all if its node crashed (or crashed-and-recovered) in
            # the meantime, because the queued work died with the process
            parts = outcome.parts if isinstance(outcome, DelayedResult) else ((0.0, outcome),)
            stamp = registration.node.crash_count
            for delay, value in parts:
                result = marshal(value)
                if on_reply is None:
                    continue
                deliver = partial(on_reply, result)
                if delay <= 0.0:
                    self._datagram(registration.node, caller, deliver, "orb-reply")
                else:
                    self.clock.call_after(
                        delay,
                        partial(self._depart, registration.node, stamp, caller, deliver),
                        label=f"orb-svc:{target}.{operation}",
                    )

        # request leg: rides the datagram network (loss, latency, partitions)
        if not caller.alive:
            raise CommFailure(f"caller node {caller.name!r} is down")
        self._datagram(caller, registration.node, perform, f"orb-req:{target}.{operation}")

    def _depart(
        self, node: Node, stamp: int, caller: Node, deliver: Callable[[], None]
    ) -> None:
        """A delayed part of an answer leaves, if its servant's node is still
        the incarnation that took the work on."""
        if node.alive and node.crash_count == stamp:
            self._datagram(node, caller, deliver, "orb-reply")

    def _datagram(
        self, from_node: Node, to_node: Node, deliver: Callable[[], None], label: str
    ) -> None:
        """One unreliable message leg with the network's failure model.

        Delegates loss/partition/latency/duplication/reordering decisions to
        :meth:`Network.sample_delays` so ORB legs and raw datagrams share a
        single failure model, and stamps the leg with the destination's
        incarnation: a reply addressed to a coordinator that crashed and
        recovered in flight is dropped as stale, exactly like a raw datagram.
        A reply leg needs no guard of its own: ``deliver`` runs only while the
        destination is alive, in the incarnation it was sent to.
        """
        net = self.network
        net.stats.sent += 1
        delays = net.sample_delays(from_node.name, to_node.name)
        if delays is None:
            self.stats.failures += 1
            return
        stamp = to_node.crash_count

        def attempt() -> None:
            if net.partitions and net.partitioned(from_node.name, to_node.name):
                net.stats.dropped_partition += 1
                return
            if not to_node.alive:
                net.stats.dropped_dead += 1
                return
            if to_node.crash_count != stamp:
                net.stats.dropped_stale += 1
                return
            net.stats.delivered += 1
            deliver()

        for delay in delays:
            self.clock.call_after(delay, attempt, label=label)
