"""Simulated processing nodes.

A :class:`Node` models one machine of the paper's distributed environment.
It owns three things: an endpoint on the network, the services installed on
it (volatile: whatever they hold in memory is lost on crash) and its *stable
storage* — every :class:`~repro.txn.store.ObjectStore` given to it with
:meth:`Node.attach`.  :meth:`Node.crash` is the machine crash, whole: each
attached store loses the unforced suffix of its log and rebuilds its cache
and lock table from what was forced, then the endpoint detaches (datagrams
in flight to the node are dropped, its timers never fire).
:meth:`Node.recover` re-attaches under a new incarnation and runs every
service's ``on_recover`` over those stores.  Nothing else in the tree says
what a crash does to a machine; the "finite number of intervening processor
crashes" the paper's guarantees refer to are injected as nemesis faults,
whose interpreter (:mod:`repro.sim.nemesis`) is what calls these two.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from .clock import EventClock, SimulationError
from .network import Message, Network


class NodeCrashed(RuntimeError):
    """Raised when an operation is attempted on a crashed node."""


class Service:
    """Base class for software hosted on a :class:`Node`.

    Subclasses override :meth:`on_message` for asynchronous datagrams and
    :meth:`on_recover` to rebuild volatile state from stable storage after a
    crash.  Service methods may also be invoked synchronously through the ORB
    (see :mod:`repro.orb`).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.node: Optional["Node"] = None

    def bind(self, node: "Node") -> None:
        self.node = node

    def on_start(self) -> None:
        """Called when the service is first installed on a live node."""

    def on_message(self, message: Message) -> None:
        """Handle a datagram addressed to this service."""

    def on_recover(self) -> None:
        """Called after the hosting node restarts following a crash."""


class Node:
    """One simulated machine: endpoint on the network + service host.

    Volatile state (the services' in-memory attributes) must be rebuilt in
    ``on_recover``; anything that must survive crashes belongs in an attached
    store, forced — the crash takes the rest.
    """

    def __init__(self, name: str, clock: EventClock, network: Network) -> None:
        self.name = name
        self.clock = clock
        self.network = network
        self.alive = True
        self.crash_count = 0
        self._services: Dict[str, Service] = {}
        self._stores: List[Any] = []
        network.attach(name, self._receive, incarnation=self.crash_count)

    # -- service hosting ----------------------------------------------------

    def install(self, service: Service) -> Service:
        if service.name in self._services:
            raise SimulationError(f"service {service.name!r} already installed on {self.name!r}")
        self._services[service.name] = service
        service.bind(self)
        if self.alive:
            service.on_start()
        return service

    def service(self, name: str) -> Service:
        try:
            return self._services[name]
        except KeyError:
            raise SimulationError(f"no service {name!r} on node {self.name!r}") from None

    def services(self) -> List[Service]:
        return list(self._services.values())

    # -- stable storage ---------------------------------------------------------

    def attach(self, store: Any) -> Any:
        """Put ``store`` (an ``ObjectStore``) on this machine's disk: it
        crashes when the node does."""
        self._stores.append(store)
        return store

    def stores(self) -> List[Any]:
        return list(self._stores)

    # -- messaging ------------------------------------------------------------

    def send(self, destination: str, payload: Any) -> None:
        """Send a datagram from this node.  Crashed nodes cannot send."""
        self._check_alive()
        self.network.send(self.name, destination, payload)

    def _receive(self, message: Message) -> None:
        if not self.alive:
            return
        service_name = getattr(message.payload, "service", None)
        if isinstance(message.payload, dict):
            service_name = message.payload.get("service", service_name)
        if service_name and service_name in self._services:
            self._services[service_name].on_message(message)
            return
        # Broadcast to all services when unaddressed; simple and sufficient
        # for the small number of services per node in this system.
        for service in self._services.values():
            service.on_message(message)

    # -- timers -----------------------------------------------------------------

    def call_after(self, delay: float, action: Callable[[], Any], label: str = "") -> None:
        """Schedule a local timer.  The action is suppressed if the node is
        down when it fires (a crashed machine's timers do not run)."""
        self._check_alive()
        epoch = self.crash_count

        def guarded() -> None:
            if self.alive and self.crash_count == epoch:
                action()

        self.clock.call_after(delay, guarded, label=label or f"timer@{self.name}")

    # -- failure model -------------------------------------------------------------

    def crash(self) -> None:
        """Crash the machine: every attached store drops what it had not
        forced, volatile state is lost, in-flight messages to the node will
        be dropped."""
        if not self.alive:
            return
        for store in self._stores:
            store.crash()
        self.alive = False
        self.crash_count += 1
        self.network.detach(self.name)

    def recover(self) -> None:
        """Restart the node and let each service rebuild from stable storage
        (the attached stores, as the crash left them).

        Re-attaching with the bumped ``crash_count`` gives the endpoint a
        fresh incarnation: datagrams stamped for the pre-crash incarnation
        are dropped as stale rather than delivered to the recovered node.
        """
        if self.alive:
            return
        self.alive = True
        self.network.attach(self.name, self._receive, incarnation=self.crash_count)
        for service in self._services.values():
            service.on_recover()

    def _check_alive(self) -> None:
        if not self.alive:
            raise NodeCrashed(f"node {self.name!r} is crashed")
