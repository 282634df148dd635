"""Assembly of the whole workflow management system (paper Fig. 4).

One :class:`WorkflowSystem` builds the simulated world: a repository node, an
execution-service node, a configurable pool of worker nodes and a client
node, all joined by the ORB over the (faulty, partitionable) network.  It
exposes the same client surface the paper's Java-applet administration tools
used: deploy a script, instantiate it, watch it run, reconfigure it — while
experiments crash nodes and drop messages underneath.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..engine.registry import ImplementationRegistry
from ..net.clock import EventClock
from ..net.network import LatencyModel, Network
from ..net.node import Node
from ..orb.broker import CommFailure, ObjectBroker, Overloaded
from ..orb.proxy import Proxy
from ..overload import OverloadConfig
from ..replication import (
    LEASE_INTERFACE,
    LeaseService,
    REPLICA_INTERFACE,
    ReplicatedExecutionService,
)
from ..resilience import ResilienceConfig
from ..txn.store import ObjectStore
from .execution import EXECUTION_INTERFACE, ExecutionService
from .repository import REPOSITORY_INTERFACE, RepositoryService
from .worker import WORKER_INTERFACE, ServiceProfile, TaskWorker

# The statuses an instance ends in — the one spelling under ``src/repro``.
TERMINAL = ("completed", "aborted", "failed")


class WorkflowSystem:
    """The full distributed workflow system, simulated on one event clock."""

    def __init__(
        self,
        workers: int = 2,
        latency: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
        seed: int = 0,
        dispatch_timeout: float = 30.0,
        sweep_interval: float = 10.0,
        registry: Optional[ImplementationRegistry] = None,
        resilience: Optional[ResilienceConfig] = None,
        mirror_path: Optional[str] = None,
        replicas: int = 0,
        lease_duration: float = 60.0,
        repl_interval: float = 5.0,
        overload: Optional[OverloadConfig] = None,
        worker_service_time: float = 0.0,
        worker_lanes: int = 1,
    ) -> None:
        """``resilience`` tunes the adaptive dispatch layer (backoff, circuit
        breakers, health routing, hedging).  Defaults to
        ``ResilienceConfig.for_timeouts(dispatch_timeout, sweep_interval,
        seed=seed)``.

        ``mirror_path`` attaches a real on-disk JSON-lines mirror to the
        execution store's WAL, so its fsyncs (one per durability barrier,
        docs/PROTOCOLS.md §11) have physical cost; benchmarks use this to
        measure fsyncs/step honestly.

        ``replicas`` > 0 builds a replicated execution service instead of a
        standalone one (docs/PROTOCOLS.md §12): that many
        :class:`~repro.replication.ReplicatedExecutionService` copies — one
        per node — plus a :class:`~repro.replication.LeaseService` arbiter.
        The first replica wins the bootstrap lease and registers itself under
        the public ``"execution"`` name; the rest follow its WAL as standbys
        — they hold the log and no runtime — and take over (with a fresh
        fencing epoch, rebuilding the open instances from their own store)
        when the lease lapses.  ``replicas=0`` is the unreplicated layout.

        ``overload`` tunes the admission layer (docs/PROTOCOLS.md §13):
        bounded admission queue, adaptive concurrency window and priority
        shedding on the execution service.  ``worker_service_time`` /
        ``worker_lanes`` give every worker a finite-capacity profile (each
        task occupies one of ``worker_lanes`` lanes for
        ``worker_service_time`` virtual seconds) — 0 keeps workers
        instantaneous.

        Every machine is in ``nodes`` (name -> :class:`Node`, construction
        order) with its stores attached, so a tool that addresses the system
        generically walks that: ``for name, node in system.nodes.items()``
        over ``node.stores()`` / ``node.services()``."""
        self.clock = EventClock()
        self.network = Network(
            self.clock, latency or LatencyModel(1.0, 0.5), loss_rate, seed
        )
        self.broker = ObjectBroker(self.clock, self.network)
        self.registry = registry or ImplementationRegistry()
        self.nodes: Dict[str, Node] = {}

        self.repository_node = self._node("repository-node")
        self.repository_store = self.repository_node.attach(ObjectStore("repository-store"))
        self.repository = RepositoryService("repository", self.repository_store)
        self.repository_node.install(self.repository)
        self.broker.register(
            "repository", REPOSITORY_INTERFACE, self.repository, self.repository_node
        )

        self.worker_nodes: List[Node] = []
        self.workers: List[TaskWorker] = []
        profile = (
            ServiceProfile(worker_service_time, worker_lanes)
            if worker_service_time > 0
            else None
        )
        for index in range(workers):
            node = self._node(f"worker-node-{index + 1}")
            worker = TaskWorker(f"worker-{index + 1}", self.registry, profile=profile)
            node.install(worker)
            name = f"worker-{index + 1}"
            self.broker.register(name, WORKER_INTERFACE, worker, node)
            self.worker_nodes.append(node)
            self.workers.append(worker)

        self.lease_node: Optional[Node] = None
        self.lease: Optional[LeaseService] = None
        if replicas > 0:
            # The arbiter comes up first: replicas acquire during on_start.
            self.lease_node = self._node("lease-node")
            self.lease_store = self.lease_node.attach(ObjectStore("lease-store"))
            self.lease = LeaseService("lease", self.lease_store, duration=lease_duration)
            self.lease_node.install(self.lease)
            self.broker.register("lease", LEASE_INTERFACE, self.lease, self.lease_node)

        # The execution tier: one unfenced service under the public name, or
        # ``replicas`` fenced ones that take that name by winning the lease.
        settings = dict(
            repository_name="repository",
            worker_names=[worker.name for worker in self.workers],
            sweep_interval=sweep_interval,
            resilience=resilience
            or ResilienceConfig.for_timeouts(dispatch_timeout, sweep_interval, seed=seed),
            overload=overload,
        )
        replica_names = [f"execution-r{i + 1}" for i in range(replicas)]
        self.replica_nodes: List[Node] = []
        self.execution_replicas: List[ReplicatedExecutionService] = []
        tier: List[Tuple[Node, ExecutionService]] = []
        for i in range(max(replicas, 1)):
            # replica 1 keeps the unreplicated node name so nemesis schedules
            # written against "execution-node" hit the bootstrap primary
            node = self._node("execution-node" if i == 0 else f"standby-node-{i + 1}")
            store = node.attach(ObjectStore(
                f"execution-store-r{i + 1}" if replicas else "execution-store",
                mirror_path=mirror_path if i == 0 else None,
            ))
            if replicas:
                service = ReplicatedExecutionService(
                    replica_names[i], store, self.broker, lease_name="lease",
                    peer_names=replica_names, repl_interval=repl_interval, **settings,
                )
                self.replica_nodes.append(node)
                self.execution_replicas.append(service)
                interface, fence = REPLICA_INTERFACE, service._fence
            else:
                service = ExecutionService("execution", store, self.broker, **settings)
                interface, fence = EXECUTION_INTERFACE, None
            # reachable under its own name before any on_start runs, so the
            # bootstrap primary can ship to standbys installed after it
            self.broker.register(service.name, interface, service, node, fence=fence)
            tier.append((node, service))
        for node, service in tier:
            node.install(service)  # replica 1 wins the bootstrap lease
        self.execution_node, self.execution = tier[0]
        self.execution_store = self.execution.store

        self.client_node = self._node("client-node")
        # the system's own client: one stateless proxy per public name
        self._repository_client = Proxy(self.broker, self.client_node, "repository")
        self._execution_client = Proxy(self.broker, self.client_node, "execution")

    def _node(self, name: str) -> Node:
        node = self.nodes[name] = Node(name, self.clock, self.network)
        return node

    def primary_execution(self) -> Optional[ExecutionService]:
        """The execution service currently owning the instances: the live
        primary replica when replicated, the single service otherwise (or
        None while no live primary exists — e.g. mid-failover)."""
        for service in self.execution_replicas or (self.execution,):
            if service.node.alive and service.is_primary():
                return service
        return None

    def fate(self, iid: str) -> Optional[Dict[str, Any]]:
        """An instance's status / outcome / error, read directly off the
        current primary (not through the ORB, so watching does not perturb
        the experiment) — or None while there is no primary or the instance
        is not there (not yet recovered, or not yet replicated over)."""
        service = self.primary_execution()
        runtime = service.runtimes.get(iid) if service is not None else None
        if runtime is None:
            return None
        tree = runtime.tree
        return {
            "status": tree.status.value,
            "outcome": tree.root.machine.outcome,
            "error": tree.error,
        }

    # -- client-side proxies (what the paper's browser tools talk to) ----------------

    def repository_proxy(self, from_node: Optional[Node] = None) -> Proxy:
        if from_node is None:
            return self._repository_client
        return Proxy(self.broker, from_node, "repository")

    def execution_proxy(self, from_node: Optional[Node] = None) -> Proxy:
        if from_node is None:
            return self._execution_client
        return Proxy(self.broker, from_node, "execution")

    # -- convenience client operations ---------------------------------------------------

    def deploy(self, script_name: str, text: str) -> int:
        return self.repository_proxy().store_script(script_name, text)

    def instantiate(
        self,
        script_name: str,
        root_task: str,
        inputs: Optional[Mapping[str, Any]] = None,
        input_set: str = "main",
    ) -> str:
        if not self.execution_replicas:
            return self.execution_proxy().instantiate(
                script_name, root_task, input_set, dict(inputs or {})
            )
        # Replicated: the "execution" alias may momentarily point at a dead
        # or demoted replica mid-failover; retry across lease turnover like
        # any CORBA client facing COMM_FAILURE would.
        last: Optional[Exception] = None
        for _attempt in range(40):
            try:
                return self.execution_proxy().instantiate(
                    script_name, root_task, input_set, dict(inputs or {})
                )
            except Overloaded:
                # A backpressure refusal is not a failover: surface it to the
                # caller's cooperative backoff instead of hammering the
                # primary 40 more times (Overloaded subclasses CommFailure).
                raise
            except CommFailure as exc:
                last = exc
                self.clock.advance(self.execution.repl_interval)
        raise last if last is not None else CommFailure("no primary")

    def status(self, iid: str) -> Dict[str, Any]:
        return self.execution_proxy().status(iid)

    def result(self, iid: str) -> Dict[str, Any]:
        return self.execution_proxy().result(iid)

    def run_until_terminal(
        self, iid: str, max_time: float = 100_000.0, check_every: float = 25.0
    ) -> Dict[str, Any]:
        """Advance simulated time until the instance terminates (or the time
        budget runs out — the result then reports its last observed state).

        Status is read with :meth:`fate`, not through the ORB; when the
        execution node is down the system simply keeps running time forward,
        exactly as an operator would wait out an outage.
        """
        clock = self.clock
        now = clock.now
        deadline = now + max_time
        while now < deadline:
            now += check_every
            clock.run(until=now)  # lands on ``until`` exactly: ``now`` stays the clock's
            fate = self.fate(iid)
            if fate is not None and fate["status"] in TERMINAL:
                break
        service = self.primary_execution()
        if service is not None and iid in service.runtimes:
            return service.result(iid)
        return {"instance": iid, "status": "lost", "outcome": None, "objects": {},
                "marks": [], "error": "instance not present on execution node"}
