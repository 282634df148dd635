"""Assembly of the whole workflow management system (paper Fig. 4).

One :class:`WorkflowSystem` builds the simulated world: a repository node, an
execution-service node, a configurable pool of worker nodes and a client
node, all joined by the ORB over the (faulty, partitionable) network.  It
exposes the same client surface the paper's Java-applet administration tools
used: deploy a script, instantiate it, watch it run, reconfigure it — while
experiments crash nodes and drop messages underneath.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
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
from ..settings import from_plain, require, setting
from ..txn.store import ObjectStore
from .execution import EXECUTION_INTERFACE, ExecutionService
from .repository import REPOSITORY_INTERFACE, RepositoryService
from .worker import WORKER_INTERFACE, ServiceProfile, TaskWorker

# The statuses an instance ends in — the one spelling under ``src/repro``.
TERMINAL = ("completed", "aborted", "failed")


@dataclass(frozen=True)
class SystemSpec:
    """One deployment of the simulated system: topology, time scales (virtual
    seconds) and the resilience / overload bundles.  ``WorkflowSystem(spec)``
    builds what it says; the sim harness, the sweeps and the CLI describe a
    system with one of these, and every value is checked here, once."""

    workers: int = setting(2, "worker-node pool size", "count")
    latency: Optional[LatencyModel] = setting(
        None, "per-hop network latency; None is LatencyModel(1.0, 0.5)"
    )
    loss_rate: float = setting(0.0, "message-loss probability", "share")
    seed: int = setting(
        0, "seed for latency and loss, and for recovery stagger when resilience "
        "is None (an explicit ResilienceConfig staggers by its own seed)"
    )
    dispatch_timeout: float = setting(
        30.0, "redispatch interval: a flight unanswered this long after its send is resent", "s"
    )
    sweep_interval: float = setting(10.0, "dispatcher sweep period", "s")
    resilience: Optional[ResilienceConfig] = setting(
        None, "redispatch cap, recovery stagger, breakers, hedging; None is "
        "ResilienceConfig.for_timeouts(dispatch_timeout, sweep_interval, seed=seed)"
    )
    mirror_path: Optional[str] = setting(
        None, "on-disk JSON-lines mirror of the execution WAL, so each fsync "
        "(docs/PROTOCOLS.md §11) has physical cost", "path"
    )
    replicas: int = setting(
        0, "execution-service replicas (docs/PROTOCOLS.md §12); 0 is unreplicated, "
        "N adds a lease arbiter and N-1 hot standbys with fenced failover", "count"
    )
    lease_duration: float = setting(60.0, "primary lease term", "s")
    repl_interval: float = setting(5.0, "log-shipping and lease-renewal tick", "s")
    overload: Optional[OverloadConfig] = setting(
        None, "admission queue, window and shedding (docs/PROTOCOLS.md §13); "
        "None is OverloadConfig()"
    )
    worker_service_time: float = setting(
        0.0, "worker occupancy per task, the capacity that makes overload "
        "possible; 0 keeps workers instantaneous", "s"
    )
    worker_lanes: int = setting(1, "concurrent service lanes per worker", "count")

    def __post_init__(self) -> None:
        require(self, "workers", self.workers >= 1, "must be at least 1")
        require(self, "loss_rate", 0.0 <= self.loss_rate < 1.0, "must be in [0, 1)")
        for name in ("dispatch_timeout", "sweep_interval", "lease_duration", "repl_interval"):
            require(self, name, getattr(self, name) > 0, "must be positive")
        require(self, "replicas", self.replicas >= 0, "must be at least 0")
        require(self, "worker_service_time", self.worker_service_time >= 0, "must be at least 0")
        require(self, "worker_lanes", self.worker_lanes >= 1, "must be at least 1")

    def to_plain(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_plain(cls, data: Mapping[str, Any]) -> "SystemSpec":
        return from_plain(cls, data)


class WorkflowSystem:
    """The full distributed workflow system, simulated on one event clock."""

    def __init__(
        self,
        spec: SystemSpec = SystemSpec(),
        registry: Optional[ImplementationRegistry] = None,
        **changes: Any,
    ) -> None:
        """Build the system ``spec`` describes, with ``changes`` (fields of
        :class:`SystemSpec` by name) applied to it: ``WorkflowSystem(replicas=2)``
        is ``WorkflowSystem(SystemSpec(replicas=2))``.

        Every machine is in ``nodes`` (name -> :class:`Node`, construction
        order) with its stores attached, so a tool that addresses the system
        generically walks that: ``for name, node in system.nodes.items()``
        over ``node.stores()`` / ``node.services()``.  With replicas, the
        first replica wins the bootstrap lease and registers itself under
        the public ``"execution"`` name; the rest hold the log and no
        runtime until they take over with a fresh fencing epoch."""
        self.spec = spec = replace(spec, **changes)
        self.clock = EventClock()
        self.network = Network(
            self.clock, spec.latency or LatencyModel(1.0, 0.5), spec.loss_rate, spec.seed
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
            ServiceProfile(spec.worker_service_time, spec.worker_lanes)
            if spec.worker_service_time > 0
            else None
        )
        for index in range(spec.workers):
            node = self._node(f"worker-node-{index + 1}")
            worker = TaskWorker(f"worker-{index + 1}", self.registry, profile=profile)
            node.install(worker)
            name = f"worker-{index + 1}"
            self.broker.register(name, WORKER_INTERFACE, worker, node)
            self.worker_nodes.append(node)
            self.workers.append(worker)

        self.lease_node: Optional[Node] = None
        self.lease: Optional[LeaseService] = None
        if spec.replicas > 0:
            # The arbiter comes up first: replicas acquire during on_start.
            self.lease_node = self._node("lease-node")
            self.lease_store = self.lease_node.attach(ObjectStore("lease-store"))
            self.lease = LeaseService("lease", self.lease_store, duration=spec.lease_duration)
            self.lease_node.install(self.lease)
            self.broker.register("lease", LEASE_INTERFACE, self.lease, self.lease_node)

        # The execution tier: one unfenced service under the public name, or
        # ``replicas`` fenced ones that take that name by winning the lease.
        settings = dict(
            repository_name="repository",
            worker_names=[worker.name for worker in self.workers],
            sweep_interval=spec.sweep_interval,
            dispatch_timeout=spec.dispatch_timeout,
            resilience=spec.resilience or ResilienceConfig.for_timeouts(
                spec.dispatch_timeout, spec.sweep_interval, seed=spec.seed
            ),
            overload=spec.overload,
        )
        replica_names = [f"execution-r{i + 1}" for i in range(spec.replicas)]
        self.replica_nodes: List[Node] = []
        self.execution_replicas: List[ReplicatedExecutionService] = []
        tier: List[Tuple[Node, ExecutionService]] = []
        for i in range(max(spec.replicas, 1)):
            # replica 1 keeps the unreplicated node name so nemesis schedules
            # written against "execution-node" hit the bootstrap primary
            node = self._node("execution-node" if i == 0 else f"standby-node-{i + 1}")
            store = node.attach(ObjectStore(
                f"execution-store-r{i + 1}" if spec.replicas else "execution-store",
                mirror_path=spec.mirror_path if i == 0 else None,
            ))
            if spec.replicas:
                service = ReplicatedExecutionService(
                    replica_names[i], store, self.broker, lease_name="lease",
                    peer_names=replica_names, repl_interval=spec.repl_interval, **settings,
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
