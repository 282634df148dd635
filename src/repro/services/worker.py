"""Task worker service: executes task implementations on a node.

Workers are the "application" half of the paper's environment: the execution
service schedules a task, a worker somewhere runs the bound implementation
and sends the result back.  Delivery is at-least-once (the execution service
re-dispatches on timeout), so a worker may execute the same request twice;
the execution service deduplicates results by ``(instance, task path,
execution index)``, and atomicity of the *effects* is the task's own business
(atomic tasks, §4.2) exactly as in the paper.

Marks are forwarded immediately as one-way datagrams so downstream tasks can
start before the producing task finishes (the early-release semantics), and
are also included in the final reply in case the datagram is lost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, TypedDict

from ..core.schema import TaskClass
from ..core.values import ObjectRef
from ..engine.context import PendingExternal, TaskContext
from ..engine.plan import DispatchTemplate
from ..engine.registry import ImplementationRegistry, run_task
from ..net.node import Message, Service
from ..orb.broker import DelayedResult, Interface
from ..sim.crashpoints import crash_point
from .serialization import refs_to_plain, result_to_plain

WORKER_INTERFACE = Interface("TaskWorker", ("execute",))

# Bound on a worker's decoded-template memo; the oldest entry goes first.
_TEMPLATE_MEMO_MAX = 4096


@dataclass(frozen=True)
class ServiceProfile:
    """Finite-capacity model for a worker (docs/PROTOCOLS.md §13).

    ``lanes`` parallel execution lanes, each occupied for ``service_time``
    virtual seconds per task.  A request arriving while every lane is busy
    waits for the earliest lane — the worker's *backlog*, the physical queue
    whose growth the execution service's admission controller exists to
    bound.  ``service_time=0`` (the default) keeps the worker instantaneous,
    which is what every pre-§13 test assumes.
    """

    service_time: float = 0.0
    lanes: int = 1

    def __post_init__(self) -> None:
        if self.service_time < 0:
            raise ValueError("service_time must be >= 0")
        if self.lanes < 1:
            raise ValueError("lanes must be >= 1")


class WorkRequest(TypedDict):
    """One dispatch as it crosses the ORB (docs/PROTOCOLS.md §11): a plain
    dict, so the ORB copies it, but everything in it is immutable except the
    application values inside ``inputs`` — the template and immutable inputs
    cross by reference, and only a mutable input value is copied."""

    instance_id: str
    execution_index: int
    template: DispatchTemplate       # task path, task class, code, clause
    input_set: str
    inputs: Tuple[Tuple[str, ObjectRef], ...]
    attempt: int
    repeats: int
    reply_to: str                    # execution-service node name
    # Fencing epoch of the dispatching execution-service incarnation at send
    # time; 0 means unfenced.  See docs/PROTOCOLS.md §12.
    epoch: int


class TaskWorker(Service):
    """Executes implementations from a local registry.

    The worker resolves the script's abstract ``code`` names against its own
    registry — the late binding of §3.  A script bound as code (§4.4) is an
    implementation like any other: it runs in-process, on this worker.
    """

    def __init__(
        self,
        name: str,
        registry: ImplementationRegistry,
        profile: Optional[ServiceProfile] = None,
    ) -> None:
        super().__init__(name)
        self.registry = registry
        self.profile = profile or ServiceProfile()
        # Virtual time at which each execution lane next frees up.
        self._lane_busy: List[float] = [0.0] * self.profile.lanes
        self.executed: List[Tuple[str, str, int]] = []  # (instance, path, index)
        # Highest fencing epoch seen on any dispatch.  Requests from older
        # epochs are refused without executing: a deposed primary cannot make
        # this worker do (and ack) work behind the current primary's back.
        # Volatile by design — a worker restart re-learns the fence from the
        # first dispatch it sees, and the journal's exactly-once application
        # still holds (fencing here is a liveness/efficiency aid; safety
        # rests on the lease and the journal, see docs/PROTOCOLS.md §12).
        self.fence_epoch = 0
        # dispatch template -> (task class, properties), keyed by value: the
        # same template arrives with every dispatch of its task
        self._decoded: Dict[DispatchTemplate, Tuple[TaskClass, Dict[str, str]]] = {}

    def on_recover(self) -> None:
        # The crash destroyed the backlog: queued-but-unfinished work died
        # with the process, so the lanes come back empty.
        self._lane_busy = [0.0] * self.profile.lanes

    def _occupy_lane(self, reply: Dict[str, Any]) -> Any:
        """Charge this request to the earliest-free lane and delay its reply
        until the lane would actually have finished it."""
        if self.profile.service_time <= 0 or self.node is None:
            return reply
        now = self.node.clock.now
        lane = min(range(len(self._lane_busy)), key=self._lane_busy.__getitem__)
        finish = max(now, self._lane_busy[lane]) + self.profile.service_time
        self._lane_busy[lane] = finish
        return DelayedResult(reply, finish - now)

    def _decode(self, template: DispatchTemplate) -> Tuple[TaskClass, Dict[str, str]]:
        decoded = self._decoded.get(template)
        if decoded is None:
            if len(self._decoded) >= _TEMPLATE_MEMO_MAX:
                del self._decoded[next(iter(self._decoded))]
            decoded = (
                TaskClass.from_wire(template.taskclass),
                dict(template.properties),
            )
            self._decoded[template] = decoded
        return decoded

    def execute(self, request: WorkRequest) -> Dict[str, Any]:
        """Run one task; returns a plain-data reply.

        Reply shape: ``{"ok": bool, "result": ..., "marks": [...],
        "error": str | None}`` plus the request's identity echo.  A request
        carrying a stale fencing epoch gets ``{"ok": False, "fenced": True,
        "epoch": <highest seen>}`` instead, without executing anything.
        """
        template = request["template"]
        task_path = template.task_path
        identity = {
            "instance_id": request["instance_id"],
            "task_path": task_path,
            "execution_index": request["execution_index"],
            # which worker served the request: the execution service's
            # health registry attributes latency/liveness observations to it
            "worker": self.name,
        }
        epoch = request["epoch"]
        if epoch:
            if epoch < self.fence_epoch:
                return {
                    **identity,
                    "ok": False,
                    "fenced": True,
                    "epoch": self.fence_epoch,
                    "error": f"fenced: epoch {epoch} < {self.fence_epoch}",
                    "marks": [],
                }
            self.fence_epoch = epoch
        crash_point("worker.execute.pre", self)
        self.executed.append(
            (request["instance_id"], task_path, request["execution_index"])
        )
        marks: List[Dict[str, Any]] = []

        def mark_sink(mark_name: str, objects) -> None:
            entry = {
                "instance_id": request["instance_id"],
                "task_path": task_path,
                "execution_index": request["execution_index"],
                "name": mark_name,
                "objects": refs_to_plain(objects),
            }
            marks.append(entry)
            # Early release: push the mark out immediately (may be lost; the
            # final reply re-carries it).
            if self.node is not None and self.node.alive:
                self.node.send(
                    request["reply_to"],
                    {"service": "execution", "type": "mark", **entry},
                )

        taskclass, properties = self._decode(template)
        context = TaskContext(
            task_path=task_path,
            taskclass=taskclass,
            input_set=request["input_set"],
            inputs=dict(request["inputs"]),
            properties=properties,  # copied by the context
            attempt=request["attempt"],
            repeats=request["repeats"],
            mark_sink=mark_sink,
            timeout=template.timeout,
        )
        try:
            result = run_task(self.registry, template.code, context)
            if isinstance(result, PendingExternal):
                # interactive / long-running task: parked at the execution
                # service until an external completion arrives
                return self._occupy_lane(
                    {**identity, "ok": True, "external": True, "marks": marks,
                     "error": None}
                )
        except Exception as exc:
            return self._occupy_lane(
                {**identity, "ok": False, "error": repr(exc), "marks": marks}
            )
        # Crash here = the work happened but the reply never left: the
        # at-least-once redispatch will run the task again on some worker,
        # and only the journal's exactly-once application protects the tree.
        crash_point("worker.execute.post", self)
        return self._occupy_lane({
            **identity,
            "ok": True,
            "result": result_to_plain(result),
            "marks": marks,
            "error": None,
        })
