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

from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple, TypedDict

from ..core.schema import TaskClass
from ..core.values import ObjectRef
from ..engine.context import PendingExternal, TaskContext, TaskResult
from ..engine.plan import DispatchTemplate
from ..engine.registry import ImplementationRegistry, run_task
from ..net.node import Service
from ..orb.broker import DelayedResult, Interface
from ..orb.marshal import BY_REFERENCE, PlainDict, marshal, plain_twin
from ..sim.crashpoints import crash_point

# One operation: a drained batch's requests for this worker, answered in one
# reply leg per finish instant (docs/PROTOCOLS.md §11, §13).
WORKER_INTERFACE = Interface("TaskWorker", ("perform",))

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
    """One dispatch as it crosses the ORB (docs/PROTOCOLS.md §11), built by
    :func:`work_request`: a read-only :class:`PlainDict` when every leaf is
    proven of a by-reference type, which the ORB passes with one test;
    otherwise a plain dict, which takes the walk, and only a mutable input
    value is copied."""

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


class MarkRecord(NamedTuple):
    """One early-released mark, as the worker sent it the moment the
    implementation marked it: a datagram to the execution service, and the
    same record again inside the reply."""

    instance_id: str
    task_path: str
    execution_index: int
    name: str
    objects: Tuple[Tuple[str, ObjectRef], ...]

    service = "execution"  # the node routes the datagram by it


class WorkReply(NamedTuple):
    """A worker's answer to one :class:`WorkRequest`, built by
    :func:`work_reply`.  ``result`` is the task's result in wire form,
    ``(kind name, output name, ((object, ref-or-value), ...))``, or None when
    the task failed, parked itself (``external``) or was refused
    (``fenced``)."""

    instance_id: str
    task_path: str
    execution_index: int
    worker: Optional[str]            # None: a timer task's own reply
    ok: bool
    result: Optional[Tuple[str, str, Tuple[Tuple[str, Any], ...]]]
    marks: Tuple[MarkRecord, ...]
    error: Optional[str]
    external: bool = False
    fenced: bool = False


# The twins a builder returns when it proved a record plain: every leaf of a
# by-reference type, ``ObjectRef``s field by field.
PlainMarkRecord = plain_twin(MarkRecord)
PlainWorkReply = plain_twin(WorkReply)


def _plain_objects(items: Tuple[Tuple[str, Any], ...]) -> bool:
    """The plain proof of a record's objects: every name, every raw value
    and all four fields of every ``ObjectRef`` is of a by-reference type."""
    plain = BY_REFERENCE
    for name, ref in items:
        if type(name) not in plain:
            return False
        if type(ref) is ObjectRef:
            if not (
                type(ref.class_name) in plain and type(ref.value) in plain
                and type(ref.produced_by) in plain and type(ref.via) in plain
            ):
                return False
        elif type(ref) not in plain:
            return False
    return True


def work_request(
    instance_id: str,
    execution_index: int,
    template: DispatchTemplate,
    input_set: str,
    inputs: Dict[str, ObjectRef],
    attempt: int,
    repeats: int,
    reply_to: str,
    epoch: int,
) -> WorkRequest:
    """A dispatch, as a :class:`PlainDict` when every leaf is proven plain."""
    items = tuple(inputs.items())
    proven = BY_REFERENCE.issuperset((
        type(instance_id), type(execution_index), type(template), type(input_set),
        type(attempt), type(repeats), type(reply_to), type(epoch),
    )) and _plain_objects(items)
    # filled by dict's own update: a PlainDict's refuses, and its
    # constructor would walk what was just proven
    request = dict.__new__(PlainDict) if proven else {}
    dict.update(
        request, instance_id=instance_id, execution_index=execution_index,
        template=template, input_set=input_set, inputs=items, attempt=attempt,
        repeats=repeats, reply_to=reply_to, epoch=epoch,
    )
    return request


def mark_record(
    instance_id: str,
    task_path: str,
    execution_index: int,
    name: str,
    objects: Dict[str, ObjectRef],
) -> MarkRecord:
    """A mark, as its plain twin when every leaf is proven plain."""
    items = tuple(objects.items())
    proven = BY_REFERENCE.issuperset(
        (type(instance_id), type(task_path), type(execution_index), type(name))
    ) and _plain_objects(items)
    return tuple.__new__(
        PlainMarkRecord if proven else MarkRecord,
        (instance_id, task_path, execution_index, name, items),
    )


def work_reply(
    instance_id: str,
    task_path: str,
    execution_index: int,
    worker: Optional[str],
    ok: bool,
    result: Optional[TaskResult],
    marks: Sequence[MarkRecord],
    error: Optional[str],
    external: bool = False,
    fenced: bool = False,
) -> WorkReply:
    """A reply carrying ``result`` in wire form, as its plain twin when every
    leaf is proven plain and every mark was."""
    marks = tuple(marks)
    proven = BY_REFERENCE.issuperset((
        type(instance_id), type(task_path), type(execution_index), type(worker),
        type(ok), type(error), type(external), type(fenced),
        *map(type, marks),  # a mark is proven when it is built
    ))
    wire = None
    if result is not None:
        items = tuple(result.objects.items())
        wire = (result.kind._name_, result.name, items)
        proven = proven and type(result.name) in BY_REFERENCE and _plain_objects(items)
    return tuple.__new__(PlainWorkReply if proven else WorkReply, (
        instance_id, task_path, execution_index, worker, ok, wire,
        marks, error, external, fenced,
    ))


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
        # id(template) -> (template, (task class, properties)): the ORB passes
        # a template by reference, so its identity finds it without hashing it;
        # the entry holds the template, so the id is not reused while it lives
        self._decoded: Dict[int, Tuple[DispatchTemplate, Tuple[TaskClass, Dict[str, str]]]] = {}

    def on_recover(self) -> None:
        # The crash destroyed the backlog: queued-but-unfinished work died
        # with the process, so the lanes come back empty.
        self._lane_busy = [0.0] * self.profile.lanes

    def _decode(self, template: DispatchTemplate) -> Tuple[TaskClass, Dict[str, str]]:
        held = self._decoded.get(id(template))
        if held is None:
            if len(self._decoded) >= _TEMPLATE_MEMO_MAX:
                del self._decoded[next(iter(self._decoded))]
            held = self._decoded[id(template)] = (
                template,
                (TaskClass.from_wire(template.taskclass), dict(template.properties)),
            )
        return held[1]

    def perform(self, requests: Tuple[WorkRequest, ...]) -> Any:
        """The ORB operation: run a batch's requests through :meth:`execute`
        in batch order and answer with their replies.

        With no service time every reply leaves together, as one tuple.
        Otherwise each request is charged to the earliest-free lane in batch
        order — what as many separate requests arriving now would pay — and
        the replies leave as a :class:`DelayedResult` with one part per
        finish instant; a refused (``fenced``) reply occupies no lane and
        leaves at once.  A crash point that fires mid-batch ends the batch:
        the rest never runs and no reply leaves."""
        execute = self.execute  # through the instance: a tracer may wrap the method
        service_time = self.profile.service_time
        if service_time <= 0 or self.node is None:
            return tuple(map(execute, requests))
        now = self.node.clock.now
        busy = self._lane_busy
        lanes = range(len(busy))
        parts: Dict[float, List[WorkReply]] = {}
        for request in requests:
            reply = execute(request)
            finish = now
            if not reply.fenced:
                lane = min(lanes, key=busy.__getitem__)
                finish = busy[lane] = max(now, busy[lane]) + service_time
            parts.setdefault(finish, []).append(reply)
        return DelayedResult(
            tuple((finish - now, tuple(replies)) for finish, replies in parts.items())
        )

    def execute(self, request: WorkRequest) -> WorkReply:
        """Run one task; returns its :class:`WorkReply`, which echoes the
        request's identity and names this worker (the execution service's
        health registry attributes latency and liveness to it).  A request
        carrying a stale fencing epoch is refused without executing anything:
        ``fenced`` set, the epochs in its ``error``."""
        template = request["template"]
        task_path = template.task_path
        iid = request["instance_id"]
        index = request["execution_index"]
        epoch = request["epoch"]
        if epoch:
            if epoch < self.fence_epoch:
                return work_reply(
                    iid, task_path, index, self.name, False, None, (),
                    f"fenced: epoch {epoch} < {self.fence_epoch}", fenced=True,
                )
            self.fence_epoch = epoch
        self.executed.append((iid, task_path, index))
        marks: List[MarkRecord] = []

        def mark_sink(mark_name: str, objects: Dict[str, ObjectRef]) -> None:
            mark = mark_record(iid, task_path, index, mark_name, objects)
            if type(mark) is not PlainMarkRecord:
                # crosses as it is now: the implementation may change its
                # objects after marking, and neither leg may see that
                mark = marshal(mark)
            marks.append(mark)
            # Early release: push the mark out immediately (may be lost; the
            # final reply re-carries the same record).
            if self.node is not None and self.node.alive:
                self.node.send(request["reply_to"], mark)

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
                return work_reply(
                    iid, task_path, index, self.name, True, None, marks, None,
                    external=True,
                )
            reply = work_reply(iid, task_path, index, self.name, True, result, marks, None)
            if type(reply) is not PlainWorkReply:
                # copied here, as a mark is: a result the ORB refuses fails
                # the task, not the leg that would carry it
                reply = marshal(reply)
        except Exception as exc:
            return work_reply(iid, task_path, index, self.name, False, None, marks, repr(exc))
        # Crash here = the work happened but the reply never left: the
        # at-least-once redispatch will run the task again on some worker,
        # and only the journal's exactly-once application protects the tree.
        crash_point("worker.execute.post", self)
        return reply
