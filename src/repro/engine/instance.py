"""Workflow instance semantics: the live tree of task instances.

This module turns a validated :class:`~repro.core.schema.Script` into a tree
of live task instances and drives all engine-independent semantics:

* input satisfaction and deterministic selection (via ``core.selection``),
* the Fig. 3 life-cycle (via ``core.states``),
* event propagation through nested compound scopes,
* compound output mapping, including mark, repeat and abort outputs,
* system-level automatic retries of failed tasks (§3),
* dynamic reconfiguration of the running instance (§3).

Engines (local or distributed) only decide *where and when* ready tasks
execute; everything else lives here, so both engines share one semantics.
"""

from __future__ import annotations

import threading
from collections import deque
from heapq import heapify, heappop, heappush
from typing import (
    Callable,
    Deque,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

from ..core.errors import ExecutionError, ReconfigurationError
from ..core.schema import (
    AnyTaskDecl,
    CompoundTaskDecl,
    InputSetBinding,
    NotificationBinding,
    OutputKind,
    Script,
    TaskClass,
    TaskDecl,
)
from ..core.selection import (
    HOTPATH_STATS,
    EventKind,
    Scope,
    TaskInputTracker,
    WorkflowEvent,
    event_kind_for,
)
from ..core.states import TaskState, TaskStateMachine
from ..core.values import ObjectRef
from .context import TaskResult, coerce_objects
from .events import EventLog, WorkflowStatus
from .plan import (
    DispatchTemplate,
    EventKey,
    ExecutionPlan,
    PlanTracker,
    ScopePlan,
    TaskTable,
    augment_vocabulary,
    compile_node_table,
    compile_scope,
    dispatch_template,
    root_scope_vocabulary,
    watch_binding,
)


class TaskNode:
    """One live task instance (simple)."""

    def __init__(
        self,
        decl: AnyTaskDecl,
        taskclass: TaskClass,
        path: str,
        parent: Optional["CompoundNode"],
        tree: "InstanceTree",
    ) -> None:
        self.decl = decl
        self.taskclass = taskclass
        self.path = path
        self.parent = parent
        self.tree = tree
        self.machine = TaskStateMachine(path, taskclass)
        self.outer_scope: Scope = parent.inner_scope if parent else tree.root_scope
        # compiled input table and dispatch template (plan mode); assigned,
        # with the tracker over the table, by the enclosing scope's plan
        # (re)compilation (or the tree, for the root node)
        self.plan_table: Optional[TaskTable] = None
        self.template: Optional[DispatchTemplate] = None
        if not tree.use_plan:
            self.tracker = self._new_tracker()
        self.alive = True
        self.queued = False
        # drained from the ready queue but not yet begun (concurrent engine):
        # blocks re-enqueueing until the executor claims or releases the node
        self.claimed = False
        self.attempt = 0           # system-retry counter
        self.chosen: Optional[Tuple[str, Dict[str, ObjectRef]]] = None
        # environment-supplied inputs (root task only): override the tracker
        self.env_inputs: Optional[Tuple[str, Dict[str, ObjectRef]]] = None

    # -- structure ---------------------------------------------------------------

    @property
    def local_name(self) -> str:
        return self.decl.name

    @property
    def is_compound(self) -> bool:
        return isinstance(self, CompoundNode)

    def ancestors_executing(self) -> bool:
        node = self.parent
        while node is not None:
            if node.machine.state is not TaskState.EXECUTING:
                return False
            node = node.parent
        return True

    def retry_limit(self) -> int:
        retries = self.decl.implementation.retries
        return self.tree.default_retries if retries is None else retries

    def priority(self) -> int:
        return self.decl.implementation.priority

    # -- input tracking ------------------------------------------------------------

    def interests(self) -> set:
        """Producer names this node's input bindings can ever match — used
        by the tree's event-routing index so an event is only offered to
        nodes that might consume it."""
        names = set()
        for binding in self.decl.input_sets:
            for obj in binding.objects:
                for source in obj.sources:
                    names.add(source.task_name)
            for notif in binding.notifications:
                for source in notif.sources:
                    names.add(source.task_name)
        return names

    def _new_tracker(self) -> Union[TaskInputTracker, PlanTracker]:
        if self.tree.use_plan and self.plan_table is not None:
            return PlanTracker(self.plan_table)
        bindings = self.decl.input_sets
        if not bindings and not self.taskclass.input_sets:
            # A task class without input sets starts unconditionally once its
            # enclosing compound is executing.
            bindings = (InputSetBinding(""),)
        return TaskInputTracker(bindings)

    def reset_inputs(self) -> None:
        """Rebuild the tracker and replay the scope history into it (used
        after repeat outcomes, system retries and reconfiguration)."""
        self.tracker = self._new_tracker()
        self.outer_scope.replay_into(self.tracker)

    def ready(self) -> Optional[Tuple[str, Dict[str, ObjectRef]]]:
        if not self.alive or self.machine.state is not TaskState.WAIT:
            return None
        if not self.ancestors_executing():
            return None
        if self.env_inputs is not None:
            return self.env_inputs
        return self.tracker.ready()

    def deactivate(self) -> None:
        self.alive = False
        # release any drain claim: a claimed node whose ancestor terminates
        # or repeats would otherwise stay claimed forever if the engine never
        # gets around to try_begin_execution (it re-checks readiness anyway)
        self.claimed = False

    def unlink(self) -> None:
        """Cut this dead node out of the reference cycles it closes (node →
        parent → children, node → tree → root, node → scope → owner), so it
        is freed when the last reference to it goes, not at the next cycle
        collection.  Whoever still holds it sees a node that is not alive."""
        self.deactivate()
        self.parent = self.tree = self.outer_scope = None


class CompoundNode(TaskNode):
    """One live compound task instance: children + inner scope + output map."""

    def __init__(
        self,
        decl: CompoundTaskDecl,
        taskclass: TaskClass,
        path: str,
        parent: Optional["CompoundNode"],
        tree: "InstanceTree",
    ) -> None:
        self.inner_scope = Scope(path)  # must exist before children bind to it
        super().__init__(decl, taskclass, path, parent, tree)
        self.children: List[TaskNode] = []
        self._by_name: Dict[str, TaskNode] = {}
        self.output_watchers: List[Union[TaskInputTracker, PlanTracker]] = []
        self.emitted_outputs: set = set()
        # plan mode: firing tables for this compound's inner scope, over
        # positions in ``children`` / ``output_watchers``
        self.plan_routing: Mapping[EventKey, Tuple[int, ...]] = {}
        self.watcher_routing: Optional[Mapping[EventKey, Tuple[int, ...]]] = None
        self._build_inside()

    @property
    def compound_decl(self) -> CompoundTaskDecl:
        return self.decl  # type: ignore[return-value]

    def _build_inside(self) -> None:
        self.inner_scope.owner_node = self
        self.children = [
            self.tree._make_node(child, self) for child in self.compound_decl.tasks
        ]
        if not self.tree.use_plan:
            self._rebuild_watchers()
        self.emitted_outputs = set()
        self._rebuild_routing()

    def _rebuild_routing(self) -> None:
        """Index constituents by name, and by the events they listen to, so
        pump() offers each event only where it can matter (E13 hot path).
        Runs whenever ``children`` changes."""
        self._by_name = {child.local_name: child for child in self.children}
        if self.tree.use_plan:
            self._recompile_plan()
            return
        index: Dict[str, List[TaskNode]] = {}
        for child in self.children:
            for producer in child.interests():
                index.setdefault(producer, []).append(child)
        self.routing = index

    # -- plan compilation (incrementalized hot path) -------------------------

    def _scope_plan(self) -> ScopePlan:
        """This scope's compiled plan: the script's shared one while the
        tree still runs the script it was compiled from, else compiled here
        against the live constituents and the scope's actual history (sound
        under reconfiguration)."""
        shared = self.tree.plan
        if shared is not None:
            return shared.scopes[self.path]
        return compile_scope(
            self.path,
            self.compound_decl,
            self.taskclass,
            [(c.decl, c.taskclass) for c in self.children],
            self.inner_scope.events,
        )

    def _recompile_plan(self) -> None:
        """(Re)install every child's input table, this scope's firing table
        and the output-watcher tables.  Safe to call on a live scope: WAIT
        children get a fresh tracker replayed from the scope history, which
        is observably identical to the tracker state they already held (a
        tracker is a pure fold of its scope's event history)."""
        scope = self._scope_plan()
        self.plan_routing = scope.routing
        for child, table, template in zip(self.children, scope.tables, scope.templates):
            child.plan_table = table
            child.template = template
            if child.alive and child.machine.state is TaskState.WAIT:
                child.reset_inputs()
                self.tree._enqueue_if_ready(child)
        self.watcher_routing = scope.watch_routing
        self._install_watchers([PlanTracker(t) for t in scope.watch_tables])

    def _rebuild_watchers(self) -> None:
        """Interpretive mode's output watchers (plan mode installs its own
        with the rest of the scope, in ``_recompile_plan``)."""
        self._install_watchers(
            [TaskInputTracker([watch_binding(b)]) for b in self.compound_decl.outputs]
        )

    def _install_watchers(
        self, watchers: List[Union[TaskInputTracker, PlanTracker]]
    ) -> None:
        """Fresh output watchers, replayed from the inner scope; emitted
        outputs stay emitted."""
        self.output_watchers = watchers
        for event in self.inner_scope.events:
            for watcher in watchers:
                watcher.offer(event)

    def child(self, name: str) -> Optional[TaskNode]:
        return self._by_name.get(name)

    def reset_inside(self) -> None:
        """Fresh inner world after a repeat outcome: constituents restart from
        scratch with an empty inner event history."""
        for node in self.children:
            node.unlink()
        self.inner_scope.owner_node = None
        self.inner_scope = Scope(self.path)
        self._build_inside()

    def deactivate(self) -> None:
        super().deactivate()
        for node in self.children:
            node.deactivate()

    def unlink(self) -> None:
        super().unlink()
        for node in self.children:
            node.unlink()
        self.children = []
        self._by_name = {}
        self.output_watchers = []
        self.inner_scope.owner_node = None


class SettledRoot(NamedTuple):
    """The root task of a :class:`SettledTree`: where it was, how it ended."""

    path: str
    machine: TaskStateMachine


class SettledTree(NamedTuple):
    """What :meth:`InstanceTree.shed` leaves of a finished instance: its
    verdict, the root task's life-cycle, and a log that still counts every
    event but holds only the root's own (its outcome objects and marks).
    Everything else is a pure function of the instance's journal."""

    status: WorkflowStatus
    error: Optional[str]
    root: SettledRoot
    log: EventLog


class InstanceTree:
    """A running workflow instance (engine-independent semantics).

    All state-mutating entry points (``start``, ``take_ready``,
    ``drain_ready``, ``begin_execution``, ``apply_*``, ``force_abort``,
    ``reconfigure``) serialise on one re-entrant tree lock, so engines may
    call them from several threads; task implementations always run
    *outside* the lock.  Single-threaded engines pay one uncontended
    acquire per call.
    """

    def __init__(
        self,
        script: Script,
        root_task: str,
        log: Optional[EventLog] = None,
        now: Callable[[], float] = lambda: 0.0,
        default_retries: int = 3,
        max_repeats: int = 1000,
        use_plan: bool = True,
        plan: Optional[ExecutionPlan] = None,
    ) -> None:
        if root_task not in script.tasks:
            raise ExecutionError(f"script has no top-level task {root_task!r}")
        self.script = script
        self.log = log or EventLog()
        self.now = now
        self.default_retries = default_retries
        self.max_repeats = max_repeats
        # plan mode (default): route events and track input satisfaction via
        # compiled firing tables/bitmasks; False falls back to the
        # interpretive trackers (kept for differential testing)
        self.use_plan = bool(use_plan)
        # the script's compiled plan, shared read-only with every other tree
        # of the script; usable only for the script and root it was compiled
        # from, and dropped for good at the first reconfiguration
        self.plan = (
            plan
            if plan is not None
            and self.use_plan
            and plan.script is script
            and root_task in plan.root_tasks
            else None
        )
        self.root_scope = Scope("")
        self.lock = threading.RLock()
        self.status = WorkflowStatus.RUNNING
        self.error: Optional[str] = None
        # heap of (-priority, arrival number, node): highest priority first,
        # FIFO within a priority level
        self._ready: List[Tuple[int, int, TaskNode]] = []
        self._arrivals = 0
        self._pending: Deque[Tuple[Scope, str, WorkflowEvent]] = deque()
        self.nodes_created = 0
        self.root = self._make_node(script.tasks[root_task], None)
        if self.use_plan:
            self._compile_root_plan()

    # -- tree construction ------------------------------------------------------------

    def _compile_root_plan(self) -> None:
        """Install the root task's own input table and dispatch template,
        from the shared plan or compiled here — the root scope has a single
        consumer, the root itself."""
        root = self.root
        if self.plan is not None:
            planned = self.plan.by_path[root.path]
            root.plan_table, root.template = planned.table, planned.template
        else:
            vocab = augment_vocabulary(
                root_scope_vocabulary(root.decl, root.taskclass),
                self.root_scope.events,
            )
            root.plan_table = compile_node_table(root.decl, root.taskclass, vocab)
            root.template = dispatch_template(root.path, root.decl, root.taskclass)
        if root.alive and root.machine.state is TaskState.WAIT:
            root.reset_inputs()

    def _make_node(self, decl: AnyTaskDecl, parent: Optional[CompoundNode]) -> TaskNode:
        taskclass = self.script.taskclass_of(decl)
        path = f"{parent.path}/{decl.name}" if parent else decl.name
        self.nodes_created += 1
        if isinstance(decl, CompoundTaskDecl):
            return CompoundNode(decl, taskclass, path, parent, self)
        return TaskNode(decl, taskclass, path, parent, self)

    def walk(self) -> List[TaskNode]:
        result: List[TaskNode] = []

        def visit(node: TaskNode) -> None:
            result.append(node)
            if isinstance(node, CompoundNode):
                for child in node.children:
                    visit(child)

        visit(self.root)
        return result

    def node_at(self, path: str) -> TaskNode:
        parts = [p for p in path.split("/") if p]
        if not parts or parts[0] != self.root.local_name:
            raise ExecutionError(f"no instance at path {path!r}")
        node: TaskNode = self.root
        for part in parts[1:]:
            if not isinstance(node, CompoundNode):
                raise ExecutionError(f"no instance at path {path!r}")
            child = node.child(part)
            if child is None:
                raise ExecutionError(f"no instance at path {path!r}")
            node = child
        return node

    def shed(self) -> SettledTree:
        """Take a finished tree apart and return what is still asked of it.
        Every node, scope, tracker and queued entry is unlinked, so their
        memory returns as the caller drops the tree — by reference count,
        without a cycle collection."""
        with self.lock:
            settled = SettledTree(
                self.status,
                self.error,
                SettledRoot(self.root.path, self.root.machine),
                self.log.shed(self.root.path),
            )
            self.root.unlink()
            self._ready.clear()
            self._pending.clear()
            return settled

    # -- observation ------------------------------------------------------------------

    def attach_sanitizer(self, sanitizer) -> None:
        """Let a :class:`repro.analysis.dynamic.Sanitizer` observe this tree
        (instance-level method wrapping: the unsanitized path stays
        hook-free)."""
        sanitizer.attach_tree(self)

    # -- starting ----------------------------------------------------------------------

    def start(self, input_set: str, inputs: Mapping[str, object]) -> None:
        """Kick off the root task with environment-supplied inputs."""
        with self.lock:
            self._start(input_set, inputs)

    def _start(self, input_set: str, inputs: Mapping[str, object]) -> None:
        spec = self.root.taskclass.input_set(input_set)
        if spec is None and self.root.taskclass.input_sets:
            raise ExecutionError(
                f"root taskclass {self.root.taskclass.name!r} has no input set "
                f"{input_set!r}"
            )
        if spec is None and inputs:
            raise ExecutionError(
                f"root taskclass {self.root.taskclass.name!r} takes no inputs"
            )
        if spec is None:
            input_set = ""
        coerced: Dict[str, ObjectRef] = {}
        if spec is not None:
            declared = {o.name: o for o in spec.objects}
            missing = sorted(set(declared) - set(inputs))
            if missing:
                raise ExecutionError(f"missing root inputs: {missing}")
            for name, value in inputs.items():
                if name not in declared:
                    raise ExecutionError(f"unknown root input {name!r}")
                if isinstance(value, ObjectRef):
                    coerced[name] = value
                else:
                    coerced[name] = ObjectRef(
                        declared[name].class_name, value, "<env>", input_set
                    )
        self.root.env_inputs = (input_set, coerced)
        self._enqueue_if_ready(self.root)
        self._pump()

    def _start_node(
        self, node: TaskNode, input_set: str, inputs: Dict[str, ObjectRef]
    ) -> None:
        node.machine.start()
        node.chosen = (input_set, inputs)
        self._publish(node.outer_scope, node, EventKind.INPUT, input_set, inputs)
        if isinstance(node, CompoundNode):
            # Constituents source the compound's inputs via `if input <set>`.
            self._publish(
                node.inner_scope, node, EventKind.INPUT, input_set, inputs,
                local_name=node.local_name,
            )

    # -- event machinery ------------------------------------------------------------------

    def _publish(
        self,
        scope: Scope,
        node: TaskNode,
        kind: EventKind,
        name: str,
        objects: Mapping[str, ObjectRef],
        local_name: Optional[str] = None,
    ) -> WorkflowEvent:
        producer = local_name or node.local_name
        event = scope.publish(producer, kind, name, objects)
        HOTPATH_STATS.publishes += 1
        self.log.record(self.now(), scope.path, node.path, event)
        self._pending.append((scope, producer, event))
        return event

    def pump(self) -> None:
        """Propagate all pending events to listeners; fill the ready queue."""
        with self.lock:
            self._pump()

    def _pump(self) -> None:
        while self._pending:
            if self.status is not WorkflowStatus.RUNNING:
                self._pending.clear()
                return
            scope, _producer, event = self._pending.popleft()
            owner = self._scope_owner(scope)
            if owner is not None:
                if self.use_plan:
                    # compiled firing table: touch only consumers with a slot
                    # this exact (producer, kind, name) event can advance;
                    # consumers are in child-declaration order, the same
                    # order the interpretive index offers in (skipped ones
                    # would have been no-op offers)
                    key = (event.producer, event.kind, event.name)
                    children = owner.children
                    for position in owner.plan_routing.get(key, ()):
                        child = children[position]
                        if child.alive and child.machine.state is TaskState.WAIT:
                            child.tracker.offer(event)
                            self._enqueue_if_ready(child)
                else:
                    # inner-scope event: offer to interested constituents and
                    # the owner's output watchers (routing index keeps this
                    # sparse)
                    for child in list(owner.routing.get(event.producer, ())):
                        if child.alive and child.machine.state is TaskState.WAIT:
                            child.tracker.offer(event)
                            self._enqueue_if_ready(child)
                self._evaluate_outputs(owner, event)
            else:
                # root scope: only the root listens (self-references included)
                if self.root.alive and self.root.machine.state is TaskState.WAIT:
                    self.root.tracker.offer(event)
                    self._enqueue_if_ready(self.root)

    def _scope_owner(self, scope: Scope) -> Optional[CompoundNode]:
        # CompoundNodes stamp themselves onto the scopes they own.
        return getattr(scope, "owner_node", None)

    def _enqueue_if_ready(self, node: TaskNode) -> None:
        if node.queued or node.claimed:
            return
        readiness = node.ready()
        if readiness is None:
            return
        if isinstance(node, CompoundNode):
            # compounds start internally: no user code runs for them
            input_set, inputs = readiness
            self._start_node(node, input_set, inputs)
            self._scan_children(node)
        else:
            node.queued = True
            self._arrivals += 1
            heappush(self._ready, (-node.priority(), self._arrivals, node))

    def _scan_children(self, compound: CompoundNode) -> None:
        """After a compound starts, children with no (or trivially satisfied)
        dependencies become eligible without any further event."""
        for child in compound.children:
            self._enqueue_if_ready(child)

    def take_ready(self) -> Optional[TaskNode]:
        """Next simple task to execute (highest priority first, FIFO within a
        priority level).  Returns None when nothing is ready."""
        with self.lock:
            self._pump()
            # loop, not recursion: a wide fan-out whose ancestor terminated
            # mid-flight leaves thousands of stale nodes queued, and popping
            # each one recursively would blow the stack (RecursionError)
            while self._ready:
                node = heappop(self._ready)[2]
                node.queued = False
                if node.ready() is None:  # stale (ancestor terminated meanwhile)
                    continue
                return node
            return None

    def drain_ready(self, limit: Optional[int] = None) -> List[TaskNode]:
        """Pop every currently-ready simple task (priority order), up to
        ``limit``.  Drained nodes are *claimed*: they stay out of the ready
        queue until an engine begins them (``try_begin_execution``), so two
        concurrent drains can never hand the same node to two executors."""
        with self.lock:
            batch: List[TaskNode] = []
            while limit is None or len(batch) < limit:
                node = self.take_ready()
                if node is None:
                    break
                node.claimed = True
                batch.append(node)
            return batch

    def peek_ready(self) -> List[TaskNode]:
        """Every simple task currently ready to execute, in the order
        ``take_ready`` would hand them out, without dequeuing or claiming any
        of them.  This *is* the concurrent engine's enablement
        relation: ``drain_ready()`` returns exactly these nodes (claimed),
        and any two of them may run simultaneously.  The static interference
        analysis (:mod:`repro.analysis.interference`) over-approximates the
        set of pairs this method can ever return together."""
        with self.lock:
            self._pump()
            return [
                node for _, _, node in sorted(self._ready) if node.ready() is not None
            ]

    def has_work(self) -> bool:
        with self.lock:
            self._pump()
            return bool(self._ready) and self.status is WorkflowStatus.RUNNING

    # -- applying execution results (called by engines) ------------------------------------

    def begin_execution(self, node: TaskNode) -> Tuple[str, Dict[str, ObjectRef]]:
        """Transition a ready node into EXECUTING; returns (set, inputs)."""
        with self.lock:
            begun = self.try_begin_execution(node)
            if begun is None:
                raise ExecutionError(f"{node.path}: not ready")
            return begun

    def try_begin_execution(
        self, node: TaskNode
    ) -> Optional[Tuple[str, Dict[str, ObjectRef]]]:
        """Like :meth:`begin_execution`, but returns None when the node went
        stale between being dequeued/drained and being begun (an ancestor
        terminated or repeated in the meantime — possible under concurrent
        execution).  Always releases the node's drain claim."""
        with self.lock:
            node.claimed = False
            readiness = node.ready()
            if readiness is None:
                return None
            input_set, inputs = readiness
            self._start_node(node, input_set, inputs)
            return input_set, inputs

    def apply_mark(self, node: TaskNode, name: str, objects: Dict[str, ObjectRef]) -> None:
        with self.lock:
            if not node.alive:
                return
            node.machine.mark(name)
            self._publish(node.outer_scope, node, EventKind.MARK, name, objects)
            self._pump()

    def apply_result(self, node: TaskNode, result: TaskResult) -> None:
        """Apply a terminal/repeat result produced by an implementation."""
        with self.lock:
            if not node.alive or node.machine.state is not TaskState.EXECUTING:
                return  # stale result (e.g. enclosing compound repeated/terminated)
            objects = coerce_objects(node.taskclass, result.name, result.objects, node.path)
            if result.kind is OutputKind.OUTCOME:
                node.machine.complete(result.name)
                self._publish(node.outer_scope, node, EventKind.OUTCOME, result.name, objects)
            elif result.kind is OutputKind.ABORT:
                node.machine.abort(result.name)
                self._publish(node.outer_scope, node, EventKind.ABORT, result.name, objects)
            elif result.kind is OutputKind.REPEAT:
                if node.machine.repeats + 1 > self.max_repeats:
                    self.fail(f"{node.path}: exceeded max_repeats={self.max_repeats}")
                    return
                node.machine.repeat(result.name)
                self._publish(node.outer_scope, node, EventKind.REPEAT, result.name, objects)
                node.reset_inputs()
                self._enqueue_if_ready(node)
            else:
                raise ExecutionError(
                    f"{node.path}: result kind {result.kind} is not terminal"
                )
            self._after_node_event(node)

    def apply_failure(self, node: TaskNode, error: BaseException) -> bool:
        """System-level failure of an executing task.

        Returns True if the task will be retried silently (§3's automatic
        retries); False if the failure was surfaced (abort outcome published
        or workflow failed).
        """
        with self.lock:
            if not node.alive or node.machine.state is not TaskState.EXECUTING:
                return False
            if node.machine.marked:
                # Results already released: cannot pretend nothing happened.
                self.fail(f"{node.path}: failed after producing a mark: {error!r}")
                return False
            node.attempt += 1
            if node.attempt <= node.retry_limit():
                node.machine.system_retry()
                node.reset_inputs()
                self._enqueue_if_ready(node)
                self._pump()
                return True
            aborts = node.taskclass.outputs_of_kind(OutputKind.ABORT)
            if aborts:
                spec = aborts[0]
                objects = {
                    o.name: ObjectRef(o.class_name, None, node.path, spec.name)
                    for o in spec.objects
                }
                node.machine.abort(spec.name)
                self._publish(node.outer_scope, node, EventKind.ABORT, spec.name, objects)
                self._after_node_event(node)
                return False
            self.fail(f"{node.path}: retries exhausted: {error!r}")
            return False

    def force_abort(self, path: str, abort_name: Optional[str] = None) -> None:
        """Abort a task from the outside (timer expiry / user abort, Fig. 3)."""
        with self.lock:
            node = self.node_at(path)
            aborts = node.taskclass.outputs_of_kind(OutputKind.ABORT)
            if abort_name is None:
                if not aborts:
                    raise ExecutionError(f"{path}: taskclass declares no abort outcome")
                abort_name = aborts[0].name
            node.machine.abort(abort_name)
            objects = {
                o.name: ObjectRef(o.class_name, None, node.path, abort_name)
                for o in node.taskclass.output(abort_name).objects
            }
            self._publish(node.outer_scope, node, EventKind.ABORT, abort_name, objects)
            self._after_node_event(node)
            self._pump()

    def _after_node_event(self, node: TaskNode) -> None:
        if node.machine.terminal and isinstance(node, CompoundNode):
            for child in node.children:
                child.deactivate()
        if node is self.root and node.machine.terminal:
            self.status = (
                WorkflowStatus.COMPLETED
                if node.machine.state is TaskState.COMPLETED
                else WorkflowStatus.ABORTED
            )
        self._pump()

    def fail(self, error: str) -> None:
        with self.lock:
            if self.status is WorkflowStatus.RUNNING:
                self.status = WorkflowStatus.FAILED
                self.error = error

    # -- compound output mapping --------------------------------------------------------------

    def _evaluate_outputs(self, compound: CompoundNode, event: WorkflowEvent) -> None:
        if compound.machine.state is not TaskState.EXECUTING:
            return
        decl = compound.compound_decl
        if self.use_plan and compound.watcher_routing is not None:
            # firing table for the output mappings: only watchers with a slot
            # fed by this exact event are touched
            key = (event.producer, event.kind, event.name)
            for position in compound.watcher_routing.get(key, ()):
                compound.output_watchers[position].offer(event)
        else:
            for binding, watcher in zip(decl.outputs, compound.output_watchers):
                watcher.offer(event)
        # marks first (they do not terminate), then repeat, then terminal
        self._emit_satisfied_outputs(compound, OutputKind.MARK)
        if compound.machine.state is not TaskState.EXECUTING:
            return
        if self._emit_satisfied_outputs(compound, OutputKind.REPEAT):
            return
        self._emit_satisfied_outputs(compound, OutputKind.OUTCOME, OutputKind.ABORT)

    def _emit_satisfied_outputs(self, compound: CompoundNode, *kinds: OutputKind) -> bool:
        decl = compound.compound_decl
        for binding, watcher in zip(decl.outputs, compound.output_watchers):
            spec = compound.taskclass.output(binding.name)
            if spec is None or spec.kind not in kinds:
                continue
            if binding.name in compound.emitted_outputs:
                continue
            readiness = watcher.ready()
            if readiness is None:
                continue
            _set_name, raw_objects = readiness
            objects = {
                name: self._retag(value, spec, name, compound)
                for name, value in raw_objects.items()
            }
            compound.emitted_outputs.add(binding.name)
            if spec.kind is OutputKind.MARK:
                compound.machine.mark(binding.name)
                self._publish(
                    compound.outer_scope, compound, EventKind.MARK, binding.name, objects
                )
            elif spec.kind is OutputKind.REPEAT:
                if compound.machine.repeats + 1 > self.max_repeats:
                    self.fail(
                        f"{compound.path}: exceeded max_repeats={self.max_repeats}"
                    )
                    return True
                compound.machine.repeat(binding.name)
                self._publish(
                    compound.outer_scope, compound, EventKind.REPEAT, binding.name, objects
                )
                compound.reset_inside()
                compound.reset_inputs()
                self._enqueue_if_ready(compound)
                return True
            else:
                if spec.kind is OutputKind.OUTCOME:
                    compound.machine.complete(binding.name)
                    kind = EventKind.OUTCOME
                else:
                    compound.machine.abort(binding.name)
                    kind = EventKind.ABORT
                self._publish(
                    compound.outer_scope, compound, kind, binding.name, objects
                )
                self._after_node_event(compound)
                return True
        return False

    def _retag(
        self, value: ObjectRef, spec, name: str, compound: CompoundNode
    ) -> ObjectRef:
        decl = spec.object(name)
        class_name = decl.class_name if decl else value.class_name
        return ObjectRef(class_name, value.value, compound.path, spec.name)

    # -- dynamic reconfiguration -------------------------------------------------------------

    def reconfigure(self, new_script: Script) -> None:
        """Atomically switch the running instance to ``new_script``.

        Rules (mirroring §3): constituents present in both keep their state;
        added constituents join in WAIT and see the scope's full event
        history; removed constituents must not have started; dependency
        changes on waiting tasks take effect immediately (tracker rebuild +
        replay).  Raises :class:`ReconfigurationError` without any effect if
        a rule is violated — the transactional all-or-nothing behaviour.
        """
        with self.lock:
            root_name = self.root.local_name
            if root_name not in new_script.tasks:
                raise ReconfigurationError(
                    f"new script lost the running root task {root_name!r}"
                )
            plan: List[Callable[[], None]] = []
            self._plan_reconfigure(
                self.root, new_script.tasks[root_name], new_script, plan
            )
            # all checks passed: apply
            self.script = new_script
            # the shared plan describes the script this tree was built from;
            # from here on the tree compiles its own tables against its live
            # scopes, even if a later reconfiguration restores that script
            self.plan = None
            for action in plan:
                action()
            # a queued task's priority may have changed with its declaration
            self._ready = [
                (-node.priority(), arrival, node) for _, arrival, node in self._ready
            ]
            heapify(self._ready)
            if self.use_plan:
                # Recompile every live scope: a decl change anywhere can alter
                # the event vocabulary siblings were compiled against (e.g. a
                # compound's output mappings feed its siblings' firing
                # tables).  Scope histories are folded into the vocabulary,
                # so replayed trackers cannot lose past matches.
                self._compile_root_plan()
                for node in self.walk():
                    if isinstance(node, CompoundNode) and node.alive:
                        node._recompile_plan()
            self._pump()

    def _plan_reconfigure(
        self,
        node: TaskNode,
        new_decl: AnyTaskDecl,
        new_script: Script,
        plan: List[Callable[[], None]],
    ) -> None:
        if new_decl.taskclass_name != node.decl.taskclass_name:
            raise ReconfigurationError(
                f"{node.path}: cannot change taskclass of a live instance"
            )
        inputs_changed = new_decl.input_sets != node.decl.input_sets

        def update_decl(n: TaskNode = node, d: AnyTaskDecl = new_decl, ic: bool = inputs_changed) -> None:
            n.decl = d
            if ic:
                if isinstance(n.parent, CompoundNode):
                    n.parent._rebuild_routing()
                if n.machine.state is TaskState.WAIT:
                    n.reset_inputs()
                    self._enqueue_if_ready(n)

        plan.append(update_decl)
        if isinstance(node, CompoundNode):
            if not isinstance(new_decl, CompoundTaskDecl):
                raise ReconfigurationError(
                    f"{node.path}: cannot change compound into simple task"
                )
            old_names = {c.local_name for c in node.children}
            new_names = {t.name for t in new_decl.tasks}
            for removed in sorted(old_names - new_names):
                child = node.child(removed)
                if child is not None and child.machine.starts > 0:
                    raise ReconfigurationError(
                        f"{child.path}: cannot remove a task that already started"
                    )

                def drop(c: CompoundNode = node, name: str = removed) -> None:
                    victim = c.child(name)
                    if victim is not None:
                        victim.deactivate()
                        c.children.remove(victim)
                        c._rebuild_routing()

                plan.append(drop)
            for child in node.children:
                if child.local_name in new_names:
                    self._plan_reconfigure(
                        child, new_decl.task(child.local_name), new_script, plan
                    )
            for added in [t for t in new_decl.tasks if t.name not in old_names]:

                def grow(c: CompoundNode = node, d: AnyTaskDecl = added) -> None:
                    fresh = self._make_node(d, c)
                    c.children.append(fresh)
                    c._rebuild_routing()
                    c.inner_scope.replay_into(fresh.tracker)
                    self._enqueue_if_ready(fresh)

                plan.append(grow)
            if not self.use_plan and new_decl.outputs != node.compound_decl.outputs:
                # (plan mode recompiles every live scope, watchers included,
                # once all actions have run)

                def rewatch(c: CompoundNode = node) -> None:
                    # c.decl is already the new decl (update_decl ran first)
                    c._rebuild_watchers()

                plan.append(rewatch)
