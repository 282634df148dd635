"""Workflow instance semantics: the live tree of task instances.

This module turns a validated :class:`~repro.core.schema.Script` into a tree
of live task instances and drives all engine-independent semantics:

* input satisfaction and deterministic selection (``engine.plan``'s
  compiled trackers, held to the ``core.selection`` specification),
* the Fig. 3 life-cycle (via ``core.states``),
* event propagation through nested compound scopes,
* compound output mapping, including mark, repeat and abort outputs,
* system-level automatic retries of failed tasks (§3),
* dynamic reconfiguration of the running instance (§3).

Engines (local or distributed) only decide *where and when* ready tasks
execute; everything else lives here, so both engines share one semantics.
"""

from __future__ import annotations

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
)

from ..core.errors import ExecutionError, ReconfigurationError
from ..core.schema import (
    AnyTaskDecl,
    CompoundTaskDecl,
    OutputKind,
    Script,
    TaskClass,
)
from ..core.selection import (
    HOTPATH_STATS,
    EventKind,
    Scope,
    WorkflowEvent,
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
        # compiled input table and dispatch template; assigned, with the
        # tracker over the table, by the enclosing scope's plan
        # (re)compilation (or the tree, for the root node)
        self.plan_table: Optional[TaskTable] = None
        self.template: Optional[DispatchTemplate] = None
        self.alive = True
        self.queued = False
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

    def retry_limit(self) -> int:
        retries = self.decl.implementation.retries
        return self.tree.default_retries if retries is None else retries

    def priority(self) -> int:
        return self.decl.implementation.priority

    # -- input tracking ------------------------------------------------------------

    def reset_inputs(self) -> None:
        """A fresh tracker over the node's compiled table, replayed from the
        scope history (at install, and after repeat outcomes, system retries
        and reconfiguration)."""
        self.tracker = PlanTracker(self.plan_table)
        if self.outer_scope.events:  # a tree being built has no history yet
            self.outer_scope.replay_into(self.tracker)

    def startable(self) -> bool:
        """Whether :meth:`ready` answers, without building the inputs."""
        if not self.alive or self.machine.state is not TaskState.WAIT:
            return False
        node = self.parent
        while node is not None:  # every ancestor executing
            if node.machine.state is not TaskState.EXECUTING:
                return False
            node = node.parent
        return self.env_inputs is not None or self.tracker.satisfied

    def ready(self) -> Optional[Tuple[str, Dict[str, ObjectRef]]]:
        if not self.startable():
            return None
        if self.env_inputs is not None:
            return self.env_inputs
        return self.tracker.ready()

    def deactivate(self) -> None:
        self.alive = False

    def unlink(self) -> None:
        """Cut this dead node out of the reference cycles it closes (node →
        parent → children, node → tree → root, node → scope → owner), so it
        is freed when the last reference to it goes, not at the next cycle
        collection.  Whoever still holds it sees a node that is not alive."""
        self.alive = False
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
        self.output_watchers: List[PlanTracker] = []
        # set whenever the watchers are (re)installed: an output satisfied
        # at install time (a mapping with no sources, or one the replayed
        # history fills) is due without any offer changing it, so the next
        # look scans them all
        self.watchers_installed = True
        self.emitted_outputs: set = set()
        # firing tables for this compound's inner scope, over positions in
        # ``children`` / ``output_watchers``
        self.plan_routing: Mapping[EventKey, Tuple[int, ...]] = {}
        self.watcher_routing: Mapping[EventKey, Tuple[int, ...]] = {}
        self._build_inside()

    @property
    def compound_decl(self) -> CompoundTaskDecl:
        return self.decl  # type: ignore[return-value]

    def _build_inside(self) -> None:
        self.inner_scope.owner_node = self
        self.children = [
            self.tree._make_node(child, self) for child in self.compound_decl.tasks
        ]
        self.emitted_outputs = set()
        self._recompile_plan()

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
        """Index the constituents by name and (re)install every child's
        input table, this scope's firing table and the output watchers, each
        replayed from the scope history (emitted outputs stay emitted).  Runs
        whenever ``children`` changes, and is safe on a live scope: a
        tracker is a pure fold of its scope's history, so a WAIT child's
        fresh one holds the state the old one did."""
        self._by_name = {child.decl.name: child for child in self.children}
        scope = self._scope_plan()
        self.plan_routing = scope.routing
        for child, table, template in zip(self.children, scope.tables, scope.templates):
            child.plan_table = table
            child.template = template
            if child.alive and child.machine.state is TaskState.WAIT:
                child.reset_inputs()
                if child.tracker.satisfied:  # only a satisfied child can start
                    self.tree._enqueue_if_ready(child)
        self.watcher_routing = scope.watch_routing
        self.output_watchers = watchers = [PlanTracker(t) for t in scope.watch_tables]
        self.watchers_installed = True
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
        """One pass over the subtree: each node is marked dead once, by its
        own ``unlink``."""
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

    Single-threaded: an engine calls ``start``, then ``begin_next`` for each
    task it runs and ``apply_*`` with what the task did.  Concurrency is
    tasks on different worker nodes, never two threads in one tree
    (docs/PROTOCOLS.md §6).
    """

    def __init__(
        self,
        script: Script,
        root_task: str,
        log: Optional[EventLog] = None,
        now: Callable[[], float] = lambda: 0.0,
        default_retries: int = 3,
        max_repeats: int = 1000,
        plan: Optional[ExecutionPlan] = None,
    ) -> None:
        if root_task not in script.tasks:
            raise ExecutionError(f"script has no top-level task {root_task!r}")
        self.script = script
        self.log = log or EventLog()
        self.now = now
        self.default_retries = default_retries
        self.max_repeats = max_repeats
        # the script's compiled plan, shared read-only with every other tree
        # of the script; usable only for the script and root it was compiled
        # from, and dropped for good at the first reconfiguration
        self.plan = (
            plan
            if plan is not None and plan.script is script and root_task in plan.root_tasks
            else None
        )
        self.root_scope = Scope("")
        self.status = WorkflowStatus.RUNNING
        self.error: Optional[str] = None
        # heap of (-priority, arrival number, node): highest priority first,
        # FIFO within a priority level; empty between tree calls: nothing is ready
        self.ready_heap: List[Tuple[int, int, TaskNode]] = []
        self._arrivals = 0
        self._pending: Deque[Tuple[Scope, str, WorkflowEvent]] = deque()
        self.nodes_created = 0
        self.root = self._make_node(script.tasks[root_task], None)
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

    def find(self, path: str) -> Optional[TaskNode]:
        """The node at ``path`` (empty levels skipped), or ``None``."""
        parts = filter(None, path.split("/"))
        node: Optional[TaskNode] = self.root
        if next(parts, None) != node.decl.name:
            return None
        for part in parts:
            if not isinstance(node, CompoundNode):
                return None
            node = node.child(part)
            if node is None:
                return None
        return node

    def node_at(self, path: str) -> TaskNode:
        node = self.find(path)
        if node is None:
            raise ExecutionError(f"no instance at path {path!r}")
        return node

    def shed(self) -> SettledTree:
        """Take a finished tree apart and return what is still asked of it.
        Every node, scope, tracker and queued entry is unlinked, so their
        memory returns as the caller drops the tree — by reference count,
        without a cycle collection."""
        settled = SettledTree(
            self.status,
            self.error,
            SettledRoot(self.root.path, self.root.machine),
            self.log.shed(self.root.path),
        )
        self.root.unlink()
        self.ready_heap.clear()
        self._pending.clear()
        return settled

    # -- starting ----------------------------------------------------------------------

    def start(self, input_set: str, inputs: Mapping[str, object]) -> None:
        """Kick off the root task with environment-supplied inputs."""
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
            self._publish(node.inner_scope, node, EventKind.INPUT, input_set, inputs)

    # -- event machinery ------------------------------------------------------------------

    def _publish(
        self,
        scope: Scope,
        node: TaskNode,
        kind: EventKind,
        name: str,
        objects: Mapping[str, ObjectRef],
    ) -> WorkflowEvent:
        producer = node.decl.name  # the scope-local name, in either scope
        event = scope.publish(producer, kind, name, objects)
        HOTPATH_STATS.publishes += 1
        self.log.record(self.now(), scope.path, node.path, event)
        self._pending.append((scope, producer, event))
        return event

    def _pump(self) -> None:
        """Propagate all pending events to listeners; fill the ready queue.

        A waiting consumer is queued only on the offer that flips its
        tracker to satisfied.  One satisfied before is queued already, or
        waits for an ancestor to start (``_scan_children`` queues it then);
        it is still offered the event, since a better alternative may
        arrive before it starts."""
        while self._pending:
            if self.status is not WorkflowStatus.RUNNING:
                self._pending.clear()
                return
            scope, _producer, event = self._pending.popleft()
            owner = scope.owner_node
            if owner is not None:
                # compiled firing table: touch only consumers with a slot this
                # exact (producer, kind, name) event can advance, in
                # child-declaration order; for any other consumer the offer
                # would change nothing
                key = (event.producer, event.kind, event.name)
                children = owner.children
                for position in owner.plan_routing.get(key, ()):
                    child = children[position]
                    if child.alive and child.machine.state is TaskState.WAIT:
                        tracker = child.tracker
                        if tracker.satisfied:
                            tracker.offer(event)
                        elif tracker.offer(event) and tracker.satisfied:
                            self._enqueue_if_ready(child)
                # an output can become due only through a watcher this event
                # routes to, or through watchers installed since the last look
                if owner.watchers_installed or key in owner.watcher_routing:
                    self._evaluate_outputs(owner, event)
            else:
                # root scope: only the root listens (self-references included)
                root = self.root
                if root.alive and root.machine.state is TaskState.WAIT:
                    tracker = root.tracker
                    if tracker.satisfied:
                        tracker.offer(event)
                    elif tracker.offer(event) and tracker.satisfied:
                        self._enqueue_if_ready(root)

    def _enqueue_if_ready(self, node: TaskNode) -> None:
        if node.queued:
            return
        if isinstance(node, CompoundNode):
            # compounds start internally: no user code runs for them
            readiness = node.ready()
            if readiness is not None:
                self._start_node(node, *readiness)
                self._scan_children(node)
        elif node.startable():
            # queued by the mask alone: its inputs are chosen when it starts
            node.queued = True
            self._arrivals += 1
            heappush(self.ready_heap, (-node.priority(), self._arrivals, node))

    def _scan_children(self, compound: CompoundNode) -> None:
        """After a compound starts, children already satisfied (no inputs, or
        a set with no slots) become eligible without any further event; the
        rest are queued by ``_pump`` when their tracker flips.  Environment
        inputs are the root's alone, and the root is nobody's child."""
        for child in compound.children:
            if child.tracker.satisfied:
                self._enqueue_if_ready(child)

    def begin_next(self) -> Optional[Tuple[TaskNode, Tuple[str, Dict[str, ObjectRef]]]]:
        """Dequeue the next simple task (highest priority first, FIFO within
        a priority level) and start it; returns it with the (set, inputs) it
        started on, chosen here from what it holds now, or None."""
        self._pump()
        # loop, not recursion: a wide fan-out whose ancestor terminated
        # mid-flight leaves thousands of stale nodes queued, and popping
        # each one recursively would blow the stack (RecursionError)
        while self.ready_heap:
            node = heappop(self.ready_heap)[2]
            node.queued = False
            readiness = node.ready()
            if readiness is None:  # stale (ancestor terminated meanwhile)
                continue
            self._start_node(node, *readiness)
            return node, readiness
        return None

    def peek_ready(self) -> List[TaskNode]:
        """Every simple task currently ready to execute, in the order
        ``begin_next`` would hand them out, without dequeuing any of them —
        the set one pass of ``ExecutionService._drain`` puts in flight
        together.  The enablement relation the static interference
        analysis bounds (:func:`repro.analysis.interference.enabled_pairs`)
        is read off this list."""
        self._pump()
        return [node for _, _, node in sorted(self.ready_heap) if node.startable()]

    def has_work(self) -> bool:
        """Is a task ready to run?  Stale heads are dropped as ``begin_next``
        drops them: a queue of dead nodes holds no work."""
        self._pump()
        ready = self.ready_heap
        while ready and not ready[0][2].startable():
            heappop(ready)[2].queued = False
        return bool(ready) and self.status is WorkflowStatus.RUNNING

    # -- applying execution results (called by engines) ------------------------------------

    def apply_mark(self, node: TaskNode, name: str, objects: Dict[str, ObjectRef]) -> None:
        if not node.alive:
            return
        node.machine.mark(name)
        self._publish(node.outer_scope, node, EventKind.MARK, name, objects)
        self._pump()

    def apply_result(self, node: TaskNode, result: TaskResult) -> None:
        """Apply a terminal/repeat result produced by an implementation."""
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
        if self.status is WorkflowStatus.RUNNING:
            self.status = WorkflowStatus.FAILED
            self.error = error

    # -- compound output mapping --------------------------------------------------------------

    def _evaluate_outputs(self, compound: CompoundNode, event: WorkflowEvent) -> None:
        if compound.machine.state is not TaskState.EXECUTING:
            return
        # A look at the outputs emits every due one (or leaves EXECUTING), so
        # an output can only have become due since the last look where this
        # event's offer changed a watcher, or where the watchers were
        # installed since — the compound's own start is the first event then.
        changed = compound.watchers_installed
        watchers = compound.output_watchers
        # firing table for the output mappings: only watchers with a slot fed
        # by this exact event are touched
        key = (event.producer, event.kind, event.name)
        for position in compound.watcher_routing.get(key, ()):
            if watchers[position].offer(event):
                changed = True
        if not changed:
            return
        compound.watchers_installed = False  # a repeat below installs anew
        # marks first (they do not terminate), then repeat, then terminal
        self._emit_satisfied_outputs(compound, OutputKind.MARK)
        if compound.machine.state is not TaskState.EXECUTING:
            return
        if self._emit_satisfied_outputs(compound, OutputKind.REPEAT):
            return
        self._emit_satisfied_outputs(compound, OutputKind.OUTCOME, OutputKind.ABORT)

    def _emit_satisfied_outputs(self, compound: CompoundNode, *kinds: OutputKind) -> bool:
        for binding, watcher in zip(compound.decl.outputs, compound.output_watchers):
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
        self.ready_heap = [
            (-node.priority(), arrival, node) for _, arrival, node in self.ready_heap
        ]
        heapify(self.ready_heap)
        # Recompile every live scope: a decl change anywhere can alter the
        # event vocabulary siblings were compiled against (e.g. a compound's
        # output mappings feed its siblings' firing tables).  Scope histories
        # are folded into the vocabulary, so replayed trackers and watchers
        # cannot lose past matches.
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
                    n.parent._recompile_plan()
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
                        c._recompile_plan()

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
                    # replays the scope history into fresh, queues it if ready
                    c._recompile_plan()

                plan.append(grow)
