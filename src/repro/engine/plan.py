"""Plan compilation: dense incremental execution structures for the engine.

Read literally, §3/§4.3 re-derive readiness from the declaration graph on
every published event: each event is offered to every constituent, and
each offer walks the full alternative-source lists of every input binding.
:class:`~repro.core.selection.TaskInputTracker` is that reading, kept as the
executable specification; it costs O(scope) work per publish.  Following
the DistAlgo incrementalization playbook ("From Clarity to Efficiency for
Distributed Algorithms"), this module compiles a parsed
:class:`~repro.core.schema.Script` once into:

* **integer task ids** — every task instance in the tree gets a dense id;
* **bitmask satisfaction** — each awaited object/notification binding of a
  task becomes one *slot* with a bit position; an input set is a precomputed
  mask, and readiness is ``state & mask == mask`` instead of a dict scan;
* **a firing table** — for every event a scope can ever carry (statically
  over-approximated as ``(producer, kind, name)`` keys), exactly which
  consumer slots it can advance, with the source-alternative indices
  preserved so §4.3's earliest-listed-alternative rule still applies.

:class:`PlanTracker` is the engine's only tracker: ``offer`` is a single
dict lookup plus work proportional to the slots the event actually feeds.
:class:`~repro.engine.instance.InstanceTree` consults the same tables to
route events only to affected nodes (``_pump``) and to skip output watchers
an event cannot satisfy.

Meeting the specification
-------------------------

Every compiled tracker gives the ``ready()`` that a ``TaskInputTracker`` over
the same bindings, offered the scope's whole history, gives — the same
chosen input set and the same values in the same order — because:

* the static vocabulary over-approximates the events a producer can publish
  (declared outputs plus declared/bound input sets), widened by the events
  a live scope has actually carried (:func:`augment_vocabulary`), and every
  runtime event's object keys are a subset of the recorded ones, so a source
  is pruned from the firing table only when it could never match;
* within a slot, candidates fire in declared source order with the same
  earliest-alternative/refresh semantics as
  :class:`~repro.core.selection.InputObjectTracker`;
* a consumer the firing table skips is one for which the specification's
  offer would change nothing.

``tests/test_plan_specification.py`` holds every live tracker and output
watcher to that statement after every step or event, on generated,
adversarial, paper and reconfigured instances and on the execution
service's replayed trees.

The plan is also what the static analyzers read (:mod:`repro.analysis`):
the liveness fixpoint (:func:`repro.analysis.liveness.check_liveness`) runs
over these firing tables and set masks, and the plan dump (``repro plan``)
takes its result to mark firing entries statically live or dead.  Nothing
here calls the analyzer, and dead entries are **not** pruned from the
runtime tables: liveness is a may-analysis of the script alone, while the
engine also admits out-of-band events (``force_abort`` can publish an abort
the fixpoint never saw), so pruning would be unsound.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.schema import (
    AnyTaskDecl,
    CompoundTaskDecl,
    GuardKind,
    InputObjectBinding,
    InputSetBinding,
    OutputBinding,
    Script,
    Source,
    TaskClass,
    TaskClassWire,
)
from ..core.selection import (
    HOTPATH_STATS,
    EventKind,
    WorkflowEvent,
    event_kind_for,
)
from ..core.values import ObjectRef
from ..orb.marshal import sealed

# One firing-table key: (scope-local producer name, event kind, event name).
EventKey = Tuple[str, EventKind, str]

_OUTPUT_EVENT_KINDS = (
    EventKind.OUTCOME,
    EventKind.ABORT,
    EventKind.MARK,
    EventKind.REPEAT,
)


# ---------------------------------------------------------------------------
# Static event vocabulary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlannedEvent:
    """One event a producer may publish, with an over-approximation of the
    object names it can carry."""

    kind: EventKind
    name: str
    objects: FrozenSet[str]


def producible_events(
    taskclass: TaskClass,
    decl: Optional[AnyTaskDecl],
    include_outputs: bool,
) -> Tuple[PlannedEvent, ...]:
    """Every event this producer can publish into a scope.

    Object names union the class-declared ones with the decl-bound ones:
    runtime INPUT events carry the chosen binding's names, compound outputs
    emitted through a mapping carry the mapping's names, while coerced and
    force-aborted outputs carry the spec's — the union covers them all.
    """
    events: List[PlannedEvent] = []
    sets: Dict[str, Set[str]] = {}
    order: List[str] = []
    for spec in taskclass.input_sets:
        sets[spec.name] = {o.name for o in spec.objects}
        order.append(spec.name)
    if decl is not None:
        for binding in decl.input_sets:
            if binding.name not in sets:
                sets[binding.name] = set()
                order.append(binding.name)
            sets[binding.name].update(ob.name for ob in binding.objects)
    if not sets:
        # a class without input sets starts via the anonymous "" set
        sets[""] = set()
        order.append("")
    for name in order:
        events.append(PlannedEvent(EventKind.INPUT, name, frozenset(sets[name])))
    if include_outputs:
        for out in taskclass.outputs:
            names = {o.name for o in out.objects}
            if isinstance(decl, CompoundTaskDecl):
                binding = decl.output(out.name)
                if binding is not None:
                    names.update(ob.name for ob in binding.objects)
            events.append(
                PlannedEvent(event_kind_for(out.kind), out.name, frozenset(names))
            )
    return tuple(events)


Vocabulary = Dict[str, Tuple[PlannedEvent, ...]]


def compound_scope_vocabulary(
    owner_decl: CompoundTaskDecl,
    owner_class: TaskClass,
    children: Sequence[Tuple[str, TaskClass, AnyTaskDecl]],
) -> Vocabulary:
    """Producers visible inside a compound: the owner (its INPUT events are
    republished into the inner scope) and every constituent (full events)."""
    vocab: Vocabulary = {
        owner_decl.name: producible_events(owner_class, owner_decl, False)
    }
    for local, taskclass, decl in children:
        vocab[local] = producible_events(taskclass, decl, True)
    return vocab


def root_scope_vocabulary(decl: AnyTaskDecl, taskclass: TaskClass) -> Vocabulary:
    """The root scope carries only the root task's own events."""
    return {decl.name: producible_events(taskclass, decl, True)}


def augment_vocabulary(
    vocab: Vocabulary, events: Iterable[WorkflowEvent]
) -> Vocabulary:
    """Extend a static vocabulary with events a scope has *actually* carried.

    Recompiling against live scopes (dynamic reconfiguration, grown tasks)
    must not lose matches against history: declarations may have changed
    since an event was published, so its shape can fall outside the current
    static vocabulary.  Folding the history back in keeps the compiled
    tables sound for replay as well as for the future."""
    for event in events:
        known = vocab.get(event.producer, ())
        objects = frozenset(event.objects)
        covered = any(
            pe.kind is event.kind and pe.name == event.name and objects <= pe.objects
            for pe in known
        )
        if not covered:
            merged: Dict[Tuple[EventKind, str], Set[str]] = {}
            rest: List[PlannedEvent] = []
            for pe in known:
                if pe.kind is event.kind and pe.name == event.name:
                    merged.setdefault((pe.kind, pe.name), set()).update(pe.objects)
                else:
                    rest.append(pe)
            merged.setdefault((event.kind, event.name), set()).update(objects)
            rest.extend(
                PlannedEvent(kind, name, frozenset(names))
                for (kind, name), names in merged.items()
            )
            vocab[event.producer] = tuple(rest)
    return vocab


def _static_match(source: Source, event: PlannedEvent) -> bool:
    """Mirror of :func:`repro.core.selection.source_matches` over the static
    vocabulary (producer equality is the vocabulary key)."""
    if source.guard_kind is GuardKind.OUTPUT:
        if event.kind not in _OUTPUT_EVENT_KINDS or event.name != source.guard_name:
            return False
    elif source.guard_kind is GuardKind.INPUT:
        if event.kind is not EventKind.INPUT or event.name != source.guard_name:
            return False
    else:  # ANY: unguarded
        if event.kind not in (EventKind.OUTCOME, EventKind.MARK):
            return False
    if source.object_name is not None and source.object_name not in event.objects:
        return False
    return True


# ---------------------------------------------------------------------------
# Compiled per-task tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlotInfo:
    """Static description of one slot (for dumps and diagnostics)."""

    index: int
    set_name: str
    name: str  # object binding name; "<notify>" for notifications
    notification: bool


@dataclass(frozen=True)
class SetPlan:
    """One input set: its satisfaction mask and value layout."""

    name: str
    mask: int
    # (object binding name, slot index) in declaration order — the insertion
    # order of TaskInputTracker's chosen values, which the specification fixes
    layout: Tuple[Tuple[str, int], ...]


# One firing group: (slot index, slot bit, is_notification, candidates),
# candidates = ((source index, object name or None), ...) in source order.
FiringGroup = Tuple[int, int, bool, Tuple[Tuple[int, Optional[str]], ...]]


@dataclass(frozen=True)
class TaskTable:
    """The compiled input machinery of one task instance."""

    sets: Tuple[SetPlan, ...]
    slots: Tuple[SlotInfo, ...]
    entries: Mapping[EventKey, Tuple[FiringGroup, ...]]

    @property
    def slot_count(self) -> int:
        return len(self.slots)


def effective_input_sets(
    decl: AnyTaskDecl, taskclass: TaskClass
) -> Tuple[InputSetBinding, ...]:
    """The bindings a node's tracker is built from: a class without input
    sets starts unconditionally once its enclosing compound is executing,
    via the anonymous always-satisfied set."""
    bindings = tuple(decl.input_sets)
    if not bindings and not taskclass.input_sets:
        return (InputSetBinding(""),)
    return bindings


def compile_bindings(
    input_sets: Sequence[InputSetBinding], vocabulary: Vocabulary
) -> TaskTable:
    """Compile input-set bindings against a scope vocabulary."""
    sets: List[SetPlan] = []
    slots: List[SlotInfo] = []
    raw: Dict[EventKey, Dict[int, List[Tuple[int, Optional[str]]]]] = {}

    def add_slot(set_name: str, slot_name: str, notification: bool, sources) -> int:
        index = len(slots)
        slots.append(SlotInfo(index, set_name, slot_name, notification))
        for src_index, source in enumerate(sources):
            for event in vocabulary.get(source.task_name, ()):
                if _static_match(source, event):
                    key = (source.task_name, event.kind, event.name)
                    raw.setdefault(key, {}).setdefault(index, []).append(
                        (src_index, source.object_name)
                    )
        return index

    for binding in input_sets:
        mask = 0
        layout: List[Tuple[str, int]] = []
        for ob in binding.objects:
            index = add_slot(binding.name, ob.name, False, ob.sources)
            mask |= 1 << index
            layout.append((ob.name, index))
        for notif in binding.notifications:
            index = add_slot(binding.name, "<notify>", True, notif.sources)
            mask |= 1 << index
        sets.append(SetPlan(binding.name, mask, tuple(layout)))

    entries: Dict[EventKey, Tuple[FiringGroup, ...]] = {}
    for key, per_slot in raw.items():
        groups: List[FiringGroup] = []
        for index in sorted(per_slot):
            candidates = tuple(sorted(per_slot[index], key=lambda c: c[0]))
            groups.append((index, 1 << index, slots[index].notification, candidates))
        entries[key] = tuple(groups)
    return TaskTable(tuple(sets), tuple(slots), MappingProxyType(entries))


def compile_node_table(
    decl: AnyTaskDecl, taskclass: TaskClass, vocabulary: Vocabulary
) -> TaskTable:
    return compile_bindings(effective_input_sets(decl, taskclass), vocabulary)


def watch_binding(binding: OutputBinding) -> InputSetBinding:
    """A compound output mapping satisfies exactly like an input set: all its
    object and notification bindings must fire.  Viewing the OutputBinding as
    an InputSetBinding lets both kinds of tracker serve as output watchers."""
    return InputSetBinding(
        name=binding.name,
        objects=tuple(InputObjectBinding(b.name, b.sources) for b in binding.objects),
        notifications=binding.notifications,
    )


def compile_watch_tables(
    decl: CompoundTaskDecl, vocabulary: Vocabulary
) -> Tuple[TaskTable, ...]:
    return tuple(
        compile_bindings((watch_binding(b),), vocabulary) for b in decl.outputs
    )


def firing_routing(tables: Sequence[TaskTable]) -> Mapping[EventKey, Tuple[int, ...]]:
    """Firing table over a sequence of consumers: for each event key, the
    positions (ascending) of the tables with a slot it can advance."""
    routing: Dict[EventKey, List[int]] = {}
    for position, table in enumerate(tables):
        for key in table.entries:
            routing.setdefault(key, []).append(position)
    return MappingProxyType({key: tuple(hits) for key, hits in routing.items()})


# ---------------------------------------------------------------------------
# Dispatch templates and compiled scopes
# ---------------------------------------------------------------------------


@sealed
@dataclass(frozen=True)
class DispatchTemplate:
    """Everything a worker needs to run one simple task that is fixed per
    script.  Deeply immutable plain data, checked once when it is built:
    every dispatch of the task carries this one object, and the ORB passes
    it by reference without looking inside."""

    task_path: str
    taskclass: TaskClassWire
    code: Optional[str]
    properties: Tuple[Tuple[str, str], ...]
    # what the clause's typed values say to the dispatcher and the worker
    # (core.schema.WELL_KNOWN_PROPERTIES): read there once, carried here
    location: Optional[str] = None
    delay: float = 0.0
    timeout: Optional[float] = None


def dispatch_template(
    path: str, decl: AnyTaskDecl, taskclass: TaskClass
) -> Optional[DispatchTemplate]:
    """The template of the task at ``path``; compounds start inside the
    engine and are never dispatched, so they have none."""
    if isinstance(decl, CompoundTaskDecl):
        return None
    implementation = decl.implementation
    return DispatchTemplate(
        path,
        taskclass.wire,
        implementation.code,
        implementation.properties,
        implementation.location,
        implementation.delay,
        implementation.timeout,
    )


@dataclass(frozen=True)
class ScopePlan:
    """The inner scope of one compound, compiled: per constituent (in
    declaration order) its input table and dispatch template, the scope's
    firing table over constituent positions, and the same for the compound's
    output mappings.  Immutable, so every instance of the script shares it."""

    tables: Tuple[TaskTable, ...]
    templates: Tuple[Optional[DispatchTemplate], ...]
    routing: Mapping[EventKey, Tuple[int, ...]]
    watch_tables: Tuple[TaskTable, ...]
    watch_routing: Mapping[EventKey, Tuple[int, ...]]


def compile_scope(
    path: str,
    decl: CompoundTaskDecl,
    taskclass: TaskClass,
    children: Sequence[Tuple[AnyTaskDecl, TaskClass]],
    history: Iterable[WorkflowEvent] = (),
) -> ScopePlan:
    """Compile the inner scope of the compound at ``path`` with constituents
    ``children``.  ``history`` is what a live scope has already carried
    (see :func:`augment_vocabulary`); a scope compiled ahead of any instance
    has none."""
    vocabulary = augment_vocabulary(
        compound_scope_vocabulary(
            decl, taskclass, [(d.name, tc, d) for d, tc in children]
        ),
        history,
    )
    tables = tuple(compile_node_table(d, tc, vocabulary) for d, tc in children)
    watch_tables = compile_watch_tables(decl, vocabulary)
    return ScopePlan(
        tables,
        tuple(dispatch_template(f"{path}/{d.name}", d, tc) for d, tc in children),
        firing_routing(tables),
        watch_tables,
        firing_routing(watch_tables),
    )


# ---------------------------------------------------------------------------
# Runtime tracker over a compiled table
# ---------------------------------------------------------------------------


class PlanTracker:
    """The input tracker of one task instance (or one output watcher),
    driven by a compiled :class:`TaskTable`.

    ``offer`` does one dict lookup and then touches only the slots the event
    can actually advance; satisfaction is a bitmask compare.  Its
    specification is :class:`~repro.core.selection.TaskInputTracker` over the
    same bindings: earliest-listed source alternative wins (a refresh of the
    current best replaces the value), notifications latch on first match,
    and ``ready`` returns the first declared satisfied set with values laid
    out in declaration order.

    ``satisfied`` is whether some set is: kept up to date by ``offer`` rather
    than re-tested by every reader (DistAlgo's incrementalization of a wait
    condition).  Masks only grow, so it flips once per tracker, on the offer
    that completes a set's mask — or at construction, for a set with no
    slots — and the engine enqueues a waiting node on that flip alone.
    """

    __slots__ = ("table", "mask", "values", "best", "satisfied")

    def __init__(self, table: TaskTable) -> None:
        self.table = table
        self.mask = 0
        slots = len(table.slots)
        self.values: List[Optional[ObjectRef]] = [None] * slots
        self.best: List[Optional[int]] = [None] * slots
        self.satisfied = False
        for set_plan in table.sets:
            if not set_plan.mask:
                self.satisfied = True
                break

    def offer(self, event: WorkflowEvent) -> bool:
        groups = self.table.entries.get((event.producer, event.kind, event.name))
        if not groups:
            return False
        changed = False
        objects = event.objects
        for index, bit, notification, candidates in groups:
            if notification:
                HOTPATH_STATS.source_evals += 1
                if not self.mask & bit:
                    self.mask |= bit
                    changed = True
                continue
            best = self.best[index]
            for src_index, object_name in candidates:
                if best is not None and src_index > best:
                    break
                HOTPATH_STATS.source_evals += 1
                value = objects.get(object_name)
                if value is None:
                    continue  # statically possible, absent at runtime
                if best != src_index or value != self.values[index]:
                    changed = True
                self.best[index] = src_index
                self.values[index] = value
                self.mask |= bit
                break
        if changed and not self.satisfied:  # a bit set here always reports a change
            mask = self.mask
            for set_plan in self.table.sets:
                if mask & set_plan.mask == set_plan.mask:
                    self.satisfied = True
                    break
        return changed

    def offer_all(self, events: Iterable[WorkflowEvent]) -> bool:
        changed = False
        for event in events:
            changed |= self.offer(event)
        return changed

    def first_satisfied(self) -> Optional[SetPlan]:
        """The set :meth:`ready` answers with: a mask test, no values built."""
        mask = self.mask
        for set_plan in self.table.sets:
            if mask & set_plan.mask == set_plan.mask:
                return set_plan
        return None

    def ready(self) -> Optional[Tuple[str, Dict[str, ObjectRef]]]:
        set_plan = self.first_satisfied()
        if set_plan is None:
            return None
        values = self.values
        return set_plan.name, {name: values[index] for name, index in set_plan.layout}


# ---------------------------------------------------------------------------
# Whole-script plans (static artifact: CLI dump, table cache)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlannedTask:
    """One task instance in the compiled plan."""

    task_id: int
    path: str
    scope: str  # enclosing scope path ("" = root scope)
    local: str
    decl: AnyTaskDecl
    taskclass: TaskClass
    compound: bool
    table: TaskTable
    template: Optional[DispatchTemplate]  # None for compounds


@dataclass(frozen=True, eq=False)
class ExecutionPlan:
    """A whole script compiled: tasks with ids, tables and dispatch
    templates, and one :class:`ScopePlan` per compound.  Read-only, so one
    plan backs every instance of ``script`` (see ``InstanceTree.plan`` for
    when an instance stops using it).

    The dumps (:meth:`stats`, :meth:`as_dict`, :meth:`render`) take the
    plan's :class:`~repro.analysis.liveness.LivenessResult` and read its
    ``facts`` (scope path -> producible event keys) and ``startable`` (task
    path -> input-set names)."""

    script: Script
    root_tasks: Tuple[str, ...]
    tasks: Tuple[PlannedTask, ...]
    by_path: Mapping[str, PlannedTask]
    scopes: Mapping[str, ScopePlan]  # compound path -> its inner scope

    def task_at(self, path: str) -> Optional[PlannedTask]:
        return self.by_path.get(path)

    @property
    def watch_tables(self) -> Dict[str, Tuple[TaskTable, ...]]:
        return {path: scope.watch_tables for path, scope in self.scopes.items()}

    # -- derived firing view ------------------------------------------------

    def firing_table(self, scope: str) -> Dict[EventKey, List[Tuple[str, FiringGroup]]]:
        """Scope firing table: event key -> [(consumer label, group), ...].
        Consumers are constituents (by local name) and output mappings
        (labelled ``output:<name>``)."""
        firing: Dict[EventKey, List[Tuple[str, FiringGroup]]] = {}
        for task in self.tasks:
            if task.scope != scope:
                continue
            for key, groups in task.table.entries.items():
                for group in groups:
                    firing.setdefault(key, []).append((task.local, group))
        for watch in self.watch_tables.get(scope, ()):  # scope == compound path
            for key, groups in watch.entries.items():
                for group in groups:
                    label = f"output:{watch.sets[0].name}"
                    firing.setdefault(key, []).append((label, group))
        return firing

    def stats(self, liveness) -> Dict[str, int]:
        scopes = {task.scope for task in self.tasks} | set(self.watch_tables)
        keys = dead = 0
        for scope in scopes:
            live = liveness.facts.get(scope, ())
            for key in self.firing_table(scope):
                keys += 1
                if key not in live:
                    dead += 1
        return {
            "tasks": len(self.tasks),
            "slots": sum(t.table.slot_count for t in self.tasks)
            + sum(
                w.slot_count
                for tables in self.watch_tables.values()
                for w in tables
            ),
            "firing_keys": keys,
            "dead_keys": dead,
        }

    # -- dumps --------------------------------------------------------------

    def as_dict(self, liveness) -> Dict[str, object]:
        def dump_table(table: TaskTable) -> Dict[str, object]:
            return {
                "sets": [
                    {
                        "name": s.name,
                        "mask": s.mask,
                        "layout": [list(pair) for pair in s.layout],
                    }
                    for s in table.sets
                ],
                "slots": [
                    {
                        "index": s.index,
                        "set": s.set_name,
                        "name": s.name,
                        "notification": s.notification,
                    }
                    for s in table.slots
                ],
                "entries": [
                    {
                        "producer": key[0],
                        "kind": key[1].value,
                        "event": key[2],
                        "groups": [
                            {
                                "slot": slot,
                                "bit": bit,
                                "notification": notif,
                                "candidates": [list(c) for c in candidates],
                            }
                            for slot, bit, notif, candidates in groups
                        ],
                    }
                    for key, groups in sorted(
                        table.entries.items(),
                        key=lambda kv: (kv[0][0], kv[0][1].value, kv[0][2]),
                    )
                ],
            }

        return {
            "roots": list(self.root_tasks),
            "stats": self.stats(liveness),
            "tasks": [
                {
                    "id": task.task_id,
                    "path": task.path,
                    "scope": task.scope,
                    "taskclass": task.taskclass.name,
                    "compound": task.compound,
                    "startable": sorted(liveness.startable[task.path]),
                    "table": dump_table(task.table),
                }
                for task in self.tasks
            ],
            "watchers": {
                path: [dump_table(t) for t in tables]
                for path, tables in sorted(self.watch_tables.items())
            },
        }

    def render(self, liveness) -> str:
        stats = self.stats(liveness)
        lines = [
            f"execution plan: {stats['tasks']} tasks, {stats['slots']} slots, "
            f"{stats['firing_keys']} firing keys ({stats['dead_keys']} statically dead)"
        ]
        for task in self.tasks:
            kind = "compound" if task.compound else "simple"
            startable = liveness.startable[task.path]
            via = (
                " startable via {" + ", ".join(sorted(startable)) + "}"
                if startable
                else " DEAD (never ready)"
            )
            lines.append(
                f"task {task.task_id}: {task.path} [{task.taskclass.name}, {kind}]{via}"
            )
            for set_plan in task.table.sets:
                lines.append(
                    f"  set {set_plan.name!r} mask={set_plan.mask:#b}"
                )
                for slot in task.table.slots:
                    if slot.set_name != set_plan.name:
                        continue
                    what = "notification" if slot.notification else f"object {slot.name!r}"
                    lines.append(f"    slot {slot.index} bit {1 << slot.index:#b}: {what}")
        scopes = sorted({task.scope for task in self.tasks} | set(self.watch_tables))
        for scope in scopes:
            firing = self.firing_table(scope)
            if not firing:
                continue
            live = liveness.facts.get(scope, ())
            lines.append(f"scope {scope or '<root>'}:")
            for key in sorted(
                firing, key=lambda k: (k[0], k[1].value, k[2])
            ):
                producer, kind, name = key
                targets = []
                for consumer, (slot, _bit, notif, candidates) in firing[key]:
                    srcs = ",".join(str(c[0]) for c in candidates)
                    mark = "~" if notif else ""
                    targets.append(f"{consumer}{mark}[slot {slot} src {srcs}]")
                lines.append(
                    f"  ({producer}, {kind.value}, {name}) -> "
                    + "; ".join(targets)
                    + ("" if key in live else "  DEAD")
                )
        return "\n".join(lines)


def compile_plan(script: Script, root_task: Optional[str] = None) -> ExecutionPlan:
    """Compile ``script`` (every top-level task, or only ``root_task``) into
    an :class:`ExecutionPlan`."""
    if root_task is None:
        roots = list(script.tasks)
    else:
        if root_task not in script.tasks:
            raise KeyError(f"script has no top-level task {root_task!r}")
        roots = [root_task]

    tasks: List[PlannedTask] = []
    scopes: Dict[str, ScopePlan] = {}

    def visit(
        decl: AnyTaskDecl,
        path: str,
        scope: str,
        table: TaskTable,
        template: Optional[DispatchTemplate],
    ) -> None:
        taskclass = script.taskclass_of(decl)
        tasks.append(
            PlannedTask(
                task_id=len(tasks),
                path=path,
                scope=scope,
                local=decl.name,
                decl=decl,
                taskclass=taskclass,
                compound=isinstance(decl, CompoundTaskDecl),
                table=table,
                template=template,
            )
        )
        if isinstance(decl, CompoundTaskDecl):
            inner = compile_scope(
                path, decl, taskclass, [(t, script.taskclass_of(t)) for t in decl.tasks]
            )
            scopes[path] = inner
            for child, child_table, child_template in zip(
                decl.tasks, inner.tables, inner.templates
            ):
                visit(child, f"{path}/{child.name}", path, child_table, child_template)

    for name in roots:
        decl = script.tasks[name]
        taskclass = script.taskclass_of(decl)
        visit(
            decl,
            name,
            "",
            compile_node_table(decl, taskclass, root_scope_vocabulary(decl, taskclass)),
            dispatch_template(name, decl, taskclass),
        )

    return ExecutionPlan(
        script=script,
        root_tasks=tuple(roots),
        tasks=tuple(tasks),
        by_path=MappingProxyType({task.path: task for task in tasks}),
        scopes=MappingProxyType(scopes),
    )
