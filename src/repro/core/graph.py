"""Schema validation and a compound's arcs.

:func:`validate_script` performs the whole-script semantic analysis the
paper's repository service applies before accepting a schema: every name must
resolve, every source must be type-correct, every compound output must be
fully mapped.  :func:`arcs` is the one reading of a compound's dependencies
(the arcs drawn in the paper's figures): the structure summary, the cycle
check, the DOT export, the linter and reconfiguration all walk it.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

from .errors import SchemaError, ValidationReport
from .schema import (
    AnyTaskDecl,
    CompoundTaskDecl,
    GuardKind,
    ObjectDecl,
    OutputKind,
    Script,
    Source,
    TaskClass,
    TaskTemplate,
)

# the names source resolution sees at one nesting level: local name -> task
# class (constituents and, inside a compound, the compound itself)
Scope = Dict[str, TaskClass]


class Validator:
    """Collects every schema error in a script (does not stop at the first).

    Each error also carries a stable diagnostic code (``E1xx``, declared in
    :mod:`repro.analysis.registry`) in :attr:`coded` so the static analyser
    can merge validation into its unified report.
    """

    def __init__(self, script: Script) -> None:
        self.script = script
        self.errors: List[SchemaError] = []
        self.coded: List[Tuple[str, str, str]] = []  # (code, location, message)
        # producers to skip silently: a template body's parameters
        self.placeholders: Set[str] = set()

    # -- public ------------------------------------------------------------------

    def validate(self) -> List[SchemaError]:
        self._validate_class_hierarchy()
        self._validate_taskclasses()
        root: Scope = {}
        for decl in self.script.tasks.values():
            taskclass = self.script.taskclasses.get(decl.taskclass_name)
            if taskclass is not None:
                root[decl.name] = taskclass
        for decl in self.script.tasks.values():
            self._validate_decl(decl, root)
        return self.errors

    def validate_template(self, template: TaskTemplate) -> List[SchemaError]:
        """Check ``template``'s body alone, its parameters opaque producers
        until instantiation (:meth:`validate` leaves bodies to it)."""
        self.placeholders = set(template.parameters)
        body = template.body
        taskclass = self.script.taskclasses.get(body.taskclass_name)
        self._validate_decl(body, {} if taskclass is None else {body.name: taskclass})
        return self.errors

    # -- object classes -------------------------------------------------------------

    def _validate_class_hierarchy(self) -> None:
        for name, parent in self.script.classes.items():
            if parent is None:
                continue
            if parent not in self.script.classes:
                self._error(f"extends undeclared class {parent!r}", name)
                continue
            # cycle check: walk up; a repeat of `name` means a cycle
            seen = {name}
            current = parent
            while current is not None:
                if current in seen:
                    self._error("inheritance cycle", name)
                    break
                seen.add(current)
                current = self.script.classes.get(current)

    # -- task classes -------------------------------------------------------------

    def _validate_taskclasses(self) -> None:
        for taskclass in self.script.taskclasses.values():
            for spec in taskclass.input_sets:
                for obj in spec.objects:
                    self._check_class(obj, taskclass.name)
            for out in taskclass.outputs:
                for obj in out.objects:
                    self._check_class(obj, taskclass.name)

    def _check_class(self, obj: ObjectDecl, where: str) -> None:
        if obj.class_name not in self.script.classes:
            self._error(f"object {obj.name!r} uses undeclared class {obj.class_name!r}", where)

    # -- declarations --------------------------------------------------------------

    def _validate_decl(self, decl: AnyTaskDecl, scope: Scope) -> None:
        taskclass = self.script.taskclasses.get(decl.taskclass_name)
        if taskclass is None:
            self._error(f"unknown taskclass {decl.taskclass_name!r}", decl.name)
            return
        self._validate_input_sets(decl, taskclass, scope)
        if isinstance(decl, CompoundTaskDecl):
            self._validate_compound(decl, taskclass)

    def _validate_input_sets(
        self, decl: AnyTaskDecl, taskclass: TaskClass, scope: Scope
    ) -> None:
        for binding in decl.input_sets:
            spec = taskclass.input_set(binding.name)
            if spec is None:
                self._error(
                    f"taskclass {taskclass.name!r} has no input set {binding.name!r}",
                    decl.name,
                    code="E106",
                )
                continue
            bound = {b.name for b in binding.objects}
            declared = {o.name for o in spec.objects}
            for missing in sorted(declared - bound):
                self._error(
                    f"input set {binding.name!r} does not bind object {missing!r}",
                    decl.name,
                    code="E106",
                )
            for extra in sorted(bound - declared):
                self._error(
                    f"input set {binding.name!r} binds unknown object {extra!r}",
                    decl.name,
                    code="E106",
                )
            for obj_binding in binding.objects:
                obj_spec = spec.object(obj_binding.name)
                for source in obj_binding.sources:
                    self._validate_source(
                        source, obj_spec, decl, scope, f"input {binding.name!r}"
                    )
            for notif in binding.notifications:
                for source in notif.sources:
                    self._validate_source(
                        source, None, decl, scope, f"input {binding.name!r}"
                    )

    def _validate_compound(self, decl: CompoundTaskDecl, taskclass: TaskClass) -> None:
        inner: Scope = {}
        for child in decl.tasks:
            child_class = self.script.taskclasses.get(child.taskclass_name)
            if child_class is None:
                self._error(f"unknown taskclass {child.taskclass_name!r}", child.name)
            else:
                inner[child.name] = child_class
        inner[decl.name] = taskclass
        for child in decl.tasks:
            self._validate_decl(child, inner)
        # outputs mapping
        bound_outputs = {b.name for b in decl.outputs}
        for out_spec in taskclass.outputs:
            binding = decl.output(out_spec.name)
            if binding is None:
                # Unmapped outputs are legal only if they carry no objects and
                # the compound has some other way to finish; flag outputs with
                # objects, which can never be produced.
                if out_spec.objects:
                    self._error(
                        f"compound does not map output {out_spec.name!r} "
                        f"(which carries objects)",
                        decl.name,
                        code="E108",
                    )
                continue
            mapped = {b.name for b in binding.objects}
            declared = {o.name for o in out_spec.objects}
            for missing in sorted(declared - mapped):
                self._error(
                    f"output {out_spec.name!r} does not map object {missing!r}",
                    decl.name,
                    code="E108",
                )
            for extra in sorted(mapped - declared):
                self._error(
                    f"output {out_spec.name!r} maps unknown object {extra!r}",
                    decl.name,
                    code="E108",
                )
            if not binding.objects and not binding.notifications:
                self._error(
                    f"output {out_spec.name!r} has an empty mapping",
                    decl.name,
                    code="E108",
                )
            for obj_binding in binding.objects:
                obj_spec = out_spec.object(obj_binding.name)
                for source in obj_binding.sources:
                    self._validate_source(
                        source, obj_spec, decl, inner, f"output {out_spec.name!r}"
                    )
            for notif in binding.notifications:
                for source in notif.sources:
                    self._validate_source(
                        source, None, decl, inner, f"output {out_spec.name!r}"
                    )
        for extra in sorted(bound_outputs - {o.name for o in taskclass.outputs}):
            self._error(f"mapping for unknown output {extra!r}", decl.name, code="E108")

    # -- sources ----------------------------------------------------------------------

    def _validate_source(
        self,
        source: Source,
        obj_spec: Optional[ObjectDecl],
        decl: AnyTaskDecl,
        scope: Scope,
        context: str,
    ) -> None:
        where = f"{decl.name}.{context}"
        if source.task_name in self.placeholders:
            return  # template parameter: producer opaque until instantiation
        producer_class = scope.get(source.task_name)
        if producer_class is None:
            self._error(
                f"source names unknown task {source.task_name!r}", where, code="E101"
            )
            return
        if source.object_name is None and source.guard_kind is GuardKind.ANY:
            self._error("notification source must carry an `if` guard", where, code="E102")
            return
        if source.guard_kind is GuardKind.OUTPUT:
            out = producer_class.output(source.guard_name)
            if out is None:
                self._error(
                    f"task {source.task_name!r} ({producer_class.name}) has no "
                    f"output {source.guard_name!r}",
                    where,
                    code="E102",
                )
                return
            if out.kind is OutputKind.REPEAT and source.task_name != decl.name:
                # §4.2: repeat objects are private to the producing task.
                if source.object_name is not None:
                    self._error(
                        f"object from repeat output {source.guard_name!r} of "
                        f"another task {source.task_name!r}",
                        where,
                        code="E105",
                    )
                    return
            if source.object_name is not None:
                produced = out.object(source.object_name)
                if produced is None:
                    self._error(
                        f"output {source.guard_name!r} of {source.task_name!r} "
                        f"carries no object {source.object_name!r}",
                        where,
                        code="E103",
                    )
                    return
                self._check_compatible(produced, obj_spec, where)
        elif source.guard_kind is GuardKind.INPUT:
            in_set = producer_class.input_set(source.guard_name)
            if in_set is None:
                self._error(
                    f"task {source.task_name!r} ({producer_class.name}) has no "
                    f"input set {source.guard_name!r}",
                    where,
                    code="E102",
                )
                return
            if source.object_name is not None:
                carried = in_set.object(source.object_name)
                if carried is None:
                    self._error(
                        f"input set {source.guard_name!r} of {source.task_name!r} "
                        f"carries no object {source.object_name!r}",
                        where,
                        code="E103",
                    )
                    return
                self._check_compatible(carried, obj_spec, where)
        else:  # ANY, object source
            candidates = [
                out
                for out in producer_class.outputs
                if out.kind in (OutputKind.OUTCOME, OutputKind.MARK)
                and out.object(source.object_name) is not None
            ]
            if not candidates:
                self._error(
                    f"no outcome/mark of {source.task_name!r} carries object "
                    f"{source.object_name!r}",
                    where,
                    code="E103",
                )
                return
            for out in candidates:
                self._check_compatible(out.object(source.object_name), obj_spec, where)

    def _check_compatible(
        self, produced: Optional[ObjectDecl], expected: Optional[ObjectDecl], where: str
    ) -> None:
        # Compatibility is class equality or sub-typing: a produced subclass
        # reference may flow where its superclass is expected (the §7
        # extension; see Script.is_subclass).
        if produced is None or expected is None:
            return
        if not self.script.is_subclass(produced.class_name, expected.class_name):
            self._error(
                f"class mismatch: source provides {produced.class_name!r}, "
                f"consumer expects {expected.class_name!r}",
                where,
                code="E104",
            )

    def _error(self, message: str, location: str, code: str = "E107") -> None:
        self.errors.append(SchemaError(message, location))
        self.coded.append((code, location, message))


def validate_script(script: Script) -> List[SchemaError]:
    """Return all semantic errors in ``script`` (empty list when valid)."""
    return Validator(script).validate()


def check(script: Script) -> Script:
    """Validate and return ``script``; raise :class:`ValidationReport` if bad."""
    errors = validate_script(script)
    if errors:
        raise ValidationReport(errors)
    return script


# ---------------------------------------------------------------------------
# A compound's arcs (the structures in the paper's figures)
# ---------------------------------------------------------------------------


class Arc(NamedTuple):
    """One source of one consumer: ``consumer`` is a constituent's name, or
    the compound's own for its output mapping; ``via`` names the input set or
    the output the source is bound in.  The paper's figures draw a
    notification (``notify``) dotted and dataflow solid."""

    source: Source
    consumer: str
    notify: bool
    via: str


def arcs(compound: CompoundTaskDecl) -> Iterator[Arc]:
    """Every arc of ``compound``: each constituent's input sets in
    declaration order, then the compound's output mapping."""
    bindings = [(child.name, child.input_sets) for child in compound.tasks]
    bindings.append((compound.name, compound.outputs))
    for consumer, sets in bindings:
        for binding in sets:
            for obj in binding.objects:
                for source in obj.sources:
                    yield Arc(source, consumer, False, binding.name)
            for notif in binding.notifications:
                for source in notif.sources:
                    yield Arc(source, consumer, True, binding.name)


def find_cycles(compound: CompoundTaskDecl, script: Script) -> List[List[str]]:
    """The groups of two or more constituents that depend on each other
    (strongly connected), each in declaration order, ignoring self-loops and
    arcs guarded by a repeat output.  Such a group usually means the
    workflow can never make progress, so the linter reports it."""
    # the compound's own name stands for its ports, which close no cycle
    order = {
        child.name: index
        for index, child in enumerate(compound.tasks)
        if child.name != compound.name
    }
    successors: Dict[str, List[str]] = {name: [] for name in order}
    for arc in arcs(compound):
        producer, guard = arc.source.task_name, arc.source.guard_name
        if producer == arc.consumer or producer not in order or arc.consumer not in order:
            continue
        producer_class = script.taskclasses.get(compound.tasks[order[producer]].taskclass_name)
        out = producer_class.output(guard) if producer_class and guard else None
        if out is None or out.kind is not OutputKind.REPEAT:
            successors[producer].append(arc.consumer)
    groups = [sorted(group, key=order.__getitem__) for group in _strong_groups(successors)]
    return sorted((group for group in groups if len(group) > 1), key=lambda g: order[g[0]])


def _strong_groups(successors: Dict[str, List[str]]) -> List[List[str]]:
    """Tarjan's strongly connected components, on an explicit stack so a
    long chain of constituents cannot exhaust the interpreter's."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    stack: List[str] = []
    work: List[Tuple[str, Iterator[str]]] = []
    groups: List[List[str]] = []

    def enter(node: str) -> None:
        index[node] = low[node] = len(index)
        stack.append(node)
        work.append((node, iter(successors[node])))

    for root in successors:
        if root not in index:
            enter(root)
        while work:
            node, pending = work[-1]
            succ = next(pending, None)
            if succ is None:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[node])
                if low[node] == index[node]:
                    group = [stack.pop()]
                    while group[-1] != node:
                        group.append(stack.pop())
                    groups.append(group)
                    for member in group:  # off the stack: no later min() sees it
                        index[member] = len(successors)
            elif succ not in index:
                enter(succ)
            else:
                low[node] = min(low[node], index[succ])
    return groups


def structure_summary(compound: CompoundTaskDecl) -> Dict[str, int]:
    """Counts used by the figure benchmarks to assert regenerated shapes."""
    notify = [arc.notify for arc in arcs(compound)]
    return {
        "tasks": len(compound.tasks),
        "data_edges": notify.count(False),
        "notification_edges": notify.count(True),
        "outputs": len(compound.outputs),
    }
