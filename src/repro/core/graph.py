"""Schema validation and dependency-graph extraction.

:func:`validate_script` performs the whole-script semantic analysis the
paper's repository service applies before accepting a schema: every name must
resolve, every source must be type-correct, every compound output must be
fully mapped.  :func:`dependency_graph` extracts the task-dependency digraph
of a compound (the structure drawn in the paper's figures), used by the
figure-regeneration benchmarks and by the structural diagnostics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from .errors import SchemaError, ValidationReport
from .schema import (
    AnyTaskDecl,
    CompoundTaskDecl,
    GuardKind,
    InputSetBinding,
    ObjectDecl,
    OutputKind,
    Script,
    Source,
    TaskClass,
    TaskDecl,
    TaskTemplate,
)

if TYPE_CHECKING:
    # networkx is imported by the diagnostics that draw a graph, when they
    # run: validation, storing a script and execution never load it
    import networkx as nx


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
                        source, obj_spec, decl, inner, f"output {out_spec.name!r}",
                        consumer_name=decl.name,
                    )
            for notif in binding.notifications:
                for source in notif.sources:
                    self._validate_source(
                        source, None, decl, inner, f"output {out_spec.name!r}",
                        consumer_name=decl.name,
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
        consumer_name: Optional[str] = None,
    ) -> None:
        where = f"{decl.name}.{context}"
        consumer = consumer_name or decl.name
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
            if out.kind is OutputKind.REPEAT and source.task_name != consumer:
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
# Dependency graph extraction (the structures in the paper's figures)
# ---------------------------------------------------------------------------


def dependency_graph(compound: CompoundTaskDecl) -> "nx.MultiDiGraph":
    """Digraph of one compound's constituents.

    Nodes are constituent names plus the compound's own name.  Each source
    becomes one edge producer -> consumer with attributes ``flavour``
    ("data" | "notify"), ``object`` and ``guard``.  This is exactly the
    drawing convention of the paper's figures: solid arcs are dataflow,
    dotted arcs are notifications.
    """
    import networkx as nx

    graph = nx.MultiDiGraph(name=compound.name)
    graph.add_node(compound.name, role="compound")
    for child in compound.tasks:
        graph.add_node(child.name, role="task", taskclass=child.taskclass_name)

    def add_edges(consumer: str, input_sets: Sequence[InputSetBinding]) -> None:
        for binding in input_sets:
            for obj in binding.objects:
                for source in obj.sources:
                    graph.add_edge(
                        source.task_name,
                        consumer,
                        flavour="data",
                        object=obj.name,
                        guard=source.guard_name,
                        input_set=binding.name,
                    )
            for notif in binding.notifications:
                for source in notif.sources:
                    graph.add_edge(
                        source.task_name,
                        consumer,
                        flavour="notify",
                        object=None,
                        guard=source.guard_name,
                        input_set=binding.name,
                    )

    for child in compound.tasks:
        add_edges(child.name, child.input_sets)
    for out in compound.outputs:
        for obj in out.objects:
            for source in obj.sources:
                graph.add_edge(
                    source.task_name,
                    compound.name,
                    flavour="data",
                    object=obj.name,
                    guard=source.guard_name,
                    output=out.name,
                )
        for notif in out.notifications:
            for source in notif.sources:
                graph.add_edge(
                    source.task_name,
                    compound.name,
                    flavour="notify",
                    object=None,
                    guard=source.guard_name,
                    output=out.name,
                )
    return graph


def find_cycles(compound: CompoundTaskDecl, script: Script) -> List[List[str]]:
    """Dependency cycles among constituents that do *not* go through a repeat
    output or a self-loop.  Such cycles usually mean the workflow can never
    make progress, so they are reported as a lint by the repository service.
    """
    import networkx as nx

    graph = dependency_graph(compound)
    filtered = nx.DiGraph()
    for producer, consumer, data in graph.edges(data=True):
        if producer == consumer:
            continue
        guard = data.get("guard")
        producer_decl = compound.task(producer)
        if producer_decl is not None and guard:
            producer_class = script.taskclasses.get(producer_decl.taskclass_name)
            if producer_class is not None:
                out = producer_class.output(guard)
                if out is not None and out.kind is OutputKind.REPEAT:
                    continue
        # The compound's input port and output port are distinct: values flow
        # in through `if input ...` sources and out through the output
        # mapping, so edges touching the compound must not close a cycle.
        if producer == compound.name:
            producer = f"{compound.name}<in>"
        if consumer == compound.name:
            consumer = f"{compound.name}<out>"
        filtered.add_edge(producer, consumer)
    return [list(cycle) for cycle in nx.simple_cycles(filtered)]


def structure_summary(compound: CompoundTaskDecl) -> Dict[str, int]:
    """Counts used by the figure benchmarks to assert regenerated shapes."""
    graph = dependency_graph(compound)
    data_edges = sum(1 for *_e, d in graph.edges(data=True) if d["flavour"] == "data")
    notify_edges = sum(1 for *_e, d in graph.edges(data=True) if d["flavour"] == "notify")
    return {
        "tasks": len(compound.tasks),
        "data_edges": data_edges,
        "notification_edges": notify_edges,
        "outputs": len(compound.outputs),
    }
