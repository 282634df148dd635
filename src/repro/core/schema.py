"""The schema model: the language's abstract syntax as validated data.

This is the core data structure of the reproduction — the in-memory form of a
workflow *script* (the paper calls the stored form a *schema*).  The textual
language (:mod:`repro.lang`) parses into these classes; the programmatic
builder (:mod:`repro.core.builder`) constructs them directly; both engines
execute them; the repository service stores them.

Terminology follows the paper (§4):

* ``ObjectClass`` — opaque named type; scripts move *references* around.
* ``TaskClass`` — a task signature: alternative *input sets* and named,
  typed *outputs* of four kinds (outcome / abort outcome / repeat outcome /
  mark).
* ``TaskDecl`` — a task instance: taskclass + late-bound implementation +
  per-input-object ordered alternative *sources* + notification dependencies.
* ``CompoundTaskDecl`` — constituent task instances + a mapping from
  constituent outputs onto the compound's own outputs.
* ``TaskTemplate`` — a parameterised task/compound declaration.
* ``Script`` — a compilation unit holding all of the above.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Dict, Iterator, Mapping, Optional, Tuple, Union

from .errors import SchemaError


class OutputKind(enum.Enum):
    """The four output types of §4.2."""

    OUTCOME = "outcome"
    ABORT = "abort outcome"
    REPEAT = "repeat outcome"
    MARK = "mark"


class GuardKind(enum.Enum):
    """What a source's ``if`` clause refers to."""

    OUTPUT = "output"   # ... if output <name>
    INPUT = "input"     # ... if input <set name>
    ANY = "any"         # no guard: any non-abort, non-repeat output


# ---------------------------------------------------------------------------
# Task classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObjectDecl:
    """``name of class ClassName`` — a typed object reference slot."""

    name: str
    class_name: str


@dataclass(frozen=True)
class InputSetSpec:
    """One alternative input set of a task class."""

    name: str
    objects: Tuple[ObjectDecl, ...] = ()

    def object(self, name: str) -> Optional[ObjectDecl]:
        for decl in self.objects:
            if decl.name == name:
                return decl
        return None


@dataclass(frozen=True)
class OutputSpec:
    """One named output of a task class, of a given :class:`OutputKind`."""

    name: str
    kind: OutputKind
    objects: Tuple[ObjectDecl, ...] = ()

    def object(self, name: str) -> Optional[ObjectDecl]:
        for decl in self.objects:
            if decl.name == name:
                return decl
        return None


# (name, ((input set, ((object, class), ...)), ...),
#        ((output, OutputKind name, ((object, class), ...)), ...))
TaskClassWire = Tuple[str, Tuple[Tuple[str, tuple], ...], Tuple[Tuple[str, str, tuple], ...]]


@dataclass(frozen=True)
class TaskClass:
    """A task signature (``taskclass`` construct)."""

    name: str
    input_sets: Tuple[InputSetSpec, ...] = ()
    outputs: Tuple[OutputSpec, ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for spec in self.input_sets:
            if spec.name in seen:
                raise SchemaError(f"duplicate input set {spec.name!r}", self.name)
            seen.add(spec.name)
            names = [o.name for o in spec.objects]
            if len(names) != len(set(names)):
                raise SchemaError(f"duplicate input object in set {spec.name!r}", self.name)
        seen = set()
        for out in self.outputs:
            if out.name in seen:
                raise SchemaError(f"duplicate output {out.name!r}", self.name)
            seen.add(out.name)
            names = [o.name for o in out.objects]
            if len(names) != len(set(names)):
                raise SchemaError(f"duplicate output object in {out.name!r}", self.name)
        if self.is_atomic and any(o.kind is OutputKind.MARK for o in self.outputs):
            # §4.2: a task that produced a mark can no longer abort; an atomic
            # task produces outputs only after commit, so marks are forbidden.
            raise SchemaError("atomic task class cannot declare mark outputs", self.name)

    # -- lookups ---------------------------------------------------------------

    def input_set(self, name: str) -> Optional[InputSetSpec]:
        for spec in self.input_sets:
            if spec.name == name:
                return spec
        return None

    def output(self, name: str) -> Optional[OutputSpec]:
        for out in self.outputs:
            if out.name == name:
                return out
        return None

    @property
    def is_atomic(self) -> bool:
        """A task class with at least one abort outcome is atomic (§4.2)."""
        return any(o.kind is OutputKind.ABORT for o in self.outputs)

    def outputs_of_kind(self, kind: OutputKind) -> Tuple[OutputSpec, ...]:
        return tuple(o for o in self.outputs if o.kind is kind)

    def final_outputs(self) -> Tuple[OutputSpec, ...]:
        """Outputs that terminate the task (outcomes + abort outcomes)."""
        return tuple(
            o for o in self.outputs if o.kind in (OutputKind.OUTCOME, OutputKind.ABORT)
        )

    # -- wire form ---------------------------------------------------------------

    @cached_property
    def wire(self) -> TaskClassWire:
        """This signature as nested tuples of strings: plain data that is
        hashable and deeply immutable, so one encoding (computed once per
        class object) serves every dispatch of every task of the class and
        crosses the ORB by reference."""
        return (
            self.name,
            tuple(
                (s.name, tuple((o.name, o.class_name) for o in s.objects))
                for s in self.input_sets
            ),
            tuple(
                (o.name, o.kind.name, tuple((d.name, d.class_name) for d in o.objects))
                for o in self.outputs
            ),
        )

    @classmethod
    def from_wire(cls, wire: TaskClassWire) -> "TaskClass":
        name, input_sets, outputs = wire
        return cls(
            name,
            tuple(
                InputSetSpec(s, tuple(ObjectDecl(n, c) for n, c in objects))
                for s, objects in input_sets
            ),
            tuple(
                OutputSpec(o, OutputKind[kind], tuple(ObjectDecl(n, c) for n, c in objects))
                for o, kind, objects in outputs
            ),
        )


# ---------------------------------------------------------------------------
# Sources and bindings (task instances)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Source:
    """One alternative source for an input object or a notification.

    ``object_name`` is None for pure notifications.  ``task_name`` is the
    producer, resolved in the enclosing compound's scope (a sibling
    constituent or the enclosing compound itself).
    """

    task_name: str
    object_name: Optional[str] = None
    guard_kind: GuardKind = GuardKind.ANY
    guard_name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.guard_kind is GuardKind.ANY and self.guard_name is not None:
            raise SchemaError("unguarded source cannot carry a guard name")
        if self.guard_kind is not GuardKind.ANY and not self.guard_name:
            raise SchemaError(f"{self.guard_kind.value} guard requires a name")

    @property
    def is_notification(self) -> bool:
        return self.object_name is None


@dataclass(frozen=True)
class InputObjectBinding:
    """``inputobject <name> from { <sources> }`` — ordered alternatives."""

    name: str
    sources: Tuple[Source, ...]

    def __post_init__(self) -> None:
        if not self.sources:
            raise SchemaError(f"input object {self.name!r} has no sources")
        for source in self.sources:
            if source.is_notification:
                raise SchemaError(
                    f"input object {self.name!r} lists a notification source"
                )


@dataclass(frozen=True)
class NotificationBinding:
    """``notification from { <sources> }`` — any alternative satisfies it."""

    sources: Tuple[Source, ...]

    def __post_init__(self) -> None:
        if not self.sources:
            raise SchemaError("notification has no sources")
        for source in self.sources:
            if not source.is_notification:
                raise SchemaError("notification source cannot name an object")


@dataclass(frozen=True)
class InputSetBinding:
    """Bindings for one input set of a task instance."""

    name: str
    objects: Tuple[InputObjectBinding, ...] = ()
    notifications: Tuple[NotificationBinding, ...] = ()

    def object(self, name: str) -> Optional[InputObjectBinding]:
        for binding in self.objects:
            if binding.name == name:
                return binding
        return None


# The fixed criticality vocabulary, in degrade order: under pressure the
# execution service sheds hedged duplicates first, then new "low" admissions,
# then new admissions of any class (docs/PROTOCOLS.md §13).
CRITICALITY_CLASSES = ("low", "normal", "high")


@dataclass(frozen=True)
class WellKnownProperty:
    """One keyword of the ``implementation`` clause that the system itself
    reads.  Text that ``parse`` rejects or ``accepts`` refuses is outside
    ``expects``: the clause then carries ``default``, and ``repro lint`` says
    so (``W009``)."""

    keyword: str
    expects: str
    default: object
    parse: Callable[[str], object]
    accepts: Callable[[object], bool] = lambda value: True

    def read(self, text: str) -> object:
        value = self.parse(text)
        if not self.accepts(value):
            raise ValueError(text)
        return value


# The one declaration of the well-known keywords: the typed attributes of
# :class:`Implementation`, ``W009`` and the table in docs/LANGUAGE.md §4.3
# (which says what each is for and who reads it) follow it.
WELL_KNOWN_PROPERTIES: Tuple[WellKnownProperty, ...] = (
    WellKnownProperty("code", "name", None, str),
    WellKnownProperty("retries", "int", None, int),  # None: the engine's default
    WellKnownProperty("priority", "int", 0, int),
    WellKnownProperty("timeout", "float > 0 (wall s)", None, float, lambda v: v > 0),
    WellKnownProperty("deadline", "float (sim s)", None, float),
    WellKnownProperty("delay", "float >= 0 (sim s)", 0.0, float, lambda v: v >= 0),
    WellKnownProperty("location", "name", None, str),
    WellKnownProperty(
        "criticality", "|".join(CRITICALITY_CLASSES), "normal", str, CRITICALITY_CLASSES.__contains__
    ),
)


@dataclass(frozen=True)
class Implementation:
    """The ``implementation`` clause: late-bound keyword/value pairs (§4.3).

    The clause is open — any keyword is legal and reaches the implementation
    as text through ``ctx.properties`` — but the keywords of
    :data:`WELL_KNOWN_PROPERTIES` are read by the system, so each is parsed
    here, once per clause (a script shares its clauses with every instance),
    into an attribute of its own name: ``clause.code``, ``clause.priority``,
    ...  ``ill_typed`` holds ``(WellKnownProperty, text)`` for every one
    whose text did not parse and was replaced by its default.
    """

    properties: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        ill_typed = []
        declared = dict(reversed(self.properties))  # like get(): the first wins
        for known in WELL_KNOWN_PROPERTIES:
            text = declared.get(known.keyword)
            value = known.default
            if text is not None:
                try:
                    value = known.read(text)
                except ValueError:
                    ill_typed.append((known, text))
            object.__setattr__(self, known.keyword, value)
        object.__setattr__(self, "ill_typed", tuple(ill_typed))

    @classmethod
    def of(cls, **properties: str) -> "Implementation":
        return cls(tuple(sorted((k, str(v)) for k, v in properties.items())))

    def get(self, keyword: str, default: Optional[str] = None) -> Optional[str]:
        for key, value in self.properties:
            if key == keyword:
                return value
        return default

    def as_dict(self) -> Dict[str, str]:
        return dict(self.properties)


@dataclass(frozen=True)
class TaskDecl:
    """A (simple) task instance (``task`` construct)."""

    name: str
    taskclass_name: str
    implementation: Implementation = field(default_factory=Implementation)
    input_sets: Tuple[InputSetBinding, ...] = ()

    def input_set(self, name: str) -> Optional[InputSetBinding]:
        for binding in self.input_sets:
            if binding.name == name:
                return binding
        return None

    @property
    def is_compound(self) -> bool:
        return False


# ---------------------------------------------------------------------------
# Compound tasks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OutputObjectBinding:
    """``outputobject <name> from { <sources> }`` in a compound's outputs."""

    name: str
    sources: Tuple[Source, ...]

    def __post_init__(self) -> None:
        if not self.sources:
            raise SchemaError(f"output object {self.name!r} has no sources")
        for source in self.sources:
            if source.is_notification:
                raise SchemaError(f"output object {self.name!r} lists a notification source")


@dataclass(frozen=True)
class OutputBinding:
    """Mapping of one compound output onto constituent events."""

    name: str
    objects: Tuple[OutputObjectBinding, ...] = ()
    notifications: Tuple[NotificationBinding, ...] = ()

    def object(self, name: str) -> Optional[OutputObjectBinding]:
        for binding in self.objects:
            if binding.name == name:
                return binding
        return None


@dataclass(frozen=True)
class CompoundTaskDecl:
    """A compound task instance (``compoundtask`` construct, §4.4)."""

    name: str
    taskclass_name: str
    input_sets: Tuple[InputSetBinding, ...] = ()
    tasks: Tuple[Union[TaskDecl, "CompoundTaskDecl"], ...] = ()
    outputs: Tuple[OutputBinding, ...] = ()
    implementation: Implementation = field(default_factory=Implementation)

    def __post_init__(self) -> None:
        names = [t.name for t in self.tasks]
        if len(names) != len(set(names)):
            raise SchemaError("duplicate constituent task name", self.name)
        if self.name in names:
            raise SchemaError(
                "constituent task shadows the compound's own name", self.name
            )

    def input_set(self, name: str) -> Optional[InputSetBinding]:
        for binding in self.input_sets:
            if binding.name == name:
                return binding
        return None

    def task(self, name: str) -> Optional[Union[TaskDecl, "CompoundTaskDecl"]]:
        for task in self.tasks:
            if task.name == name:
                return task
        return None

    def output(self, name: str) -> Optional[OutputBinding]:
        for binding in self.outputs:
            if binding.name == name:
                return binding
        return None

    @property
    def is_compound(self) -> bool:
        return True


AnyTaskDecl = Union[TaskDecl, CompoundTaskDecl]


# ---------------------------------------------------------------------------
# Templates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaskTemplate:
    """``tasktemplate`` — a parameterised task declaration (§4.5).

    ``parameters`` are names that may appear as the ``task_name`` of sources
    in the body; instantiation substitutes the arguments positionally and
    renames the declaration.
    """

    name: str
    parameters: Tuple[str, ...]
    body: AnyTaskDecl

    def __post_init__(self) -> None:
        if len(set(self.parameters)) != len(self.parameters):
            raise SchemaError("duplicate template parameter", self.name)

    def instantiate(self, instance_name: str, arguments: Tuple[str, ...]) -> AnyTaskDecl:
        if len(arguments) != len(self.parameters):
            raise SchemaError(
                f"template {self.name!r} expects {len(self.parameters)} argument(s), "
                f"got {len(arguments)}",
                instance_name,
            )
        mapping = dict(zip(self.parameters, arguments))
        mapping[self.body.name] = instance_name
        return _substitute(self.body, mapping, rename=instance_name)


def _substitute_source(source: Source, mapping: Mapping[str, str]) -> Source:
    target = mapping.get(source.task_name, source.task_name)
    return replace(source, task_name=target)


def _substitute_input_sets(
    input_sets: Tuple[InputSetBinding, ...], mapping: Mapping[str, str]
) -> Tuple[InputSetBinding, ...]:
    return tuple(
        InputSetBinding(
            name=binding.name,
            objects=tuple(
                InputObjectBinding(
                    obj.name,
                    tuple(_substitute_source(s, mapping) for s in obj.sources),
                )
                for obj in binding.objects
            ),
            notifications=tuple(
                NotificationBinding(
                    tuple(_substitute_source(s, mapping) for s in notif.sources)
                )
                for notif in binding.notifications
            ),
        )
        for binding in input_sets
    )


def _substitute(decl: AnyTaskDecl, mapping: Mapping[str, str], rename: str) -> AnyTaskDecl:
    if isinstance(decl, TaskDecl):
        return TaskDecl(
            name=rename,
            taskclass_name=decl.taskclass_name,
            implementation=decl.implementation,
            input_sets=_substitute_input_sets(decl.input_sets, mapping),
        )
    return CompoundTaskDecl(
        name=rename,
        taskclass_name=decl.taskclass_name,
        implementation=decl.implementation,
        input_sets=_substitute_input_sets(decl.input_sets, mapping),
        tasks=tuple(_substitute(t, mapping, rename=t.name) for t in decl.tasks),
        outputs=tuple(
            OutputBinding(
                name=out.name,
                objects=tuple(
                    OutputObjectBinding(
                        obj.name,
                        tuple(_substitute_source(s, mapping) for s in obj.sources),
                    )
                    for obj in out.objects
                ),
                notifications=tuple(
                    NotificationBinding(
                        tuple(_substitute_source(s, mapping) for s in notif.sources)
                    )
                    for notif in out.notifications
                ),
            )
            for out in decl.outputs
        ),
    )


# ---------------------------------------------------------------------------
# Script (compilation unit / stored schema)
# ---------------------------------------------------------------------------


@dataclass
class Script:
    """A full workflow script: classes, task classes, declarations, templates.

    ``classes`` maps each object class to its supertype name (or None for a
    root class).  Object sub-typing is the extension the paper's §7 names as
    future work ("the addition of sub-typing of object would be
    straightforward"): a reference of a subclass may flow anywhere its
    superclass is expected, enabling "building block" tasks over supertypes.
    """

    classes: Dict[str, Optional[str]] = field(default_factory=dict)
    taskclasses: Dict[str, TaskClass] = field(default_factory=dict)
    tasks: Dict[str, AnyTaskDecl] = field(default_factory=dict)
    templates: Dict[str, TaskTemplate] = field(default_factory=dict)

    # -- construction -----------------------------------------------------------

    def add_class(self, name: str, extends: Optional[str] = None) -> None:
        self.classes[name] = extends

    def is_subclass(self, sub: str, sup: str) -> bool:
        """True iff ``sub`` equals ``sup`` or transitively extends it."""
        seen = set()
        current: Optional[str] = sub
        while current is not None and current not in seen:
            if current == sup:
                return True
            seen.add(current)
            current = self.classes.get(current)
        return False

    def add_taskclass(self, taskclass: TaskClass) -> None:
        if taskclass.name in self.taskclasses:
            raise SchemaError(f"taskclass {taskclass.name!r} already declared")
        self.taskclasses[taskclass.name] = taskclass

    def add_task(self, decl: AnyTaskDecl) -> None:
        if decl.name in self.tasks:
            raise SchemaError(f"task {decl.name!r} already declared")
        self.tasks[decl.name] = decl

    def add_template(self, template: TaskTemplate) -> None:
        if template.name in self.templates:
            raise SchemaError(f"template {template.name!r} already declared")
        self.templates[template.name] = template

    def instantiate_template(
        self, instance_name: str, template_name: str, arguments: Tuple[str, ...]
    ) -> AnyTaskDecl:
        try:
            template = self.templates[template_name]
        except KeyError:
            raise SchemaError(f"unknown template {template_name!r}", instance_name) from None
        decl = template.instantiate(instance_name, arguments)
        self.add_task(decl)
        return decl

    # -- lookups -----------------------------------------------------------------

    def taskclass_of(self, decl: AnyTaskDecl) -> TaskClass:
        try:
            return self.taskclasses[decl.taskclass_name]
        except KeyError:
            raise SchemaError(
                f"unknown taskclass {decl.taskclass_name!r}", decl.name
            ) from None

    def walk_tasks(self) -> Iterator[Tuple[str, AnyTaskDecl]]:
        """Yield every declaration, depth-first, with '/'-separated paths."""

        def walk(prefix: str, decl: AnyTaskDecl) -> Iterator[Tuple[str, AnyTaskDecl]]:
            path = f"{prefix}/{decl.name}" if prefix else decl.name
            yield path, decl
            if isinstance(decl, CompoundTaskDecl):
                for child in decl.tasks:
                    yield from walk(path, child)

        for decl in self.tasks.values():
            yield from walk("", decl)
