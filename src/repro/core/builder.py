"""Programmatic script construction.

The paper ships both a textual and a graphical programming environment; this
builder is the library's second front end — a fluent Python API producing the
same validated :class:`~repro.core.schema.Script` objects as the parser, handy
for tests, generated workloads and embedding.

Example::

    b = ScriptBuilder()
    b.object_classes("Order", "DispatchNote")
    (b.taskclass("Dispatch")
        .input_set("main", order="Order")
        .outcome("dispatchCompleted", dispatch="DispatchNote")
        .abort_outcome("dispatchFailed"))
    (b.compound("processOrder", "ProcessOrder")
        .task("dispatch", "Dispatch")
            .implementation(code="refDispatch")
            .input("main", "order", from_input("processOrder", "main", "order"))
        .up()
        .output("done").object("note", from_output("dispatch", "dispatchCompleted", "dispatch")))
    script = b.build()          # validated
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from .errors import SchemaError
from .graph import check
from .schema import (
    CompoundTaskDecl,
    GuardKind,
    Implementation,
    InputObjectBinding,
    InputSetBinding,
    InputSetSpec,
    NotificationBinding,
    ObjectDecl,
    OutputBinding,
    OutputKind,
    OutputObjectBinding,
    OutputSpec,
    Script,
    Source,
    TaskClass,
    TaskDecl,
)


# -- source helpers (module-level so call sites stay short) --------------------


def from_output(task: str, output: str, obj: Optional[str] = None) -> Source:
    """``[obj] of task <task> if output <output>`` (or a notification)."""
    return Source(task, obj, GuardKind.OUTPUT, output)


def from_input(task: str, input_set: str, obj: Optional[str] = None) -> Source:
    """``[obj] of task <task> if input <input_set>`` (or a notification)."""
    return Source(task, obj, GuardKind.INPUT, input_set)


def from_task(task: str, obj: str) -> Source:
    """Unguarded ``<obj> of task <task>``: any outcome/mark carrying it."""
    return Source(task, obj, GuardKind.ANY, None)


class TaskClassBuilder:
    """Builds one :class:`TaskClass`."""

    def __init__(self, parent: "ScriptBuilder", name: str) -> None:
        self._parent = parent
        self._name = name
        self._input_sets: List[InputSetSpec] = []
        self._outputs: List[OutputSpec] = []

    def input_set(self, name: str, **objects: str) -> "TaskClassBuilder":
        decls = tuple(ObjectDecl(n, c) for n, c in objects.items())
        self._input_sets.append(InputSetSpec(name, decls))
        return self

    def _output(self, name: str, kind: OutputKind, objects: Dict[str, str]) -> "TaskClassBuilder":
        decls = tuple(ObjectDecl(n, c) for n, c in objects.items())
        self._outputs.append(OutputSpec(name, kind, decls))
        return self

    def outcome(self, name: str, **objects: str) -> "TaskClassBuilder":
        return self._output(name, OutputKind.OUTCOME, objects)

    def abort_outcome(self, name: str, **objects: str) -> "TaskClassBuilder":
        return self._output(name, OutputKind.ABORT, objects)

    def repeat_outcome(self, name: str, **objects: str) -> "TaskClassBuilder":
        return self._output(name, OutputKind.REPEAT, objects)

    def mark(self, name: str, **objects: str) -> "TaskClassBuilder":
        return self._output(name, OutputKind.MARK, objects)

    def _finish(self) -> TaskClass:
        return TaskClass(self._name, tuple(self._input_sets), tuple(self._outputs))


class _InputsMixin:
    """Shared input-binding surface of task and compound builders."""

    _input_sets: Dict[str, Tuple[List[InputObjectBinding], List[NotificationBinding]]]

    def _set(self, name: str):
        return self._input_sets.setdefault(name, ([], []))

    def input(self, set_name: str, object_name: str, *sources: Source):
        """Bind ``object_name`` in input set ``set_name`` to ordered sources."""
        objects, _ = self._set(set_name)
        fixed = tuple(
            Source(s.task_name, object_name, s.guard_kind, s.guard_name)
            if s.object_name is None and s.guard_kind is not GuardKind.ANY
            else s
            for s in sources
        )
        objects.append(InputObjectBinding(object_name, fixed))
        return self

    def notify(self, set_name: str, *sources: Source):
        """Add one notification dependency (alternatives) to ``set_name``."""
        _, notifications = self._set(set_name)
        notifications.append(NotificationBinding(tuple(sources)))
        return self

    def _built_input_sets(self) -> Tuple[InputSetBinding, ...]:
        return tuple(
            InputSetBinding(name, tuple(objects), tuple(notifications))
            for name, (objects, notifications) in self._input_sets.items()
        )


class TaskBuilder(_InputsMixin):
    """Builds one :class:`TaskDecl` (possibly nested in a compound)."""

    def __init__(
        self,
        parent: Union["ScriptBuilder", "CompoundBuilder"],
        name: str,
        taskclass: str,
    ) -> None:
        self._parent = parent
        self._name = name
        self._taskclass = taskclass
        self._implementation = Implementation()
        self._input_sets = {}

    def implementation(self, **properties: str) -> "TaskBuilder":
        self._implementation = Implementation.of(**properties)
        return self

    def up(self) -> Union["ScriptBuilder", "CompoundBuilder"]:
        self._parent._finalize(self)
        return self._parent

    def _finish(self) -> TaskDecl:
        return TaskDecl(
            self._name, self._taskclass, self._implementation, self._built_input_sets()
        )


class OutputBuilder:
    """Builds one output mapping of a compound."""

    def __init__(self, parent: "CompoundBuilder", name: str) -> None:
        self._parent = parent
        self._name = name
        self._objects: List[OutputObjectBinding] = []
        self._notifications: List[NotificationBinding] = []

    def object(self, object_name: str, *sources: Source) -> "OutputBuilder":
        fixed = tuple(
            Source(s.task_name, object_name, s.guard_kind, s.guard_name)
            if s.object_name is None and s.guard_kind is not GuardKind.ANY
            else s
            for s in sources
        )
        self._objects.append(OutputObjectBinding(object_name, fixed))
        return self

    def notify(self, *sources: Source) -> "OutputBuilder":
        self._notifications.append(NotificationBinding(tuple(sources)))
        return self

    def up(self) -> "CompoundBuilder":
        return self._parent

    def _finish(self) -> OutputBinding:
        return OutputBinding(self._name, tuple(self._objects), tuple(self._notifications))


class CompoundBuilder(_InputsMixin):
    """Builds one :class:`CompoundTaskDecl`."""

    def __init__(
        self,
        parent: Union["ScriptBuilder", "CompoundBuilder"],
        name: str,
        taskclass: str,
    ) -> None:
        self._parent = parent
        self._name = name
        self._taskclass = taskclass
        self._implementation = Implementation()
        self._input_sets = {}
        self._tasks: List[Union[TaskDecl, CompoundTaskDecl]] = []
        self._outputs: List[OutputBuilder] = []

    @property
    def name(self) -> str:
        return self._name

    def implementation(self, **properties: str) -> "CompoundBuilder":
        self._implementation = Implementation.of(**properties)
        return self

    def task(self, name: str, taskclass: str) -> TaskBuilder:
        builder = TaskBuilder(self, name, taskclass)
        self._tasks.append(builder)
        return builder

    def compound(self, name: str, taskclass: str) -> "CompoundBuilder":
        builder = CompoundBuilder(self, name, taskclass)
        self._tasks.append(builder)
        return builder

    def output(self, name: str) -> OutputBuilder:
        builder = OutputBuilder(self, name)
        self._outputs.append(builder)
        return builder

    def _finalize(self, child: Union[TaskBuilder, "CompoundBuilder"]) -> None:
        index = self._tasks.index(child)
        self._tasks[index] = child._finish()

    def up(self) -> Union["ScriptBuilder", "CompoundBuilder"]:
        self._parent._finalize(self)
        return self._parent

    def _finish(self) -> CompoundTaskDecl:
        tasks = tuple(
            entry._finish() if isinstance(entry, (TaskBuilder, CompoundBuilder)) else entry
            for entry in self._tasks
        )
        return CompoundTaskDecl(
            name=self._name,
            taskclass_name=self._taskclass,
            implementation=self._implementation,
            input_sets=self._built_input_sets(),
            tasks=tasks,
            outputs=tuple(b._finish() for b in self._outputs),
        )


class ScriptBuilder:
    """Top-level builder producing a validated :class:`Script`."""

    def __init__(self) -> None:
        self._script = Script()
        self._pending: List[Union[TaskClassBuilder, TaskBuilder, CompoundBuilder]] = []

    # -- declarations -------------------------------------------------------------

    def object_class(self, name: str, extends: Optional[str] = None) -> "ScriptBuilder":
        self._script.add_class(name, extends)
        return self

    def object_classes(self, *names: str) -> "ScriptBuilder":
        for name in names:
            self._script.add_class(name)
        return self

    def taskclass(self, name: str) -> TaskClassBuilder:
        builder = TaskClassBuilder(self, name)
        self._pending.append(builder)
        return builder

    def compound(self, name: str, taskclass: str) -> CompoundBuilder:
        builder = CompoundBuilder(self, name, taskclass)
        self._pending.append(builder)
        return builder

    # -- registration hooks used by sub-builders -----------------------------------

    def _finalize(self, child: Union[TaskClassBuilder, TaskBuilder, CompoundBuilder]) -> None:
        self._pending.remove(child)
        result = child._finish()
        if isinstance(result, TaskClass):
            self._script.add_taskclass(result)
        else:
            self._script.add_task(result)

    # -- finishing -------------------------------------------------------------------

    def build(self, validate: bool = True) -> Script:
        """Finalize dangling sub-builders, then validate and return the script."""
        while self._pending:
            self._finalize(self._pending[0])
        return check(self._script) if validate else self._script
