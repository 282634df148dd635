"""Dynamic reconfiguration: transactional schema changes.

The paper (§3) requires that a *running* application can have tasks,
notifications and dependencies added or removed, with transactions making the
change atomic with respect to normal processing.  We implement changes as
first-class :class:`Change` values over immutable schemas: applying a change
produces a *new* ``Script`` (structural sharing keeps this cheap), validation
runs on the result, and the engines swap schemas at a quiescent point inside a
transaction.  Because schemas are immutable, a failed change leaves nothing to
undo — atomicity by construction, mirroring the paper's use of atomic objects.

Task paths address nested declarations: ``""`` is the script's top level,
``"order"`` the top-level task *order*, ``"trip/businessReservation"`` a
constituent inside a compound.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

from .errors import ReconfigurationError
from .graph import validate_script
from .schema import (
    AnyTaskDecl,
    CompoundTaskDecl,
    Implementation,
    InputObjectBinding,
    InputSetBinding,
    NotificationBinding,
    OutputBinding,
    Script,
    Source,
    TaskDecl,
)


def _split(path: str) -> List[str]:
    return [part for part in path.split("/") if part]


def _rebuild(script: Script, path: str, fn: Callable[[AnyTaskDecl], AnyTaskDecl]) -> Script:
    """Return a new script where the declaration at ``path`` is ``fn(old)``;
    every compound on the way down is rebuilt, everything else is shared."""
    parts = _split(path)
    if not parts:
        raise ReconfigurationError(f"path {path!r} does not name a task")

    def descend(decl: AnyTaskDecl, remaining: List[str]) -> AnyTaskDecl:
        if not remaining:
            return fn(decl)
        if not isinstance(decl, CompoundTaskDecl):
            raise ReconfigurationError(f"{decl.name!r} is not a compound task")
        head = remaining[0]
        child = decl.task(head)
        if child is None:
            raise ReconfigurationError(f"{decl.name!r} has no constituent {head!r}")
        new_child = descend(child, remaining[1:])
        new_tasks = tuple(new_child if t.name == head else t for t in decl.tasks)
        return dataclasses.replace(decl, tasks=new_tasks)

    root_name = parts[0]
    if root_name not in script.tasks:
        raise ReconfigurationError(f"no top-level task {root_name!r}")
    new_root = descend(script.tasks[root_name], parts[1:])
    new_tasks = dict(script.tasks)
    new_tasks[root_name] = new_root
    return Script(
        classes=dict(script.classes),
        taskclasses=dict(script.taskclasses),
        tasks=new_tasks,
        templates=dict(script.templates),
    )


# ---------------------------------------------------------------------------
# Changes
# ---------------------------------------------------------------------------


class Change:
    """One atomic reconfiguration step."""

    def apply_checked(self, script: Script) -> Script:
        """Apply, then validate the result; raise without effect if invalid."""
        result = self.apply(script)
        errors = validate_script(result)
        if errors:
            summary = "; ".join(str(e) for e in errors[:3])
            raise ReconfigurationError(
                f"change {type(self).__name__} would break "
                f"the schema: {summary}"
            )
        return result


@dataclass
class AddTask(Change):
    """Add a constituent to the compound at ``compound_path`` (the paper's
    own scenario: add t5 with dependencies from t2 and t4)."""

    compound_path: str
    decl: AnyTaskDecl

    def apply(self, script: Script) -> Script:
        def add(decl: AnyTaskDecl) -> AnyTaskDecl:
            if not isinstance(decl, CompoundTaskDecl):
                raise ReconfigurationError(f"{decl.name!r} is not a compound task")
            if decl.task(self.decl.name) is not None:
                raise ReconfigurationError(
                    f"{decl.name!r} already has a constituent {self.decl.name!r}"
                )
            return dataclasses.replace(decl, tasks=decl.tasks + (self.decl,))

        return _rebuild(script, self.compound_path, add)


@dataclass
class RemoveTask(Change):
    """Remove a constituent.  Refused while other constituents (or the
    compound's outputs) still depend on it, preserving well-formedness."""

    compound_path: str
    task_name: str

    def apply(self, script: Script) -> Script:
        def remove(decl: AnyTaskDecl) -> AnyTaskDecl:
            if not isinstance(decl, CompoundTaskDecl):
                raise ReconfigurationError(f"{decl.name!r} is not a compound task")
            if decl.task(self.task_name) is None:
                raise ReconfigurationError(
                    f"{decl.name!r} has no constituent {self.task_name!r}"
                )
            dependents = _dependents_of(decl, self.task_name)
            if dependents:
                raise ReconfigurationError(
                    f"cannot remove {self.task_name!r}: still referenced by "
                    f"{sorted(dependents)}"
                )
            new_tasks = tuple(t for t in decl.tasks if t.name != self.task_name)
            return dataclasses.replace(decl, tasks=new_tasks)

        return _rebuild(script, self.compound_path, remove)


@dataclass
class AddDependency(Change):
    """Add an input-object or notification dependency to a task instance.

    Locality of modification (§2): only the consumer's declaration changes.
    """

    task_path: str
    input_set: str
    object_name: Optional[str]       # None => notification dependency
    sources: Tuple[Source, ...]

    def apply(self, script: Script) -> Script:
        def add(decl: AnyTaskDecl) -> AnyTaskDecl:
            binding = decl.input_set(self.input_set)
            if binding is None:
                binding = InputSetBinding(self.input_set)
                new_sets = decl.input_sets + (binding,)
            else:
                new_sets = decl.input_sets
            if self.object_name is None:
                new_binding = dataclasses.replace(
                    binding,
                    notifications=binding.notifications
                    + (NotificationBinding(self.sources),),
                )
            else:
                if binding.object(self.object_name) is not None:
                    raise ReconfigurationError(
                        f"{decl.name!r} already binds object {self.object_name!r} "
                        f"in set {self.input_set!r}"
                    )
                new_binding = dataclasses.replace(
                    binding,
                    objects=binding.objects
                    + (InputObjectBinding(self.object_name, self.sources),),
                )
            rebuilt = tuple(
                new_binding if s.name == self.input_set else s for s in new_sets
            )
            return dataclasses.replace(decl, input_sets=rebuilt)

        return _rebuild(script, self.task_path, add)


@dataclass
class RemoveDependency(Change):
    """Remove a notification (by index) or an input-object binding."""

    task_path: str
    input_set: str
    object_name: Optional[str] = None
    notification_index: Optional[int] = None

    def apply(self, script: Script) -> Script:
        def remove(decl: AnyTaskDecl) -> AnyTaskDecl:
            binding = decl.input_set(self.input_set)
            if binding is None:
                raise ReconfigurationError(
                    f"{decl.name!r} has no input set {self.input_set!r}"
                )
            if self.object_name is not None:
                if binding.object(self.object_name) is None:
                    raise ReconfigurationError(
                        f"set {self.input_set!r} does not bind {self.object_name!r}"
                    )
                new_binding = dataclasses.replace(
                    binding,
                    objects=tuple(
                        b for b in binding.objects if b.name != self.object_name
                    ),
                )
            else:
                index = self.notification_index or 0
                if not 0 <= index < len(binding.notifications):
                    raise ReconfigurationError(
                        f"set {self.input_set!r} has no notification #{index}"
                    )
                new_binding = dataclasses.replace(
                    binding,
                    notifications=tuple(
                        n for i, n in enumerate(binding.notifications) if i != index
                    ),
                )
            rebuilt = tuple(
                new_binding if s.name == self.input_set else s for s in decl.input_sets
            )
            return dataclasses.replace(decl, input_sets=rebuilt)

        return _rebuild(script, self.task_path, remove)


@dataclass
class AddTemplateInstances(Change):
    """Instantiate a task template N times into a running compound.

    This is the §5.3 "dynamic task containing several parallel requests"
    made explicit: the checkFlightReservation pattern can grow another
    parallel query at run time by stamping the template again.  Arguments
    are resolved against the template as usual; the new constituents join in
    WAIT and replay the scope history like any added task.
    """

    compound_path: str
    template_name: str
    instances: Tuple[Tuple[str, Tuple[str, ...]], ...]  # (name, args)...

    def apply(self, script: Script) -> Script:
        try:
            template = script.templates[self.template_name]
        except KeyError:
            raise ReconfigurationError(
                f"unknown template {self.template_name!r}"
            ) from None

        def grow(decl: AnyTaskDecl) -> AnyTaskDecl:
            if not isinstance(decl, CompoundTaskDecl):
                raise ReconfigurationError(f"{decl.name!r} is not a compound task")
            added = []
            for name, args in self.instances:
                if decl.task(name) is not None:
                    raise ReconfigurationError(
                        f"{decl.name!r} already has a constituent {name!r}"
                    )
                added.append(template.instantiate(name, tuple(args)))
            return dataclasses.replace(decl, tasks=decl.tasks + tuple(added))

        return _rebuild(script, self.compound_path, grow)


@dataclass
class ReplaceOutputMapping(Change):
    """Rewire one output of a compound task to new sources.

    Needed when reconfiguration extends a workflow past its old final task
    (e.g. the paper's add-t5 scenario: the compound's outcome must now wait
    for t5 instead of t4)."""

    compound_path: str
    output: "OutputBinding"

    def apply(self, script: Script) -> Script:
        def rewire(decl: AnyTaskDecl) -> AnyTaskDecl:
            if not isinstance(decl, CompoundTaskDecl):
                raise ReconfigurationError(f"{decl.name!r} is not a compound task")
            if decl.output(self.output.name) is None:
                new_outputs = decl.outputs + (self.output,)
            else:
                new_outputs = tuple(
                    self.output if b.name == self.output.name else b
                    for b in decl.outputs
                )
            return dataclasses.replace(decl, outputs=new_outputs)

        return _rebuild(script, self.compound_path, rewire)


@dataclass
class ReplaceImplementation(Change):
    """Swap a task's late-bound implementation (online upgrade, §3)."""

    task_path: str
    implementation: Implementation

    def apply(self, script: Script) -> Script:
        def swap(decl: AnyTaskDecl) -> AnyTaskDecl:
            return dataclasses.replace(decl, implementation=self.implementation)

        return _rebuild(script, self.task_path, swap)


def apply_changes(script: Script, changes: List[Change]) -> Script:
    """Apply a batch of changes atomically: all validate or none apply."""
    result = script
    for change in changes:
        result = change.apply(result)
    errors = validate_script(result)
    if errors:
        summary = "; ".join(str(e) for e in errors[:3])
        raise ReconfigurationError(f"batch would break the schema: {summary}")
    return result


def _dependents_of(compound: CompoundTaskDecl, producer: str) -> List[str]:
    """Constituents (or outputs) of ``compound`` that source from ``producer``."""
    dependents: List[str] = []
    for child in compound.tasks:
        if child.name == producer:
            continue
        for binding in child.input_sets:
            for obj in binding.objects:
                if any(s.task_name == producer for s in obj.sources):
                    dependents.append(child.name)
            for notif in binding.notifications:
                if any(s.task_name == producer for s in notif.sources):
                    dependents.append(child.name)
    for out in compound.outputs:
        for obj in out.objects:
            if any(s.task_name == producer for s in obj.sources):
                dependents.append(f"{compound.name}.outputs.{out.name}")
        for notif in out.notifications:
            if any(s.task_name == producer for s in notif.sources):
                dependents.append(f"{compound.name}.outputs.{out.name}")
    return sorted(set(dependents))
