"""Script linter: quality diagnostics beyond semantic validity.

The repository service accepts any *valid* script; these checks flag scripts
that are valid but probably wrong — the class of mistakes the paper's
examples show are easy to make (its own listings contain one).

Every code this linter can emit is declared (with severity and long
description) in the central registry,
:data:`repro.analysis.registry.DIAGNOSTICS`; :meth:`Linter._warn` refuses
unregistered codes, so a new check cannot silently collide with an existing
or retired code.  The live ``W0xx`` codes:

* ``W001`` dependency cycle among constituents (no repeat outcome involved):
  the tasks on the cycle can never start.
* ``W002`` simple task without a ``code`` implementation property: nothing
  can be bound at run time.
* ``W003`` constituent none of whose outputs is consumed (neither by a
  sibling nor by the compound's output mapping): its results go nowhere.
* ``W005`` task class input set never bound by an instance: that way of
  starting the task is unreachable for this instance.
* ``W007`` abort outcome nobody reacts to: when the atomic task aborts, the
  workflow silently loses the branch.
* ``W008`` unused declaration (object class, task class or template never
  referenced).
* ``W009`` a well-known implementation property whose text is not of its
  declared type: the system runs on the default instead.

``W004`` and ``W006`` — draft checks documented in early versions of this
module but never implemented — are *retired* in the registry: permanently
reserved, never to be reused with a different meaning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from ..analysis.registry import DIAGNOSTICS
from ..core.graph import find_cycles
from ..core.schema import (
    AnyTaskDecl,
    CompoundTaskDecl,
    GuardKind,
    OutputKind,
    Script,
    TaskDecl,
)


@dataclass(frozen=True)
class LintWarning:
    code: str
    location: str
    message: str


class Linter:
    def __init__(self, script: Script) -> None:
        self.script = script
        self.warnings: List[LintWarning] = []
        self._used_classes: Set[str] = set()
        self._used_taskclasses: Set[str] = set()

    def lint(self) -> List[LintWarning]:
        for decl in self.script.tasks.values():
            self._lint_decl(decl, path=decl.name, top_level=True)
        self._lint_unused()
        return self.warnings

    # -- per-declaration checks ---------------------------------------------------

    def _lint_decl(self, decl: AnyTaskDecl, path: str, top_level: bool = False) -> None:
        taskclass = self.script.taskclasses.get(decl.taskclass_name)
        if taskclass is None:
            return  # validation's problem, not ours
        self._used_taskclasses.add(taskclass.name)
        for spec in taskclass.input_sets:
            for obj in spec.objects:
                self._used_classes.add(obj.class_name)
        for out in taskclass.outputs:
            for obj in out.objects:
                self._used_classes.add(obj.class_name)
        if isinstance(decl, TaskDecl):
            if decl.implementation.code is None:
                self._warn("W002", path, "no 'code' implementation property")
        for known, text in decl.implementation.ill_typed:
            if known.default is None:
                in_force = "it is treated as absent"
            else:
                in_force = f"the default ({known.default}) is in force"
            self._warn(
                "W009",
                path,
                f"implementation property {known.keyword!r} is {text!r}, not "
                f"{known.expects}: {in_force}",
            )
        if not top_level:
            # a top-level task's inputs come from the environment at
            # instantiation time, so unbound sets are normal there
            bound = {binding.name for binding in decl.input_sets}
            for spec in taskclass.input_sets:
                if spec.name not in bound:
                    self._warn(
                        "W005",
                        path,
                        f"input set {spec.name!r} of taskclass "
                        f"{taskclass.name!r} is never bound",
                    )
        if isinstance(decl, CompoundTaskDecl):
            self._lint_compound(decl, path)

    def _lint_compound(self, decl: CompoundTaskDecl, path: str) -> None:
        for cycle in find_cycles(decl, self.script):
            self._warn(
                "W001",
                path,
                f"dependency cycle among constituents: {' -> '.join(cycle)}",
            )
        consumed: Dict[str, Set[str]] = {child.name: set() for child in decl.tasks}
        any_reference: Set[str] = set()

        def note(source) -> None:
            if source.task_name in consumed:
                any_reference.add(source.task_name)
                if source.guard_kind is GuardKind.OUTPUT:
                    consumed[source.task_name].add(source.guard_name)
                elif source.guard_kind is GuardKind.ANY:
                    consumed[source.task_name].add("*")

        for child in decl.tasks:
            for binding in child.input_sets:
                for obj in binding.objects:
                    for source in obj.sources:
                        note(source)
                for notif in binding.notifications:
                    for source in notif.sources:
                        note(source)
        for out in decl.outputs:
            for obj in out.objects:
                for source in obj.sources:
                    note(source)
            for notif in out.notifications:
                for source in notif.sources:
                    note(source)

        for child in decl.tasks:
            child_path = f"{path}/{child.name}"
            child_class = self.script.taskclasses.get(child.taskclass_name)
            if child_class is None:
                continue
            if child.name not in any_reference and child_class.outputs:
                self._warn(
                    "W003",
                    child_path,
                    "none of this task's outputs is consumed by a sibling or "
                    "by the compound's outputs",
                )
            for out in child_class.outputs_of_kind(OutputKind.ABORT):
                refs = consumed.get(child.name, set())
                if out.name not in refs and "*" not in refs:
                    self._warn(
                        "W007",
                        child_path,
                        f"abort outcome {out.name!r} is never handled",
                    )
            self._lint_decl(child, child_path)

    # -- whole-script checks ----------------------------------------------------------

    def _lint_unused(self) -> None:
        for name in self.script.classes:
            if name not in self._used_classes and not any(
                parent == name for parent in self.script.classes.values()
            ):
                self._warn("W008", name, "object class is never used")
        for name in self.script.taskclasses:
            if name not in self._used_taskclasses and not self._used_by_template(name):
                self._warn("W008", name, "taskclass is never instantiated")

    def _used_by_template(self, taskclass_name: str) -> bool:
        def uses(decl: AnyTaskDecl) -> bool:
            if decl.taskclass_name == taskclass_name:
                return True
            if isinstance(decl, CompoundTaskDecl):
                return any(uses(child) for child in decl.tasks)
            return False

        return any(uses(t.body) for t in self.script.templates.values())

    def _warn(self, code: str, location: str, message: str) -> None:
        DIAGNOSTICS.require(code)  # KeyError on unknown/retired codes
        self.warnings.append(LintWarning(code, location, message))


def lint_script(script: Script) -> List[LintWarning]:
    """Run every lint check; returns findings (empty list = clean)."""
    return Linter(script).lint()
