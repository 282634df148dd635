"""Outcome-reachability analysis: lightweight verification of schemas.

Given a workflow, which of its declared outcomes can actually happen?  The
language makes this answerable: task implementations are opaque, but their
*interfaces* are not — each simple task terminates in one of its class's
final outputs.  Enumerating those choices and running the real engine with
synthetic implementations explores the workflow's whole behaviour space
(application logic decides *which* branch; the analysis covers *all*).

Reported per root outcome: reachable (with a witness assignment) or
unreachable — unreachable outcomes are usually bugs in the output mapping,
the class of mistake the paper's own Fig. 7 listing contains.  Cases that
terminate no root outcome are reported as stalls (dead-end assignments).

Bounded: tasks with repeat outcomes are explored without taking the repeat
(loops are cut once); marks are emitted before each chosen outcome so
mark-fed consumers are covered.  The case product is capped by ``max_cases``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..engine.context import TaskContext, TaskResult, outcome as make_outcome
from ..engine.events import WorkflowStatus
from ..engine.local import LocalEngine
from ..engine.registry import ImplementationRegistry
from .errors import ExecutionError
from .schema import (
    AnyTaskDecl,
    CompoundTaskDecl,
    OutputKind,
    Script,
    TaskClass,
    TaskDecl,
)

Assignment = Dict[str, str]  # task path -> chosen output name


@dataclass
class OutcomeAnalysis:
    """Result of :func:`analyze_outcomes`."""

    root_task: str
    cases_explored: int
    truncated: bool
    reachable: Dict[str, Assignment] = field(default_factory=dict)
    unreachable: List[str] = field(default_factory=list)
    stall_witness: Optional[Assignment] = None
    stalls: int = 0

    def summary(self) -> str:
        lines = [
            f"analysis of {self.root_task!r}: {self.cases_explored} cases"
            + (" (truncated)" if self.truncated else "")
        ]
        for name, witness in self.reachable.items():
            pretty = ", ".join(f"{p.split('/')[-1]}={o}" for p, o in witness.items())
            lines.append(f"  reachable   {name}  e.g. [{pretty}]")
        for name in self.unreachable:
            lines.append(f"  UNREACHABLE {name}")
        if self.stalls:
            lines.append(f"  {self.stalls} assignment(s) stall without any outcome")
        return "\n".join(lines)


def _simple_tasks(script: Script, decl: AnyTaskDecl, path: str) -> List[Tuple[str, TaskClass]]:
    if isinstance(decl, CompoundTaskDecl):
        found: List[Tuple[str, TaskClass]] = []
        for child in decl.tasks:
            found.extend(_simple_tasks(script, child, f"{path}/{child.name}"))
        return found
    return [(path, script.taskclass_of(decl))]


def _choice_space(taskclass: TaskClass) -> List[str]:
    finals = [o.name for o in taskclass.final_outputs()]
    return finals or [""]


def _synthetic_impl(choices: Mapping[str, str]):
    """One implementation serving every task: terminates each task in its
    assigned output, emitting every declared mark first with dummy values."""

    def impl(ctx: TaskContext) -> TaskResult:
        chosen = choices.get(ctx.task_path)
        if not chosen:
            raise ExecutionError(f"{ctx.task_path}: no outcome assigned")
        spec = ctx.taskclass.output(chosen)
        if spec.kind is not OutputKind.ABORT:
            # marks may only precede non-abort terminations (§4.2)
            for mark in ctx.taskclass.outputs_of_kind(OutputKind.MARK):
                ctx.mark(
                    mark.name,
                    **{obj.name: f"<{obj.name}>" for obj in mark.objects},
                )
        objects = {obj.name: f"<{obj.name}>" for obj in spec.objects}
        return TaskResult(spec.kind, chosen, objects)

    return impl


def witness_start(
    script: Script, root_task: Optional[str], input_set: str
) -> Tuple[str, str, Dict[str, str]]:
    """Where every witness run starts: the root task (the script's only one
    when none is named), the input set (the root class's first when it has
    no ``input_set``) and a placeholder value per input object."""
    if root_task is None:
        if len(script.tasks) != 1:
            raise ExecutionError("script has several top-level tasks; name one")
        root_task = next(iter(script.tasks))
    root_class = script.taskclass_of(script.tasks[root_task])
    spec = root_class.input_set(input_set)
    if spec is None and root_class.input_sets:
        spec = root_class.input_sets[0]
        input_set = spec.name
    inputs = (
        {obj.name: f"<{obj.name}>" for obj in spec.objects} if spec is not None else {}
    )
    return root_task, input_set, inputs


def analyze_outcomes(
    script: Script,
    root_task: Optional[str] = None,
    input_set: str = "main",
    max_cases: int = 20_000,
) -> OutcomeAnalysis:
    """Explore every combination of constituent outcomes; classify the root
    task's declared outcomes as reachable or unreachable."""
    root_task, input_set, inputs = witness_start(script, root_task, input_set)
    root = script.tasks[root_task]
    root_class = script.taskclass_of(root)
    tasks = _simple_tasks(script, root, root_task)
    spaces = [(path, _choice_space(taskclass)) for path, taskclass in tasks]

    analysis = OutcomeAnalysis(root_task, 0, False)
    declared = [o.name for o in root_class.final_outputs()]

    product = itertools.product(*(space for _path, space in spaces))
    for combo in product:
        if analysis.cases_explored >= max_cases:
            analysis.truncated = True
            break
        analysis.cases_explored += 1
        choices = {path: name for (path, _), name in zip(spaces, combo)}
        registry = _UniversalRegistry(_synthetic_impl(choices))
        engine = LocalEngine(registry, default_retries=0, max_repeats=2)
        result = engine.run(script, root_task, inputs=inputs, input_set=input_set)
        if result.status in (WorkflowStatus.COMPLETED, WorkflowStatus.ABORTED):
            analysis.reachable.setdefault(result.outcome, choices)
        else:
            analysis.stalls += 1
            if analysis.stall_witness is None:
                analysis.stall_witness = choices
    analysis.unreachable = [
        name for name in declared if name not in analysis.reachable
    ]
    return analysis


class _UniversalRegistry(ImplementationRegistry):
    """Registry that answers every code name with one synthetic callable."""

    def __init__(self, impl) -> None:
        super().__init__()
        self._impl = impl

    def resolve(self, code_name):  # noqa: D102 - see base class
        return self._impl

    def child(self, **bindings):  # noqa: D102 - engines wrap registries
        return self
