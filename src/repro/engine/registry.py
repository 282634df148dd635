"""Implementation registry: late run-time binding of task implementations.

The language deliberately keeps implementations *outside* the script: a task
instance names its implementation abstractly (``"code" is "refDispatch"``) and
the binding to executable code happens at run time (§3) — which is how the
paper supports online upgrade without editing scripts.

A code name may resolve to:

* a Python callable ``fn(ctx) -> TaskResult`` (the "executable" case), or
* another *script* — a compound task used as the implementation (§4.4):
  a :class:`ScriptBinding` is itself such a callable, which runs the script
  as a sub-workflow and maps its outcome back.

:func:`run_task` is the one place a task body is entered; the in-process
engines and the distributed worker differ only in where a mark and the
verdict go.

Registries nest: instantiation-time bindings (the paper binds
``refAlarmCorrelator`` etc. per instantiation) are expressed as a child
registry overriding its parent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Union

from ..core.errors import BindingError, ExecutionError
from ..core.schema import Script
from .context import PendingExternal, TaskContext, TaskResult, declared_output
from .events import WorkflowStatus

TaskCallable = Callable[[TaskContext], Union[TaskResult, PendingExternal]]


@dataclass(frozen=True)
class ScriptBinding:
    """A compound task (in ``script``, named ``task_name``) used as code."""

    script: Script
    task_name: str

    def __call__(self, ctx: TaskContext) -> TaskResult:
        """Run the script as ``ctx``'s task body: the sub-root's marks are
        released through ``ctx.mark`` and its outcome or abort outcome
        becomes the output *of the calling task's class* that bears the same
        name.  Under an in-process workflow the sub-run uses that workflow's
        evaluator and what is left of its step budget, and is charged to it,
        so nested bindings share one budget instead of multiplying it."""
        from .local import LocalWorkflow  # local.py imports this module

        host = ctx.workflow
        options = {}
        if host is not None:
            # with nothing left the sub-run fails at its first step: a task failure
            options = {"max_steps": host.budget_remaining(), "use_plan": host.use_plan}
        sub = LocalWorkflow(self.script, self.task_name, ctx.registry, **options)
        try:
            sub.start(ctx.inputs, ctx.input_set)
            result = sub.run_to_completion()
        finally:
            if host is not None:
                host.charge_steps(sub.steps)
        for mark_name, objects in result.marks:
            ctx.mark(mark_name, **{k: v.value for k, v in objects.items()})
        if result.status not in (WorkflowStatus.COMPLETED, WorkflowStatus.ABORTED):
            raise ExecutionError(
                f"{ctx.task_path}: sub-workflow ended {result.status.value}: {result.error}"
            )
        spec = declared_output(ctx.taskclass, result.outcome, ctx.task_path)
        return TaskResult(
            spec.kind, result.outcome, {k: v.value for k, v in result.objects.items()}
        )


def run_task(
    registry: "ImplementationRegistry", code: Optional[str], ctx: TaskContext
) -> Union[TaskResult, PendingExternal]:
    """Execute the implementation bound to ``code`` once.  Whatever it
    raises, and a return value that is not a verdict, is the caller's task
    failure (system retries, then the first abort outcome — §3)."""
    ctx.registry = registry
    result = registry.resolve(code)(ctx)
    if not isinstance(result, (TaskResult, PendingExternal)):
        raise ExecutionError(
            f"{ctx.task_path}: implementation returned {type(result).__name__}, "
            f"expected TaskResult"
        )
    return result


class ImplementationRegistry:
    """Name -> implementation mapping with parent fallback."""

    def __init__(self, parent: Optional["ImplementationRegistry"] = None) -> None:
        self._bindings: Dict[str, TaskCallable] = {}
        self._parent = parent

    # -- registration ------------------------------------------------------------

    def register(self, code_name: str, fn: TaskCallable) -> "ImplementationRegistry":
        """Bind a callable.  Re-binding an existing name is allowed — that is
        precisely the online-upgrade mechanism."""
        if not callable(fn):
            raise BindingError(f"{code_name!r}: implementation must be callable")
        self._bindings[code_name] = fn
        return self

    def register_script(
        self, code_name: str, script: Script, task_name: Optional[str] = None
    ) -> "ImplementationRegistry":
        """Bind a script; ``task_name`` defaults to the script's only
        top-level task."""
        if task_name is None:
            if len(script.tasks) != 1:
                raise BindingError(
                    f"{code_name!r}: script has {len(script.tasks)} top-level "
                    f"tasks; specify task_name"
                )
            task_name = next(iter(script.tasks))
        if task_name not in script.tasks:
            raise BindingError(f"{code_name!r}: script has no task {task_name!r}")
        self._bindings[code_name] = ScriptBinding(script, task_name)
        return self

    def implementation(self, code_name: str) -> Callable[[TaskCallable], TaskCallable]:
        """Decorator form: ``@registry.implementation("refDispatch")``."""

        def decorate(fn: TaskCallable) -> TaskCallable:
            self.register(code_name, fn)
            return fn

        return decorate

    # -- resolution ----------------------------------------------------------------

    def resolve(self, code_name: Optional[str]) -> TaskCallable:
        if code_name is None:
            raise BindingError("task has no 'code' implementation property")
        registry: Optional[ImplementationRegistry] = self
        while registry is not None:
            if code_name in registry._bindings:
                return registry._bindings[code_name]
            registry = registry._parent
        raise BindingError(f"no implementation registered for code {code_name!r}")

    def child(self, **bindings: TaskCallable) -> "ImplementationRegistry":
        """Instantiation-time overrides layered over this registry."""
        reg = ImplementationRegistry(parent=self)
        for name, fn in bindings.items():
            reg.register(name, fn)
        return reg
