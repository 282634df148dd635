"""Task implementation interface: contexts and results.

A task implementation is any Python callable ``fn(ctx: TaskContext) ->
TaskResult``.  The context exposes the chosen input set and its object
references; the result names one of the task class's outputs and carries its
output objects.  Mid-execution the implementation may emit *mark* outputs
through :meth:`TaskContext.mark` (early release of results, §4.2).

Helpers :func:`outcome`, :func:`abort`, :func:`repeat` build results tersely::

    def dispatch(ctx):
        order = ctx.inputs["stockInfo"].value
        if not order:
            return abort("dispatchFailed")
        return outcome("dispatchCompleted", dispatch=f"note-{order}")

Plain values in ``objects`` are wrapped into :class:`ObjectRef`\\ s with the
class the task class declares for that slot; pre-built refs pass through.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional

from ..core.errors import ExecutionError, TaskTimeout
from ..core.schema import OutputKind, OutputSpec, TaskClass
from ..core.values import ObjectRef


@dataclass(frozen=True)
class TaskResult:
    """Terminal (or repeat) result of one task execution."""

    kind: OutputKind
    name: str
    objects: Dict[str, Any] = field(default_factory=dict)


def outcome(name: str, **objects: Any) -> TaskResult:
    """Terminate in the named (non-abort) outcome."""
    return TaskResult(OutputKind.OUTCOME, name, objects)


def abort(name: str, **objects: Any) -> TaskResult:
    """Terminate in the named abort outcome (no effects happened)."""
    return TaskResult(OutputKind.ABORT, name, objects)


def repeat(name: str, **objects: Any) -> TaskResult:
    """Finish this execution through the named repeat outcome; the task
    re-enters WAIT and may execute again."""
    return TaskResult(OutputKind.REPEAT, name, objects)


@dataclass(frozen=True)
class PendingExternal:
    """Returned by an implementation that cannot finish synchronously.

    The paper's applications "may contain long periods of inactivity, often
    due to the constituent applications requiring user interactions" (§1).
    Returning ``pending()`` parks the task in EXECUTING; some external agent
    later supplies the outcome through ``complete_external`` (local engine)
    or the execution service's ``complete_task`` operation — which journals
    it like any other result, so parked tasks survive crashes.
    """

    note: str = ""


def pending(note: str = "") -> PendingExternal:
    """Park this task until an external completion arrives."""
    return PendingExternal(note)


class TaskContext:
    """Everything an implementation may see and do while executing.

    Attributes:
        task_path: instance path, e.g. ``"processOrder/dispatch"``.
        input_set: name of the input set that satisfied the task.
        inputs: chosen input object references, keyed by declared name.
        properties: the ``implementation`` clause's keyword/value pairs.
        attempt: 1-based execution attempt (system retries increment it).
        repeats: how many repeat outcomes this instance has taken so far.
        timeout: wall-clock budget (seconds) from the ``"timeout"``
            implementation property, or None for no limit.  Enforcement is
            cooperative: long-running implementations call
            :meth:`check_timeout` (or consult :meth:`remaining`) at safe
            points; the raised :class:`~repro.core.errors.TaskTimeout` then
            follows the normal failure path (system retries, then abort).
        registry: where :func:`~repro.engine.registry.run_task` resolved the
            task's code; a script used as code (§4.4) resolves its own there.
        workflow: the in-process workflow executing the task, if any: such a
            script runs under its evaluator and on its remaining step budget.
    """

    def __init__(
        self,
        task_path: str,
        taskclass: TaskClass,
        input_set: str,
        inputs: Mapping[str, ObjectRef],
        properties: Mapping[str, str],
        attempt: int = 1,
        repeats: int = 0,
        mark_sink: Optional[Callable[[str, Dict[str, ObjectRef]], None]] = None,
        timeout: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        workflow: Any = None,
    ) -> None:
        self.task_path = task_path
        self.taskclass = taskclass
        self.input_set = input_set
        self.inputs = dict(inputs)
        self.properties = dict(properties)
        self.attempt = attempt
        self.repeats = repeats
        self._mark_sink = mark_sink
        self.timeout = timeout
        self._clock = clock
        self.started_at = clock()
        self.registry: Any = None
        self.workflow = workflow

    def value(self, name: str, default: Any = None) -> Any:
        """Unwrap one input object's payload."""
        ref = self.inputs.get(name)
        return default if ref is None else ref.value

    # -- wall-clock budget --------------------------------------------------------

    def elapsed(self) -> float:
        """Seconds since this execution attempt began."""
        return self._clock() - self.started_at

    def remaining(self) -> Optional[float]:
        """Seconds left in the task's wall-clock budget (None: unlimited)."""
        if self.timeout is None:
            return None
        return self.timeout - self.elapsed()

    @property
    def timed_out(self) -> bool:
        remaining = self.remaining()
        return remaining is not None and remaining <= 0.0

    def check_timeout(self) -> None:
        """Raise :class:`TaskTimeout` if the wall-clock budget is exhausted."""
        if self.timed_out:
            raise TaskTimeout(
                f"{self.task_path}: exceeded task timeout {self.timeout}s "
                f"(elapsed {self.elapsed():.3f}s)"
            )

    def mark(self, name: str, **objects: Any) -> None:
        """Emit a mark output now (early release).  The engine publishes it
        immediately, so downstream tasks may start before this one finishes."""
        if self._mark_sink is None:
            raise ExecutionError(
                f"{self.task_path}: mark outputs are not available in this context"
            )
        spec = self.taskclass.output(name)
        if spec is None or spec.kind is not OutputKind.MARK:
            raise ExecutionError(
                f"{self.task_path}: {name!r} is not a mark output of "
                f"{self.taskclass.name!r}"
            )
        self._mark_sink(name, coerce_objects(self.taskclass, name, objects, self.task_path))


def declared_output(taskclass: TaskClass, output_name: str, task_path: str) -> OutputSpec:
    """The named output of ``taskclass`` — or the task's failure to have one."""
    spec = taskclass.output(output_name)
    if spec is None:
        raise ExecutionError(
            f"{task_path}: taskclass {taskclass.name!r} has no output {output_name!r}"
        )
    return spec


def coerce_objects(
    taskclass: TaskClass, output_name: str, objects: Mapping[str, Any], task_path: str
) -> Dict[str, ObjectRef]:
    """Check and wrap an implementation's output objects against the class.

    Every object the output declares must be supplied; extras are rejected;
    plain values are wrapped in refs of the declared class.  This is the
    run-time enforcement of the task-class signature.
    """
    spec = taskclass.output(output_name)  # inline: this runs once per step
    if spec is None:
        raise ExecutionError(
            f"{task_path}: taskclass {taskclass.name!r} has no output {output_name!r}"
        )
    declared = {o.name: o for o in spec.objects}
    missing = sorted(set(declared) - set(objects))
    if missing:
        raise ExecutionError(
            f"{task_path}: output {output_name!r} is missing objects {missing}"
        )
    extra = sorted(set(objects) - set(declared))
    if extra:
        raise ExecutionError(
            f"{task_path}: output {output_name!r} got undeclared objects {extra}"
        )
    coerced: Dict[str, ObjectRef] = {}
    for name, value in objects.items():
        decl = declared[name]
        if isinstance(value, ObjectRef):
            if value.class_name != decl.class_name:
                raise ExecutionError(
                    f"{task_path}: object {name!r} of output {output_name!r} has "
                    f"class {value.class_name!r}, expected {decl.class_name!r}"
                )
            coerced[name] = value.with_provenance(task_path, output_name)
        else:
            coerced[name] = ObjectRef(decl.class_name, value, task_path, output_name)
    return coerced
