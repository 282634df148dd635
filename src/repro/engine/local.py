"""Local (in-process) workflow engine.

Runs a workflow instance deterministically in one process: ready tasks
execute synchronously, one at a time, in priority/FIFO order.  This engine is
the reference implementation of the language semantics — fast enough for
property-based testing and used by most examples.  The distributed execution
service (:mod:`repro.services`) builds on the same
:class:`~repro.engine.instance.InstanceTree` semantics: it runs independent
ready tasks concurrently on worker nodes and adds the paper's system-level
fault tolerance.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from ..core.errors import ExecutionError
from ..core.schema import Script
from ..core.states import TaskState
from ..core.values import ObjectRef
from .context import PendingExternal, TaskContext, TaskResult, declared_output
from .events import EventLog, WorkflowResult, WorkflowStatus
from .instance import InstanceTree, TaskNode
from .plan import ExecutionPlan
from .registry import ImplementationRegistry, run_task


class LocalWorkflow:
    """One running instance under step-by-step local control.

    Useful when a test or administrative application needs to interleave
    execution with reconfiguration or forced aborts::

        wf = LocalWorkflow(script, "order", registry)
        wf.start({"order": "o-1"})
        wf.step()                      # run exactly one task
        wf.reconfigure(new_script)     # atomic change (§3)
        wf.run_to_completion()
    """

    def __init__(
        self,
        script: Script,
        root_task: str,
        registry: ImplementationRegistry,
        default_retries: int = 3,
        max_repeats: int = 1000,
        max_steps: int = 100_000,
        plan: Optional[ExecutionPlan] = None,
        sanitizer=None,
    ) -> None:
        self.registry = registry
        self.max_steps = max_steps
        self.steps = 0
        self.tree = InstanceTree(
            script,
            root_task,
            default_retries=default_retries,
            max_repeats=max_repeats,
            plan=plan,
        )
        if sanitizer is not None:
            # instance-level method wrapping: the unsanitized path stays hook-free
            sanitizer.attach_tree(self.tree)

    # -- control ---------------------------------------------------------------

    def start(self, inputs: Optional[Mapping[str, object]] = None, input_set: str = "main") -> None:
        self.tree.start(input_set, inputs or {})

    def step(self) -> bool:
        """Execute one ready task.  Returns False when nothing was ready.

        The step budget is checked *before* dequeueing: when it is already
        exhausted and work remains, the tree fails without losing the ready
        node (it stays queued, visible to diagnostics and reconfiguration).
        """
        if self.steps >= self.max_steps:
            if self.tree.has_work():
                self.tree.fail(f"exceeded max_steps={self.max_steps}")
            return False
        taken = self.tree.begin_next()
        if taken is None:
            return False
        self.steps += 1
        self._execute(*taken)
        return True

    def run_to_completion(self) -> WorkflowResult:
        while self.tree.status is WorkflowStatus.RUNNING:
            if not self.step():
                break
        return self.result()

    # -- queries ------------------------------------------------------------------

    @property
    def status(self) -> WorkflowStatus:
        if self.tree.status is WorkflowStatus.RUNNING and not self.tree.has_work():
            return WorkflowStatus.STALLED
        return self.tree.status

    @property
    def log(self) -> EventLog:
        return self.tree.log

    def result(self) -> WorkflowResult:
        root = self.tree.root
        status = self.tree.status
        if status is WorkflowStatus.RUNNING:
            status = WorkflowStatus.STALLED
        objects, marks = self.tree.log.outputs_of(root.path)
        return WorkflowResult(
            status=status,
            outcome=root.machine.outcome,
            objects=objects,
            marks=marks,
            log=self.tree.log,
            stats={
                "steps": self.steps,
                "events": len(self.tree.log),
                "nodes": self.tree.nodes_created,
            },
            error=self.tree.error,
        )

    # -- administration --------------------------------------------------------------

    def reconfigure(self, new_script: Script) -> None:
        self.tree.reconfigure(new_script)

    def complete_external(self, path: str, output_name: str, **objects) -> None:
        """Supply the outcome of a task parked by :func:`repro.engine.pending`.

        The output may be any kind the task class declares (outcome, abort
        outcome, repeat outcome); objects are coerced against its signature.
        """
        node = self.tree.node_at(path)
        spec = declared_output(node.taskclass, output_name, path)
        if node.machine.state is not TaskState.EXECUTING:
            raise ExecutionError(
                f"{path}: not executing (state={node.machine.state.value})"
            )
        self.tree.apply_result(node, TaskResult(spec.kind, output_name, objects))

    # -- execution ----------------------------------------------------------------------

    def _execute(self, node: TaskNode, readiness: Tuple[str, Dict[str, ObjectRef]]) -> None:
        input_set, inputs = readiness
        implementation = node.decl.implementation
        context = TaskContext(
            task_path=node.path,
            taskclass=node.taskclass,
            input_set=input_set,
            inputs=inputs,
            properties=implementation.as_dict(),
            attempt=node.attempt + 1,
            repeats=node.machine.repeats,
            mark_sink=lambda name, objects: self.tree.apply_mark(node, name, objects),
            timeout=implementation.timeout,
            workflow=self,
        )
        try:
            result = run_task(self.registry, implementation.code, context)
        except Exception as exc:  # implementation failure -> system handling
            self.tree.apply_failure(node, exc)
            return
        if isinstance(result, PendingExternal):
            # parked: stays EXECUTING until complete_external() supplies the
            # outcome (long-running / interactive tasks, §1)
            return
        try:
            self.tree.apply_result(node, result)
        except ExecutionError as exc:
            # the result did not match the task class signature
            self.tree.apply_failure(node, exc)


class LocalEngine:
    """Convenience facade: run whole workflows in one call."""

    def __init__(
        self,
        registry: Optional[ImplementationRegistry] = None,
        default_retries: int = 3,
        max_repeats: int = 1000,
        max_steps: int = 100_000,
        sanitizer=None,
    ) -> None:
        self.registry = registry or ImplementationRegistry()
        self.default_retries = default_retries
        self.max_repeats = max_repeats
        self.max_steps = max_steps
        self.sanitizer = sanitizer

    def workflow(
        self,
        script: Script,
        root_task: Optional[str] = None,
        bindings: Optional[Mapping[str, object]] = None,
    ) -> LocalWorkflow:
        if root_task is None:
            if len(script.tasks) != 1:
                raise ExecutionError(
                    f"script has {len(script.tasks)} top-level tasks; name one"
                )
            root_task = next(iter(script.tasks))
        return LocalWorkflow(
            script,
            root_task,
            self.registry.child(**(bindings or {})),
            default_retries=self.default_retries,
            max_repeats=self.max_repeats,
            max_steps=self.max_steps,
            sanitizer=self.sanitizer,
        )

    def run(
        self,
        script: Script,
        root_task: Optional[str] = None,
        inputs: Optional[Mapping[str, object]] = None,
        input_set: str = "main",
        bindings: Optional[Mapping[str, object]] = None,
    ) -> WorkflowResult:
        wf = self.workflow(script, root_task, bindings)
        wf.start(inputs, input_set)
        return wf.run_to_completion()
