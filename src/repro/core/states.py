"""The task state machine of paper Fig. 3.

A task instance is initially ``WAIT``ing for one of its input sets to be
satisfied.  It may abort while waiting (timer expiry, user abort, forced by
the environment).  Once started it ``EXECUTE``s; during execution it may emit
*mark* outputs (early release — after which aborting is forbidden, §4.2) and
*repeat* outputs (re-enter execution via a fresh WAIT on its inputs).  It
terminates in a named outcome or abort outcome.

The machine is engine-agnostic: both the local and the distributed engine
drive :class:`TaskStateMachine`, and the distributed engine persists
:meth:`snapshot` images in atomic objects so crashes cannot corrupt the
life-cycle.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List, Optional

from .errors import ExecutionError
from .schema import OutputKind, TaskClass


class TaskState(enum.Enum):
    WAIT = "wait"
    EXECUTING = "executing"
    COMPLETED = "completed"   # terminated in an `outcome`
    ABORTED = "aborted"       # terminated in an `abort outcome`


class IllegalTransition(ExecutionError):
    """A transition not permitted by Fig. 3 was attempted."""


class TaskStateMachine:
    """Life-cycle driver for one task instance.

    The machine validates output names and kinds against the task class, so an
    implementation cannot terminate a task in an output its class does not
    declare — the run-time half of the language's type checking.  It keeps
    no transition history: the instance's event log is the record of what a
    task did.
    """

    def __init__(self, task_path: str, taskclass: TaskClass) -> None:
        self.task_path = task_path
        self.taskclass = taskclass
        self.state = TaskState.WAIT
        self.outcome: Optional[str] = None
        self.marked = False
        self.marks_emitted: List[str] = []
        self.repeats = 0
        self.starts = 0

    # -- queries ------------------------------------------------------------------

    @property
    def terminal(self) -> bool:
        return self.state in (TaskState.COMPLETED, TaskState.ABORTED)

    # -- transitions ---------------------------------------------------------------

    def start(self) -> None:
        """WAIT -> EXECUTING (an input set was satisfied)."""
        if self.state is not TaskState.WAIT:
            self._refuse("start", TaskState.WAIT)
        self.state = TaskState.EXECUTING
        self.starts += 1

    def mark(self, name: str) -> None:
        """Emit a mark output during execution.  Each mark may be produced
        once per execution (§4.2: "may be produced once")."""
        if self.state is not TaskState.EXECUTING:
            self._refuse(f"mark {name!r}", TaskState.EXECUTING)
        self._output(name, OutputKind.MARK)
        if name in self.marks_emitted:
            raise IllegalTransition(
                f"{self.task_path}: mark {name!r} already produced this execution"
            )
        self.marked = True
        self.marks_emitted.append(name)

    def repeat(self, name: str) -> None:
        """EXECUTING -> WAIT via a repeat outcome."""
        if self.state is not TaskState.EXECUTING:
            self._refuse(f"repeat {name!r}", TaskState.EXECUTING)
        self._output(name, OutputKind.REPEAT)
        self.repeats += 1
        self.marks_emitted = []   # a new execution may emit its marks again
        self.marked = False       # the next execution regains abort rights
        self.state = TaskState.WAIT

    def complete(self, name: str) -> None:
        """EXECUTING -> COMPLETED in a (non-abort) outcome."""
        if self.state is not TaskState.EXECUTING:
            self._refuse(f"complete {name!r}", TaskState.EXECUTING)
        self._output(name, OutputKind.OUTCOME)
        self.outcome = name
        self.state = TaskState.COMPLETED

    def abort(self, name: str) -> None:
        """WAIT or EXECUTING -> ABORTED in an abort outcome.

        Aborting from WAIT models timer expiry / forced abort; aborting from
        EXECUTING models an atomic task rolling back.  Forbidden after a mark.
        """
        if self.terminal:
            raise IllegalTransition(f"{self.task_path}: abort after termination")
        if self.marked:
            raise IllegalTransition(
                f"{self.task_path}: cannot abort after producing a mark output"
            )
        self._output(name, OutputKind.ABORT)
        self.outcome = name
        self.state = TaskState.ABORTED

    def system_retry(self) -> None:
        """EXECUTING -> WAIT silently: the execution environment re-runs a
        task that hit a *system-level* problem (server crash, transaction
        abort) without surfacing any output event (§3).  Forbidden once a
        mark has been released."""
        if self.state is not TaskState.EXECUTING:
            self._refuse("system retry", TaskState.EXECUTING)
        if self.marked:
            raise IllegalTransition(
                f"{self.task_path}: cannot silently retry after a mark output"
            )
        self.state = TaskState.WAIT

    def reset_for_retry(self) -> None:
        """ABORTED -> WAIT: the system-level automatic retry of §3.

        Legal because an abort outcome means "no changes were performed"."""
        if self.state is not TaskState.ABORTED:
            raise IllegalTransition(f"{self.task_path}: retry of non-aborted task")
        self.outcome = None
        self.state = TaskState.WAIT

    # -- persistence --------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        return {
            "state": self.state.value,
            "outcome": self.outcome,
            "marked": self.marked,
            "marks_emitted": list(self.marks_emitted),
            "repeats": self.repeats,
            "starts": self.starts,
        }

    def restore(self, snapshot: Dict[str, Any]) -> None:
        self.state = TaskState(snapshot["state"])
        self.outcome = snapshot["outcome"]
        self.marked = snapshot["marked"]
        self.marks_emitted = list(snapshot["marks_emitted"])
        self.repeats = snapshot["repeats"]
        self.starts = snapshot["starts"]

    # -- internals ---------------------------------------------------------------

    def _refuse(self, action: str, required: TaskState) -> None:
        raise IllegalTransition(
            f"{self.task_path}: {action} in state {self.state.value!r} "
            f"(requires {required.value!r})"
        )

    def _output(self, name: str, kind: OutputKind):
        spec = self.taskclass.output(name)
        if spec is None:
            raise IllegalTransition(
                f"{self.task_path}: taskclass {self.taskclass.name!r} has no "
                f"output {name!r}"
            )
        if spec.kind is not kind:
            raise IllegalTransition(
                f"{self.task_path}: output {name!r} is a {spec.kind.value}, "
                f"not a {kind.value}"
            )
        return spec
