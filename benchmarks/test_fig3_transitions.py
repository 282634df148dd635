"""F3 — Fig. 3: task state transitions.

Regenerates the figure's transition system — wait, execute, marks, repeats,
named outcomes, abort outcomes — walks every legal path, asserts every
*illegal* transition the figure omits is refused, and measures transition
throughput.
"""

import pytest

from repro.core.schema import ObjectDecl, OutputKind, OutputSpec, TaskClass
from repro.core.states import IllegalTransition, TaskState, TaskStateMachine

from .conftest import report

FIG3_CLASS = TaskClass(
    "Fig3Task",
    outputs=(
        OutputSpec("Outcome1", OutputKind.OUTCOME, (ObjectDecl("r", "Data"),)),
        OutputSpec("Mark1", OutputKind.MARK),
        OutputSpec("Mark2", OutputKind.MARK),
        OutputSpec("Repeat1", OutputKind.REPEAT),
    ),
)

ATOMIC_CLASS = TaskClass(
    "Fig3Atomic",
    outputs=(
        OutputSpec("Outcome1", OutputKind.OUTCOME),
        OutputSpec("Abort1", OutputKind.ABORT),
        OutputSpec("Abort2", OutputKind.ABORT),
        OutputSpec("Abort3", OutputKind.ABORT),
    ),
)


def test_fig3_every_legal_path(benchmark):
    # wait -> abort (timer / forced)
    m = TaskStateMachine("t", ATOMIC_CLASS)
    m.abort("Abort2")
    assert m.state is TaskState.ABORTED

    # wait -> execute -> marks -> repeat -> execute -> outcome
    m = TaskStateMachine("t", FIG3_CLASS)
    m.start()
    m.mark("Mark1")
    m.mark("Mark2")
    m.repeat("Repeat1")
    m.start()
    m.complete("Outcome1")
    assert m.state is TaskState.COMPLETED
    assert m.repeats == 1 and m.starts == 2

    # atomic: execute -> abort -> automatic retry -> commit
    m = TaskStateMachine("t", ATOMIC_CLASS)
    m.start()
    m.abort("Abort1")
    m.reset_for_retry()
    m.start()
    m.complete("Outcome1")
    assert m.state is TaskState.COMPLETED

    def retry_cycle():
        sm = TaskStateMachine("t", ATOMIC_CLASS)
        sm.start()
        sm.abort("Abort1")
        sm.reset_for_retry()
        sm.start()
        sm.complete("Outcome1")
        return sm

    assert benchmark(retry_cycle).terminal


def test_fig3_illegal_transitions_refused(benchmark):
    m = TaskStateMachine("t", FIG3_CLASS)
    with pytest.raises(IllegalTransition):
        m.complete("Outcome1")          # complete from WAIT
    m.start()
    with pytest.raises(IllegalTransition):
        m.start()                        # double start
    m.mark("Mark1")
    with pytest.raises(IllegalTransition):
        m.system_retry()                 # silent retry after a mark
    m.complete("Outcome1")
    with pytest.raises(IllegalTransition):
        m.mark("Mark2")                  # mark after termination

    def refused_start():
        sm = TaskStateMachine("t", FIG3_CLASS)
        sm.start()
        try:
            sm.start()
        except IllegalTransition:
            return True
        return False

    assert benchmark(refused_start)


def test_fig3_atomic_class_cannot_have_marks(benchmark):
    with pytest.raises(Exception):
        TaskClass(
            "Bad",
            outputs=(
                OutputSpec("Abort1", OutputKind.ABORT),
                OutputSpec("Mark1", OutputKind.MARK),
            ),
        )

    def build_valid_atomic():
        return TaskClass(
            "Good", outputs=(OutputSpec("Abort1", OutputKind.ABORT),)
        )

    assert benchmark(build_valid_atomic).is_atomic


def test_fig3_transition_throughput(benchmark):
    def full_cycle():
        m = TaskStateMachine("t", FIG3_CLASS)
        m.start()
        m.mark("Mark1")
        m.repeat("Repeat1")
        m.start()
        m.complete("Outcome1")
        return m

    m = benchmark(full_cycle)
    assert m.terminal and (m.starts, m.repeats, m.outcome) == (2, 1, "Outcome1")
    report(
        "F3: Fig. 3 transitions",
        ["path", "starts", "repeats", "outcome"],
        [("wait->exec->mark->repeat->exec->outcome", m.starts, m.repeats, m.outcome)],
    )


def test_fig3_snapshot_restore_cost(benchmark):
    m = TaskStateMachine("t", FIG3_CLASS)
    m.start()
    m.mark("Mark1")

    def roundtrip():
        snap = m.snapshot()
        m2 = TaskStateMachine("t", FIG3_CLASS)
        m2.restore(snap)
        return m2

    m2 = benchmark(roundtrip)
    assert m2.state is TaskState.EXECUTING and m2.marked
