"""Unit tests for the Fig. 3 task state machine."""

import pytest

from repro.core.schema import ObjectDecl, OutputKind, OutputSpec, TaskClass
from repro.core.states import IllegalTransition, TaskState, TaskStateMachine


def rich_class(atomic=False):
    outputs = [
        OutputSpec("done", OutputKind.OUTCOME, (ObjectDecl("out", "Data"),)),
        OutputSpec("again", OutputKind.REPEAT),
    ]
    if atomic:
        outputs.append(OutputSpec("failed", OutputKind.ABORT))
    else:
        outputs.append(OutputSpec("early", OutputKind.MARK))
    return TaskClass("T", outputs=tuple(outputs))


def machine(atomic=False):
    return TaskStateMachine("wf/t", rich_class(atomic))


class TestHappyPath:
    def test_initial_state_is_wait(self):
        assert machine().state is TaskState.WAIT

    def test_start_moves_to_executing(self):
        m = machine()
        m.start()
        assert m.state is TaskState.EXECUTING
        assert m.starts == 1

    def test_complete_in_outcome(self):
        m = machine()
        m.start()
        m.complete("done")
        assert m.state is TaskState.COMPLETED
        assert m.outcome == "done"
        assert m.terminal


class TestAborts:
    def test_abort_from_wait(self):
        m = machine(atomic=True)
        m.abort("failed")
        assert m.state is TaskState.ABORTED
        assert m.outcome == "failed"

    def test_abort_from_executing(self):
        m = machine(atomic=True)
        m.start()
        m.abort("failed")
        assert m.state is TaskState.ABORTED

    def test_abort_after_termination_rejected(self):
        m = machine(atomic=True)
        m.start()
        m.complete("done")
        with pytest.raises(IllegalTransition):
            m.abort("failed")

    def test_abort_name_must_be_abort_kind(self):
        m = machine(atomic=True)
        m.start()
        with pytest.raises(IllegalTransition):
            m.abort("done")

    def test_reset_for_retry_after_abort(self):
        m = machine(atomic=True)
        m.abort("failed")
        m.reset_for_retry()
        assert m.state is TaskState.WAIT
        assert m.outcome is None

    def test_reset_for_retry_requires_aborted(self):
        with pytest.raises(IllegalTransition):
            machine().reset_for_retry()


class TestMarks:
    def test_mark_keeps_executing(self):
        m = machine()
        m.start()
        m.mark("early")
        assert m.state is TaskState.EXECUTING
        assert m.marked
        assert m.marks_emitted == ["early"]

    def test_mark_from_wait_rejected(self):
        with pytest.raises(IllegalTransition):
            machine().mark("early")

    def test_same_mark_twice_rejected(self):
        m = machine()
        m.start()
        m.mark("early")
        with pytest.raises(IllegalTransition):
            m.mark("early")

    def test_mark_forfeits_abort(self):
        # §4.2: a task which produced a mark can't subsequently abort
        tc = TaskClass(
            "T",
            outputs=(
                OutputSpec("done", OutputKind.OUTCOME),
                OutputSpec("early", OutputKind.MARK),
            ),
        )
        m = TaskStateMachine("t", tc)
        m.start()
        m.mark("early")
        with pytest.raises(IllegalTransition, match="after producing a mark"):
            m.abort("failed")

    def test_mark_name_must_be_mark_kind(self):
        m = machine()
        m.start()
        with pytest.raises(IllegalTransition):
            m.mark("done")

    def test_unknown_output_rejected(self):
        m = machine()
        m.start()
        with pytest.raises(IllegalTransition):
            m.complete("ghost")


class TestRepeats:
    def test_repeat_returns_to_wait(self):
        m = machine()
        m.start()
        m.repeat("again")
        assert m.state is TaskState.WAIT
        assert m.repeats == 1

    def test_repeat_resets_marks_for_next_execution(self):
        m = machine()
        m.start()
        m.mark("early")
        m.repeat("again")
        m.start()
        m.mark("early")  # allowed again in a new execution
        assert m.marks_emitted == ["early"]
        assert m.starts == 2

    def test_repeat_restores_abort_rights(self):
        m = machine()
        m.start()
        m.mark("early")
        m.repeat("again")
        assert not m.terminal and not m.marked  # a mark binds its own execution only

    def test_repeat_name_must_be_repeat_kind(self):
        m = machine()
        m.start()
        with pytest.raises(IllegalTransition):
            m.repeat("done")


class TestSystemRetry:
    def test_system_retry_returns_to_wait_silently(self):
        m = machine()
        m.start()
        m.system_retry()
        assert m.state is TaskState.WAIT
        assert m.outcome is None

    def test_system_retry_forbidden_after_mark(self):
        m = machine()
        m.start()
        m.mark("early")
        with pytest.raises(IllegalTransition):
            m.system_retry()

    def test_system_retry_requires_executing(self):
        with pytest.raises(IllegalTransition):
            machine().system_retry()


class TestPersistence:
    def test_snapshot_restore_roundtrip(self):
        m = machine()
        m.start()
        m.mark("early")
        snap = m.snapshot()
        m2 = machine()
        m2.restore(snap)
        assert m2.state is TaskState.EXECUTING
        assert m2.marked and m2.marks_emitted == ["early"]
        assert m2.starts == 1

    def test_restored_machine_continues(self):
        m = machine()
        m.start()
        snap = m.snapshot()
        m2 = machine()
        m2.restore(snap)
        m2.complete("done")
        assert m2.terminal
