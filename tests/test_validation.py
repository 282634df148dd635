"""Unit tests for whole-script semantic validation (repository-side checks)."""

import pytest

from repro.core import (
    ScriptBuilder,
    ValidationReport,
    from_input,
    from_output,
    from_task,
    validate_script,
)
from repro.core.schema import (
    GuardKind,
    InputObjectBinding,
    InputSetBinding,
    NotificationBinding,
    Source,
    TaskDecl,
)


def base_builder():
    b = ScriptBuilder()
    b.object_classes("Data", "Other")
    b.taskclass("Stage").input_set("main", inp="Data").outcome("done", out="Data")
    b.taskclass("Root").input_set("main", inp="Data").outcome("done", out="Data")
    return b


def errors_of(builder):
    return [str(e) for e in validate_script(builder.build(validate=False))]


class TestHappyPath:
    def test_valid_script_has_no_errors(self):
        b = base_builder()
        c = b.compound("wf", "Root")
        c.task("t1", "Stage").implementation(code="x").input(
            "main", "inp", from_input("wf", "main", "inp")
        ).up()
        c.output("done").object("out", from_output("t1", "done", "out")).up()
        c.up()
        assert errors_of(b) == []


class TestNameResolution:
    def test_unknown_taskclass(self):
        b = base_builder()
        b.build(validate=False).add_task(TaskDecl("t", "Ghost"))
        assert any("unknown taskclass 'Ghost'" in e for e in errors_of(b))

    def test_unknown_source_task(self):
        b = base_builder()
        c = b.compound("wf", "Root")
        c.task("t1", "Stage").input(
            "main", "inp", from_output("phantom", "done", "out")
        ).up()
        c.output("done").object("out", from_output("t1", "done", "out")).up()
        c.up()
        assert any("unknown task 'phantom'" in e for e in errors_of(b))

    def test_unknown_output_on_producer(self):
        b = base_builder()
        c = b.compound("wf", "Root")
        c.task("t1", "Stage").input("main", "inp", from_input("wf", "main", "inp")).up()
        c.task("t2", "Stage").input(
            "main", "inp", from_output("t1", "ghostOutcome", "out")
        ).up()
        c.output("done").object("out", from_output("t2", "done", "out")).up()
        c.up()
        assert any("no output 'ghostOutcome'" in e for e in errors_of(b))

    def test_unknown_input_set_on_producer(self):
        b = base_builder()
        c = b.compound("wf", "Root")
        c.task("t1", "Stage").input("main", "inp", from_input("wf", "ghost", "inp")).up()
        c.output("done").object("out", from_output("t1", "done", "out")).up()
        c.up()
        assert any("no input set 'ghost'" in e for e in errors_of(b))

    def test_output_missing_object(self):
        b = base_builder()
        c = b.compound("wf", "Root")
        c.task("t1", "Stage").input("main", "inp", from_input("wf", "main", "inp")).up()
        c.task("t2", "Stage").input(
            "main", "inp", from_output("t1", "done", "missing")
        ).up()
        c.output("done").object("out", from_output("t2", "done", "out")).up()
        c.up()
        assert any("carries no object 'missing'" in e for e in errors_of(b))

    def test_undeclared_object_class(self):
        b = ScriptBuilder()
        b.taskclass("T").input_set("main", x="Mystery").outcome("done")
        assert any("undeclared class 'Mystery'" in e for e in errors_of(b))


class TestTypeChecking:
    def test_class_mismatch_detected(self):
        b = base_builder()
        b.taskclass("OtherStage").input_set("main", inp="Other").outcome(
            "done", out="Other"
        )
        c = b.compound("wf", "Root")
        c.task("t1", "OtherStage").input(
            "main", "inp", from_input("wf", "main", "inp")  # Data -> Other mismatch
        ).up()
        c.output("done").notify(from_output("t1", "done")).up()
        c.up()
        assert any("class mismatch" in e for e in errors_of(b))

    def test_unguarded_source_requires_carrying_outcome(self):
        b = base_builder()
        c = b.compound("wf", "Root")
        c.task("t1", "Stage").input("main", "inp", from_input("wf", "main", "inp")).up()
        c.task("t2", "Stage").input("main", "inp", from_task("t1", "nonexistent")).up()
        c.output("done").object("out", from_output("t2", "done", "out")).up()
        c.up()
        assert any("no outcome/mark of 't1'" in e for e in errors_of(b))


class TestInputSetCoverage:
    def test_missing_object_binding(self):
        b = base_builder()
        decl = TaskDecl("t", "Stage", input_sets=(InputSetBinding("main"),))
        b.build(validate=False).add_task(decl)
        assert any("does not bind object 'inp'" in e for e in errors_of(b))

    def test_unknown_object_binding(self):
        b = base_builder()
        decl = TaskDecl(
            "t",
            "Stage",
            input_sets=(
                InputSetBinding(
                    "main",
                    (
                        InputObjectBinding(
                            "inp", (Source("t", "out", GuardKind.OUTPUT, "done"),)
                        ),
                        InputObjectBinding(
                            "extra", (Source("t", "out", GuardKind.OUTPUT, "done"),)
                        ),
                    ),
                ),
            ),
        )
        b.build(validate=False).add_task(decl)
        assert any("binds unknown object 'extra'" in e for e in errors_of(b))

    def test_unknown_input_set_name(self):
        b = base_builder()
        decl = TaskDecl("t", "Stage", input_sets=(InputSetBinding("ghost"),))
        b.build(validate=False).add_task(decl)
        assert any("has no input set 'ghost'" in e for e in errors_of(b))


class TestCompoundOutputs:
    def test_unmapped_output_with_objects_flagged(self):
        b = base_builder()
        c = b.compound("wf", "Root")
        c.task("t1", "Stage").input("main", "inp", from_input("wf", "main", "inp")).up()
        # Root's `done` output carries `out` but gets no mapping at all
        c.up()
        assert any("does not map output 'done'" in e for e in errors_of(b))

    def test_empty_output_mapping_flagged(self):
        b = base_builder()
        b.taskclass("Bare").outcome("done")
        b.taskclass("Top").input_set("main", inp="Data").outcome("finished")
        c = b.compound("wf", "Top")
        c.task("t1", "Bare").up()
        c.output("finished").up()
        c.up()
        assert any("empty mapping" in e for e in errors_of(b))

    def test_mapping_for_unknown_output_flagged(self):
        b = base_builder()
        c = b.compound("wf", "Root")
        c.task("t1", "Stage").input("main", "inp", from_input("wf", "main", "inp")).up()
        c.output("done").object("out", from_output("t1", "done", "out")).up()
        c.output("bogus").notify(from_output("t1", "done")).up()
        c.up()
        assert any("unknown output 'bogus'" in e for e in errors_of(b))


class TestRepeatPrivacy:
    def test_object_from_anothers_repeat_rejected(self):
        # §4.2: repeat objects are not usable by other tasks as input
        b = ScriptBuilder()
        b.object_class("Data")
        b.taskclass("Looper").input_set("main", inp="Data").outcome(
            "done", out="Data"
        ).repeat_outcome("again", carry="Data")
        b.taskclass("Root").input_set("main", inp="Data").outcome("done", out="Data")
        c = b.compound("wf", "Root")
        c.task("loop", "Looper").input("main", "inp", from_input("wf", "main", "inp")).up()
        c.task("thief", "Looper").input(
            "main", "inp", from_output("loop", "again", "carry")
        ).up()
        c.output("done").object("out", from_output("loop", "done", "out")).up()
        c.up()
        assert any("repeat output" in e for e in errors_of(b))

    def test_self_repeat_reference_allowed(self):
        b = ScriptBuilder()
        b.object_class("Data")
        b.taskclass("Looper").input_set("main", inp="Data").outcome(
            "done", out="Data"
        ).repeat_outcome("again", carry="Data")
        b.taskclass("Root").input_set("main", inp="Data").outcome("done", out="Data")
        c = b.compound("wf", "Root")
        c.task("loop", "Looper").input(
            "main",
            "inp",
            from_input("wf", "main", "inp"),
            from_output("loop", "again", "carry"),
        ).up()
        c.output("done").object("out", from_output("loop", "done", "out")).up()
        c.up()
        assert errors_of(b) == []


class TestValidationReport:
    def test_check_raises_aggregated_report(self):
        b = base_builder()
        script = b.build(validate=False)
        script.add_task(TaskDecl("t", "Ghost"))
        script.add_task(TaskDecl("u", "Phantom"))
        with pytest.raises(ValidationReport) as info:
            b.build()
        assert len(info.value.errors) == 2
