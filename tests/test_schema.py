"""Unit tests for the schema model (taskclasses, declarations, templates)."""

import pytest

from repro.core.errors import SchemaError
from repro.core.schema import (
    CompoundTaskDecl,
    GuardKind,
    Implementation,
    InputObjectBinding,
    InputSetBinding,
    InputSetSpec,
    NotificationBinding,
    ObjectDecl,
    OutputKind,
    OutputSpec,
    Script,
    Source,
    TaskClass,
    TaskDecl,
    TaskTemplate,
)


def simple_class(name="TC"):
    return TaskClass(
        name,
        (InputSetSpec("main", (ObjectDecl("inp", "Data"),)),),
        (OutputSpec("done", OutputKind.OUTCOME, (ObjectDecl("out", "Data"),)),),
    )


class TestTaskClass:
    def test_lookups(self):
        tc = simple_class()
        assert tc.input_set("main").object("inp").class_name == "Data"
        assert tc.output("done").kind is OutputKind.OUTCOME
        assert tc.input_set("nope") is None
        assert tc.output("nope") is None

    def test_duplicate_input_set_rejected(self):
        with pytest.raises(SchemaError):
            TaskClass("T", (InputSetSpec("main"), InputSetSpec("main")))

    def test_duplicate_output_rejected(self):
        with pytest.raises(SchemaError):
            TaskClass(
                "T",
                outputs=(
                    OutputSpec("done", OutputKind.OUTCOME),
                    OutputSpec("done", OutputKind.ABORT),
                ),
            )

    def test_duplicate_object_in_set_rejected(self):
        with pytest.raises(SchemaError):
            TaskClass(
                "T",
                (InputSetSpec("main", (ObjectDecl("x", "A"), ObjectDecl("x", "B"))),),
            )

    def test_atomic_iff_abort_outcome(self):
        atomic = TaskClass("T", outputs=(OutputSpec("oops", OutputKind.ABORT),))
        plain = TaskClass("T", outputs=(OutputSpec("done", OutputKind.OUTCOME),))
        assert atomic.is_atomic and not plain.is_atomic

    def test_atomic_class_cannot_declare_marks(self):
        # §4.2: an atomic task produces outputs only after commit
        with pytest.raises(SchemaError):
            TaskClass(
                "T",
                outputs=(
                    OutputSpec("oops", OutputKind.ABORT),
                    OutputSpec("early", OutputKind.MARK),
                ),
            )

    def test_outputs_of_kind_and_final_outputs(self):
        tc = TaskClass(
            "T",
            outputs=(
                OutputSpec("done", OutputKind.OUTCOME),
                OutputSpec("again", OutputKind.REPEAT),
                OutputSpec("early", OutputKind.MARK),
            ),
        )
        assert [o.name for o in tc.outputs_of_kind(OutputKind.MARK)] == ["early"]
        assert [o.name for o in tc.final_outputs()] == ["done"]


class TestSources:
    def test_guarded_source_requires_name(self):
        with pytest.raises(SchemaError):
            Source("t", "x", GuardKind.OUTPUT, None)

    def test_unguarded_source_rejects_guard_name(self):
        with pytest.raises(SchemaError):
            Source("t", "x", GuardKind.ANY, "oops")

    def test_notification_flag(self):
        assert Source("t", None, GuardKind.OUTPUT, "done").is_notification
        assert not Source("t", "x", GuardKind.OUTPUT, "done").is_notification

    def test_input_object_binding_requires_sources(self):
        with pytest.raises(SchemaError):
            InputObjectBinding("x", ())

    def test_input_object_binding_rejects_notification_sources(self):
        with pytest.raises(SchemaError):
            InputObjectBinding("x", (Source("t", None, GuardKind.OUTPUT, "d"),))

    def test_notification_binding_rejects_object_sources(self):
        with pytest.raises(SchemaError):
            NotificationBinding((Source("t", "x", GuardKind.OUTPUT, "d"),))


class TestImplementation:
    def test_of_and_get(self):
        impl = Implementation.of(code="refX", priority="3")
        assert impl.code == "refX"
        assert impl.as_dict() == {"code": "refX", "priority": "3"}

    def test_as_dict(self):
        assert Implementation.of(code="c").as_dict() == {"code": "c"}

    def test_empty_implementation(self):
        assert Implementation().code is None


class TestCompound:
    def test_duplicate_constituent_rejected(self):
        child = TaskDecl("t", "TC")
        with pytest.raises(SchemaError):
            CompoundTaskDecl("c", "CC", tasks=(child, TaskDecl("t", "TC")))

    def test_constituent_shadowing_compound_rejected(self):
        with pytest.raises(SchemaError):
            CompoundTaskDecl("c", "CC", tasks=(TaskDecl("c", "TC"),))

    def test_task_lookup(self):
        child = TaskDecl("t", "TC")
        compound = CompoundTaskDecl("c", "CC", tasks=(child,))
        assert compound.task("t") is child
        assert compound.task("nope") is None

    def test_is_compound_flags(self):
        assert CompoundTaskDecl("c", "CC").is_compound
        assert not TaskDecl("t", "TC").is_compound


class TestScript:
    def test_duplicate_taskclass_rejected(self):
        script = Script()
        script.add_taskclass(simple_class())
        with pytest.raises(SchemaError):
            script.add_taskclass(simple_class())

    def test_duplicate_task_rejected(self):
        script = Script()
        script.add_task(TaskDecl("t", "TC"))
        with pytest.raises(SchemaError):
            script.add_task(TaskDecl("t", "TC"))

    def test_taskclass_of_unknown_raises(self):
        script = Script()
        with pytest.raises(SchemaError):
            script.taskclass_of(TaskDecl("t", "Ghost"))

    def test_walk_tasks_yields_paths(self):
        script = Script()
        inner = TaskDecl("leaf", "TC")
        script.add_task(CompoundTaskDecl("root", "CC", tasks=(inner,)))
        paths = [path for path, _ in script.walk_tasks()]
        assert paths == ["root", "root/leaf"]


class TestTemplates:
    def make_template(self):
        body = TaskDecl(
            "body",
            "TC",
            Implementation.of(code="c"),
            (
                InputSetBinding(
                    "main",
                    (
                        InputObjectBinding(
                            "inp", (Source("p1", "out", GuardKind.OUTPUT, "done"),)
                        ),
                    ),
                ),
            ),
        )
        return TaskTemplate("tmpl", ("p1",), body)

    def test_instantiation_substitutes_parameters(self):
        template = self.make_template()
        decl = template.instantiate("inst", ("realTask",))
        assert decl.name == "inst"
        source = decl.input_sets[0].objects[0].sources[0]
        assert source.task_name == "realTask"

    def test_wrong_arity_rejected(self):
        with pytest.raises(SchemaError):
            self.make_template().instantiate("inst", ("a", "b"))

    def test_self_reference_renamed(self):
        body = TaskDecl(
            "body",
            "TC",
            input_sets=(
                InputSetBinding(
                    "main",
                    (
                        InputObjectBinding(
                            "inp", (Source("body", "out", GuardKind.OUTPUT, "retry"),)
                        ),
                    ),
                ),
            ),
        )
        template = TaskTemplate("tmpl", (), body)
        decl = template.instantiate("inst", ())
        assert decl.input_sets[0].objects[0].sources[0].task_name == "inst"

    def test_duplicate_parameters_rejected(self):
        with pytest.raises(SchemaError):
            TaskTemplate("t", ("p", "p"), TaskDecl("b", "TC"))
