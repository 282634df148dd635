"""Tests for the script linter."""

import pytest

from repro.core import AddDependency, ScriptBuilder, from_input, from_output
from repro.lang import lint_script
from repro.workloads import chain, paper_order, paper_service_impact, paper_trip, random_dag


def codes(script):
    return [w.code for w in lint_script(script)]


def base():
    b = ScriptBuilder()
    b.object_class("Data")
    b.taskclass("Stage").input_set("main", inp="Data").outcome("done", out="Data")
    b.taskclass("Root").input_set("main", inp="Data").outcome("done", out="Data")
    return b


class TestCleanScripts:
    def test_paper_order_app_is_clean(self):
        assert lint_script(paper_order.build()) == []

    def test_paper_service_impact_is_clean(self):
        assert lint_script(paper_service_impact.build()) == []

    def test_paper_trip_app_is_clean(self):
        assert lint_script(paper_trip.build()) == []


class TestW001Cycles:
    def test_cycle_reported(self):
        b = base()
        c = b.compound("wf", "Root")
        c.task("a", "Stage").implementation(code="x").input(
            "main", "inp", from_output("b", "done", "out")
        ).up()
        c.task("b", "Stage").implementation(code="x").input(
            "main", "inp", from_output("a", "done", "out")
        ).up()
        c.output("done").object("out", from_output("a", "done", "out")).up()
        c.up()
        warnings = lint_script(b.build())
        assert any(w.code == "W001" for w in warnings)

    @staticmethod
    def knot(compound, order, deps):
        """Tasks declared in ``order`` inside ``compound``, each fed the
        compound's input and notified by the tasks ``deps`` names for it."""
        for name in order:
            task = compound.task(name, "Stage").implementation(code="x").input(
                "main", "inp", from_input(compound.name, "main", "inp")
            )
            for producer in deps.get(name, ()):
                task.notify("main", from_output(producer, "done"))
            task.up()
        compound.output("done").object("out", from_output(order[0], "done", "out")).up()
        return compound

    @staticmethod
    def w001(script):
        return [(w.location, w.message) for w in lint_script(script) if w.code == "W001"]

    def test_two_disjoint_cycles_are_two_findings(self):
        b = base()
        self.knot(b.compound("wf", "Root"), "abcd", {"a": "b", "b": "a", "c": "d", "d": "c"}).up()
        assert self.w001(b.build()) == [
            ("wf", "dependency cycle among constituents: a, b"),
            ("wf", "dependency cycle among constituents: c, d"),
        ]

    def test_a_knot_of_two_cycles_is_one_finding_in_declaration_order(self):
        # a <-> b and b <-> c: two elementary cycles, one group
        b = base()
        self.knot(b.compound("wf", "Root"), "bca", {"a": "b", "b": "ac", "c": "b"}).up()
        assert self.w001(b.build()) == [("wf", "dependency cycle among constituents: b, c, a")]

    def test_a_cycle_in_a_nested_compound_is_located_there(self):
        b = base()
        outer = b.compound("wf", "Root")
        inner = outer.compound("inner", "Root").input("main", "inp", from_input("wf", "main", "inp"))
        self.knot(inner, "xy", {"x": "y", "y": "x"}).up()
        outer.output("done").object("out", from_output("inner", "done", "out")).up()
        outer.up()
        assert self.w001(b.build()) == [("wf/inner", "dependency cycle among constituents: x, y")]

    def test_a_repeat_self_loop_is_not_a_cycle(self):
        b = base()
        b.taskclass("Retry").input_set("main", inp="Data").input_set("again", inp="Data").outcome(
            "done", out="Data"
        ).repeat_outcome("retry", out="Data")
        c = b.compound("wf", "Root")
        c.task("r", "Retry").implementation(code="x").input(
            "main", "inp", from_input("wf", "main", "inp")
        ).input("again", "inp", from_output("r", "retry", "out")).up()
        c.output("done").object("out", from_output("r", "done", "out")).up()
        c.up()
        assert self.w001(b.build()) == []

    def test_a_long_chain_needs_no_deep_recursion(self):
        assert self.w001(chain(3000)[0]) == []

    @pytest.mark.parametrize("n", [4, 9, 17])
    def test_random_dags_have_no_cycle_and_one_back_arc_makes_one(self, n):
        for seed in range(30):
            script = random_dag(n, seed=seed)[0]
            assert self.w001(script) == []
            # every task of a random_dag depends on t1, so t<n> -> t1 closes a cycle
            back = AddDependency("dag/t1", "main", None, (from_output(f"t{n}", "done"),))
            assert len(self.w001(back.apply(script))) == 1


class TestW002MissingCode:
    def test_missing_code_reported(self):
        b = base()
        c = b.compound("wf", "Root")
        c.task("a", "Stage").input("main", "inp", from_input("wf", "main", "inp")).up()
        c.output("done").object("out", from_output("a", "done", "out")).up()
        c.up()
        warnings = lint_script(b.build())
        assert any(w.code == "W002" and w.location == "wf/a" for w in warnings)


class TestW003UnconsumedTask:
    def test_dead_end_task_reported(self):
        b = base()
        c = b.compound("wf", "Root")
        c.task("useful", "Stage").implementation(code="x").input(
            "main", "inp", from_input("wf", "main", "inp")
        ).up()
        c.task("orphan", "Stage").implementation(code="x").input(
            "main", "inp", from_input("wf", "main", "inp")
        ).up()
        c.output("done").object("out", from_output("useful", "done", "out")).up()
        c.up()
        warnings = lint_script(b.build())
        assert any(w.code == "W003" and "orphan" in w.location for w in warnings)


class TestW005UnboundInputSet:
    def test_unbound_alternative_set_reported(self):
        b = base()
        b.taskclass("TwoWays").input_set("main", inp="Data").input_set(
            "fallback", alt="Data"
        ).outcome("done", out="Data")
        c = b.compound("wf", "Root")
        c.task("a", "TwoWays").implementation(code="x").input(
            "main", "inp", from_input("wf", "main", "inp")
        ).up()
        c.output("done").object("out", from_output("a", "done", "out")).up()
        c.up()
        warnings = lint_script(b.build())
        assert any(w.code == "W005" and "fallback" in w.message for w in warnings)


class TestW007UnhandledAbort:
    def test_unhandled_abort_reported(self):
        b = base()
        b.taskclass("Risky").input_set("main", inp="Data").outcome(
            "done", out="Data"
        ).abort_outcome("oops")
        c = b.compound("wf", "Root")
        c.task("a", "Risky").implementation(code="x").input(
            "main", "inp", from_input("wf", "main", "inp")
        ).up()
        c.output("done").object("out", from_output("a", "done", "out")).up()
        c.up()
        warnings = lint_script(b.build())
        assert any(w.code == "W007" and "'oops'" in w.message for w in warnings)

    def test_handled_abort_not_reported(self):
        b = base()
        b.taskclass("Risky").input_set("main", inp="Data").outcome(
            "done", out="Data"
        ).abort_outcome("oops")
        b.taskclass("Root2").input_set("main", inp="Data").outcome(
            "done", out="Data"
        ).outcome("failed")
        c = b.compound("wf", "Root2")
        c.task("a", "Risky").implementation(code="x").input(
            "main", "inp", from_input("wf", "main", "inp")
        ).up()
        c.output("done").object("out", from_output("a", "done", "out")).up()
        c.output("failed").notify(from_output("a", "oops")).up()
        c.up()
        assert not any(w.code == "W007" for w in lint_script(b.build()))


class TestW008Unused:
    def test_unused_class_reported(self):
        b = base()
        b.object_class("Lonely")
        c = b.compound("wf", "Root")
        c.task("a", "Stage").implementation(code="x").input(
            "main", "inp", from_input("wf", "main", "inp")
        ).up()
        c.output("done").object("out", from_output("a", "done", "out")).up()
        c.up()
        warnings = lint_script(b.build())
        assert any(w.code == "W008" and w.location == "Lonely" for w in warnings)

    def test_superclass_used_only_as_parent_not_reported(self):
        b = base()
        b.object_class("Base")
        b.object_class("DataChild", extends="Base")
        c = b.compound("wf", "Root")
        c.task("a", "Stage").implementation(code="x").input(
            "main", "inp", from_input("wf", "main", "inp")
        ).up()
        c.output("done").object("out", from_output("a", "done", "out")).up()
        c.up()
        warnings = lint_script(b.build())
        assert not any(w.code == "W008" and w.location == "Base" for w in warnings)

    def test_unused_taskclass_reported(self):
        b = base()
        b.taskclass("Spare").outcome("nothing")
        c = b.compound("wf", "Root")
        c.task("a", "Stage").implementation(code="x").input(
            "main", "inp", from_input("wf", "main", "inp")
        ).up()
        c.output("done").object("out", from_output("a", "done", "out")).up()
        c.up()
        warnings = lint_script(b.build())
        assert any(w.code == "W008" and w.location == "Spare" for w in warnings)


class TestW009IllTypedProperty:
    @staticmethod
    def script(root=None, **properties):
        b = base()
        c = b.compound("wf", "Root")
        if root:
            c.implementation(**root)
        c.task("a", "Stage").implementation(code="x", **properties).input(
            "main", "inp", from_input("wf", "main", "inp")
        ).up()
        c.output("done").object("out", from_output("a", "done", "out")).up()
        c.up()
        return b.build()

    @pytest.mark.parametrize(
        "keyword, text, expects, default",
        [
            ("priority", "high", "int", 0),
            ("retries", "x", "int", None),
            ("deadline", "soon", "float", None),
            ("timeout", "-1", "float > 0", None),
            ("delay", "-2", "float >= 0", 0.0),
            ("criticality", "urgent", "low|normal|high", "normal"),
        ],
    )
    def test_says_keyword_text_expected_type_and_default(self, keyword, text, expects, default):
        script = self.script(**{keyword: text})
        [warning] = [w for w in lint_script(script) if w.code == "W009"]
        assert warning.location == "wf/a"
        in_force = "treated as absent" if default is None else f"default ({default})"
        for part in (repr(keyword), repr(text), f"not {expects}", in_force):
            assert part in warning.message
        # what it names is the value the engines then read
        assert getattr(script.tasks["wf"].tasks[0].implementation, keyword) == default

    def test_a_compound_root_is_checked_too(self):
        warnings = lint_script(self.script(root={"criticality": "urgent"}))
        assert [(w.code, w.location) for w in warnings] == [("W009", "wf")]

    def test_well_typed_and_unknown_keywords_are_silent(self):
        # the clause is open by design: 'agent' and user data are legal
        script = self.script(
            root={"criticality": "high"},
            priority="7", retries="0", deadline="30", timeout="2.5", delay="0",
            location="worker-1", agent="ops", colour="blue",
        )
        assert lint_script(script) == []

    def test_reaches_analyze_static(self):
        from repro.analysis import analyze_script

        report = analyze_script(self.script(priority="high"))
        [finding] = [f for f in report.findings if f.code == "W009"]
        assert finding.location == "wf/a"


class TestCliLint:
    def test_lint_command(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "s.wf"
        path.write_text(paper_order.SCRIPT_TEXT, encoding="utf-8")
        assert main(["lint", str(path)]) == 0  # warnings only: exit 0
        out = capsys.readouterr().out
        # legacy lint checks are clean; the static analyser adds the §3
        # "t2 and t3 can be performed concurrently" shared-object warning
        assert "W301" in out

    def test_lint_strict_fails_on_findings(self, tmp_path, capsys):
        from repro.cli import main

        text = """
        class Data;
        taskclass T { inputs { input main { } }; outputs { outcome ok { } } };
        task t of taskclass T { inputs { input main { } } };
        """
        path = tmp_path / "bad.wf"
        path.write_text(text, encoding="utf-8")
        assert main(["lint", str(path), "--strict"]) == 1
        out = capsys.readouterr().out
        assert "W002" in out  # missing code
