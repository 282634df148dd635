"""The whole-script static analyser: registry, typeflow, liveness,
interference, SARIF rendering, CLI exit codes and strict admission.

The seeded race fixture at the bottom is the acceptance case: a script the
interference checker flags (W301) *and* whose raciness the distributed
system demonstrates — both tasks really are in flight at the same time, on
two worker nodes, holding the same object.
"""

from __future__ import annotations

import dataclasses
import json
from types import MappingProxyType

import pytest
from jsonschema import validate as jsonschema_validate

from repro.analysis import (
    DIAGNOSTICS,
    DiagnosticRegistry,
    Severity,
    analyze_script,
    check_interference,
    check_liveness,
    check_typeflow,
    enabled_pairs,
    to_sarif,
)
from repro.core import ScriptBuilder, from_input, from_output
from repro.core.analysis import analyze_outcomes
from repro.core.errors import SchemaError
from repro.core.schema import Implementation, TaskDecl, TaskTemplate
from repro.core.selection import EventKind
from repro.engine import ImplementationRegistry, LocalWorkflow, compile_plan, outcome
from repro.engine import plan as plan_module
from repro.lang import format_script
from repro.services.repository import RepositoryService
from repro.txn.store import ObjectStore
from repro.workloads import generators, paper_trip


def codes(findings):
    return sorted(f.code for f in findings)


# -- the diagnostic registry ---------------------------------------------------


def test_registry_rejects_duplicate_and_retired_codes():
    reg = DiagnosticRegistry()
    reg.register("X001", Severity.ERROR, "t", "d")
    with pytest.raises(ValueError):
        reg.register("X001", Severity.WARNING, "t2", "d2")
    reg.retire("X002", "never shipped")
    with pytest.raises(ValueError):
        reg.register("X002", Severity.ERROR, "t", "d")
    with pytest.raises(ValueError):
        reg.retire("X001", "cannot retire a live code")


def test_registry_require_raises_on_unknown_and_retired():
    with pytest.raises(KeyError):
        DIAGNOSTICS.require("W999")
    live = {spec.code for spec in DIAGNOSTICS.specs()}
    for retired in ("W004", "W006"):
        assert retired not in live
        with pytest.raises(KeyError, match="is retired"):
            DIAGNOSTICS.require(retired)


def test_registry_covers_every_emitted_family():
    live = {spec.code for spec in DIAGNOSTICS.specs()}
    assert {"W001", "W002", "W003", "W005", "W007", "W008"} <= live
    assert {"E101", "E104", "E105", "E106", "E107", "E108"} <= live
    assert {"E200", "E201", "E202", "E203", "E204", "W301"} <= live


def test_rule_index_matches_specs_order():
    for index, spec in enumerate(DIAGNOSTICS.specs()):
        assert DIAGNOSTICS.rule_index(spec.code) == index


# -- typeflow (E1xx) -----------------------------------------------------------


def _chain_builder():
    b = ScriptBuilder()
    b.object_class("Data")
    b.object_class("Other")
    b.taskclass("T").input_set("main", inp="Data").outcome("ok", out="Data")
    b.taskclass("Root").input_set("main", inp="Data").outcome("done", out="Data")
    return b


def test_typeflow_unknown_producer():
    b = _chain_builder()
    c = b.compound("wf", "Root")
    c.task("t", "T").implementation(code="x").input(
        "main", "inp", from_output("ghost", "ok", "out")
    ).up()
    c.output("done").object("out", from_output("t", "ok", "out")).up()
    c.up()
    findings = check_typeflow(b.build(validate=False))
    assert "E101" in codes(findings)


def test_typeflow_class_mismatch():
    b = _chain_builder()
    b.taskclass("U").input_set("main", inp="Other").outcome("ok", out="Other")
    c = b.compound("wf", "Root")
    c.task("t", "T").implementation(code="x").input(
        "main", "inp", from_input("wf", "main", "inp")
    ).up()
    # u expects Other but t.ok carries Data — not a subclass
    c.task("u", "U").implementation(code="x").input(
        "main", "inp", from_output("t", "ok", "out")
    ).up()
    c.output("done").object("out", from_output("t", "ok", "out")).up()
    c.up()
    findings = check_typeflow(b.build(validate=False))
    assert "E104" in codes(findings)


def test_typeflow_repeat_privacy():
    b = _chain_builder()
    b.taskclass("R").input_set("main", inp="Data").outcome(
        "ok", out="Data"
    ).repeat_outcome("again", partial="Data")
    c = b.compound("wf", "Root")
    c.task("t", "R").implementation(code="x").input(
        "main", "inp", from_input("wf", "main", "inp")
    ).up()
    # repeat objects are private to their producer (§4.2)
    c.task("u", "T").implementation(code="x").input(
        "main", "inp", from_output("t", "again", "partial")
    ).up()
    c.output("done").object("out", from_output("t", "ok", "out")).up()
    c.up()
    findings = check_typeflow(b.build(validate=False))
    assert "E105" in codes(findings)


def test_typeflow_checks_template_bodies():
    script = _chain_builder().build(validate=False)
    # a template whose body names a taskclass that does not exist
    script.add_template(TaskTemplate(
        "broken",
        ("peer",),
        TaskDecl("inner", "NoSuchClass", Implementation.of(code="x")),
    ))
    findings = check_typeflow(script)
    assert any(
        f.code == "E107" and "template" in f.location for f in findings
    )


def test_typeflow_clean_on_valid_script():
    b = _chain_builder()
    c = b.compound("wf", "Root")
    c.task("t", "T").implementation(code="x").input(
        "main", "inp", from_input("wf", "main", "inp")
    ).up()
    c.output("done").object("out", from_output("t", "ok", "out")).up()
    c.up()
    assert check_typeflow(b.build()) == []


# -- liveness / stalls (E2xx) --------------------------------------------------


def _ghost_script():
    """Fig. 7-style defect: an output mapping requiring two mutually
    exclusive outcomes of the same task."""
    b = ScriptBuilder()
    b.object_class("Data")
    b.taskclass("T").input_set("main").outcome("ok", out="Data").outcome("nope")
    b.taskclass("Root").input_set("main").outcome("done", out="Data").outcome(
        "ghostPath"
    )
    c = b.compound("wf", "Root")
    c.task("t", "T").implementation(code="x").notify(
        "main", from_input("wf", "main")
    ).up()
    c.output("done").object("out", from_output("t", "ok", "out")).up()
    c.output("ghostPath").notify(from_output("t", "ok")).notify(
        from_output("t", "nope")
    ).up()
    c.up()
    return b.build()


def test_liveness_unreachable_outcome_ghost_path():
    result = check_liveness(compile_plan(_ghost_script()))
    assert result.unreachable_outcomes == ["ghostPath"]
    assert "E202" in codes(result.findings)
    assert sorted(result.reachable_outcomes) == ["done"]


def test_liveness_agrees_with_dynamic_explorer_on_ghost_path():
    script = _ghost_script()
    static = check_liveness(compile_plan(script))
    dynamic = analyze_outcomes(script, "wf")
    assert set(static.reachable_outcomes) == set(dynamic.reachable)
    assert set(static.unreachable_outcomes) == set(dynamic.unreachable)


@pytest.mark.parametrize("workload", ["paper_order", "paper_trip", "paper_service_impact"])
def test_static_agrees_with_dynamic_on_paper_workloads(workload):
    """Acceptance: on all three paper workloads the static verdict matches
    the dynamic explorer exactly — same reachable and unreachable sets."""
    import importlib

    module = importlib.import_module(f"repro.workloads.{workload}")
    script = module.build()
    static = check_liveness(compile_plan(script))
    dynamic = analyze_outcomes(script, None)
    assert set(static.reachable_outcomes) == set(dynamic.reachable)
    assert set(static.unreachable_outcomes) == set(dynamic.unreachable)
    assert static.dead_tasks == []


def test_liveness_dead_cycle():
    b = _chain_builder()
    c = b.compound("wf", "Root")
    c.task("a", "T").implementation(code="x").input(
        "main", "inp", from_input("wf", "main", "inp")
    ).up()
    c.task("b", "T").implementation(code="x").input(
        "main", "inp", from_output("c", "ok", "out")
    ).up()
    c.task("c", "T").implementation(code="x").input(
        "main", "inp", from_output("b", "ok", "out")
    ).up()
    c.output("done").object("out", from_output("a", "ok", "out")).up()
    c.up()
    result = check_liveness(compile_plan(b.build()))
    assert result.dead_tasks == ["wf/b", "wf/c"]
    assert codes(result.findings).count("E201") == 2


def test_liveness_guaranteed_stall():
    b = _chain_builder()
    c = b.compound("wf", "Root")
    c.task("a", "T").implementation(code="x").input(
        "main", "inp", from_output("b", "ok", "out")
    ).up()
    c.task("b", "T").implementation(code="x").input(
        "main", "inp", from_output("a", "ok", "out")
    ).up()
    c.output("done").object("out", from_output("b", "ok", "out")).up()
    c.up()
    result = check_liveness(compile_plan(b.build()))
    assert "E200" in codes(result.findings)
    assert not result.reachable_outcomes


def test_liveness_unsatisfiable_input_set():
    b = ScriptBuilder()
    b.object_class("Data")
    b.taskclass("T").input_set("main").outcome("ok", out="Data").outcome("nope")
    b.taskclass("Two").input_set("main", inp="Data").input_set(
        "alt"
    ).outcome("ok", out="Data")
    b.taskclass("Root").input_set("main").outcome("done", out="Data")
    c = b.compound("wf", "Root")
    c.task("t", "T").implementation(code="x").notify(
        "main", from_input("wf", "main")
    ).up()
    two = c.task("two", "Two").implementation(code="x")
    two.input("main", "inp", from_output("t", "ok", "out"))
    # 'alt' needs t.ok AND t.nope together: mutually exclusive finals
    two.notify("alt", from_output("t", "ok"))
    two.notify("alt", from_output("t", "nope"))
    two.up()
    c.output("done").object("out", from_output("two", "ok", "out")).up()
    c.up()
    result = check_liveness(compile_plan(b.build()))
    assert "E203" in codes(result.findings)
    assert "wf/two" not in result.dead_tasks  # startable via 'main'


def test_liveness_dead_output_mapping_of_nested_compound():
    b = ScriptBuilder()
    b.object_class("Data")
    b.taskclass("T").input_set("main").outcome("ok", out="Data").outcome("nope")
    b.taskclass("Inner").input_set("main").outcome("fine", out="Data").outcome(
        "never"
    )
    b.taskclass("Root").input_set("main").outcome("done", out="Data")
    c = b.compound("wf", "Root")
    inner = c.compound("in", "Inner").notify("main", from_input("wf", "main"))
    inner.task("t", "T").implementation(code="x").notify(
        "main", from_input("in", "main")
    ).up()
    inner.output("fine").object("out", from_output("t", "ok", "out")).up()
    inner.output("never").notify(from_output("t", "ok")).notify(
        from_output("t", "nope")
    ).up()
    inner.up()
    c.output("done").object("out", from_output("in", "fine", "out")).up()
    c.up()
    result = check_liveness(compile_plan(b.build()))
    assert any(
        f.code == "E204" and "never" in f.message for f in result.findings
    )


def test_the_verdict_follows_the_engines_firing_tables(monkeypatch):
    """Mutate the plan: every table ``compile_bindings`` builds loses the
    entry for ``t1``'s ``done``, the only one feeding ``t2``'s slot.  The
    script is unchanged, so only an analyzer reading the compiled tables
    can call ``t2`` dead (and ``t3``, which waits on it)."""
    original = plan_module.compile_bindings
    lost = ("t1", EventKind.OUTCOME, "done")

    def mutated(input_sets, vocabulary):
        table = original(input_sets, vocabulary)
        entries = {key: groups for key, groups in table.entries.items() if key != lost}
        return dataclasses.replace(table, entries=MappingProxyType(entries))

    script, _registry, _root, _inputs = generators.chain(3)
    assert [f for f in analyze_script(script).findings if f.code == "E201"] == []
    monkeypatch.setattr(plan_module, "compile_bindings", mutated)
    report = analyze_script(script)
    located = [f.location for f in report.findings if f.code == "E201"]
    assert located == ["pipeline/t2", "pipeline/t3"]
    assert report.liveness.dead_tasks == ["pipeline/t2", "pipeline/t3"]


# -- concurrency interference (W3xx) -------------------------------------------


def _fanout_script(n=2, ordered=False):
    """n tasks all consuming the environment's 'inp' object; with
    ``ordered`` each waits for its predecessor's outcome notification."""
    b = ScriptBuilder()
    b.object_class("Data")
    b.taskclass("T").input_set("main", inp="Data").outcome("ok", out="Data")
    b.taskclass("Root").input_set("main", inp="Data").outcome("done", out="Data")
    c = b.compound("wf", "Root")
    for i in range(n):
        t = c.task(f"t{i + 1}", "T").implementation(code=f"impl{i + 1}")
        t.input("main", "inp", from_input("wf", "main", "inp"))
        if ordered and i > 0:
            t.notify("main", from_output(f"t{i}", "ok"))
        t.up()
    c.output("done").object("out", from_output(f"t{n}", "ok", "out")).up()
    c.up()
    return b.build()


def test_interference_flags_parallel_shared_object():
    findings = check_interference(compile_plan(_fanout_script(2)))
    assert codes(findings) == ["W301"]
    (finding,) = findings
    assert set(finding.related) == {"wf/t1", "wf/t2"}
    assert "'inp' from <env>" in finding.message


def test_interference_silent_when_ordered():
    # the notification edge orders t1 before t2: no race despite sharing
    assert check_interference(compile_plan(_fanout_script(2, ordered=True))) == []


def test_interference_silent_on_pure_chain(pipeline_script):
    assert check_interference(compile_plan(pipeline_script)) == []


def test_observed_enabled_pairs_are_statically_predicted():
    """Every pair one drain pass would put in flight together must be a
    W301 pair (here every task shares the env object, so may-concurrent
    equals must-report)."""
    script = _fanout_script(3)
    static_pairs = {
        frozenset(f.related) for f in check_interference(compile_plan(script))
    }
    registry = ImplementationRegistry()
    for i in range(3):
        registry.register(
            f"impl{i + 1}", lambda ctx: outcome("ok", out=ctx.value("inp"))
        )
    wf = LocalWorkflow(script, "wf", registry)
    wf.start({"inp": "x"})
    observed = set()
    observed |= enabled_pairs(wf.tree)
    while wf.step():
        observed |= enabled_pairs(wf.tree)
    assert observed  # the fan-out really is concurrent
    assert observed <= static_pairs


# -- SARIF rendering -----------------------------------------------------------

# Subset of the official SARIF 2.1.0 schema (not vendored in this offline
# environment): the structural requirements CI ingestion relies on.
SARIF_SUBSET_SCHEMA = {
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "version": {"const": "2.1.0"},
        "$schema": {"type": "string"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool", "results"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                        },
                                    },
                                },
                            }
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["message"],
                            "properties": {
                                "ruleId": {"type": "string"},
                                "ruleIndex": {
                                    "type": "integer",
                                    "minimum": 0,
                                },
                                "level": {
                                    "enum": [
                                        "none",
                                        "note",
                                        "warning",
                                        "error",
                                    ]
                                },
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                },
                                "relatedLocations": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "properties": {
                                            "logicalLocations": {
                                                "type": "array",
                                                "items": {
                                                    "type": "object",
                                                    "properties": {
                                                        "fullyQualifiedName": {
                                                            "type": "string"
                                                        },
                                                        "kind": {"type": "string"},
                                                    },
                                                },
                                            },
                                            "message": {
                                                "type": "object",
                                                "required": ["text"],
                                            },
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


def _sample_report():
    return analyze_script(_fanout_script(2), source_name="fanout")


def test_sarif_log_is_schema_valid():
    log = to_sarif([_sample_report(), analyze_script(_ghost_script())])
    jsonschema_validate(instance=log, schema=SARIF_SUBSET_SCHEMA)
    # and is valid JSON end to end
    assert json.loads(json.dumps(log))["version"] == "2.1.0"


def test_sarif_rule_indices_are_consistent():
    log = to_sarif(_sample_report())
    run = log["runs"][0]
    rules = run["tool"]["driver"]["rules"]
    assert [r["id"] for r in rules] == sorted(
        spec.code for spec in DIAGNOSTICS.specs()
    )
    assert run["results"], "fan-out fixture must produce findings"
    for result in run["results"]:
        assert rules[result["ruleIndex"]]["id"] == result["ruleId"]


def test_sarif_artifact_locations():
    log = to_sarif(_sample_report(), artifacts={"fanout": "examples/fanout.wf"})
    result = log["runs"][0]["results"][0]
    assert (
        result["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
        == "examples/fanout.wf"
    )


def test_sarif_pair_findings_carry_related_locations():
    """Pair-shaped findings (races, lock cycles) must expose the second task
    of the pair as a SARIF relatedLocation, not just a properties blob."""
    log = to_sarif(_sample_report(), artifacts={"fanout": "examples/fanout.wf"})
    jsonschema_validate(instance=log, schema=SARIF_SUBSET_SCHEMA)
    paired = [
        r for r in log["runs"][0]["results"] if r.get("properties", {}).get("related")
    ]
    assert paired, "fan-out fixture must produce at least one pair finding"
    for result in paired:
        related = result["properties"]["related"]
        names = [
            loc["logicalLocations"][0]["fullyQualifiedName"]
            for loc in result["relatedLocations"]
        ]
        assert names == related
        for loc in result["relatedLocations"]:
            assert loc["message"]["text"]
            assert (
                loc["physicalLocation"]["artifactLocation"]["uri"]
                == "examples/fanout.wf"
            )


# -- unified report ------------------------------------------------------------


def test_analyze_script_merges_lint_findings():
    b = ScriptBuilder()
    b.object_class("Data")
    b.object_class("Unused")
    b.taskclass("T").input_set("main").outcome("ok", out="Data")
    b.taskclass("Root").input_set("main").outcome("done", out="Data")
    c = b.compound("wf", "Root")
    c.task("t", "T").implementation(code="x").notify(
        "main", from_input("wf", "main")
    ).up()
    c.output("done").object("out", from_output("t", "ok", "out")).up()
    c.up()
    report = analyze_script(b.build())
    assert "W008" in codes(report.findings)  # Unused object class, via linter
    assert report.ok  # warnings only
    assert [f for f in report.findings if f.code == "W008"][0].severity is Severity.WARNING


def test_analyze_script_skips_deep_passes_on_invalid_script():
    b = _chain_builder()
    c = b.compound("wf", "Root")
    c.task("t", "T").implementation(code="x").input(
        "main", "inp", from_output("ghost", "ok", "out")
    ).up()
    c.output("done").object("out", from_output("t", "ok", "out")).up()
    c.up()
    report = analyze_script(b.build(validate=False))
    assert not report.ok
    assert report.liveness is None


def test_analyze_script_compiles_the_plan_once(monkeypatch):
    """Every deeper pass reads the one plan ``analyze_script`` compiled."""
    built = []
    original = plan_module.ExecutionPlan.__init__

    def counting(plan, *args, **kwargs):
        built.append(plan)
        original(plan, *args, **kwargs)

    monkeypatch.setattr(plan_module.ExecutionPlan, "__init__", counting)
    report = analyze_script(paper_trip.build())
    assert report.liveness is not None and [f for f in report.findings if f.code == "W301"]
    assert len(built) == 1


def test_report_renders_text_and_dict():
    report = _sample_report()
    text = report.render_text()
    assert "fanout" in text and "W301" in text
    data = report.as_dict()
    assert data["warnings"] >= 1 and data["errors"] == 0


# -- strict admission ----------------------------------------------------------


def test_strict_admission_rejects_error_findings():
    text = format_script(_ghost_script())
    strict = RepositoryService(
        "repo", ObjectStore("s1"), strict_admission=True
    )
    with pytest.raises(SchemaError, match="E202"):
        strict.store_script("ghost", text)
    assert strict.list_scripts() == []
    lenient = RepositoryService("repo2", ObjectStore("s2"))
    assert lenient.store_script("ghost", text) == 1


def test_strict_admission_accepts_warning_findings():
    text = format_script(_fanout_script(2))
    strict = RepositoryService(
        "repo", ObjectStore("s3"), strict_admission=True
    )
    assert strict.store_script("fanout", text) == 1


# -- CLI: exit codes and formats -----------------------------------------------


class TestCliAnalysis:
    @pytest.fixture
    def order_file(self, tmp_path):
        from repro.workloads import paper_order

        path = tmp_path / "order.wf"
        path.write_text(paper_order.SCRIPT_TEXT, encoding="utf-8")
        return str(path)

    @pytest.fixture
    def ghost_file(self, tmp_path):
        path = tmp_path / "ghost.wf"
        path.write_text(format_script(_ghost_script()), encoding="utf-8")
        return str(path)

    def test_lint_warnings_only_exits_zero(self, order_file, capsys):
        from repro.cli import main

        assert main(["lint", order_file]) == 0
        assert "W301" in capsys.readouterr().out

    def test_lint_errors_exit_one(self, ghost_file, capsys):
        from repro.cli import main

        assert main(["lint", ghost_file]) == 1
        assert "E202" in capsys.readouterr().out

    def test_lint_strict_fails_on_warnings(self, order_file):
        from repro.cli import main

        assert main(["lint", order_file, "--strict"]) == 1

    def test_lint_parse_error_exits_two(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.wf"
        bad.write_text("not a script", encoding="utf-8")
        assert main(["lint", str(bad)]) == 2
        assert "PARSE ERROR" in capsys.readouterr().err

    def test_lint_json_format(self, order_file, capsys):
        from repro.cli import main

        assert main(["lint", order_file, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        # one W301 race plus the three W401 bare-effect warnings
        assert data[0]["warnings"] == 4

    def test_lint_sarif_to_file(self, order_file, tmp_path):
        from repro.cli import main

        out = tmp_path / "report.sarif"
        assert (
            main(["lint", order_file, "--format", "sarif", "--output", str(out)])
            == 0
        )
        log = json.loads(out.read_text(encoding="utf-8"))
        jsonschema_validate(instance=log, schema=SARIF_SUBSET_SCHEMA)
        assert log["runs"][0]["results"][0]["ruleId"] == "W301"

    def test_lint_extracts_embedded_python_scripts(self, tmp_path, capsys):
        from repro.cli import main
        from repro.workloads import paper_order

        embedded = tmp_path / "example.py"
        embedded.write_text(
            f"SCRIPT = '''{paper_order.SCRIPT_TEXT}'''\n", encoding="utf-8"
        )
        assert main(["lint", str(embedded)]) == 0
        assert "example.py:SCRIPT" in capsys.readouterr().out

    def test_analyze_side_by_side_agreement(self, order_file, capsys):
        from repro.cli import main

        assert main(["analyze", order_file]) == 0
        out = capsys.readouterr().out
        assert "static and dynamic reachability agree" in out
        assert "orderCompleted" in out and "dynamic" in out

    def test_analyze_unreachable_exits_one(self, ghost_file, capsys):
        from repro.cli import main

        assert main(["analyze", ghost_file]) == 1
        out = capsys.readouterr().out
        # both analyses call it unreachable — agreement, not an analyzer bug
        assert "ANALYZER BUG" not in out

    def test_analyze_static_only(self, order_file, capsys):
        from repro.cli import main

        assert main(["analyze", order_file, "--static"]) == 0
        out = capsys.readouterr().out
        assert "W301" in out and "analysis of" not in out


# -- the seeded race fixture (acceptance case) ---------------------------------


def _race_script():
    """Two tasks that may run simultaneously while holding the same 'acct'
    object — the statically detectable race."""
    b = ScriptBuilder()
    b.object_class("Account")
    b.taskclass("Credit").input_set("main", acct="Account").outcome("ok")
    b.taskclass("Debit").input_set("main", acct="Account").outcome("ok")
    b.taskclass("Root").input_set("main", acct="Account").outcome("done")
    c = b.compound("transfer", "Root")
    c.task("credit", "Credit").implementation(code="credit").input(
        "main", "acct", from_input("transfer", "main", "acct")
    ).up()
    c.task("debit", "Debit").implementation(code="debit").input(
        "main", "acct", from_input("transfer", "main", "acct")
    ).up()
    c.output("done").notify(from_output("credit", "ok")).notify(
        from_output("debit", "ok")
    ).up()
    c.up()
    return b.build()


def test_race_fixture_is_flagged_statically():
    findings = check_interference(compile_plan(_race_script()))
    assert codes(findings) == ["W301"]
    assert set(findings[0].related) == {"transfer/credit", "transfer/debit"}
    assert "acct" in findings[0].message


def test_race_fixture_really_races_under_concurrent_engine():
    """Both tasks are in flight at the same simulated instant, on two
    distinct worker nodes, each holding the same account reference: the
    distributed system really runs the W301 pair concurrently."""
    from repro.services import WorkflowSystem

    registry = ImplementationRegistry()
    registry.register("credit", lambda ctx: outcome("ok"))
    registry.register("debit", lambda ctx: outcome("ok"))
    system = WorkflowSystem(workers=2, registry=registry)
    system.deploy("transfer", format_script(_race_script()))
    iid = system.instantiate("transfer", "transfer", {"acct": "acct-1"})
    together = list(system.execution.runtimes[iid].in_flight.values())
    assert {flight.request["template"].task_path for flight in together} == {
        "transfer/credit", "transfer/debit",
    }
    # both requests carry the one account object, to two different workers
    assert {
        dict(flight.request["inputs"])["acct"].value for flight in together
    } == {"acct-1"}
    assert len({w for flight in together for w in flight.sent_to}) == 2
    result = system.run_until_terminal(iid)
    assert result["status"] == "completed" and result["outcome"] == "done"
