"""Tests for the tooling layer: DOT export, trace rendering, CLI."""

import argparse
import os
import subprocess
import sys

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.engine import LocalEngine
from repro.engine.trace import render_summary, render_trace
from repro.lang.dot import to_dot
from repro.workloads import paper_order, paper_trip

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class TestDotExport:
    def test_order_app_renders(self):
        dot = to_dot(paper_order.build())
        assert dot.startswith('digraph "processOrderApplication"')
        for task in ("paymentAuthorisation", "checkStock", "dispatch", "paymentCapture"):
            assert f'"{task}"' in dot

    def test_dataflow_solid_notifications_dashed(self):
        dot = to_dot(paper_order.build())
        assert "style=solid" in dot
        assert "style=dashed" in dot

    def test_atomic_task_double_bordered(self):
        # dispatch is atomic (abort outcome) -> Fig. 2's double border
        dot = to_dot(paper_order.build())
        dispatch_line = next(
            line for line in dot.splitlines() if '"processOrderApplication/dispatch"' in line and "label" in line
        )
        assert "peripheries=2" in dispatch_line

    def test_mark_task_dotted(self):
        dot = to_dot(paper_trip.build())
        fr_line = next(
            line
            for line in dot.splitlines()
            if "flightReservation" in line and "label" in line and "Cancel" not in line
        )
        assert "style=dotted" in fr_line

    def test_nested_compounds_become_clusters(self):
        dot = to_dot(paper_trip.build())
        assert dot.count("subgraph cluster_") == 3  # trip, BR, CFR

    def test_same_text_under_any_hash_seed(self):
        # str hashes are salted per process: no name in the output may use one
        program = (
            "import sys; from repro.lang.dot import to_dot; "
            "from repro.workloads import paper_trip; sys.stdout.write(to_dot(paper_trip.build()))"
        )
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
            outputs.append(subprocess.run([sys.executable, "-c", program], env=env,
                                          capture_output=True, text=True, check=True).stdout)
        assert outputs[0] == outputs[1] == to_dot(paper_trip.build())

    def test_named_task_selection(self):
        script = paper_order.build()
        dot = to_dot(script, "processOrderApplication")
        assert "processOrderApplication" in dot

    def test_multiple_roots_require_name(self):
        script = paper_order.build()
        script.add_task(script.tasks["processOrderApplication"].tasks[0])
        with pytest.raises(ValueError):
            to_dot(script)


class TestTraceRendering:
    def result(self):
        return LocalEngine(paper_order.default_registry()).run(
            paper_order.build(), inputs={"order": "o-1"}
        )

    def test_trace_contains_every_event(self):
        result = self.result()
        trace = render_trace(result.log)
        assert len(trace.splitlines()) == len(result.log)
        assert "outcome:orderCompleted" in trace

    def test_trace_shows_objects(self):
        trace = render_trace(self.result().log)
        assert "order='o-1'" in trace

    def test_summary_counts(self):
        summary = render_summary(self.result().log)
        assert "processOrderApplication/dispatch" in summary
        assert "orderCompleted" in summary

    def test_summary_marks_and_repeats(self):
        result = LocalEngine(paper_trip.default_registry()).run(
            paper_trip.build(), inputs={"user": "u"}
        )
        summary = render_summary(result.log)
        assert "hotelReservation" in summary
        lines = [l for l in summary.splitlines() if "hotelReservation" in l]
        assert lines and " 2 " in lines[0] or "2" in lines[0]  # repeats counted


class TestCli:
    @pytest.fixture
    def script_file(self, tmp_path):
        path = tmp_path / "order.wf"
        path.write_text(paper_order.SCRIPT_TEXT, encoding="utf-8")
        return str(path)

    def test_validate_ok(self, script_file, capsys):
        assert main(["validate", script_file]) == 0
        assert "OK:" in capsys.readouterr().out

    def test_validate_bad_script(self, tmp_path, capsys):
        bad = tmp_path / "bad.wf"
        bad.write_text("task t of taskclass Ghost { }", encoding="utf-8")
        assert main(["validate", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_format_prints_canonical_text(self, script_file, capsys):
        assert main(["format", script_file]) == 0
        out = capsys.readouterr().out
        assert "compoundtask processOrderApplication" in out

    def test_format_in_place(self, script_file):
        assert main(["format", script_file, "--in-place"]) == 0
        with open(script_file, encoding="utf-8") as fh:
            text = fh.read()
        assert text.startswith("class Order;")

    def test_inspect(self, script_file, capsys):
        assert main(["inspect", script_file]) == 0
        out = capsys.readouterr().out
        assert "4 constituents" in out

    def test_dot(self, script_file, capsys):
        assert main(["dot", script_file]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    @pytest.mark.parametrize("command", ["inspect", "dot"])
    @pytest.mark.parametrize(
        "text", ["task t of taskclass {", "task t of taskclass Ghost { }"],
        ids=["unparsable", "invalid"],
    )
    def test_a_bad_script_is_one_line_not_a_traceback(self, command, text, tmp_path, capsys):
        bad = tmp_path / "bad.wf"
        bad.write_text(text, encoding="utf-8")
        # a parse error exits 2, as for every script subcommand; an invalid
        # script that parses exits 1
        unparsable = text.endswith("{")
        assert main([command, str(bad)]) == (2 if unparsable else 1)
        captured = capsys.readouterr()
        prefix = f"{bad}: PARSE ERROR: " if unparsable else "INVALID: "
        assert captured.err.startswith(prefix) and captured.out == ""

    @pytest.mark.parametrize(
        "command", ["analyze", "format", "validate", "inspect", "plan", "dot"]
    )
    def test_an_unparsable_script_is_one_line_and_exit_2(self, command, tmp_path, capsys):
        bad = tmp_path / "bad.wf"
        bad.write_text("task t of taskclass {", encoding="utf-8")
        assert main([command, str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"{bad}: PARSE ERROR: line 1, column 21: expected taskclass name, found '{{'\n"
        )
        assert captured.out == ""

    def test_analyze_reports_an_invalid_script_as_validate_does(self, tmp_path, capsys):
        bad = tmp_path / "bad.wf"
        bad.write_text("task t of taskclass Ghost { }", encoding="utf-8")
        assert main(["validate", str(bad)]) == 1
        validated = capsys.readouterr()
        assert main(["analyze", str(bad)]) == 1
        analyzed = capsys.readouterr()
        assert analyzed.err.startswith("INVALID: ") and analyzed.out == ""
        assert analyzed == validated

    def test_dot_names_an_unknown_task(self, script_file, capsys):
        assert main(["dot", script_file, "nope"]) == 1
        assert capsys.readouterr().err == "ERROR: no top-level task 'nope'\n"

    def test_dot_on_a_script_without_a_top_level_task(self, tmp_path, capsys):
        empty = tmp_path / "classes.wf"
        empty.write_text("class Data;", encoding="utf-8")
        assert main(["dot", str(empty)]) == 1
        assert capsys.readouterr().err == "ERROR: script has no top-level task\n"

    @pytest.mark.parametrize("demo", ["order", "trip", "service-impact"])
    def test_demo(self, demo, capsys):
        assert main(["demo", demo]) == 0
        out = capsys.readouterr().out
        assert "outcome:" in out

    def test_load_rejects_a_zero_window(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["load", "--window", "0"])
        assert exit_info.value.code == 2
        assert "--window: must be at least 1, got 0" in capsys.readouterr().err

    def test_distributed_demo_rejects_zero_workers(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["demo", "order", "--distributed", "--workers", "0"])
        assert exit_info.value.code == 2
        assert "--workers: must be at least 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, hedge_delay",
        [([], 20.0), (["--hedge-delay", "0"], None), (["--hedge-delay", "7"], 7.0)],
        ids=["default", "zero-is-off", "positive"],
    )
    def test_hedge_delay_reaches_the_dispatcher(self, argv, hedge_delay, monkeypatch):
        # the default is 2 x the sweep interval (10 s)
        class Built(Exception):
            pass

        def build(spec, registry=None, resilience=None):
            raise Built(resilience)

        monkeypatch.setattr(cli, "WorkflowSystem", build)
        with pytest.raises(Built) as built:
            main(["demo", "order", "--distributed", *argv])
        assert built.value.args[0].hedge_delay == hedge_delay

    def test_sanitize_rejects_zero_runs(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["sanitize", "order", "--runs", "0"])
        assert exit_info.value.code == 2
        assert "--runs: must be at least 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["load", "--workers", "0"],
            ["load", "--lanes", "-1"],
            ["load", "--cohorts", "0"],
            ["chaos-sweep", "--workers", "0"],
            ["chaos-sweep", "--instances", "0"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_other_counts_below_one_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["load", "--rate", "0"], "--rate"),
            (["load", "--duration", "-5"], "--duration"),
            (["load", "--skew", "2"], "--skew"),
            (["load", "--queue-capacity", "-1"], "--queue-capacity"),
            (["demo", "order", "--distributed", "--loss-rate", "1.5"], "--loss-rate"),
            (["demo", "order", "--distributed", "--replicas", "-1"], "--replicas"),
            (["demo", "order", "--distributed", "--sweep-interval", "0"], "--sweep-interval"),
            (
                ["demo", "order", "--distributed", "--chaos-interval", "5",
                 "--chaos-downtime", "-1"],
                "--chaos-downtime",
            ),
            (["chaos-sweep", "--mode", "random", "--seeds", "-3"], "--seeds"),
            (["demo", "order", "--distributed", "--hedge-delay", "-5"], "--hedge-delay"),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else value,
    )
    def test_bad_values_are_usage_errors_naming_the_option(self, argv, option, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {option}: " in err
        assert "Traceback" not in err


# Every (subcommand, option, default[, choices]) the command line had before
# its options were read off the settings tables: spellings, defaults and
# choices are kept, a subcommand's own default written at its call.
OPTIONS = [
    ("validate", "script", None),
    ("format", "script", None),
    ("format", "--in-place", False),
    ("inspect", "script", None),
    ("analyze", "script", None),
    ("analyze", "task", None),
    ("analyze", "--max-cases", 20000),
    ("analyze", "--static", False),
    ("lint", "scripts", None),
    ("lint", "--format", "text", ["text", "json", "sarif"]),
    ("lint", "--output", None),
    ("lint", "--strict", False),
    ("plan", "script", None),
    ("plan", "task", None),
    ("plan", "--json", False),
    ("sanitize", "name", None, ["order", "trip", "service-impact"]),
    ("sanitize", "--runs", 5),
    ("sanitize", "--nemesis", False),
    ("sanitize", "--seed", 0),
    ("sanitize", "--output", None),
    ("dot", "script", None),
    ("dot", "task", None),
    ("demo", "name", "order", ["order", "trip", "service-impact"]),
    ("demo", "--load", False),
    ("demo", "--distributed", False),
    ("demo", "--workers", 3),
    ("demo", "--replicas", 0),
    ("demo", "--loss-rate", 0.0),
    ("demo", "--chaos-interval", 0.0),
    ("demo", "--chaos-downtime", 20.0),
    ("demo", "--seed", 0),
    ("demo", "--dispatch-timeout", 30.0),
    ("demo", "--sweep-interval", 10.0),
    ("demo", "--hedge-delay", None),
    ("demo", "--max-redispatches", 40),
    ("load", "--arrival", "poisson", ["poisson", "burst"]),
    ("load", "--rate", 0.5),
    ("load", "--duration", 300.0),
    ("load", "--cohorts", 3),
    ("load", "--skew", 0.5),
    ("load", "--seed", 0),
    ("load", "--drain", 600.0),
    ("load", "--slo", 120.0),
    ("load", "--workers", 2),
    ("load", "--service-time", 1.0),
    ("load", "--lanes", 1),
    ("load", "--queue-capacity", 16),
    ("load", "--window", 16),
    ("load", "--json", False),
    ("chaos-sweep", "--mode", "all", ["all", "exhaustive", "random", "failover"]),
    ("chaos-sweep", "--workload", "order", ["order", "trip", "service-impact"]),
    ("chaos-sweep", "--replicas", 2),
    ("chaos-sweep", "--workers", 2),
    ("chaos-sweep", "--instances", 1),
    ("chaos-sweep", "--seeds", 64),
    ("chaos-sweep", "--seed", 0),
    ("chaos-sweep", "--max-time", 5000.0),
    ("chaos-sweep", "--out", None),
    ("chaos-sweep", "--replay", None),
    ("chaos-sweep", "--list-points", False),
    ("chaos-sweep", "--verbose", False),
]


def test_every_option_keeps_its_spelling_default_and_choices():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = []
    for name, sub in commands.choices.items():
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            row = (name, (action.option_strings or [action.dest])[0], action.default)
            found.append(row + ((list(action.choices),) if action.choices else ()))
    assert found == OPTIONS
    # equal and of the same type: 5000.0 stays a float, 3 an int
    assert [type(row[2]) for row in found] == [type(row[2]) for row in OPTIONS]
