"""Tests for the tooling layer: DOT export, trace rendering, CLI."""

import pytest

from repro.cli import main
from repro.engine import LocalEngine
from repro.engine.trace import render_summary, render_trace
from repro.lang.dot import to_dot
from repro.workloads import paper_order, paper_trip


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
