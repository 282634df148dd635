"""The seeded-mutant table's checker (benchmarks/mutants.py, EXPERIMENTS.md
E16): what counts as a catch."""

import importlib.util
import sys
from pathlib import Path

from repro.sim.explorer import ChaosSweep

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "mutants.py"
_SPEC = importlib.util.spec_from_file_location("mutants", _PATH)
mutants = sys.modules["mutants"] = importlib.util.module_from_spec(_SPEC)  # for its dataclasses
_SPEC.loader.exec_module(mutants)


class TestUnreachedPoints:
    def test_a_planned_point_left_unreached_is_a_catch(self, monkeypatch):
        """A tree that keeps a planned point from being visited (no run the
        planner reads visits it, and it is not ledgered) loses no run: the
        point's run catches as ``unreached``, credited to the point, as the
        CLI's exhaustive pass fails on it."""
        original = ChaosSweep.plan_for_point

        def plan_for_point(sweep, point, mode="clean"):
            if point.name == "exec.reply.journal.pre":
                return None  # what a mutant that never reaches it leaves
            return original(sweep, point, mode)

        monkeypatch.setattr(ChaosSweep, "plan_for_point", plan_for_point)
        run = "exhaustive:orderx1:exec.reply.journal.pre"
        assert mutants.measure([run])["caught"] == {run: {
            "oracles": ["unreached"], "kinds": ["crash_at_point"],
            "points": ["exec.reply.journal.pre"],
        }}

    def test_ledgered_points_are_not_planned_runs(self):
        names = {name for name, _ in mutants.checker_runs()}
        assert "exhaustive:orderx1:exec.reply.journal.pre" in names
        assert not any(name.startswith("exhaustive:") and name.endswith("exec.shed.journal.pre")
                       for name in names)
