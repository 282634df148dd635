"""A compound looks at its output mappings only when an event changed one.

``InstanceTree._evaluate_outputs`` skips the three output passes unless the
event's offer changed a watcher, or the watchers were installed since the
last look (the compound's own start, a repeat's fresh inner world, a
reconfiguration).  These are the outputs such a gate could miss — due with
no offer changing anything, or two due from one event, or due again after
a repeat — each run on a tree that compiles its own scopes and on one built
on the script's shared plan, gated and with the gate held open (a look at
every inner event, as before the gate), every tracker and watcher checked
against the specification: all four logs must be identical, and must say
what the script means.
"""

import pytest

from repro.engine import ImplementationRegistry, outcome
from repro.engine.instance import CompoundNode
from repro.lang import compile_script, parse

from tests.test_plan_differential import canonical_log
from tests.test_plan_specification import SpecificationCheck, checked_run


def script(signature: str, outputs: str) -> str:
    """A compound ``outer`` of one constituent ``t``, declaring the outputs
    ``signature`` and mapping them as ``outputs`` says."""
    return """
class Data;

taskclass Step {
    inputs { input main { inp of class Data } };
    outputs {
        outcome done { out of class Data };
        outcome again { }
    }
};

taskclass Outer {
    inputs { input main { inp of class Data } };
    outputs { %s }
};

compoundtask outer of taskclass Outer {
    task t of taskclass Step {
        implementation { "code" is "step" };
        inputs { input main { inputobject inp from { inp of task outer if input main } } }
    };
    outputs { %s }
};
""" % (signature, outputs)


def registry(agains: int = 0) -> ImplementationRegistry:
    """``step`` answers ``again`` for its first ``agains`` runs, then ``done``."""
    runs = []
    reg = ImplementationRegistry()

    def step(ctx):
        runs.append(ctx.value("inp"))
        if len(runs) <= agains:
            return outcome("again")
        return outcome("done", out=f"{ctx.value('inp')}-{len(runs)}")

    reg.register("step", step)
    return reg


def every_look(monkeypatch):
    """Hold the gate open: every inner event looks at every output."""
    monkeypatch.setattr(
        CompoundNode,
        "watchers_installed",
        property(lambda self: True, lambda self, value: None),
        raising=False,
    )


def run_four(monkeypatch, text, agains=0, validate=True):
    compiled = compile_script(text) if validate else parse(text)
    check = SpecificationCheck()

    def run(shared_plan):
        workload = (compiled, registry(agains), "outer", {"inp": "x"})
        return checked_run(check, workload, shared_plan, max_repeats=10)

    gated = [run(False), run(True)]
    with monkeypatch.context() as patch:
        every_look(patch)
        open_gate = [run(False), run(True)]
    # (an instance decided by its own start is never running and quiescent)
    assert check.mismatches == []
    logs = [canonical_log(result.log) for result in gated + open_gate]
    assert all(log == logs[0] for log in logs[1:])
    for result in gated + open_gate[1:]:
        assert (result.status, result.outcome) == (open_gate[0].status, open_gate[0].outcome)
    return gated[0]


def events(result):
    """(producer, kind, name) of every logged event, in order — the outer
    compound's start once (not again as it enters its own inner scope)."""
    return [
        (entry.producer_path, entry.event.kind.value, entry.event.name)
        for entry in result.log.entries
        if not (entry.producer_path == "outer" and entry.scope_path == "outer")
    ]


START = [("outer", "input", "main")]


def t_ran(end):
    return [("outer/t", "input", "main"), ("outer/t", "outcome", end)]


def test_output_with_no_sources_is_due_at_start(monkeypatch):
    """The validator refuses an empty mapping; the engine still owes it the
    meaning of an empty input set — satisfied as soon as the compound runs."""
    result = run_four(
        monkeypatch, script("outcome empty { }", "outcome empty { }"), validate=False
    )
    # decided by the compound's own start: its constituent never ran
    assert events(result) == START + [("outer", "outcome", "empty")]


def test_output_sourced_from_if_input_is_due_at_start(monkeypatch):
    result = run_four(
        monkeypatch,
        script(
            "outcome echoed { inp of class Data }",
            "outcome echoed { outputobject inp from { inp of task outer if input main } }",
        ),
    )
    assert events(result) == START + [("outer", "outcome", "echoed")]
    assert result.objects["inp"].value == "x"


def test_mark_due_at_start_then_outcome_later(monkeypatch):
    result = run_four(
        monkeypatch,
        script(
            "mark started { inp of class Data }; outcome finished { out of class Data }",
            "mark started { outputobject inp from { inp of task outer if input main } };"
            " outcome finished { outputobject out from { out of task t if output done } }",
        ),
    )
    assert events(result) == (
        START + [("outer", "mark", "started")] + t_ran("done") + [("outer", "outcome", "finished")]
    )
    assert result.objects["out"].value == "x-1"


def test_mark_and_outcome_due_on_one_event(monkeypatch):
    result = run_four(
        monkeypatch,
        script(
            "outcome finished { out of class Data }; mark early { out of class Data }",
            "outcome finished { outputobject out from { out of task t if output done } };"
            " mark early { outputobject out from { out of task t if output done } }",
        ),
    )
    # marks go first although the outcome is declared first
    assert events(result) == (
        START + t_ran("done") + [("outer", "mark", "early"), ("outer", "outcome", "finished")]
    )
    assert [name for name, _objects in result.marks] == ["early"]


START_MARKS = {
    # (signature, mapping, validate): the validator refuses an empty mapping
    "no sources": ("mark started { }", "mark started { }", False),
    "if input": (
        "mark started { inp of class Data }",
        "mark started { outputobject inp from { inp of task outer if input main } }",
        True,
    ),
}


@pytest.mark.parametrize("agains", [1, 3])
@pytest.mark.parametrize("start_mark", sorted(START_MARKS))
def test_repeat_then_reset_inside(monkeypatch, agains, start_mark):
    """A repeat installs a fresh inner world: the start-due mark is due
    again in every round, and the round that ends sees the outcome."""
    signature, mapping, validate = START_MARKS[start_mark]
    result = run_four(
        monkeypatch,
        script(
            signature + "; repeat outcome loop { }; outcome finished { out of class Data }",
            mapping + "; repeat outcome loop { notification from { task t if output again } };"
            " outcome finished { outputobject out from { out of task t if output done } }",
        ),
        agains=agains,
        validate=validate,
    )
    round_ = START + [("outer", "mark", "started")]
    assert events(result) == (
        (round_ + t_ran("again") + [("outer", "repeat", "loop")]) * agains
        + round_ + t_ran("done") + [("outer", "outcome", "finished")]
    )
    assert result.objects["out"].value == f"x-{agains + 1}"
