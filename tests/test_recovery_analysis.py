"""Recovery-safety analysis (E4xx/W4xx) plus the runtime vector-clock
sanitizer.

Covers: the static checkers' positive and negative cases, the diagnostic
registry entries, strict admission on the new error codes, the dynamic
sanitizer (races, duplicate effects) and the static-superset guarantee.
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    DIAGNOSTICS,
    Sanitizer,
    Severity,
    analyze_script,
    check_recovery,
    sanitized_run,
)
from repro.core import ScriptBuilder, from_input, from_output
from repro.core.selection import HOTPATH_STATS
from repro.engine import LocalEngine, compile_plan
from repro.lang import format_script


# -- fixture scripts -----------------------------------------------------------


def _atomic_pair_script(invert: bool = True):
    """Two atomic constituents reading env objects x and y; ``invert``
    declares them in opposite orders."""
    b = ScriptBuilder()
    b.object_classes("Data")
    (b.taskclass("AtomicXY")
        .input_set("main", x="Data", y="Data")
        .outcome("ok", out="Data")
        .abort_outcome("fail"))
    (b.taskclass("AtomicYX")
        .input_set("main", y="Data", x="Data")
        .outcome("ok", out="Data")
        .abort_outcome("fail"))
    (b.taskclass("Root")
        .input_set("main", x="Data", y="Data")
        .outcome("done", out="Data")
        .abort_outcome("failed"))
    wf = b.compound("wf", "Root")
    (wf.task("a", "AtomicXY").implementation(code="implA")
        .input("main", "x", from_input("wf", "main", "x"))
        .input("main", "y", from_input("wf", "main", "y")).up())
    second = "AtomicYX" if invert else "AtomicXY"
    builder = wf.task("bb", second).implementation(code="implB")
    if invert:
        builder.input("main", "y", from_input("wf", "main", "y"))
        builder.input("main", "x", from_input("wf", "main", "x"))
    else:
        builder.input("main", "x", from_input("wf", "main", "x"))
        builder.input("main", "y", from_input("wf", "main", "y"))
    builder.up()
    (wf.output("done").object("out", from_output("a", "ok", "out")).up()
       .output("failed")
       .notify(from_output("a", "fail"), from_output("bb", "fail")).up())
    wf.up()
    return b.build()


def _uncompensated_script(compensated: bool = False):
    """Atomic ``pay`` commits; the compound's abort fires from ``ship``
    alone.  With ``compensated`` a third task consumes pay's committed
    receipt (the compensation hook) and E402 must stay silent."""
    b = ScriptBuilder()
    b.object_classes("Data")
    (b.taskclass("Pay").input_set("main", x="Data")
        .outcome("paid", receipt="Data").abort_outcome("payFailed"))
    (b.taskclass("Ship").input_set("main", x="Data")
        .outcome("shipped", note="Data").abort_outcome("shipFailed"))
    (b.taskclass("Refund").input_set("main", receipt="Data")
        .outcome("refunded", out="Data"))
    (b.taskclass("Root").input_set("main", x="Data")
        .outcome("done", out="Data").abort_outcome("failed"))
    wf = b.compound("wf", "Root")
    (wf.task("pay", "Pay").implementation(code="pay")
        .input("main", "x", from_input("wf", "main", "x")).up())
    (wf.task("ship", "Ship").implementation(code="ship")
        .input("main", "x", from_input("wf", "main", "x")).up())
    if compensated:
        (wf.task("refund", "Refund").implementation(code="refund")
            .input("main", "receipt", from_output("pay", "paid", "receipt")).up())
    (wf.output("done").object("out", from_output("ship", "shipped", "note")).up()
       .output("failed").notify(from_output("ship", "shipFailed")).up())
    wf.up()
    return b.build()


def _deadline_script():
    b = ScriptBuilder()
    b.object_classes("Data")
    (b.taskclass("NoAbort").input_set("main", x="Data").outcome("ok", out="Data"))
    (b.taskclass("HasAbort").input_set("main", x="Data")
        .outcome("ok", out="Data").abort_outcome("fail"))
    (b.taskclass("Root").input_set("main", x="Data").outcome("done", out="Data"))
    wf = b.compound("wf", "Root")
    (wf.task("unarmable", "NoAbort").implementation(code="impl", deadline="5")
        .input("main", "x", from_input("wf", "main", "x")).up())
    (wf.task("unparsable", "HasAbort").implementation(code="impl", deadline="soon")
        .input("main", "x", from_input("wf", "main", "x")).up())
    (wf.task("degenerate", "HasAbort").implementation(code="impl", deadline="0")
        .input("main", "x", from_input("wf", "main", "x")).up())
    (wf.task("healthy", "HasAbort").implementation(code="impl", deadline="30")
        .input("main", "x", from_input("wf", "main", "x")).up())
    (wf.output("done").object("out", from_output("unarmable", "ok", "out")).up())
    wf.up()
    return b.build()


def _codes(findings, code):
    return [f for f in findings if f.code == code]


# -- registry ------------------------------------------------------------------


def test_new_codes_registered():
    assert DIAGNOSTICS.require("W401").severity is Severity.WARNING
    assert DIAGNOSTICS.require("E402").severity is Severity.ERROR
    assert DIAGNOSTICS.require("W404").severity is Severity.WARNING


# -- W401: bare effects --------------------------------------------------------


def test_w401_flags_reachable_nonatomic_tasks(pipeline_script):
    findings = check_recovery(compile_plan(pipeline_script))
    flagged = {f.location for f in _codes(findings, "W401")}
    assert flagged == {"pipeline/t1", "pipeline/t2", "pipeline/t3"}


def test_w401_spares_atomic_and_timer_tasks():
    b = ScriptBuilder()
    b.object_classes("Data")
    (b.taskclass("Atomic").input_set("main", x="Data")
        .outcome("ok", out="Data").abort_outcome("fail"))
    (b.taskclass("Tick").input_set("main").outcome("fired"))
    (b.taskclass("Root").input_set("main", x="Data").outcome("done", out="Data"))
    wf = b.compound("wf", "Root")
    (wf.task("tx", "Atomic").implementation(code="impl")
        .input("main", "x", from_input("wf", "main", "x")).up())
    (wf.task("tick", "Tick")
        .implementation(code="system.timer", delay="5")
        .notify("main", from_input("wf", "main")).up())
    (wf.output("done").object("out", from_output("tx", "ok", "out")).up())
    wf.up()
    findings = check_recovery(compile_plan(b.build()))
    assert not _codes(findings, "W401")


# -- E402: uncompensated abort paths -------------------------------------------


def test_e402_fires_on_uncompensated_commit():
    findings = check_recovery(compile_plan(_uncompensated_script()))
    e402 = _codes(findings, "E402")
    assert [f.location for f in e402] == ["wf -> wf/pay"]
    assert e402[0].related == ("wf", "wf/pay")


def test_e402_silent_when_commit_is_consumed():
    findings = check_recovery(compile_plan(_uncompensated_script(compensated=True)))
    assert not _codes(findings, "E402")


def test_e402_silent_when_abort_demands_the_constituents_abort():
    # the compound abort fires only via pay's own abort: pay cannot have
    # committed on that path, nothing stands uncompensated
    b = ScriptBuilder()
    b.object_classes("Data")
    (b.taskclass("Pay").input_set("main", x="Data")
        .outcome("paid", receipt="Data").abort_outcome("payFailed"))
    (b.taskclass("Root").input_set("main", x="Data")
        .outcome("done", out="Data").abort_outcome("failed"))
    wf = b.compound("wf", "Root")
    (wf.task("pay", "Pay").implementation(code="pay")
        .input("main", "x", from_input("wf", "main", "x")).up())
    (wf.output("done").object("out", from_output("pay", "paid", "receipt")).up()
       .output("failed").notify(from_output("pay", "payFailed")).up())
    wf.up()
    findings = check_recovery(compile_plan(b.build()))
    assert not _codes(findings, "E402")


# -- W404: degenerate deadlines ------------------------------------------------


def test_w404_three_degenerate_shapes_and_one_healthy():
    findings = check_recovery(compile_plan(_deadline_script()))
    w404 = {f.location: f.message for f in _codes(findings, "W404")}
    assert set(w404) == {"wf/unarmable", "wf/unparsable", "wf/degenerate"}
    assert "never arm" in w404["wf/unarmable"]
    assert "not a number" in w404["wf/unparsable"]
    assert "non-positive" in w404["wf/degenerate"]


def test_shipped_scripts_stay_error_clean():
    """No E402 false positives on the paper workloads (acceptance:
    `repro lint` on clean workloads introduces no new errors)."""
    from repro.workloads import paper_order, paper_service_impact, paper_trip

    for module in (paper_order, paper_trip, paper_service_impact):
        report = analyze_script(module.build())
        assert report.ok, [f.as_dict() for f in report.errors()]


# -- strict admission ----------------------------------------------------------


def test_strict_admission_rejects_e402():
    from repro.core.errors import SchemaError
    from repro.services.repository import RepositoryService
    from repro.txn import ObjectStore

    text = format_script(_uncompensated_script())
    strict = RepositoryService("repo", ObjectStore("sy"), strict_admission=True)
    with pytest.raises(SchemaError, match="E402"):
        strict.store_script("uncompensated", text)


# -- sanitizer: vector clocks --------------------------------------------------


def test_vector_clock_orderings():
    from repro.analysis.dynamic import VectorClock

    a = VectorClock({"p": 1})
    b = VectorClock({"p": 2, "q": 1})
    assert not a.concurrent(b) and not b.concurrent(a)
    c = VectorClock({"q": 1})
    assert a.concurrent(c)
    d = a.copy()
    d.join(c)
    assert d.clock == {"p": 1, "q": 1}
    assert not d.concurrent(a) and not d.concurrent(c)


def test_sanitizer_sees_fanout_race_and_pipeline_order(pipeline_script, pipeline_registry):
    # ordered pipeline: no races under any schedule, dynamic findings empty
    sanitizer = Sanitizer()
    for seed in range(3):
        result = sanitized_run(
            sanitizer, pipeline_script, "pipeline", pipeline_registry,
            {"inp": "seed"}, seed=seed,
        )
        assert result["status"] == "completed"
    assert sanitizer.findings == []
    assert sanitizer.trees_attached == 3
    # fan-out: the workers all hold the source's output, in flight together
    from repro.workloads import fan

    script, registry, root, inputs = fan(3)
    sanitizer = Sanitizer()
    sanitized_run(sanitizer, script, root, registry, inputs)
    assert {f.subjects for f in sanitizer.findings} == {
        ("fan/w1", "fan/w2"), ("fan/w1", "fan/w3"), ("fan/w2", "fan/w3"),
    }
    assert sanitizer.check_coverage(analyze_script(script)) == []


def seeded_runs(name, seeds=5):
    """A paper application's seeded runs under one sanitizer, as ``repro
    sanitize`` makes them: real implementations, one schedule per seed."""
    from repro.lang import compile_script
    from repro.workloads import APPLICATIONS

    app = APPLICATIONS[name]
    script = compile_script(app.text)
    sanitizer = Sanitizer()
    for seed in range(seeds):
        sanitized_run(sanitizer, script, app.root_task, app.binder(), app.inputs(0), seed=seed)
    return script, sanitizer


def test_seeded_runs_cover_paper_order():
    script, sanitizer = seeded_runs("order")
    report = analyze_script(script)
    races = [f for f in sanitizer.findings if f.kind == "race"]
    assert races, "the order workload's documented §3 race must be observed"
    assert {f.subjects for f in races} <= {
        (
            "processOrderApplication/checkStock",
            "processOrderApplication/paymentAuthorisation",
        )
    }
    assert sanitizer.check_coverage(report) == []


def test_sanitizer_zero_hooks_when_disabled():
    """The default path carries no sanitizer hooks at all: tree and
    execution-service methods are the plain class attributes unless a
    sanitizer is attached."""
    from repro.engine.instance import InstanceTree
    from repro.services import WorkflowSystem
    from repro.services.execution import ExecutionService
    from tests.conftest import build_pipeline_script, stage_registry

    script = build_pipeline_script(2)
    wf = LocalEngine(stage_registry()).workflow(script)
    assert wf.tree._publish.__func__ is InstanceTree._publish
    assert wf.tree._start_node.__func__ is InstanceTree._start_node
    sanitizer = Sanitizer()
    wf_sanitized = LocalEngine(stage_registry(), sanitizer=sanitizer).workflow(script)
    assert wf_sanitized.tree._publish is not InstanceTree._publish

    system = WorkflowSystem(registry=stage_registry())
    service = system.execution
    assert not vars(service).keys() & {"_new_tree", "_publish", "_start_node"}
    assert service._new_tree.__func__ is ExecutionService._new_tree
    system.deploy("p", format_script(script))
    iid = system.instantiate("p", "pipeline", {"inp": "x"})
    tree = service.runtimes[iid].tree
    assert tree._publish.__func__ is InstanceTree._publish
    assert tree._start_node.__func__ is InstanceTree._start_node
    sanitizer.attach_service(service)
    assert "_new_tree" in vars(service)  # the wrapper lives on this one service


def test_trip_exploration_observes_the_thread_pools_pairs():
    """The seeded schedules of the simulated system observe at least the
    three ``W301`` pairs of the trip workload that the thread-pooled engine
    they replaced did (it saw 3 of the 7 static pairs; the schedules see 6),
    every one of them statically predicted."""
    script, sanitizer = seeded_runs("trip")
    report = analyze_script(script)
    flights = "tripReservation/businessReservation/checkFlightReservation"
    hotel = "tripReservation/businessReservation/hotelReservation"
    observed = {f.subjects for f in sanitizer.findings if f.kind == "race"}
    assert {
        (f"{flights}/queryAirlineOne", f"{flights}/queryAirlineTwo"),
        (f"{flights}/queryAirlineOne", hotel),
        (f"{flights}/queryAirlineTwo", hotel),
    } <= observed
    static = {tuple(sorted(f.related)) for f in report.findings if f.code == "W301"}
    assert observed <= static and len(static) == 7
    assert sanitizer.check_coverage(report) == []


# -- sanitizer: duplicate effects ----------------------------------------------


class _FakeWorker:
    def __init__(self, executed):
        self.executed = executed


def test_duplicate_effect_scan_flags_nonatomic_only():
    script = _atomic_pair_script(invert=True)
    b = ScriptBuilder()
    b.object_classes("Data")
    (b.taskclass("Bare").input_set("main", x="Data").outcome("ok", out="Data"))
    (b.taskclass("Root").input_set("main", x="Data").outcome("done", out="Data"))
    wf = b.compound("wf2", "Root")
    (wf.task("bare", "Bare").implementation(code="impl")
        .input("main", "x", from_input("wf2", "main", "x")).up())
    (wf.output("done").object("out", from_output("bare", "ok", "out")).up())
    wf.up()
    bare_script = b.build()

    sanitizer = Sanitizer()
    # atomic task executed twice: protected by the txn manager, not flagged
    sanitizer.scan_workers(
        [_FakeWorker([("i1", "wf/a", 1)]), _FakeWorker([("i1", "wf/a", 1)])],
        compile_plan(script),
    )
    assert sanitizer.findings == []
    # bare task executed twice: flagged once, attributed to the path
    sanitizer.scan_workers(
        [
            _FakeWorker([("i1", "wf2/bare", 1), ("i1", "wf2/bare", 1)]),
            _FakeWorker([("i2", "unknown/task", 1)] * 2),
        ],
        compile_plan(bare_script),
    )
    assert [f.kind for f in sanitizer.findings] == ["duplicate-effect"]
    assert sanitizer.findings[0].subjects == ("wf2/bare",)
    report = analyze_script(bare_script)
    assert sanitizer.check_coverage(report) == []


def test_nemesis_duplicate_is_statically_predicted():
    """A worker crash after execute but before the reply forces the
    at-least-once redispatch to run the task again on the simulated
    system; the resulting ledger duplicate must be predicted by W401.  The
    sanitizer watches the run's trees too, without perturbing it."""
    from repro.sim.harness import SimHarness
    from repro.sim.nemesis import CrashAtPoint, NemesisSchedule
    from repro.workloads import paper_order

    schedule = NemesisSchedule(
        faults=[CrashAtPoint("worker.execute.post", at_hit=1)],
        name="dup-effects",
    )
    harness = SimHarness(schedule=schedule, workload="order")
    sanitizer = Sanitizer()
    sanitizer.attach_harness(harness)
    sim_report = harness.run()
    assert sim_report.ok, sim_report.violations
    unobserved = SimHarness(schedule=schedule, workload="order")
    assert unobserved.run().fingerprint() == sim_report.fingerprint()
    script = paper_order.build()
    sanitizer.scan_workers(harness._system.workers, compile_plan(script))
    assert sanitizer.trees_attached >= 1
    assert {f.kind for f in sanitizer.findings} == {"race", "duplicate-effect"}
    duplicates = [f for f in sanitizer.findings if f.kind == "duplicate-effect"]
    assert duplicates, "the crash-after-execute schedule must duplicate a task"
    report = analyze_script(script)
    assert sanitizer.check_coverage(report) == []


# -- hotpath stats isolation (regression) --------------------------------------


def test_hotpath_stats_reset_between_tests_part1(pipeline_script, pipeline_registry):
    LocalEngine(pipeline_registry).run(pipeline_script, inputs={"inp": "x"})
    assert HOTPATH_STATS.publishes > 0  # this test dirtied the counters


def test_hotpath_stats_reset_between_tests_part2():
    # the autouse fixture must have wiped part1's counters before this test
    assert HOTPATH_STATS.publishes == 0
    assert HOTPATH_STATS.source_evals == 0
