"""Each step's bookkeeping is done once, and what is deferred is still right.

* **One barrier per drained batch.**  The reply that releases a fan-out
  takes one durability barrier for every flight it dispatches, and a send on
  its own (a sweeper redispatch) still takes its own before its datagram
  leaves.
* **A flight is resent ``dispatch_timeout`` after its send**: at the first
  sweep at or after what the send fixed (``dispatched_at``, which a timer
  task sets to when its timer fires), whatever kind of send it was.
* **Readiness is computed at the dequeue**: a queued node starts on what it
  holds when it starts, not on what it held when it was queued.
* **Readiness is tested when a mask completes**: a tracker's ``satisfied``
  flag is what its masks say after every offer, and a waiting node is queued
  on its flip alone.
* **The resilience log is bounded** and keeps its newest entries in order.
* **Pinned, not fixed: the new instance's spec is not fsynced before
  ``instantiate`` answers.**
"""

import os
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.builder import ScriptBuilder, from_input, from_output
from repro.core.selection import EventKind
from repro.engine import outcome
from repro.engine.instance import InstanceTree
from repro.engine.plan import PlanTracker
from repro.lang import format_script
from repro.resilience import ResilienceConfig, render_resilience
from repro.resilience.events import EVENT_LIMIT, ResilienceLog
from repro.services import WorkflowSystem, execution
from repro.services.execution import Dispatch, Journal
from repro.sim.nemesis import CrashAtTime, NemesisSchedule
from repro.workloads import APPLICATIONS, generators

from tests.test_plan_specification import WORKLOADS, SpecificationCheck, checked_run
from tests.test_timer_tasks import timeout_script


def fan_system(width=8, **kwargs):
    script, registry, root, inputs = generators.fan(width)
    system = WorkflowSystem(registry=registry, **kwargs)
    system.deploy("fan", format_script(script))
    return system, root, inputs


def count_calls(owner, name, counts):
    """Wrap ``owner.name`` (an instance attribute from here on) so that
    ``counts[name]`` counts its calls."""
    original = getattr(owner, name)
    counts[name] = 0

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    setattr(owner, name, counted)


# -- one barrier per drained batch ---------------------------------------------------------


class TestOneBarrierPerBatch:
    def test_the_reply_that_releases_a_fan_out_takes_one_barrier(self):
        system, root, inputs = fan_system(8)
        service = system.execution
        counts = {}
        count_calls(service, "flush_journal", counts)
        count_calls(service.journal, "commit", counts)
        replies = []
        handle = service._handle_reply

        def observed(iid, reply):
            before = (dict(counts), service.stats["dispatches"])
            handle(iid, reply)
            replies.append((reply.task_path, before, dict(counts), service.stats["dispatches"]))

        service._handle_reply = observed
        iid = system.instantiate("fan", root, inputs)
        assert system.run_until_terminal(iid)["status"] == "completed"
        (release,) = [r for r in replies if r[0] == "fan/source"]
        _path, (counts_before, sent_before), counts_after, sent_after = release
        assert sent_after - sent_before == 8
        assert counts_after["flush_journal"] - counts_before["flush_journal"] == 1
        assert counts_after["commit"] - counts_before["commit"] == 1

    def test_a_sweeper_redispatch_commits_what_is_buffered_before_it_leaves(self, monkeypatch):
        # no journal-window timer: a reply that dispatches nothing leaves its
        # entry buffered until the next barrier
        monkeypatch.setattr(execution, "_JOURNAL_WINDOW", 1e9)
        system, root, inputs = fan_system(
            8, workers=2, sweep_interval=5.0, dispatch_timeout=20.0,
            resilience=replace(ResilienceConfig.for_timeouts(20.0, 5.0), hedge_delay=None),
        )
        service = system.execution
        NemesisSchedule([CrashAtTime(0.5, "worker-node-2", downtime=500.0)]).arm(system)
        seen = []
        flush = service.flush_journal
        pending, buffered = [], []  # the entries journaled since the last barrier, and at it

        def traced_flush(closed=()):
            buffered[:], pending[:] = pending, []
            return flush(closed)

        def tap(effect):
            if type(effect) is Journal:
                pending.append(effect.entry)
            # a redispatch has left: what its barrier found buffered is durable
            if type(effect) is Dispatch and buffered and any(
                flight.redispatches for _key, flight in effect.flights
            ):
                committed = service.journal.entries(effect.runtime.iid)
                seen.append((
                    dict(service.journal.rows),
                    all(entry in committed for entry in buffered),
                ))

        service.flush_journal = traced_flush
        service.tap = tap
        iid = system.instantiate("fan", root, inputs)
        assert system.run_until_terminal(iid, max_time=5_000)["status"] == "completed"
        assert service.stats["redispatches"] >= 1
        assert seen, "no redispatch found an entry still buffered"
        assert all(left == {} and durable for left, durable in seen)


# -- the redispatch deadline, fixed by the send -------------------------------------------


class DeadlineAudit:
    """Reads every :class:`Dispatch` record a service performs (its ``tap``)
    and holds each sweeper resend to the send before it: the resend leaves
    at the first sweep at or after that send's ``dispatched_at +
    dispatch_timeout``.  ``kinds`` counts the sends that were followed by a
    resend, by kind: ``first``, ``redispatch`` (the sweeper's), ``resume`` (a
    rebuilt flight's first send); ``timer`` counts timer arms, which their
    timer answers before they are due."""

    def __init__(self, service):
        self.service = service
        self.sends = {}  # id(flight) -> (flight, kind, dispatched_at)
        self.kinds = {}
        self.mismatches = []
        service.tap = self.performed

    def performed(self, effect):
        if type(effect) is not Dispatch or effect.hedge:
            return
        service = self.service
        now = service._now()
        for key, flight in effect.flights:
            if not flight.sent:
                continue
            known = self.sends.get(id(flight))
            if flight.request["template"].code == "system.timer":
                kind = "timer"
                self.kinds[kind] = self.kinds.get(kind, 0) + 1
            elif known is None:
                kind = "resume" if flight.redispatches else "first"
            else:
                kind = "redispatch"
                _flight, previous, dispatched_at = known
                self.kinds[previous] = self.kinds.get(previous, 0) + 1
                deadline = dispatched_at + service.dispatch_timeout
                if not deadline <= now < deadline + service.sweep_interval:
                    self.mismatches.append((previous, key, now, deadline))
            self.sends[id(flight)] = (flight, kind, flight.dispatched_at)


class TestDeadlineComputedWhenRead:
    def test_first_sends_redispatches_and_resumed_flights(self):
        system, root, inputs = fan_system(
            8, workers=2, sweep_interval=5.0, dispatch_timeout=20.0,
            resilience=replace(ResilienceConfig.for_timeouts(20.0, 5.0), hedge_delay=None),
        )
        audit = DeadlineAudit(system.execution)
        # the fleet is away long enough for the sweeper to resend after
        # first sends, after resumed sends and after its own redispatches
        NemesisSchedule(
            [CrashAtTime(0.5, node.name, downtime=120.0) for node in system.worker_nodes]
            + [CrashAtTime(30.0, "execution-node", downtime=4.0)]
        ).arm(system)
        iid = system.instantiate("fan", root, inputs)
        assert system.run_until_terminal(iid, max_time=5_000)["status"] == "completed"
        assert audit.mismatches == []
        assert {"first", "redispatch", "resume"} <= set(audit.kinds), audit.kinds

    def test_timer_tasks(self):
        system = WorkflowSystem(workers=1)
        system.registry.register("fetch", lambda ctx: outcome("empty"))
        system.registry.register("process", lambda ctx: outcome("timedOut"))
        system.deploy("wf", format_script(timeout_script()))
        audit = DeadlineAudit(system.execution)
        iid = system.instantiate("wf", "wf", {})
        assert system.run_until_terminal(iid, max_time=5_000)["outcome"] == "gaveUp"
        assert audit.mismatches == []
        assert audit.kinds.get("timer"), audit.kinds


# -- readiness at the dequeue ---------------------------------------------------------------


def two_source_tree():
    """``t`` takes ``x`` from ``a`` or, second choice, from ``b``; ``b`` runs
    first (higher priority), so ``t`` is queued on ``b``'s value before ``a``
    offers the better one."""
    b = ScriptBuilder()
    b.object_class("Data")
    b.taskclass("Stage").input_set("main", inp="Data").outcome("done", out="Data")
    b.taskclass("Use").input_set("main", x="Data").outcome("done", out="Data")
    root = b.compound("r", "Stage")
    for name, priority in (("a", "0"), ("b", "1")):
        root.task(name, "Stage").implementation(code="stage", priority=priority).input(
            "main", "inp", from_input("r", "main", "inp")
        ).up()
    root.task("t", "Use").implementation(code="use").input(
        "main", "x", from_output("a", "done", "out"), from_output("b", "done", "out")
    ).up()
    root.output("done").object("out", from_output("t", "done", "out")).up()
    root.up()
    tree = InstanceTree(b.build(), "r")
    tree.start("main", {"inp": "seed"})
    return tree


class TestReadinessAtTheDequeue:
    def test_a_queued_node_starts_on_the_better_alternative_offered_meanwhile(self):
        tree = two_source_tree()
        b_node, _ = tree.begin_next()
        a_node, _ = tree.begin_next()
        assert (b_node.local_name, a_node.local_name) == ("b", "a")
        tree.apply_result(b_node, outcome("done", out="from-b"))
        t = tree.node_at("r/t")
        assert t.queued  # ready on b's value
        tree.apply_result(a_node, outcome("done", out="from-a"))
        node, (input_set, inputs) = tree.begin_next()
        assert node is t and input_set == "main"
        assert inputs["x"].value == "from-a"
        started = tree.log.first("r/t", EventKind.INPUT)
        assert started.event.objects["x"].value == "from-a"


# -- readiness tested on mask completion ----------------------------------------------------


def flag_audit(patch, wrong):
    """Hold every tracker's ``satisfied`` flag to its masks after each
    ``offer`` and ``offer_all``; ``wrong`` collects the trackers it missed."""
    for name in ("offer", "offer_all"):
        original = getattr(PlanTracker, name)

        def audited(tracker, events, original=original):
            changed = original(tracker, events)
            if tracker.satisfied != (tracker.first_satisfied() is not None):
                wrong.append((tracker.table.sets, tracker.mask, tracker.satisfied))
            return changed

        patch.setattr(PlanTracker, name, audited)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["random_dag"] + sorted(WORKLOADS)),
    st.integers(2, 16),
    st.integers(0, 1_000),
    st.booleans(),
)
def test_the_satisfied_flag_is_what_the_masks_say(name, size, seed, shared_plan):
    workload = (
        generators.random_dag(size, seed=seed) if name == "random_dag"
        else generators.fan(size) if name == "fan"
        else WORKLOADS[name]()
    )
    wrong = []
    check = SpecificationCheck()
    with pytest.MonkeyPatch.context() as patch:
        flag_audit(patch, wrong)
        result = checked_run(check, workload, shared_plan)
    assert wrong == []
    assert result.completed
    check.verify()


def skip_the_enqueue_on_the_flip(monkeypatch):
    """Mutate the engine: ``_pump`` asks to queue a node only on its flip,
    and that call is dropped."""
    enqueue = InstanceTree._enqueue_if_ready
    pump = InstanceTree._pump.__code__

    def mutated(tree, node):
        if sys._getframe(1).f_code is not pump:
            enqueue(tree, node)

    monkeypatch.setattr(InstanceTree, "_enqueue_if_ready", mutated)


@pytest.mark.parametrize("workload", [lambda: generators.fan(8), generators.diamond],
                         ids=["fan(8)", "diamond"])
def test_a_skipped_enqueue_on_the_flip_is_caught(monkeypatch, workload):
    skip_the_enqueue_on_the_flip(monkeypatch)
    script, registry, root, inputs = workload()
    system = WorkflowSystem(registry=registry)
    system.deploy("w", format_script(script))
    iid = system.instantiate("w", root, inputs)
    # every tracker is still right, so the specification check has nothing
    # to see: what shows the lost enqueue is a run that stalls
    assert system.run_until_terminal(iid, max_time=500.0)["status"] == "running"
    assert system.execution.status(iid)["status"] == "stalled"


# -- the bounded resilience log --------------------------------------------------------------


class TestResilienceLogBound:
    def test_keeps_the_newest_entries_in_order_and_counts_the_dropped(self):
        log = ResilienceLog()
        extra = 7
        for n in range(EVENT_LIMIT + extra):
            kind = "dispatch" if n % 2 else "timeout"
            log.record(float(n), kind, f"wf-{n % 3}", f"t{n}", "w1")
        assert len(log.entries) == EVENT_LIMIT
        assert [e.time for e in log.entries] == [
            float(n) for n in range(extra, EVENT_LIMIT + extra)
        ]
        assert sum(log.summary().values()) == EVENT_LIMIT + extra
        assert [e.time for e in log.for_instance("wf-1")] == [
            float(n) for n in range(extra, EVENT_LIMIT + extra) if n % 3 == 1
        ]
        kinds = [e.kind for e in log.entries]
        assert kinds.count("dispatch") + kinds.count("timeout") == EVENT_LIMIT
        rendered = render_resilience(log.for_instance("wf-2"))
        assert rendered.startswith("-- resilience --")
        assert rendered.count("\n") == len(log.for_instance("wf-2"))


# -- pinned: instantiate answers before the spec is fsynced ----------------------------------


GENERATED = {"fan(8)": lambda: generators.fan(8), "chain(8)": lambda: generators.chain(8)}


def deployed_with_mirror(name, mirror_path):
    """A system writing its WAL mirror to ``mirror_path`` with ``name`` (a
    generated workload or a paper application) deployed; returns it with
    the script name, root task and inputs of one instance."""
    if name in GENERATED:
        script, registry, root, inputs = GENERATED[name]()
        system = WorkflowSystem(registry=registry, mirror_path=mirror_path)
        system.deploy("w", format_script(script))
        return system, "w", root, inputs
    app = APPLICATIONS[name]
    system = WorkflowSystem(mirror_path=mirror_path)
    app.binder(system.registry)
    system.deploy(app.script_name, app.text)
    return system, app.script_name, app.root_task, app.inputs(0)


@pytest.mark.xfail(
    strict=True,
    reason="Journal.create forces the spec/meta row, but its fsync waits for a later "
    "barrier: flush_journal takes store.sync() only with a non-empty buffer, so "
    "instantiate returns the iid and sends the first dispatch with the row unsynced "
    "(docs/PROTOCOLS.md §11; closing it costs one fsync per instance)",
)
@pytest.mark.parametrize("name", sorted(GENERATED) + sorted(APPLICATIONS))
def test_instantiate_fsyncs_the_new_spec_before_it_answers(tmp_path, monkeypatch, name):
    system, deployed, root, inputs = deployed_with_mirror(name, str(tmp_path / "wal.jsonl"))
    fsyncs = []
    fsync = os.fsync

    def counted(fd):
        fsyncs.append(fd)
        fsync(fd)

    monkeypatch.setattr(os, "fsync", counted)
    system.instantiate(deployed, root, inputs)
    assert len(fsyncs) >= 1
