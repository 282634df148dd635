"""The instance-tree ready queue: stale-node draining must not recurse
(RecursionError on wide fan-outs), a queue holding only stale nodes has no
work, and the heap hands tasks out in exactly the order the former
whole-queue scan did, at a cost that does not grow with the script's width
(docs/PROTOCOLS.md §10)."""

import sys
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.builder import ScriptBuilder, from_input, from_output
from repro.engine import WorkflowStatus, outcome, pending
from repro.engine.instance import InstanceTree, TaskNode
from repro.engine.local import LocalWorkflow
from repro.engine.registry import ImplementationRegistry
from repro.workloads import generators


def fan_workflow(width):
    script, registry, root, inputs = generators.fan(width)
    wf = LocalWorkflow(script, root, registry)
    wf.start(inputs)
    assert wf.step()  # run the source; all width workers become ready
    return wf


class TestTakeReadyIsIterative:
    def test_wide_fanout_of_stale_nodes(self):
        """Abort the root while ~2000 workers sit in the ready queue: every
        queued node is stale, and take_ready must skip them all in one call
        without growing the stack per node."""
        wf = fan_workflow(2000)
        assert len(wf.tree.peek_ready()) == 2000
        wf.tree.node_at("fan").deactivate()
        limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(400)  # far below the stale-queue depth
            assert wf.tree.take_ready() is None
        finally:
            sys.setrecursionlimit(limit)
        assert wf.tree.peek_ready() == []
        assert not wf.tree.has_work()

    def test_stale_prefix_does_not_starve_live_node(self):
        """A live ready node behind a pile of stale ones is still returned."""
        wf = fan_workflow(50)
        workers = wf.tree.peek_ready()
        for node in workers[:-1]:
            node.deactivate()  # stale, still queued
        got = wf.tree.take_ready()
        assert got is workers[-1]


def stale_tail_workflow(max_steps):
    """``c`` (children ``a`` and ``b``, ``b`` at priority -1) outputs
    ``done`` from ``a`` alone; its sibling ``d`` consumes ``c.done`` and
    parks.  Two steps run ``a`` (which ends ``c``, so the queued ``b`` goes
    stale) and park ``d``: what is left in the heap is the dead ``r/c/b``."""
    b = ScriptBuilder()
    b.object_class("Data")
    b.taskclass("Stage").input_set("main", inp="Data").outcome("done", out="Data")
    b.taskclass("Root").input_set("main", inp="Data").outcome("done", out="Data")
    root = b.compound("r", "Root")
    c = root.compound("c", "Root").input("main", "inp", from_input("r", "main", "inp"))
    c.task("a", "Stage").implementation(code="stage").input(
        "main", "inp", from_input("c", "main", "inp")
    ).up()
    c.task("b", "Stage").implementation(code="stage", priority="-1").input(
        "main", "inp", from_input("c", "main", "inp")
    ).up()
    c.output("done").object("out", from_output("a", "done", "out")).up()
    c.up()
    root.task("d", "Stage").implementation(code="park").input(
        "main", "inp", from_output("c", "done", "out")
    ).up()
    root.output("done").object("out", from_output("d", "done", "out")).up()
    root.up()
    registry = ImplementationRegistry()
    registry.register("stage", lambda ctx: outcome("done", out=ctx.value("inp")))
    registry.register("park", lambda ctx: pending("awaiting a human"))
    wf = LocalWorkflow(b.build(), "r", registry, max_steps=max_steps)
    wf.start({"inp": "x"})
    return wf


class TestStaleHeadsAreNoWork:
    def test_only_stale_entries_left_means_stalled(self):
        wf = stale_tail_workflow(max_steps=100)
        assert wf.step() and wf.step()  # a, then d parks
        assert wf.tree.node_at("r/d").machine.state.value == "executing"
        assert not wf.tree.has_work()
        assert wf.status is WorkflowStatus.STALLED

    @pytest.mark.parametrize("max_steps", [2, 100])
    def test_budget_is_not_blamed_for_a_stall(self, max_steps):
        """With the budget spent on exactly the two real steps the run
        stalls, as it does with budget to spare — the dead ``b`` is not work
        the budget cut off."""
        result = stale_tail_workflow(max_steps).run_to_completion()
        assert result.status is WorkflowStatus.STALLED
        assert result.error is None


# -- order equivalence with the former max-scan --------------------------------------


def reference_take(ready):
    """The ready queue as it was before the heap, verbatim: a scan of the
    whole deque for the highest priority, earliest arrival."""
    while ready:
        best_index = max(
            range(len(ready)),
            key=lambda i: (ready[i].priority(), -i),
        )
        # deque rotation to pop an arbitrary index
        ready.rotate(-best_index)
        node = ready.popleft()
        ready.rotate(best_index)
        if node.ready() is None:  # stale (ancestor terminated meanwhile)
            continue
        return node
    return None


def grouped_tree(groups):
    """A root compound of sub-compounds; every simple task reads its group's
    input, so all of them are queued by ``start`` — in declaration order,
    depth first.  ``groups`` is one list of ``priority`` properties per
    sub-compound."""
    b = ScriptBuilder()
    b.object_class("Data")
    b.taskclass("Stage").input_set("main", inp="Data").outcome("done", out="Data")
    for name in ("Group", "Root"):
        b.taskclass(name).input_set("main", inp="Data").outcome(
            "done", out="Data"
        ).abort_outcome("failed")
    root = b.compound("wf", "Root")
    for g, priorities in enumerate(groups):
        group = root.compound(f"g{g}", "Group").input(
            "main", "inp", from_input("wf", "main", "inp")
        )
        for t, priority in enumerate(priorities):
            group.task(f"t{t}", "Stage").implementation(
                code="stage", priority=priority
            ).input("main", "inp", from_input(f"g{g}", "main", "inp")).up()
        group.output("done").object("out", from_output("t0", "done", "out")).up()
        group.up()
    root.output("done").object("out", from_output("g0", "done", "out")).up()
    root.up()
    tree = InstanceTree(b.build(), "wf")
    tree.start("main", {"inp": "x"})
    return tree


def take_all(tree, limit=None):
    """Up to ``limit`` nodes off the ready queue (all of them by default),
    each begun as an engine would before taking the next."""
    taken = []
    while limit is None or len(taken) < limit:
        node = tree.take_ready()
        if node is None:
            break
        tree.begin_execution(node)
        taken.append(node)
    return taken


priorities = st.one_of(
    st.integers(-2, 3).map(str), st.sampled_from(["high", "", "1.5", "0x2"])
)


class TestHeapOrderEqualsMaxScan:
    @settings(deadline=None, max_examples=150)
    @given(
        groups=st.lists(st.lists(priorities, min_size=1, max_size=6), min_size=1, max_size=4),
        aborted=st.sets(st.integers(0, 3)),
        limits=st.lists(st.integers(1, 5), max_size=4),
    )
    def test_same_nodes_in_the_same_order(self, groups, aborted, limits):
        tree = grouped_tree(groups)
        arrivals = [node for node in tree.walk() if not node.is_compound]
        assert tree.peek_ready() != [] and all(node.queued for node in arrivals)
        for g in aborted:
            if g < len(groups):
                tree.force_abort(f"wf/g{g}")  # its queued tasks go stale
        reference = deque(arrivals)
        expected = []
        while (node := reference_take(reference)) is not None:
            expected.append(node.path)
        assert [node.path for node in tree.peek_ready()] == expected
        taken = []
        for limit in limits:  # interleave peeks with takes
            taken += take_all(tree, limit)
            assert [node.path for node in tree.peek_ready()] == expected[len(taken):]
        taken += take_all(tree)
        assert [node.path for node in taken] == expected
        assert not tree.has_work()

    def test_unparsable_priority_means_zero(self):
        tree = grouped_tree([["high", "", "1.5", "-1", "1"]])
        assert [node.priority() for node in tree.walk() if not node.is_compound] == [
            0, 0, 0, -1, 1,
        ]
        assert [node.local_name for node in take_all(tree)] == [
            "t4", "t0", "t1", "t2", "t3",
        ]


# -- cost per take and per path lookup, in counts ---------------------------------------


class Probe:
    """An integer priority that counts the comparisons made on it."""

    compared = 0

    def __init__(self, value):
        self.value = value

    def __neg__(self):
        return Probe(-self.value)

    def __eq__(self, other):
        Probe.compared += 1
        return self.value == other.value

    def __lt__(self, other):
        Probe.compared += 1
        return self.value < other.value


class TestCostIsLogarithmicInWidth:
    WIDTH = 256

    def test_take_compares_log_n_priorities(self, monkeypatch):
        monkeypatch.setattr(
            TaskNode, "priority", lambda self: Probe(len(self.local_name) % 2)
        )
        wf = fan_workflow(self.WIDTH)
        Probe.compared = 0
        assert wf.tree.take_ready() is not None
        # a sift over a heap of 256 is 8 levels deep, two entries a level,
        # one == and one < an entry; the scan compared all 256
        assert 0 < Probe.compared <= 4 * self.WIDTH.bit_length()

    def test_node_at_reads_one_name_per_level(self, monkeypatch):
        wf = fan_workflow(self.WIDTH)
        reads = []
        monkeypatch.setattr(
            TaskNode,
            "local_name",
            property(lambda self: reads.append(self.path) or self.decl.name),
        )
        node = wf.tree.node_at(f"fan/w{self.WIDTH}")
        assert node.path == f"fan/w{self.WIDTH}"
        assert len(reads) <= 2  # depth, not width
