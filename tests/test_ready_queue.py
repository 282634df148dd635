"""The instance-tree ready queue: stale-node draining must not recurse
(RecursionError on wide fan-outs), claimed nodes must be released when an
ancestor terminates underneath them, and the heap hands tasks out in exactly
the order the former whole-queue scan did, at a cost that does not grow with
the script's width (docs/PROTOCOLS.md §10)."""

import sys
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.builder import ScriptBuilder, from_input, from_output
from repro.engine.instance import InstanceTree, TaskNode
from repro.engine.local import LocalWorkflow
from repro.engine.registry import ImplementationRegistry
from repro.workloads import generators


def fan_workflow(width, use_plan=True):
    script, registry, root, inputs = generators.fan(width)
    wf = LocalWorkflow(script, root, registry, use_plan=use_plan)
    wf.start(inputs)
    assert wf.step()  # run the source; all width workers become ready
    return wf


class TestTakeReadyIsIterative:
    @pytest.mark.parametrize("use_plan", [True, False], ids=["plan", "interpretive"])
    def test_wide_fanout_of_stale_nodes(self, use_plan):
        """Abort the root while ~2000 workers sit in the ready queue: every
        queued node is stale, and take_ready must skip them all in one call
        without growing the stack per node."""
        wf = fan_workflow(2000, use_plan=use_plan)
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


class TestDrainClaimRelease:
    def test_root_termination_unclaims_drained_nodes(self):
        """drain_ready claims nodes; a terminating ancestor must release
        those claims so nothing stays claimed-forever on a dead subtree."""
        wf = fan_workflow(4)
        drained = wf.tree.drain_ready()
        assert len(drained) == 4 and all(n.claimed for n in drained)
        wf.tree.node_at("fan").deactivate()
        assert all(not n.claimed for n in drained)
        assert wf.tree.drain_ready() == []
        for node in drained:
            assert wf.tree.try_begin_execution(node) is None
            assert not node.claimed

    def test_repeat_releases_claims_in_subtree(self):
        """The same release applies when a compound repeats (children are
        deactivated and rebuilt) rather than terminating."""
        script, registry, root, inputs = generators.fan(3)
        wf = LocalWorkflow(script, root, registry)
        wf.start(inputs)
        assert wf.step()
        drained = wf.tree.drain_ready()
        assert drained and all(n.claimed for n in drained)
        for node in drained:
            node.deactivate()
        assert all(not n.claimed for n in drained)


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
        for limit in limits:
            batch = tree.drain_ready(limit)
            assert len(batch) <= limit
            taken += batch
        taken += tree.drain_ready()
        assert [node.path for node in taken] == expected
        assert not tree.has_work()

    def test_unparsable_priority_means_zero(self):
        tree = grouped_tree([["high", "", "1.5", "-1", "1"]])
        assert [node.priority() for node in tree.walk() if not node.is_compound] == [
            0, 0, 0, -1, 1,
        ]
        assert [node.local_name for node in tree.drain_ready()] == [
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
