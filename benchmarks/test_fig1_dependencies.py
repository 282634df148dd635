"""F1 — Fig. 1: inter-task dependencies.

Regenerates the paper's first figure: the four-task workflow where t2 and t3
start once t1 finishes (t1->t2 a notification, t1->t3 dataflow) and t4 joins
both.  Asserts the drawn ordering constraints hold in execution on *both*
engines, then measures scheduling cost.
"""

from repro.core import dependency_graph
from repro.engine import LocalEngine
from repro.lang import format_script
from repro.services import WorkflowSystem
from repro.workloads import diamond

from .conftest import report


def test_fig1_structure_matches_figure(benchmark):
    script, registry, root, inputs = diamond()
    graph = dependency_graph(script.tasks[root])
    edges = {
        (u, v): d["flavour"]
        for u, v, d in graph.edges(data=True)
        if u != root and v != root
    }
    assert edges == {
        ("t1", "t2"): "notify",
        ("t1", "t3"): "data",
        ("t2", "t4"): "data",
        ("t3", "t4"): "data",
    }

    result = benchmark(
        lambda: LocalEngine(registry).run(script, root, inputs=inputs)
    )
    order = result.log.started_order()
    assert order.index("fig1/t1") < order.index("fig1/t2") < order.index("fig1/t4")
    assert order.index("fig1/t1") < order.index("fig1/t3") < order.index("fig1/t4")
    report(
        "F1: Fig. 1 diamond, local engine",
        ["task", "start rank"],
        [(p.split("/")[-1], i) for i, p in enumerate(order)],
    )


def test_fig1_ordering_holds_distributed(benchmark):
    script, registry, root, inputs = diamond()

    def run():
        system = WorkflowSystem(workers=2, registry=registry)
        system.deploy("fig1", format_script(script))
        iid = system.instantiate("fig1", root, inputs)
        result = system.run_until_terminal(iid, max_time=10_000)
        runtime = system.execution._full_runtime(iid)  # settled by now: a replay
        return result, runtime.tree.log.started_order(), system.clock.now

    result, order, elapsed = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result["status"] == "completed"
    assert order.index("fig1/t1") < order.index("fig1/t2") < order.index("fig1/t4")
    assert order.index("fig1/t1") < order.index("fig1/t3") < order.index("fig1/t4")
    report(
        "F1: Fig. 1 diamond, distributed engine",
        ["metric", "value"],
        [("virtual completion time", elapsed), ("status", result["status"])],
    )
