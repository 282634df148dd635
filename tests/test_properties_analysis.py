"""Property-based cross-checks between the static analyser and the engines.

Two soundness obligations, exercised over generated workloads:

* *liveness*: anything the real engine actually does must be statically
  possible — a completed run's outcome is never "unreachable", a task that
  ran is never "dead";
* *interference*: any pair of tasks one drain pass would put in flight
  together (``enabled_pairs``, read off ``peek_ready()``) while sharing an
  object reference must be a ``W301`` pair (the static may-concurrent
  relation over-approximates the real enablement relation).

Plus robustness: the analyser never raises an internal error on anything
the front end compiles (generators reused from the front-end fuzzer).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import (
    analyze_script,
    check_interference,
    check_liveness,
    enabled_pairs,
)
from repro.core import ScriptBuilder, from_input, from_output
from repro.core.errors import ParseError, SchemaError, ValidationReport
from repro.core.selection import EventKind
from repro.engine import (
    ImplementationRegistry,
    LocalEngine,
    LocalWorkflow,
    compile_plan,
    outcome,
)
from repro.lang import compile_script
from repro.workloads import generators

from tests.test_fuzz_frontend import fragments
from tests.test_properties_engine import (
    adversarial_script,
    behaviours,
    make_registry,
)

settings.register_profile(
    "repro-analysis", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("repro-analysis")


@given(st.lists(fragments, max_size=60).map(" ".join))
def test_analyzer_never_raises_on_compilable_fuzz_output(text):
    try:
        script = compile_script(text)
    except (ParseError, ValidationReport, SchemaError):
        return  # front end rejected it; nothing to analyse
    analyze_script(script)


# the adversarial ``Wild`` chain (aborts, repeats, crash retries) under
# drawn behaviours, and the random DAGs of test_plan_differential.py
executed_workloads = st.one_of(
    st.builds(
        lambda n, plans: (adversarial_script(n), make_registry(n, plans), "wf", {"inp": "s"}),
        st.integers(1, 5),
        st.lists(behaviours, min_size=1, max_size=5),
    ),
    st.builds(
        lambda n, max_deps, seed: generators.random_dag(n, max_deps=max_deps, seed=seed),
        st.integers(2, 16),
        st.integers(1, 3),
        st.integers(0, 1_000),
    ),
)


@given(executed_workloads)
def test_executed_behaviour_is_statically_possible(workload):
    """The static may-analysis over-approximates the engine: whatever one
    concrete run did cannot have been declared impossible."""
    script, registry, root, inputs = workload
    liveness = check_liveness(compile_plan(script))
    assert liveness.dead_tasks == []
    result = LocalEngine(registry, max_repeats=10, max_steps=5_000).run(
        script, root, inputs=inputs
    )
    if result.completed:
        # the engine terminated in a declared outcome, so the stall analysis
        # cannot have called the workflow guaranteed-stalled, nor the
        # reached outcome unreachable
        assert "E200" not in {f.code for f in liveness.findings}
        assert result.outcome in liveness.reachable_outcomes
        assert result.outcome not in liveness.unreachable_outcomes
    started = {
        entry.producer_path
        for entry in result.log.entries
        if entry.event.kind is EventKind.INPUT
        and entry.producer_path.startswith(f"{root}/")
    }
    assert started
    for path in started:
        assert liveness.may_start(path)


@st.composite
def fanout_shapes(draw):
    """n tasks all holding the environment's object, plus a random set of
    notification edges i -> j (i < j) that order some of them."""
    n = draw(st.integers(2, 5))
    edges = [
        (i, j)
        for j in range(2, n + 1)
        for i in range(1, j)
        if draw(st.booleans())
    ]
    return n, edges


def build_fanout(n, edges):
    b = ScriptBuilder()
    b.object_class("Data")
    b.taskclass("T").input_set("main", inp="Data").outcome("ok", out="Data")
    b.taskclass("Root").input_set("main", inp="Data").outcome("done", out="Data")
    c = b.compound("wf", "Root")
    for j in range(1, n + 1):
        t = c.task(f"t{j}", "T").implementation(code="impl")
        t.input("main", "inp", from_input("wf", "main", "inp"))
        for i, k in edges:
            if k == j:
                t.notify("main", from_output(f"t{i}", "ok"))
        t.up()
    c.output("done").object("out", from_output(f"t{n}", "ok", "out")).up()
    c.up()
    return b.build()


def _unordered_pairs(n, edges):
    """Ground truth for the fan-out shape: {i, j} can be simultaneously
    enabled by one drain pass iff neither transitively precedes the other
    (run every predecessor of both, leave both unexecuted)."""
    ancestors = {j: set() for j in range(1, n + 1)}
    for i, j in sorted(edges):  # edges go low -> high, one pass suffices
        ancestors[j] |= ancestors[i] | {i}
    return {
        frozenset((f"wf/t{i}", f"wf/t{j}"))
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if i not in ancestors[j] and j not in ancestors[i]
    }


@given(fanout_shapes())
def test_interference_is_exact_on_fanout_shapes(shape):
    """Both directions of the W301 contract (all tasks here share the
    environment object, so every concurrent pair is racy):

    * *sound*: every simultaneously enabled pair one engine run exposes is
      reported;
    * *precise*: every reported pair is genuinely concurrently-enabled per
      ``peek_ready()`` semantics — some schedule co-enables it (equivalent,
      for these shapes, to neither task transitively preceding the other).
    """
    n, edges = shape
    script = build_fanout(n, edges)
    static_pairs = {frozenset(f.related) for f in check_interference(compile_plan(script))}
    assert static_pairs == _unordered_pairs(n, edges)
    registry = ImplementationRegistry()
    registry.register("impl", lambda ctx: outcome("ok", out=ctx.value("inp")))
    wf = LocalWorkflow(script, "wf", registry)
    wf.start({"inp": "x"})
    observed = enabled_pairs(wf.tree)
    while wf.step():
        observed |= enabled_pairs(wf.tree)
    assert observed <= static_pairs
