"""Property-based cross-checks for the recovery analyzer (E4xx / W4xx) and
the runtime sanitizer.

Two obligations over generated workloads:

* *robustness*: the analyser never raises on randomly shaped scripts of
  atomic tasks sharing an object pool (arbitrary per-task input orders);
* *duplicate soundness*: under seeded transient failures the engine's
  automatic retries (§3) re-run implementations; every non-atomic task that
  executed more than once is a static W401 location (dynamic ⊆ static).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import Sanitizer, analyze_script
from repro.core import ScriptBuilder, from_input, from_output
from repro.engine import ImplementationRegistry, LocalEngine, outcome

settings.register_profile(
    "repro-recovery", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("repro-recovery")

POOL = ("w", "x", "y", "z")


def ordered_subset(objs, min_size=1):
    """An ordered subset of ``objs`` — the task's input order."""
    return st.permutations(list(objs)).flatmap(
        lambda perm: st.integers(min_size, len(perm)).map(
            lambda size: tuple(perm[:size])
        )
    )


def build_lock_script(orders):
    """One atomic constituent per input order, all binding environment
    objects in exactly that order, with no notification edges — every pair
    is may-concurrent."""
    b = ScriptBuilder()
    b.object_classes("Data")
    for idx, order in enumerate(orders, 1):
        (b.taskclass(f"T{idx}")
            .input_set("main", **{o: "Data" for o in order})
            .outcome("ok", out="Data")
            .abort_outcome("fail"))
    all_objs = sorted({o for order in orders for o in order})
    (b.taskclass("Root")
        .input_set("main", **{o: "Data" for o in all_objs})
        .outcome("done", out="Data"))
    wf = b.compound("wf", "Root")
    for idx, order in enumerate(orders, 1):
        t = wf.task(f"t{idx}", f"T{idx}").implementation(code=f"impl{idx}")
        for o in order:
            t.input("main", o, from_input("wf", "main", o))
        t.up()
    wf.output("done").object("out", from_output("t1", "ok", "out")).up()
    wf.up()
    return b.build()


@st.composite
def lock_fleets(draw):
    pool = POOL[: draw(st.integers(2, 4))]
    return [draw(ordered_subset(pool)) for _ in range(draw(st.integers(2, 5)))]


@given(lock_fleets())
@settings(max_examples=100)
def test_analyzer_never_raises_on_random_lock_scripts(orders):
    report = analyze_script(build_lock_script(orders))
    for finding in [f for f in report.findings if f.code == "W301"]:
        assert len(set(finding.related)) == 2  # a race names two tasks


# -- duplicate effects under automatic retries ---------------------------------


@st.composite
def retry_shapes(draw):
    n = draw(st.integers(2, 5))
    atomic = [draw(st.booleans()) for _ in range(n)]
    failing = [draw(st.booleans()) for _ in range(n)]
    return n, atomic, failing


def build_retry_script(n, atomic):
    b = ScriptBuilder()
    b.object_classes("Data")
    b.taskclass("Bare").input_set("main", inp="Data").outcome("ok", out="Data")
    (b.taskclass("Atomic").input_set("main", inp="Data")
        .outcome("ok", out="Data").abort_outcome("fail"))
    b.taskclass("Root").input_set("main", inp="Data").outcome("done", out="Data")
    wf = b.compound("wf", "Root")
    for i in range(1, n + 1):
        cls = "Atomic" if atomic[i - 1] else "Bare"
        t = (wf.task(f"t{i}", cls).implementation(code=f"impl{i}")
            .input("main", "inp", from_input("wf", "main", "inp")))
        if i > 1:  # chain: completion requires every task (and so every retry)
            t.notify("main", from_output(f"t{i - 1}", "ok"))
        t.up()
    wf.output("done").object("out", from_output(f"t{n}", "ok", "out")).up()
    wf.up()
    return b.build()


@given(retry_shapes())
@settings(max_examples=100)
def test_retry_duplicates_are_statically_predicted(shape):
    """Seeded chaos: a random subset of tasks fails its first attempt, the
    engine's system retry re-runs the implementation, and the bare (i.e.
    non-atomic) tasks that ran twice must all be W401 locations."""
    n, atomic, failing = shape
    script = build_retry_script(n, atomic)
    report = analyze_script(script)
    w401 = {f.location for f in report.findings if f.code == "W401"}
    counts = {}

    def impl_for(fails_first):
        def impl(ctx):
            counts[ctx.task_path] = counts.get(ctx.task_path, 0) + 1
            if fails_first and counts[ctx.task_path] == 1:
                raise RuntimeError("transient fault")
            return outcome("ok", out=ctx.value("inp"))

        return impl

    registry = ImplementationRegistry()
    for i in range(1, n + 1):
        registry.register(f"impl{i}", impl_for(failing[i - 1]))
    result = LocalEngine(registry, default_retries=2).run(
        script, "wf", inputs={"inp": "seed"}
    )
    assert result.completed, result.error
    duplicated = {path for path, count in counts.items() if count >= 2}
    bare_duplicated = {
        path for path in duplicated if not atomic[int(path.rsplit("t", 1)[1]) - 1]
    }
    assert bare_duplicated <= w401
    if any(f and not a for f, a in zip(failing, atomic)):
        assert bare_duplicated, "a failing bare task must have re-run"
