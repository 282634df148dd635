"""Differential property tests of the compiled plan's two routes, each held
to the specification: a tree on the script's shared plan (how the execution
service builds one) and a tree that compiles its own scopes (how the local
engine does) must log byte-identical events, and every compiled tracker of
both must meet ``TaskInputTracker`` after every step
(``tests/test_plan_specification.py``).

Two script families drive the comparison: random DAGs from the workload
generators (structural diversity: fan-in alternatives, notification edges,
varying depth) and the adversarial ``Wild`` chain from
``test_properties_engine`` (behavioural diversity: aborts, repeats, crash
retries — the paths where trackers are reset and replayed)."""

from hypothesis import given, settings, strategies as st

from repro.workloads import generators

from tests.test_plan_specification import SpecificationCheck, checked_run
from tests.test_properties_engine import adversarial_script, behaviours, make_registry

settings.register_profile("repro-plan-diff", deadline=None)
settings.load_profile("repro-plan-diff")


def canonical_log(log):
    return [
        (
            entry.seq,
            entry.time,
            entry.scope_path,
            entry.producer_path,
            entry.event.producer,
            entry.event.kind.value,
            entry.event.name,
            entry.event.seq,
            tuple(
                (name, ref.class_name, ref.value, ref.produced_by, ref.via)
                for name, ref in entry.event.objects.items()
            ),
        )
        for entry in log.entries
    ]


def run_both(workload):
    check = SpecificationCheck()
    shared_run, compiled_run = (
        checked_run(check, workload, shared_plan, max_repeats=10, max_steps=5_000)
        for shared_plan in (True, False)
    )
    check.verify()
    return shared_run, compiled_run


@given(st.integers(2, 16), st.integers(1, 3), st.integers(0, 1_000))
def test_random_dags_byte_identical(n, max_deps, seed):
    shared_run, compiled_run = run_both(generators.random_dag(n, max_deps=max_deps, seed=seed))
    assert canonical_log(shared_run.log) == canonical_log(compiled_run.log)
    assert shared_run.status == compiled_run.status
    assert shared_run.outcome == compiled_run.outcome


@given(st.integers(1, 5), st.lists(behaviours, min_size=1, max_size=5))
def test_adversarial_chains_byte_identical(n, plans):
    """Aborts, repeats and crashes exercise tracker reset/replay; both routes
    must fold the identical history to the identical state."""
    shared_run, compiled_run = run_both(
        (adversarial_script(n), make_registry(n, plans), "wf", {"inp": "s"})
    )
    assert canonical_log(shared_run.log) == canonical_log(compiled_run.log)
    assert shared_run.status == compiled_run.status
    assert shared_run.outcome == compiled_run.outcome
    assert shared_run.stats["steps"] == compiled_run.stats["steps"]
