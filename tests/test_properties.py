"""Property-based tests (hypothesis) on the core invariants."""

import string

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import EcaWorkflow, PetriWorkflow
from repro.core import ScriptBuilder, from_input, from_output
from repro.core.schema import (
    GuardKind,
    InputObjectBinding,
    InputSetBinding,
    Source,
)
from repro.core.selection import (
    EventKind,
    InputObjectTracker,
    InputSetTracker,
    WorkflowEvent,
)
from repro.core.values import ObjectRef
from repro.engine import LocalEngine
from repro.lang import compile_script, format_script, parse
from repro.txn import ObjectStore, TransactionManager
from repro.txn.ids import ObjectId, TransactionId
from repro.txn.locks import LockManager, LockMode
from repro.txn import wal as wal_mod
from repro.txn.wal import WriteAheadLog, replay
from repro.workloads import random_dag

settings.register_profile(
    "repro", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("repro")

names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)


# ---------------------------------------------------------------------------
# 1. Language: generated scripts round-trip through the formatter
# ---------------------------------------------------------------------------


@st.composite
def dag_scripts(draw):
    """Random pipeline/dag scripts built with the public builder API."""
    n = draw(st.integers(min_value=1, max_value=8))
    b = ScriptBuilder()
    b.object_class("Data")
    b.taskclass("Stage").input_set("main", inp="Data").outcome("done", out="Data")
    b.taskclass("Root").input_set("main", inp="Data").outcome("done", out="Data")
    root = b.compound("wf", "Root")
    for index in range(n):
        task = root.task(f"t{index + 1}", "Stage").implementation(code="stage")
        if index == 0:
            task.input("main", "inp", from_input("wf", "main", "inp"))
        else:
            deps = draw(
                st.lists(
                    st.integers(min_value=1, max_value=index),
                    min_size=1,
                    max_size=min(3, index),
                    unique=True,
                )
            )
            task.input("main", "inp", from_output(f"t{deps[0]}", "done", "out"))
            for dep in deps[1:]:
                task.notify("main", from_output(f"t{dep}", "done"))
        task.up()
    root.output("done").object("out", from_output(f"t{n}", "done", "out")).up()
    root.up()
    return b.build()


@given(dag_scripts())
def test_format_parse_roundtrip(script):
    text = format_script(script)
    again = parse(text)
    assert again.tasks == script.tasks
    assert again.taskclasses == script.taskclasses
    assert again.classes == script.classes


@given(dag_scripts())
def test_formatting_is_a_fixpoint(script):
    once = format_script(script)
    assert format_script(parse(once)) == once


@given(dag_scripts())
def test_generated_scripts_always_validate(script):
    compile_script(format_script(script))


# ---------------------------------------------------------------------------
# 2. Selection: tracker invariants under arbitrary event sequences
# ---------------------------------------------------------------------------


producers = st.sampled_from(["a", "b", "c"])
kinds = st.sampled_from(list(EventKind))
outputs = st.sampled_from(["done", "other", "main"])


@st.composite
def events(draw):
    producer = draw(producers)
    kind = draw(kinds)
    name = draw(outputs)
    carry = draw(st.booleans())
    objects = {"x": ObjectRef("Data", draw(st.integers(0, 99)))} if carry else {}
    return WorkflowEvent(producer, kind, name, objects)


BINDING = InputObjectBinding(
    "inp",
    (
        Source("a", "x", GuardKind.OUTPUT, "done"),
        Source("b", "x", GuardKind.OUTPUT, "done"),
        Source("c", "x", GuardKind.ANY, None),
    ),
)


@given(st.lists(events(), max_size=40))
def test_best_index_never_worsens(sequence):
    tracker = InputObjectTracker(BINDING)
    previous = None
    for event in sequence:
        tracker.offer(event)
        if tracker.best_index is not None:
            if previous is not None:
                assert tracker.best_index <= previous
            previous = tracker.best_index


@given(st.lists(events(), max_size=40))
def test_satisfaction_is_monotone(sequence):
    tracker = InputSetTracker(InputSetBinding("main", (BINDING,)))
    was_satisfied = False
    for event in sequence:
        tracker.offer(event)
        if was_satisfied:
            assert tracker.satisfied
        was_satisfied = tracker.satisfied


@given(st.lists(events(), max_size=40))
def test_replay_equals_online(sequence):
    online = InputObjectTracker(BINDING)
    for event in sequence:
        online.offer(event)
    replayed = InputObjectTracker(BINDING)
    for event in sequence:
        replayed.offer(event)
    assert online.best_index == replayed.best_index
    assert online.value == replayed.value


# ---------------------------------------------------------------------------
# 3. WAL: replay computes exactly the committed effects
# ---------------------------------------------------------------------------


@st.composite
def wal_histories(draw):
    """Random interleavings of BEGIN/UPDATE/COMMIT/ABORT over 3 txns/2 keys,
    with a crash (lose-unforced) at a random point."""
    ops = []
    txn_count = draw(st.integers(1, 3))
    for t in range(txn_count):
        updates = draw(st.integers(0, 3))
        terminal = draw(st.sampled_from(["commit", "abort", "none"]))
        ops.append((t, updates, terminal))
    force_each = draw(st.booleans())
    return ops, force_each


@given(wal_histories())
def test_wal_replay_matches_model(history):
    ops, force_each = history
    log = WriteAheadLog()
    model = {}
    for index, (t, updates, terminal) in enumerate(ops):
        tid = TransactionId(index + 1)
        log.append(wal_mod.BEGIN, tid)
        writes = {}
        for u in range(updates):
            key = f"k{u % 2}"
            value = f"v{index}.{u}"
            log.append(wal_mod.UPDATE, tid, ObjectId(key), value)
            writes[key] = value
        if terminal == "commit":
            log.append(wal_mod.COMMIT, tid)
            model.update(writes)
        elif terminal == "abort":
            log.append(wal_mod.ABORT, tid)
        if force_each:
            log.force()
    if not force_each:
        log.force()
    assert replay(log.durable_records()) == model


@given(st.integers(0, 10))
def test_store_crash_recover_idempotent(commits):
    store = ObjectStore("s")
    tm = TransactionManager("tm")
    for i in range(commits):
        with tm.begin() as txn:
            txn.write(store, "x", i)
    expected = store.snapshot()
    store.crash()
    first = store.snapshot()
    store.recover()
    assert store.snapshot() == first == expected


# ---------------------------------------------------------------------------
# 4. Locks: compatibility invariant under random operations
# ---------------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.integers(1, 4),                       # txn
            st.integers(0, 2),                       # object
            st.sampled_from(list(LockMode)),         # mode
            st.booleans(),                           # release instead
        ),
        max_size=60,
    )
)
def test_lock_table_never_incompatible(operations):
    locks = LockManager()
    for txn_n, obj_n, mode, release in operations:
        txn = TransactionId(txn_n)
        if release:
            locks.release_all(txn)
        else:
            locks.try_acquire(txn, ObjectId(f"o{obj_n}"), mode)
        for entry in locks._table.values():
            holders = entry.holders
            exclusives = [t for t, m in holders.items() if m is LockMode.EXCLUSIVE]
            if exclusives:
                assert len(holders) == 1


# ---------------------------------------------------------------------------
# 5. Engines: determinism and cross-engine agreement
# ---------------------------------------------------------------------------


@given(st.integers(1, 30), st.integers(0, 1000))
def test_local_engine_is_deterministic(n, seed):
    script, registry, root, inputs = random_dag(n, seed=seed)
    r1 = LocalEngine(registry).run(script, root, inputs=inputs)
    r2 = LocalEngine(registry).run(script, root, inputs=inputs)
    assert r1.outcome == r2.outcome
    assert [
        (e.producer_path, e.event.kind, e.event.name) for e in r1.log.entries
    ] == [(e.producer_path, e.event.kind, e.event.name) for e in r2.log.entries]


@given(st.integers(1, 15), st.integers(0, 500))
def test_engine_agrees_with_baselines_on_random_dags(n, seed):
    script, registry, root, inputs = random_dag(n, seed=seed)
    reference = LocalEngine(registry).run(script, root, inputs=inputs)
    eca = EcaWorkflow(script, root, registry).run(inputs)
    net = PetriWorkflow(script, root, registry).run(inputs)
    assert eca["outcome"] == reference.outcome
    assert net["outcome"] == reference.outcome
