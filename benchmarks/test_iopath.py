"""I/O-core benchmark: WAL group commit + batched journal appends + zero-copy
marshal vs the per-entry, per-force, always-copy path (docs/PROTOCOLS.md §11).

Drives the full distributed system on the fan(64) workload with a *real*
on-disk WAL mirror attached to the execution store, so every fsync the
durability discipline issues has physical cost.  Measures, for both modes:

* steps/sec — journal entries applied per wall-clock second,
* fsyncs/step — physical mirror syncs per journal entry,
* marshal ns/call — micro-benchmark of the ORB copy boundary.

Asserts the durable journals are byte-identical across modes before making
any perf claim, then writes the table to ``BENCH_iopath.json`` (override the
path with the ``BENCH_IOPATH`` environment variable).

Headline claim: >= 4x fewer fsyncs/step on fan(64), same durable history.
The steps/sec of both modes are reported, not gated: a wall-clock ratio of
two modes moves whenever a change speeds both up unequally, and end-to-end
speed is gated by ``benchmarks/bench`` (ROADMAP item 1).
"""

import json
import os
import time

from repro.core.instrument import IOPATH_STATS
from repro.orb.marshal import marshal, set_fast_path
from repro.services import WorkflowSystem
from repro.workloads import fan, script_text

from .conftest import report

WIDTH = 64
REPEATS = 3


def run_fan(tmp_path, tag, *, fast):
    """One full fan(64) run; returns (wall seconds, io snapshot, journal)."""
    script, registry, root, inputs = fan(WIDTH)
    mirror = str(tmp_path / f"wal-{tag}.jsonl")
    set_fast_path(fast)
    try:
        system = WorkflowSystem(
            workers=3,
            seed=0,
            registry=registry,
            journal_batch=fast,
            group_commit=fast,
            mirror_path=mirror,
        )
        system.deploy("fan", script_text((script, registry, root, inputs)))
        IOPATH_STATS.reset()
        begin = time.perf_counter()
        iid = system.instantiate("fan", root, inputs)
        result = system.run_until_terminal(iid, max_time=50_000)
        elapsed = time.perf_counter() - begin
    finally:
        set_fast_path(True)
    assert result["status"] == "completed", result
    snapshot = IOPATH_STATS.snapshot()
    store = system.execution_store
    meta = store.get_committed(f"instance:{iid}:meta")
    journal = store.get_committed_many(
        f"instance:{iid}:journal:{n}" for n in range(meta["journal_len"])
    )
    store.wal.close()
    return elapsed, snapshot, json.dumps(journal, sort_keys=True)


def measure_mode(tmp_path, tag, *, fast):
    """Best-of-N wall clock; counters are identical across repeats."""
    best = None
    for attempt in range(REPEATS):
        sample = run_fan(tmp_path, f"{tag}-{attempt}", fast=fast)
        if best is None or sample[0] < best[0]:
            best = sample
    return best


def measure_marshal(rounds=2000):
    """ns/call for a representative immutable reply payload — the shape task
    results take on the wire — structural copy vs zero-copy by-reference."""
    payload = (
        "w17",
        ("done", ("out", "seed+"), None, 3),
        ("attempt", 1, "deadline", None),
    )
    timings = {}
    for label, fast in (("copy", False), ("zero_copy", True)):
        set_fast_path(fast)
        try:
            marshal(payload)  # prime the dispatch cache
            begin = time.perf_counter()
            for _ in range(rounds):
                marshal(payload)
            timings[label] = (time.perf_counter() - begin) / rounds * 1e9
        finally:
            set_fast_path(True)
    return timings


def test_iopath_speedup_and_report(tmp_path):
    before_s, before_io, before_journal = measure_mode(tmp_path, "before", fast=False)
    after_s, after_io, after_journal = measure_mode(tmp_path, "after", fast=True)

    # same durable history before any perf claim
    assert before_journal == after_journal
    steps = before_io["journal_entries"]
    assert steps == after_io["journal_entries"]

    before_fsyncs_per_step = before_io["wal_syncs"] / steps
    after_fsyncs_per_step = after_io["wal_syncs"] / steps
    fsync_reduction = before_fsyncs_per_step / after_fsyncs_per_step
    speedup = before_s / after_s
    marshal_ns = measure_marshal()

    rows = [
        (
            "per-entry+per-force",
            steps,
            f"{steps / before_s:.0f}",
            before_io["wal_syncs"],
            f"{before_fsyncs_per_step:.3f}",
            before_io["journal_batches"],
            f"{marshal_ns['copy']:.0f}",
        ),
        (
            "batched+group-commit",
            steps,
            f"{steps / after_s:.0f}",
            after_io["wal_syncs"],
            f"{after_fsyncs_per_step:.3f}",
            after_io["journal_batches"],
            f"{marshal_ns['zero_copy']:.0f}",
        ),
    ]
    report(
        f"iopath: fan({WIDTH}) with on-disk WAL mirror",
        ["mode", "steps", "steps/s", "fsyncs", "fsyncs/step", "txns", "marshal ns"],
        rows,
    )
    print(f"   speedup {speedup:.1f}x, fsync reduction {fsync_reduction:.1f}x")

    payload = {
        "workload": f"fan({WIDTH})",
        "steps": steps,
        "before": {
            "steps_per_sec": round(steps / before_s, 1),
            "fsyncs": before_io["wal_syncs"],
            "fsyncs_per_step": round(before_fsyncs_per_step, 4),
            "journal_txns": before_io["journal_batches"],
            "marshal_ns_per_call": round(marshal_ns["copy"], 1),
        },
        "after": {
            "steps_per_sec": round(steps / after_s, 1),
            "fsyncs": after_io["wal_syncs"],
            "fsyncs_per_step": round(after_fsyncs_per_step, 4),
            "journal_txns": after_io["journal_batches"],
            "marshal_ns_per_call": round(marshal_ns["zero_copy"], 1),
        },
        "speedup": round(speedup, 2),
        "fsync_reduction": round(fsync_reduction, 2),
        "journals_byte_identical": True,
    }
    out = os.environ.get("BENCH_IOPATH", "BENCH_iopath.json")
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"   wrote {out}")

    # acceptance: the raw-speed I/O core claim
    assert fsync_reduction >= 4.0
