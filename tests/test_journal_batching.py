"""Journal batching and WAL group commit (docs/PROTOCOLS.md §11).

The I/O core coalesces journal appends into one transaction per durability
barrier and WAL mirror fsyncs into one sync per barrier.  These tests pin
the two properties that make that safe:

* **Equivalence** — the durable journal a run leaves behind is
  byte-identical to the per-entry reference's (:func:`_flush_every_entry`:
  the same service, made to commit each entry as it is produced), and
  replay lands on the same (status, outcome).  Batching changes *when*
  entries become durable, never *what* becomes durable.
* **Crash atomicity** — a crash (clean or torn) anywhere around a batch
  flush leaves a contiguous journal prefix; recovery replays it and the
  instance still completes.  The batch commits atomically or not at all.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instrument import IOPATH_STATS
from repro.services import WorkflowSystem
from repro.sim.harness import SimHarness
from repro.sim.nemesis import CrashAtPoint, NemesisSchedule
from repro.workloads import fan, paper_order, script_text


def _flush_every_entry(system):
    """Turn ``system`` into the per-entry reference: every journal entry is
    committed (one transaction, one force, one sync) the moment it is
    produced, instead of at the next durability barrier."""
    service = system.execution
    buffer_entry = service._journal

    def journal(runtime, entry):
        buffer_entry(runtime, entry)
        service.flush_journal()

    service._journal = journal


def _run_fan(width, *, per_entry=False, seed=0):
    """Run fan(width) to completion; return (system, iid, result)."""
    script, registry, root, inputs = fan(width)
    system = WorkflowSystem(workers=3, seed=seed, registry=registry)
    if per_entry:
        _flush_every_entry(system)
    system.deploy("fan", script_text((script, registry, root, inputs)))
    iid = system.instantiate("fan", root, inputs)
    result = system.run_until_terminal(iid, max_time=50_000)
    return system, iid, result


def _durable_journal(system, iid):
    """The instance's durable journal as canonical bytes."""
    store = system.execution_store
    meta = store.get_committed(f"instance:{iid}:meta")
    entries = store.get_committed_many(
        f"instance:{iid}:journal:{n}" for n in range(meta["journal_len"])
    )
    assert None not in entries, "durable journal has holes"
    return json.dumps(entries, sort_keys=True).encode()


def _replay_fingerprint(system, iid):
    shadow = system.execution._replay(iid)
    return (shadow.tree.status.value, shadow.tree.root.machine.outcome)


class TestDifferentialEquivalence:
    """Batched vs per-entry journalling must be observationally identical."""

    @pytest.mark.parametrize("width", [1, 4, 16])
    def test_fan_journals_byte_identical(self, width):
        batched_sys, batched_iid, batched = _run_fan(width)
        plain_sys, plain_iid, plain = _run_fan(width, per_entry=True)
        assert batched["status"] == plain["status"] == "completed"
        assert batched["outcome"] == plain["outcome"]
        assert _durable_journal(batched_sys, batched_iid) == _durable_journal(
            plain_sys, plain_iid
        )
        assert _replay_fingerprint(batched_sys, batched_iid) == _replay_fingerprint(
            plain_sys, plain_iid
        )

    def test_paper_order_journals_byte_identical(self):
        results = {}
        for mode in ("batched", "plain"):
            system = WorkflowSystem(workers=2, seed=3)
            if mode == "plain":
                _flush_every_entry(system)
            paper_order.default_registry(registry=system.registry)
            system.deploy("order", paper_order.SCRIPT_TEXT)
            iid = system.instantiate(
                "order", paper_order.ROOT_TASK, {"order": "o-1"}
            )
            result = system.run_until_terminal(iid, max_time=50_000)
            assert result["status"] == "completed"
            results[mode] = (
                _durable_journal(system, iid),
                _replay_fingerprint(system, iid),
                result["outcome"],
            )
        assert results["batched"] == results["plain"]

    @settings(max_examples=6, deadline=None)
    @given(width=st.integers(min_value=1, max_value=8), seed=st.integers(0, 1000))
    def test_hypothesis_differential(self, width, seed):
        """Random widths and network seeds: the batched journal is always
        byte-identical to the per-entry journal of the same universe."""
        batched_sys, batched_iid, batched = _run_fan(width, seed=seed)
        plain_sys, plain_iid, plain = _run_fan(width, per_entry=True, seed=seed)
        assert batched["status"] == plain["status"] == "completed"
        assert _durable_journal(batched_sys, batched_iid) == _durable_journal(
            plain_sys, plain_iid
        )


class TestBatchingActuallyBatches:
    def test_fewer_txns_and_syncs_than_entries(self):
        IOPATH_STATS.reset()
        _, _, result = _run_fan(64)
        assert result["status"] == "completed"
        # the per-entry reference commits one forced txn per entry (one sync
        # each); the whole fan settles in a handful of flush transactions
        assert IOPATH_STATS.journal_entries > 64
        assert IOPATH_STATS.journal_batches * 4 <= IOPATH_STATS.journal_entries
        assert IOPATH_STATS.wal_syncs * 4 <= IOPATH_STATS.journal_entries

    def test_per_entry_mode_one_txn_per_entry(self):
        IOPATH_STATS.reset()
        _, _, result = _run_fan(4, per_entry=True)
        assert result["status"] == "completed"
        assert IOPATH_STATS.journal_batches == IOPATH_STATS.journal_entries


class TestTornGroupCommit:
    """Crashes aimed at the batch flush itself: the force that carries a
    whole buffered batch is torn mid-write, or the node dies with entries
    still buffered.  Contiguity, exactly-once, replay and durability oracles
    all run inside SimHarness."""

    @pytest.mark.parametrize("at_hit", [1, 2, 3])
    def test_torn_force_during_batch_flush(self, at_hit):
        schedule = NemesisSchedule(
            [CrashAtPoint("wal.force.pre", mode="torn", at_hit=at_hit)],
            name=f"torn-batch-{at_hit}",
        )
        report = SimHarness(schedule=schedule).run()
        assert report.ok, report.violations
        assert report.crashes[0]["mode"] == "torn"
        assert all(
            info["status"] == "completed" for info in report.instances.values()
        )

    @pytest.mark.parametrize("at_hit", [1, 4])
    def test_crash_with_entries_still_buffered(self, at_hit):
        """exec.journal.pre fires at buffer time — before the entry reaches
        any transaction.  Crashing there drops the buffered tail; recovery
        replays the shorter durable journal and the instance recovers."""
        schedule = NemesisSchedule(
            [CrashAtPoint("exec.journal.pre", at_hit=at_hit, downtime=30.0)],
            name=f"buffered-crash-{at_hit}",
        )
        report = SimHarness(schedule=schedule).run()
        assert report.ok, report.violations
        assert all(
            info["status"] == "completed" for info in report.instances.values()
        )

    def test_crash_right_after_batch_flush(self):
        schedule = NemesisSchedule(
            [CrashAtPoint("exec.journal.post", at_hit=2, downtime=30.0)],
            name="post-flush-crash",
        )
        report = SimHarness(schedule=schedule).run()
        assert report.ok, report.violations
