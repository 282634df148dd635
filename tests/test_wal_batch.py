"""The BATCH record: one self-committing WAL record per durability barrier
(docs/PROTOCOLS.md §4.2, §11, §12).

The execution journal, the lease and a standby's tail each have one writer,
so they commit as a single ``BATCH`` record through
``ObjectStore.commit_batch`` instead of a strict-2PL transaction's
``BEGIN`` / ``UPDATE``… / ``COMMIT``.  These tests pin what that rests on:

* **The record.**  Folding a log in arbitrary pieces equals replaying it
  whole, over logs that mix locking transactions, BATCH records,
  checkpoints, aborted and in-doubt transactions and a torn tail; a torn
  force drops a lone BATCH whole.
* **Same committed state.**  The writer this replaced — kept here verbatim
  as the reference — and the BATCH writer replay to the same journals entry
  for entry, every other object key for key, and one journal segment per
  barrier and instance it touched; a log written entirely in the old format
  still recovers and still ingests on a standby.
* **The single-writer assumption is checked.**  A BATCH on a key an open
  transaction holds is refused before the log is touched.
* **A standby acknowledges with one force.**  Its tail is the last record
  of the force that carries the shipped records, so a torn force loses the
  tail but never a record the tail names.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instrument import IOPATH_STATS
from repro.services import WorkflowSystem
from repro.services.journal import Journal
from repro.sim import crashpoints
from repro.sim.crashpoints import ArmedCrash, CrashPointInjector, crash_point
from repro.services.system import SystemSpec
from repro.sim.harness import SimHarness
from repro.sim.oracles import check_journal_integrity, check_store_agreement
from repro.txn import wal as w
from repro.txn.ids import ObjectId, TransactionId
from repro.txn.locks import LockConflict
from repro.txn.manager import TransactionManager
from repro.txn.store import ObjectStore
from repro.txn.wal import WriteAheadLog, fold, replay
from repro.workloads import fan, paper_order, script_text

from tests.test_closed_mark import count_fresh_trees


# -- the reference: the per-record writer BATCH replaced ---------------------------


def use_reference_writer(service, marks=False):
    """Make ``service`` journal the way it did before the BATCH record —
    and, unless ``marks``, before the ``closed`` mark: a log written by any
    earlier version of the service.

    ``flush_journal`` below is ``ExecutionService.flush_journal`` of commit
    b97b348, verbatim but for where the buffer lives (``self`` spelled
    ``service``, ``_jbuf`` of ``(runtime, entry)`` now
    ``service.journal.buffer`` of ``(iid, entry)``): one strict-2PL
    transaction per barrier — a shared lock and a read for each ``meta``, an
    exclusive lock per written key, ``BEGIN``, one ``UPDATE`` per entry and
    per ``meta``, ``COMMIT``, lock release.  The service's other durable
    writes (instantiate, import, epoch, standby tail) went through the same
    ``manager.run``; they reach it here through ``store.commit_batch``."""
    manager = TransactionManager(f"{service.name}-tm")
    store = service.store

    def flush_journal(closed=()) -> int:
        journal = service.journal
        if not journal.buffer:
            service._post_barrier()  # replication still ships any unshipped suffix
            return 0
        batch, journal.buffer = journal.buffer, []

        def body(txn) -> None:
            lens = {}
            for iid, entry in batch:
                n = lens.get(iid)
                if n is None:
                    n = txn.read(service.store, f"instance:{iid}:meta")["journal_len"]
                txn.write(service.store, f"instance:{iid}:journal:{n}", entry)
                lens[iid] = n + 1
            for iid, n in lens.items():
                meta = {"journal_len": n}
                if marks and iid in closed:
                    meta["closed"] = True
                txn.write(service.store, f"instance:{iid}:meta", meta)

        manager.run(body)
        IOPATH_STATS.journal_batches += 1
        crash_point("exec.journal.post", store)
        service.store.sync()
        service._post_barrier()
        return len(batch)

    def commit_batch(writes) -> None:
        def body(txn) -> None:
            for key, value in writes.items():
                txn.write(store, key, value)

        manager.run(body)

    service.flush_journal = flush_journal
    store.commit_batch = commit_batch


def run_fans(width, instances, seed, *, reference=False, marks=False):
    """``instances`` concurrent fan(width) instances to completion, so that
    journal batches mix entries of several instances."""
    workload = fan(width)
    _script, registry, root, inputs = workload
    system = WorkflowSystem(workers=3, seed=seed, registry=registry)
    if reference:
        use_reference_writer(system.execution, marks)
        # the service's start already logged its epoch: wipe and start over,
        # so that the whole log is the reference writer's
        system.execution_store.wal.reset()
        system.execution_store.recover()
        system.execution.on_start()
    system.deploy("fan", script_text(workload))
    iids = [system.instantiate("fan", root, inputs) for _ in range(instances)]
    for iid in iids:
        assert system.run_until_terminal(iid, max_time=50_000)["status"] == "completed"
    return system, iids


def segment_starts(store):
    """Per committed transaction of a reference log and per instance it
    wrote entries of, the key of the first of them: where the journal
    stores that barrier's segment."""
    written, starts = {}, set()
    for record in store.wal.durable_records():
        if record.kind == w.UPDATE and ":journal:" in record.obj.name:
            prefix, _sep, n = record.obj.name.rpartition(":")
            first = written.setdefault(record.txn, {})
            first[prefix] = min(first.get(prefix, int(n)), int(n))
        elif record.kind == w.COMMIT:
            starts.update(f"{prefix}:{n}" for prefix, n in written.pop(record.txn, {}).items())
    return starts


def kinds(store):
    return {record.kind for record in store.wal.durable_records()}


class TestSameStateAsThePerRecordWriter:
    @settings(max_examples=8, deadline=None)
    @given(
        width=st.integers(1, 6), instances=st.integers(1, 4), seed=st.integers(0, 1000)
    )
    def test_both_writers_replay_to_the_same_state_key_for_key(self, width, instances, seed):
        batched, iids = run_fans(width, instances, seed)
        reference, reference_iids = run_fans(
            width, instances, seed, reference=True, marks=True
        )
        assert iids == reference_iids
        new, old = batched.execution_store, reference.execution_store
        assert kinds(new) == {w.BATCH}
        assert kinds(old) == {w.BEGIN, w.UPDATE, w.COMMIT}
        new_state, old_state = replay(new.wal.durable_records()), replay(old.wal.durable_records())
        # the journal's entries are read back through the journal (the
        # reference stored one dict per key, the journal one positional
        # segment per barrier and instance); every other object is compared
        # as it is stored, key for key, in the same commit order
        for iid in iids:
            assert Journal(new).entries(iid) == Journal(old).entries(iid), iid
        others = [key for key in old_state if ":journal:" not in key]
        assert [key for key in new_state if ":journal:" not in key] == others
        for key in others:
            assert new_state[key] == old_state[key], key
        # one segment per (barrier, touched instance), keyed by the first
        # position that barrier wrote for it
        assert {key for key in new_state if ":journal:" in key} == segment_starts(old)
        assert new.snapshot() == new_state and old.snapshot() == old_state
        # one record per barrier where the reference wrote an envelope
        barriers = sum(1 for r in old.wal.durable_records() if r.kind == w.COMMIT)
        assert new.wal.durable_length == barriers

    def test_a_log_in_the_old_format_still_recovers(self):
        system, iids = run_fans(4, 3, seed=7, reference=True)
        service, store, node = system.execution, system.execution_store, system.execution_node
        assert w.BATCH not in kinds(store)
        before = {iid: service.runtimes[iid].tree.root.machine.outcome for iid in iids}
        results = {iid: service.result(iid) for iid in iids}
        del service.flush_journal, store.commit_batch  # recovery runs this PR's code
        replayed = count_fresh_trees(service)
        node.crash()
        node.recover()
        # no mark anywhere in such a log: every instance is replayed, as ever
        assert not any(Journal(store).closed(iid) for iid in iids)
        assert replayed == iids
        assert {iid: service.result(iid) for iid in iids} == results
        assert Journal(store).instances() == iids
        assert {iid: service.runtimes[iid].tree.root.machine.outcome for iid in iids} == before
        assert check_journal_integrity(store) == []
        # and the log goes on in the new format, one store holding both
        _script, _registry, root, inputs = fan(4)
        late = system.instantiate("fan", root, inputs)
        assert system.run_until_terminal(late, max_time=50_000)["status"] == "completed"
        assert kinds(store) == {w.BEGIN, w.UPDATE, w.COMMIT, w.BATCH}
        assert check_store_agreement(store) == []

    def test_a_log_in_the_old_format_still_ingests_on_a_standby(self):
        system = WorkflowSystem(replicas=2, lease_duration=30.0, repl_interval=5.0)
        paper_order.default_registry(registry=system.registry)
        primary, standby = system.execution_replicas
        use_reference_writer(primary)
        system.deploy("order", paper_order.SCRIPT_TEXT)
        iid = system.instantiate("order", paper_order.ROOT_TASK, {"order": "o-1"})
        assert system.run_until_terminal(iid)["status"] == "completed"
        system.clock.advance(10.0)
        shipped = [r for r in standby.store.wal.durable_records() if r.kind != w.BATCH]
        assert {r.kind for r in shipped} == {w.BEGIN, w.UPDATE, w.COMMIT}
        assert standby.repl_status()["tail"]["lsn"] == primary.store.wal.last_durable_lsn
        for key in primary.store.keys():
            if not key.startswith("_repl:tail:"):
                assert standby.store.get_committed(key) == primary.store.get_committed(key), key
        assert check_store_agreement(standby.store) == []
        # a log written before the mark has none: the standby holds nothing of
        # it but the store, and its promotion replays the instance like any
        # open one — to the same answer
        assert standby.runtimes == {}
        assert not Journal(standby.store).closed(iid)
        before = primary.result(iid)
        replayed = count_fresh_trees(standby)
        system.execution_node.crash()
        while system.primary_execution() is None:
            system.clock.advance(1.0)
        assert system.primary_execution() is standby
        assert replayed == [iid]
        assert standby.runtimes[iid].tree.status.value == "completed"
        assert standby.result(iid) == before


# -- the record itself --------------------------------------------------------------

KEYS = ("a", "b", "c")


@st.composite
def mixed_logs(draw):
    """A durable record stream mixing locking transactions (committed,
    aborted, prepared and left in doubt, or cut off), BATCH records and
    CHECKPOINTs, interleaved, ending in a torn force."""
    streams = []
    for number in range(draw(st.integers(1, 5))):
        tid = TransactionId(number + 1, "tm")
        if draw(st.booleans()):
            writes = draw(st.dictionaries(st.sampled_from(KEYS), st.integers(0, 9), min_size=1))
            streams.append([(w.BATCH, tid, None, writes)])
            continue
        records = [(w.BEGIN, tid, None, None)]
        for _ in range(draw(st.integers(0, 3))):
            records.append(
                (w.UPDATE, tid, ObjectId(draw(st.sampled_from(KEYS))), draw(st.integers(0, 9)))
            )
        fate = draw(st.sampled_from(["commit", "abort", "in-doubt", "2pc-commit", "cut"]))
        if fate in ("in-doubt", "2pc-commit"):
            records.append((w.PREPARE, tid, None, None))
        if fate in ("commit", "2pc-commit"):
            records.append((w.COMMIT, tid, None, None))
        elif fate == "abort":
            records.append((w.ABORT, tid, None, None))
        streams.append(records)
    for _ in range(draw(st.integers(0, 2))):
        snapshot = draw(st.dictionaries(st.sampled_from(KEYS), st.integers(0, 9)))
        streams.append([(w.CHECKPOINT, None, None, snapshot)])
    # interleave, keeping each stream's own order
    log = WriteAheadLog()
    while streams:
        stream = draw(st.sampled_from(streams))
        log.append(*stream.pop(0))
        if not stream:
            streams.remove(stream)
    log.torn_force()
    log.lose_unforced()
    return list(log.durable_records())


class TestTheRecord:
    @settings(max_examples=150, deadline=None)
    @given(records=mixed_logs(), data=st.data())
    def test_folding_in_pieces_equals_replaying_whole(self, records, data):
        cuts = sorted(
            data.draw(st.lists(st.integers(0, len(records)), max_size=4), label="cuts")
        )
        whole, whole_pending = {}, {}
        fold(records, whole, whole_pending)
        assert whole == replay(records)
        snapshot, pending = {}, {}
        for start, end in zip([0] + cuts, cuts + [len(records)]):
            fold(records[start:end], snapshot, pending)
        assert snapshot == whole
        assert list(snapshot) == list(whole)  # same key order
        assert pending == whole_pending

    def test_a_batch_takes_effect_where_it_stands(self):
        t1, t2 = TransactionId(1), TransactionId(2)
        log = WriteAheadLog()
        log.append(w.BEGIN, t1)
        log.append(w.UPDATE, t1, ObjectId("a"), "locked")
        log.append(w.BATCH, t2, None, {"a": "batched", "b": 1})
        log.force()
        assert replay(log.durable_records()) == {"a": "batched", "b": 1}
        log.append(w.COMMIT, t1)  # the transaction commits after the batch
        log.force()
        assert replay(log.durable_records()) == {"a": "locked", "b": 1}

    def test_mirror_row_keeps_the_five_fields(self, tmp_path):
        import json

        path = tmp_path / "wal.jsonl"
        store = ObjectStore("s", mirror_path=str(path))
        store.commit_batch({"k": {"n": 1}, "odd": {1, 2}})
        store.wal.close()
        (row,) = [json.loads(line) for line in path.read_text().splitlines()]
        assert row == {
            "lsn": 1, "kind": "BATCH", "txn": None, "obj": None,
            "value": {"k": {"n": 1}, "odd": "{1, 2}"},  # non-JSON values by repr, as ever
        }

    def test_torn_force_with_one_pending_batch_makes_nothing_durable(self):
        store = ObjectStore("s")
        store.commit_batch({"a": 1})
        store.wal.append(w.BATCH, None, None, {"a": 2, "b": 2})
        assert store.wal.torn_force() == 0
        store.crash()
        assert store.snapshot() == {"a": 1}  # all of the batch or none of it

    def test_torn_force_with_records_and_tail_pending_keeps_the_records(self):
        t1 = TransactionId(1, "primary-tm")
        store = ObjectStore("standby")
        for entry in [
            (w.BATCH, t1, None, {"instance:wf-1:journal:0": "e0", "instance:wf-1:meta": 1}),
            (w.BATCH, None, None, {"_repl:tail:standby": {"lsn": 9, "epoch": 1}}),
        ]:
            store.wal.append(*entry)
        assert store.wal.torn_force() == 1
        store.crash()
        assert store.snapshot() == {"instance:wf-1:journal:0": "e0", "instance:wf-1:meta": 1}


# -- the single-writer guard ----------------------------------------------------------


class TestSingleWriterGuard:
    @pytest.mark.parametrize("access", ["write", "read"])
    def test_batch_on_a_key_an_open_transaction_holds_is_refused(self, access):
        store = ObjectStore("probe-a")
        manager = TransactionManager("probe-tm")
        store.commit_batch({"probe-counter": 0})
        txn = manager.begin()
        if access == "write":
            txn.write(store, "probe-counter", 1)
        else:
            txn.read(store, "probe-counter")
        log_length = len(store.wal)
        with pytest.raises(LockConflict):
            store.commit_batch({"other": 1, "probe-counter": 2})
        assert len(store.wal) == log_length  # refused before the log was touched
        assert not store.exists("other")
        assert store.get_committed("probe-counter") == 0
        # keys nobody holds are unaffected; and so is the key, once released
        store.commit_batch({"other": 1})
        txn.commit()
        store.commit_batch({"probe-counter": 2})
        assert store.get_committed("probe-counter") == 2

    def test_journal_lease_and_tail_writes_never_meet_a_lock(self, monkeypatch):
        """With the 2PC probe (the one locking writer the harness runs)
        and compaction on, replicated: every BATCH finds its store's lock
        table empty, so the guard is one truthiness test."""
        seen = []
        original = ObjectStore.commit_batch

        def spy(self, writes):
            seen.append((self.name, bool(self.locks._table)))
            return original(self, writes)

        monkeypatch.setattr(ObjectStore, "commit_batch", spy)
        for system in (SystemSpec(), SystemSpec(replicas=2, lease_duration=30.0)):
            report = SimHarness(probe_every=15.0, compact_every=40.0, system=system).run()
            assert report.ok, report.violations
        assert {name for name, _locked in seen} >= {"execution-store", "lease-store"}
        assert not any(locked for _name, locked in seen)


# -- a standby acknowledges with one force -----------------------------------------------


def replicated_order():
    system = WorkflowSystem(replicas=2, lease_duration=30.0, repl_interval=5.0)
    paper_order.default_registry(registry=system.registry)
    system.deploy("order", paper_order.SCRIPT_TEXT)
    return system


class TestStandbyAcknowledgesWithOneForce:
    def test_one_force_and_one_sync_per_replicate(self):
        system = replicated_order()
        standby = system.execution_replicas[1]
        costs = []
        original = standby.replicate

        def replicate(batch):
            forces, syncs = IOPATH_STATS.wal_forces, IOPATH_STATS.wal_syncs
            reply = original(batch)
            if reply.get("ok"):
                costs.append(
                    (IOPATH_STATS.wal_forces - forces, IOPATH_STATS.wal_syncs - syncs)
                )
            return reply

        standby.replicate = replicate
        iid = system.instantiate("order", paper_order.ROOT_TASK, {"order": "o-1"})
        assert system.run_until_terminal(iid)["status"] == "completed"
        assert len(costs) >= 3
        assert set(costs) == {(1, 1)}
        # the tail is the last record of each shipped batch's force
        last = list(standby.store.wal.durable_records())[-1]
        assert last.kind == w.BATCH and list(last.value) == [standby._tail_key]

    def test_crash_between_records_and_tail_under_reports_and_reships(self):
        system = replicated_order()
        primary, standby = system.execution_replicas
        node, store = system.replica_nodes[1], standby.store
        iid = system.instantiate("order", paper_order.ROOT_TASK, {"order": "o-1"})
        system.clock.advance(3.0)
        tail_before = standby.repl_status()["tail"]
        records_before = store.wal.durable_length

        def crash(_node_name, _fault, scope):
            scope.torn_force()  # the tail, last record of the force, is torn away
            node.crash()

        injector = CrashPointInjector(crash)
        injector.bind(store.wal, node.name)
        injector.arm(ArmedCrash("store.ingest.pre", mode="torn"))
        crashpoints.install(injector)
        try:
            system.clock.advance(10.0)
        finally:
            crashpoints.uninstall()
        assert injector.fired == [("store.ingest.pre", node.name)]
        # the shipped records are durable, the cursor still names the old tail
        assert store.wal.durable_length > records_before
        assert store.get_committed(standby._tail_key) == tail_before
        assert check_store_agreement(store) == []
        node.recover()
        assert system.run_until_terminal(iid)["status"] == "completed"
        system.clock.advance(20.0)
        # the primary re-shipped from the under-reported cursor: same after-images
        assert standby.repl_status()["tail"]["lsn"] == primary.store.wal.last_durable_lsn
        assert primary.replication_settled()
        for key in primary.store.keys():
            if not key.startswith("_repl:tail:"):
                assert store.get_committed(key) == primary.store.get_committed(key), key
        assert check_store_agreement(store) == []
        assert check_journal_integrity(store) == []
        assert standby.runtimes == {} and Journal(store).closed(iid)
        system.execution_node.crash()
        while system.primary_execution() is None:
            system.clock.advance(1.0)
        assert system.primary_execution() is standby
        assert standby.runtimes[iid].tree.status.value == "completed"
