"""The execution store's object layout and what a journal barrier costs.

Per script version the store holds one ``script:<digest>``; per instance a
write-once ``instance:<iid>:spec`` naming it, an ``instance:<iid>:meta``
carrying ``journal_len`` and, once the instance is closed, the ``closed``
mark, and one ``instance:<iid>:journal:<n>`` segment per barrier that
touched it, holding that barrier's entries from position ``n`` on; the
instances of a store are its spec keys in commit order (docs/PROTOCOLS.md
§4.1, §9.3).  These tests pin what that layout is for: a journal barrier is
one WAL record whose size depends on its entries — not on the script, not
on how many instances came before — and every way an instance enters or
re-enters a service (instantiate, crash recovery, import, replication)
rebuilds the same tree from it.  A segment whose key is lost, or which runs
past ``journal_len``, is reported by the contiguity oracle.
"""

import ast
import os
import pathlib

import pytest

import repro
from repro.core.errors import ExecutionError
from repro.engine import outcome
from repro.services import WorkflowSystem
from repro.services.journal import Journal, script_digest, segment_rows
from repro.sim import crashpoints
from repro.sim.crashpoints import ArmedCrash, CrashPointInjector, SimulatedCrash
from repro.sim.oracles import (
    check_closed_is_settled, check_journal_integrity, check_settled_is_closed, check_store_agreement,
)
from repro.txn.ids import TransactionId
from repro.txn.wal import BATCH, replay
from repro.workloads import chain, fan, paper_order, script_text


# Mirror bytes per journaled step, instantiate excluded: a chain(8) instance
# (one entry per barrier) and a fan(64) one (a fan-out's outcomes share one
# barrier, so one segment).
CHAIN8_BYTES_PER_STEP_CEILING = 220
FAN64_BYTES_PER_STEP_CEILING = 72


def deployed_system(workload, **kwargs):
    _script, registry, root, inputs = workload
    system = WorkflowSystem(workers=2, registry=registry, **kwargs)
    system.deploy("chain", script_text(workload))
    return system, root, inputs


def chain_system(length, **kwargs):
    return deployed_system(chain(length), **kwargs)


def journal_keys(store, iid):
    """The positions ``iid``'s journal segments start at, ascending."""
    prefix = f"instance:{iid}:journal:"
    return sorted(int(key[len(prefix):]) for key in store.keys() if key.startswith(prefix))


def journal_len(store, iid):
    return store.get_committed(f"instance:{iid}:meta")["journal_len"]


def tree_of(tree):
    return (
        tree.status.value,
        tree.root.machine.outcome,
        sorted((node.path, node.machine.state.value) for node in tree.walk()),
    )


def tree_state(service, iid):
    return tree_of(service._full_runtime(iid).tree)  # a replay, once the instance settled


def image_state(runtime):
    """Everything of an unsettled runtime that a replay rebuilds."""
    return (
        tree_of(runtime.tree),
        sorted(runtime.in_flight),
        runtime.external,
        runtime.exec_counter,
        runtime.deadline_expiries,
        runtime.journal_keys,
    )


class TestBarrierCost:
    def _mirror_bytes_per_step(self, workload, width, tmp_path):
        """Per journaled step of one instance of ``workload``, a chain or
        fan of ``width`` tasks, which journals at least ``width`` steps."""
        mirror = str(tmp_path / f"wal-{workload[2]}-{width}.jsonl")
        system, root, inputs = deployed_system(workload, mirror_path=mirror)
        store = system.execution_store
        iid = system.instantiate("chain", root, inputs)
        store.sync()
        before = os.path.getsize(mirror)
        assert system.run_until_terminal(iid)["status"] == "completed"
        store.wal.close()
        steps = journal_len(store, iid)
        assert steps >= width
        return (os.path.getsize(mirror) - before) / steps

    def test_chain8_entries_stay_under_the_byte_ceiling(self, tmp_path):
        """A journal entry is stored by position, key names spelled by the
        codec's table: 200.9 mirror bytes per step for chain(8), 295.9 when
        each entry was stored as its dict.  An entry growing back trips
        this here."""
        assert self._mirror_bytes_per_step(chain(8), 8, tmp_path) <= CHAIN8_BYTES_PER_STEP_CEILING

    def test_fan64_segments_stay_under_the_byte_ceiling(self, tmp_path):
        """A barrier writes one segment per instance, its entries sharing
        one key and one stamp: 65.4 mirror bytes per step for fan(64),
        104.4 with one key and stamp per entry.  Entries split back into
        keys of their own trip this here."""
        assert self._mirror_bytes_per_step(fan(64), 64, tmp_path) <= FAN64_BYTES_PER_STEP_CEILING

    def test_wal_bytes_per_step_do_not_depend_on_script_size(self, tmp_path):
        short = self._mirror_bytes_per_step(chain(8), 8, tmp_path)
        long = self._mirror_bytes_per_step(chain(32), 32, tmp_path)
        assert abs(long - short) / short < 0.10, (short, long)

    def test_instantiate_transaction_does_not_grow_with_instances(self):
        system, root, inputs = chain_system(2)
        wal = system.execution_store.wal
        sizes = []
        for _ in range(200):
            before = len(wal)
            iid = system.instantiate("chain", root, inputs)
            records = list(wal.all_records())[before:]
            sizes.append(sum(len(record.to_json()) for record in records))
            system.run_until_terminal(iid)
        # the only thing that may grow is the instance id's own digits
        assert max(sizes[-10:]) <= min(sizes[:10]) + 64, (sizes[:3], sizes[-3:])
        assert len(Journal(system.execution_store).instances()) == 200


class TestLayout:
    def test_spec_is_written_once_and_meta_carries_only_the_length(self):
        system, root, inputs = chain_system(4)
        store = system.execution_store
        iid = system.instantiate("chain", root, inputs)
        assert store.get_committed(f"instance:{iid}:meta") == {"journal_len": 0}
        system.run_until_terminal(iid)
        spec = store.get_committed(f"instance:{iid}:spec")
        assert set(spec) == {"script", "root_task", "input_set", "inputs"}
        text = script_text(chain(4))
        assert spec["script"] == script_digest(text)
        assert store.get_committed(f"script:{spec['script']}") == text
        # only the length while the instance runs; the barrier that ended it
        # wrote the mark beside the length, in the deciding entry's record
        assert store.get_committed(f"instance:{iid}:meta") == {
            "journal_len": journal_len(store, iid), "closed": True,
        }
        # the closing segment is the last one, and it holds the last entry
        start = journal_keys(store, iid)[-1]
        last = f"instance:{iid}:journal:{start}"
        assert start + len(segment_rows(store.get_committed(last))) == journal_len(store, iid)
        closing = [
            record.value for record in store.wal.durable_records() if last in record.value
        ]
        assert len(closing) == 1
        assert closing[0][f"instance:{iid}:meta"]["closed"] is True
        spec_writes = [
            record for record in store.wal.durable_records()
            if record.kind == BATCH and f"instance:{iid}:spec" in record.value
        ]
        assert len(spec_writes) == 1
        # the spec, the counter it was numbered from, the empty journal's
        # length and — for the first instance of its script — the text commit
        # together: one record, no envelope around it
        assert set(spec_writes[0].value) == {
            f"script:{spec['script']}",
            "instance-counter", f"instance:{iid}:spec", f"instance:{iid}:meta",
        }
        assert {record.kind for record in store.wal.durable_records()} == {BATCH}
        assert not store.exists("instance-index")
        assert store.get_committed("instance-index", []) == [iid]  # derived

    def test_only_the_journal_module_spells_a_stored_key(self):
        """The layout has one owner: outside comments and docstrings, no
        other file under ``src/repro`` holds a string literal (f-string
        parts included) that starts with ``instance:`` or contains
        ``:journal:``, and none of the journal's readers one that starts
        with ``script:`` (the repository's ``script:<name>`` is its own
        layout in its own store) or is the ``closed`` of a ``meta`` (they ask
        ``Journal.closed``; a circuit breaker's state is not theirs)."""
        root = pathlib.Path(repro.__file__).parent
        found = []
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            if rel == "services/journal.py":
                continue
            reader = rel == "services/execution.py" or rel.startswith(("replication/", "sim/"))
            tree = ast.parse(path.read_text(encoding="utf-8"))
            docstrings = {
                id(node.value) for node in ast.walk(tree)
                if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            }
            for node in ast.walk(tree):
                if not isinstance(node, ast.Constant) or not isinstance(node.value, str):
                    continue
                if id(node) in docstrings:
                    continue
                text = node.value
                if (
                    text.startswith("instance:")
                    or ":journal:" in text
                    or (reader and (text.startswith("script:") or text == "closed"))
                ):
                    found.append((rel, node.lineno, text))
        assert found == []

    def test_instances_enumerate_in_commit_order_across_recovery_and_compaction(self):
        system, root, inputs = chain_system(2)
        iids = [system.instantiate("chain", root, inputs) for _ in range(12)]
        for iid in iids:
            system.run_until_terminal(iid)
        store = system.execution_store
        assert Journal(store).instances() == iids
        system.execution.compact()
        assert Journal(store).instances() == iids
        system.execution_node.crash()
        system.execution_node.recover()
        assert Journal(store).instances() == iids
        assert list(system.execution.runtimes) == iids


class TestContiguityUnderSegments:
    """What the contiguity oracle sees of a journal stored as segments:
    ``fan(8)`` journals its source, then its eight outcomes in the one
    barrier whose reply releases the sink, then the sink — three segments,
    at positions 0, 1 and 9."""

    @staticmethod
    def fan8():
        system, root, inputs = deployed_system(fan(8))
        return system, system.instantiate("chain", root, inputs)

    def test_a_lost_middle_segment_is_reported_at_its_first_position(self):
        system, iid = self.fan8()
        assert system.run_until_terminal(iid)["status"] == "completed"
        store = system.execution_store
        assert journal_keys(store, iid) == [0, 1, 9]
        assert check_journal_integrity(store) == []
        del store._committed[f"instance:{iid}:journal:1"]  # seeded: behind the store's back
        (violation,) = check_journal_integrity(store)
        assert (violation.oracle, violation.subject) == ("journal-contiguity", iid)
        assert "entries [1, 2, 3, 4, 5] are missing" in violation.detail

    def test_a_segment_running_past_journal_len_is_reported_not_truncated(self):
        system, iid = self.fan8()
        assert system.run_until_terminal(iid)["status"] == "completed"
        store = system.execution_store
        last = f"instance:{iid}:journal:9"
        row = store.get_committed(last)
        forged = [row[-2], row[-1], row[:-2], ["external", "fan/forged", 1]]
        store._committed[last] = forged  # seeded: one entry more than meta says
        entries = Journal(store).entries(iid)
        assert len(entries) == journal_len(store, iid) + 1
        assert entries[-1]["path"] == "fan/forged"
        (violation,) = check_journal_integrity(store)
        assert (violation.oracle, violation.subject) == ("journal-contiguity", iid)
        assert "journal_len=10 but its segments hold 11 entries" in violation.detail

    def test_a_torn_release_barrier_drops_its_segment_with_its_meta(self):
        system, iid = self.fan8()
        store, node, service = system.execution_store, system.execution_node, system.execution

        def crash(_node_name, _fault, scope):
            scope.torn_force()
            node.crash()

        injector = CrashPointInjector(crash)
        injector.bind(store.wal, node.name)
        commit = service.journal.commit

        def tear_the_release_barrier(closed=()):
            if len(service.journal.buffer) == 8 and not injector.fired:
                injector.arm(ArmedCrash("wal.force.pre", mode="torn"))
            return commit(closed)

        service.journal.commit = tear_the_release_barrier
        crashpoints.install(injector)
        try:
            with pytest.raises(SimulatedCrash):
                system.clock.advance(100.0)
        finally:
            crashpoints.uninstall()
        assert injector.fired == [("wal.force.pre", node.name)]
        # the source's segment and the length it advanced, nothing of the eight
        assert journal_keys(store, iid) == [0] and journal_len(store, iid) == 1
        assert check_journal_integrity(store) == [] and check_store_agreement(store) == []
        node.recover()
        assert system.run_until_terminal(iid)["status"] == "completed"
        assert len(Journal(store).entries(iid)) == journal_len(store, iid) == 10
        assert check_journal_integrity(store) == [] and check_store_agreement(store) == []
        assert check_closed_is_settled(system.execution) == []
        assert check_settled_is_closed(system.execution) == []


class TestSameTreeEveryWayIn:
    def test_export_import_into_a_fresh_service(self):
        source = WorkflowSystem(workers=2)
        paper_order.default_registry(registry=source.registry)
        source.deploy("order", paper_order.SCRIPT_TEXT)
        iid = source.instantiate("order", paper_order.ROOT_TASK, {"order": "o-1"})
        source.run_until_terminal(iid)
        snapshot = source.execution.export_instance(iid)
        assert set(snapshot) == {"instance", "meta", "journal"}
        assert set(snapshot["meta"]) == {
            "script_text", "root_task", "input_set", "inputs", "journal_len",
        }
        assert snapshot["meta"]["journal_len"] == len(snapshot["journal"])

        target = WorkflowSystem(workers=2)
        paper_order.default_registry(registry=target.registry)
        target.execution.import_instance(snapshot)
        assert tree_state(target.execution, iid) == tree_state(source.execution, iid)
        store = target.execution_store
        assert Journal(store).instances() == [iid]
        assert journal_len(store, iid) == len(snapshot["journal"])
        assert check_journal_integrity(store) == []
        # and it survives a crash of its new home
        target.execution_node.crash()
        target.execution_node.recover()
        assert tree_state(target.execution, iid) == tree_state(source.execution, iid)

    @pytest.mark.parametrize(
        "forge",
        [
            lambda snapshot: snapshot["journal"].__setitem__(1, None),
            lambda snapshot: snapshot["meta"].__setitem__(
                "journal_len", snapshot["meta"]["journal_len"] + 3
            ),
        ],
        ids=["a-hole-in-the-journal", "a-journal-len-that-is-not-the-journals"],
    )
    def test_import_refuses_a_forged_snapshot_before_anything_is_logged(self, forge):
        source = WorkflowSystem(workers=2)
        paper_order.default_registry(registry=source.registry)
        source.deploy("order", paper_order.SCRIPT_TEXT)
        iid = source.instantiate("order", paper_order.ROOT_TASK, {"order": "o-1"})
        source.run_until_terminal(iid)
        snapshot = source.execution.export_instance(iid)
        forge(snapshot)

        target = WorkflowSystem(workers=2)
        store = target.execution_store
        keys, logged = list(store.keys()), len(store.wal)
        with pytest.raises(ExecutionError, match="journal_len"):
            target.execution.import_instance(snapshot)
        assert list(store.keys()) == keys and len(store.wal) == logged
        assert target.execution.runtimes == {}
        assert check_journal_integrity(store) == []

    @pytest.mark.parametrize(
        "point, survives",
        [
            ("store.commit.pre", False),
            ("wal.force.pre", False),
            ("wal.force.post", True),
            ("store.commit.forced", True),
            ("store.commit.post", True),
            ("exec.instantiate.persisted", True),
        ],
    )
    def test_crash_around_instantiate_keeps_spec_and_meta_together(self, point, survives):
        system, root, inputs = chain_system(3)
        twin, _root, _inputs = chain_system(3)
        store, node, service = system.execution_store, system.execution_node, system.execution

        def crash(_node_name, _fault, _scope):
            node.crash()

        injector = CrashPointInjector(crash)
        for scope in (service, store, store.wal):
            injector.bind(scope, node.name)
        injector.arm(ArmedCrash(point))
        crashpoints.install(injector)
        try:
            with pytest.raises(SimulatedCrash):
                service.instantiate("chain", root, "main", inputs)
        finally:
            crashpoints.uninstall()
        present = [store.exists(f"instance:wf-1:{part}") for part in ("spec", "meta")]
        assert present == [survives, survives]
        assert check_journal_integrity(store) == []
        node.recover()
        assert list(service.runtimes) == (["wf-1"] if survives else [])
        if survives:
            # the recovered tree is the tree an uncrashed instantiate builds
            twin.instantiate("chain", root, inputs)
            assert tree_state(service, "wf-1") == tree_state(twin.execution, "wf-1")
            assert system.run_until_terminal("wf-1")["status"] == "completed"

    def test_journaled_reconfig_then_recovery(self):
        def reconfigured_run(crash):
            workload = chain(3)
            _script, registry, root, inputs = workload
            registry.register("stage2", lambda ctx: outcome("done", out="reconfigured"))
            system = WorkflowSystem(workers=2, registry=registry)
            text = script_text(workload)
            system.deploy("chain", text)
            iid = system.instantiate("chain", root, inputs)
            head, sep, tail = text.rpartition('"code" is "stage"')
            new_text = head + '"code" is "stage2"' + tail
            system.execution_proxy().reconfigure(iid, new_text)
            store = system.execution_store
            # the spec keeps naming the text the instance was created from;
            # the reconfiguration is a journal entry naming its own text,
            # which the store holds as the next version
            digest = store.get_committed(f"instance:{iid}:spec")["script"]
            assert store.get_committed(f"script:{digest}") == text
            assert Journal(store).entries(iid)[0]["script_text"] == new_text
            assert [key for key in store.keys() if key.startswith("script:")] == [
                f"script:{digest}", f"script:{script_digest(new_text)}",
            ]
            if crash:
                system.execution_node.crash()
                system.execution_node.recover()
            state = tree_state(system.execution, iid)
            result = system.run_until_terminal(iid)
            return state, result["status"], result["objects"]["out"]["value"]

        live = reconfigured_run(crash=False)
        assert live[1:] == ("completed", "reconfigured"), live
        assert reconfigured_run(crash=True) == live


class TestStandbyFoldsBatches:
    """The standby folds each shipped batch into its committed cache instead
    of replaying its whole log; ``check_store_agreement`` — cache equals a
    replay of the durable log — must hold after every single batch."""

    def test_cache_equals_full_replay_after_every_replicate(self):
        system = WorkflowSystem(replicas=3, lease_duration=30.0, repl_interval=5.0)
        paper_order.default_registry(registry=system.registry)
        system.deploy("order", paper_order.SCRIPT_TEXT)
        applied = {"batches": 0, "resets": 0, "images": 0}

        def watch(replica):
            original = replica.replicate

            def replicate(batch):
                reply = original(batch)
                if reply.get("ok"):
                    applied["batches"] += 1
                    applied["resets"] += bool(batch["reset"])
                    assert check_store_agreement(replica.store) == []
                    assert check_journal_integrity(replica.store) == []
                    # a follower of the log builds nothing from it
                    assert replica.runtimes == {} == replica._live
                return reply

            replica.replicate = replicate
            promote = replica._promote

            def _promote(grant):
                promote(grant)
                # what a promotion builds is what a cold replay of the store
                # builds: every open instance with its flights, every
                # finished one with its verdict
                assert list(replica.runtimes) == Journal(replica.store).instances()
                for iid, runtime in replica.runtimes.items():
                    cold = replica._replay(iid)
                    if runtime.settled:
                        assert (
                            runtime.tree.status, runtime.tree.root.machine.outcome
                        ) == (cold.tree.status, cold.tree.root.machine.outcome)
                    else:
                        assert image_state(runtime) == image_state(cold)
                        applied["images"] += 1

            replica._promote = _promote

        for replica in system.execution_replicas:
            watch(replica)
        primary = system.execution_replicas[0]
        first = system.instantiate("order", paper_order.ROOT_TASK, {"order": "o-1"})
        system.clock.advance(6.0)
        bootstrap_resets = applied["resets"]
        assert bootstrap_resets == 2  # each standby's first batch is a full one

        # A two-phase transaction with the execution store as a participant,
        # shipped between its PREPARE and its COMMIT: the standby must carry
        # it, undecided, from one batch to the next.
        tid = TransactionId(1, "probe-tm")
        writes = {"probe-counter": 1}
        primary.store.log_updates(tid, writes)
        primary.store.prepare(tid)
        primary.flush_journal()
        standbys = system.execution_replicas[1:]
        for standby in standbys:
            assert standby.store.wal.last_durable_lsn > 0
            assert not standby.store.exists("probe-counter")
            assert list(standby.store.in_doubt()) == [tid]
        primary.store.commit(tid, writes)
        primary.flush_journal()
        for standby in standbys:
            assert standby.store.get_committed("probe-counter") == 1

        assert system.run_until_terminal(first)["status"] == "completed"
        # Failover with a dozen instances open: the new primary rebuilds them
        # from its own store and starts every peer from a full resync, which
        # wipes that standby's log and cache before the batch folds in.
        assert applied["images"] == 0  # only the bootstrap promotion so far
        opened = [
            system.instantiate("order", paper_order.ROOT_TASK, {"order": f"open-{n}"})
            for n in range(12)
        ]
        system.execution_node.crash()
        second = system.instantiate("order", paper_order.ROOT_TASK, {"order": "o-2"})
        assert system.run_until_terminal(second)["status"] == "completed"
        for iid in opened:
            assert system.run_until_terminal(iid)["status"] == "completed"
        system.clock.advance(20.0)
        assert applied["resets"] > bootstrap_resets
        assert applied["batches"] > 10
        assert applied["images"] > 10
        new_primary = system.primary_execution()
        assert new_primary is not primary
        everything = sorted([first, second, *opened])
        assert sorted(new_primary.runtimes) == everything
        for replica in system.execution_replicas[1:]:
            assert replica.store.snapshot() == replay(replica.store.wal.durable_records())
            assert sorted(Journal(replica.store).instances()) == everything
            assert replica.store.get_committed("probe-counter") == 1
