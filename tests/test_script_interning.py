"""A script is logged once per version, not once per instance.

The execution store keeps a script's text under ``script:<digest>`` — its
own copy, content-addressed — and every ``instance:<iid>:spec`` names it by
digest (docs/PROTOCOLS.md §4.1).  These tests pin what that buys and what it
must not cost: an instance after the first forces no script text, the text
and the first spec that names it are one record (both durable or neither),
an instance stays bound to the text it started with across redeploys,
crashes, failover and migration, and a digest that names other text is
refused before anything is logged.
"""

from collections import OrderedDict

import pytest

from repro.core.errors import ExecutionError
from repro.engine import outcome
from repro.services import WorkflowSystem
from repro.services import execution as execution_mod
from repro.services.journal import Journal, script_digest
from repro.sim import crashpoints
from repro.sim.crashpoints import ArmedCrash, CrashPointInjector, SimulatedCrash
from repro.sim.harness import SimHarness
from repro.sim.oracles import (
    check_journal_integrity,
    check_replay_agreement,
    check_store_agreement,
)
from repro.txn.wal import BATCH
from repro.workloads import chain, paper_order, script_text

# Bytes one chain(8) instance after the first may force, instantiate record
# through terminal barrier (2,611 measured; the script's text alone is
# 2,935).  Script text creeping back into a per-instance record trips this
# here, not in a benchmark three PRs later.
CHAIN8_INSTANCE_BYTE_BUDGET = 2_800


@pytest.fixture(autouse=True)
def cold_compile_cache(monkeypatch):
    """Digests are computed once per cached text: each test starts cold."""
    monkeypatch.setattr(execution_mod, "_COMPILE_CACHE", OrderedDict())


def chain_system(length, **kwargs):
    workload = chain(length)
    _script, registry, root, inputs = workload
    system = WorkflowSystem(workers=2, registry=registry, **kwargs)
    text = script_text(workload)
    system.deploy("chain", text)
    return system, text, root, inputs


def swapped(text):
    """``text`` with its last stage running other code: a new version."""
    head, _sep, tail = text.rpartition('"code" is "stage"')
    return head + '"code" is "stage2"' + tail


def script_keys(store):
    return [key for key in store.keys() if key.startswith("script:")]


def spec_record(store, iid):
    (record,) = [
        record for record in store.wal.all_records()
        if record.kind == BATCH and f"instance:{iid}:spec" in record.value
    ]
    return record


def crash_and_recover(system):
    system.execution_node.crash()
    system.execution_node.recover()


class TestOneTextPerVersion:
    def test_first_record_carries_text_and_spec_the_second_no_text(self):
        system, text, root, inputs = chain_system(4)
        store = system.execution_store
        first = system.instantiate("chain", root, inputs)
        second = system.instantiate("chain", root, inputs)
        digest = script_digest(text)
        key = f"script:{digest}"
        assert list(spec_record(store, first).value) == [
            key, "instance-counter", f"instance:{first}:spec", f"instance:{first}:meta",
        ]
        assert spec_record(store, first).value[key] == text
        assert list(spec_record(store, second).value) == [
            "instance-counter", f"instance:{second}:spec", f"instance:{second}:meta",
        ]
        assert "compoundtask" not in spec_record(store, second).to_json()
        assert script_keys(store) == [key]
        assert store.get_committed(f"instance:{second}:spec")["script"] == digest

    def test_second_instantiate_record_is_the_same_size_for_any_script(self):
        sizes = {}
        for length in (4, 64):
            system, _text, root, inputs = chain_system(length)
            system.instantiate("chain", root, inputs)
            second = system.instantiate("chain", root, inputs)
            sizes[length] = len(spec_record(system.execution_store, second).to_json())
        assert sizes[4] == sizes[64], sizes

    def test_bytes_forced_per_instance_stay_inside_the_budget(self):
        system, text, root, inputs = chain_system(8)
        wal = system.execution_store.wal
        assert system.run_until_terminal(
            system.instantiate("chain", root, inputs)
        )["status"] == "completed"
        for _ in range(3):
            before = len(wal)
            iid = system.instantiate("chain", root, inputs)
            assert system.run_until_terminal(iid)["status"] == "completed"
            forced = sum(
                len(record.to_json()) + 1 for record in list(wal.durable_records())[before:]
            )
            assert forced <= CHAIN8_INSTANCE_BYTE_BUDGET < len(text) + forced, forced


class TestVersionBinding:
    def test_each_instance_replays_on_the_text_it_started_with(self):
        def run(crash):
            workload = chain(4)
            _script, registry, root, inputs = workload
            registry.register("stage2", lambda ctx: outcome("done", out="swapped"))
            system = WorkflowSystem(workers=2, registry=registry)
            old_text = script_text(workload)
            new_text = swapped(old_text)
            system.deploy("chain", old_text)
            old = system.instantiate("chain", root, inputs)
            system.clock.advance(3.0)
            system.deploy("chain", new_text)  # same name, next version
            new = system.instantiate("chain", root, inputs)
            system.clock.advance(3.0)
            store, service = system.execution_store, system.execution
            assert 0 < store.get_committed(f"instance:{old}:meta")["journal_len"] < 4
            if crash:
                crash_and_recover(system)
            assert sorted(script_keys(store)) == sorted(
                f"script:{script_digest(text)}" for text in (old_text, new_text)
            )
            for iid, text in ((old, old_text), (new, new_text)):
                assert store.get_committed(f"instance:{iid}:spec")["script"] == script_digest(text)
                assert service.runtimes[iid].script is execution_mod._compiled(text).script
            assert check_journal_integrity(store) == []
            assert check_replay_agreement(service) == []
            return [
                system.run_until_terminal(iid)["objects"]["out"]["value"]
                for iid in (old, new)
            ]

        assert run(crash=False) == ["seed", "swapped"]
        assert run(crash=True) == ["seed", "swapped"]


class TestFirstUseBatchIsAtomic:
    @pytest.mark.parametrize(
        "point, mode, survives",
        [
            ("store.commit.pre", "clean", False),
            ("wal.force.pre", "torn", False),
            ("store.commit.forced", "clean", True),
            ("store.commit.post", "clean", True),
            ("exec.instantiate.persisted", "clean", True),
        ],
    )
    def test_text_and_first_spec_are_both_durable_or_neither(self, point, mode, survives):
        system, text, root, inputs = chain_system(3)
        store, node, service = system.execution_store, system.execution_node, system.execution

        def crash(_node_name, fault, _scope):
            if fault.mode == "torn":
                store.wal.torn_force()
            node.crash()

        injector = CrashPointInjector(crash)
        for scope in (service, store, store.wal):
            injector.bind(scope, node.name)
        injector.arm(ArmedCrash(point, mode=mode))
        crashpoints.install(injector)
        try:
            with pytest.raises(SimulatedCrash):
                service.instantiate("chain", root, "main", inputs)
        finally:
            crashpoints.uninstall()
        key = f"script:{script_digest(text)}"
        assert [store.exists(key), store.exists("instance:wf-1:spec")] == [survives, survives]
        assert check_journal_integrity(store) == []
        assert check_store_agreement(store) == []
        node.recover()
        assert list(service.runtimes) == (["wf-1"] if survives else [])
        # whichever way it went, the next instance finds the store consistent:
        # it brings the text along exactly when the crash lost it
        iid = system.instantiate("chain", root, inputs)
        assert (key in spec_record(store, iid).value) == (not survives)
        for each in Journal(store).instances():
            assert system.run_until_terminal(each)["status"] == "completed"
        assert script_keys(store) == [key]


class TestStandbysHoldEveryVersion:
    def replicated(self):
        system = WorkflowSystem(workers=2, replicas=2, lease_duration=30.0, repl_interval=5.0)
        paper_order.default_registry(registry=system.registry)
        system.deploy("order", paper_order.SCRIPT_TEXT)
        return system

    def fail_over(self, system):
        old = system.primary_execution()
        system.execution_node.crash()
        system.clock.advance(200.0)
        promoted = system.primary_execution()
        assert promoted is not None and promoted is not old
        return promoted

    def test_promotion_after_incremental_shipment_builds_every_image(self):
        system = self.replicated()
        iids = [
            system.instantiate("order", paper_order.ROOT_TASK, {"order": f"o-{n}"})
            for n in range(3)
        ]
        system.clock.advance(6.0)
        key = f"script:{script_digest(paper_order.SCRIPT_TEXT)}"
        for standby in system.execution_replicas[1:]:
            assert standby.repl_stats["resyncs"] == 1  # the bootstrap only
            assert script_keys(standby.store) == [key]
            # the journals and the text are all a follower holds of them
            assert sorted(Journal(standby.store).instances()) == sorted(iids)
            assert standby.runtimes == {}
            assert check_journal_integrity(standby.store) == []
        promoted = self.fail_over(system)
        assert sorted(promoted.runtimes) == sorted(iids)
        assert check_replay_agreement(promoted) == []
        for iid in iids:
            assert system.run_until_terminal(iid)["status"] == "completed"
        # the new primary already holds the version: it is not logged again
        again = system.instantiate("order", paper_order.ROOT_TASK, {"order": "o-9"})
        assert key not in spec_record(promoted.store, again).value
        assert script_keys(promoted.store) == [key]

    def test_compaction_keeps_the_version_and_a_resync_ships_it(self):
        system = self.replicated()
        primary = system.execution_replicas[0]
        done = system.instantiate("order", paper_order.ROOT_TASK, {"order": "o-1"})
        assert system.run_until_terminal(done)["status"] == "completed"
        live = system.instantiate("order", paper_order.ROOT_TASK, {"order": "o-2"})
        key = f"script:{script_digest(paper_order.SCRIPT_TEXT)}"
        primary.compact()
        assert script_keys(primary.store) == [key]
        assert check_journal_integrity(primary.store) == []
        # the text now exists only inside the checkpoint record
        (checkpoint, *later) = primary.store.wal.durable_records()
        assert checkpoint.value[key] == paper_order.SCRIPT_TEXT
        assert not any(key in (record.value or ()) for record in later)
        # a standby that lost its disk is resynced from that checkpoint
        standby, node = system.execution_replicas[1], system.replica_nodes[1]
        node.crash()
        standby.store.wal.reset()
        standby.store.crash()
        node.recover()
        system.clock.advance(20.0)
        assert standby.repl_stats["resyncs"] >= 1
        assert script_keys(standby.store) == [key]
        assert Journal(standby.store).instances() == [done, live]
        assert standby.runtimes == {}
        promoted = self.fail_over(system)
        assert sorted(promoted.runtimes) == sorted([done, live])
        assert check_journal_integrity(promoted.store) == []
        assert check_replay_agreement(promoted) == []
        assert system.run_until_terminal(live)["status"] == "completed"


class TestDigestCollision:
    def test_forged_collision_is_refused_before_anything_is_logged(self, monkeypatch):
        monkeypatch.setattr(execution_mod, "script_digest", lambda text: "0" * 32)
        workload = chain(3)
        _script, registry, root, inputs = workload
        system = WorkflowSystem(workers=2, registry=registry)
        system.deploy("a", script_text(workload))
        system.deploy("b", swapped(script_text(workload)))
        store = system.execution_store
        first = system.instantiate("a", root, inputs)
        logged, counter = len(store.wal), store.get_committed("instance-counter")
        with pytest.raises(ExecutionError, match="already names a different text"):
            system.execution.instantiate("b", root, "main", inputs)
        assert len(store.wal) == logged
        assert store.get_committed("instance-counter") == counter
        assert list(system.execution.runtimes) == [first]
        assert store.get_committed("script:" + "0" * 32) == script_text(workload)
        # the text that owns the digest is unaffected
        assert system.run_until_terminal(first)["status"] == "completed"
        assert system.run_until_terminal(system.instantiate("a", root, inputs))["status"] == "completed"

    def test_import_of_a_colliding_text_is_refused_too(self, monkeypatch):
        workload = chain(3)
        _script, registry, root, inputs = workload
        source = WorkflowSystem(workers=2, registry=registry)
        source.deploy("b", swapped(script_text(workload)))
        source.instantiate("b", root, inputs)
        snapshot = source.execution.export_instance(source.instantiate("b", root, inputs))
        monkeypatch.setattr(execution_mod, "_COMPILE_CACHE", OrderedDict())
        monkeypatch.setattr(execution_mod, "script_digest", lambda text: "0" * 32)
        target = WorkflowSystem(workers=2, registry=registry)
        target.deploy("a", script_text(workload))
        target.instantiate("a", root, inputs)
        logged = len(target.execution_store.wal)
        with pytest.raises(ExecutionError, match="already names a different text"):
            target.execution.import_instance(snapshot)
        assert len(target.execution_store.wal) == logged
        assert list(target.execution.runtimes) == ["wf-1"]


class TestScriptResolutionOracle:
    def test_fires_when_a_spec_names_a_missing_script(self):
        """Seeded mutation: drop the key behind the store's back."""
        system, text, root, inputs = chain_system(3)
        store = system.execution_store
        iid = system.instantiate("chain", root, inputs)
        assert check_journal_integrity(store) == []
        del store._committed[f"script:{script_digest(text)}"]
        (violation,) = check_journal_integrity(store)
        assert violation.oracle == "script-resolution" and violation.subject == iid
        assert script_digest(text) in violation.detail

    def test_the_harness_holds_every_replica_store_to_it(self):
        harness = SimHarness(workload="order", replicas=2, lease_duration=30.0)
        assert harness.run().ok
        standby = harness._system.execution_replicas[1]
        (key,) = script_keys(standby.store)
        del standby.store._committed[key]
        harness._check("quiescence")
        fired = {
            (violation.oracle, violation.subject) for violation in harness._violations
        }
        assert ("script-resolution", "wf-1") in fired
