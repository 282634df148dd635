"""Hot-standby replication of the execution service: lease arbitration,
fencing epochs, log shipping, and lease-fenced failover
(docs/PROTOCOLS.md §12)."""

import pytest

from repro.core.schema import InputSetSpec, TaskClass
from repro.engine.plan import DispatchTemplate
from repro.net.clock import EventClock
from repro.net.network import LatencyModel, Network
from repro.net.node import Node
from repro.orb.broker import CommFailure, Fenced
from repro.replication import LeaseService, Role
from repro.services import WorkflowSystem
from repro.services.journal import Journal
from repro.services.worker import TaskWorker, WorkRequest
from repro.txn.store import ObjectStore
from repro.workloads import paper_order, paper_trip


def lease_fixture(duration=30.0):
    clock = EventClock()
    network = Network(clock, LatencyModel(1.0, 0.0), 0.0, 0)
    node = Node("lease-node", clock, network)
    store = ObjectStore("lease-store")
    service = LeaseService("lease", store, duration=duration)
    node.install(service)
    return clock, service


def replicated_system(replicas=3, workload=paper_order, name="order",
                      **kwargs):
    kwargs.setdefault("lease_duration", 30.0)
    kwargs.setdefault("repl_interval", 5.0)
    system = WorkflowSystem(replicas=replicas, **kwargs)
    workload.default_registry(registry=system.registry)
    system.deploy(name, workload.SCRIPT_TEXT)
    return system


def deadline_script():
    """``wf``: ``maybe`` pinned to worker-2, then ``gather`` waiting on it
    under a 40 s deadline."""
    from repro.core.builder import ScriptBuilder, from_input, from_output
    from repro.lang import format_script

    b = ScriptBuilder()
    b.object_class("Data")
    b.taskclass("Maybe").input_set("main").outcome("yes", out="Data")
    b.taskclass("Gather").input_set("main", inp="Data").outcome(
        "gathered", out="Data"
    ).abort_outcome("timedOut")
    b.taskclass("Root").input_set("main").outcome("done", out="Data").outcome("expired")
    c = b.compound("wf", "Root")
    c.task("maybe", "Maybe").implementation(code="maybe", location="worker-2").notify(
        "main", from_input("wf", "main")
    ).up()
    c.task("gather", "Gather").implementation(code="gather", deadline="40").input(
        "main", "inp", from_output("maybe", "yes", "out")
    ).up()
    c.output("done").object("out", from_output("gather", "gathered", "out")).up()
    c.output("expired").notify(from_output("gather", "timedOut")).up()
    c.up()
    return format_script(b.build())


class TestLeaseService:
    def test_bootstrap_grant_advances_epoch(self):
        _, lease = lease_fixture()
        grant = lease.acquire("r1")
        assert grant["granted"] and grant["holder"] == "r1"
        assert grant["epoch"] == 1
        assert "r1" in grant["isr"]

    def test_held_unexpired_lease_refused(self):
        clock, lease = lease_fixture(duration=30.0)
        lease.acquire("r1")
        clock.advance(10.0)
        refusal = lease.acquire("r2")
        assert not refusal["granted"]
        assert refusal["holder"] == "r1"

    def test_expired_lease_passes_to_isr_member(self):
        clock, lease = lease_fixture(duration=30.0)
        first = lease.acquire("r1")
        lease.enlist("r2", first["epoch"])
        clock.advance(31.0)
        grant = lease.acquire("r2")
        assert grant["granted"]
        assert grant["epoch"] == 2  # every grant advances the fencing epoch

    def test_expired_lease_refused_to_lagging_replica(self):
        clock, lease = lease_fixture(duration=30.0)
        lease.acquire("r1")  # ISR = [r1]
        clock.advance(31.0)
        refusal = lease.acquire("r2")  # never enlisted: durable prefix suspect
        assert not refusal["granted"]
        assert "in-sync" in refusal["reason"]

    def test_regrant_to_same_holder_still_advances_epoch(self):
        clock, lease = lease_fixture(duration=30.0)
        first = lease.acquire("r1")
        clock.advance(31.0)
        second = lease.acquire("r1")
        assert second["granted"]
        assert second["epoch"] == first["epoch"] + 1

    def test_renew_extends_only_for_current_holder(self):
        clock, lease = lease_fixture(duration=30.0)
        grant = lease.acquire("r1")
        clock.advance(10.0)
        assert lease.renew("r1", grant["epoch"])["granted"]
        assert not lease.renew("r2", grant["epoch"])["granted"]
        assert not lease.renew("r1", grant["epoch"] + 7)["granted"]

    def test_renew_after_expiry_forces_reacquire(self):
        clock, lease = lease_fixture(duration=30.0)
        grant = lease.acquire("r1")
        clock.advance(31.0)
        refusal = lease.renew("r1", grant["epoch"])
        assert not refusal["granted"]
        assert "re-acquire" in refusal["reason"]

    def test_demote_and_enlist_edit_the_isr(self):
        _, lease = lease_fixture()
        grant = lease.acquire("r1")
        lease.enlist("r2", grant["epoch"])
        assert "r2" in lease.store.get_committed("isr")
        lease.demote("r2", grant["epoch"])
        assert "r2" not in lease.store.get_committed("isr")
        # a stale primary cannot edit the membership it no longer owns
        assert not lease.demote("r1", grant["epoch"] - 1)

    def test_isr_survives_arbiter_crash(self):
        clock, lease = lease_fixture()
        grant = lease.acquire("r1")
        lease.enlist("r2", grant["epoch"])
        lease.store.crash()
        lease.store.recover()
        assert lease.store.get_committed("lease")["holder"] == "r1"
        assert sorted(lease.store.get_committed("isr")) == ["r1", "r2"]


class TestWorkerFencing:
    def _request(self, epoch):
        taskclass = TaskClass("T", (InputSetSpec("main"),))
        return WorkRequest(
            instance_id="wf-1", execution_index=0,
            template=DispatchTemplate("t", taskclass.wire, None, ()),
            input_set="main", inputs=(), attempt=0,
            repeats=0, reply_to="execution-node", epoch=epoch,
        )

    def test_stale_epoch_refused_without_executing(self):
        worker = TaskWorker("w1", registry=None)
        worker.fence_epoch = 5
        reply = worker.execute(self._request(epoch=3))
        assert reply.fenced and not reply.ok
        assert worker.executed == []

    def test_higher_epoch_raises_the_fence(self):
        worker = TaskWorker("w1", registry=None)
        worker.execute(self._request(epoch=4))
        assert worker.fence_epoch == 4
        reply = worker.execute(self._request(epoch=2))
        assert reply.fenced


class TestReplicatedHappyPath:
    def test_bootstrap_elects_first_replica(self):
        system = replicated_system(replicas=3)
        roles = [r.role for r in system.execution_replicas]
        assert roles[0] is Role.PRIMARY
        assert roles[1:] == [Role.STANDBY, Role.STANDBY]
        assert system.execution_replicas[0].epoch == 1
        assert system.primary_execution() is system.execution_replicas[0]

    def test_workflow_completes_and_standbys_tail(self):
        system = replicated_system(replicas=3)
        iid = system.instantiate("order", paper_order.ROOT_TASK,
                                 {"order": "o-1"})
        result = system.run_until_terminal(iid)
        assert result["status"] == "completed"
        system.clock.advance(20.0)  # a couple of replication ticks
        primary = system.execution_replicas[0]
        assert primary.replication_settled()
        target = primary.store.wal.last_durable_lsn
        for standby in system.execution_replicas[1:]:
            status = standby.repl_status()
            assert status["tail"]["lsn"] == target
            # a follower holds the whole journal — closed, so not even a
            # promotion will replay it — and nothing built from it
            assert status["instances"] == [iid]
            stored = Journal(standby.store)
            assert stored.closed(iid)
            assert stored.entries(iid) == Journal(primary.store).entries(iid)
            assert standby.runtimes == {} == standby._live
        # which is all it takes to serve: whoever wins the lease answers
        system.execution_node.crash()
        while system.primary_execution() is None:
            system.clock.advance(1.0)
        promoted = system.primary_execution()
        assert promoted in system.execution_replicas[1:]
        assert promoted.runtimes[iid].tree.status.value == "completed"
        assert promoted.result(iid) == result

    def test_demoted_replica_fences_client_calls(self):
        system = replicated_system(replicas=2)
        standby = system.execution_replicas[1]
        from repro.orb.proxy import Proxy

        proxy = Proxy(system.broker, system.client_node, standby.name)
        with pytest.raises(Fenced):
            proxy.list_instances()

    def test_replicate_rejects_stale_epoch(self):
        system = replicated_system(replicas=2)
        system.clock.advance(10.0)
        standby = system.execution_replicas[1]
        reply = standby.replicate({
            "epoch": 0, "writer": "ghost", "reset": False,
            "from_lsn": 0, "last_lsn": 0, "records": [],
        })
        assert not reply["ok"] and reply.get("fenced")


class TestFailover:
    def _run_to_terminal(self, system, iid, max_time=2_000.0):
        return system.run_until_terminal(iid, max_time=max_time)

    def test_standby_promotes_after_primary_crash(self):
        system = replicated_system(replicas=3)
        iid = system.instantiate("order", paper_order.ROOT_TASK,
                                 {"order": "o-1"})
        system.clock.advance(6.0)  # one replication tick: standbys enlisted
        old = system.execution_replicas[0]
        old_epoch = old.epoch
        system.execution_node.crash()
        result = self._run_to_terminal(system, iid)
        assert result["status"] == "completed"
        new = system.primary_execution()
        assert new is not None and new is not old
        assert new.epoch > old_epoch
        assert new.repl_stats["promotions"] == 1

    def test_resurrected_stale_primary_demotes_and_resyncs(self):
        system = replicated_system(replicas=2)
        iid = system.instantiate("order", paper_order.ROOT_TASK,
                                 {"order": "o-1"})
        system.clock.advance(6.0)
        old = system.execution_replicas[0]
        system.execution_node.crash()
        result = self._run_to_terminal(system, iid)
        assert result["status"] == "completed"
        new = system.primary_execution()
        system.execution_node.recover()
        system.clock.advance(120.0)
        assert old.role is Role.STANDBY  # fenced down, not split-brain
        assert old._max_epoch_seen >= new.epoch
        assert old.repl_status()["tail"]["lsn"] == \
            new.store.wal.last_durable_lsn
        # the resynced standby holds the instance in its store, and none of
        # the trees it had as a primary
        assert old.repl_status()["instances"] == [iid]
        assert Journal(old.store).entries(iid) == Journal(new.store).entries(iid)
        assert old.runtimes == {} == old._live

    def test_failover_preserves_journal_exactly_once(self):
        from repro.sim import oracles

        system = replicated_system(replicas=3, workload=paper_trip,
                                   name="trip")
        iid = system.instantiate("trip", paper_trip.ROOT_TASK,
                                 {"user": "u-1"})
        system.clock.advance(6.0)
        system.execution_node.crash()
        result = self._run_to_terminal(system, iid)
        assert result["status"] == "completed"
        new = system.primary_execution()
        assert oracles.check_journal_integrity(new.store) == []
        assert oracles.check_replay_agreement(new) == []
        stores = [r.store for r in system.execution_replicas]
        assert oracles.check_epoch_fencing(stores) == []

    @pytest.mark.parametrize("rebuild", ["crash-recovery", "cold-re-promotion"])
    def test_a_flight_that_survived_a_rebuild_is_a_redispatch(self, rebuild):
        """A pinned flight still unanswered when its coordinator stopped goes
        out again off the pin and with its backoff carried on, whichever
        rebuild it survived: (a) crash + recovery, (b) demotion and the cold
        image rebuild of the re-promotion (which used to resend it on the
        pin, as a first dispatch)."""
        from repro.core.builder import ScriptBuilder, from_input, from_output
        from repro.engine import outcome
        from repro.lang import format_script

        b = ScriptBuilder()
        b.object_class("Data")
        b.taskclass("T").input_set("main").outcome("ok", out="Data")
        b.taskclass("Root").input_set("main").outcome("done", out="Data")
        c = b.compound("wf", "Root")
        c.task("only", "T").implementation(code="impl", location="worker-2").notify(
            "main", from_input("wf", "main")
        ).up()
        c.output("done").object("out", from_output("only", "ok", "out")).up()
        c.up()
        system = WorkflowSystem(replicas=1, lease_duration=30, repl_interval=5)
        system.registry.register("impl", lambda ctx: outcome("ok", out="x"))
        system.deploy("p", format_script(b.build()))
        system.worker_nodes[1].crash()  # the pin: the flight stays unanswered
        iid = system.instantiate("p", "wf", {})
        service = system.execution
        if rebuild == "crash-recovery":
            system.execution_node.crash()
            system.execution_node.recover()
        else:
            service._demote_self("regression test")
        system.clock.advance(6)  # the lease is re-acquired at the next tick
        assert service.is_primary()
        flights = service.runtimes[iid].in_flight
        assert {key: flight.redispatches for key, flight in flights.items()} == {
            ("wf/only", 1): 1
        }
        # the resend (staggered) abandons the pin: the instance completes
        # on the other worker while the pinned one is still down
        assert self._run_to_terminal(system, iid)["status"] == "completed"
        kinds = [event.kind for event in service.rlog.for_instance(iid)]
        assert kinds.count("dispatch") == 1 and kinds.count("redispatch") == 1
        assert system.workers[0].executed and not system.workers[1].executed

    def test_a_deposed_primary_keeps_no_tree(self):
        """A standby holds no runtime, however it became one.  A demotion
        used to leave ``runtimes`` / ``_live`` holding every tree, with their
        armed deadline and stagger closures, until a re-promotion or a resync
        happened to replace them."""
        from repro.engine import outcome

        text = deadline_script()

        def rebuilt(how):
            system = WorkflowSystem(replicas=1, lease_duration=30, repl_interval=5)
            system.registry.register("maybe", lambda ctx: outcome("yes", out="x"))
            system.registry.register("gather", lambda ctx: outcome("gathered", out="y"))
            system.deploy("p", text)
            system.worker_nodes[1].crash()  # the pin: the flight stays unanswered
            iid = system.instantiate("p", "wf", {})
            how(system)
            system.clock.advance(6)  # the lease is re-acquired at the next tick
            service = system.execution
            assert service.is_primary()
            runtime = service.runtimes[iid]
            state = (
                runtime.tree.status.value,
                sorted((node.path, node.machine.state.value) for node in runtime.tree.walk()),
                sorted(runtime.in_flight),
                {key: flight.redispatches for key, flight in runtime.in_flight.items()},
                runtime.deadline_expiries,
            )
            return system, iid, state

        def crash_and_recover(system):
            system.execution_node.crash()
            system.execution_node.recover()

        def demote(system):
            service = system.execution
            old = dict(service.runtimes)
            assert old and service.runtimes[next(iter(old))].armed_deadlines
            service._demote_self("test")
            assert service.role is Role.STANDBY
            assert service.runtimes == {} == service._live
            status = service.repl_status()
            assert status["instances"] == sorted(old) and "image_valid" not in status

        _system, _iid, recovered = rebuilt(crash_and_recover)
        system, iid, repromoted = rebuilt(demote)
        assert repromoted == recovered
        assert repromoted[3] == {("wf/maybe", 1): 1}
        # the old reign's deadline timer is still pending; its tree never saw
        # the result, so were it to fire with effect it would abort `gather`
        result = self._run_to_terminal(system, iid)
        system.clock.advance(60)
        assert (result["status"], result["outcome"]) == ("completed", "done")
        kinds = [entry["type"] for entry in Journal(system.execution_store).entries(iid)]
        assert "force_abort" not in kinds and kinds.count("deadline") == 1

    def test_instantiate_rides_out_failover(self):
        system = replicated_system(replicas=2)
        system.clock.advance(6.0)
        system.execution_node.crash()
        # the client-facing helper retries across the lease turnover
        iid = system.instantiate("order", paper_order.ROOT_TASK,
                                 {"order": "o-2"})
        result = self._run_to_terminal(system, iid)
        assert result["status"] == "completed"
        assert system.primary_execution() is system.execution_replicas[1]

    def test_no_failover_without_standbys(self):
        system = replicated_system(replicas=1)
        iid = system.instantiate("order", paper_order.ROOT_TASK,
                                 {"order": "o-1"})
        system.execution_node.crash()
        system.clock.advance(120.0)
        assert system.primary_execution() is None
        system.execution_node.recover()
        result = self._run_to_terminal(system, iid)
        assert result["status"] == "completed"  # classic single-node recovery


class TestPromotionCache:
    """Promotion does not rebuild the committed cache from the log: whichever
    way a replica reached it, its cache at promotion already equals a fresh
    fold of its durable log (``ObjectStore.ingest`` folds every shipped
    batch; a crash replays; a primary's own commits install what they force)."""

    @staticmethod
    def watch_promotions(monkeypatch):
        from repro.replication.replica import ReplicatedExecutionService
        from repro.txn import wal

        seen = []
        promote = ReplicatedExecutionService._promote

        def checked(self, grant):
            store = self.store
            committed, pending = {}, {}
            wal.fold(store.wal.durable_records(), committed, pending)
            seen.append((self.name, (store._committed, store._pending) == (committed, pending)))
            promote(self, grant)

        monkeypatch.setattr(ReplicatedExecutionService, "_promote", checked)
        return seen

    def fail_over(self, system, iid):
        system.execution_node.crash()
        assert system.run_until_terminal(iid)["status"] == "completed"
        return system.primary_execution()

    def test_after_a_full_resync(self, monkeypatch):
        seen = self.watch_promotions(monkeypatch)
        system = replicated_system(replicas=2)
        iid = system.instantiate("order", paper_order.ROOT_TASK, {"order": "o-1"})
        system.clock.advance(6.0)
        primary, standby = system.execution_replicas
        assert self.fail_over(system, iid) is standby
        assert standby.repl_stats["resyncs"] == 1
        assert seen == [(primary.name, True), (standby.name, True)]

    def test_after_a_standby_crash_and_recovery(self, monkeypatch):
        seen = self.watch_promotions(monkeypatch)
        system = replicated_system(replicas=2)
        primary, standby = system.execution_replicas
        system.instantiate("order", paper_order.ROOT_TASK, {"order": "o-1"})
        system.clock.advance(6.0)
        assert standby.repl_stats["resyncs"] == 1
        standby.node.crash()  # its cache is replayed from its own log
        standby.node.recover()
        applied = standby.repl_stats["tail_applies"]
        iid = system.instantiate("order", paper_order.ROOT_TASK, {"order": "o-2"})
        system.clock.advance(1.0)
        # later batches are folded onto the replay, with no resync between
        assert standby.repl_stats["tail_applies"] > applied
        assert standby.stats["recoveries"] == 1 and standby.repl_stats["resyncs"] == 1
        assert self.fail_over(system, iid) is standby
        assert seen == [(primary.name, True), (standby.name, True)]

    def test_for_a_re_promoted_primary_without_a_resync(self, monkeypatch):
        seen = self.watch_promotions(monkeypatch)
        system = replicated_system(replicas=2)
        iid = system.instantiate("order", paper_order.ROOT_TASK, {"order": "o-1"})
        system.clock.advance(1.0)
        primary = system.execution
        primary._demote_self("test")
        system.clock.advance(5.0)  # its lease is re-acquired at the next tick
        assert primary.is_primary() and primary.epoch == 2
        assert primary.repl_stats["resyncs"] == 0
        assert system.run_until_terminal(iid)["status"] == "completed"
        assert seen == [(primary.name, True)] * 2


def depose_at_next_barrier(service):
    """``service``'s next durability barrier deposes it after the force, inside
    the event — what a fenced push or an unreachable lease service does from
    ``_post_barrier``.  Returns the list that empties once it has happened."""
    armed = [True]
    ship = service._post_barrier

    def deposing():
        ship()
        if armed and service.is_primary():
            armed.clear()
            service._demote_self("test")

    service._post_barrier = deposing
    return armed


class TestDeposedMidEvent:
    """A barrier can depose the primary in the middle of an event; a demotion
    drops every runtime, so the rest of that event runs on a standby — which
    journals nothing, holds nothing and keeps no timer chain it cannot restart."""

    @staticmethod
    def pinned_script():
        from repro.core.builder import ScriptBuilder, from_input, from_output
        from repro.lang import format_script

        b = ScriptBuilder()
        b.object_class("Data")
        b.taskclass("T").input_set("main").outcome("ok", out="Data")
        b.taskclass("Root").input_set("main").outcome("done", out="Data")
        for name, where in (("pinned", {"location": "worker-2"}), ("free", {})):
            c = b.compound(name, "Root")
            c.task("only", "T").implementation(code="impl", **where).notify(
                "main", from_input(name, "main")
            ).up()
            c.output("done").object("out", from_output("only", "ok", "out")).up()
            c.up()
        return format_script(b.build())

    def pinned_system(self, **kwargs):
        from repro.engine import outcome

        system = WorkflowSystem(lease_duration=30, repl_interval=5, **kwargs)
        system.registry.register("impl", lambda ctx: outcome("ok", out="x"))
        system.deploy("p", self.pinned_script())
        system.worker_nodes[1].crash()  # the pin: that flight stays unanswered
        return system

    def test_a_demotion_inside_a_sweep_leaves_a_sweeper_that_restarts(self):
        """The sweep's redispatch takes the barrier that deposes; a finished,
        not yet settled instance is later in the list the sweep walks.  That
        used to raise out of the sweep with ``_sweep_armed`` still set: no
        later reign redispatched, timed out or settled anything."""
        system = self.pinned_system(replicas=1, dispatch_timeout=12, sweep_interval=10)
        service = system.execution
        stuck = system.instantiate("p", "pinned", {})
        system.clock.advance(12)  # past the sweep at 10; overdue at the next
        done = system.instantiate("p", "free", {})
        system.clock.advance(7.9)
        assert service.status(done)["status"] == "completed"
        assert list(service._live) == [stuck, done]
        armed = depose_at_next_barrier(service)
        system.clock.advance(0.2)  # the sweep at 20: redispatch, barrier, deposed
        assert not armed and service.repl_stats["demotions"] == 1
        system.clock.advance(5)  # the lease is re-acquired at the next tick
        assert service.is_primary() and list(service._live) == [stuck]
        system.clock.advance(30)
        # only a sweep settles an instance that finished live
        assert service.status(stuck)["status"] == "completed" and service._live == {}

    def test_nothing_is_journaled_after_the_barrier_that_deposed(self):
        """The first send's barrier deposes; the same pump then comes to a task
        whose deadline was never armed.  Journaling its expiry used to put the
        runtime back into the standby's maps, commit the entry into its store
        and arm a timer that later committed a ``force_abort`` there too."""
        from repro.engine import outcome

        system = WorkflowSystem(replicas=1, lease_duration=30, repl_interval=5)
        system.registry.register("maybe", lambda ctx: outcome("yes", out="x"))
        system.registry.register("gather", lambda ctx: outcome("gathered", out="y"))
        system.deploy("p", deadline_script())
        system.worker_nodes[1].crash()
        system.lease_node.crash()  # it stays a standby: nothing re-promotes it
        service = system.execution
        armed = depose_at_next_barrier(service)
        with pytest.raises(Fenced):
            service.instantiate("p", "wf", "main", {})
        assert not armed and service.role is Role.STANDBY
        system.clock.advance(60)  # past the deadline
        assert service.runtimes == {} == service._live == service.journal.rows
        stored = Journal(service.store)
        (iid,) = stored.instances()
        # the expiry rode in the deposing barrier itself, ahead of the send;
        # nothing (no force_abort) came after it
        assert [entry["type"] for entry in stored.entries(iid)] == ["deadline"]
        assert not stored.closed(iid)

    def test_a_dispatch_whose_own_barrier_deposes_does_not_leave(self):
        """The send of ``pipeline/t2`` takes the barrier that deposes the
        primary.  Its request used to leave anyway, to a worker, under the
        epoch the barrier had just lost."""
        from repro.workloads import chain, script_text

        _script, registry, root, inputs = workload = chain(3)
        system = WorkflowSystem(
            workers=3, replicas=2, registry=registry, lease_duration=30.0, repl_interval=5.0
        )
        system.deploy("chain", script_text(workload))
        service = system.execution
        flush, deposed = service.flush_journal, []

        def deposing(*args):
            flushed = flush(*args)
            about_to_send = any(
                key == ("pipeline/t2", 1) and not flight.sent
                for runtime in service._live.values()
                for key, flight in runtime.in_flight.items()
            )
            if about_to_send and not deposed:
                deposed.append(service.epoch)
                service._demote_self("test")
            return flushed

        invoke, sent = system.broker.invoke_deferred, []

        def watched(caller, target, operation, args=(), **kwargs):
            if caller is service.node and target in service.worker_names:
                sent.append((target, service.is_primary()))
            return invoke(caller, target, operation, args, **kwargs)

        service.flush_journal = deposing
        system.broker.invoke_deferred = watched
        iid = system.instantiate("chain", root, inputs)
        assert system.run_until_terminal(iid, max_time=2_000.0)["status"] == "completed"
        assert deposed and service.repl_stats["demotions"] == 1
        assert sent and all(primary for _worker, primary in sent), sent

    def test_a_promotion_deposed_while_it_rebuilds_takes_no_name(self):
        """A resend of the rebuild takes the barrier that deposes: the replica
        is a standby again, so it arms no sweeper and does not take the public
        name; the next grant promotes it for good."""
        import dataclasses

        from repro.resilience import ResilienceConfig

        config = ResilienceConfig.for_timeouts(30.0, 10.0, seed=0)
        # unstaggered: the rebuild itself resends
        config = dataclasses.replace(config, recovery_stagger=0.0)
        system = self.pinned_system(replicas=2, resilience=config)
        iid = system.instantiate("p", "pinned", {})
        standby = system.execution_replicas[1]
        armed = depose_at_next_barrier(standby)
        system.clock.advance(6)
        system.execution_node.crash()
        while armed:
            system.clock.advance(5)
        assert standby.repl_stats["promotions"] == 1 and standby.role is Role.STANDBY
        assert standby.runtimes == {} == standby._live and not standby._sweep_armed
        assert system.broker.resolve("execution").servant is not standby
        system.clock.advance(5)
        assert standby.is_primary() and standby._sweep_armed
        assert system.broker.resolve("execution").servant is standby
        assert system.run_until_terminal(iid)["status"] == "completed"


class TestStaleTailResync:
    def test_a_tail_left_by_a_deposed_epoch_is_reset(self):
        """A standby whose persisted tail names an older epoch than the
        primary's answers a non-reset batch with ``resync``, even where the
        cursors agree: what followed the last replicated barrier of a deposed
        reign was never acknowledged.  The primary then resets it, and the
        standby's store ends equal to the primary's."""
        system = replicated_system(replicas=2)
        primary, standby = system.execution_replicas
        first = system.instantiate("order", paper_order.ROOT_TASK, {"order": "o-1"})
        system.run_until_terminal(first)
        system.clock.advance(6.0)
        assert primary._standby_acked[standby.name] == primary.store.wal.last_durable_lsn
        tail = standby._tail()
        assert tail["epoch"] == primary.epoch
        # the tail a standby of the deposed reign kept, at the same cursor
        standby.store.commit_batch(standby._tail_write(tail["lsn"], primary.epoch - 1))
        resyncs = standby.repl_stats["resyncs"]
        replies = []
        replicate = standby.replicate

        def answered(batch):
            reply = replicate(batch)
            replies.append((batch["reset"], reply.get("ok"), reply.get("resync")))
            return reply

        standby.replicate = answered
        second = system.instantiate("order", paper_order.ROOT_TASK, {"order": "o-2"})
        system.run_until_terminal(second)
        system.clock.advance(6.0)
        assert replies[:2] == [(False, False, True), (True, True, None)]
        assert standby.repl_stats["resyncs"] == resyncs + 1
        tails = (f"_repl:tail:{primary.name}", f"_repl:tail:{standby.name}")

        def held(store):
            return {key: value for key, value in store.snapshot().items() if key not in tails}

        assert held(standby.store) == held(primary.store)
        assert standby._tail() == {
            "lsn": primary.store.wal.last_durable_lsn, "epoch": primary.epoch,
        }


class TestSettledGating:
    def test_settled_false_while_a_peer_lags(self):
        system = replicated_system(replicas=2)
        primary, standby = system.execution_replicas
        iid = system.instantiate("order", paper_order.ROOT_TASK,
                                 {"order": "o-1"})
        system.clock.advance(6.0)
        assert primary.replication_settled()
        # silence the standby: pushes fail, the primary demotes it from the
        # ISR and keeps serving (availability over replication factor)
        system.replica_nodes[1].crash()
        system.run_until_terminal(iid)
        assert primary.is_primary()
        assert standby.name not in primary.isr
        assert primary.replication_settled()  # settled over the shrunk ISR

    def test_journal_error_path_flushes_buffer(self):
        """Satellite regression: an exception raised between buffering a
        journal entry and the next barrier must flush the buffer, not
        strand it (the error-path flush, ``ExecutionService._record``)."""
        system = replicated_system(replicas=0)
        iid = system.instantiate("order", paper_order.ROOT_TASK,
                                 {"order": "o-1"})
        system.run_until_terminal(iid)
        service = system.execution
        journaled = service.store.get_committed(f"instance:{iid}:meta")
        before = journaled["journal_len"]
        # an illegal reconfiguration raises inside the guarded region after
        # the runtime was touched; the guard must leave the durable journal
        # consistent with the (unchanged) tree
        with pytest.raises(Exception):
            service.reconfigure(iid, "not a script at all {{{")
        meta = service.store.get_committed(f"instance:{iid}:meta")
        assert meta["journal_len"] == before
        assert not service.journal.rows  # the error path drained the buffer


def parked_script(ship_code="ship"):
    """``wf``: ``approve`` parks awaiting an external completion (or a forced
    ``withdrawn``), then ``ship`` runs on its decision."""
    from repro.core.builder import ScriptBuilder, from_input, from_output
    from repro.lang import format_script

    b = ScriptBuilder()
    b.object_class("Data")
    b.taskclass("Approve").input_set("main").outcome("approved", decision="Data").abort_outcome(
        "withdrawn"
    )
    b.taskclass("Ship").input_set("main", decision="Data").outcome("shipped", out="Data")
    b.taskclass("Root").input_set("main").outcome("done", out="Data").outcome("withdrawn")
    c = b.compound("wf", "Root")
    c.task("approve", "Approve").implementation(code="approve").notify(
        "main", from_input("wf", "main")
    ).up()
    c.task("ship", "Ship").implementation(code=ship_code).input(
        "main", "decision", from_output("approve", "approved", "decision")
    ).up()
    c.output("done").object("out", from_output("ship", "shipped", "out")).up()
    c.output("withdrawn").notify(from_output("approve", "withdrawn")).up()
    c.up()
    return format_script(b.build())


def parked_system(replicas):
    from repro.engine import outcome, pending

    system = WorkflowSystem(replicas=replicas, lease_duration=30, repl_interval=5)
    system.registry.register("approve", lambda ctx: pending("waiting for a human"))
    system.registry.register(
        "ship", lambda ctx: outcome("shipped", out=f"shipped:{ctx.value('decision')}")
    )
    system.registry.register(
        "ship2", lambda ctx: outcome("shipped", out=f"v2:{ctx.value('decision')}")
    )
    system.deploy("approval", parked_script())
    return system


def parked_instance(system):
    iid = system.instantiate("approval", "wf", {})
    system.clock.advance(10)  # parked at approve; a standby is enlisted
    assert system.execution_proxy().external_tasks(iid) == ["wf/approve"]
    return iid


def complete_op(service, iid):
    service.complete_task(iid, "wf/approve", "approved", {"decision": "yes"})
    return "result", ("done", "shipped:yes")


def force_abort_op(service, iid):
    service.force_abort(iid, "wf/approve")
    return "force_abort", ("withdrawn", None)


def reconfigure_op(service, iid):
    service.reconfigure(iid, parked_script(ship_code="ship2"))
    return "reconfig", ("done", "v2:yes")


def import_op(service, iid):
    source = parked_system(replicas=0)
    snapshot = source.execution.export_instance(parked_instance(source))
    assert snapshot["instance"] == iid  # the first instance of wf anywhere
    service.import_instance(snapshot)
    return None, ("done", "shipped:yes")


CLIENT_OPS = [complete_op, force_abort_op, reconfigure_op, import_op]


class TestReplicatedClientOps:
    """A primary's synchronous admin operations (PROTOCOLS §12): each answers
    only once every in-sync standby holds what it journaled, raises
    ``Fenced`` when serving it deposed the primary, and what it journaled
    survives the promotion that follows."""

    @staticmethod
    def instance_for(op, system):
        if op is import_op:  # it brings its own, from an unreplicated system
            system.clock.advance(10)  # a standby is enlisted
            return "wf-1"
        return parked_instance(system)

    @pytest.mark.parametrize("op", CLIENT_OPS, ids=lambda op: op.__name__)
    def test_answers_once_the_standby_holds_it_and_survives_a_promotion(self, op):
        system = parked_system(replicas=2)
        iid = self.instance_for(op, system)
        primary, standby = system.execution_replicas
        kind, (outcome_name, value) = op(system.execution_proxy(), iid)
        # no clock advance: the answer itself vouches for the standby's copy
        held = Journal(standby.store).entries(iid)
        assert held == Journal(primary.store).entries(iid) and held
        if kind is not None:
            assert held[-1]["type"] == kind
        system.execution_node.crash()
        while system.primary_execution() is None:
            system.clock.advance(1.0)
        assert system.primary_execution() is standby
        if system.execution_proxy().external_tasks(iid):
            complete_op(system.execution_proxy(), iid)
        result = system.run_until_terminal(iid, max_time=2_000.0)
        assert (result["status"], result["outcome"]) == ("completed", outcome_name)
        assert result["objects"].get("out", {}).get("value") == value

    @pytest.mark.parametrize("op", CLIENT_OPS, ids=lambda op: op.__name__)
    def test_raises_fenced_when_serving_it_deposed_the_primary(self, op):
        system = parked_system(replicas=2)
        iid = self.instance_for(op, system)
        primary = system.execution
        armed = depose_at_next_barrier(primary)
        with pytest.raises(Fenced):
            op(primary, iid)
        assert not armed and primary.role is Role.STANDBY


class TestLeaseExpiry:
    """A primary acts only inside its lease (PROTOCOLS §12): ``is_primary()``
    turns False at the expiry instant, not at the next lease tick, so with a
    term that is not a multiple of the tick no work leaves a lapsed primary
    and no worker fence ever has to refuse one."""

    def test_a_lapsed_primary_stops_acting_at_its_expiry(self):
        from repro.engine import outcome
        from repro.sim.nemesis import CrashAtTime, NemesisSchedule, Partition

        system = WorkflowSystem(
            replicas=2, workers=1, lease_duration=30, repl_interval=25,
            dispatch_timeout=8, sweep_interval=4,
        )
        system.registry.register("impl", lambda ctx: outcome("ok", out="x"))
        system.deploy("p", TestDeposedMidEvent.pinned_script())
        old, new = system.execution_replicas
        sent = []  # (time, epochs) of every work message the old primary sends
        invoke = system.broker.invoke_deferred

        def watched(caller, target, operation, args=(), **kwargs):
            if operation == "perform" and caller is old.node:
                sent.append((system.clock.now, {r["epoch"] for r in args[0]}))
            return invoke(caller, target, operation, args, **kwargs)

        system.broker.invoke_deferred = watched
        NemesisSchedule([
            # the standby's ticks move to 11 + 25k: it polls at 61, the old
            # primary (renewed at 25, so leased until 55) ticks again at 75
            CrashAtTime(1.0, "standby-node-2", downtime=10.0),
            # the old primary's sends are lost until the partition heals
            Partition(2.0, ("execution-node",), ("worker-node-1",), heal_after=63.0),
            Partition(26.0, ("execution-node",), ("lease-node", "standby-node-2")),
        ]).arm(system)
        system.clock.advance(3.0)
        iid = system.instantiate("p", "free", {})
        system.clock.advance(55.0 - 1e-6 - system.clock.now)
        assert old.is_primary() and old.lease["expires_at"] == 55.0
        system.clock.advance(55.0 - system.clock.now)
        # the expiry, not the tick at 75, ends its reign: the role lingers
        assert not old.is_primary() and old.role is Role.PRIMARY
        system.clock.advance(62.0 - system.clock.now)
        assert new.is_primary() and new.epoch == 2
        system.clock.advance(76.0 - system.clock.now)
        assert old.role is Role.STANDBY and old.runtimes == {} == old._live
        assert sent and all(epochs == {1} for _, epochs in sent)
        assert max(at for at, _ in sent) < 55.0
        assert old.stats["fenced_replies"] == 0 == new.stats["fenced_replies"]
        assert system.run_until_terminal(iid, max_time=500.0)["status"] == "completed"


class TestLastDemotion:
    """``repl_status()["last_demotion"]`` keeps why a replica last stopped
    being primary, the epoch it served under and when."""

    def test_a_refused_renewal_and_a_fenced_push_each_leave_their_reason(self):
        system = replicated_system(replicas=2)
        primary, standby = system.execution_replicas
        assert primary.repl_status()["last_demotion"] is None
        # the arbiter moved on under a grant this primary never saw: its next
        # renewal (the tick at 5) is refused
        lease = system.lease
        lease._persist({**lease._lease(), "epoch": primary.epoch + 1}, lease._isr())
        system.clock.advance(6.0)
        assert primary.role is Role.STANDBY
        assert primary.repl_status()["last_demotion"] == {
            "reason": "lease renewal refused", "epoch": 1, "at": 5.0,
        }

        system = replicated_system(replicas=2)
        primary, standby = system.execution_replicas
        system.clock.advance(1.0)
        # the standby has seen a newer epoch: the next push is fenced
        standby._max_epoch_seen = primary.epoch + 1
        with pytest.raises(Fenced):
            primary.instantiate("order", paper_order.ROOT_TASK, "main", {"order": "o-1"})
        assert primary.role is Role.STANDBY
        assert primary.repl_status()["last_demotion"] == {
            "reason": f"push fenced by {standby.name}", "epoch": 1, "at": 1.0,
        }
