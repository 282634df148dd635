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
from repro.replication import FailureDetector, LeaseService, Role
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
        assert "r2" in lease.lease_info()["isr"]
        lease.demote("r2", grant["epoch"])
        assert "r2" not in lease.lease_info()["isr"]
        # a stale primary cannot edit the membership it no longer owns
        assert not lease.demote("r1", grant["epoch"] - 1)

    def test_isr_survives_arbiter_crash(self):
        clock, lease = lease_fixture()
        grant = lease.acquire("r1")
        lease.enlist("r2", grant["epoch"])
        lease.store.crash()
        lease.store.recover()
        info = lease.lease_info()
        assert info["holder"] == "r1"
        assert sorted(info["isr"]) == ["r1", "r2"]


class TestFailureDetector:
    def test_suspects_after_misses(self):
        detector = FailureDetector()
        for t in range(10):
            detector.missed("r1", float(t))
        assert detector.suspected("r1", 10.0)
        detector.renewal("r1", 11.0)
        assert not detector.suspected("r1", 11.0)


class TestWorkerFencing:
    def _request(self, epoch):
        taskclass = TaskClass("T", (InputSetSpec("main"),))
        return WorkRequest(
            instance_id="wf-1", execution_index=0,
            template=DispatchTemplate("t", taskclass.wire, None, ()),
            input_set="main", inputs=(), attempt=0,
            repeats=0, reply_to="execution-node", epoch=epoch,
        )  # a plain dict: the one wire form

    def test_stale_epoch_refused_without_executing(self):
        worker = TaskWorker("w1", registry=None)
        worker.fence_epoch = 5
        reply = worker.execute(self._request(epoch=3))
        assert reply["fenced"] and not reply["ok"]
        assert reply["epoch"] == 5
        assert worker.executed == []

    def test_higher_epoch_raises_the_fence(self):
        worker = TaskWorker("w1", registry=None)
        worker.execute(self._request(epoch=4))
        assert worker.fence_epoch == 4
        reply = worker.execute(self._request(epoch=2))
        assert reply.get("fenced")


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


def depose_at_next_barrier(service):
    """``service``'s next durability barrier deposes it after the force, inside
    the event — what a fenced push or an unreachable lease service does from
    ``_post_barrier``.  Returns the list that empties once it has happened."""
    armed = [True]
    flush = service.flush_journal

    def deposing(*args):
        flushed = flush(*args)
        if armed and service.is_primary():
            armed.clear()
            service._demote_self("test")
        return flushed

    service.flush_journal = deposing
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
        assert service.runtimes == {} == service._live and not service.journal.buffer
        stored = Journal(service.store)
        (iid,) = stored.instances()
        assert stored.entries(iid) == [] and not stored.closed(iid)

    def test_a_promotion_deposed_while_it_rebuilds_takes_no_name(self):
        """A resend of the rebuild takes the barrier that deposes: the replica
        is a standby again, so it arms no sweeper and does not take the public
        name; the next grant promotes it for good."""
        import dataclasses

        from repro.resilience import ResilienceConfig

        config = ResilienceConfig.for_timeouts(30.0, 10.0, seed=0)
        config = dataclasses.replace(  # unstaggered: the rebuild itself resends
            config, policy=dataclasses.replace(config.policy, recovery_stagger=0.0)
        )
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
        assert not service.journal.buffer  # the error path drained the buffer
