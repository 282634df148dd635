"""One work message per worker per drained batch (docs/PROTOCOLS.md §4.2, §11).

* **A drain sends at most one message per worker**, carrying that worker's
  requests in first-routed order, and the instance ends as the sequential
  engine's does.
* **A batch of one is the message it always was**: same legs, same draws.
* **Lanes are charged per request in batch order**, and the replies that
  finish at one instant share one reply leg.
* **The failure model applies per leg**: a lost batch leg loses every flight
  in it, each redispatched on its own deadline; a crash point that fires
  mid-batch ends the batch, and every flight still completes exactly once.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.engine import LocalEngine
from repro.net.network import LatencyModel
from repro.orb.broker import DelayedResult
from repro.resilience import ResilienceConfig
from repro.services import WorkflowSystem
from repro.services.execution import Dispatch
from repro.services.worker import ServiceProfile, TaskWorker
from repro.sim import crashpoints
from repro.sim.crashpoints import ArmedCrash, CrashPointInjector, SimulatedCrash
from repro.sim.nemesis import Burst, NemesisSchedule
from repro.sim.oracles import (
    check_closed_is_settled,
    check_journal_integrity,
    check_replay_agreement,
)
from repro.workloads import chain, diamond, fan, random_dag, script_text

from tests.test_concurrent_engine import distributed_fingerprint, fingerprint


def deployed(workload, **kwargs):
    _script, registry, root, inputs = workload
    system = WorkflowSystem(registry=registry, **kwargs)
    system.deploy("wl", script_text(workload))
    return system, root, inputs


def watch_posts(service):
    """Every :class:`Dispatch` of ``service`` that sent flights (read from its
    ``tap``), as the list of messages it sent: ``(worker, task paths)`` per
    message, in send order."""
    posts, messages = [], []
    invoke = service.broker.invoke_deferred

    def watched_invoke(caller, target, operation, args=(), **kwargs):
        if operation == "perform":
            messages.append((target, [r["template"].task_path for r in args[0]]))
        return invoke(caller, target, operation, args, **kwargs)

    def tap(effect):
        if type(effect) is Dispatch and effect.flights:
            posts.append(messages[:])
            messages.clear()

    service.broker.invoke_deferred = watched_invoke
    service.tap = tap
    return posts


def journaled_results(service, iid):
    return [
        (entry["path"], entry["exec"])
        for entry in service.journal.entries(iid)
        if entry["type"] == "result"
    ]


class TestOneMessagePerWorker:
    @pytest.mark.parametrize("workload, workers", [
        (fan(8), 2),
        (fan(8), 3),
        (diamond(), 2),
        *((random_dag(16, seed=seed), 3) for seed in range(6)),
    ], ids=["fan8-w2", "fan8-w3", "diamond", *(f"dag-{seed}" for seed in range(6))])
    def test_a_drain_sends_at_most_one_message_per_worker(self, workload, workers):
        script, registry, root, inputs = workload
        sequential = LocalEngine(registry).run(script, root, inputs=inputs)
        system, root, inputs = deployed(workload, workers=workers, seed=11)
        service = system.execution
        posts = watch_posts(service)
        iid = system.instantiate("wl", root, inputs)
        result = system.run_until_terminal(iid)
        assert distributed_fingerprint(service.result(iid)) == fingerprint(sequential)
        assert result["status"] == "completed"
        for messages in posts:
            targets = [worker for worker, _paths in messages]
            assert len(targets) == len(set(targets)), messages
        sent = [paths for messages in posts for _worker, paths in messages]
        assert sorted(path for paths in sent for path in paths) == sorted(
            path for path, _exec in journaled_results(service, iid)
        )
        assert system.broker.stats.invocations - len(sent) == 3  # deploy, instantiate, result

    def test_a_fan_out_shares_a_leg_per_worker_and_a_reply_leg_back(self):
        system, root, inputs = deployed(fan(8), workers=2)
        service = system.execution
        posts = watch_posts(service)
        replies = []
        handle = service._handle_replies

        def counted(batch):
            replies.append(len(batch))
            handle(batch)

        service._handle_replies = counted
        iid = system.instantiate("wl", root, inputs)
        assert system.run_until_terminal(iid)["status"] == "completed"
        (fan_out,) = [messages for messages in posts if len(messages) > 1]
        widths = sorted(len(paths) for _worker, paths in fan_out)
        assert len(widths) == 2 and sum(widths) == 8
        assert sorted(replies) == sorted([1, 1, *widths])  # source, sink, a leg per worker
        # four messages there and four reply legs back
        assert system.network.stats.sent == 2 * (1 + 2 + 1)


class TestBatchOfOne:
    def test_a_chain_sends_what_it_sent_one_request_at_a_time(self):
        """``chain(8)`` never sends two requests at once: its legs, its
        latency draws and so the instants its replies land are pinned to
        the figures of one deferred invocation per request."""
        _script, registry, root, inputs = workload = chain(8)
        system = WorkflowSystem(workers=2, registry=registry, seed=7)
        system.deploy("chain", script_text(workload))
        service = system.execution
        handle, landed = service._handle_reply, []

        def timed(iid, reply):
            landed.append(round(system.clock.now, 12))
            handle(iid, reply)

        service._handle_reply = timed
        iid = system.instantiate("chain", root, inputs)
        assert system.run_until_terminal(iid)["status"] == "completed"
        assert system.network.stats.sent == 16
        assert system.broker.stats.invocations == 11
        assert landed == [
            2.237340969379, 4.599026349233, 7.049811809842, 9.332529138824,
            11.568099809876, 13.648384028336, 16.274069685243, 18.447590148121,
        ]
        assert system.network._rng.random() == 0.6274332224055893


class TestLanes:
    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_replies_leave_at_the_finish_instants_of_k_separate_requests(self, k):
        service_time = 3.0
        system, root, inputs = deployed(
            fan(k), workers=1, latency=LatencyModel(1.0, 0.0),
            worker_service_time=service_time, worker_lanes=2,
        )
        service = system.execution
        (worker,) = system.workers
        answers = []
        perform = TaskWorker.perform

        def recorded(self, requests):
            answer = perform(self, requests)
            answers.append((system.clock.now, requests, answer))
            return answer

        worker.perform = recorded.__get__(worker)
        legs = []
        handle = service._handle_replies

        def landed(batch):
            legs.append((system.clock.now, [reply.task_path for reply in batch]))
            handle(batch)

        service._handle_replies = landed
        iid = system.instantiate("wl", root, inputs)
        assert system.run_until_terminal(iid)["status"] == "completed"
        (fan_at, requests, answer), = [a for a in answers if len(a[1]) == k]
        assert isinstance(answer, DelayedResult)
        # the reference: a twin worker taking the same k requests one by one
        # at the same instant, each its own invocation
        twin = TaskWorker("twin", worker.registry, ServiceProfile(service_time, lanes=2))
        twin.bind(worker.node)
        separate = [twin.perform((request,)).parts for request in requests]
        assert all(len(parts) == 1 for parts in separate)
        finishes = [parts[0][0] for parts in separate]
        assert finishes == [service_time * (1 + n // 2) for n in range(k)]
        assert [delay for delay, _replies in answer.parts] == sorted(set(finishes))
        assert [len(replies) for _delay, replies in answer.parts] == [
            finishes.count(delay) for delay in sorted(set(finishes))
        ]
        # one reply leg per finish instant, landing one hop after it
        fan_legs = [leg for leg in legs if fan_at < leg[0] < fan_at + 1.0 + max(finishes) + 1e-9]
        assert [at - fan_at for at, _paths in fan_legs] == [
            delay + 1.0 for delay in sorted(set(finishes))
        ]

    def test_a_fenced_reply_occupies_no_lane_and_leaves_at_once(self):
        system, root, inputs = deployed(fan(3), workers=1, worker_service_time=2.0)
        (worker,) = system.workers
        batches = []
        perform = TaskWorker.perform

        def recorded(self, requests):
            batches.append(requests)
            return perform(self, requests)

        worker.perform = recorded.__get__(worker)
        system.run_until_terminal(system.instantiate("wl", root, inputs))
        first, second, third = next(batch for batch in batches if len(batch) == 3)
        # the second request's epoch is the old one, the others' a newer one
        epoch = second["epoch"] + 1
        first, third = (type(r)(r, epoch=epoch) for r in (first, third))
        twin = TaskWorker("twin", worker.registry, ServiceProfile(2.0, lanes=1))
        twin.bind(worker.node)
        twin.fence_epoch = epoch
        answer = twin.perform((first, second, third))
        assert [(delay, [reply.task_path for reply in replies]) for delay, replies in answer.parts] == [
            (2.0, [first["template"].task_path]),
            (0.0, [second["template"].task_path]),
            (4.0, [third["template"].task_path]),
        ]
        ((_delay, (refused,)),) = answer.parts[1:2]
        assert refused.fenced and not refused.ok
        assert [path for _iid, path, _exec in twin.executed] == [
            first["template"].task_path, third["template"].task_path]
        assert twin._lane_busy == [system.clock.now + 4.0]


class TestFailuresPerLeg:
    def test_a_lost_batch_leg_is_redispatched_flight_by_flight(self):
        # jitter-free hops: the source's reply lands at 2.0, and the fan-out
        # leaves then, inside the burst; nothing else is sent during it
        sweep = 0.5
        system, root, inputs = deployed(
            fan(8), workers=2, latency=LatencyModel(1.0, 0.0), sweep_interval=sweep,
            dispatch_timeout=20.0,
            resilience=replace(ResilienceConfig.for_timeouts(20.0, sweep), hedge_delay=None),
        )
        service = system.execution
        NemesisSchedule([Burst(1.5, 1.0, "loss_rate", 1.0)]).arm(system)
        posts = watch_posts(service)
        iid = system.instantiate("wl", root, inputs)
        result = system.run_until_terminal(iid, max_time=2_000.0)
        assert result["status"] == "completed"
        assert system.network.stats.dropped_loss == 2  # one leg per worker
        (fan_out,) = [messages for messages in posts if len(messages) > 1]
        lost = sorted(path for _worker, paths in fan_out for path in paths)
        assert len(lost) == 8
        redispatched = {
            event.task: event.time for event in service.rlog.entries if event.kind == "redispatch"
        }
        assert sorted(redispatched) == lost
        # every lost flight is due dispatch_timeout after the burst's send:
        # all go at the first sweep at or after it
        (at,) = set(redispatched.values())
        assert 2.0 + 20.0 <= at < 2.0 + 20.0 + sweep
        resends = [
            messages for messages in posts[posts.index(fan_out) + 1:]
            if any(set(paths) & set(lost) for _worker, paths in messages)
        ]
        assert sorted(paths for (_worker, paths), in resends) == [[path] for path in lost]
        results = journaled_results(service, iid)
        assert len(results) == len(set(results)) == 10
        store = system.execution_store
        assert check_journal_integrity(store) == []
        assert check_replay_agreement(service) == []
        assert check_closed_is_settled(service) == []

    def test_a_crash_mid_batch_ends_the_batch_and_every_flight_completes_once(self):
        script, registry, root, inputs = workload = fan(8)
        sequential = LocalEngine(registry).run(script, root, inputs=inputs)
        system, root, inputs = deployed(workload, workers=1, dispatch_timeout=10.0)
        service = system.execution
        (worker,) = system.workers
        batches, crashed, handled = [], [], []
        perform, handle = TaskWorker.perform, service._handle_reply

        def recorded(self, requests):
            batches.append([r["template"].task_path for r in requests])
            return perform(self, requests)

        def timed(iid, reply):
            handled.append((system.clock.now, reply.task_path))
            handle(iid, reply)

        def crash(node_name, _fault, scope):
            crashed.append((system.clock.now, [path for _iid, path, _exec in scope.executed]))
            worker.node.crash()
            system.clock.call_after(30.0, worker.node.recover, label="test:recover")

        worker.perform = recorded.__get__(worker)
        service._handle_reply = timed
        injector = CrashPointInjector(crash)
        injector.bind(worker, worker.node.name)
        # hit 1 is the source; hits 2 and 3 the fan-out batch's first two
        injector.arm(ArmedCrash("worker.execute.post", at_hit=3))
        iid = system.instantiate("wl", root, inputs)
        crashpoints.install(injector)
        try:
            while (system.fate(iid) or {}).get("status") != "completed":
                assert system.clock.now < 2_000.0
                try:
                    system.clock.advance(1.0)
                except SimulatedCrash:
                    pass
        finally:
            crashpoints.uninstall()
        ((crashed_at, ran),) = crashed
        fan_out = batches[1]
        assert len(fan_out) == 8
        # the batch ended at the request whose crash point fired: the rest
        # never ran, and the reply already finished never left
        assert ran[1:] == fan_out[:2]
        later = [at for at, path in handled if path in fan_out]
        assert len(later) == 8 and min(later) >= crashed_at + 30.0
        assert distributed_fingerprint(service.result(iid)) == fingerprint(sequential)
        results = journaled_results(service, iid)
        assert len(results) == len(set(results)) == 10
        assert check_journal_integrity(system.execution_store) == []
        assert check_replay_agreement(service) == []
