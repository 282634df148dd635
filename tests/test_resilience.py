"""Unit + integration tests for the adaptive dispatch resilience layer.

Covers the client's retry policy (backoff shape, deterministic jitter), the
dispatcher's redispatch cap and recovery stagger values, per-worker
circuit breakers (state machine), health-aware routing, post-recovery
staggering, the redispatch cap (abandonment), and — end to end — that hedged
duplicate dispatches are never applied twice.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilience import (
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    HealthRegistry,
    ResilienceConfig,
    ResilienceLog,
    RetryPolicy,
)
from repro.resilience.policy import BASE_DELAY, MAX_DELAY
from repro.services import WorkflowSystem
from repro.sim.nemesis import CrashAtTime, NemesisSchedule, Partition, RandomCrashes
from repro.workloads import paper_order


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_unjittered_backoff_is_monotone_then_capped(self):
        # from the constant base (30 s) up to the constant cap (120 s)
        policy = RetryPolicy(multiplier=1.5, jitter=0.0)
        delays = [policy.raw_delay(n) for n in range(6)]
        assert delays == [30.0, 45.0, 67.5, 101.25, 120.0, 120.0]
        assert delays[0] == BASE_DELAY and delays[-1] == MAX_DELAY
        assert all(a <= b for a, b in zip(delays, delays[1:]))

    def test_jittered_delay_stays_inside_band(self):
        policy = RetryPolicy(multiplier=2.0, jitter=0.2)
        for attempt in range(8):
            raw = policy.raw_delay(attempt)
            d = policy.delay("i-1:/a/b:0", attempt)
            assert raw * 0.8 <= d <= raw * 1.2

    def test_zero_jitter_equals_raw(self):
        policy = RetryPolicy(jitter=0.0)
        assert policy.delay("any-key", 3) == policy.raw_delay(3)

    def test_exhausted_respects_cap_and_none(self):
        capped = ResilienceConfig(max_redispatches=3)
        assert not capped.exhausted(2)
        assert capped.exhausted(3)
        unbounded = ResilienceConfig(max_redispatches=None)
        assert not unbounded.exhausted(10**6)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)

    def test_stagger_in_window_and_deterministic(self):
        config = ResilienceConfig(recovery_stagger=5.0, seed=9)
        offsets = {config.stagger(f"i-{n}:/t:0:1") for n in range(50)}
        assert all(0.0 <= o < 5.0 for o in offsets)
        assert len(offsets) > 25  # actually spread, not collapsed on one value
        assert config.stagger("i-1:/t:0:1") == config.stagger("i-1:/t:0:1")

    def test_stagger_disabled_window(self):
        assert ResilienceConfig(recovery_stagger=0.0).stagger("k") == 0.0

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        key=st.text(min_size=1, max_size=40),
        attempt=st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_jitter_is_deterministic_under_fixed_seed(self, seed, key, attempt):
        a = RetryPolicy(jitter=0.3, seed=seed)
        b = RetryPolicy(jitter=0.3, seed=seed)
        assert a.delay(key, attempt) == b.delay(key, attempt)
        raw = a.raw_delay(attempt)
        assert raw * 0.7 <= a.delay(key, attempt) <= raw * 1.3

    @given(key=st.text(min_size=1, max_size=40), hint=st.floats(0.0, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_schedule_matches_per_attempt_delays(self, key, hint):
        # the client's overload schedule: the jittered delay of its own key,
        # never earlier than the service's retry-after hint
        policy = RetryPolicy(jitter=0.15, seed=3)
        for n in range(6):
            delay = policy.delay(f"overload:{key}", n)
            assert policy.overload_backoff(key, n, hint) == max(hint, delay)


# ---------------------------------------------------------------------------
# CircuitBreaker
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def make(self, threshold=3, cooldown=60.0):
        return CircuitBreaker(BreakerConfig(failure_threshold=threshold, cooldown=cooldown))

    def test_starts_closed_and_allows(self):
        b = self.make()
        assert b.state(0.0) is BreakerState.CLOSED
        assert b.allow(0.0)

    def test_trips_after_threshold_consecutive_failures(self):
        b = self.make(threshold=3)
        assert b.record_failure(1.0) is None
        assert b.record_failure(2.0) is None
        assert b.record_failure(3.0) is BreakerState.OPEN
        assert b.state(3.0) is BreakerState.OPEN
        assert not b.allow(3.0)
        assert b.trips == 1

    def test_success_resets_failure_streak(self):
        b = self.make(threshold=3)
        b.record_failure(1.0)
        b.record_failure(2.0)
        b.record_success(2.5)
        b.record_failure(3.0)
        assert b.state(3.0) is BreakerState.CLOSED  # streak was broken

    def test_half_open_after_cooldown_admits_limited_probes(self):
        b = self.make(threshold=1, cooldown=10.0)
        b.record_failure(0.0)
        assert b.state(5.0) is BreakerState.OPEN
        assert b.state(10.0) is BreakerState.HALF_OPEN
        assert b.allow(10.0)        # the single probe slot
        assert not b.allow(10.0)    # slot consumed

    def test_probe_success_closes(self):
        b = self.make(threshold=1, cooldown=10.0)
        b.record_failure(0.0)
        b.allow(10.0)
        assert b.record_success(11.0) is BreakerState.CLOSED
        assert b.state(11.0) is BreakerState.CLOSED
        assert b.allow(11.0)

    def test_probe_failure_reopens_for_fresh_cooldown(self):
        b = self.make(threshold=1, cooldown=10.0)
        b.record_failure(0.0)
        b.allow(10.0)
        assert b.record_failure(12.0) is BreakerState.OPEN
        assert b.state(15.0) is BreakerState.OPEN        # new cooldown from t=12
        assert b.state(22.0) is BreakerState.HALF_OPEN
        assert b.trips == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerConfig(cooldown=-1.0)


# ---------------------------------------------------------------------------
# HealthRegistry routing
# ---------------------------------------------------------------------------


def registry(names=("w1", "w2", "w3"), **cfg_kw):
    cfg = ResilienceConfig.for_timeouts(20.0, 5.0, **cfg_kw)
    return HealthRegistry(list(names), cfg, ResilienceLog())


class TestHealthRouting:
    def test_prefers_lower_latency(self):
        reg = registry()
        reg.on_reply("w1", latency=9.0, now=10.0)
        reg.on_reply("w2", latency=1.0, now=10.0)
        reg.on_reply("w3", latency=5.0, now=10.0)
        assert reg.route(now=10.0) == "w2"

    def test_in_flight_load_penalises(self):
        reg = registry()
        reg.on_reply("w1", latency=1.0, now=1.0)
        reg.on_reply("w2", latency=1.0, now=1.0)
        for _ in range(5):
            reg.on_dispatch("w1", now=2.0)
        assert reg.route(now=2.0) == "w2"

    def test_open_breaker_is_skipped(self):
        reg = registry()
        for t in (1.0, 2.0, 3.0):
            reg.on_timeout("w1", now=t)   # trips w1's breaker
        assert reg.workers["w1"].breaker.state(3.0) is BreakerState.OPEN
        for _ in range(20):
            assert reg.route(now=4.0) != "w1"

    def test_falls_back_when_every_breaker_open(self):
        reg = registry(names=("w1", "w2"))
        for name in ("w1", "w2"):
            for t in (1.0, 2.0, 3.0):
                reg.on_timeout(name, now=t)
        # progress beats caution: a fully-open fleet still routes somewhere
        assert reg.route(now=4.0) in ("w1", "w2")

    def test_exclude_can_empty_the_pool(self):
        reg = registry(names=("w1", "w2"))
        assert reg.route(now=0.0, exclude=("w1", "w2")) is None

    def test_deterministic_tiebreak(self):
        reg = registry()
        assert reg.route(now=0.0) == "w1"  # equal scores: lowest name wins

    def test_on_timeout_reports_the_trip_and_logs_it(self):
        reg = registry()
        assert [reg.on_timeout("w1", now=t) for t in (1.0, 2.0, 3.0)] == [False, False, True]
        assert reg.on_timeout("nobody", now=3.0) is False
        (event,) = reg.log.entries
        assert (event.kind, event.worker) == ("breaker-open", "w1")

    def test_reset_forgets_observations(self):
        reg = registry()
        for t in (1.0, 2.0, 3.0):
            reg.on_timeout("w1", now=t)
        reg.reset()
        assert reg.workers["w1"].breaker.state(4.0) is BreakerState.CLOSED
        assert reg.workers["w1"].breaker.failures == 0


# ---------------------------------------------------------------------------
# Integration: abandonment, staggered recovery, hedging
# ---------------------------------------------------------------------------


def order_system(**kw):
    system = WorkflowSystem(**kw)
    paper_order.default_registry(registry=system.registry)
    system.deploy("order", paper_order.SCRIPT_TEXT)
    return system


class TestAbandonment:
    def test_capped_retries_surface_a_decisive_failure(self):
        """With every worker permanently dead, a capped policy abandons the
        flight and the instance terminates (via the §3 failure semantics)
        instead of retrying forever."""
        system = order_system(
            workers=2,
            dispatch_timeout=10.0,
            sweep_interval=5.0,
            resilience=ResilienceConfig.for_timeouts(
                10.0, 5.0, max_redispatches=3
            ),
        )
        NemesisSchedule(  # permanent
            [CrashAtTime(0.1, node.name, downtime=None) for node in system.worker_nodes]
        ).arm(system)
        iid = system.instantiate("order", paper_order.ROOT_TASK, {"order": "doomed"})
        result = system.run_until_terminal(iid, max_time=5_000)
        assert result["status"] in ("aborted", "failed")
        assert system.execution.stats["abandoned"] >= 1
        report = system.execution.resilience_report()
        assert report["events"].get("abandon", 0) >= 1

    def test_uncapped_policy_never_abandons(self):
        system = order_system(
            workers=2,
            dispatch_timeout=10.0,
            sweep_interval=5.0,
            resilience=ResilienceConfig.for_timeouts(
                10.0, 5.0, max_redispatches=None
            ),
        )
        NemesisSchedule(
            [CrashAtTime(0.1, node.name, downtime=200.0) for node in system.worker_nodes]
        ).arm(system)
        iid = system.instantiate("order", paper_order.ROOT_TASK, {"order": "patient"})
        result = system.run_until_terminal(iid, max_time=20_000)
        assert result["status"] == "completed"
        assert system.execution.stats["abandoned"] == 0


class TestRecoveryStagger:
    def test_redispatch_after_recovery_is_staggered(self):
        system = order_system(workers=2, dispatch_timeout=20.0, sweep_interval=5.0)
        iids = [
            system.instantiate("order", paper_order.ROOT_TASK, {"order": f"s-{i}"})
            for i in range(4)
        ]
        NemesisSchedule([CrashAtTime(1.0, "execution-node", downtime=30.0)]).arm(system)
        for iid in iids:
            result = system.run_until_terminal(iid, max_time=20_000)
            assert result["status"] == "completed"
        assert system.execution.stats["recoveries"] >= 1
        assert system.execution.stats["staggered"] >= 2
        stagger_events = [e for e in system.execution.rlog.entries if e.kind == "stagger"]
        # each event's detail carries its jittered offset ("resend +d.dd");
        # distinct offsets mean the herd actually spread over the window
        offsets = {e.detail for e in stagger_events}
        assert len(offsets) >= 2

    def test_stagger_is_deterministic_across_identical_runs(self):
        def run():
            system = order_system(workers=2, dispatch_timeout=20.0, sweep_interval=5.0)
            iids = [
                system.instantiate("order", paper_order.ROOT_TASK, {"order": f"d-{i}"})
                for i in range(3)
            ]
            NemesisSchedule([CrashAtTime(1.0, "execution-node", downtime=30.0)]).arm(system)
            for iid in iids:
                system.run_until_terminal(iid, max_time=20_000)
            return [
                (e.time, e.instance, e.task)
                for e in system.execution.rlog.entries
                if e.kind == "stagger"
            ]

        assert run() == run()


class TestHedging:
    def chaos_run(self):
        system = order_system(
            workers=3,
            seed=42,
            dispatch_timeout=20.0,
            sweep_interval=5.0,
        )
        iids = [
            system.instantiate("order", paper_order.ROOT_TASK, {"order": f"h-{i}"})
            for i in range(10)
        ]
        workers = tuple(node.name for node in system.worker_nodes)  # the journal stays put
        NemesisSchedule([RandomCrashes(workers, interval=10.0, downtime=30.0, seed=7)]).arm(system)
        for iid in iids:
            result = system.run_until_terminal(iid, max_time=100_000)
            assert result["status"] == "completed", iid
        return system, iids

    def test_hedged_duplicates_never_double_apply(self):
        system, iids = self.chaos_run()
        assert system.execution.stats["hedges"] > 0  # hedging actually exercised
        for iid in iids:
            journal = system.execution.export_instance(iid)["journal"]
            seen = set()
            for entry in journal:
                if entry.get("type") != "result":
                    continue
                key = (entry["path"], entry["exec"])
                assert key not in seen, (iid, key)
                seen.add(key)

    def test_duplicate_replies_counted_not_applied(self):
        system, iids = self.chaos_run()
        # any hedge whose loser also replied shows up here; the assertion
        # above proves none of them reached the journal twice
        assert system.execution.stats["duplicate_replies"] >= 0

    def test_breaker_trips_reported_in_stats(self):
        system = order_system(workers=2, dispatch_timeout=10.0, sweep_interval=5.0)
        NemesisSchedule([CrashAtTime(0.1, "worker-node-1", downtime=400.0)]).arm(system)
        iids = [
            system.instantiate("order", paper_order.ROOT_TASK, {"order": f"b-{i}"})
            for i in range(4)
        ]
        for iid in iids:
            result = system.run_until_terminal(iid, max_time=20_000)
            assert result["status"] == "completed"
        report = system.execution.resilience_report()
        assert report["stats"]["breaker_trips"] >= 1
        # the service counts each trip the registry reports, once
        assert report["stats"]["breaker_trips"] == report["events"]["breaker-open"]
        assert report["stats"]["breaker_trips"] == sum(w["trips"] for w in report["workers"])
        names = {w["worker"] for w in report["workers"]}
        assert names == {"worker-1", "worker-2"}


# the plain dispatcher as ordinary values: no hedge, no abandonment, no
# recovery stagger (every attempt is awaited the system's dispatch_timeout)
FIXED_INTERVAL = ResilienceConfig(hedge_delay=None, max_redispatches=None, recovery_stagger=0.0)


class TestFixedIntervalValues:
    def test_schedule_is_constant_and_unbounded(self):
        assert WorkflowSystem(dispatch_timeout=20.0).execution.dispatch_timeout == 20.0
        assert not FIXED_INTERVAL.exhausted(10**6)
        assert FIXED_INTERVAL.stagger("wf-1:/a:1:3") == 0.0

    def test_the_default_dispatcher_waits_the_same_interval_every_time(self):
        # every work leg is dropped: under the defaults (hedging, breakers
        # and all) a flight's second and third redispatches each follow the
        # one before by dispatch_timeout, to within one sweep — the wait
        # does not grow
        system = order_system(workers=2, dispatch_timeout=20.0, sweep_interval=5.0)
        workers = tuple(node.name for node in system.worker_nodes)
        NemesisSchedule(
            [Partition(system.clock.now, ("execution-node",), workers, heal_after=300.0)]
        ).arm(system)
        iid = system.instantiate("order", paper_order.ROOT_TASK, {"order": "cut"})
        assert system.run_until_terminal(iid, max_time=10_000)["status"] == "completed"
        redispatched = {}
        for event in system.execution.rlog.for_instance(iid):
            if event.kind == "redispatch":
                redispatched.setdefault(event.task, []).append(event.time)
        retried = [times for times in redispatched.values() if len(times) >= 3]
        assert retried, redispatched
        for first, second, third in (times[:3] for times in retried):
            assert 20.0 <= second - first < 25.0, (first, second, third)
            assert 20.0 <= third - second < 25.0, (first, second, third)

    def test_constant_delay_and_no_adaptive_activity(self):
        system = order_system(
            workers=2,
            dispatch_timeout=20.0,
            sweep_interval=5.0,
            resilience=FIXED_INTERVAL,
        )
        # the whole fleet is away for the first two attempts of the first
        # tasks: each worker times out twice, one short of tripping a breaker
        NemesisSchedule(
            [CrashAtTime(0.1, node.name, downtime=35.0) for node in system.worker_nodes]
        ).arm(system)
        iid = system.instantiate("order", paper_order.ROOT_TASK, {"order": "fixed"})
        result = system.run_until_terminal(iid, max_time=10_000)
        assert result["status"] == "completed"
        attempts = {}
        for event in system.execution.rlog.for_instance(iid):
            if event.kind in ("dispatch", "redispatch"):
                attempts.setdefault(event.task, []).append(event.time)
        retried = [times for times in attempts.values() if len(times) >= 3]
        assert retried, attempts
        for times in retried:
            # base delay 20 on a 5-second sweep: every wait ends on a tick
            gaps = [b - a for a, b in zip(times, times[1:])]
            assert gaps == [20.0] * len(gaps), times
        stats = system.execution.stats
        assert stats["redispatches"] >= 2
        assert stats["hedges"] == 0
        assert stats["breaker_trips"] == 0
        assert stats["abandoned"] == 0
