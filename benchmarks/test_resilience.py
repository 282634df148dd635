"""Adaptive dispatch resilience vs the fixed-interval baseline.

A stream of order instances arrives while ``RandomCrasher`` repeatedly takes
worker nodes down.  The baseline is the fixed-interval dispatcher as a set of
ordinary values (``FIXED_INTERVAL``): every attempt awaited the same
``dispatch_timeout``, no hedging, no redispatch cap, no recovery stagger — so
a dispatch that lands on a dead worker stalls its instance for a full timeout
(or several).  The adaptive defaults hedge slow flights and back off with
deterministic jitter — same chaos, same seeds, strictly better mean
completion time (11.60 vs 9.62 virtual seconds; 13.52 if the baseline keeps
``RetryPolicy``'s default 30-second base delay instead of the system's 20).

Both arms route by worker health.  The baseline used to be a separate code
path that also rotated over workers blindly (crc32 of the flight key); it
measured 35.1, and most of that was the rotation, not the fixed interval.

Also asserts the safety side of hedging: duplicated dispatches must never
be *applied* twice (the journal dedupes by task path + execution index).
"""

import json
import os

from repro.core.selection import EventKind
from repro.net import RandomCrasher
from repro.resilience import ResilienceConfig, RetryPolicy
from repro.services import WorkflowSystem
from repro.workloads import paper_order

from .conftest import report

SCENARIO = dict(interval=40.0, downtime=20.0, chaos_seed=7, instances=10, gap=15.0)
DISPATCH_TIMEOUT = 20.0

FIXED_INTERVAL = ResilienceConfig(
    policy=RetryPolicy(
        base_delay=DISPATCH_TIMEOUT,
        multiplier=1.0,
        jitter=0.0,
        max_redispatches=None,
        recovery_stagger=0.0,
    ),
    hedge_delay=None,
)


def run_stream(resilience, interval, downtime, chaos_seed, instances, gap):
    """Run a staggered stream of order instances under worker chaos.

    Returns per-instance completion latencies (virtual time from arrival to
    the root outcome) plus the system for stats/journal inspection.
    """
    system = WorkflowSystem(
        workers=3,
        seed=42,
        dispatch_timeout=DISPATCH_TIMEOUT,
        sweep_interval=5.0,
        resilience=resilience,
    )
    paper_order.default_registry(registry=system.registry)
    system.deploy("order", paper_order.SCRIPT_TEXT)
    crasher = RandomCrasher(
        system.clock,
        system.worker_nodes,  # workers only: the coordinator's journal stays put
        interval=interval,
        downtime=downtime,
        seed=chaos_seed,
    ).start()
    arrivals, iids = [], []
    for i in range(instances):
        arrivals.append(system.clock.now)
        iids.append(
            system.instantiate("order", paper_order.ROOT_TASK, {"order": f"o-{i}"})
        )
        system.clock.advance(gap)
    latencies = []
    for iid, arrived in zip(iids, arrivals):
        result = system.run_until_terminal(iid, max_time=100_000)
        assert result["status"] == "completed", (iid, result)
        assert result["outcome"] == "orderCompleted"
        log = system.execution.runtimes[iid].tree.log
        done = max(
            e.time
            for e in log.entries
            if e.event.kind is EventKind.OUTCOME and "/" not in e.producer_path
        )
        latencies.append(done - arrived)
    crasher.stop()
    assert len(crasher.injected) > 0  # chaos actually happened
    return latencies, system, iids


def assert_no_double_application(system, iids):
    """No reply — hedged duplicate or otherwise — was journaled twice."""
    for iid in iids:
        journal = system.execution.export_instance(iid)["journal"]
        seen = set()
        for entry in journal:
            if entry.get("type") != "result":
                continue
            key = (entry["path"], entry["exec"])
            assert key not in seen, (iid, key)
            seen.add(key)


def test_resilience_beats_fixed_interval_baseline(benchmark):
    base_lat, base_sys, base_iids = run_stream(FIXED_INTERVAL, **SCENARIO)
    res_lat, res_sys, res_iids = run_stream(None, **SCENARIO)  # adaptive default

    base_mean = sum(base_lat) / len(base_lat)
    res_mean = sum(res_lat) / len(res_lat)
    rows = []
    for label, lat, system in (
        ("fixed-interval", base_lat, base_sys),
        ("adaptive", res_lat, res_sys),
    ):
        stats = system.execution.stats
        rows.append(
            (
                label,
                f"{sum(lat) / len(lat):.2f}",
                f"{max(lat):.2f}",
                stats["redispatches"],
                stats["hedges"],
                stats["breaker_trips"],
                stats["abandoned"],
            )
        )
    report(
        "Resilience: order stream under worker chaos "
        "(interval=40, downtime=20, seed=7, 10 instances)",
        ["dispatcher", "mean latency", "max latency", "redispatches",
         "hedges", "breaker trips", "abandoned"],
        rows,
    )

    # the claim: same chaos, same seeds, strictly better mean completion time
    assert res_mean < base_mean
    # the adaptive mechanisms actually engaged and are visible in stats
    res_stats = res_sys.execution.stats
    for key in ("hedges", "breaker_trips", "abandoned", "failovers", "staggered"):
        assert key in res_stats
    assert res_stats["hedges"] >= 1
    # safety: at-least-once dispatch, exactly-once application — in both arms
    assert_no_double_application(base_sys, base_iids)
    assert_no_double_application(res_sys, res_iids)

    summary = {
        "scenario": SCENARIO,
        "baseline": {"mean_latency": base_mean, "max_latency": max(base_lat),
                     "stats": dict(base_sys.execution.stats)},
        "adaptive": {"mean_latency": res_mean, "max_latency": max(res_lat),
                     "stats": dict(res_sys.execution.stats)},
        "speedup": base_mean / res_mean,
    }
    out = os.environ.get(
        "RESILIENCE_SUMMARY",
        os.path.join(os.path.dirname(__file__), "resilience_summary.json"),
    )
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)

    benchmark.pedantic(
        lambda: run_stream(None, **SCENARIO), rounds=2, iterations=1
    )


def test_resilience_severity_sweep(benchmark):
    """Harsher chaos engages more of the machinery (breakers trip, backoff
    caps kick in) while every instance still completes."""
    rows = []
    for label, interval, downtime, gap in (
        ("mild", 40.0, 20.0, 15.0),
        # harsh: burst arrival piles concurrent flights onto each crashed
        # worker, so its breaker sees enough consecutive timeouts to trip
        ("harsh", 15.0, 40.0, 0.0),
    ):
        scenario = dict(SCENARIO, interval=interval, downtime=downtime, gap=gap)
        latencies, system, iids = run_stream(None, **scenario)
        stats = system.execution.stats
        rows.append(
            (
                label,
                f"{sum(latencies) / len(latencies):.2f}",
                stats["redispatches"],
                stats["hedges"],
                stats["breaker_trips"],
            )
        )
        assert_no_double_application(system, iids)
    report(
        "Resilience: severity sweep (adaptive dispatcher)",
        ["chaos", "mean latency", "redispatches", "hedges", "breaker trips"],
        rows,
    )
    # the harsh row exercises the breakers
    assert rows[1][4] >= 1

    benchmark.pedantic(
        lambda: run_stream(
            None, **dict(SCENARIO, interval=15.0, downtime=40.0, gap=0.0)
        ),
        rounds=2,
        iterations=1,
    )
