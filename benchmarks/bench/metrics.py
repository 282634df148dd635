"""Names, units, directions and regression bounds of everything the
benchmark reports, plus the few statistics it needs.

This module imports nothing from ``repro``: the parent process, ``compare``
and the harness test read it without loading the system under test.
``BENCHMARK.json`` at the repo root restates ``WORKLOADS``,
``CONTRACT_END_TO_END`` and ``TRACE_RUN_METRICS``; ``test_harness.py`` checks
the two agree.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str = "lower"  # or "higher"
    bound: float = 0.0     # share of the baseline median it may worsen by
    floor: float = 0.0     # absolute slack in ``unit``, for values near zero (compare only)


# name -> why the workload exists (one line; README.md has the long form)
WORKLOADS: Dict[str, str] = {
    "fan_wide": "fan(64) closed loop: 66 steps share 3 fsyncs, so engine readiness, marshal and reply handling dominate and the WAL is idle",
    "chain_deep": "chain(32) closed loop: one hop pair, journal txn and fsync per step, nothing to batch; txn, ORB and net dominate",
    "paper_mix": "the paper's order/trip/service-impact scripts round-robin: short instances, so per-instance overhead dominates",
    "traffic_open": "bursty open-loop arrivals in simulated time against finite workers: many instances in flight, admission queue engaged",
    "soak_recover": "chain(8) long history, then crash and recover with instances in flight: cost versus history, replay beside append",
    "replicated_fan": "fan(64) with a hot standby: same script as fan_wide, so the difference is the replication layer",
}

# Defined, never zero and steady across seeds on every workload: these are
# BENCHMARK.json's ``end_to_end`` list.  ``bound`` is the regression threshold
# both the driver's gate and ``compare`` apply.  Every time here is in seconds
# at nominal host speed and fsync latency (``hostclock.py``): the shared
# 2-core box's processor and disk both move by tens of percent within seconds
# and over minutes, and the raw wall clock cannot hold even a 25 % bound
# there (README.md, "Steadiness").
CONTRACT_END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25, floor=0.005),
    Metric("steps_per_s", "1/s", "higher", 0.20),
    Metric("instances_per_s", "1/s", "higher", 0.20),
    Metric("cpu_ms_per_step", "ms/step", "lower", 0.20),
    Metric("wal_bytes_per_step", "B", "lower", 0.05),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
]

# End-to-end too, but BENCHMARK.json cannot bound them: zero (failed_share),
# defined on one workload only (recover_s, drift_ratio, sim_*), or — wall
# latency on traffic_open — moving by tens of percent with the seed's burst
# pattern.  ``compare`` bounds them; bound 0 means any worsening.
EXTRA_END_TO_END: List[Metric] = [
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    Metric("latency_p90_ms", "ms", "lower", 0.25),
    Metric("failed_share", "share", "lower", 0.0),
    Metric("recover_s", "s", "lower", 0.25),
    Metric("drift_ratio", "ratio", "lower", 0.25),
    Metric("sim_sojourn_p50_s", "sim_s", "lower", 0.0),
    Metric("sim_sojourn_p95_s", "sim_s", "lower", 0.0),
    Metric("sim_goodput_per_s", "1/sim_s", "higher", 0.0),
]

# The raw figures behind the scaled ones, measured on the same untraced
# rounds: printed and recorded, never judged (they measure the neighbours).
HOST: List[Metric] = [
    Metric("wall_steps_per_s", "1/s", "higher"),
    Metric("host_kernel_ms", "ms", "lower"),
    Metric("host_fsync_ms", "ms", "lower"),
]

END_TO_END: List[Metric] = CONTRACT_END_TO_END + EXTRA_END_TO_END


# Traced-run metrics.  Times are *self* time (span minus child spans).
PER_LAYER: List[Metric] = [
    Metric("lang.compile_ms", "ms"),
    Metric("engine.plan_compile_ms", "ms/instance"),
    Metric("repository.store_script_ms", "ms"),
    Metric("repository.get_script_calls_per_instance", "count"),
    Metric("repository.self_ms_per_instance", "ms/instance"),
    Metric("execution.instantiate_self_ms", "ms/instance"),
    Metric("engine.source_evals_per_step", "count"),
    Metric("execution.reply_self_ms_per_step", "ms/step"),
    Metric("execution.flush_journal_self_ms_per_step", "ms/step"),
    Metric("execution.journal_txns_per_step", "count"),
    Metric("txn.commits_per_step", "count"),
    Metric("txn.commit_self_ms_per_step", "ms/step"),
    Metric("txn.wal_appends_per_step", "count"),
    Metric("txn.wal_forces_per_step", "count"),
    Metric("txn.fsyncs_per_step", "count"),
    Metric("txn.fsync_ms_per_step", "ms/step"),
    Metric("txn.wal_write_ms_per_step", "ms/step"),
    Metric("txn.lock_release_ms_per_step", "ms/step"),
    Metric("txn.lock_release_ms_per_step_first_fifth", "ms/step"),
    Metric("txn.lock_release_ms_per_step_last_fifth", "ms/step"),
    Metric("txn.lock_table_size_end", "count"),
    Metric("txn.store_keys_end", "count"),
    Metric("execution.recover_self_ms_per_instance", "ms/instance"),
    Metric("orb.invokes_per_step", "count"),
    Metric("orb.invoke_self_ms_per_step", "ms/step"),
    Metric("orb.marshal_calls_per_step", "count"),
    Metric("orb.marshal_ms_per_step", "ms/step"),
    Metric("orb.marshal_fast_hit_rate", "share", "higher"),
    Metric("net.messages_per_step", "count"),
    Metric("net.clock_events_per_step", "count"),
    Metric("net.clock_self_ms_per_step", "ms/step"),
    Metric("worker.execute_self_ms_per_step", "ms/step"),
    Metric("worker.executes_per_step", "ratio"),
    Metric("resilience.route_self_ms_per_step", "ms/step"),
    Metric("resilience.hedges", "count"),
    Metric("resilience.redispatches", "count"),
    Metric("overload.admission_self_ms_per_instance", "ms/instance"),
    Metric("overload.queued_share", "share"),
    Metric("overload.window_changes", "count"),
    Metric("replication.replicate_calls_per_step", "count"),
    Metric("replication.replicate_self_ms_per_step", "ms/step"),
    Metric("replication.lease_renewals", "count"),
    Metric("replication.standby_lag_records_end", "count"),
    Metric("bench.trace_overhead_ratio", "ratio"),
    Metric("bench.unattributed_share", "share"),
    Metric("bench.trace_targets_missing", "count"),
    Metric("floor.local_engine_steps_per_s", "1/s", "higher"),
    Metric("floor.eca_steps_per_s", "1/s", "higher"),
    Metric("floor.petrinet_steps_per_s", "1/s", "higher"),
]

# What a ``--trace 1`` run prints: BENCHMARK.json's ``per_layer`` list.  The
# extra end-to-end metrics ride along (measured on the untraced rounds of that
# run) so the driver's record carries them; they have no bound there.
# ``recover_s`` stays out: it would read a constant 0 s on five workloads, and
# ``execution.recover_self_ms_per_instance`` already carries its bulk.
TRACE_RUN_METRICS: List[Metric] = PER_LAYER + [
    metric for metric in EXTRA_END_TO_END if metric.name != "recover_s"
] + HOST

# Printed in the contract line where a metric does not apply to the workload
# (0.0) or its trace target no longer resolves (-1.0); the full ``--out``
# report keeps ``null`` for both.
NOT_APPLICABLE = 0.0
TARGET_MISSING = -1.0


median = statistics.median


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile — the same rule ``workloads/traffic.py`` uses,
    so the benchmark's sojourn p50 can be checked against ``SLOReport``."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[index]


def spread(values: Sequence[float]) -> Optional[float]:
    """Distance between the first and third quartile as a share of the
    median (``None`` with fewer than two values or a zero median)."""
    if len(values) < 2:
        return None
    mid = statistics.median(values)
    if mid == 0:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(mid)
