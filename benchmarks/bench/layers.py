"""Per-layer metrics of one traced round, from the tracer's spans and the
exact counters the layers keep themselves.

Times are *self* time over the timed phase, scaled to nominal host speed
by the phase's overall factor (``hostclock.py``) — except the time inside
``os.fsync``, which is the disk's and stays as measured — and normalised per
step (journal entry) or per instance.  A metric reads ``None`` when it does not apply to
the workload, and is also listed as missing when a trace target or counter it
needs no longer exists.  ``metrics.PER_LAYER`` names every key; README.md
says which end-to-end metric each should move, and on which workload.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .trace import Tracer

COUNT, TOTAL, SELF = 0, 1, 2


def per_layer(
    tracer: Tracer,
    *,
    steps: int,
    instances: int,
    wall_ms: float,      # raw, as the spans are
    time_scale: float,   # raw -> nominal host speed
    counts: Dict[str, int],
    state: Dict[str, Any],
    fifth_steps: Optional[List[int]],
    rebuilt: int,
    replicated: bool,
    setups: int,
) -> Tuple[Dict[str, Optional[float]], List[str]]:
    missing: List[str] = []
    values: Dict[str, Optional[float]] = {}

    def spans(metric: str, names: Any, field: int, denominator: float, phase: str = "timed") -> None:
        """Sum ``field`` of the named spans over ``phase``, per ``denominator``."""
        total = 0.0
        for name in [names] if isinstance(names, str) else names:
            stat = tracer.stat(name, phase)
            if stat is None:
                missing.append(metric)
                values[metric] = None
                return
            total += stat[field]
        if field != COUNT and names != "txn.fsync":
            total *= time_scale
        values[metric] = total / denominator if denominator else None

    def count(metric: str, value: Optional[float], denominator: float = 1.0) -> None:
        if value is None:
            missing.append(metric)
        values[metric] = None if value is None or not denominator else value / denominator

    spans("lang.compile_ms", "lang.compile", TOTAL, setups, "setup")
    spans("repository.store_script_ms", "repository.store_script", SELF, setups, "setup")
    spans("engine.plan_compile_ms", "engine.plan_compile", TOTAL, instances)
    spans("repository.get_script_calls_per_instance", "repository.get_script", COUNT, instances)
    spans("repository.self_ms_per_instance", "repository.get_script", SELF, instances)
    spans("execution.instantiate_self_ms", "execution.instantiate", SELF, instances)

    count("engine.source_evals_per_step", counts["source_evals"], steps)
    spans("execution.reply_self_ms_per_step", "execution.reply", SELF, steps)

    spans("execution.flush_journal_self_ms_per_step", "execution.flush_journal", SELF, steps)
    count("execution.journal_txns_per_step", counts["journal_batches"], steps)
    spans("txn.commits_per_step", "txn.commit", COUNT, steps)
    spans("txn.commit_self_ms_per_step", "txn.commit", SELF, steps)
    spans("txn.wal_appends_per_step", "txn.wal_append", COUNT, steps)
    count("txn.wal_forces_per_step", counts["wal_forces"], steps)
    count("txn.fsyncs_per_step", counts["wal_syncs"], steps)
    spans("txn.fsync_ms_per_step", "txn.fsync", TOTAL, steps)
    spans(
        "txn.wal_write_ms_per_step",
        ("txn.wal_append", "txn.wal_force", "txn.wal_sync"), SELF, steps,
    )

    spans("txn.lock_release_ms_per_step", "txn.lock_release", SELF, steps)
    if fifth_steps:
        spans("txn.lock_release_ms_per_step_first_fifth", "txn.lock_release", SELF,
              fifth_steps[0], "timed.0")
        spans("txn.lock_release_ms_per_step_last_fifth", "txn.lock_release", SELF,
              fifth_steps[-1], f"timed.{len(fifth_steps) - 1}")
    count("txn.lock_table_size_end", state["lock_table_size"])
    count("txn.store_keys_end", state["store_keys"])
    if rebuilt:
        spans("execution.recover_self_ms_per_instance", "execution.recover", SELF, rebuilt, "recover")

    count("orb.invokes_per_step", counts["orb_invocations"], steps)
    spans("orb.invoke_self_ms_per_step", "orb.invoke", SELF, steps)
    count("orb.marshal_calls_per_step", counts["marshal_calls"], steps)
    spans("orb.marshal_ms_per_step", "orb.marshal", SELF, steps)
    count("orb.marshal_fast_hit_rate", counts["marshal_fast_hits"], counts["marshal_calls"])
    count("net.messages_per_step", counts["net_sent"], steps)
    spans("net.clock_events_per_step", "net.clock", COUNT, steps)
    spans("net.clock_self_ms_per_step", "net.clock", SELF, steps)

    spans("worker.execute_self_ms_per_step", "worker.execute", SELF, steps)
    count("worker.executes_per_step", state["worker_executes"], state["worker_useful"])
    spans("resilience.route_self_ms_per_step", "resilience.route", SELF, steps)
    count("resilience.hedges", state["hedges"])
    count("resilience.redispatches", state["redispatches"])

    spans("overload.admission_self_ms_per_instance", "overload.admission", SELF, instances)
    count("overload.queued_share", state["queued"], state["instances_stored"])
    count("overload.window_changes", state["window_changes"])

    if replicated:
        spans("replication.replicate_calls_per_step", "replication.replicate", COUNT, steps)
        spans("replication.replicate_self_ms_per_step", "replication.replicate", SELF, steps)
        count("replication.lease_renewals", state["lease_renewals"])
        count("replication.standby_lag_records_end", state["standby_lag_records"])

    values["bench.unattributed_share"] = 1.0 - tracer.covered_ms("timed") / wall_ms
    values["bench.trace_targets_missing"] = float(
        len(tracer.missing) + (state["lock_table_size"] is None)
    )
    return values, missing
