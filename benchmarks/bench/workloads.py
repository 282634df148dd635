"""The six workloads and the code that drives one round of each.

A round builds a fresh ``WorkflowSystem`` with an on-disk WAL mirror and
production defaults (only ``workers``, ``seed``, ``registry``,
``mirror_path``, ``replicas``, ``overload`` and the worker service profile
are passed — no mode flag), runs un-timed warm-up instances, collects
garbage, runs the timed phase, and checks every output before any number
leaves this module.  Work is a fixed *count* of instances: latency depends
on how much history the stores hold, so only equal counts compare.  Every
time that leaves this module is in seconds at nominal host speed and fsync
latency (see ``hostclock.py``); ``wall_steps_per_s``, ``host_kernel_ms`` and
``host_fsync_ms`` keep the raw figures beside them.

"Step" is one durable journal entry, counted from outside as the sum of
``instance:<iid>:meta.journal_len`` read back from the execution store.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.instrument import IOPATH_STATS
from repro.core.selection import HOTPATH_STATS
from repro.engine import ImplementationRegistry, LocalEngine
from repro.lang import compile_script, format_script
from repro.overload import OverloadConfig
from repro.services import WorkflowSystem
from repro.services.system import TERMINAL
from repro.txn.ids import ObjectId, TransactionId
from repro.txn.wal import LogRecord, replay
from repro.workloads import (
    TrafficSpec,
    arrival_schedule,
    chain,
    cohort_script,
    fan,
    paper_order,
    paper_service_impact,
    paper_trip,
    run_traffic,
    script_text,
    traffic_registry,
)

from .hostclock import HostClock, Timed
from .layers import per_layer
from .metrics import median, percentile
from .trace import Tracer

WORKERS = 3
SETUPS = 3     # set-ups per round; the round's setup_s is their median
PAYLOADS = 8   # distinct input payloads per round, cycled over the instances
FIFTHS = 5     # the timed phase is traced in fifths, to show cost vs history


@dataclass(frozen=True)
class App:
    """One deployable script and how to feed it."""

    name: str
    text: str
    root: str
    input_name: str


@dataclass(frozen=True)
class Closed:
    """Closed loop, one client: the next instance starts when the previous
    one's journaled terminal outcome has been observed."""

    warmup: int
    count: int
    shape: Optional[Tuple[Callable[[int], Any], int]] = None  # None: the paper's scripts
    in_flight: int = 0   # instances left running across a crash + recover
    replicas: int = 0


@dataclass(frozen=True)
class Open:
    """Open loop in simulated time: arrivals follow a precomputed schedule."""

    traffic: TrafficSpec
    arrivals: int  # in ``traffic.duration``; scaled with it, the same for every seed
    overload: OverloadConfig
    worker_service_time: float
    worker_lanes: int
    warmup_duration: float


# Sizes are for --scale 1.0 (about 8-11 s per round on the 2-core box the
# first baseline was taken on); --scale multiplies every count alike.
SPECS: Dict[str, Any] = {
    "fan_wide": Closed(warmup=5, count=200, shape=(fan, 64)),
    "chain_deep": Closed(warmup=5, count=120, shape=(chain, 32)),
    "paper_mix": Closed(warmup=6, count=600),
    "traffic_open": Open(
        traffic=TrafficSpec(
            arrival="burst", rate=0.3, burst_factor=4, burst_duty=0.25,
            duration=1500.0, script_length=4,
        ),
        arrivals=727,
        overload=OverloadConfig(queue_capacity=64, initial_window=8, min_window=2),
        worker_service_time=2.0,
        worker_lanes=2,
        warmup_duration=30.0,
    ),
    "soak_recover": Closed(warmup=20, count=500, shape=(chain, 8), in_flight=16),
    "replicated_fan": Closed(warmup=5, count=150, shape=(fan, 64), replicas=2),
}


def _scaled(count: int, scale: float, least: int) -> int:
    return max(least, round(count * scale))


def closed_sizes(spec: Closed, scale: float) -> Tuple[int, int, int]:
    """(warm-up, timed, left in flight) instance counts at ``scale``."""
    return (
        _scaled(spec.warmup, scale, 1),
        _scaled(spec.count, scale, FIFTHS),
        _scaled(spec.in_flight, scale, 1) if spec.in_flight else 0,
    )


def payloads_for(seed: int) -> List[str]:
    """The round's input payloads: fixed width, so WAL bytes do not depend
    on the seed's digits."""
    return [f"{seed % 10000:04d}-{k}" for k in range(PAYLOADS)]


def _paper_apps() -> Tuple[List[App], Callable[[], ImplementationRegistry]]:
    def registry() -> ImplementationRegistry:
        reg = ImplementationRegistry()
        paper_order.default_registry(registry=reg)
        # one airline quotes: with several, which quote wins is a race the
        # network decides, and the reference engine has no network
        paper_trip.default_registry(airline_quotes=(None, 420.0, None), registry=reg)
        paper_service_impact.default_registry(registry=reg)
        return reg

    apps = [
        App("order", paper_order.SCRIPT_TEXT, paper_order.ROOT_TASK, "order"),
        App("trip", paper_trip.SCRIPT_TEXT, paper_trip.ROOT_TASK, "user"),
        App("service-impact", paper_service_impact.SCRIPT_TEXT,
            paper_service_impact.ROOT_TASK, "alarmsSource"),
    ]
    return apps, registry


def closed_apps(spec: Closed) -> Tuple[List[App], Callable[[], ImplementationRegistry]]:
    if spec.shape is None:
        return _paper_apps()
    shape, size = spec.shape
    workload = shape(size)
    app = App(shape.__name__, script_text(workload), workload[2], "inp")
    return [app], lambda: shape(size)[1]


class Reference:
    """Expected outcome and result objects per (script, payload), from the
    bare ``LocalEngine`` — an interpreter that shares no service, journal or
    transport code with the system under test."""

    def __init__(self, registry: ImplementationRegistry) -> None:
        self._engine_registry = registry
        self._scripts: Dict[str, Any] = {}
        self._expected: Dict[Tuple[str, str], Tuple[Optional[str], Dict[str, Any]]] = {}

    def add(self, app: App, script: Any = None) -> None:
        self._scripts[app.name] = (app, script or compile_script(app.text))

    def expected(self, app_name: str, payload: str) -> Tuple[Optional[str], Dict[str, Any]]:
        key = (app_name, payload)
        if key not in self._expected:
            app, script = self._scripts[app_name]
            result = LocalEngine(self._engine_registry).run(
                script, app.root, inputs={app.input_name: payload}
            )
            self._expected[key] = (
                result.outcome,
                {name: ref.value for name, ref in result.objects.items()},
            )
        return self._expected[key]

    def check(self, iid: str, app_name: str, payload: str, result: Dict[str, Any]) -> Optional[str]:
        """``None`` when the instance completed with the reference outcome
        and objects, else what differed."""
        outcome, objects = self.expected(app_name, payload)
        got = (
            result.get("status"),
            result.get("outcome"),
            {name: obj.get("value") for name, obj in (result.get("objects") or {}).items()},
        )
        if got == ("completed", outcome, objects):
            return None
        return f"{iid} ({app_name}, {payload}): got {got}, expected completed/{outcome}/{objects}"


# -- counting from outside -------------------------------------------------------------


def _counters(system: WorkflowSystem) -> Dict[str, int]:
    """Process-wide exact counters the layers already keep."""
    io = IOPATH_STATS
    return {
        "wal_forces": io.wal_forces,
        "wal_syncs": io.wal_syncs,
        "journal_batches": io.journal_batches,
        "journal_entries": io.journal_entries,
        "marshal_calls": io.marshal_calls,
        "marshal_fast_hits": io.marshal_fast_hits,
        "source_evals": HOTPATH_STATS.source_evals,
        "net_sent": system.network.stats.sent,
        "orb_invocations": system.broker.stats.invocations,
    }


def _delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {key: after[key] - before[key] for key in after}


def _journal_len(store: Any, iid: str) -> int:
    return store.get_committed(f"instance:{iid}:meta")["journal_len"]


def _store_sizes(system: WorkflowSystem) -> Dict[str, Optional[int]]:
    store = system.execution_store
    table = getattr(store.locks, "_table", None)  # no public size; null if it goes
    return {
        "lock_table_size": len(table) if table is not None else None,
        "store_keys": len(store.keys()),
    }


def _end_state(system: WorkflowSystem, instances: int) -> Dict[str, Any]:
    service = system.execution
    admission = service.admission.report()
    executed = [entry for worker in system.workers for entry in worker.executed]
    state: Dict[str, Any] = {
        "queued": admission["queued"],
        "window_changes": admission["window_changes"],
        "hedges": service.stats["hedges"],
        "redispatches": service.stats["redispatches"],
        "worker_executes": len(executed),
        "worker_useful": len(set(executed)),
        "sim_clock": system.clock.now,
        "instances_stored": instances,
    }
    if system.execution_replicas:
        # each store numbers its own log, so lag is counted in the primary's
        # LSNs: durable there, minus what the slowest standby has acknowledged
        acked = service.repl_status()["acked"]
        state["lease_renewals"] = system.lease.stats["renewals"]
        state["standby_lag_records"] = system.execution_store.wal.last_durable_lsn - min(
            acked.get(replica.name, 0) for replica in system.execution_replicas[1:]
        )
    return state


def _plain(value: Any) -> Any:
    """``value`` as the JSON-lines mirror stores it."""
    return json.loads(json.dumps(value, default=repr))


def _mirror_state(path: str) -> Dict[str, Any]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            records.append(
                LogRecord(
                    row["lsn"],
                    row["kind"],
                    TransactionId(*row["txn"]) if row["txn"] else None,
                    ObjectId(row["obj"]) if row["obj"] else None,
                    row["value"],
                )
            )
    return replay(records)


def _check_mirror(store: Any, path: str, iids: List[str], errors: List[str]) -> None:
    """The on-disk mirror, replayed, must equal the store's committed state
    for the sampled instances: meta and every journal entry."""
    state = _mirror_state(path)
    for iid in iids:
        keys = [f"instance:{iid}:meta"] + [
            f"instance:{iid}:journal:{n}" for n in range(_journal_len(store, iid))
        ]
        for key in keys:
            if state.get(key) != _plain(store.get_committed(key)):
                errors.append(f"mirror replay differs from the store at {key}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


def _set_up(
    host: HostClock,
    workdir: str,
    build: Callable[[str], WorkflowSystem],
    deploy: Callable[[WorkflowSystem], None],
) -> Tuple[WorkflowSystem, str, float]:
    """Build the system and deploy its scripts ``SETUPS`` times; returns the
    last system built, its mirror path and the median set-up time."""
    system, mirror, seconds = None, "", []
    for attempt in range(SETUPS):
        if system is not None:
            system.execution_store.wal.close()
        mirror = os.path.join(workdir, f"wal-{attempt}.jsonl")
        host.start()
        system = build(mirror)
        deploy(system)
        seconds.append(host.stop().nominal_wall)
    return system, mirror, median(seconds)


def _phase_setter(tracer: Optional[Tracer]) -> Callable[[str], None]:
    if tracer is None:
        return lambda phase: None
    return lambda phase: setattr(tracer, "phase", phase)


def _result(
    name: str,
    seed: int,
    scale: float,
    tracer: Optional[Tracer],
    *,
    attempted: int,
    errors: List[str],
    failed: int,
    instances: int,
    steps: int,
    all_steps: int,
    latencies_ms: List[float],
    timed: Timed,
    setup_s: float,
    mirror: str,
    peak_rss_mb: float,
    counts: Dict[str, int],
    state: Dict[str, Any],
    extra: Dict[str, Optional[float]],
    exact_extra: Dict[str, Any],
    trace_info: Dict[str, Any],
) -> Dict[str, Any]:
    wal_bytes = os.path.getsize(mirror)
    end_to_end: Dict[str, Optional[float]] = {
        "setup_s": setup_s,
        "steps_per_s": steps / timed.nominal_wall,
        "instances_per_s": instances / timed.nominal_wall,
        "latency_p50_ms": percentile(latencies_ms, 0.50),
        "latency_p90_ms": percentile(latencies_ms, 0.90),
        "cpu_ms_per_step": timed.nominal_cpu * 1e3 / steps,
        "wal_bytes_per_step": wal_bytes / all_steps,
        "peak_rss_mb": peak_rss_mb,
        "failed_share": failed / attempted,
        "recover_s": None,
        "drift_ratio": None,
        "sim_sojourn_p50_s": None,
        "sim_sojourn_p95_s": None,
        "sim_goodput_per_s": None,
        "wall_steps_per_s": steps / timed.wall,
        "host_kernel_ms": timed.kernel_s * 1e3,
        "host_fsync_ms": None if timed.fsync_s is None else timed.fsync_s * 1e3,
    }
    end_to_end.update(extra)
    exact = {
        "instances": instances,
        "steps": steps,
        "all_steps": all_steps,
        "wal_bytes": wal_bytes,
        **counts,
        **state,
        **exact_extra,
    }
    result: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "traced": tracer is not None,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:8],
        "instances": instances,
        "steps": steps,
        "samples": len(latencies_ms),
        "timed_wall_s": timed.nominal_wall,
        "end_to_end": end_to_end,
        "exact": exact,
    }
    if tracer is not None:
        result["per_layer"], result["per_layer_missing"] = per_layer(
            tracer,
            steps=steps,
            instances=instances,
            wall_ms=timed.wall * 1e3,
            time_scale=timed.compute_scale,
            counts=counts,
            state=state,
            setups=SETUPS,
            **trace_info,
        )
    return result


# -- closed loop -------------------------------------------------------------------------


def _run_closed(
    name: str, spec: Closed, seed: int, scale: float, workdir: str,
    tracer: Optional[Tracer], host: HostClock,
) -> Dict[str, Any]:
    apps, make_registry = closed_apps(spec)
    warmup, count, in_flight = closed_sizes(spec, scale)
    payloads = payloads_for(seed)
    set_phase = _phase_setter(tracer)
    registry = make_registry()

    def build(mirror: str) -> WorkflowSystem:
        return WorkflowSystem(
            workers=WORKERS, seed=seed, registry=registry,
            mirror_path=mirror, replicas=spec.replicas,
        )

    def deploy(system: WorkflowSystem) -> None:
        for app in apps:
            system.deploy(app.name, app.text)

    system, mirror, setup_s = _set_up(host, workdir, build, deploy)
    store = system.execution_store

    def submit(index: int) -> Tuple[str, str, str]:
        app = apps[index % len(apps)]
        payload = payloads[index % PAYLOADS]
        iid = system.instantiate(app.name, app.root, {app.input_name: payload})
        return iid, app.name, payload

    # (iid, script, payload, result as first observed)
    records: List[Tuple[str, str, str, Dict[str, Any]]] = []

    set_phase("warmup")
    for index in range(warmup):
        iid, app_name, payload = submit(index)
        records.append((iid, app_name, payload, system.run_until_terminal(iid)))

    gc.collect()
    # per instance: raw seconds, the host clock's stretch, seconds in fsync, fsyncs
    raw_latencies: List[Tuple[float, int, float, int]] = []
    before = _counters(system)
    host.start()
    for offset in range(count):
        set_phase(f"timed.{offset * FIFTHS // count}")
        fsync_s, fsyncs = host.fsync_s, host.fsyncs
        begin = time.perf_counter()
        iid, app_name, payload = submit(warmup + offset)
        result = system.run_until_terminal(iid)
        latency = time.perf_counter() - begin
        raw_latencies.append((latency, host.tick(), host.fsync_s - fsync_s, host.fsyncs - fsyncs))
        records.append((iid, app_name, payload, result))
    timed = host.stop()
    latencies = [timed.nominal(*raw) for raw in raw_latencies]
    counts = _delta(_counters(system), before)
    sizes = _store_sizes(system)
    set_phase("after")

    errors: List[str] = []
    extra: Dict[str, Optional[float]] = {}
    rebuilt = 0
    if in_flight:
        # leave instances running, crash the execution node (its store loses
        # everything unforced and rebuilds from the durable log), recover
        flights = [submit(warmup + count + k) for k in range(in_flight)]
        system.clock.advance(3.0)
        set_phase("recover")
        host.start()
        store.crash()
        system.execution_node.crash()
        system.execution_node.recover()
        extra["recover_s"] = host.stop().nominal_wall
        set_phase("after")
        rebuilt = len(system.execution.runtimes)
        if rebuilt != len(records) + in_flight:
            errors.append(f"recovery rebuilt {rebuilt} of {len(records) + in_flight} instances")
        for iid, _app, _payload, result in records:
            if system.execution.result(iid) != result:
                errors.append(f"{iid}: result changed across recovery")
        for iid, app_name, payload in flights:
            records.append((iid, app_name, payload, system.run_until_terminal(iid)))
        fifth = count // FIFTHS
        extra["drift_ratio"] = sum(latencies[-fifth:]) / sum(latencies[:fifth])

    peak_rss_mb = _peak_rss_mb()  # before verification allocates

    set_phase("verify")
    store.wal.close()
    reference = Reference(make_registry())
    for app in apps:
        reference.add(app)
    failed = 0
    for iid, app_name, payload, result in records:
        problem = reference.check(iid, app_name, payload, result)
        if problem:
            failed += 1
            errors.append(problem)
    sampled = {records[0][0], records[len(records) // 2][0]}
    sampled.update(record[0] for record in records[-max(1, in_flight):])
    _check_mirror(store, mirror, sorted(sampled), errors)

    lens = [_journal_len(store, record[0]) for record in records]
    timed_lens = lens[warmup:warmup + count]
    fifth_steps = [0] * FIFTHS
    for offset, length in enumerate(timed_lens):
        fifth_steps[offset * FIFTHS // count] += length
    return _result(
        name, seed, scale, tracer,
        attempted=len(records), errors=errors, failed=failed,
        instances=count, steps=sum(timed_lens), all_steps=sum(lens),
        latencies_ms=[value * 1e3 for value in latencies],
        timed=timed, setup_s=setup_s, mirror=mirror, peak_rss_mb=peak_rss_mb,
        counts=counts, state={**sizes, **_end_state(system, len(records))},
        extra=extra, exact_extra={},
        trace_info={"fifth_steps": fifth_steps, "rebuilt": rebuilt, "replicated": bool(spec.replicas)},
    )


# -- open loop ---------------------------------------------------------------------------


class _TimedClient:
    """What ``run_traffic`` sees as the system.  It forwards every call and
    notes, as a client with a stopwatch would, when each submission was
    accepted and when a poll first saw it terminal — in wall-clock and in
    simulated time.  Simulated sojourn counts from the arrival's *due* time:
    the k-th accepted submission of one (script, key) is matched to the k-th
    scheduled arrival of that pair, so a submission that was refused and
    retried still pays for its wait."""

    def __init__(self, system: WorkflowSystem, spec: TrafficSpec, host: HostClock) -> None:
        self._system = system
        self._host = host
        self._proxy = system.execution_proxy()
        self.clock = system.clock
        base = self.clock.now
        self._due: Dict[Tuple[str, str], deque] = {}
        for arrival in arrival_schedule(spec):
            self._due.setdefault(
                (f"traffic-c{arrival.cohort}", arrival.key), deque()
            ).append(base + arrival.at)
        self.live: Dict[str, Tuple[Tuple[str, str], float, float]] = {}
        # iid -> ((script, key), wall seconds, simulated sojourn)
        self.done: Dict[str, Tuple[Tuple[str, str], float, float]] = {}

    def deploy(self, name: str, text: str) -> int:
        return self._system.deploy(name, text)

    def execution_proxy(self) -> "_TimedClient":
        return self

    def instantiate(self, script_name: str, root: str, input_set: str, inputs: Dict[str, Any]) -> str:
        begin = time.perf_counter()
        iid = self._proxy.instantiate(script_name, root, input_set, inputs)
        key = (script_name, inputs["inp"])
        self.live[iid] = (key, begin, self._due[key].popleft())
        return iid

    def primary_execution(self) -> Any:
        service = self._system.primary_execution()
        if service is not None and self.live:
            wall = time.perf_counter()
            now = self.clock.now
            for iid in list(self.live):
                runtime = service.runtimes.get(iid)
                if runtime is not None and runtime.tree.status.value in TERMINAL:
                    key, begin, due = self.live.pop(iid)
                    self.done[iid] = (key, wall - begin, now - due)
        self._host.tick()  # once per poll of the generator's loop
        return service


def _traffic_for(spec: Open, seed: int, scale: float) -> TrafficSpec:
    """The generator's spec for ``seed`` at ``scale``.

    A Poisson schedule's length moves by +-8 % with its seed, and cost per
    step grows with history, so — as on the closed loops — only equal counts
    compare: of the generator seeds ``seed``, ``seed + 10007``, ... this takes
    the first whose schedule has exactly the workload's arrival count.  When
    and for which script and key they arrive still differs with every seed."""
    duration = max(spec.warmup_duration, spec.traffic.duration * scale)
    count = round(spec.arrivals * duration / spec.traffic.duration)
    for attempt in range(10_000):
        traffic = replace(spec.traffic, seed=seed + attempt * 10_007, duration=duration)
        if len(arrival_schedule(traffic)) == count:
            return traffic
    raise RuntimeError(f"no schedule of {count} arrivals near seed {seed}")


def _run_open(
    name: str, spec: Open, seed: int, scale: float, workdir: str,
    tracer: Optional[Tracer], host: HostClock,
) -> Dict[str, Any]:
    traffic = _traffic_for(spec, seed, scale)
    set_phase = _phase_setter(tracer)
    cohorts = [cohort_script(cohort, traffic.script_length) for cohort in range(traffic.cohorts)]

    def build(mirror: str) -> WorkflowSystem:
        return WorkflowSystem(
            workers=WORKERS, seed=seed, registry=traffic_registry(), mirror_path=mirror,
            overload=spec.overload,
            worker_service_time=spec.worker_service_time, worker_lanes=spec.worker_lanes,
        )

    def deploy(system: WorkflowSystem) -> None:
        for cohort, (script, _root) in enumerate(cohorts):
            system.deploy(f"traffic-c{cohort}", format_script(script))

    system, mirror, setup_s = _set_up(host, workdir, build, deploy)

    set_phase("warmup")
    warm = build(os.path.join(workdir, "wal-warmup.jsonl"))
    run_traffic(warm, replace(traffic, duration=spec.warmup_duration))
    warm.execution_store.wal.close()

    gc.collect()
    client = _TimedClient(system, traffic, host)
    before = _counters(system)
    set_phase("timed.0")
    host.start()
    report = run_traffic(client, traffic)
    timed = host.stop()
    counts = _delta(_counters(system), before)
    set_phase("after")
    sizes = _store_sizes(system)
    peak_rss_mb = _peak_rss_mb()

    set_phase("verify")
    store = system.execution_store
    store.wal.close()
    errors: List[str] = []
    reference = Reference(traffic_registry())
    for cohort, (script, root) in enumerate(cohorts):
        reference.add(App(f"traffic-c{cohort}", "", root, "inp"), script)
    wrong = 0
    service = system.execution
    for iid, ((script_name, key), _wall, _sojourn) in client.done.items():
        problem = reference.check(iid, script_name, key, service.result(iid))
        if problem:
            wrong += 1
            errors.append(problem)
    # shed, refused, lost and unfinished arrivals all count as failed;
    # ``wrong`` covers report.failed (terminal, but not the expected outcome)
    failed = report.shed + report.refused + report.lost + report.unfinished + wrong
    if report.completed + report.failed != len(client.done):
        errors.append("client and SLO report disagree on how many instances finished")
    sojourns = [sojourn for _key, _wall, sojourn in client.done.values()]
    if not report.refused and not report.overload["rejected"]:
        if abs(percentile(sojourns, 0.50) - report.p50_sojourn) > 1e-9:
            errors.append("client-side sojourn p50 differs from the SLO report's")
    iids = store.get_committed("instance-index", [])
    _check_mirror(store, mirror, sorted({iids[0], iids[len(iids) // 2], iids[-1]}), errors)

    lens = [_journal_len(store, iid) for iid in iids]
    return _result(
        name, seed, scale, tracer,
        attempted=report.offered, errors=errors, failed=failed,
        instances=report.completed, steps=sum(lens), all_steps=sum(lens),
        # an instance spans many stretches of the host clock: scale by the phase's
        latencies_ms=[
            wall_s * 1e3 * timed.nominal_wall / timed.wall
            for _key, wall_s, _sojourn in client.done.values()
        ],
        timed=timed, setup_s=setup_s, mirror=mirror, peak_rss_mb=peak_rss_mb,
        counts=counts, state={**sizes, **_end_state(system, len(iids))},
        extra={
            "sim_sojourn_p50_s": percentile(sojourns, 0.50),
            "sim_sojourn_p95_s": percentile(sojourns, 0.95),
            "sim_goodput_per_s": report.goodput,
        },
        exact_extra={
            "fingerprint": report.fingerprint(),
            "offered": report.offered,
            "completed": report.completed,
            "shed": report.shed,
            "refused": report.refused,
        },
        trace_info={"fifth_steps": None, "rebuilt": 0, "replicated": False},
    )


def run_round(
    name: str, seed: int, scale: float, workdir: str, tracer: Optional[Tracer] = None
) -> Dict[str, Any]:
    """One round of workload ``name``; the tracer, if any, is already installed."""
    spec = SPECS[name]
    runner = _run_closed if isinstance(spec, Closed) else _run_open
    with HostClock() as host:
        return runner(name, spec, seed, scale, workdir, tracer, host)
