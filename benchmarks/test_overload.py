"""Overload benchmark: goodput under sustained overload with and without
the admission/shedding layer (docs/PROTOCOLS.md §13).

Three runs of the same Poisson traffic shape against a 2-worker system with
finite service capacity (1 virtual second per stage, one lane per worker):

* **1x baseline** — offered load ~40% of capacity, overload layer on: the
  system is uncongested; admission is invisible.
* **10x shedding** — offered load ~10x the baseline with the overload layer
  on: the bounded queue refuses the excess with retry-after hints, the
  delay-gradient controller shrinks the admitted window, low-criticality
  arrivals are shed as journaled decisive outcomes — and the work that *is*
  admitted still completes within the SLO.
* **10x unbounded** — same storm with a window no run can fill
  (``UNBOUNDED``): every arrival is admitted at once, nothing queues, so the
  controller sees no delay and never acts; the dispatch layer's own retries
  and hedges pile onto the saturated workers, sojourn diverges, and
  goodput-within-SLO collapses (the metastable failure mode the layer
  exists to prevent).

The headline metric is **SLO goodput**: completions whose end-to-end
sojourn stayed within ``SLO_S``, per virtual second.  Raw completions would
flatter the unbounded run — a backlog that drains hours late still
"completes".  Asserts the shedding run holds ≥70% of the uncongested
baseline while the unbounded run drops below 30%, that shed-mode p99
sojourn stays bounded while the unbounded run diverges, and writes the
table to ``BENCH_overload.json`` (override with ``BENCH_OVERLOAD``).
"""

import json
import os
import time

from repro.overload import OverloadConfig
from repro.overload.admission import CONTROL_INTERVAL, SOJOURN_TARGET
from repro.services import WorkflowSystem
from repro.workloads import TrafficSpec, run_traffic, traffic_registry

from .conftest import report

BASE_RATE = 0.2          # ~40% of the 2-worker, 1s/stage capacity
OVERLOAD_FACTOR = 10.0
DURATION_S = 600.0
DRAIN_S = 600.0
SLO_S = 120.0
SEED = 7

TIGHT = dict(queue_capacity=16, initial_window=16, min_window=4)
# no admission control, as values: more slots than the storm offers arrivals
UNBOUNDED = dict(initial_window=100_000, max_window=100_000)


def run_scenario(rate: float, *, shedding: bool):
    overload = OverloadConfig(**(TIGHT if shedding else UNBOUNDED))
    system = WorkflowSystem(
        workers=2, registry=traffic_registry(), seed=SEED,
        worker_service_time=1.0, worker_lanes=1, overload=overload,
    )
    spec = TrafficSpec(
        rate=rate, duration=DURATION_S, drain=DRAIN_S, seed=SEED, slo=SLO_S
    )
    begin = time.perf_counter()
    slo_report = run_traffic(system, spec)
    wall = time.perf_counter() - begin
    return slo_report, wall


def row_of(label, r, wall):
    return (
        label, r.offered, r.completed, r.shed, r.refused, r.unfinished,
        f"{r.slo_goodput:.3f}", f"{r.p99_sojourn:.0f}", f"{wall:.1f}",
    )


def test_overload_goodput_and_report():
    base, base_wall = run_scenario(BASE_RATE, shedding=True)
    shed, shed_wall = run_scenario(BASE_RATE * OVERLOAD_FACTOR, shedding=True)
    off, off_wall = run_scenario(BASE_RATE * OVERLOAD_FACTOR, shedding=False)

    # the uncongested baseline is the yardstick; it must itself be healthy
    assert base.unfinished == 0
    assert base.slo_goodput > 0

    shed_ratio = shed.slo_goodput / base.slo_goodput
    off_ratio = off.slo_goodput / base.slo_goodput

    # headline: under 10x overload the shedding system keeps ≥70% of the
    # uncongested SLO goodput; with an unbounded window it collapses <30%
    assert shed_ratio >= 0.70, (shed_ratio, shed.slo_goodput, base.slo_goodput)
    assert off_ratio < 0.30, (off_ratio, off.slo_goodput, base.slo_goodput)

    # latency honesty: admitted work stays bounded under shedding (within a
    # small multiple of the controller's target) while the unprotected run
    # diverges past it
    assert shed.p99_sojourn <= 12 * SOJOURN_TARGET, shed.p99_sojourn
    assert off.p99_sojourn > shed.p99_sojourn

    # backpressure engaged: refusals carried retry-after, sheds journaled,
    # and the controller actually moved the window
    assert shed.refused > 0
    assert shed.overload["rejected"] > 0
    assert shed.overload["window"] < TIGHT["initial_window"]
    assert shed.shed + shed.overload["shed_low"] >= 0  # by-class counters live
    assert off.unfinished > 0  # the unbounded run never drains its backlog
    # ...and its controller had nothing to act on
    assert off.overload["window_changes"] == 0 and off.overload["pressure"] == 0

    report(
        f"overload: Poisson traffic, SLO {SLO_S:.0f}s, "
        f"{OVERLOAD_FACTOR:.0f}x storm for {DURATION_S:.0f}s",
        ["mode", "offered", "done", "shed", "refused", "unfin",
         "slo goodput/s", "p99 s", "wall s"],
        [
            row_of("1x baseline (shedding on)", base, base_wall),
            row_of("10x overload (shedding on)", shed, shed_wall),
            row_of("10x overload (unbounded window)", off, off_wall),
        ],
    )

    payload = {
        "base_rate_per_s": BASE_RATE,
        "overload_factor": OVERLOAD_FACTOR,
        "duration_s": DURATION_S,
        "slo_s": SLO_S,
        "seed": SEED,
        # the controller's constants are recorded beside the tight bounds
        "config": dict(TIGHT, sojourn_target=SOJOURN_TARGET, control_interval=CONTROL_INTERVAL),
        "baseline_1x": base.to_plain(),
        "shedding_10x": shed.to_plain(),
        "unbounded_10x": off.to_plain(),
        "fingerprints": {
            "baseline_1x": base.fingerprint(),
            "shedding_10x": shed.fingerprint(),
            "unbounded_10x": off.fingerprint(),
        },
        "slo_goodput_retention": {
            "shedding_10x": round(shed_ratio, 4),
            "unbounded_10x": round(off_ratio, 4),
        },
    }
    out = os.environ.get("BENCH_OVERLOAD", "BENCH_overload.json")
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"   wrote {out}: shedding retains {shed_ratio:.0%} of baseline SLO "
        f"goodput under {OVERLOAD_FACTOR:.0f}x load; unbounded collapses to "
        f"{off_ratio:.0%}"
    )
