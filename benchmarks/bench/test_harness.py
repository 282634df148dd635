"""Checks of the benchmark harness itself (not part of tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench -q``.  One tiny
(``--scale 0.02``) traced run of all six workloads feeds most tests; it takes
about half a minute.
"""

import json
import os
import re
import time
from pathlib import Path

import pytest

from benchmarks.bench import cli
from benchmarks.bench.compare import compare, verdict
from benchmarks.bench.hostclock import NOMINAL_FSYNC_S, HostClock
from benchmarks.bench.metrics import (
    CONTRACT_END_TO_END,
    END_TO_END,
    HOST,
    PER_LAYER,
    TRACE_RUN_METRICS,
    WORKLOADS,
    Metric,
)
from benchmarks.bench.trace import TARGETS, Target, Tracer, _resolve
from benchmarks.bench.workloads import run_round

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Directory holding report.json and spans.jsonl of one tiny traced run."""
    directory = tmp_path_factory.mktemp("bench")
    code = cli.main(["run", "--scale", "0.02", "--repeats", "2",
                     "--out", str(directory / "report.json"),
                     "--spans-out", str(directory / "spans.jsonl")])
    assert code == 0
    return directory


@pytest.fixture(scope="module")
def report(outputs):
    return json.loads((outputs / "report.json").read_text())


def test_benchmark_json_restates_the_metric_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["workloads"] == [{"name": n, "why": w} for n, w in WORKLOADS.items()]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in CONTRACT_END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in TRACE_RUN_METRICS
    ]
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16 and 1 <= len(doc["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in doc[key]]
    assert len(names) == len(set(names)) and all(NAME.match(name) for name in names)
    assert all(UNIT.match(e["unit"]) for key in ("end_to_end", "per_layer") for e in doc[key])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert all(0 < e["bound"] <= 0.25 for e in doc["end_to_end"])
    setup = next(e for e in doc["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in doc["end_to_end"])
    assert all(not part.startswith("/") and ".." not in part for part in doc["command"])


def test_every_workload_runs_correct_and_reports_every_metric(report):
    assert list(report["workloads"]) == list(WORKLOADS)
    for name, result in report["workloads"].items():
        assert result["correct"], (name, result["errors"])
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert result["rounds"] == 2 and result["traced_rounds"] == 2
        assert set(result["end_to_end"]) == {m.name for m in END_TO_END}
        assert set(result["per_layer"]) == {m.name for m in PER_LAYER}
        assert set(result["host"]) == {m.name for m in HOST}
        assert all(entry["median"] > 0 for entry in result["host"].values())
        for metric in CONTRACT_END_TO_END:  # defined and non-zero everywhere
            assert result["end_to_end"][metric.name]["median"] > 0, (name, metric.name)
        assert result["end_to_end"]["latency_p90_ms"]["median"] > 0
        assert result["end_to_end"]["failed_share"]["median"] == 0
        assert result["per_layer_missing"] == []
        assert result["per_layer"]["bench.trace_targets_missing"]["median"] == 0
        assert result["per_layer"]["bench.trace_overhead_ratio"] is not None
    workloads = report["workloads"]
    assert workloads["soak_recover"]["end_to_end"]["recover_s"]["median"] > 0
    assert workloads["soak_recover"]["end_to_end"]["drift_ratio"]["median"] > 0
    assert workloads["traffic_open"]["end_to_end"]["sim_sojourn_p95_s"]["median"] > 0
    assert workloads["fan_wide"]["end_to_end"]["recover_s"] is None
    assert workloads["replicated_fan"]["per_layer"]["replication.replicate_calls_per_step"]["median"] > 0
    assert workloads["fan_wide"]["per_layer"]["replication.replicate_calls_per_step"] is None
    assert workloads["chain_deep"]["per_layer"]["floor.eca_steps_per_s"]["median"] > 0


def test_the_breakdown_reads_what_the_layers_do(report):
    layers = {name: result["per_layer"] for name, result in report["workloads"].items()}
    # one fsync per step when nothing batches, a handful per 66 steps on the fan
    assert layers["chain_deep"]["txn.fsyncs_per_step"]["median"] == pytest.approx(1.0, abs=0.05)
    assert layers["fan_wide"]["txn.fsyncs_per_step"]["median"] < 0.1
    for name, per_layer in layers.items():
        share = per_layer["bench.unattributed_share"]
        # self times add up to the time under any span, which cannot exceed the wall
        assert 0.0 <= share["min"] and share["max"] <= 0.25, (name, share)
        assert per_layer["worker.executes_per_step"]["median"] >= 1.0


def test_exact_counts_repeat_bit_for_bit(report):
    for name, result in report["workloads"].items():
        # the parent compares every round's full ``exact`` record (untraced and
        # traced alike) and would have flagged a difference as an error
        assert not any("exact counts differ" in error for error in result["errors"])
        assert result["exact"]["steps"] == result["steps"] > 0
        exact_metrics = ["wal_bytes_per_step", "sim_sojourn_p50_s", "sim_sojourn_p95_s", "sim_goodput_per_s"]
        for metric in exact_metrics:
            entry = result["end_to_end"][metric]
            assert entry is None or len(set(entry["values"])) == 1, (name, metric)
        assert len(set(result["per_layer"]["txn.fsyncs_per_step"]["values"])) == 1
    assert len(report["workloads"]["traffic_open"]["exact"]["fingerprint"]) == 64


def test_spans_are_dumped_as_json_lines(outputs):
    spans = [json.loads(line) for line in (outputs / "spans.jsonl").read_text().splitlines()]
    assert {span["workload"] for span in spans} == set(WORKLOADS)
    assert all(span["end_ns"] >= span["start_ns"] for span in spans)
    assert any(span["parent"] is not None for span in spans)
    assert any(span["iid"] for span in spans if span["name"] == "worker.execute")


def test_contract_lines(report):
    result = report["workloads"]["soak_recover"]
    untraced = json.loads(cli.contract_line(result, traced=False))
    assert set(untraced) == {"correct", "attempted", "failed", "metrics"}
    assert list(untraced["metrics"]) == [m.name for m in CONTRACT_END_TO_END]
    traced = json.loads(cli.contract_line(result, traced=True))
    assert list(traced["metrics"]) == [m.name for m in TRACE_RUN_METRICS]
    assert traced["metrics"]["replication.lease_renewals"]["value"] == 0.0  # not applicable
    assert traced["metrics"]["drift_ratio"]["value"] > 0
    for line in (untraced, traced):
        assert all(isinstance(m["value"], float) for m in line["metrics"].values())


def test_tracer_self_times_add_up_and_wrappers_are_restored():
    originals = {t.path: _resolve(t.path) for t in TARGETS}
    tracer = Tracer()
    tracer.install()
    assert tracer.missing == []
    for owners in originals.values():
        assert all(getattr(owner, attr) is not fn for owner, attr, fn in owners)

    from repro.orb.marshal import marshal_call  # the patched name

    tracer.phase = "timed.0"
    begin = time.perf_counter_ns()
    for _ in range(200):
        marshal_call((("a", ("b", 1)), {"k": [1, 2]}), {"x": {"y": 2}})
    wall_ms = (time.perf_counter_ns() - begin) / 1e6
    tracer.restore()
    for owners in originals.values():
        assert all(getattr(owner, attr) is fn for owner, attr, fn in owners)

    count, total_ms, self_ms = tracer.stat("orb.marshal", "timed")
    assert count == 200  # marshal inside marshal_call folds into one span
    assert self_ms == pytest.approx(total_ms)
    assert tracer.self_ms("timed") == pytest.approx(tracer.covered_ms("timed"))
    assert tracer.covered_ms("timed") <= wall_ms


def test_host_clock_charges_fsyncs_a_fixed_price_and_restores_os_fsync(tmp_path):
    real = os.fsync
    with HostClock() as host:
        assert os.fsync is not real
        host.start()
        with open(tmp_path / "file", "w") as fh:
            fh.write("x")
            fh.flush()
            os.fsync(fh.fileno())
        stretch = host.tick()  # shorter than the stride: stays open
        timed = host.stop()
    assert os.fsync is real
    assert stretch == 0 and host.fsyncs == 1 and 0 < host.fsync_s == timed.fsync_s < timed.wall
    assert timed.nominal_wall > NOMINAL_FSYNC_S and timed.nominal_cpu > 0
    # the phase was one stretch, so scaling its whole duration gives the phase's figure
    assert timed.nominal(timed.wall, 0, host.fsync_s, 1) == pytest.approx(timed.nominal_wall)


def test_bogus_trace_target_reads_null_with_a_warning(tmp_path):
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    plain = run_round("fan_wide", 3, 0.02, str(tmp_path / "plain"))
    bogus = Target("resilience.route", "repro.resilience.health:HealthRegistry.no_such_method")
    tracer = Tracer(TARGETS + [bogus])
    with pytest.warns(UserWarning, match="no longer resolves"):
        tracer.install()
    try:
        traced = run_round("fan_wide", 3, 0.02, str(tmp_path / "traced"), tracer)
    finally:
        tracer.restore()
    assert traced["per_layer"]["resilience.route_self_ms_per_step"] is None
    assert "resilience.route_self_ms_per_step" in traced["per_layer_missing"]
    assert traced["per_layer"]["bench.trace_targets_missing"] == 1
    assert traced["per_layer"]["orb.invoke_self_ms_per_step"] > 0
    assert not traced["errors"] and traced["exact"] == plain["exact"]
    line = json.loads(cli.contract_line(
        {"correct": True, "attempted": 1, "failed": 0, "end_to_end": {},
         "per_layer": {}, "per_layer_missing": traced["per_layer_missing"]}, traced=True))
    assert line["metrics"]["resilience.route_self_ms_per_step"]["value"] == -1.0


def _entry(*values):
    ordered = sorted(values)
    return {"median": ordered[len(ordered) // 2], "values": list(values)}


def test_compare_verdicts(report):
    lower = Metric("some_ms", "ms", "lower", 0.10)
    assert verdict(lower, _entry(10.0, 10.1, 10.2), _entry(10.3, 10.4, 10.5)) == "same"
    assert verdict(lower, _entry(10.0, 10.1, 10.2), _entry(12.0, 12.1, 12.2)) == "worse"
    assert verdict(lower, _entry(10.0, 10.1, 10.2), _entry(8.0, 8.1, 8.2)) == "better"
    # spread wider than the bound and the rounds interleave: cannot tell
    assert verdict(lower, _entry(8.0, 10.0, 12.5), _entry(9.0, 11.5, 13.0)) == "unresolved"
    # ... unless every round of one side beats every round of the other
    assert verdict(lower, _entry(8.0, 10.0, 12.5), _entry(5.0, 6.0, 7.5)) == "better"
    higher = Metric("some_per_s", "1/s", "higher", 0.10)
    assert verdict(higher, _entry(100.0, 101.0, 102.0), _entry(80.0, 81.0, 82.0)) == "worse"
    exact = Metric("some_count", "count")  # bound 0: any increase
    assert verdict(exact, _entry(100.0, 100.0), _entry(100.5, 100.5)) == "worse"
    assert verdict(exact, _entry(100.0, 100.0), _entry(100.0, 100.0)) == "same"
    near_zero = Metric("setup_s", "s", "lower", 0.25, floor=0.005)
    assert verdict(near_zero, _entry(0.003, 0.003), _entry(0.006, 0.006)) == "same"

    rows = compare(report, report)  # two rounds at this scale can be too noisy to tell
    assert {row["verdict"] for row in rows} <= {"same", "unresolved"}
    assert {row["workload"] for row in rows} == set(WORKLOADS)
    worse = json.loads(json.dumps(report))
    worse["workloads"]["chain_deep"]["exact"]["steps"] += 1
    rows = compare(report, worse)
    assert any(row["verdict"] == "differ: steps" for row in rows)


def test_history_rows_are_one_json_object_per_line():
    for line in (ROOT / "benchmarks/bench/history.jsonl").read_text().splitlines():
        row = json.loads(line)
        assert {"commit", "date", "seed", "scale", "medians"} <= set(row)
        assert set(row["medians"]) == set(WORKLOADS)
