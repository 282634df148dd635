"""``python -m benchmarks.bench compare A.json B.json``.

One row per workload and end-to-end metric: both medians, both spreads
(distance between the quartiles of the rounds, as a share of their median),
the bound the benchmark fixes for that metric, and a verdict:

* ``same`` / ``better`` / ``worse`` — B's median against A's, with the bound
  (and, for values near zero, the metric's absolute floor) as the tolerance;
  a bound of 0 means any worsening counts;
* ``unresolved`` — a side's spread is wider than the bound and the two
  sides' rounds interleave, so the runs cannot tell.

The exit code is 1 when any row reads ``worse``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from .metrics import END_TO_END, Metric, spread


def verdict(metric: Metric, a: Dict[str, Any], b: Dict[str, Any]) -> str:
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"])
    tolerance = max(metric.bound * abs(a["median"]), metric.floor)
    spreads = [s for s in (spread(a["values"]), spread(b["values"])) if s is not None]
    if metric.bound and spreads and max(spreads) > metric.bound:
        a_values = [sign * v for v in a["values"]]
        b_values = [sign * v for v in b["values"]]
        if max(b_values) < min(a_values):
            return "better"
        if min(b_values) > max(a_values):
            return "worse" if worse_by > tolerance else "same"
        return "unresolved"
    if worse_by > tolerance:
        return "worse"
    if worse_by < -tolerance:
        return "better"
    return "same"


def _share(value: Optional[float]) -> str:
    return "-" if value is None else f"{value * 100:.1f}%"


def compare(baseline: Dict[str, Any], candidate: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for name, a_result in baseline["workloads"].items():
        b_result = candidate["workloads"].get(name)
        if b_result is None:
            continue
        for metric in END_TO_END:
            a = a_result["end_to_end"].get(metric.name)
            b = b_result["end_to_end"].get(metric.name)
            if a is None or b is None:
                continue
            rows.append({
                "workload": name, "metric": metric.name, "unit": metric.unit,
                "a": a["median"], "b": b["median"],
                "a_spread": spread(a["values"]), "b_spread": spread(b["values"]),
                "bound": metric.bound, "verdict": verdict(metric, a, b),
            })
        differing = sorted(
            key for key, value in a_result["exact"].items() if b_result["exact"].get(key) != value
        )
        rows.append({
            "workload": name, "metric": "exact counts", "unit": "", "a": None, "b": None,
            "a_spread": None, "b_spread": None, "bound": 0.0,
            "verdict": "differ: " + ", ".join(differing) if differing else "same",
        })
    return rows


def compare_files(baseline_path: str, candidate_path: str) -> int:
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    with open(candidate_path) as fh:
        candidate = json.load(fh)
    for side, data in (("A", baseline), ("B", candidate)):
        print(f"{side}: commit {data['commit']}, {data['date']}, seed {data['seed']}, scale {data['scale']}")
    if (baseline["seed"], baseline["scale"]) != (candidate["seed"], candidate["scale"]):
        print("warning: seed or scale differ; exact counts and history-dependent latencies will too")
    rows = compare(baseline, candidate)
    print(f"{'workload':<15} {'metric':<20} {'A median':>13} {'B median':>13} {'unit':<8}"
          f" {'A spread':>9} {'B spread':>9} {'bound':>6}  verdict")
    for row in rows:
        if row["a"] is None:
            print(f"{row['workload']:<15} {row['metric']:<20} {'':>13} {'':>13} {'':<8} {'':>9} {'':>9} {'':>6}  {row['verdict']}")
            continue
        print(
            f"{row['workload']:<15} {row['metric']:<20} {row['a']:>13.6g} {row['b']:>13.6g} {row['unit']:<8}"
            f" {_share(row['a_spread']):>9} {_share(row['b_spread']):>9} {_share(row['bound']):>6}  {row['verdict']}"
        )
    worse = [row for row in rows if row["verdict"] == "worse"]
    unresolved = [row for row in rows if row["verdict"] == "unresolved"]
    print(f"{len(worse)} worse, {len(unresolved)} unresolved, of {len(rows)} rows")
    return 1 if worse else 0
