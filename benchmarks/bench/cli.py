"""Command line of the benchmark: the single-threaded parent process.

``run`` measures workloads.  Every round is a fresh child process (see
``child.py``); the parent only starts them one at a time, checks that they
agree, takes medians and prints.  It never imports ``repro``.  ``compare``
sets two ``--out`` files side by side (see ``compare.py``).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from .compare import compare_files
from .metrics import (
    CONTRACT_END_TO_END,
    END_TO_END,
    HOST,
    NOT_APPLICABLE,
    PER_LAYER,
    TARGET_MISSING,
    TRACE_RUN_METRICS,
    WORKLOADS,
    Metric,
    median,
)

ROOT = Path(__file__).resolve().parents[2]
WORK = ROOT / ".bench_work"      # WAL mirrors of the rounds in progress
FLOOR_WORKLOADS = ("fan_wide", "chain_deep")
CHILD_TIMEOUT_S = 170


def _child(*arguments: str) -> Dict[str, Any]:
    """Run one child to completion and return the JSON line it printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave nothing behind under src/
    env["PYTHONHASHSEED"] = "0"           # same dict and set layouts in every round
    try:
        done = subprocess.run(
            [sys.executable, "-m", "benchmarks.bench.child", *arguments],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"benchmark child timed out: {' '.join(arguments)}") from None
    if done.returncode != 0:
        raise SystemExit(f"benchmark child failed ({done.returncode}): {' '.join(arguments)}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _round(name: str, args: argparse.Namespace, number: int, *extra: str) -> Dict[str, Any]:
    """One child on workload ``name`` with a scratch directory of its own."""
    workdir = WORK / f"{os.getpid()}-{number}"
    workdir.mkdir(parents=True)
    try:
        return _child(
            "--workload", name, "--seed", str(args.seed), "--scale", str(args.scale),
            "--workdir", str(workdir), *extra,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _summary(metric: Metric, values: List[float]) -> Optional[Dict[str, Any]]:
    if not values:
        return None
    return {
        "median": median(values), "min": min(values), "max": max(values),
        "n": len(values), "unit": metric.unit, "values": values,
    }


def measure(name: str, args: argparse.Namespace) -> Dict[str, Any]:
    """Rounds of one workload until both ``--repeats`` untraced rounds and
    ``--seconds`` have passed.  With tracing, every untraced round is followed
    by a traced one, so the overhead ratio compares neighbours."""
    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    started = time.monotonic()
    while len(untraced) < args.repeats or time.monotonic() - started < args.seconds:
        number = len(untraced) + len(traced)
        untraced.append(_round(name, args, number))
        if args.trace:
            # raw spans of the first traced round only: they are large
            spans = ["--spans-out", args.spans_out] if args.spans_out and not traced else []
            traced.append(_round(name, args, number + 1, "--trace", "1", *spans))
    floor: Dict[str, Any] = {"floors": {}, "errors": []}
    if args.trace and name in FLOOR_WORKLOADS:
        floor = _round(name, args, len(untraced) + len(traced), "--floors")

    rounds = untraced + traced
    errors = [error for result in rounds for error in result["errors"]] + floor["errors"]
    # every round replays the same seed: anything deterministic must repeat
    # bit for bit, with or without the tracer attached
    for result in rounds[1:]:
        differing = sorted(
            key for key, value in result["exact"].items() if rounds[0]["exact"].get(key) != value
        )
        if differing:
            errors.append(
                f"exact counts differ between rounds of one seed "
                f"({'traced' if result['traced'] else 'untraced'}): {', '.join(differing)}"
            )

    def over_untraced(metric: Metric) -> Optional[Dict[str, Any]]:
        return _summary(
            metric,
            [r["end_to_end"][metric.name] for r in untraced if r["end_to_end"][metric.name] is not None],
        )

    end_to_end = {metric.name: over_untraced(metric) for metric in END_TO_END}
    per_layer: Dict[str, Optional[Dict[str, Any]]] = {}
    missing: List[str] = []
    if traced:
        missing = sorted({name_ for r in traced for name_ in r["per_layer_missing"]})
        overhead = median([r["timed_wall_s"] for r in traced]) / median(
            [r["timed_wall_s"] for r in untraced]
        )
        for metric in PER_LAYER:
            values = [r["per_layer"][metric.name] for r in traced if r["per_layer"].get(metric.name) is not None]
            if metric.name == "bench.trace_overhead_ratio":
                values = [overhead]
            elif metric.name in floor["floors"]:
                values = [floor["floors"][metric.name]]
            per_layer[metric.name] = _summary(metric, values)
    return {
        "why": WORKLOADS[name],
        "rounds": len(untraced),
        "traced_rounds": len(traced),
        "instances": untraced[0]["instances"],
        "steps": untraced[0]["steps"],
        "latency_samples_per_round": untraced[0]["samples"],
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "correct": not errors,
        "errors": errors[:8],
        "end_to_end": end_to_end,
        "host": {metric.name: over_untraced(metric) for metric in HOST},
        "per_layer": per_layer,
        "per_layer_missing": missing,
        "exact": untraced[0]["exact"],
    }


# -- printing ----------------------------------------------------------------------------


def _row(name: str, entry: Optional[Dict[str, Any]]) -> str:
    if entry is None:
        return f"     {name:<44} n/a"
    return (
        f"     {name:<44} {entry['median']:>14.6g} {entry['unit']:<12}"
        f" [{entry['min']:.6g} .. {entry['max']:.6g}] n={entry['n']}"
    )


def print_workload(name: str, result: Dict[str, Any], args: argparse.Namespace) -> None:
    print(f"\n== {name} — {result['why']}")
    print(
        f"   seed {args.seed}, scale {args.scale}: {result['instances']} timed instances, "
        f"{result['steps']} steps, {result['latency_samples_per_round']} latency samples per round; "
        f"{result['rounds']} untraced + {result['traced_rounds']} traced rounds"
    )
    print("   end to end — median of untraced rounds [min .. max]; times at nominal host speed")
    for metric in END_TO_END:
        print(_row(metric.name, result["end_to_end"][metric.name]))
    print("   the host — raw wall clock of the same rounds")
    for metric in HOST:
        print(_row(metric.name, result["host"][metric.name]))
    if result["per_layer"]:
        print("   per layer — median of traced rounds; times are self time")
        for metric in PER_LAYER:
            suffix = "  (trace target missing)" if metric.name in result["per_layer_missing"] else ""
            print(_row(metric.name, result["per_layer"][metric.name]) + suffix)
    verdict = "correct" if result["correct"] else "FAILED CHECKS"
    print(f"   outputs: {verdict} — {result['attempted']} instances checked, {result['failed']} failed")
    for error in result["errors"]:
        print(f"     ! {error}")


def contract_line(result: Dict[str, Any], traced: bool) -> str:
    """The one-object summary BENCHMARK.json's driver reads off the last line."""
    metrics: Dict[str, Dict[str, Any]] = {}
    for metric in TRACE_RUN_METRICS if traced else CONTRACT_END_TO_END:
        entry = (
            result["end_to_end"].get(metric.name)
            or result["per_layer"].get(metric.name)
            or result.get("host", {}).get(metric.name)
        )
        if entry is not None:
            value = entry["median"]
        else:
            value = TARGET_MISSING if metric.name in result["per_layer_missing"] else NOT_APPLICABLE
        metrics[metric.name] = {"value": value, "unit": metric.unit}
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def run(args: argparse.Namespace) -> int:
    names = args.workload or list(WORKLOADS)
    if args.spans_out:
        open(args.spans_out, "w").close()  # children append
    report: Dict[str, Any] = {
        "schema": 1,
        "commit": _commit(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "seed": args.seed,
        "scale": args.scale,
        "workloads": {},
    }
    try:
        for name in names:
            report["workloads"][name] = measure(name, args)
            print_workload(name, report["workloads"][name], args)
    finally:
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
        print(f"\nwrote {args.out}")
    if args.append_history:
        row = {
            "commit": report["commit"], "date": report["date"],
            "seed": args.seed, "scale": args.scale,
            "medians": {
                name: {
                    metric: entry["median"]
                    for metric, entry in result["end_to_end"].items() if entry is not None
                }
                for name, result in report["workloads"].items()
            },
        }
        with open(args.append_history, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
        print(f"appended {args.append_history}")
    if len(names) == 1:
        print(contract_line(report["workloads"][names[0]], bool(args.trace)))
    return 0 if all(result["correct"] for result in report["workloads"].values()) else 1


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in ("run", "compare"):
        argv.insert(0, "run")
    parser = argparse.ArgumentParser(prog="python -m benchmarks.bench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    runner = commands.add_parser("run", help="measure workloads (the default command)")
    runner.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="workload to run; repeatable; default: all six")
    runner.add_argument("--seed", type=int, default=0)
    runner.add_argument("--scale", type=float, default=1.0,
                        help="common factor on every workload's instance count")
    runner.add_argument("--repeats", type=int, default=3, help="least untraced rounds per workload")
    runner.add_argument("--seconds", type=float, default=0.0,
                        help="keep starting rounds until this much time has passed")
    runner.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: pair every untraced round with a traced one for the per-layer metrics")
    runner.add_argument("--out", help="write the full result as JSON")
    runner.add_argument("--append-history", metavar="FILE",
                        help="append one line (commit, date, medians) to FILE")
    runner.add_argument("--spans-out", default="", metavar="FILE",
                        help="dump the raw spans of each workload's first traced round as JSON lines")

    comparer = commands.add_parser("compare", help="set two --out files side by side")
    comparer.add_argument("baseline")
    comparer.add_argument("candidate")

    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare_files(args.baseline, args.candidate)
    return run(args)
