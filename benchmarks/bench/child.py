"""One round (or one floor measurement) in a process of its own.

The parent starts ``python -m benchmarks.bench.child`` once per round so that
no round inherits another's heap, caches or garbage; the round's result is
the single JSON line this prints on stdout.  Not a user entry point.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, Dict, List, Optional

from repro.baselines import EcaWorkflow, PetriWorkflow
from repro.engine import LocalEngine

from .hostclock import HostClock
from .trace import Tracer
from .workloads import PAYLOADS, SPECS, Closed, closed_sizes, payloads_for, run_round


def _traced_round(args: argparse.Namespace) -> Dict[str, Any]:
    tracer = Tracer(keep_spans=bool(args.spans_out))
    tracer.install()
    try:
        result = run_round(args.workload, args.seed, args.scale, args.workdir, tracer)
    finally:
        tracer.restore()
    if args.spans_out:
        with open(args.spans_out, "a", encoding="utf-8") as fh:
            for span in tracer.spans:
                if span is not None:
                    fh.write(json.dumps({"workload": args.workload, **span}) + "\n")
    return result


def floors(name: str, seed: int, scale: float) -> Dict[str, Any]:
    """Steps per second of the workload's script shape on engines with no
    services, transport or WAL: what the distributed stack is paying for.
    Same warm-up, count and nominal-speed seconds as the workload; a step is
    one task run."""
    spec: Closed = SPECS[name]
    shape, size = spec.shape
    script, registry, root, _inputs = shape(size)
    warmup, count, _in_flight = closed_sizes(spec, scale)
    tasks = len(script.tasks[root].tasks)
    payloads = payloads_for(seed)
    warm_inputs = [payloads[index % PAYLOADS] for index in range(warmup)]
    inputs = [payloads[index % PAYLOADS] for index in range(count)]

    engines: Dict[str, Callable[[str], Optional[str]]] = {
        "floor.local_engine_steps_per_s": lambda payload: LocalEngine(registry)
        .run(script, root, inputs={"inp": payload}).value("out"),
        "floor.eca_steps_per_s": lambda payload: EcaWorkflow(script, root, registry)
        .run({"inp": payload})["objects"].get("out"),
        "floor.petrinet_steps_per_s": lambda payload: PetriWorkflow(script, root, registry)
        .run({"inp": payload})["objects"].get("out"),
    }
    values: Dict[str, float] = {}
    errors: List[str] = []
    host = HostClock()
    for metric, run in engines.items():
        for payload in warm_inputs:
            run(payload)
        outputs = []
        host.start()
        for payload in inputs:
            outputs.append(run(payload))
            host.tick()
        values[metric] = tasks * count / host.stop().nominal_wall
        if outputs != inputs:
            errors.append(f"{metric}: outputs differ from the inputs the shape passes through")
    return {"workload": name, "floors": values, "errors": errors}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.bench.child")
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans-out", default="")
    parser.add_argument("--floors", action="store_true")
    args = parser.parse_args(argv)
    if args.floors:
        result = floors(args.workload, args.seed, args.scale)
    elif args.trace:
        result = _traced_round(args)
    else:
        result = run_round(args.workload, args.seed, args.scale, args.workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
