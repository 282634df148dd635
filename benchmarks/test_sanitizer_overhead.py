"""Sanitizer overhead: the dynamic race/lockset observer must stay cheap.

Two claims backing ``docs/ANALYSIS.md``:

* **disabled = free**: an unsanitized engine carries no hooks at all — the
  instance tree's ``_publish``/``_start_node`` are the pristine class
  methods, so the default path pays zero branches for the feature;
* **enabled adds <= 5,900 Python calls**: with vector clocks and the access
  history threaded through every publish/start, one run of the fan-heavy
  hotpath workload makes at most 5,900 Python-level calls more than a plain
  run (7,516 plain vs 13,124 sanitized under pytest on 3.11.7: 5,608 added;
  3.12 unverified).  The gate is the calls the sanitizer *adds*, not their
  ratio to the plain run's: a cheaper plain run raises the ratio with the
  sanitizer unchanged — 5,608 added calls were 1.621x of 9,035 plain calls
  and are 1.746x of 7,516.  Calls repeat to the call where wall clocks
  spread: the gate used to be a 2.5x wall-clock budget, which a shared host
  misses and meets by turns (2.47 to 2.59), so the wall ratio is still
  measured and printed, not asserted; so is the call ratio.

Writes the counts and both ratios to ``BENCH_sanitizer.json`` (override
with the ``BENCH_SANITIZER`` environment variable).
"""

import json
import os
import sys
import time

from repro.analysis import Sanitizer
from repro.engine import LocalEngine, LocalWorkflow
from repro.engine.instance import InstanceTree
from repro.workloads import fan

from .conftest import report

ADDED_CALLS_BUDGET = 5_900


def measure(sanitized, repeats=5):
    script, registry, root, inputs = fan(64)
    best = None
    for _ in range(repeats):
        engine = LocalEngine(
            registry, sanitizer=Sanitizer() if sanitized else None
        )
        begin = time.perf_counter()
        result = engine.run(script, root, inputs=inputs)
        elapsed = time.perf_counter() - begin
        assert result.completed, result.status
        best = elapsed if best is None else min(best, elapsed)
    return best


def count_calls(sanitized):
    """Python-level calls of one run (the inline ``sys.setprofile`` counter of
    ``benchmarks/calls_per_step.py``: a helper's own frame would be counted)."""
    script, registry, root, inputs = fan(64)
    engine = LocalEngine(registry, sanitizer=Sanitizer() if sanitized else None)
    calls = 0

    def counter(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(counter)
    try:
        result = engine.run(script, root, inputs=inputs)
    finally:
        sys.setprofile(None)
    assert result.completed, result.status
    return calls


def test_disabled_sanitizer_installs_no_hooks():
    script, registry, root, inputs = fan(8)
    wf = LocalWorkflow(script, root, registry)
    assert wf.tree._publish.__func__ is InstanceTree._publish
    assert wf.tree._start_node.__func__ is InstanceTree._start_node


def test_sanitizer_overhead_within_budget():
    plain_s = measure(sanitized=False)
    sanitized_s = measure(sanitized=True)
    ratio = sanitized_s / plain_s
    plain_calls = count_calls(sanitized=False)
    sanitized_calls = count_calls(sanitized=True)
    added_calls = sanitized_calls - plain_calls
    call_ratio = sanitized_calls / plain_calls
    report(
        "sanitizer overhead on fan(64)",
        ["mode", "python calls", "added (gated)", "call ratio", "best wall s", "wall ratio"],
        [
            ("plain", plain_calls, 0, "1.00", f"{plain_s:.4f}", "1.00"),
            (
                "sanitized", sanitized_calls, added_calls, f"{call_ratio:.3f}",
                f"{sanitized_s:.4f}", f"{ratio:.2f}",
            ),
        ],
    )
    out = os.environ.get("BENCH_SANITIZER", "BENCH_sanitizer.json")
    with open(out, "w") as fh:
        json.dump(
            {
                "workload": "fan64",
                "plain_wall_s": round(plain_s, 6),
                "sanitized_wall_s": round(sanitized_s, 6),
                "overhead_ratio": round(ratio, 3),
                "plain_calls": plain_calls,
                "sanitized_calls": sanitized_calls,
                "added_calls": added_calls,
                "call_ratio": round(call_ratio, 3),
                "added_calls_budget": ADDED_CALLS_BUDGET,
            },
            fh,
            indent=2,
            sort_keys=True,
        )
    print(f"   wrote {out}")
    assert added_calls <= ADDED_CALLS_BUDGET, (
        f"a sanitized run makes {added_calls} Python calls more than a plain one "
        f"({sanitized_calls} vs {plain_calls}); the budget is {ADDED_CALLS_BUDGET}"
    )
