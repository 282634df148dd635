"""Python calls per journaled step through the full distributed stack, and
Python calls and line events per ``compile_script`` of a script text (what a
deploy pays ahead of it).

An exact stand-in for CPU cost on a noisy host: under ``PYTHONHASHSEED=0``
the count repeats to the call, so a refactor of the service path can be held
to "no heavier" where wall-clock figures spread by 6-26 %.  The figures are
interpreter-version-specific — compare two trees under one interpreter::

    PYTHONHASHSEED=0 python benchmarks/calls_per_step.py              # this tree
    PYTHONHASHSEED=0 python benchmarks/calls_per_step.py ../parent/src

Prints one JSON object: the three unreplicated workloads, ``fan(64)`` behind
a hot standby (what a standby costs the primary per step) and, under
``"compile"``, the calls and the line events one ``compile_script`` of each
script text makes.  A loop that runs inside one call (a lexer's, say) is one
call however long it runs; its line events count every pass.
Beside each workload's calls it prints ``mirror_bytes_per_step``: the bytes
the primary's WAL mirror grows by per journaled step over as many more
instances, run uncounted, each measured from just after its ``instantiate``
is synced to its terminal barrier (instantiate excluded, as
``tests/test_journal_layout.py::TestBarrierCost`` measures).  Those are
exact on any interpreter.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

# (label, generator in repro.workloads.generators, size, counted instances,
# WorkflowSystem keywords)
WORKLOADS = (
    ("chain(32)", "chain", 32, 20, {"workers": 2}),
    ("fan(64)", "fan", 64, 10, {"workers": 2}),
    ("chain(8)", "chain", 8, 40, {"workers": 2}),
    ("fan(64) replicas=2", "fan", 64, 10, {"workers": 3, "replicas": 2}),
)

class CallCounter:
    """A ``sys.setprofile`` hook counting Python-level calls (not C calls).
    Installed inline where it is used: a helper's own frame would be counted."""

    calls = 0

    def __call__(self, frame, event, arg):
        if event == "call":
            self.calls += 1


class LineCounter:
    """A ``sys.settrace`` hook counting line events in Python frames.  Like
    :class:`CallCounter`, installed inline where it is used."""

    lines = 0

    def __call__(self, frame, event, arg):
        return self.local

    def local(self, frame, event, arg):
        if event == "line":
            self.lines += 1
        return self.local


def calls_per_compile():
    from repro import workloads
    from repro.lang import compile_script

    texts = {
        "fan(64)": workloads.script_text(workloads.fan(64)),
        "chain(32)": workloads.script_text(workloads.chain(32)),
        "order": workloads.paper_order.SCRIPT_TEXT,
        "trip": workloads.paper_trip.SCRIPT_TEXT,
        "service-impact": workloads.paper_service_impact.SCRIPT_TEXT,
    }
    counts = {}
    for label, text in texts.items():
        compile_script(text)  # warm, uncounted
        counter = CallCounter()
        sys.setprofile(counter)
        try:
            compile_script(text)
        finally:
            sys.setprofile(None)
        lines = LineCounter()
        sys.settrace(lines)
        try:
            compile_script(text)
        finally:
            sys.settrace(None)
        counts[label] = {"calls": counter.calls, "line_events": lines.lines}
    return counts


def calls_per_step(generator, size, instances, system_kwargs):
    from repro.lang import format_script
    from repro.services import WorkflowSystem
    from repro.workloads import generators

    script, registry, root, inputs = getattr(generators, generator)(size)
    with tempfile.TemporaryDirectory() as tmp:
        mirror = os.path.join(tmp, "wal.jsonl")
        system = WorkflowSystem(registry=registry, mirror_path=mirror, **system_kwargs)
        system.deploy("w", format_script(script))
        system.run_until_terminal(system.instantiate("w", root, inputs))  # warm, uncounted
        counter = CallCounter()
        iids = []
        sys.setprofile(counter)
        try:
            for _ in range(instances):
                iids.append(system.instantiate("w", root, inputs))
                system.run_until_terminal(iids[-1])
        finally:
            sys.setprofile(None)
        calls = counter.calls
        steps = sum(system.execution.journal.length(iid) for iid in iids)
        mirror_bytes = mirror_bytes_per_step(system, mirror, root, inputs, instances)
        system.execution_store.wal.close()
    return {
        "calls": calls, "steps": steps, "calls_per_step": round(calls / steps, 2),
        "mirror_bytes_per_step": mirror_bytes,
    }


def mirror_bytes_per_step(system, mirror, root, inputs, instances):
    store = system.execution_store
    written = steps = 0
    for _ in range(instances):
        iid = system.instantiate("w", root, inputs)
        store.sync()
        before = os.path.getsize(mirror)
        system.run_until_terminal(iid)
        written += os.path.getsize(mirror) - before
        steps += system.execution.journal.length(iid)
    return round(written / steps, 2)


def main() -> None:
    src = sys.argv[1] if len(sys.argv) > 1 else os.path.join(HERE, os.pardir, "src")
    sys.path.insert(0, os.path.abspath(src))
    if os.environ.get("PYTHONHASHSEED") != "0":
        print("warning: set PYTHONHASHSEED=0 for repeatable counts", file=sys.stderr)
    report = {label: calls_per_step(*rest) for label, *rest in WORKLOADS}
    report["compile"] = calls_per_compile()
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
