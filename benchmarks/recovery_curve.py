"""Recovery and promotion cost against history length, as exact counts.

A recovered or promoted execution service takes in every instance its store
holds.  This measures how that cost grows with the number of settled
instances, the history a long-running service accumulates.  Each run builds
``WorkflowSystem(workers=4, seed=7)`` with the ``chain(8)`` script, runs N
instances to their outcome one after another and instantiates 16 more that
are left open, then:

* ``recovery``: the execution node crashes (its store drops what was not
  forced and rebuilds its committed state from the WAL) and recovers (the
  service rebuilds every instance: ``ExecutionService.on_recover``);
* ``promotion`` (``replicas=2``): the primary's node crashes and time runs
  until the standby wins the lease and rebuilds
  (``ReplicatedExecutionService._promote``).

Per run it reports the store's keys and the WAL's in-memory records just
before the crash, the distinct scripts among the open instances, and,
counted inside the rebuild alone, the Python calls, the store keys handed to
a scan (what ``ObjectStore.keys`` returned), WAL records handed to
``wal.fold`` (a replay of the log inside the rebuild), journal entries
decoded and scripts compiled.  The execution service's compiled-script
cache is process-wide, so it is emptied just before the crash: the rebuild
compiles what a restarted process would.  The counts are exact and repeat to the
unit, so CI gates each one's slope per settled instance between successive
history lengths, and the compiles against the open instances' scripts; the
milliseconds spent in the rebuild and in the store's WAL replay are
printed, not gated::

    python benchmarks/recovery_curve.py            # this tree
    python benchmarks/recovery_curve.py ../parent/src

Prints one JSON object (``runs`` and ``slopes``) on stdout and a table on
stderr.  Stdlib only; about a minute on a 2-core host.
"""

from __future__ import annotations

import json
import operator
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

HISTORY = (250, 1000, 4000)  # settled instances
OPEN = 16                    # instances left open at the crash
OPEN_FOR = 6.0               # simulated seconds they run before it
COUNTS = ("store_keys", "wal_records", "calls", "keys_scanned", "records_folded",
          "entries_decoded", "compiles")


class RebuildCounter:
    """A ``sys.setprofile`` hook that counts only inside one function's
    extent (the rebuild)."""

    def __init__(self, target):
        from repro.lang import compile_script
        from repro.services import journal
        from repro.txn import wal
        from repro.txn.store import ObjectStore

        self.target = target.__code__
        self.keys = ObjectStore.keys.__code__
        self.fold = wal.fold.__code__
        self.decode = journal.decode_entry.__code__
        self.compile = compile_script.__code__
        self.inside = False
        self.calls = self.keys_scanned = self.records_folded = 0
        self.entries_decoded = self.compiles = 0
        self.seconds = 0.0
        self.started = 0.0

    def __call__(self, frame, event, arg):
        code = frame.f_code
        if event == "call":
            if code is self.target:
                self.inside, self.started = True, time.perf_counter()
            if not self.inside:
                return
            self.calls += 1
            if code is self.decode:
                self.entries_decoded += 1
            elif code is self.compile:
                self.compiles += 1
            elif code is self.fold:
                # a list or a list iterator, not yet consumed
                self.records_folded += operator.length_hint(frame.f_locals["records"])
        elif event == "return" and self.inside:
            if code is self.keys:
                self.keys_scanned += len(arg)
            elif code is self.target:
                self.inside = False
                self.seconds += time.perf_counter() - self.started


def run(mode: str, settled: int) -> dict:
    from repro.replication.replica import ReplicatedExecutionService
    from repro.services import ExecutionService, WorkflowSystem, execution
    from repro.services.journal import Journal
    from repro.workloads import generators, script_text

    workload = generators.chain(8)
    _script, registry, root, inputs = workload
    replicas = 2 if mode == "promotion" else 0
    system = WorkflowSystem(registry=registry, workers=4, seed=7, replicas=replicas)
    system.deploy("w", script_text(workload))
    for _ in range(settled):
        system.run_until_terminal(system.instantiate("w", root, inputs))
    opened = [system.instantiate("w", root, inputs) for _ in range(OPEN)]
    system.clock.advance(OPEN_FOR)  # each open instance journals a few steps
    primary = system.primary_execution()
    store = primary.store
    row = {"mode": mode, "settled": settled,
           "store_keys": len(store.keys()), "wal_records": len(store.wal),
           "open_scripts": len({Journal(store).spec(iid)["script"] for iid in opened})}

    if mode == "recovery":
        target = ExecutionService.on_recover
        started = time.perf_counter()
        store.crash()  # the WAL replay, on its own
        row["wal_replay_ms"] = round((time.perf_counter() - started) * 1000, 3)
    else:
        target = ReplicatedExecutionService._promote
    counter = RebuildCounter(target)
    execution._COMPILE_CACHE.clear()
    sys.setprofile(counter)
    try:
        if mode == "recovery":
            system.execution_node.crash()
            system.execution_node.recover()
        else:
            primary.node.crash()
            clock = system.clock
            deadline = clock.now + 10 * system.spec.lease_duration
            while system.primary_execution() is None and clock.now < deadline:
                clock.advance(system.spec.repl_interval)
    finally:
        sys.setprofile(None)
    rebuilt = system.primary_execution()
    if rebuilt is None or len(rebuilt.runtimes) != settled + OPEN:
        raise SystemExit(f"{mode}: the rebuild did not take in all {settled + OPEN} instances")
    if any(rebuilt.journal.closed(iid) for iid in opened):
        raise SystemExit(f"{mode}: an instance meant to be open at the crash had closed")
    row.update(calls=counter.calls, keys_scanned=counter.keys_scanned,
               records_folded=counter.records_folded,
               entries_decoded=counter.entries_decoded, compiles=counter.compiles,
               rebuild_ms=round(counter.seconds * 1000, 3))
    return row


def slopes(runs: list) -> dict:
    """Per mode and count, the growth per settled instance between each
    pair of successive history lengths (exact: the counts are integers)."""
    found = {}
    for mode in ("recovery", "promotion"):
        rows = [row for row in runs if row["mode"] == mode]
        for count in COUNTS:
            found[f"{mode}.{count}"] = [
                round((b[count] - a[count]) / (b["settled"] - a["settled"]), 6)
                for a, b in zip(rows, rows[1:])
            ]
    return found


def main() -> None:
    src = sys.argv[1] if len(sys.argv) > 1 else os.path.join(HERE, os.pardir, "src")
    sys.path.insert(0, os.path.abspath(src))
    runs = [run(mode, settled) for mode in ("recovery", "promotion") for settled in HISTORY]
    columns = ("mode", "settled") + COUNTS + ("wal_replay_ms", "rebuild_ms")
    print("  ".join(f"{c:>15}" for c in columns), file=sys.stderr)
    for row in runs:
        print("  ".join(f"{row.get(c, ''):>15}" for c in columns), file=sys.stderr)
    print(json.dumps({"runs": runs, "slopes": slopes(runs)}, indent=2))


if __name__ == "__main__":
    main()
