"""Which check catches which bug: seeded source mutants against the sim
checker and tier-1 (EXPERIMENTS.md E16).

A mutant is one or more exact-string patches of files under ``src/repro``,
applied to a scratch copy of the checkout; a patch whose text is not found
exactly once fails loudly, so a mutant cannot go stale silently.  Each
mutant is run against

* the *checker*: :func:`checker_runs`, every run one ``SimHarness`` under the
  harness oracles — the exhaustive crash-point sweep of ``order`` x1,
  ``order`` x3 and ``trip`` x2 (``ChaosSweep.plans``: each WAL force point
  also at its last hit, ``@last``), CI's 64 random schedules, the failover
  sweep, one run per other fault kind, two tier-1 scenarios (a load spike
  under tight admission, a lease term off the lease tick) and fault-free
  runs.  A run *catches*
  a mutant when it reports a violation or raises (it does neither on an
  unmutated tree); a planned exhaustive run whose point the mutated tree
  leaves unreached (not ledgered in ``explorer.UNCOVERED``, and visited by
  none of the runs the planner reads) is a catch named ``unreached``,
  credited to its crash point, as the CLI's exhaustive pass fails on it.
  A catching run is shrunk as the explorer shrinks
  (faults dropped while it still catches, down to none); the fault kinds
  and crash points left in the shrunk schedule are the ones credited with
  the catch, and a catch that needs no fault credits none;
* tier-1 (``--tier1``): the failing test ids of a ``pytest`` run of
  tier-1 (hypothesis shrinking off, stopped after 5 failures or 300 s).

A checker part (oracle name, fault kind, crash point or torn variant)
*alone catches* a mutant when deleting it would lose every catching run
(:func:`alone`).  E16's rule deletes a part that alone catches nothing, one
at a time, re-measuring after each deletion.

    python benchmarks/mutants.py                 # checker table, every mutant (≈1 min)
    python benchmarks/mutants.py --tier1         # ... and tier-1 per mutant (≈75 s each)
    python benchmarks/mutants.py --only NAME     # one mutant (repeatable)
    python benchmarks/mutants.py --must-catch    # CI: each must-catch mutant fails its check
                                                 # (each check first passes unmutated)

JSON goes to stdout, the table to stderr.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
RUN_SECONDS = 60  # a checker run slower than this counts as caught ("timeout")


@dataclass(frozen=True)
class Mutant:
    """A seeded bug: ``patches`` are ``(file under src/repro, old, new)``.
    ``check`` names what must catch it when ``must`` is set: a checker run
    (``run:<name>``) or a tier-1 test id."""

    name: str
    aim: str
    patches: Tuple[Tuple[str, str, str], ...]
    must: bool = False
    check: str = ""


def _m(name, aim, *patches, must=False, check=""):
    return Mutant(name, aim, tuple(patches), must, check)


EXEC = "services/execution.py"
JOURNAL = "services/journal.py"
REPLICA = "replication/replica.py"
INSTANCE = "engine/instance.py"

# Fixed before the first deletion (E16).  ``aim``: the check or fault kind
# the mutant was written against, and where the bug was first described.
MUTANTS: Tuple[Mutant, ...] = (
    # -- bugs scratch copies caught in earlier changes (CHANGES.md) ------------
    _m("enqueue-on-flip-dropped", "liveness; described in CHANGES.md (fan(8) and diamond() stall)",
       (INSTANCE,
        "                        elif tracker.offer(event) and tracker.satisfied:\n"
        "                            self._enqueue_if_ready(child)",
        "                        else:\n"
        "                            tracker.offer(event)"),
       must=True, check="run:fault-free:order"),
    _m("barrier-per-send", "tier-1; described in CHANGES.md",
       (EXEC,
        "        self.health.on_dispatch(worker, now)\n        flight.sent_to[worker] = now",
        "        self.flush_journal()\n"
        "        self.health.on_dispatch(worker, now)\n        flight.sent_to[worker] = now"),
       must=True, check="tests/test_step_bookkeeping.py"),
    _m("redispatch-without-barrier", "tier-1; described in CHANGES.md",
       (EXEC,
        "                        self.flush_journal((effect.runtime.iid,) if effect.closes else ())",
        "                        if not (effect.flights and effect.flights[0][1].redispatches):\n"
        "                            self.flush_journal((effect.runtime.iid,) if effect.closes else ())"),
       must=True, check="tests/test_step_bookkeeping.py"),
    _m("readiness-cached-at-enqueue", "tier-1; described in CHANGES.md",
       (INSTANCE,
        "            node.queued = True\n            self._arrivals += 1",
        "            node.queued = True\n            node.cached_ready = node.ready()\n"
        "            self._arrivals += 1"),
       (INSTANCE,
        "            readiness = node.ready()\n            if readiness is None:  # stale",
        "            readiness = node.ready() and node.cached_ready\n"
        "            if readiness is None:  # stale"),
       must=True, check="tests/test_step_bookkeeping.py"),
    _m("unwrapped-plain-values", "replay-agreement; described in CHANGES.md",
       (JOURNAL, '                        objects[key] = [item["value"]]',
        '                        objects[key] = item["value"]'),
       must=True, check="tests/test_closed_mark.py"),
    _m("unresolved-digest", "script-resolution; described in CHANGES.md",
       (JOURNAL, '        stored["script_text"] = script_text(stored["script_text"])',
        '        stored["script_text"] = stored["script_text"]'),
       must=True, check="tests/test_journal_codec.py"),
    _m("no-check-script", "tier-1; described in CHANGES.md",
       (EXEC, "        self.journal.check_script(new_script_text)\n", ""),
       must=True, check="tests/test_journal_codec.py"),
    _m("no-interning-in-commit", "script-resolution; described in CHANGES.md",
       (JOURNAL,
        "        for digest, text in scripts.items():\n"
        "            writes.update(self._intern(digest, text))\n        store.commit_batch(writes)",
        "        store.commit_batch(writes)"),
       must=True, check="tests/test_journal_codec.py"),
    _m("commit-ignores-closed", "settled-is-closed; described in CHANGES.md",
       (JOURNAL, '                    "journal_len": n + len(rows), "closed": iid in closed,',
        '                    "journal_len": n + len(rows), "closed": False,'),
       must=True, check="run:fault-free:order"),
    # the shell answers without the post-barrier primacy check (before the
    # one answer rule: the replica's reconfigure override dropped)
    _m("reconfigure-override-dropped", "tier-1; described in CHANGES.md",
       (EXEC,
        "                        if type(effects[-1]) is Answer:\n"
        "                            raise Fenced(",
        "                        if type(effects[-1]) is Answer:\n"
        "                            return effects[-1].value\n"
        "                            raise Fenced("),
       must=True, check="tests/test_replication.py"),
    _m("no-primacy-recheck-after-barrier", "single-primary; described in CHANGES.md",
       (EXEC,
        "                    if not self.is_primary():\n"
        "                        if type(effects[-1]) is Answer:",
        "                    if False:\n"
        "                        if type(effects[-1]) is Answer:"),
       must=True, check="tests/test_replication.py"),
    _m("tick-only-primacy", "single-primary, partition (the primary); described in CHANGES.md",
       (REPLICA,
        '        return self.role is Role.PRIMARY and self._now() < self.lease["expires_at"]',
        "        return self.role is Role.PRIMARY"),
       (REPLICA,
        "        if not self.is_primary():\n            # The lease lapsed without renewal",
        '        if self._now() >= self.lease["expires_at"]:\n'
        "            # The lease lapsed without renewal"),
       must=True, check="run:scenario:lease-off-tick"),
    _m("no-epoch-restamp", "crash_at_time (the primary); described in CHANGES.md",
       (EXEC,
        '        if flight.request["epoch"] != self.epoch:\n'
        '            flight.request = type(flight.request)(flight.request, epoch=self.epoch)\n', ""),
       must=True, check="tests/test_marshal_protocols.py"),
    _m("network-ignores-dup-and-reorder", "burst (dup_rate, reorder_window); described in CHANGES.md",
       ("net/network.py",
        "        if not (self.partitions or self.loss_rate or self.dup_rate or self.reorder_window):",
        "        if not (self.partitions or self.loss_rate):"),
       must=True, check="tests/test_network.py"),
    # -- one per oracle name -----------------------------------------------------
    _m("epoch-write-bypasses-log", "store-agreement",
       (EXEC, '        self.store.commit_batch({"exec-epoch": advanced})',
        '        self.store._committed["exec-epoch"] = advanced'),
       must=True, check="run:fault-free:order"),
    _m("batch-record-per-key", "journal-contiguity, crash_at_point (torn writes)",
       ("txn/store.py",
        "        self.wal.append(kind, txn, None, value)\n        self.wal.force()",
        "        if kind == wal_mod.BATCH:\n"
        "            for key, item in value.items():\n"
        "                self.wal.append(kind, txn, None, {key: item})\n"
        "        else:\n            self.wal.append(kind, txn, None, value)\n"
        "        self.wal.force()"),
       must=True, check="run:exhaustive:orderx1:wal.force.pre/torn"),
    _m("script-text-after-spec", "script-resolution",
       (JOURNAL,
        "        self.store.commit_batch({\n            **script_write,\n"
        '            "instance-counter": counter,',
        "        self.store.commit_batch({\n"
        '            "instance-counter": counter,'),
       (JOURNAL,
        '            f"instance:{iid}:meta": {"journal_len": 0},\n        })\n',
        '            f"instance:{iid}:meta": {"journal_len": 0},\n        })\n'
        "        if script_write:\n            self.store.commit_batch(script_write)\n"),
       must=True, check="run:exhaustive:orderx1:wal.force.post"),
    _m("no-dedup-against-journal", "exactly-once, burst (dup_rate)",
       (EXEC,
        '        if runtime.settled or ("result", path, exec_index) in runtime.journal_keys:',
        "        if runtime.settled:"),
       must=True, check="run:kind:dup-reorder:order"),
    _m("result-fields-swapped-in-decode", "replay-agreement",
       (JOURNAL, '            "kind": output, "name": stored.pop("name"),',
        '            "kind": stored.pop("name"), "name": output,')),
    _m("every-barrier-closes", "closed-is-settled; tests/test_closed_mark.py",
       (JOURNAL,
        "            if tail.ended or iid in closed:\n"
        '                writes[f"instance:{iid}:meta"] = {\n'
        '                    "journal_len": n + len(rows), "closed": iid in closed,',
        "            if True:\n"
        '                writes[f"instance:{iid}:meta"] = {\n'
        '                    "journal_len": n + len(rows), "closed": True,')),
    # added after the first deletion: the described bug of PROTOCOLS §9.3
    _m("closed-with-flights-out",
       "closed-is-settled; tests/test_closed_mark.py (random_dag(12, seed=1))",
       (EXEC, "            effects.append(Dispatch(runtime, closes=not runtime.in_flight))",
        "            effects.append(Dispatch(runtime, closes=True))"),
       must=True, check="run:exhaustive:tripx2:worker.execute.post"),
    _m("terminal-barrier-deferred", "durability",
       (EXEC, "            effects.append(Dispatch(runtime, closes=not runtime.in_flight))\n", "")),
    _m("no-redispatch", "liveness, burst (loss_rate), partition",
       (EXEC, "        for worker in list(flight.sent_to):\n            if self.health.on_timeout(",
        "        return []\n        for worker in list(flight.sent_to):\n"
        "            if self.health.on_timeout(")),
    _m("queued-never-promoted", "no-silent-drop, load_spike",
       (EXEC, "                promoted = self.admission.promote_ready(self._now())",
        "                promoted = []"),
       must=True, check="run:scenario:spike-tight-admission"),
    _m("shed-not-journaled", "no-silent-drop, load_spike",
       (EXEC, "        return [Journal(runtime, entry), Dispatch(runtime, closes=True)]",
        "        return [Dispatch(runtime, closes=True)]")),
    _m("promote-under-seen-epoch", "single-writer-per-epoch, crash_at_time (the primary)",
       (REPLICA, '        self.epoch = grant["epoch"]\n        self.isr =',
        "        self.epoch = self._max_epoch_seen or grant[\"epoch\"]\n        self.isr ="),
       must=True, check="run:kind:replica-crash:trip"),
    _m("grant-keeps-the-epoch", "single-writer-per-epoch, repl.lease.grant",
       ("replication/lease.py", '            "epoch": lease["epoch"] + 1,',
        '            "epoch": max(lease["epoch"], 1),'),
       must=True, check="run:failover:kill-primary:trip"),
    _m("standby-accepts-stale-push", "epoch-monotone, crash_at_time (a stale primary's return)",
       (REPLICA, "        if epoch < self._max_epoch_seen:\n", "        if False:\n"),
       (REPLICA, "            if epoch <= self.epoch:\n", "            if False:\n")),
    # -- one per fault kind not aimed at above -------------------------------------
    _m("stale-execution-applied", "burst (reorder_window)",
       (EXEC,
        "        if runtime.exec_counter.get(path) != entry[\"exec\"]:\n"
        "            return  # stale: a newer execution of this path supersedes it\n", ""),
       must=True, check="tests/test_services.py"),
    _m("promotion-skips-rebuild", "crash_at_time; liveness on the successor of a primary "
       "killed for good",
       (REPLICA, "        self._rebuild()  # what a crash recovery does with its store, over ours\n", ""),
       must=True, check="run:failover:kill-forever:order"),
    _m("recovered-replica-skips-resync", "crash_at_time (a stale primary's return); a tail a "
       "deposed epoch left",
       (REPLICA,
        "            if tail[\"epoch\"] != epoch:\n", "            if False:\n"),
       must=True, check="tests/test_replication.py"),
    _m("worker-ignores-fence", "partition, crash_at_time (the primary cut off, a stale "
       "primary's return)",
       ("services/worker.py", "            if epoch < self.fence_epoch:", "            if False:")),
    _m("recovery-skips-resume", "crash_at_time, random_crashes",
       (EXEC, "        for key, flight in sorted(runtime.in_flight.items(), key=lambda kv: kv[0]):",
        "        for key, flight in ():")),
    _m("mark-not-deduped", "exactly-once, exec.mark.recv (now exec.mark.journal.pre)",
       (EXEC,
        "        if _dedup_key(entry) in runtime.journal_keys:\n            return []\n"
        "        return self._record(runtime, entry)",
        "        return self._record(runtime, entry)")),
    # -- values: consistent with the journal, wrong against the fault-free run ------
    _m("start-inputs-cached-with-plan", "refinement (an instance started on another's inputs)",
       (EXEC, '        tree.start(spec["input_set"], spec["inputs"])',
        '        tree.start(spec["input_set"], compiled.__dict__.setdefault("inputs", spec["inputs"]))'),
       must=True, check="run:fault-free:order"),
    _m("wire-result-drops-an-object", "refinement (a reply's objects lost in the wire decode)",
       ("services/serialization.py",
        "    return tuple.__new__(TaskResult, (_KINDS[kind], name, dict(objects)))",
        "    return tuple.__new__(TaskResult, (_KINDS[kind], name, dict(objects[1:])))"),
       must=True, check="run:fault-free:order"),
    _m("reply-marks-dropped", "refinement (a reply's marks dropped: only the datagram copies "
       "count); surfaces as a mark applied after its task's result",
       (EXEC, "        for mark in reply.marks:", "        for mark in reply.marks[:0]:")),
    _m("worker-memoises-inputs-by-path", "refinement (a reply computed on another instance's "
       "inputs)",
       ("services/worker.py", '            inputs=dict(request["inputs"]),',
        '            inputs=dict(self.__dict__.setdefault(task_path, request["inputs"])),'),
       must=True, check="run:fault-free:order"),
    # -- one per crash-point class ---------------------------------------------------
    _m("checkpoint-truncates-before-force", "wal.checkpoint.*, exec.compact.*",
       ("txn/wal.py",
        "        self.append(CHECKPOINT, value=snapshot)\n        self.force()",
        "        self.append(CHECKPOINT, value=snapshot)\n"
        "        del self._records[:-1]\n        self._forced_upto = 0\n        self.force()"),
       must=True, check="tests/test_wal.py"),
    _m("meta-before-entries", "exec.journal.*, store.commit.*, wal.force.*",
       (JOURNAL,
        "        for digest, text in scripts.items():\n"
        "            writes.update(self._intern(digest, text))\n        store.commit_batch(writes)",
        "        for digest, text in scripts.items():\n"
        "            writes.update(self._intern(digest, text))\n"
        "        metas = {key: writes.pop(key) for key in list(writes) if key.endswith(':meta')}\n"
        "        if metas:\n            store.commit_batch(metas)\n"
        "        store.commit_batch(writes)"),
       must=True, check="run:exhaustive:orderx1:wal.force.pre@last"),
    # -- the stored form: what a barrier leaves out ----------------------------------
    _m("row-drops-a-changed-stamp", "the journal's stored form (a promotion's stamp lost)",
       (JOURNAL, "        elif stamp is not None and epoch == stamp[0] and writer == stamp[1]:",
        "        elif stamp is not None:"),
       must=True, check="tests/test_journal_codec.py"),
    _m("ref-via-dropped-when-it-differs", "the journal's stored form (a ref's own "
       "output name read back for another's)",
       (JOURNAL, '                if item["via"] != name:\n                    ref["via"] = item["via"]\n',
        ""),
       must=True, check="tests/test_journal_codec.py"),
    _m("abort-under-the-outcome-code", "the journal's stored form (a result's output kind "
       "read back as another)",
       (JOURNAL, "                row[0] = _RESULT_CODE[result[\"kind\"]]",
        "                row[0] = _RESULT_CODE[result[\"kind\"].replace(\"ABORT\", \"OUTCOME\")]"),
       must=True, check="tests/test_journal_codec.py"),
    _m("terminal-barrier-omits-meta", "journal_len exact for an ended instance "
       "(random_dag(12, seed=5) ends with a flight out)",
       (JOURNAL, "            if tail.ended or iid in closed:", "            if iid in closed:"),
       must=True, check="tests/test_closed_mark.py"),
    _m("standby-tail-before-records", "store.ingest.pre (torn)",
       (REPLICA,
        "        shipped.append((BATCH, None, None, self._tail_write(batch[\"last_lsn\"], epoch)))",
        "        shipped.insert(0, (BATCH, None, None, self._tail_write(batch[\"last_lsn\"], epoch)))"),
       must=True, check="tests/test_wal_batch.py"),
    _m("worker-drops-a-repeat", "worker.execute.*",
       ("services/worker.py",
        "        self.executed.append((iid, task_path, index))",
        "        if (iid, task_path, index) in self.executed:\n"
        "            return work_reply(iid, task_path, index, self.name, False, None, (),\n"
        '                              "repeat", fenced=True)\n'
        "        self.executed.append((iid, task_path, index))")),
    _m("recovery-forgets-closed", "exec.recover.* (now exec.resume.*)",
       (EXEC,
        "            if self.journal.closed(iid):\n"
        "                self.runtimes[iid] = _ClosedRuntime(iid, restore)\n",
        "            if self.journal.closed(iid):\n                continue\n")),
)


# -- the checker ----------------------------------------------------------------

def checker_runs():
    """``(name, SimHarness)`` for every checker run (the mutated ``repro``
    must be importable)."""
    from repro.overload import OverloadConfig
    from repro.services.system import SystemSpec
    from repro.sim import SimHarness
    from repro.sim.explorer import UNCOVERED, ChaosSweep
    from repro.sim.nemesis import (
        Burst, CrashAtTime, LoadSpike, NemesisSchedule, Partition, RandomCrashes,
    )

    class Sweep(ChaosSweep):
        def _run(self, harness):  # the runs it plans from: limited as a checker run is
            return _timed(harness.run)

    runs = []
    for workload, instances in (("order", 1), ("order", 3), ("trip", 2)):
        # the exhaustive pass, less the ledgered points no run reaches; a
        # point the tree leaves unreached has no harness (a broken
        # fault-free run is the whole pass: it raises once)
        for label, name, mode, harness in Sweep(workload, instances=instances).plans():
            suffix = "/torn" if mode == "torn" else ""
            if harness is not None or name not in UNCOVERED:  # named <point>[/torn][@last]
                runs.append((f"exhaustive:{workload}x{instances}:{name}{suffix}{label[len(name):]}",
                             harness))
    sweep = ChaosSweep("order")
    for seed in range(64):  # CI's random pass
        runs.append((f"random:order:{seed}",
                     sweep._harness(sweep.random_schedule(seed), seed, compact_every=60.0)))
    for workload in ChaosSweep.FAILOVER_WORKLOADS:
        for schedule in sweep.failover_schedules():
            runs.append((f"{schedule.name}:{workload}", sweep._harness(
                schedule, 0, replicas=2, workload=workload)))
        # a failover that never heals (the old primary stays dead): the
        # liveness oracle holds the successor to every instance
        forever = NemesisSchedule([CrashAtTime(10.0, "execution-node", downtime=None)])
        runs.append((f"failover:kill-forever:{workload}", sweep._harness(
            forever, 0, replicas=2, workload=workload)))
    kinds = [
        ("loss", NemesisSchedule([Burst(5.0, 40.0, "loss_rate", 0.3)]), {}, {}),
        ("dup-reorder", NemesisSchedule([Burst(5.0, 40.0, "dup_rate", 0.5),
                                         Burst(5.0, 40.0, "reorder_window", 5.0)]), {}, {}),
        ("partition", NemesisSchedule([Partition(5.0, ("execution-node",),
                                                 ("worker-node-1",), 30.0)]), {}, {}),
        ("replica-crash", NemesisSchedule([CrashAtTime(10.0, "execution-node", downtime=30.0)]),
         {}, {"replicas": 2}),
        ("lanes-random-crashes", NemesisSchedule([RandomCrashes(
            ("worker-node-1", "worker-node-2"), 20.0, 10.0, seed=3)]),
         {"max_time": 400.0}, {"worker_lanes": 2}),
        ("spike", NemesisSchedule([LoadSpike(5.0, 20.0, 0.5)]), {}, {}),
    ]
    for label, schedule, harness, system in kinds:
        for workload in ("order", "trip", "service-impact"):
            runs.append((f"kind:{label}:{workload}", SimHarness(
                schedule, workload=workload, instances=2,
                system=SystemSpec(seed=5, **system), **harness)))
    # the tier-1 suite's scenarios for two checks the runs above never
    # engage: admission under a spike (tests/test_overload.py) and a lease
    # term that is not a multiple of the lease tick (tests/test_single_primary.py)
    runs.append(("scenario:spike-tight-admission", SimHarness(
        NemesisSchedule([LoadSpike(50.0, 100.0, 1.0),
                         CrashAtTime(80.0, "worker-node-1", downtime=40.0)]),
        workload="order", instances=2,
        system=SystemSpec(seed=3, worker_service_time=2.0, overload=OverloadConfig(
            queue_capacity=8, initial_window=8, min_window=2)))))
    runs.append(("scenario:lease-off-tick", SimHarness(
        NemesisSchedule([
            CrashAtTime(1.0, "standby-node-2", downtime=10.0),
            Partition(2.0, ("execution-node",), ("worker-node-1",), heal_after=63.0),
            Partition(26.0, ("execution-node",), ("lease-node", "standby-node-2")),
        ]),
        check_every=1.0,
        system=SystemSpec(replicas=2, workers=1, lease_duration=30.0, repl_interval=25.0,
                          dispatch_timeout=8.0, sweep_interval=4.0))))
    for workload in ("order", "trip", "service-impact"):
        runs.append((f"fault-free:{workload}", SimHarness(
            NemesisSchedule(), workload=workload, instances=2,
            system=SystemSpec(seed=5))))
    return runs


class _Slow(Exception):
    pass


def _alarm(_signum, _frame):
    raise _Slow()


def _timed(run):
    """``run()``, raising :class:`_Slow` past :data:`RUN_SECONDS`."""
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(RUN_SECONDS)
    try:
        return run()
    finally:
        signal.alarm(0)


def _verdict(harness) -> Optional[List[str]]:
    """The oracle names a run reports, ``["error:<type>"]`` if it raises, or
    ``None`` if it catches nothing."""
    try:
        report = _timed(harness.run)
    except _Slow:
        return ["timeout"]
    except BaseException as exc:  # a mutant may raise anything, SimulatedCrash included
        return [f"error:{type(exc).__name__}"]
    names = sorted({violation["oracle"] for violation in report.violations})
    return names or None


def _shrunk(harness):
    """Drop faults while the run still catches (the explorer's greedy rule,
    down to no fault at all: a run that catches without one credits none)."""
    current = harness
    changed = True
    while changed and current.schedule.faults:
        changed = False
        for index in range(len(current.schedule.faults)):
            candidate = replace(current, schedule=current.schedule.without(index))
            if _verdict(candidate):
                current, changed = candidate, True
                break
    return current


def _credit(schedule) -> Tuple[List[str], List[str]]:
    """The fault kinds and crash points (``name/torn`` for a torn one) of a
    shrunk schedule; ``"-"`` stands for "none needed"."""
    kinds = sorted({fault.kind for fault in schedule.faults}) or ["-"]
    points = sorted({
        fault.point + ("/torn" if fault.mode == "torn" else "")
        for fault in schedule.faults if fault.kind == "crash_at_point"
    }) or ["-"]
    return kinds, points


def measure(only: Optional[List[str]] = None) -> Dict[str, object]:
    """Run :func:`checker_runs` on the ``repro`` importable here."""
    caught = {}
    runs = checker_runs()
    unknown = set(only or ()) - {name for name, _ in runs}
    if unknown:
        raise SystemExit(f"no checker run named {sorted(unknown)}")
    for name, harness in runs:
        if only and name not in only:
            continue
        if harness is None:  # a planned point the tree leaves unreached
            caught[name] = {"oracles": ["unreached"], "kinds": ["crash_at_point"],
                            "points": [name.split(":", 2)[2]]}
            continue
        oracles = _verdict(harness)
        if oracles:
            kinds, points = _credit(_shrunk(harness).schedule)
            caught[name] = {"oracles": oracles, "kinds": kinds, "points": points}
    return {"runs": len(runs), "caught": caught}


# -- scratch trees ----------------------------------------------------------------

def _scratch_tree(mutant: Optional[Mutant], base: Path) -> Path:
    """A copy of the checkout's files (tracked and new, as they stand) under
    ``base``, with ``mutant``'s patches applied."""
    listed = subprocess.run(
        ["git", "ls-files", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.split("\n")
    tree = base / "tree"
    for rel in filter(None, listed):
        source = ROOT / rel
        if source.is_file():
            target = tree / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)
    for rel, old, new in mutant.patches if mutant else ():
        path = tree / "src" / "repro" / rel
        text = path.read_text(encoding="utf-8")
        count = text.count(old)
        if count != 1:
            raise SystemExit(f"mutant {mutant.name}: patch text found {count} times "
                             f"in src/repro/{rel} (stale mutant):\n{old}")
        path.write_text(text.replace(old, new), encoding="utf-8")
    return tree


def _env(tree: Path) -> Dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONHASHSEED": "0"}


def _checker(tree: Path, only: Optional[List[str]] = None) -> Dict[str, object]:
    command = [sys.executable, str(tree / "benchmarks" / "mutants.py"), "--measure"]
    for name in only or ():
        command += ["--run", name]
    done = subprocess.run(command, cwd=tree, env=_env(tree), capture_output=True, text=True)
    if done.returncode:
        return {"runs": 0, "caught": {}, "error": done.stderr[-2000:]}
    return json.loads(done.stdout)


# Loaded into the tier-1 run as a plugin: a failing hypothesis property
# reports its first failing example instead of shrinking it (which a mutant
# that stalls every run would make last for hours).
NO_SHRINK = """from hypothesis import Phase, settings
settings.register_profile("mutants", phases=(Phase.explicit, Phase.reuse, Phase.generate),
                          deadline=None, database=None)
settings.load_profile("mutants")
"""
MAX_FAILED = 5  # tier-1 stops after this many failing tests
TIER1_SECONDS = 300  # a tier-1 run slower than this counts as caught ("timeout")
JOBS = 2  # mutants measured at once


def _pytest(tree: Path, paths: List[str]) -> Tuple[Optional[int], List[Tuple[str, str]]]:
    """``pytest`` over ``paths`` (all of tier-1 if empty): its exit code
    (``None`` on a timeout) and its summary's ``("FAILED" | "ERROR", test
    id)`` lines, the first :data:`MAX_FAILED` failures of them."""
    (tree / "mutant_no_shrink.py").write_text(NO_SHRINK, encoding="utf-8")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             "-p", "mutant_no_shrink", f"--maxfail={MAX_FAILED}", *paths],
            cwd=tree, env=_env(tree), capture_output=True, text=True,
            timeout=TIER1_SECONDS,
        )
    except subprocess.TimeoutExpired:
        return None, []
    return done.returncode, re.findall(r"^(FAILED|ERROR) (\S+)", done.stdout, re.M)


def _tier1(tree: Path, paths: List[str]) -> List[str]:
    """The table's tier-1 column: failing test ids, or why there are none."""
    code, lines = _pytest(tree, paths)
    if code is None:
        return [f"timeout ({TIER1_SECONDS} s)"]
    failed = sorted({test for _, test in lines})
    if code not in (0, 1) and not failed:
        failed = [f"pytest exit {code}"]
    return failed


def run_mutant(mutant: Optional[Mutant], tier1: bool) -> Dict[str, object]:
    with tempfile.TemporaryDirectory(prefix="mutant-") as base:
        tree = _scratch_tree(mutant, Path(base))
        started = time.time()
        row: Dict[str, object] = _checker(tree)
        if tier1:
            row["tier1"] = _tier1(tree, [])
        row["seconds"] = round(time.time() - started, 1)
    return row


# -- the table ----------------------------------------------------------------------

COLUMNS = ("oracles", "kinds", "points")


def columns(row: Dict[str, object]) -> Dict[str, List[str]]:
    """Per column, every part credited with a catch of the mutant."""
    found = {column: set() for column in COLUMNS}
    for credit in row["caught"].values():
        for column in COLUMNS:
            found[column] |= set(credit[column])
    return {column: sorted(parts) for column, parts in found.items()}


def alone(table: Dict[str, Dict[str, object]]) -> Dict[str, Dict[str, List[str]]]:
    """``column -> part -> mutants whose catch that part alone makes``:
    deleting it would lose every catching run.  An oracle alone catches a
    mutant when no catching run reports another oracle (or raises); a
    fault kind or crash point when every catching run's shrunk schedule
    holds it."""
    result = {column: {} for column in COLUMNS}
    for name, row in table.items():
        credits = list(row["caught"].values())
        if not credits:
            continue
        oracles = columns(row)["oracles"]
        if len(oracles) == 1 and not oracles[0].startswith(("error:", "timeout")):
            result["oracles"].setdefault(oracles[0], []).append(name)
        for column in ("kinds", "points"):
            needed = set.intersection(*(set(credit[column]) for credit in credits))
            for part in sorted(needed - {"-"}):
                result[column].setdefault(part, []).append(name)
    return result


def render(table: Dict[str, Dict[str, object]]) -> str:
    lines = []
    for name, row in table.items():
        cols = columns(row)
        tests = row.get("tier1")
        lines.append(
            f"{name}: runs {len(row['caught'])}/{row['runs']}; "
            + "; ".join(f"{c} {','.join(cols[c]) or '-'}" for c in COLUMNS)
            + ("" if tests is None else f"; tier-1 {len(tests)}: {', '.join(tests[:4])}")
        )
    for column, parts in alone(table).items():
        for part, names in sorted(parts.items()):
            lines.append(f"alone [{column}] {part}: {', '.join(names)}")
    return "\n".join(lines)


def _check(tree: Path, check: str) -> str:
    """Run one must-catch check on ``tree``: ``"caught"``, ``"passed"``, or
    what went wrong instead.  A tier-1 file catches only by failing a test
    (pytest exit 1 and a ``FAILED`` line): a missing file, a collection
    error, an error outside any test or no tests collected is an error,
    never a catch."""
    if check.startswith("run:"):
        row = _checker(tree, [check[4:]])
        if row.get("error"):
            return "error: " + row["error"].strip().splitlines()[-1]
        return "caught" if row["caught"] else "passed"
    code, lines = _pytest(tree, [check])
    if code == 0 and not lines:
        return "passed"
    if code == 1 and any(kind == "FAILED" for kind, _ in lines):
        return "caught"
    return "error: timeout" if code is None else f"error: pytest exit {code}, {lines[:2]}"


def must_catch() -> int:
    """Each must-catch mutant against the one check named for it, after
    every such check passed on the unmutated tree."""
    started, wrong = time.time(), []
    chosen = [mutant for mutant in MUTANTS if mutant.must]
    with tempfile.TemporaryDirectory(prefix="mutant-") as base:
        tree = _scratch_tree(None, Path(base))
        for check in sorted({mutant.check for mutant in chosen}):
            verdict = _check(tree, check)
            print(f"{verdict} {check} on the unmutated tree")
            if verdict != "passed":
                wrong.append(check)
    if wrong:
        print(f"{len(wrong)} checks do not pass on the unmutated tree")
        return 1
    for mutant in chosen:
        with tempfile.TemporaryDirectory(prefix="mutant-") as base:
            verdict = _check(_scratch_tree(mutant, Path(base)), mutant.check)
        print(f"{verdict if verdict != 'passed' else 'MISSED'} {mutant.name} by {mutant.check}")
        if verdict != "caught":
            wrong.append(mutant.name)
    print(f"{len(wrong)} missed or in error, {time.time() - started:.0f} s")
    return 1 if wrong else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", action="append", help="run only this mutant")
    parser.add_argument("--tier1", action="store_true", help="also run tier-1 per mutant")
    parser.add_argument("--must-catch", action="store_true",
                        help="exit 1 unless each must-catch mutant fails its check")
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--run", action="append", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:  # inside a scratch tree: its own repro is on PYTHONPATH
        print(json.dumps(measure(args.run)))
        return 0
    if args.must_catch:
        return must_catch()
    chosen = [m for m in MUTANTS if not args.only or m.name in args.only]
    if args.only and len(chosen) != len(args.only):
        raise SystemExit(f"unknown mutant in {args.only}")
    baseline = run_mutant(None, False)
    if baseline["caught"] or baseline.get("error"):
        raise SystemExit(f"the unmutated tree is caught: {baseline}")
    with ThreadPoolExecutor(JOBS) as pool:
        rows = list(pool.map(lambda m: run_mutant(m, args.tier1), chosen))
    table = {mutant.name: row for mutant, row in zip(chosen, rows)}
    print(render(table), file=sys.stderr)
    print(json.dumps({"baseline_runs": baseline["runs"], "table": table,
                      "alone": alone(table)}, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
