"""Which functions under ``src/repro`` the product runs: a census, a ledger of
the ones kept unreached, and a check that the two agree.

The product surface is :data:`SURFACE`, one shell command per line: the
examples, the paper's figures and experiments, the end-to-end benchmark,
every ``repro`` call and benchmark gate in ``.github/workflows/ci.yml``, the
chaos sweeps, :func:`fault_runs` (the ``SimHarness`` fault kinds),
``calls_per_step.py`` and ``recovery_curve.py``.  No line depends on another having run.  Each runs with a ``sitecustomize`` on ``PYTHONPATH``
that installs ``sys.setprofile`` / ``threading.setprofile`` and, at exit,
writes every code object it saw under ``src/repro`` — so subprocesses (the
benchmark's children) are counted too.  A function is every ``def`` at
module level or in a class body, named ``module:qualname``; its span starts
at its first decorator, which is the line its code object starts on.

    python benchmarks/reach.py              # census: reached / unreached, lines
    python benchmarks/reach.py --list       # ... and every unreached function
    python benchmarks/reach.py --tests      # ... split by what tier-1 reaches
    python benchmarks/reach.py --check      # exit 1 unless it matches the ledger

``--check`` fails on an unreached function missing from
``benchmarks/reach_ledger.json`` (``module:qualname -> reason``), on a ledger
entry the surface reaches, and on a ledger entry naming no function.  Every
mode first fails when ``SURFACE`` and ``ci.yml`` disagree: a ``repro`` call or
``benchmarks/*.py`` script one of them runs and the other does not (compared
as :func:`calls` spells them).  Stdlib only; ≈2-4 minutes on a 2-core host.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
LEDGER = ROOT / "benchmarks" / "reach_ledger.json"
CI = ROOT / ".github" / "workflows" / "ci.yml"
JOBS = 2  # surface commands run at once

# One command per line, run from the root of the checkout with ``{tmp}`` a
# scratch directory.  What CI writes into the checkout is written there.
SURFACE = """
for f in examples/*.py; do python "$f" > /dev/null || exit 1; done
python -m pytest benchmarks/test_fig*.py benchmarks/test_e1*.py -q --benchmark-disable -p no:cacheprovider
python benchmarks/bench/run.py --scale 0.1 --trace 0 --out {tmp}/bench.json
python -m repro.cli demo order
python -m repro.cli demo order --distributed
python -m repro.cli demo order --distributed --chaos-interval 40 --chaos-downtime 20 --seed 7 --dispatch-timeout 20 --sweep-interval 5
python -m repro.cli demo order --distributed --replicas 2 --seed 7
python -m repro.cli demo --load
python -m repro.cli load --arrival burst --rate 1.0 --duration 120 --drain 300 --seed 7 --json
python -m repro.cli chaos-sweep --mode exhaustive --out {tmp}/sim-repros
python -m repro.cli chaos-sweep --mode random --seeds 64 --out {tmp}/sim-repros
python -m repro.cli chaos-sweep --mode failover --replicas 2 --out {tmp}/sim-repros
python -m repro.cli lint examples/*.py src/repro/workloads/paper_*.py --format sarif --output {tmp}/analysis.sarif
python -m repro.cli lint examples/*.py src/repro/workloads/paper_*.py || true
python -m repro.cli lint examples/*.py src/repro/workloads/paper_*.py --format json --output {tmp}/analysis.json
for app in order trip service_impact; do wf={tmp}/$app.wf; python -c "from repro.workloads import paper_$app as app; from repro.lang import format_script; open('$wf', 'w').write(format_script(app.build()))" && python -m repro.cli analyze "$wf" && python -m repro.cli plan "$wf" && python -m repro.cli plan "$wf" --json && python -m repro.cli validate "$wf" && python -m repro.cli format "$wf" && python -m repro.cli inspect "$wf" && python -m repro.cli dot "$wf" || exit 1; done
python -m repro.cli sanitize order --nemesis --output {tmp}/sanitize-order.sarif
python -m repro.cli sanitize trip --output {tmp}/sanitize-trip.sarif
python -m repro.cli sanitize service-impact --output {tmp}/sanitize-service-impact.sarif
RESILIENCE_SUMMARY={tmp}/resilience_summary.json python -m pytest benchmarks/test_resilience.py -q -p no:cacheprovider
BENCH_FAILOVER={tmp}/BENCH_failover.json python -m pytest benchmarks/test_failover.py -q -p no:cacheprovider
BENCH_OVERLOAD={tmp}/BENCH_overload.json python -m pytest benchmarks/test_overload.py -q -p no:cacheprovider
BENCH_SANITIZER={tmp}/BENCH_sanitizer.json python -m pytest benchmarks/test_sanitizer_overhead.py -q -p no:cacheprovider
python -m pytest benchmarks/test_ablation_dispatch.py -q -p no:cacheprovider
python benchmarks/reach.py --fault-runs
python benchmarks/calls_per_step.py
python benchmarks/recovery_curve.py
"""

TIER1 = "python -m pytest tests -x -q -p no:cacheprovider"

# Installed through PYTHONPATH in every surface process; REACH_OUT names the
# directory each process writes its reached code objects into at exit.
SITECUSTOMIZE = '''
import atexit, os, sys, threading

def _install(out, prefix):
    codes = set()
    add = codes.add
    user = [None]

    def hook(frame, event, arg):
        if event == "call":
            add(frame.f_code)
        if user[0] is not None:
            user[0](frame, event, arg)

    def setprofile(function):
        # a profiler of the program's own (calls_per_step.py) runs beside
        # ours; restoring sys.getprofile() restores none
        user[0] = None if function is hook else function

    def dump():
        install(None)
        seen = sorted({(c.co_filename, c.co_firstlineno, c.co_name)
                       for c in list(codes) if c.co_filename.startswith(prefix)})
        path = os.path.join(out, "%d-%d.txt" % (os.getpid(), id(codes)))
        with open(path, "w") as handle:
            handle.writelines("%s\\t%d\\t%s\\n" % row for row in seen)

    install = sys.setprofile
    atexit.register(dump)
    threading.setprofile(hook)
    install(hook)
    sys.setprofile = setprofile

if os.environ.get("REACH_OUT"):
    _install(os.environ["REACH_OUT"], os.environ["REACH_PREFIX"])
'''


def functions(package: Path = PACKAGE):
    """``{(relative path, first line): (module:qualname, lines)}`` for every
    ``def`` at module level or in a class body (classes nest), the span from
    the first decorator to the last line."""
    found = {}

    def walk(body, module, rel, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                found[(rel, first)] = (
                    f"{module}:{prefix}{node.name}", node.end_lineno - first + 1
                )
            elif isinstance(node, ast.ClassDef):
                walk(node.body, module, rel, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.If, ast.Try)):
                walk(node.body, module, rel, prefix)
                walk(node.orelse, module, rel, prefix)

    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package.parent).as_posix()
        module = rel[:-3].replace("/", ".").removesuffix(".__init__")
        walk(ast.parse(path.read_text(encoding="utf-8")).body, module, rel, "")
    return found


def run_blocks(workflow: str):
    """The shell text of every ``run:`` step of a workflow file: a folded
    (``>``) block as one line, a literal (``|``) one line by line."""
    lines = workflow.splitlines()
    blocks = []
    for at, line in enumerate(lines):
        match = re.match(r"( *)(?:- )?run: *(.*)$", line)
        if not match:
            continue
        indent, value = len(match.group(1)), match.group(2).strip()
        if value not in (">", "|"):
            blocks.append(value)
            continue
        body = []
        for line in lines[at + 1:]:
            if line.strip() and len(line) - len(line.lstrip()) <= indent:
                break
            body.append(line.strip())
        blocks.append((" " if value == ">" else "\n").join(body))
    return blocks


def calls(shell: str) -> set:
    """Every ``repro`` call and ``benchmarks/*.py`` script in shell text (this
    tool aside), a call as its arguments less the value of ``--out`` /
    ``--output`` and with a ``.wf`` file or a ``$variable`` as ``<script>``,
    a script as its path: CI's and the surface's spelling of one call
    compare equal.  Heredoc bodies are skipped."""
    found = set()
    heredoc = None
    for line in shell.splitlines():
        if heredoc is not None:
            heredoc = None if line.strip() == heredoc else heredoc
            continue
        start = re.search(r"<<-?\s*'?(\w+)'?", line)
        heredoc = start.group(1) if start else None
        lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
        lexer.whitespace_split = True
        tokens = list(lexer)
        for at, token in enumerate(tokens):
            if re.fullmatch(r"benchmarks/[\w/*]+\.py", token) and token != "benchmarks/reach.py":
                found.add((token,))
            elif token == "repro.cli":
                call, skip = ["repro"], False
                for arg in tokens[at + 1:]:
                    if set(arg) <= set("();<>|&"):
                        break
                    if not skip:
                        call.append("<script>" if arg.endswith(".wf") or arg[0] == "$" else arg)
                    skip = not skip and arg in ("--out", "--output")
                found.add(tuple(call))
    return found


def surface_drift() -> None:
    """Exit unless ``SURFACE`` runs every ``repro`` call and benchmark script
    ``ci.yml`` runs, and nothing of the kind that ``ci.yml`` does not."""
    ci = set().union(*map(calls, run_blocks(CI.read_text(encoding="utf-8"))))
    surface = calls(SURFACE)
    problems = [
        f"{title}: {' '.join(call)}"
        for title, drift in (("run by ci.yml, not by SURFACE", ci - surface),
                             ("run by SURFACE, not by ci.yml", surface - ci))
        for call in sorted(drift)
    ]
    if problems:
        raise SystemExit("\n".join(["SURFACE and ci.yml disagree (make them run the same calls):",
                                     *problems]))


def collect(commands, jobs: int = JOBS) -> set:
    """Run each command under the collector; the ``(relative path, first
    line)`` of every ``src/repro`` code object any process ran."""
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        out = Path(tmp, "out")
        site = Path(tmp, "site")
        out.mkdir()
        site.mkdir()
        (site / "sitecustomize.py").write_text(SITECUSTOMIZE)
        env = dict(
            os.environ,
            REACH_OUT=str(out),
            REACH_PREFIX=str(PACKAGE) + os.sep,
            PYTHONPATH=os.pathsep.join([str(site), str(SRC), str(ROOT)]),
            PATH=os.pathsep.join([os.path.dirname(sys.executable), os.environ.get("PATH", "")]),
        )

        def run(command: str):
            start = time.monotonic()
            done = subprocess.run(
                ["bash", "-c", command.format(tmp=tmp)], cwd=ROOT, env=env,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            )
            return command, done.returncode, done.stdout, time.monotonic() - start

        failed = []
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            for command, code, output, seconds in pool.map(run, commands):
                print(f"  {seconds:6.1f}s  exit {code}  {command[:100]}", file=sys.stderr)
                if code:
                    failed.append((command, output[-3000:]))
        for command, output in failed:
            print(f"FAILED: {command}\n{output}", file=sys.stderr)
        if failed:
            raise SystemExit(f"{len(failed)} surface command(s) failed")
        reached = set()
        if not any(out.iterdir()):
            raise SystemExit("no surface process wrote what it reached")
        for path in out.iterdir():
            for line in path.read_text().splitlines():
                filename, first, _ = line.split("\t")
                reached.add((Path(filename).relative_to(SRC).as_posix(), int(first)))
        return reached


def fault_runs() -> None:
    """The ``SimHarness`` fault kinds the CLI sweeps do not arm: loss, dup +
    reorder, a partition, a lossy network, a replica crash, compaction +
    probes, worker lanes under random crashes, a load spike."""
    from repro.services.system import SystemSpec
    from repro.sim import SimHarness
    from repro.sim.nemesis import (
        CrashAtTime, DupBurst, LoadSpike, LossBurst, NemesisSchedule, Partition,
        RandomCrashes, ReorderBurst,
    )

    runs = [
        (NemesisSchedule([LossBurst(5.0, 40.0, 0.3)]), {}, {}),
        (NemesisSchedule([DupBurst(5.0, 40.0, 0.5), ReorderBurst(5.0, 40.0, 5.0)]), {}, {}),
        (NemesisSchedule([Partition(5.0, ("execution-node",), ("worker-node-1",), 30.0)]), {}, {}),
        (NemesisSchedule(), {}, {"loss_rate": 0.1}),
        (NemesisSchedule([CrashAtTime(10.0, "execution-node", downtime=30.0)]), {},
         {"replicas": 2}),
        (NemesisSchedule(), {"compact_every": 20.0, "probe_every": 15.0}, {}),
        (NemesisSchedule([RandomCrashes(("worker-node-1", "worker-node-2"), 20.0, 10.0, seed=3)]),
         {"max_time": 400.0}, {"worker_lanes": 2}),
        (NemesisSchedule([LoadSpike(5.0, 20.0, 0.5)]), {}, {}),
    ]
    for schedule, harness, system in runs:
        for workload in ("order", "trip", "service-impact"):
            report = SimHarness(
                schedule, workload=workload, instances=2, system=SystemSpec(seed=5, **system),
                **harness,
            ).run()
            if not report.ok:
                raise SystemExit(report.summary())


def census(tests: bool):
    surface_drift()
    defs = functions()
    reached = collect(SURFACE.strip().splitlines())
    unreached = {key: defs[key] for key in defs if key not in reached}
    by_tests = collect([TIER1], 1) if tests else None
    return defs, reached, unreached, by_tests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless the unreached functions are the ledger's")
    parser.add_argument("--list", action="store_true", help="print every unreached function")
    parser.add_argument("--tests", action="store_true",
                        help="also run tier-1 and split the unreached by whether it reaches them")
    parser.add_argument("--fault-runs", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.fault_runs:
        fault_runs()
        return 0

    defs, reached, unreached, by_tests = census(args.tests)
    lines = sum(span for _, span in unreached.values())
    print(f"functions {len(defs)}, lines {sum(span for _, span in defs.values())}")
    print(f"reached by the surface: {len(defs) - len(unreached)} "
          f"({len(reached)} code objects)")
    print(f"unreached: {len(unreached)}, lines {lines}")
    if by_tests is not None:
        nothing = {key: value for key, value in unreached.items() if key not in by_tests}
        print(f"  reached by nothing, tier-1 included: {len(nothing)}, "
              f"lines {sum(span for _, span in nothing.values())}")
    if args.list:
        for key, (name, span) in sorted(unreached.items(), key=lambda item: item[1]):
            tag = "" if by_tests is None else ("  tests" if key in by_tests else "  nothing")
            print(f"  {name}  {span}{tag}")
    if not args.check:
        return 0

    ledger = json.loads(LEDGER.read_text())
    names = {name for name, _ in defs.values()}
    unreached_names = {name for name, _ in unreached.values()}
    missing = sorted(unreached_names - set(ledger))
    stale = sorted(set(ledger) - names)
    reached_entries = sorted(set(ledger) & names - unreached_names)
    for title, entries, advice in (
        ("unreached and not in the ledger", missing,
         "delete it, give it a product caller, or add it with a reason"),
        ("in the ledger but reached", reached_entries, "take it out of the ledger"),
        ("in the ledger but no such function", stale, "take it out of the ledger"),
    ):
        if entries:
            print(f"\n{title} ({advice}):")
            for name in entries:
                print(f"  {name}")
    if missing or reached_entries or stale:
        return 1
    print(f"ledger agrees: {len(ledger)} functions kept unreached, each with a reason")
    return 0


if __name__ == "__main__":
    sys.exit(main())
