"""Command-line interface for the workflow language tools.

Mirrors the repository-service operations plus the graphical export::

    python -m repro.cli validate  script.wf         # parse + semantic check
    python -m repro.cli format    script.wf         # canonical pretty-print
    python -m repro.cli inspect   script.wf         # structural summary
    python -m repro.cli lint      script.wf ...     # static analysis report
    python -m repro.cli analyze   script.wf [task]  # static vs dynamic reachability
    python -m repro.cli dot       script.wf [task]  # Graphviz export
    python -m repro.cli demo      order|trip|service-impact
    python -m repro.cli load      --arrival poisson|burst --rate R --seed N

``lint`` accepts ``.wf`` script files *and* ``.py`` files with embedded
``SCRIPT`` constants (the examples/ and workload layout), and renders the
unified static-analysis report as text, JSON, or SARIF 2.1.0.

Exit codes (``lint`` and ``analyze``):

* ``0`` — clean, or warning-severity findings only;
* ``1`` — at least one error-severity finding (with ``lint --strict``,
  warnings also fail), an unreachable outcome, or a static/dynamic
  disagreement;
* ``2`` — a script could not even be parsed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .core.errors import ParseError, ValidationReport
from .core.graph import structure_summary
from .core.schema import CompoundTaskDecl
from .engine import ConcurrentEngine, LocalEngine
from .engine.trace import render_summary, render_trace
from .lang import compile_script, format_script, parse
from .lang.dot import to_dot
from .workloads import APPLICATIONS


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        script = compile_script(_read(args.script))
    except (ParseError, ValidationReport) as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    print(
        f"OK: {len(script.classes)} classes, {len(script.taskclasses)} task "
        f"classes, {len(script.tasks)} top-level tasks, "
        f"{len(script.templates)} templates"
    )
    return 0


def cmd_format(args: argparse.Namespace) -> int:
    script = parse(_read(args.script))
    text = format_script(script)
    if args.in_place:
        with open(args.script, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    script = compile_script(_read(args.script))
    print(f"classes     : {', '.join(sorted(script.classes)) or '-'}")
    print(f"task classes: {', '.join(sorted(script.taskclasses)) or '-'}")
    for name, decl in script.tasks.items():
        if isinstance(decl, CompoundTaskDecl):
            summary = structure_summary(decl)
            print(
                f"compound {name}: {summary['tasks']} constituents, "
                f"{summary['data_edges']} dataflow + "
                f"{summary['notification_edges']} notification arcs, "
                f"{summary['outputs']} outputs"
            )
        else:
            print(f"task {name}: taskclass {decl.taskclass_name}")
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    from .engine.plan import compile_plan

    try:
        script = compile_script(_read(args.script))
    except (ParseError, ValidationReport) as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    try:
        plan = compile_plan(script, root_task=args.task, analyze=not args.no_liveness)
    except KeyError as exc:
        print(f"ERROR: {exc.args[0]}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(plan.as_dict(), indent=2, sort_keys=True))
    else:
        print(plan.render())
    return 0


def _sanitize_check(script, root_task, report, analysis) -> int:
    """Run the dynamic sanitizer over the explorer's witness assignments and
    gate on the static-superset guarantee (0 = every dynamic finding is
    statically predicted, 1 = analyzer bug)."""
    from .analysis import sanitized_exploration

    sanitizer = sanitized_exploration(script, root_task, analysis=analysis)
    print()
    print(f"sanitizer: {len(sanitizer.findings)} dynamic finding(s)")
    for line in sanitizer.render():
        print(f"  {line}")
    return _coverage_verdict(sanitizer.check_coverage(report))


def _coverage_verdict(uncovered) -> int:
    for dyn in uncovered:
        print(
            "ANALYZER BUG: dynamic finding has no static counterpart — "
            f"please report this: {dyn.render()}"
        )
    if not uncovered:
        print("every dynamic finding is statically predicted (dynamic <= static)")
    return 1 if uncovered else 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis import analyze_script

    script = compile_script(_read(args.script))
    report = analyze_script(script, root_task=args.task, source_name=args.script)
    if args.static:
        print(report.render_text())
        code = 0 if report.ok else 1
        if args.sanitize:
            code = max(code, _sanitize_check(script, args.task, report, None))
        return code

    # side-by-side: the static may-analysis against the dynamic explorer,
    # which *executes* the workflow under every implementation choice.
    from .core.analysis import analyze_outcomes

    analysis = analyze_outcomes(script, args.task, max_cases=args.max_cases)
    static_reachable = set(report.liveness.reachable_outcomes) if report.liveness else set()
    static_unreachable = set(report.liveness.unreachable_outcomes) if report.liveness else set()
    dynamic_reachable = set(analysis.reachable)
    dynamic_unreachable = set(analysis.unreachable)
    print(f"{'outcome':<24} {'static':<12} dynamic")
    for name in sorted(static_reachable | static_unreachable | dynamic_reachable | dynamic_unreachable):
        s = "reachable" if name in static_reachable else "unreachable"
        d = "reachable" if name in dynamic_reachable else "unreachable"
        print(f"{name:<24} {s:<12} {d}")
    print()
    print(report.render_text())
    print()
    print(analysis.summary())
    disagreement = False
    for name in sorted(static_unreachable & dynamic_reachable):
        # the dynamic explorer produced a real witness for an outcome the
        # may-analysis calls impossible: the static analyser is unsound here.
        disagreement = True
        print(
            f"ANALYZER BUG: outcome {name!r} is statically unreachable but a "
            f"dynamic execution reached it — please report this."
        )
    for name in sorted(static_reachable & dynamic_unreachable):
        disagreement = True
        print(
            f"DISAGREEMENT: outcome {name!r} is statically reachable but no "
            f"dynamic execution reached it (static over-approximation or an "
            f"exploration bound; treat as a possible analyzer bug)."
        )
    if not disagreement:
        print("static and dynamic reachability agree")
    code = 1 if disagreement or analysis.unreachable or not report.ok else 0
    if args.sanitize:
        code = max(code, _sanitize_check(script, args.task, report, analysis))
    return code


def cmd_lint(args: argparse.Namespace) -> int:
    import json

    from .analysis import analyze_script, load_scripts, to_sarif

    sources = []
    artifacts = {}
    for path in args.scripts:
        for name, text in load_scripts([path]):
            sources.append((name, text))
            artifacts[name] = path
    reports = []
    for name, text in sources:
        try:
            script = parse(text)
        except ParseError as exc:
            print(f"{name}: PARSE ERROR: {exc}", file=sys.stderr)
            return 2
        reports.append(analyze_script(script, source_name=name))
    if args.format == "sarif":
        rendered = json.dumps(to_sarif(reports, artifacts=artifacts), indent=2)
    elif args.format == "json":
        rendered = json.dumps([r.as_dict() for r in reports], indent=2)
    else:
        rendered = "\n".join(r.render_text() for r in reports)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(rendered + "\n")
    else:
        print(rendered)
    failed = any(not r.ok for r in reports) or (
        args.strict and any(r.findings for r in reports)
    )
    return 1 if failed else 0


def cmd_sanitize(args: argparse.Namespace) -> int:
    """Run a paper workload with the runtime sanitizer attached (real
    implementations, thread-pooled engine, optionally a nemesis schedule on
    the simulated distributed system) and verify every dynamic finding is
    predicted by a static one."""
    from .analysis import Sanitizer, analyze_script, to_sarif

    app = APPLICATIONS[args.name]
    script = compile_script(app.text)
    report = analyze_script(script, source_name=args.name)
    sanitizer = Sanitizer()
    engine = ConcurrentEngine(
        app.binder(), parallelism=args.parallelism, sanitizer=sanitizer
    )
    for _ in range(args.runs):
        engine.run(script, app.root_task, inputs=app.inputs(0))
    if args.nemesis:
        _sanitize_under_nemesis(args, sanitizer, script)
    print(
        f"{args.name}: {len(sanitizer.findings)} dynamic finding(s) over "
        f"{args.runs} sanitized concurrent run(s)"
        + (" + 1 nemesis schedule" if args.nemesis else "")
    )
    for line in sanitizer.render():
        print(f"  {line}")
    uncovered = sanitizer.check_coverage(report)
    if args.output:
        log = to_sarif(report)
        # the SARIF log carries the static findings; the dynamic run and
        # its coverage verdict ride along in the run's property bag
        log["runs"][0]["properties"] = {
            "sanitizer": {
                "workload": args.name,
                "runs": args.runs,
                "nemesis": bool(args.nemesis),
                "dynamicFindings": [f.render() for f in sanitizer.findings],
                "uncovered": [f.render() for f in uncovered],
            }
        }
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(log, fh, indent=2)
            fh.write("\n")
    return _coverage_verdict(uncovered)


def _sanitize_under_nemesis(args, sanitizer, script) -> None:
    """One deterministic nemesis run: crash a worker right after it executed
    a task but before the reply lands, forcing the at-least-once redispatch
    to run the task again — then scan the worker ledgers for duplicates."""
    from .sim.harness import SimHarness
    from .sim.nemesis import CrashAtPoint, NemesisSchedule

    schedule = NemesisSchedule(
        faults=[CrashAtPoint("worker.execute.post", at_hit=1)],
        name="sanitize-duplicate-effects",
    )
    harness = SimHarness(
        schedule=schedule, workload=args.name, seed=args.seed, workers=2
    )
    sim_report = harness.run()
    sanitizer.scan_workers(harness._system.workers, script)
    print(f"nemesis: {sim_report.summary()}")


def cmd_dot(args: argparse.Namespace) -> int:
    script = compile_script(_read(args.script))
    print(to_dot(script, args.task), end="")
    return 0


def _run_load(args: argparse.Namespace):
    """Sustained-traffic generator against the simulated system: a seeded
    Poisson/burst arrival schedule with cohorts and hot-key skew, reported
    as the SLO view (docs/PROTOCOLS.md §13)."""
    from .overload import OverloadConfig
    from .services.system import WorkflowSystem
    from .workloads import TrafficSpec, run_traffic, traffic_registry

    spec = TrafficSpec(
        arrival=args.arrival,
        rate=args.rate,
        duration=args.duration,
        cohorts=args.cohorts,
        skew=args.skew,
        seed=args.seed,
        drain=args.drain,
        slo=args.slo,
    )
    overload = OverloadConfig(
        queue_capacity=args.queue_capacity,
        initial_window=args.window,
        min_window=max(1, args.window // 4),
        max_window=max(args.window, OverloadConfig.max_window),
    )
    system = WorkflowSystem(
        workers=args.workers,
        registry=traffic_registry(),
        seed=args.seed,
        overload=overload,
        worker_service_time=args.service_time,
        worker_lanes=args.lanes,
    )
    slo_report = run_traffic(system, spec)
    if args.json:
        print(json.dumps(slo_report.to_plain(), indent=2, sort_keys=True))
    else:
        print(slo_report.render())
    return slo_report


def cmd_load(args: argparse.Namespace) -> int:
    _run_load(args)
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    if args.load:
        # Overload smoke: `load` with a short sustained burst against a
        # capacity-limited system and tight admission bounds, so the whole
        # §13 pipeline — queueing, controller, shedding, retry-after — runs
        # in a couple of wall seconds.
        slo_report = _run_load(build_parser().parse_args([
            "load", "--rate", "1", "--duration", "120", "--drain", "300",
            "--slo", "90", "--queue-capacity", "8", "--window", "8",
            "--seed", str(args.seed), "--workers", str(args.workers),
        ]))
        healthy = (
            slo_report.offered > 0
            and slo_report.unfinished == 0
            and slo_report.lost == 0
            and slo_report.completed > 0
        )
        return 0 if healthy else 1
    app = APPLICATIONS[args.name]
    if args.distributed:
        return _demo_distributed(args, app)
    if args.parallelism > 1:
        engine = ConcurrentEngine(app.binder(), parallelism=args.parallelism)
    else:
        engine = LocalEngine(app.binder())
    result = engine.run(compile_script(app.text), inputs=app.inputs(0))
    print(f"outcome: {result.outcome}\n")
    print(render_trace(result.log))
    print()
    print(render_summary(result.log))
    return 0 if result.completed else 1


def _demo_distributed(args, app) -> int:
    """Run a demo on the full simulated distributed system, optionally under
    chaos, and show the workflow trace alongside the dispatcher's resilience
    decisions (redispatches, hedges, breaker trips)."""
    from .net.failures import RandomCrasher
    from .resilience import ResilienceConfig
    from .services.system import WorkflowSystem

    resilience = ResilienceConfig.for_timeouts(
        args.dispatch_timeout,
        args.sweep_interval,
        seed=args.seed,
        hedging=args.hedge_delay != 0.0,
        max_redispatches=args.max_redispatches,
    )
    if args.hedge_delay is not None and args.hedge_delay > 0.0:
        import dataclasses

        resilience = dataclasses.replace(resilience, hedge_delay=args.hedge_delay)
    system = WorkflowSystem(
        workers=args.workers,
        loss_rate=args.loss_rate,
        seed=args.seed,
        dispatch_timeout=args.dispatch_timeout,
        sweep_interval=args.sweep_interval,
        registry=app.binder(),
        resilience=resilience,
        replicas=args.replicas,
    )
    crasher = None
    if args.chaos_interval > 0.0:
        crasher = RandomCrasher(
            system.clock,
            system.worker_nodes,
            interval=args.chaos_interval,
            downtime=args.chaos_downtime,
            seed=args.seed,
        ).start()
    system.deploy(app.script_name, app.text)
    iid = system.instantiate(app.script_name, app.root_task, app.inputs(0))
    result = system.run_until_terminal(iid, max_time=50_000.0)
    if crasher is not None:
        crasher.stop()
    print(f"outcome: {result.get('outcome')}  (status: {result['status']})\n")
    service = system.primary_execution() or system.execution
    print(service.trace(iid))
    print()
    if args.replicas > 0:
        for replica in system.execution_replicas:
            status = replica.repl_status()
            print(
                f"{status['name']}: role={status['role']} "
                f"epoch={status['epoch']} isr={status['isr']} "
                f"promotions={status['stats']['promotions']} "
                f"resyncs={status['stats']['resyncs']}"
            )
        print()
    report = service.resilience_report()
    stats = report["stats"]
    print(
        f"dispatches={stats['dispatches']} redispatches={stats['redispatches']} "
        f"hedges={stats['hedges']} failovers={stats['failovers']} "
        f"breaker-trips={stats['breaker_trips']} abandoned={stats['abandoned']} "
        f"recoveries={stats['recoveries']}"
    )
    if crasher is not None:
        print(f"chaos: {len(crasher.injected)} worker crashes injected")
    return 0 if result["status"] == "completed" else 1


def cmd_chaos_sweep(args: argparse.Namespace) -> int:
    from .sim.crashpoints import catalogue
    from .sim.explorer import ChaosSweep, replay

    if args.list_points:
        print(f"{'crash point':<30} {'file':<30} protocol step")
        for point in catalogue():
            flags = []
            if point.torn:
                flags.append("torn")
            if point.recovery:
                flags.append("recovery")
            suffix = f"  [{','.join(flags)}]" if flags else ""
            print(f"{point.name:<30} {point.module:<30} {point.step}{suffix}")
        return 0

    if args.replay:
        reproduced, recorded, fresh, report = replay(args.replay)
        print(report.summary())
        for violation in report.violations:
            print(f"  {violation['oracle']}({violation['subject']}): "
                  f"{violation['detail']}")
        print(f"recorded fingerprint: {recorded}")
        print(f"replayed fingerprint: {fresh}")
        if reproduced:
            print("REPRODUCED byte-for-byte")
            return 0
        print("MISMATCH: the replay diverged from the recorded run")
        return 1

    sweep = ChaosSweep(
        workload=args.workload,
        workers=args.workers,
        instances=args.instances,
        base_seed=args.seed,
        max_time=args.max_time,
        out_dir=args.out,
        verbose=args.verbose,
    )
    failures = 0
    if args.mode in ("all", "exhaustive"):
        result = sweep.exhaustive()
        print("exhaustive one-crash sweep:", result.summary())
        failures += len(result.failures) + len(result.unreached)
    if args.mode in ("all", "random"):
        result = sweep.random_sweep(args.seeds)
        print(f"random nemesis sweep ({args.seeds} seeds):", result.summary())
        failures += len(result.failures)
    if args.mode in ("all", "failover"):
        result = sweep.failover_sweep(replicas=args.replicas)
        print(f"failover sweep ({args.replicas} replicas):", result.summary())
        failures += len(result.failures) + len(result.unreached)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="workflow scripting language tools"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    validate = commands.add_parser("validate", help="parse and semantically check")
    validate.add_argument("script")
    validate.set_defaults(fn=cmd_validate)

    fmt = commands.add_parser("format", help="canonical pretty-print")
    fmt.add_argument("script")
    fmt.add_argument("--in-place", action="store_true")
    fmt.set_defaults(fn=cmd_format)

    inspect = commands.add_parser("inspect", help="structural summary")
    inspect.add_argument("script")
    inspect.set_defaults(fn=cmd_inspect)

    analyze = commands.add_parser(
        "analyze",
        help="static + dynamic outcome reachability, cross-checked "
        "(exit 1 on errors, unreachable outcomes, or disagreement)",
    )
    analyze.add_argument("script")
    analyze.add_argument("task", nargs="?", default=None)
    analyze.add_argument("--max-cases", type=int, default=20_000)
    analyze.add_argument(
        "--static",
        action="store_true",
        help="static analysis only: skip the dynamic explorer and the "
        "side-by-side comparison",
    )
    analyze.add_argument(
        "--sanitize",
        action="store_true",
        help="re-run every reachable witness on the thread-pooled engine "
        "with the runtime sanitizer (vector clocks + locksets) attached; "
        "exit 1 if any dynamic finding lacks a static counterpart",
    )
    analyze.set_defaults(fn=cmd_analyze)

    lint = commands.add_parser(
        "lint",
        help="static analysis report (exit 0 clean/warnings, 1 errors, "
        "2 parse failure)",
    )
    lint.add_argument(
        "scripts",
        nargs="+",
        help=".wf script files or .py files with embedded SCRIPT constants",
    )
    lint.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="report rendering (SARIF 2.1.0 for CI annotation)",
    )
    lint.add_argument("--output", help="write the report to a file instead of stdout")
    lint.add_argument(
        "--strict", action="store_true", help="any finding fails the run"
    )
    lint.set_defaults(fn=cmd_lint)

    plan = commands.add_parser(
        "plan",
        help="compile a script into its incrementalized execution plan "
        "(task ids, slot bitmasks, firing tables) and dump it",
    )
    plan.add_argument("script", help="path to a .wf script")
    plan.add_argument("task", nargs="?", help="top-level task (default: all)")
    plan.add_argument("--json", action="store_true", help="JSON instead of text")
    plan.add_argument(
        "--no-liveness",
        action="store_true",
        help="skip the liveness fixpoint (no live/dead annotations)",
    )
    plan.set_defaults(fn=cmd_plan)

    sanitize = commands.add_parser(
        "sanitize",
        help="run a paper workload under the runtime sanitizer and verify "
        "every dynamic race/inversion/duplicate is statically predicted "
        "(exit 1 on an uncovered dynamic finding)",
    )
    sanitize.add_argument("name", choices=list(APPLICATIONS))
    sanitize.add_argument(
        "--runs", type=int, default=5, metavar="N",
        help="sanitized concurrent runs with the real implementations "
        "(default: 5)",
    )
    sanitize.add_argument(
        "--parallelism", type=int, default=4, metavar="N",
        help="thread-pool width for the sanitized runs (default: 4)",
    )
    sanitize.add_argument(
        "--nemesis",
        action="store_true",
        help="also run one deterministic nemesis schedule (worker crash "
        "after execute, before reply) on the simulated distributed system "
        "and scan worker ledgers for duplicate effects",
    )
    sanitize.add_argument(
        "--seed", type=int, default=0, help="nemesis run seed (default: 0)"
    )
    sanitize.add_argument(
        "--output", metavar="FILE",
        help="write the static report as SARIF with the dynamic findings "
        "in the run's property bag",
    )
    sanitize.set_defaults(fn=cmd_sanitize)

    dot = commands.add_parser("dot", help="Graphviz export")
    dot.add_argument("script")
    dot.add_argument("task", nargs="?", default=None)
    dot.set_defaults(fn=cmd_dot)

    demo = commands.add_parser("demo", help="run a paper example")
    demo.add_argument(
        "name", nargs="?", default="order",
        choices=list(APPLICATIONS),
    )
    demo.add_argument(
        "--load",
        action="store_true",
        help="overload smoke instead of a single instance: a short "
        "sustained traffic burst against a capacity-limited system with "
        "tight admission bounds (exit 1 if any admitted work is lost or "
        "left unfinished)",
    )
    demo.add_argument(
        "--parallelism",
        type=int,
        default=1,
        metavar="N",
        help="run independent ready tasks on N worker threads (default: 1, sequential)",
    )
    demo.add_argument(
        "--distributed",
        action="store_true",
        help="run on the full simulated distributed system (repository, "
        "execution service, worker pool) instead of the local engine",
    )
    demo.add_argument(
        "--workers", type=int, default=3, metavar="N",
        help="worker-node pool size for --distributed (default: 3)",
    )
    demo.add_argument(
        "--replicas", type=int, default=0, metavar="N",
        help="execution-service replicas for --distributed (0 = the legacy "
        "unreplicated service; N > 0 adds a lease arbiter, one primary and "
        "N-1 hot standbys with lease-fenced failover)",
    )
    demo.add_argument(
        "--loss-rate", type=float, default=0.0, metavar="P",
        help="message-loss probability for --distributed (default: 0)",
    )
    demo.add_argument(
        "--chaos-interval", type=float, default=0.0, metavar="T",
        help="mean virtual time between random worker crashes "
        "(0 disables chaos; --distributed only)",
    )
    demo.add_argument(
        "--chaos-downtime", type=float, default=20.0, metavar="T",
        help="how long a chaos-crashed worker stays down (default: 20)",
    )
    demo.add_argument(
        "--seed", type=int, default=0,
        help="seed for latency, loss, chaos and dispatch jitter (default: 0)",
    )
    demo.add_argument(
        "--dispatch-timeout", type=float, default=30.0, metavar="T",
        help="base redispatch delay for --distributed (default: 30)",
    )
    demo.add_argument(
        "--sweep-interval", type=float, default=10.0, metavar="T",
        help="dispatcher sweep period for --distributed (default: 10)",
    )
    demo.add_argument(
        "--hedge-delay", type=float, default=None, metavar="T",
        help="hedged-dispatch delay (0 disables hedging; default: "
        "2 x sweep interval)",
    )
    demo.add_argument(
        "--max-redispatches", type=int, default=40, metavar="N",
        help="redispatch cap before a flight is abandoned as a system "
        "failure (default: 40)",
    )
    demo.set_defaults(fn=cmd_demo)

    load = commands.add_parser(
        "load",
        help="sustained-traffic generator: drive the simulated system with "
        "a seeded arrival schedule and print the SLO report "
        "(goodput, sojourn percentiles, shed/refusal counts by class)",
    )
    load.add_argument(
        "--arrival", choices=["poisson", "burst"], default="poisson",
        help="inter-arrival shape (default: poisson)",
    )
    load.add_argument(
        "--rate", type=float, default=0.5, metavar="R",
        help="mean arrivals per virtual second, off-burst (default: 0.5)",
    )
    load.add_argument(
        "--duration", type=float, default=300.0, metavar="T",
        help="arrival-generation horizon in virtual seconds (default: 300)",
    )
    load.add_argument(
        "--cohorts", type=int, default=3, metavar="N",
        help="user cohorts cycling high/normal/low criticality (default: 3)",
    )
    load.add_argument(
        "--skew", type=float, default=0.5, metavar="P",
        help="probability an arrival is premium-cohort / hot-key (default: 0.5)",
    )
    load.add_argument(
        "--seed", type=int, default=0,
        help="seed for the whole schedule; same seed, same report "
        "fingerprint (default: 0)",
    )
    load.add_argument(
        "--drain", type=float, default=600.0, metavar="T",
        help="extra virtual time for admitted work to finish (default: 600)",
    )
    load.add_argument(
        "--slo", type=float, default=120.0, metavar="T",
        help="sojourn bound for SLO goodput; 0 counts raw completions "
        "(default: 120)",
    )
    load.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="worker-node pool size (default: 2)",
    )
    load.add_argument(
        "--service-time", type=float, default=1.0, metavar="T",
        help="virtual seconds of worker occupancy per task; the finite "
        "capacity that makes overload possible (default: 1)",
    )
    load.add_argument(
        "--lanes", type=int, default=1, metavar="N",
        help="concurrent service lanes per worker (default: 1)",
    )
    load.add_argument(
        "--queue-capacity", type=int, default=16, metavar="N",
        help="bounded admission queue; full means Overloaded refusals "
        "(default: 16)",
    )
    load.add_argument(
        "--window", type=int, default=16, metavar="N",
        help="initial admitted-concurrency window (default: 16); a window "
        "no run can fill is the no-admission-control ablation",
    )
    load.add_argument(
        "--json", action="store_true",
        help="print the full SLO report as canonical JSON",
    )
    load.set_defaults(fn=cmd_load)

    chaos = commands.add_parser(
        "chaos-sweep",
        help="deterministic simulation sweep: crash every protocol step, "
        "then random nemesis schedules; record + shrink violations "
        "(exit 1 if any oracle fires or a crash point goes unreached)",
    )
    chaos.add_argument(
        "--mode", choices=["all", "exhaustive", "random", "failover"],
        default="all",
        help="which passes to run (default: all; 'failover' runs the "
        "replicated kill/partition/resurrect-the-primary scenarios over "
        "every paper workload)",
    )
    chaos.add_argument(
        "--workload", choices=list(APPLICATIONS),
        default="order",
        help="paper application to run under chaos (default: order)",
    )
    chaos.add_argument(
        "--replicas", type=int, default=2, metavar="N",
        help="execution-service replicas for the failover pass (default: 2)",
    )
    chaos.add_argument("--workers", type=int, default=2, metavar="N")
    chaos.add_argument(
        "--instances", type=int, default=1, metavar="N",
        help="concurrent workflow instances per run (default: 1)",
    )
    chaos.add_argument(
        "--seeds", type=int, default=64, metavar="N",
        help="random-sweep seed count (default: 64)",
    )
    chaos.add_argument(
        "--seed", type=int, default=0,
        help="base seed for both passes (default: 0)",
    )
    chaos.add_argument(
        "--max-time", type=float, default=5_000.0, metavar="T",
        help="virtual-time budget per run before an instance counts as "
        "stuck (default: 5000)",
    )
    chaos.add_argument(
        "--out", default=None, metavar="DIR",
        help="directory for shrunk repro JSON files (written only on "
        "violation)",
    )
    chaos.add_argument(
        "--replay", default=None, metavar="FILE",
        help="re-run a recorded repro file and verify the report matches "
        "the recorded fingerprint byte-for-byte",
    )
    chaos.add_argument(
        "--list-points", action="store_true",
        help="print the crash-point catalogue and exit",
    )
    chaos.add_argument("--verbose", action="store_true")
    chaos.set_defaults(fn=cmd_chaos_sweep)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
