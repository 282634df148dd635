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
from dataclasses import fields, replace
from typing import List, Optional

from .core.errors import ParseError, ValidationReport
from .core.graph import structure_summary
from .core.schema import CompoundTaskDecl, Script
from .engine import LocalEngine, compile_plan
from .engine.trace import render_summary, render_trace
from .lang import compile_script, format_script, parse
from .lang.dot import to_dot
from .overload import OverloadConfig
from .services.system import SystemSpec, WorkflowSystem
from .sim.explorer import ChaosSweep
from .workloads import APPLICATIONS, TrafficSpec


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _compiled(path: str) -> Optional[Script]:
    """The valid script at ``path``, or None once the error is on stderr."""
    try:
        return compile_script(_read(path))
    except (ParseError, ValidationReport) as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return None


def cmd_validate(args: argparse.Namespace) -> int:
    script = _compiled(args.script)
    if script is None:
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
    script = _compiled(args.script)
    if script is None:
        return 1
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
    from .analysis import check_liveness

    script = _compiled(args.script)
    if script is None:
        return 1
    try:
        plan = compile_plan(script, root_task=args.task)
    except KeyError as exc:
        print(f"ERROR: {exc.args[0]}", file=sys.stderr)
        return 1
    liveness = check_liveness(plan)
    if args.json:
        print(json.dumps(plan.as_dict(liveness), indent=2, sort_keys=True))
    else:
        print(plan.render(liveness))
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis import analyze_script

    script = compile_script(_read(args.script))
    report = analyze_script(script, root_task=args.task, source_name=args.script)
    if args.static:
        print(report.render_text())
        return 0 if report.ok else 1

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
    return 1 if disagreement or analysis.unreachable or not report.ok else 0


def cmd_lint(args: argparse.Namespace) -> int:
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
    """Run a paper workload on the simulated distributed system with the
    runtime sanitizer attached (real implementations, one run per seed,
    optionally a nemesis schedule) and verify every dynamic finding is
    predicted by a static one."""
    from .analysis import Sanitizer, analyze_script, sanitized_run, to_sarif

    app = APPLICATIONS[args.name]
    script = compile_script(app.text)
    report = analyze_script(script, source_name=args.name)
    sanitizer = Sanitizer()
    seeds = range(args.seed, args.seed + args.runs)
    for seed in seeds:
        sanitized_run(
            sanitizer, script, app.root_task, app.binder(), app.inputs(0), seed=seed
        )
    if args.nemesis:
        _sanitize_under_nemesis(args, sanitizer, script)
    print(
        f"{args.name}: {len(sanitizer.findings)} dynamic finding(s) over "
        f"{args.runs} sanitized run(s), seeds {seeds.start}..{seeds.stop - 1}"
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
                "seed": args.seed,
                "nemesis": bool(args.nemesis),
                "dynamicFindings": [f.render() for f in sanitizer.findings],
                "uncovered": [f.render() for f in uncovered],
            }
        }
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(log, fh, indent=2)
            fh.write("\n")
    for dyn in uncovered:
        print(
            "ANALYZER BUG: dynamic finding has no static counterpart — "
            f"please report this: {dyn.render()}"
        )
    if not uncovered:
        print("every dynamic finding is statically predicted (dynamic <= static)")
    return 1 if uncovered else 0


def _sanitize_under_nemesis(args, sanitizer, script) -> None:
    """One deterministic nemesis run, watched by the sanitizer: crash a
    worker right after it executed a task but before the reply lands,
    forcing the at-least-once redispatch to run the task again — then scan
    the worker ledgers for duplicates."""
    from .sim.harness import SimHarness
    from .sim.nemesis import CrashAtPoint, NemesisSchedule

    schedule = NemesisSchedule(
        faults=[CrashAtPoint("worker.execute.post", at_hit=1)],
        name="sanitize-duplicate-effects",
    )
    harness = SimHarness(schedule, workload=args.name, system=SystemSpec(seed=args.seed))
    sanitizer.attach_harness(harness)
    sim_report = harness.run()
    sanitizer.scan_workers(harness._system.workers, compile_plan(script))
    print(f"nemesis: {sim_report.summary()}")


def cmd_dot(args: argparse.Namespace) -> int:
    script = _compiled(args.script)
    if script is None:
        return 1
    try:
        text = to_dot(script, args.task)
    except ValueError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1
    print(text, end="")
    return 0


def _run_load(traffic: TrafficSpec, system: SystemSpec, as_json: bool = False):
    """Sustained-traffic generator against the simulated system: a seeded
    Poisson/burst arrival schedule with cohorts and hot-key skew, reported
    as the SLO view (docs/PROTOCOLS.md §13)."""
    from .workloads import run_traffic, traffic_registry

    slo_report = run_traffic(WorkflowSystem(system, registry=traffic_registry()), traffic)
    if as_json:
        print(json.dumps(slo_report.to_plain(), indent=2, sort_keys=True))
    else:
        print(slo_report.render())
    return slo_report


def _window_bounds(window: int) -> dict:
    """The admission window bounds the ``--window`` option stands for."""
    return dict(
        initial_window=window,
        min_window=max(1, window // 4),
        max_window=max(window, OverloadConfig.max_window),
    )


def cmd_load(args: argparse.Namespace) -> int:
    overload = from_options(args, OverloadConfig, **_window_bounds(args.window))
    system = from_options(args, SystemSpec, overload=overload)
    _run_load(from_options(args, TrafficSpec), system, args.json)
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    system = from_options(args, SystemSpec)
    if args.load:
        # Overload smoke: `load` with a short sustained burst against a
        # capacity-limited system and tight admission bounds, so the whole
        # §13 pipeline — queueing, controller, shedding, retry-after — runs
        # in a couple of wall seconds.
        slo_report = _run_load(
            TrafficSpec(rate=1.0, duration=120.0, drain=300.0, slo=90.0, seed=system.seed),
            SystemSpec(
                workers=system.workers, seed=system.seed, worker_service_time=1.0,
                overload=OverloadConfig(queue_capacity=8, **_window_bounds(8)),
            ),
        )
        healthy = (
            slo_report.offered > 0
            and slo_report.unfinished == 0
            and slo_report.lost == 0
            and slo_report.completed > 0
        )
        return 0 if healthy else 1
    app = APPLICATIONS[args.name]
    if args.distributed:
        return _demo_distributed(args, system, app)
    result = LocalEngine(app.binder()).run(compile_script(app.text), inputs=app.inputs(0))
    print(f"outcome: {result.outcome}\n")
    print(render_trace(result.log))
    print()
    print(render_summary(result.log))
    return 0 if result.completed else 1


def _demo_distributed(args, spec: SystemSpec, app) -> int:
    """Run a demo on the full simulated distributed system, optionally under
    chaos, and show the workflow trace alongside the dispatcher's resilience
    decisions (redispatches, hedges, breaker trips)."""
    from .resilience import ResilienceConfig
    from .sim.nemesis import NemesisSchedule, RandomCrashes

    resilience = ResilienceConfig.for_timeouts(
        spec.dispatch_timeout,
        spec.sweep_interval,
        seed=spec.seed,
        hedging=args.hedge_delay != 0.0,
        max_redispatches=args.max_redispatches,
    )
    if args.hedge_delay is not None and args.hedge_delay > 0.0:
        resilience = replace(resilience, hedge_delay=args.hedge_delay)
    system = WorkflowSystem(spec, registry=app.binder(), resilience=resilience)
    crashes = None
    if args.chaos_interval > 0.0:
        workers = tuple(node.name for node in system.worker_nodes)
        crashes = NemesisSchedule(
            [RandomCrashes(workers, args.chaos_interval, args.chaos_downtime, spec.seed)]
        ).arm(system)
    system.deploy(app.script_name, app.text)
    iid = system.instantiate(app.script_name, app.root_task, app.inputs(0))
    result = system.run_until_terminal(iid, max_time=50_000.0)
    print(f"outcome: {result.get('outcome')}  (status: {result['status']})\n")
    service = system.primary_execution() or system.execution
    print(service.trace(iid))
    print()
    if spec.replicas > 0:
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
    if crashes is not None:
        print(f"chaos: {len(crashes)} worker crashes injected")
    return 0 if result["status"] == "completed" else 1


def cmd_chaos_sweep(args: argparse.Namespace) -> int:
    from .sim.crashpoints import catalogue
    from .sim.explorer import replay

    sweep = from_options(args, ChaosSweep)
    if args.list_points:
        name = max(len(point.name) for point in catalogue())
        module = max(len(point.module) for point in catalogue())
        print(f"{'crash point':<{name}} {'file':<{module}} protocol step")
        for point in catalogue():
            suffix = "  [torn]" if point.torn else ""
            print(f"{point.name:<{name}} {point.module:<{module}} {point.step}{suffix}")
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


def at_least(low):
    """An argparse type for a number of ``low``'s type no smaller than
    ``low``: a value below it is a usage error (exit 2), not a traceback
    further in."""

    def parse(text: str):
        value = type(low)(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = type(low).__name__  # argparse names the type in its errors
    return parse


# what an option's value is called in --help, by the unit of its field
_METAVARS = {"count": "N", "s": "T", "share": "P", "1/s": "R", "dir": "DIR"}


def field_option(parser: argparse.ArgumentParser, table: type, name: str,
                 flag: Optional[str] = None, **overrides) -> None:
    """Add the option for field ``name`` of the settings table ``table``
    (``repro.settings``): spelling, type, choices, help and default are the
    field's unless this subcommand says otherwise in ``flag`` / ``overrides``.
    The option's value lands under the field's name for :func:`from_options`."""
    item = next(item for item in fields(table) if item.name == name)
    option = dict(dest=name, default=item.default,
                  help=item.metadata["help"] + " (default: %(default)s)")
    if isinstance(item.default, bool):
        option["action"] = "store_true"
    else:
        option.update(
            type=str if item.default is None else type(item.default),
            metavar=_METAVARS.get(item.metadata["unit"]),
            choices=item.metadata.get("choices"),
        )
    option.update(overrides)
    parser.add_argument(flag or "--" + name.replace("_", "-"), **option)


def from_options(args: argparse.Namespace, table: type, **values):
    """Build ``table`` from the options named after its fields, plus
    ``values``.  A value the table refuses is a usage error (exit 2) that
    names the option."""
    names = {item.name for item in fields(table)}
    given = {name: value for name, value in vars(args).items() if name in names}
    try:
        return table(**given, **values)
    except ValueError as exc:
        name, _, reason = str(exc).partition(": ")
        flags = {action.dest: action.option_strings[0]
                 for action in args.parser._actions if action.option_strings}
        args.parser.error(f"argument {flags[name]}: {reason}" if name in flags else str(exc))


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
    plan.set_defaults(fn=cmd_plan)

    sanitize = commands.add_parser(
        "sanitize",
        help="run a paper workload under the runtime sanitizer and verify "
        "every dynamic race/duplicate is statically predicted "
        "(exit 1 on an uncovered dynamic finding)",
    )
    sanitize.add_argument("name", choices=list(APPLICATIONS))
    sanitize.add_argument(
        "--runs", type=at_least(1), default=5, metavar="N",
        help="sanitized runs with the real implementations on the simulated "
        "distributed system, one per seed --seed .. --seed+N-1 (default: 5)",
    )
    sanitize.add_argument(
        "--nemesis",
        action="store_true",
        help="also run one deterministic nemesis schedule (worker crash "
        "after execute, before reply) on the simulated distributed system "
        "and scan worker ledgers for duplicate effects",
    )
    sanitize.add_argument(
        "--seed", type=int, default=0,
        help="first seed of the sanitized runs, and the nemesis run's seed "
        "(default: 0)",
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
        "--distributed",
        action="store_true",
        help="run on the full simulated distributed system (repository, "
        "execution service, worker pool) instead of the local engine",
    )
    field_option(demo, SystemSpec, "workers", default=3)
    field_option(demo, SystemSpec, "replicas")
    field_option(demo, SystemSpec, "loss_rate")
    demo.add_argument(
        "--chaos-interval", type=float, default=0.0, metavar="T",
        help="mean virtual time between random worker crashes "
        "(0 disables chaos; --distributed only)",
    )
    demo.add_argument(
        "--chaos-downtime", type=at_least(0.0), default=20.0, metavar="T",
        help="how long a chaos-crashed worker stays down (default: 20)",
    )
    field_option(demo, SystemSpec, "seed")
    field_option(demo, SystemSpec, "dispatch_timeout")
    field_option(demo, SystemSpec, "sweep_interval")
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
    demo.set_defaults(fn=cmd_demo, parser=demo)

    load = commands.add_parser(
        "load",
        help="sustained-traffic generator: drive the simulated system with "
        "a seeded arrival schedule and print the SLO report "
        "(goodput, sojourn percentiles, shed/refusal counts by class)",
    )
    for name in ("arrival", "rate", "duration", "cohorts", "skew", "seed", "drain"):
        field_option(load, TrafficSpec, name)
    field_option(load, TrafficSpec, "slo", default=120.0)
    field_option(load, SystemSpec, "workers")
    field_option(load, SystemSpec, "worker_service_time", "--service-time", default=1.0)
    field_option(load, SystemSpec, "worker_lanes", "--lanes")
    field_option(load, OverloadConfig, "queue_capacity", default=16)
    load.add_argument(
        "--window", type=at_least(1), default=16, metavar="N",
        help="initial admitted-concurrency window (default: 16); a window "
        "no run can fill is the no-admission-control ablation",
    )
    load.add_argument(
        "--json", action="store_true",
        help="print the full SLO report as canonical JSON",
    )
    load.set_defaults(fn=cmd_load, parser=load)

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
    field_option(chaos, ChaosSweep, "workload")
    chaos.add_argument(
        "--replicas", type=at_least(1), default=2, metavar="N",
        help="execution-service replicas for the failover pass (default: 2)",
    )
    field_option(chaos, ChaosSweep, "workers")
    field_option(chaos, ChaosSweep, "instances")
    chaos.add_argument(
        "--seeds", type=at_least(1), default=64, metavar="N",
        help="random-sweep seed count (default: 64)",
    )
    field_option(chaos, ChaosSweep, "base_seed", "--seed")
    field_option(chaos, ChaosSweep, "max_time")
    field_option(chaos, ChaosSweep, "out_dir", "--out")
    chaos.add_argument(
        "--replay", default=None, metavar="FILE",
        help="re-run a recorded repro file and verify the report matches "
        "the recorded fingerprint byte-for-byte",
    )
    chaos.add_argument(
        "--list-points", action="store_true",
        help="print the crash-point catalogue and exit",
    )
    field_option(chaos, ChaosSweep, "verbose")
    chaos.set_defaults(fn=cmd_chaos_sweep, parser=chaos)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
