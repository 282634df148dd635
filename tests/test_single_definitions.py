"""AST tripwires: what a crash does to a store, the shape of the execution
tier and the terminal statuses are each written down in one file under
``src/repro`` (in the style of ``test_journal_layout.py::TestLayout``),
concurrency is tasks on worker nodes, never threads in one process, the
compiled plan is the one evaluator and what the static analyzers read, the
records a step builds are tuples and a clock event is a heap entry with no
handle and no priority."""

import ast
import pathlib

import repro

ROOT = pathlib.Path(repro.__file__).parent


def sources():
    for path in sorted(ROOT.rglob("*.py")):
        yield path.relative_to(ROOT).as_posix(), ast.parse(path.read_text(encoding="utf-8"))


def test_only_the_node_crashes_a_store():
    """``Node.crash`` is the machine crash; the one other caller is the
    standby's resync, which wipes its own log and rebuilds from nothing."""
    callers = set()
    for rel, tree in sources():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "crash"
                and not ast.unparse(node.func.value).endswith("node")
            ):
                callers.add((rel, ast.unparse(node)))
    assert callers == {
        ("net/node.py", "store.crash()"),
        ("replication/replica.py", "self.store.crash()"),
    }


def test_only_the_nemesis_takes_a_machine_down_or_up():
    """Every injected fault is a nemesis fault: one interpreter calls
    ``crash`` / ``recover`` on a node (or hands either to the clock), so no
    module under ``net/`` and not the CLI injects one of its own."""
    callers = set()
    for rel, tree in sources():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in ("crash", "recover")
                and "node" in ast.unparse(node.value).lower()
            ):
                callers.add(rel)
    assert callers == {"sim/nemesis.py"}
    assert not any(rel.startswith("net/") or rel == "cli.py" for rel in callers)


def test_only_the_system_pairs_replicas_with_their_nodes():
    """A replica's node is ``service.node``; nobody else zips the two lists."""
    both = []
    for rel, tree in sources():
        names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        if {"replica_nodes", "execution_replicas"} <= names:
            both.append(rel)
    assert both == ["services/system.py"]


def test_the_terminal_statuses_are_spelled_once():
    spelled = []
    for rel, tree in sources():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                continue
            members = {
                element.value.lower() if isinstance(element, ast.Constant)
                else element.attr.lower() if isinstance(element, ast.Attribute)
                else None
                for element in node.elts
                if not isinstance(element, ast.Constant) or isinstance(element.value, str)
            }
            if members == {"completed", "aborted", "failed"}:
                spelled.append(rel)
    assert spelled == ["services/system.py"]


def test_no_module_starts_a_thread():
    """One engine: tasks run concurrently on the simulated system's worker
    nodes, so nothing under ``src/repro`` imports a thread library."""
    threaded = []
    for rel, tree in sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            threaded += [
                (rel, name) for name in names
                if name.split(".")[0] in ("threading", "_thread")
                or name.startswith("concurrent.futures") or name == "concurrent"
            ]
    assert threaded == []



def identifiers(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.arg, ast.keyword)):
            yield node.arg
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_no_evaluator_mode_is_left():
    """The compiled plan is the only evaluator: nothing selects another."""
    assert [rel for rel, tree in sources() if "use_plan" in set(identifiers(tree))] == []


def test_no_engine_or_service_runs_a_specification_tracker():
    """The trackers of ``core/selection.py`` specify readiness; the engine
    runs ``PlanTracker``s held to them (``tests/test_plan_specification.py``)."""
    spec = {"TaskInputTracker", "InputSetTracker", "InputObjectTracker", "NotificationTracker"}
    found = [
        (rel, name)
        for rel, tree in sources()
        if rel.startswith(("engine/", "services/"))
        for name in sorted(spec & set(identifiers(tree)))
    ]
    assert found == []


def test_the_static_analyzers_read_the_compiled_plan():
    """``engine/plan.py`` compiles a script into the tables the engine runs,
    and its ``_static_match`` is the one static source matcher: nothing under
    ``analysis/`` keeps a task tree of its own or matches a source's guard
    against a producer's class by local name."""
    trees, matchers = [], []
    for rel, tree in sources():
        if not rel.startswith("analysis/"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                kept = {
                    target.attr
                    for target in ast.walk(node)
                    if isinstance(target, ast.Attribute)
                    and isinstance(target.ctx, ast.Store)
                    and ast.unparse(target.value) == "self"
                }
                if kept & {"parent", "children"}:
                    trees.append((rel, node.name))
        names = set(identifiers(tree))
        matchers += [
            (rel, name)
            for name in sorted(names & {"guard_kind", "guard_name", "sibling_class", "taskclass_of"})
        ]
    assert trees == []
    assert matchers == []
    defined = [
        rel
        for rel, tree in sources()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_static_match"
    ]
    assert defined == ["engine/plan.py"]
    # and the dependency runs one way: the analyzers import the plan
    upward = [
        (rel, node.module)
        for rel, tree in sources()
        if rel.startswith("engine/")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").startswith(("analysis", "repro.analysis"))
    ]
    assert upward == []


def test_the_records_a_step_builds_are_tuples():
    """Built on the hot path by ``tuple.__new__``, never by a dataclass's
    Python-level ``__init__``."""
    from repro.core.selection import WorkflowEvent
    from repro.core.values import ObjectRef
    from repro.engine.context import TaskResult
    from repro.engine.events import LogEntry
    from repro.resilience.events import ResilienceEvent
    from repro.txn.wal import LogRecord

    records = (WorkflowEvent, TaskResult, ObjectRef, ResilienceEvent, LogRecord, LogEntry)
    assert [r.__name__ for r in records if not issubclass(r, tuple)] == []


def test_a_clock_event_has_no_handle_and_no_priority():
    """Nothing cancels a clock event and events at one instant run in the
    order they were scheduled: no module names a handle type or passes the
    clock a priority."""
    named, prioritised = [], []
    for rel, tree in sources():
        if "EventHandle" in set(identifiers(tree)):
            named.append(rel)
        prioritised += [
            (rel, ast.unparse(node))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("call_at", "call_after")
            and any(keyword.arg == "priority" for keyword in node.keywords)
        ]
    assert named == []
    assert prioritised == []
