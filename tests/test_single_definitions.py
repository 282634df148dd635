"""AST tripwires: what a crash does to a store, the shape of the execution
tier and the terminal statuses are each written down in one file under
``src/repro`` (in the style of ``test_journal_layout.py::TestLayout``),
concurrency is tasks on worker nodes, never threads in one process, and the
compiled plan is the one evaluator."""

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
