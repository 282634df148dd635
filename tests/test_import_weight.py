"""``networkx`` is a diagnostics dependency: the graph drawings, the linter's
cycle check and the interference / lock-order analyzers import it when they
run.  Importing the services, deploying, instantiating and running an instance
to its outcome must not load it — every benchmark child, CLI call and test
process pays for what ``import repro.services`` pulls in."""

import ast
import os
import pathlib
import re
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SERVICE_PATH = textwrap.dedent(
    """
    import sys

    import repro.services
    from repro.services import WorkflowSystem
    from repro.workloads import paper_order

    assert "networkx" not in sys.modules, "import repro.services loaded networkx"
    system = WorkflowSystem(workers=2)
    paper_order.default_registry(registry=system.registry)
    system.deploy("order", paper_order.SCRIPT_TEXT)
    iid = system.instantiate("order", paper_order.ROOT_TASK, {"order": "o-1"})
    assert system.run_until_terminal(iid)["status"] == "completed"
    assert "networkx" not in sys.modules, "the execution path loaded networkx"
    info = system.repository_proxy().inspect("order")
    assert info["tasks"][paper_order.ROOT_TASK]["tasks"] == 4
    assert "networkx" in sys.modules, "inspect no longer draws the graph?"
    """
)


def test_networkx_is_loaded_by_the_diagnostics_only():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SERVICE_PATH],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


# what ``sys.stdlib_module_names`` (3.10+) would say of the modules this
# package imports, for the 3.9 leg of CI
STDLIB_39 = {
    "__future__", "argparse", "collections", "dataclasses", "enum", "functools",
    "hashlib", "heapq", "importlib", "itertools", "json", "math", "os", "pathlib", "random",
    "re", "sys", "time", "types", "typing", "zlib",
}


def test_every_third_party_import_is_declared():
    """``pyproject.toml`` lists what ``src/repro`` imports: a top-level
    module that is neither the standard library's nor the package's own must
    be a declared dependency (CI used to install ``networkx`` by hand)."""
    repo = pathlib.Path(SRC).parent
    listed = re.search(
        r"^dependencies\s*=\s*\[(.*?)\]", (repo / "pyproject.toml").read_text(), re.M | re.S
    )
    assert listed, "pyproject.toml declares no dependencies"
    declared = {re.split(r"[<>=!~ \[;]", name, 1)[0] for name in re.findall(r'"([^"]+)"', listed.group(1))}
    stdlib = getattr(sys, "stdlib_module_names", STDLIB_39)
    imported = {}
    for path in sorted(pathlib.Path(SRC, "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.split(".")[0], path.name)
    third_party = {name for name in imported if name not in stdlib and name != "repro"}
    assert third_party == {"networkx"}  # the tripwire sees what it is there for
    assert third_party <= declared, {name: imported[name] for name in third_party - declared}
