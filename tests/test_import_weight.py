"""The package runs on the standard library alone: every module
``src/repro`` imports is the standard library's or the package's own, and
``pyproject.toml`` declares no dependency."""

import ast
import os
import pathlib
import re
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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
    be a declared dependency, and there is none."""
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
    assert third_party == set(), {name: imported[name] for name in third_party}
    assert third_party <= declared, {name: imported[name] for name in third_party - declared}
