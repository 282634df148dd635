"""The ``implementation`` clause is read once and a task body is entered in
one place.

``core/schema.py`` declares the well-known keywords (one table) and parses
each clause into typed attributes; every consumer reads those.  A script
used as code is an implementation like any other, so no engine or service
asks a binding what it is.  The tripwires walk the AST (not grep: comments
and docstrings may name whatever they like).
"""

import ast
import pathlib
import re

import pytest

import repro
from repro.core.schema import WELL_KNOWN_PROPERTIES, Implementation

SRC = pathlib.Path(repro.__file__).parent
KEYWORDS = {known.keyword for known in WELL_KNOWN_PROPERTIES}


def trees(*prefixes):
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if not prefixes or rel.startswith(prefixes):
            yield rel, ast.parse(path.read_text(encoding="utf-8"))


def is_keyword(node):
    return isinstance(node, ast.Constant) and node.value in KEYWORDS


def terminal_name(node):
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


class TestTripwires:
    def test_only_the_schema_looks_a_well_known_keyword_up_by_name(self):
        """No ``….get("priority")``, ``….property("location")`` or
        ``properties["delay"]`` outside ``core/schema.py``: that is a second
        parse site waiting for its own ``try: int(...)``."""
        found = []
        for rel, tree in trees():
            if rel == "core/schema.py":
                continue
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("get", "property")
                    and node.args
                    and is_keyword(node.args[0])
                ) or (
                    isinstance(node, ast.Subscript)
                    and terminal_name(node.value) == "properties"
                    and is_keyword(node.slice)
                ):
                    found.append((rel, node.lineno))
        assert found == []

    def test_no_engine_or_service_asks_whether_a_binding_is_a_script(self):
        """``isinstance(x, ScriptBinding)`` is how a second task-running path
        starts.  (``repro.baselines`` refuses script bindings outright, which
        is a different statement and out of scope here.)"""
        found = []
        for rel, tree in trees("engine/", "services/"):
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and terminal_name(node.func) == "isinstance"
                    and any(
                        terminal_name(inner) == "ScriptBinding"
                        for inner in ast.walk(node.args[1])
                    )
                    and rel != "engine/registry.py"
                ):
                    found.append((rel, node.lineno))
        assert found == []


class TestTypedClause:
    def test_absent_keywords_carry_the_declared_defaults(self):
        clause = Implementation()
        for known in WELL_KNOWN_PROPERTIES:
            assert getattr(clause, known.keyword) == known.default
        assert clause.ill_typed == ()

    def test_well_typed_text_is_parsed_once_into_values(self):
        clause = Implementation.of(
            code="refDispatch", retries="2", priority="-3", timeout="2.5",
            deadline="30", delay="0.5", location="worker-1", criticality="high",
            agent="ops",
        )
        assert (clause.code, clause.retries, clause.priority) == ("refDispatch", 2, -3)
        assert (clause.timeout, clause.deadline, clause.delay) == (2.5, 30.0, 0.5)
        assert (clause.location, clause.criticality) == ("worker-1", "high")
        assert clause.ill_typed == ()
        assert clause.get("agent") == "ops"  # user data stays text

    @pytest.mark.parametrize(
        "keyword, text",
        [
            ("retries", "x"), ("priority", "high"), ("priority", "1.5"),
            ("timeout", "0"), ("timeout", "-1"), ("timeout", "nan"), ("timeout", "soon"),
            ("deadline", "soon"), ("delay", "-2"), ("delay", ""), ("criticality", "urgent"),
        ],
    )
    def test_ill_typed_text_yields_the_default_and_is_recorded(self, keyword, text):
        clause = Implementation.of(**{keyword: text})
        [known] = [k for k in WELL_KNOWN_PROPERTIES if k.keyword == keyword]
        assert getattr(clause, keyword) == known.default
        assert clause.ill_typed == ((known, text),)

    def test_typed_values_do_not_change_what_a_clause_is(self):
        # equality, hashing and the formatter see the pairs and nothing else
        pairs = (("code", "x"), ("priority", "high"))
        assert Implementation(pairs) == Implementation(pairs)
        assert hash(Implementation(pairs)) == hash(Implementation(pairs))
        assert Implementation(pairs).as_dict() == dict(pairs)


def test_language_doc_lists_exactly_the_declared_keywords():
    text = (SRC.parent.parent / "docs" / "LANGUAGE.md").read_text(encoding="utf-8")
    table = text[text.index("| keyword | type |"):]
    table = table[: table.index("\n\n")]
    documented = re.findall(r"^\| `(\w+)` \|", table, flags=re.MULTILINE)
    assert documented == [known.keyword for known in WELL_KNOWN_PROPERTIES]
