"""Workflow Repository Service (paper Fig. 4).

Stores workflow scripts (schemas), validating on submission, with versioning
and inspect operations.  Script texts live in the hosting node's durable
:class:`~repro.txn.store.ObjectStore`, updated under transactions, so the
repository survives node crashes — its volatile state is nothing but a cache.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.errors import SchemaError
from ..core.graph import structure_summary
from ..core.schema import CompoundTaskDecl, Script
from ..lang import compile_script, format_script
from ..net.node import Service
from ..orb.broker import Interface
from ..txn.manager import TransactionManager
from ..txn.store import ObjectStore

REPOSITORY_INTERFACE = Interface(
    "WorkflowRepository",
    ("store_script", "get_script", "list_scripts", "versions", "inspect", "remove_script"),
)


class RepositoryService(Service):
    """CRUD + validation for named, versioned workflow scripts."""

    def __init__(
        self,
        name: str,
        store: ObjectStore,
        manager: Optional[TransactionManager] = None,
        strict_admission: bool = False,
    ) -> None:
        super().__init__(name)
        self.store = store
        self.manager = manager or TransactionManager(f"{name}-tm")
        # opt-in: also run the whole-script static analyser on submission and
        # reject scripts with any error-severity finding (unreachable
        # outcomes, dead tasks, guaranteed stalls) — not just invalid ones
        self.strict_admission = strict_admission

    # -- operations (exposed through the ORB) -------------------------------------

    def store_script(self, script_name: str, text: str) -> int:
        """Validate and store a new version of ``script_name``.

        Returns the stored version number (1 for a new script).  Invalid
        scripts are rejected and nothing is stored; under
        ``strict_admission`` a valid script whose static analysis
        (:func:`repro.analysis.analyze_script`) reports error-severity
        findings is rejected too.
        """
        script = compile_script(text)  # raises ParseError / ValidationReport
        if self.strict_admission:
            from ..analysis import analyze_script

            report = analyze_script(script, source_name=script_name)
            if not report.ok:
                details = "; ".join(str(f) for f in report.errors())
                raise SchemaError(
                    f"strict admission rejected {script_name!r}: {details}"
                )

        def body(txn) -> int:
            history: List[str] = list(txn.read(self.store, self._key(script_name), []))
            history.append(text)
            txn.write(self.store, self._key(script_name), history)
            index: List[str] = list(txn.read(self.store, "script-index", []))
            if script_name not in index:
                index.append(script_name)
                txn.write(self.store, "script-index", index)
            return len(history)

        return self._transact(body)

    def get_script(self, script_name: str, version: Optional[int] = None) -> str:
        """Latest (or a specific) version's text."""
        history = self.store.get_committed(self._key(script_name))
        if not history:
            raise SchemaError(f"no script named {script_name!r} in the repository")
        if version is None:
            return history[-1]
        if not 1 <= version <= len(history):
            raise SchemaError(f"{script_name!r} has no version {version}")
        return history[version - 1]

    def list_scripts(self) -> List[str]:
        return sorted(self.store.get_committed("script-index", []))

    def versions(self, script_name: str) -> int:
        history = self.store.get_committed(self._key(script_name))
        return len(history or [])

    def inspect(self, script_name: str) -> Dict[str, object]:
        """Structural summary of the latest version (the repository's
        'inspecting scripts' operation)."""
        script = self.load(script_name)
        tasks: Dict[str, object] = {}
        for decl in script.tasks.values():
            if isinstance(decl, CompoundTaskDecl):
                tasks[decl.name] = structure_summary(decl)
            else:
                tasks[decl.name] = {"taskclass": decl.taskclass_name}
        from ..lang.linter import lint_script

        return {
            "name": script_name,
            "versions": self.versions(script_name),
            "classes": sorted(script.classes),
            "taskclasses": sorted(script.taskclasses),
            "tasks": tasks,
            "lint": [str(w) for w in lint_script(script)],
            "canonical_text": format_script(script),
        }

    def remove_script(self, script_name: str) -> bool:
        def body(txn) -> bool:
            index: List[str] = list(txn.read(self.store, "script-index", []))
            if script_name not in index:
                return False
            index.remove(script_name)
            txn.write(self.store, "script-index", index)
            txn.write(self.store, self._key(script_name), [])
            return True

        return self._transact(body)

    # -- local helpers ----------------------------------------------------------------

    def load(self, script_name: str, version: Optional[int] = None) -> Script:
        """Compile the stored text (used in-process by the execution service)."""
        return compile_script(self.get_script(script_name, version))

    def _transact(self, body):
        """Run ``body`` as one transaction and end it with the store's
        physical barrier: the caller observes the change as durable."""
        try:
            return self.manager.run(body)
        finally:
            self.store.sync()

    @staticmethod
    def _key(script_name: str) -> str:
        return f"script:{script_name}"
