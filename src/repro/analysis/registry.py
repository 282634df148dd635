"""Central diagnostic-code registry.

Every diagnostic the toolchain can emit — legacy lint warnings (``W0xx``),
typeflow errors (``E1xx``), liveness errors (``E2xx``) and concurrency
interference warnings (``W3xx``) — is declared here exactly once, with its
severity and one-line description.  Emitters look codes up through
:meth:`DiagnosticRegistry.require`, so an unknown or retired code is an
immediate ``KeyError`` instead of a silent collision.

Retired codes stay reserved forever: ``W004`` and ``W006`` were documented
in early drafts of :mod:`repro.lang.linter` but never implemented; they must
never be reused for a different meaning, because external suppression lists
may still reference them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator

from .findings import Severity


@dataclass(frozen=True)
class DiagnosticSpec:
    """One registered diagnostic code."""

    code: str
    severity: Severity
    title: str
    description: str


class DiagnosticRegistry:
    """Registry of every diagnostic code, with explicit retirement."""

    def __init__(self) -> None:
        self._specs: Dict[str, DiagnosticSpec] = {}
        self._retired: Dict[str, str] = {}

    def register(
        self, code: str, severity: Severity, title: str, description: str
    ) -> DiagnosticSpec:
        if code in self._specs:
            raise ValueError(f"diagnostic code {code!r} registered twice")
        if code in self._retired:
            raise ValueError(
                f"diagnostic code {code!r} is retired ({self._retired[code]}) "
                f"and must not be reused"
            )
        spec = DiagnosticSpec(code, severity, title, description)
        self._specs[code] = spec
        return spec

    def retire(self, code: str, reason: str) -> None:
        """Reserve ``code`` permanently; registering it later is an error."""
        if code in self._specs:
            raise ValueError(f"cannot retire live diagnostic code {code!r}")
        self._retired[code] = reason

    def require(self, code: str) -> DiagnosticSpec:
        """The spec for ``code``; raises for unknown or retired codes."""
        spec = self._specs.get(code)
        if spec is None:
            if code in self._retired:
                raise KeyError(
                    f"diagnostic code {code!r} is retired: {self._retired[code]}"
                )
            raise KeyError(f"diagnostic code {code!r} is not registered")
        return spec

    def specs(self) -> Iterator[DiagnosticSpec]:
        """All live specs, ordered by code (stable for SARIF rule arrays)."""
        for code in sorted(self._specs):
            yield self._specs[code]

    def rule_index(self, code: str) -> int:
        """Position of ``code`` in :meth:`specs` order (SARIF ``ruleIndex``)."""
        return sorted(self._specs).index(code)


DIAGNOSTICS = DiagnosticRegistry()

# -- legacy linter diagnostics (repro.lang.linter) ----------------------------

DIAGNOSTICS.register(
    "W001", Severity.WARNING, "dependency cycle",
    "Dependency cycle among constituents with no repeat outcome involved: "
    "the tasks on the cycle can never start.",
)
DIAGNOSTICS.register(
    "W002", Severity.WARNING, "missing code property",
    "Simple task without a 'code' implementation property: nothing can be "
    "bound at run time.",
)
DIAGNOSTICS.register(
    "W003", Severity.WARNING, "unconsumed task",
    "Constituent none of whose outputs is consumed, neither by a sibling "
    "nor by the compound's output mapping: its results go nowhere.",
)
DIAGNOSTICS.retire(
    "W004", "draft 'duplicate source' check, folded into validation before release"
)
DIAGNOSTICS.register(
    "W005", Severity.WARNING, "unbound input set",
    "Task class input set never bound by an instance: that way of starting "
    "the task is unreachable for this instance.",
)
DIAGNOSTICS.retire(
    "W006", "draft 'shadowed template parameter' check, superseded by schema checks"
)
DIAGNOSTICS.register(
    "W007", Severity.WARNING, "unhandled abort outcome",
    "Abort outcome nobody reacts to: when the atomic task aborts, the "
    "workflow silently loses the branch.",
)
DIAGNOSTICS.register(
    "W008", Severity.WARNING, "unused declaration",
    "Object class, task class or template never referenced.",
)
DIAGNOSTICS.register(
    "W009", Severity.WARNING, "ill-typed implementation property",
    "A well-known implementation property (core.schema.WELL_KNOWN_PROPERTIES) "
    "whose text is not of its declared type: the clause carries the default "
    "instead.  Unknown keywords stay legal — the clause is open.",
)

# -- typeflow (E1xx) ----------------------------------------------------------

DIAGNOSTICS.register(
    "E101", Severity.ERROR, "unknown producer",
    "A source names a task that does not exist in the enclosing scope.",
)
DIAGNOSTICS.register(
    "E102", Severity.ERROR, "unknown guard",
    "A source's `if` clause names an output or input set the producer's "
    "task class does not declare.",
)
DIAGNOSTICS.register(
    "E103", Severity.ERROR, "object not carried",
    "The guarded output or input set (or, unguarded, every outcome/mark) of "
    "the producer carries no object of the requested name.",
)
DIAGNOSTICS.register(
    "E104", Severity.ERROR, "class mismatch",
    "The produced object's class is not the consumer's expected class or a "
    "subclass of it.",
)
DIAGNOSTICS.register(
    "E105", Severity.ERROR, "repeat-output privacy violation",
    "An object of a repeat output is sourced by another task; repeat "
    "objects are private to the producing task (paper §4.2).",
)
DIAGNOSTICS.register(
    "E106", Severity.ERROR, "input-set binding mismatch",
    "A task instance binds an input set or input object its task class does "
    "not declare, or leaves a declared object unbound.",
)
DIAGNOSTICS.register(
    "E107", Severity.ERROR, "unresolved declaration",
    "A declaration references an unknown task class or object class, or the "
    "class hierarchy is cyclic.",
)
DIAGNOSTICS.register(
    "E108", Severity.ERROR, "incomplete output mapping",
    "A compound's output mapping is missing, empty, or maps objects the "
    "output does not declare.",
)

# -- liveness / stalls (E2xx) -------------------------------------------------

DIAGNOSTICS.register(
    "E200", Severity.ERROR, "guaranteed stall",
    "No final output of the root task is statically producible: the "
    "workflow can never terminate in a declared outcome.",
)
DIAGNOSTICS.register(
    "E201", Severity.ERROR, "dead task",
    "The task can never become ready: every alternative source of every "
    "input set is transitively unsatisfiable.",
)
DIAGNOSTICS.register(
    "E202", Severity.ERROR, "unreachable root outcome",
    "A declared final output of the root task is statically unreachable "
    "through the compound's output mapping.",
)
DIAGNOSTICS.register(
    "E203", Severity.WARNING, "unsatisfiable input set",
    "One input set of an otherwise-startable task can never be satisfied; "
    "that alternative way of starting the task is dead wiring.",
)
DIAGNOSTICS.register(
    "E204", Severity.WARNING, "dead output mapping",
    "A non-root compound output mapping can never fire; consumers guarded "
    "on it will never see the event.",
)

# -- concurrency interference (W3xx) ------------------------------------------

DIAGNOSTICS.register(
    "W301", Severity.WARNING, "concurrent shared-object access",
    "Two tasks with no happens-before ordering may be simultaneously "
    "enabled (in flight together on two worker nodes) while holding the "
    "same object reference; the implementations may race on the shared "
    "object, which no coordination layer can prevent.",
)

# -- recovery safety (E4xx / W4xx) ---------------------------------------------

DIAGNOSTICS.register(
    "W401", Severity.WARNING, "bare effects may apply twice",
    "A reachable non-atomic task's effects are not protected by the "
    "transaction manager: under at-least-once dispatch (redispatch or "
    "hedging) the implementation may run twice, and only the journal's "
    "reply deduplication — not the effects themselves — is exactly-once.",
)
DIAGNOSTICS.register(
    "E402", Severity.ERROR, "uncompensatable abort path",
    "A compound's abort outcome can fire after an atomic constituent has "
    "already committed, and no other constituent consumes that "
    "constituent's committed results: the abort claims no effects "
    "happened while committed effects stand uncompensated.",
)
DIAGNOSTICS.register(
    "W404", Severity.WARNING, "ineffective or degenerate deadline",
    "A 'deadline' implementation property that can never arm (the task "
    "class declares no abort outcome), is silently ignored (not a "
    "number), or always fires immediately (non-positive delay).",
)
