"""Whole-script static analysis (no execution).

The paper's central design point is that task *interfaces* (input sets,
outcomes, marks) are explicit while implementations stay opaque — so a
script's composition can be analysed *before* anything runs.  This package
is that analyser.  It operates on a parsed :class:`~repro.core.schema.Script`
and never executes task code (contrast :mod:`repro.core.analysis`, which
explores behaviour by running the real engine against synthetic
implementations — the two cross-check each other in ``repro analyze``).

Four checkers, one unified report:

* :mod:`repro.analysis.typeflow` (``E1xx``) — every alternative source of
  every input checked against the producing output's declared object class,
  across compound boundaries, templates and output mappings;
* :mod:`repro.analysis.liveness` (``E2xx``) — which tasks can never become
  ready, which input sets are unsatisfiable, and which root outcomes are
  statically unreachable;
* :mod:`repro.analysis.interference` (``W3xx``) — pairs of tasks that may be
  simultaneously enabled (in flight together on two worker nodes) and touch
  the same object reference: races no coordination layer can see;
* :mod:`repro.analysis.recovery` (``W401``/``E402``/``W404``) — bare (non
  transactional) effects reachable under at-least-once dispatch, abort
  paths that cannot compensate committed sibling effects, and degenerate
  deadlines.

Liveness, interference and recovery read one artifact: the
script compiled once into the plan the engine runs
(:func:`repro.engine.plan.compile_plan`) — its firing tables, set masks and
watch tables — so a verdict is about the engine's own tables, not a model of
them.  Typeflow alone reads the declarations: it must also judge scripts
that do not compile.

The static passes are may-analyses: they over-approximate the engine.  The
runtime sanitizer (:mod:`repro.analysis.dynamic`) watches real executions
(vector clocks, worker execution ledgers) and checks the containment —
every dynamic race/duplicate-effect must be predicted by a static
``W301``/``W401`` finding.

Legacy lint diagnostics (``W0xx``, :mod:`repro.lang.linter`) are merged into
the same report; every code lives in the central
:mod:`repro.analysis.registry` so codes can never silently collide.

Findings render as text, JSON, or SARIF 2.1.0 (:mod:`repro.analysis.sarif`)
for CI annotation; ``repro lint`` / ``repro analyze --static`` are the CLI
entry points, and :class:`repro.services.repository.RepositoryService` can
reject error-laden scripts at registration time (strict admission).
"""

from __future__ import annotations

from typing import Optional

from ..core.schema import Script
from ..engine.plan import compile_plan
from .dynamic import DynamicFinding, Sanitizer, sanitized_run
from .findings import Finding, Severity, StaticReport
from .interference import check_interference, enabled_pairs
from .liveness import LivenessResult, check_liveness
from .recovery import check_recovery
from .registry import DIAGNOSTICS, DiagnosticRegistry, DiagnosticSpec
from .sarif import to_sarif
from .sources import iter_embedded_scripts, load_scripts
from .typeflow import check_typeflow


def analyze_script(
    script: Script,
    root_task: Optional[str] = None,
    input_set: str = "main",
    source_name: str = "<script>",
) -> StaticReport:
    """Run every static check on ``script`` and return a unified report.

    ``root_task``/``input_set`` select the workflow analysed for liveness
    and interference (defaulting exactly like
    :func:`repro.core.analysis.analyze_outcomes`: the sole top-level task,
    started via ``main`` or its first declared input set).  Typeflow and
    lint always cover the whole script.
    """
    findings = list(check_typeflow(script))
    liveness: Optional[LivenessResult] = None
    # the deeper passes read the compiled plan, and only a semantically
    # valid script compiles; on typeflow errors they are skipped (the report
    # already fails on the E1xx findings).
    if not any(f.severity is Severity.ERROR for f in findings):
        plan = compile_plan(script, root_task)
        liveness = check_liveness(plan, input_set)
        findings.extend(liveness.findings)
        findings.extend(check_interference(plan, liveness))
        findings.extend(check_recovery(plan, liveness))
    from ..lang.linter import lint_script

    for warning in lint_script(script):
        findings.append(
            Finding(
                code=warning.code,
                severity=DIAGNOSTICS.require(warning.code).severity,
                location=warning.location,
                message=warning.message,
            )
        )
    findings.sort(key=lambda f: (f.severity.rank, f.code, f.location, f.message))
    return StaticReport(
        source_name=source_name, findings=findings, liveness=liveness
    )


__all__ = [
    "DIAGNOSTICS",
    "DiagnosticRegistry",
    "DiagnosticSpec",
    "DynamicFinding",
    "Finding",
    "LivenessResult",
    "Sanitizer",
    "Severity",
    "StaticReport",
    "analyze_script",
    "sanitized_run",
    "check_interference",
    "enabled_pairs",
    "check_liveness",
    "check_recovery",
    "check_typeflow",
    "iter_embedded_scripts",
    "load_scripts",
    "to_sarif",
]
