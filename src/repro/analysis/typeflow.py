"""Typed-dataflow checking (``E1xx``).

Checks every alternative source of every input object against the producing
output's declared object class — across compound-task boundaries, output
mappings, and (unlike plain validation) inside template bodies, where the
template's parameters are treated as opaque producers.

The heavy lifting is shared with :class:`repro.core.graph.Validator`; the
analyser runs it in coded mode and converts the results into
:class:`~repro.analysis.findings.Finding` objects, so ``compile_script`` and
``repro lint``/``repro analyze --static`` can never disagree about what is
type-correct.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from ..core.graph import Validator
from ..core.schema import Script
from .findings import Finding
from .registry import DIAGNOSTICS


def _to_findings(coded: List[Tuple[str, str, str]], prefix: str = "") -> Iterator[Finding]:
    for code, location, message in coded:
        spec = DIAGNOSTICS.require(code)
        yield Finding(
            code=code,
            severity=spec.severity,
            location=f"{prefix}{location}",
            message=message,
        )


def check_typeflow(script: Script) -> List[Finding]:
    """All typed-dataflow findings of ``script`` (empty list = type-correct).

    Subsumes :func:`repro.core.graph.validate_script` (same checks, stable
    codes) and additionally type-checks every template body, which plain
    validation skips because templates are only checked at instantiation.
    """
    validator = Validator(script)
    validator.validate()
    findings = list(_to_findings(validator.coded))
    for template in script.templates.values():
        findings.extend(_check_template(script, template))
    return findings


def _check_template(script: Script, template) -> Iterator[Finding]:
    body = template.body
    if body.taskclass_name not in script.taskclasses:
        spec = DIAGNOSTICS.require("E107")
        yield Finding(
            code="E107",
            severity=spec.severity,
            location=f"template {template.name}",
            message=f"body uses unknown taskclass {body.taskclass_name!r}",
        )
        return
    validator = Validator(script)
    validator.validate_template(template)
    yield from _to_findings(validator.coded, prefix=f"template {template.name}/")
