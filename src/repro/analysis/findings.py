"""Finding model shared by every static checker.

A :class:`Finding` is one diagnostic: a stable registered code, a severity,
a script location (task path, declaration name, or ``a <-> b`` pair for
interference findings) and a human message.  :class:`StaticReport` is the
unified result of :func:`repro.analysis.analyze_script`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .liveness import LivenessResult


class Severity(enum.Enum):
    """Finding severity, ordered most severe first."""

    ERROR = "error"
    WARNING = "warning"
    NOTE = "note"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1, "note": 2}[self.value]

    @property
    def sarif_level(self) -> str:
        """SARIF 2.1.0 ``level`` values happen to match our names."""
        return self.value


@dataclass(frozen=True)
class Finding:
    """One static-analysis diagnostic."""

    code: str
    severity: Severity
    location: str
    message: str
    # optional structured payload (e.g. the two task paths of a race pair)
    related: Tuple[str, ...] = ()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.code} [{self.severity.value}] {self.location}: {self.message}"

    def as_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "code": self.code,
            "severity": self.severity.value,
            "location": self.location,
            "message": self.message,
        }
        if self.related:
            data["related"] = list(self.related)
        return data


@dataclass
class StaticReport:
    """Everything :func:`repro.analysis.analyze_script` found."""

    source_name: str = "<script>"
    findings: List[Finding] = field(default_factory=list)
    liveness: Optional["LivenessResult"] = None

    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when no error-severity finding was produced."""
        return not self.errors()

    def render_text(self) -> str:
        if not self.findings:
            return f"{self.source_name}: clean — no findings"
        lines = [
            f"{self.source_name}: {len(self.errors())} error(s), "
            f"{len(self.warnings())} warning(s)"
        ]
        lines.extend(f"  {finding}" for finding in self.findings)
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        return {
            "source": self.source_name,
            "errors": len(self.errors()),
            "warnings": len(self.warnings()),
            "findings": [f.as_dict() for f in self.findings],
        }
