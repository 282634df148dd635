"""SARIF 2.1.0 rendering of static-analysis reports.

SARIF (Static Analysis Results Interchange Format, OASIS) is what CI
systems ingest for inline code annotation — ``repro lint --format sarif``
emits one ``run`` per invocation, with every registered diagnostic code as
a ``reportingDescriptor`` rule and every finding as a ``result``.

The language has no source positions in its schema model, so findings are
anchored with *logical* locations (the task path / declaration name); when
the CLI knows the originating file it adds an ``artifactLocation`` so the
annotation lands on the right file.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .findings import StaticReport
from .registry import DIAGNOSTICS

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
_INFO_URI = "https://github.com/paper-repro/repro/blob/main/docs/ANALYSIS.md"


def _rules() -> List[Dict[str, object]]:
    rules: List[Dict[str, object]] = []
    for spec in DIAGNOSTICS.specs():
        rules.append(
            {
                "id": spec.code,
                "name": spec.title.title().replace(" ", "").replace("-", ""),
                "shortDescription": {"text": spec.title},
                "fullDescription": {"text": spec.description},
                "helpUri": _INFO_URI,
                "defaultConfiguration": {"level": spec.severity.sarif_level},
            }
        )
    return rules


def to_sarif(
    reports,
    tool_version: str = "0.1.0",
    artifacts: Optional[Dict[str, str]] = None,
) -> Dict[str, object]:
    """One SARIF 2.1.0 log for one report or a list of reports.

    ``artifacts`` maps a report's ``source_name`` to a file URI; reports
    whose source is in the map get physical locations on their results.
    """
    if isinstance(reports, StaticReport):
        reports = [reports]
    artifacts = artifacts or {}
    results: List[Dict[str, object]] = []
    for report in reports:
        uri = artifacts.get(report.source_name)
        for finding in report.findings:
            location: Dict[str, object] = {
                "logicalLocations": [
                    {
                        "fullyQualifiedName": finding.location,
                        "kind": "member",
                    }
                ]
            }
            if uri is not None:
                location["physicalLocation"] = {
                    "artifactLocation": {"uri": uri},
                }
            result: Dict[str, object] = {
                "ruleId": finding.code,
                "ruleIndex": DIAGNOSTICS.rule_index(finding.code),
                "level": finding.severity.sarif_level,
                "message": {
                    "text": f"[{report.source_name}] {finding.location}: "
                    f"{finding.message}"
                },
                "locations": [location],
            }
            if finding.related:
                # pair-shaped findings (W301/E402) point at every task
                # in the pair, so CI annotates *both* ends, not just one
                result["relatedLocations"] = [
                    {
                        "logicalLocations": [
                            {"fullyQualifiedName": path, "kind": "member"}
                        ],
                        **(
                            {"physicalLocation": {"artifactLocation": {"uri": uri}}}
                            if uri is not None
                            else {}
                        ),
                        "message": {"text": f"other task in the {finding.code} pair"},
                    }
                    for path in finding.related
                ]
                result["properties"] = {"related": list(finding.related)}
            results.append(result)
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-analyze",
                        "informationUri": _INFO_URI,
                        "version": tool_version,
                        "rules": _rules(),
                    }
                },
                "results": results,
            }
        ],
    }
