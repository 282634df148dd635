"""Human-readable renderings of workflow event logs.

Complements the Fig. 4 administrative tooling: operators inspect what a
running (or finished) instance did.  Two views are provided: a flat
chronological trace and a per-task summary table.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List

from ..core.selection import EventKind
from .events import EventLog

_GLYPH = {
    EventKind.INPUT: "▶",
    EventKind.OUTCOME: "✔",
    EventKind.ABORT: "✘",
    EventKind.MARK: "◆",
    EventKind.REPEAT: "↻",
}


def render_trace(log: EventLog) -> str:
    """Chronological trace, one line per event, indented by nesting depth.
    (:meth:`repro.services.ExecutionService.trace` appends the dispatch
    layer's decisions below it.)"""
    lines: List[str] = []
    for entry in log.entries:
        depth = entry.producer_path.count("/")
        objects = ""
        if entry.event.objects:
            pairs = ", ".join(
                f"{name}={ref.value!r}" for name, ref in entry.event.objects.items()
            )
            objects = f"  ({pairs})"
        glyph = _GLYPH.get(entry.event.kind, "?")
        name = entry.producer_path.rsplit("/", 1)[-1]
        lines.append(
            f"#{entry.seq:<4} {'  ' * depth}{glyph} {name}"
            f" {entry.event.kind.value}:{entry.event.name}{objects}"
        )
    return "\n".join(lines)


def render_summary(log: EventLog) -> str:
    """Per-task summary: starts, repeats, marks, final output."""
    tasks: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
    for entry in log.entries:
        info = tasks.setdefault(
            entry.producer_path,
            {"starts": 0, "repeats": 0, "marks": 0, "final": "-"},
        )
        kind = entry.event.kind
        if kind is EventKind.INPUT:
            info["starts"] = int(info["starts"]) + 1
        elif kind is EventKind.REPEAT:
            info["repeats"] = int(info["repeats"]) + 1
        elif kind is EventKind.MARK:
            info["marks"] = int(info["marks"]) + 1
        elif kind in (EventKind.OUTCOME, EventKind.ABORT):
            marker = "" if kind is EventKind.OUTCOME else " (abort)"
            info["final"] = f"{entry.event.name}{marker}"
    width = max((len(path) for path in tasks), default=4)
    lines = [
        f"{'task'.ljust(width)}  starts  repeats  marks  final",
        f"{'-' * width}  ------  -------  -----  -----",
    ]
    for path, info in tasks.items():
        lines.append(
            f"{path.ljust(width)}  {str(info['starts']).ljust(6)}  "
            f"{str(info['repeats']).ljust(7)}  {str(info['marks']).ljust(5)}  "
            f"{info['final']}"
        )
    return "\n".join(lines)
