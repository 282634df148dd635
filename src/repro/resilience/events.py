"""Resilience decision log.

Every decision the dispatch layer takes — initial routing, redispatch,
hedge, breaker transition, pin failover, abandonment, recovery stagger — is
recorded as a :class:`ResilienceEvent` so operators can see *why* a task
went where it went, next to the workflow's own event trace
(:func:`repro.engine.trace.render_trace` appends the rendering).

The log is bounded (oldest entries dropped) and keeps per-kind counters
that are never truncated.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

# Event kinds (the closed vocabulary used by the execution service):
#   dispatch, redispatch, hedge, timeout, failover, abandon, stagger,
#   breaker-open, breaker-half-open, breaker-close, plus the overload
#   layer's admission decisions (docs/PROTOCOLS.md §13):
#   queue, promote, shed, reject, window
_GLYPH = {
    "dispatch": "→",
    "redispatch": "↻",
    "hedge": "⇉",
    "timeout": "⌛",
    "failover": "⤳",
    "abandon": "✖",
    "stagger": "…",
    "breaker-open": "⊘",
    "breaker-half-open": "◒",
    "breaker-close": "●",
    "queue": "⧖",
    "promote": "⇧",
    "shed": "⊖",
    "reject": "⊠",
    "window": "⌖",
}


@dataclass(frozen=True)
class ResilienceEvent:
    """One timestamped dispatch-layer decision."""

    time: float
    kind: str
    instance: str = ""       # workflow instance id ("" for worker-level events)
    task: str = ""           # task path ("" for worker-level events)
    worker: str = ""         # worker involved ("" when not applicable)
    detail: str = ""

    def format(self) -> str:
        glyph = _GLYPH.get(self.kind, "?")
        where = f" {self.task}" if self.task else ""
        who = f" @{self.worker}" if self.worker else ""
        detail = f"  ({self.detail})" if self.detail else ""
        return f"t={self.time:<8.1f} {glyph} {self.kind}{where}{who}{detail}"


EVENT_LIMIT = 2000  # entries kept; older ones are dropped and counted


class ResilienceLog:
    """Bounded chronological record of resilience decisions."""

    def __init__(self) -> None:
        self.entries: List[ResilienceEvent] = []
        self.counts: "Counter[str]" = Counter()
        self.dropped = 0

    def record(
        self,
        time: float,
        kind: str,
        instance: str = "",
        task: str = "",
        worker: str = "",
        detail: str = "",
    ) -> ResilienceEvent:
        event = ResilienceEvent(time, kind, instance, task, worker, detail)
        self.entries.append(event)
        self.counts[kind] += 1
        if len(self.entries) > EVENT_LIMIT:
            overflow = len(self.entries) - EVENT_LIMIT
            del self.entries[:overflow]
            self.dropped += overflow
        return event

    def for_instance(self, instance: str) -> List[ResilienceEvent]:
        """Events touching one workflow instance (worker-level breaker events
        carry no instance and are included for context)."""
        return [e for e in self.entries if e.instance in ("", instance)]

    def of_kind(self, kind: str) -> List[ResilienceEvent]:
        return [e for e in self.entries if e.kind == kind]

    def summary(self) -> Dict[str, int]:
        return dict(self.counts)

    def __len__(self) -> int:
        return len(self.entries)


def render_resilience(
    events: Sequence[ResilienceEvent], title: Optional[str] = "resilience"
) -> str:
    """Render a batch of events, one line each (empty string for none)."""
    if not events:
        return ""
    lines: List[str] = []
    if title:
        lines.append(f"-- {title} --")
    lines.extend(event.format() for event in events)
    return "\n".join(lines)
