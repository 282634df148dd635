"""Workflow-level event log, statuses and results.

Every scope-level :class:`~repro.core.selection.WorkflowEvent` is also
recorded here with its full instance path and (virtual or step) time, giving
experiments a single chronological record to assert ordering properties
against — e.g. "t4 started only after both t2 and t3 finished" (Fig. 1).
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.selection import EventKind, WorkflowEvent
from ..core.values import ObjectRef


class WorkflowStatus(enum.Enum):
    RUNNING = "running"
    COMPLETED = "completed"   # root terminated in an outcome
    ABORTED = "aborted"       # root terminated in an abort outcome
    STALLED = "stalled"       # no progress possible, root not terminal
    FAILED = "failed"         # unrecoverable implementation/system failure


@dataclass(frozen=True)
class LogEntry:
    """One event, globally timestamped and path-qualified."""

    seq: int
    time: float
    scope_path: str
    producer_path: str
    event: WorkflowEvent

    @property
    def kind(self) -> EventKind:
        return self.event.kind

    @property
    def name(self) -> str:
        return self.event.name


class EventLog:
    """Chronological record of everything a workflow instance did.

    Appends are serialised by a lock so the concurrent engine
    (:mod:`repro.engine.concurrent`) can record events from several worker
    threads; ``seq`` numbers remain dense and strictly increasing.  Readers
    are unaffected: entries are append-only and never mutated.
    """

    def __init__(self) -> None:
        self.entries: List[LogEntry] = []
        self._append_lock = threading.Lock()
        # entries a shed() left behind: counted, no longer held
        self._shed = 0

    def record(
        self, time: float, scope_path: str, producer_path: str, event: WorkflowEvent
    ) -> LogEntry:
        with self._append_lock:
            entry = LogEntry(len(self), time, scope_path, producer_path, event)
            self.entries.append(entry)
            return entry

    def shed(self, producer_path: str) -> "EventLog":
        """A log of the same length that holds only ``producer_path``'s own
        entries; the bodies of all others go with this log."""
        kept = EventLog()
        kept.entries = self.for_task(producer_path)
        kept._shed = len(self) - len(kept.entries)
        return kept

    def outputs_of(
        self, producer_path: str
    ) -> Tuple[Dict[str, ObjectRef], List[Tuple[str, Dict[str, ObjectRef]]]]:
        """What ``producer_path`` has released and ended with: the objects of
        its outcome or abort outcome (none while it runs), and its marks in
        order.  Asked of the root, this is an instance's result on any engine."""
        objects: Dict[str, ObjectRef] = {}
        marks = []
        for entry in self.entries:
            if entry.producer_path != producer_path:
                continue
            if entry.event.kind in (EventKind.OUTCOME, EventKind.ABORT):
                objects = dict(entry.event.objects)
            elif entry.event.kind is EventKind.MARK:
                marks.append((entry.event.name, dict(entry.event.objects)))
        return objects, marks

    # -- queries used by tests and benchmarks ------------------------------------

    def for_task(self, producer_path: str) -> List[LogEntry]:
        return [e for e in self.entries if e.producer_path == producer_path]

    def of_kind(self, kind: EventKind) -> List[LogEntry]:
        return [e for e in self.entries if e.event.kind is kind]

    def first(self, producer_path: str, kind: EventKind) -> Optional[LogEntry]:
        for entry in self.entries:
            if entry.producer_path == producer_path and entry.event.kind is kind:
                return entry
        return None

    def started_order(self) -> List[str]:
        """Producer paths in the order their (first) INPUT event appeared —
        i.e. task start order."""
        seen: List[str] = []
        for entry in self.entries:
            if entry.event.kind is EventKind.INPUT and entry.producer_path not in seen:
                seen.append(entry.producer_path)
        return seen

    def happened_before(self, earlier: Tuple[str, EventKind], later: Tuple[str, EventKind]) -> bool:
        """Did the first (earlier) event precede the first (later) event?"""
        first = self.first(*earlier)
        second = self.first(*later)
        return first is not None and second is not None and first.seq < second.seq

    def __len__(self) -> int:
        return len(self.entries) + self._shed


@dataclass
class WorkflowResult:
    """Final report of one workflow instance run."""

    status: WorkflowStatus
    outcome: Optional[str] = None
    objects: Dict[str, ObjectRef] = field(default_factory=dict)
    marks: List[Tuple[str, Dict[str, ObjectRef]]] = field(default_factory=list)
    log: EventLog = field(default_factory=EventLog)
    stats: Dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None

    @property
    def completed(self) -> bool:
        return self.status is WorkflowStatus.COMPLETED

    def value(self, name: str, default=None):
        ref = self.objects.get(name)
        return default if ref is None else ref.value
