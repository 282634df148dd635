"""Input-dependency satisfaction: events, source matching, trackers.

This module is the run-time meaning of §4.3's dataflow and notification
dependencies:

* Producers emit :class:`WorkflowEvent`\\ s into their *scope* (the enclosing
  compound): a terminal ``OUTCOME``/``ABORT``, an early ``MARK``, a
  ``REPEAT``, or an ``INPUT`` event recording that an input set was satisfied
  (other tasks may source objects "from an input to another task instance").
* A consumer's readiness is what a :class:`TaskInputTracker` offered every
  event of its scope says — the executable specification the engine's
  compiled trackers (:mod:`repro.engine.plan`) are held to.
  An input object binding keeps the **first alternative in its declared list**
  among those available (§4.3: order is significant); a notification binding
  is satisfied by any alternative; an input set is satisfied when all its
  object and notification bindings are; when several sets are satisfied the
  **first declared** one wins (§3: "chosen deterministically").

Matching rules:

* ``... if output X``  — matches OUTCOME/ABORT/MARK/REPEAT events named X.
* ``... if input S``   — matches INPUT events named S.
* unguarded (no ``if``) — matches any OUTCOME or MARK event that carries the
  requested object (abort outcomes signal "no effects happened" and repeat
  objects are private to the producing task, §4.2, so neither satisfies an
  unguarded source).
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from .schema import (
    GuardKind,
    InputObjectBinding,
    InputSetBinding,
    NotificationBinding,
    OutputKind,
)
from .values import ObjectRef


class EventKind(str, enum.Enum):
    """A ``str`` mix-in: a member hashes as its value, in C (``Enum.__hash__``
    is a Python call, and every firing-table key holds a kind)."""

    OUTCOME = "outcome"
    ABORT = "abort"
    MARK = "mark"
    REPEAT = "repeat"
    INPUT = "input"


_OUTPUT_KINDS = (EventKind.OUTCOME, EventKind.ABORT, EventKind.MARK, EventKind.REPEAT)

_EVENT_KIND_FOR_OUTPUT = {
    OutputKind.OUTCOME: EventKind.OUTCOME,
    OutputKind.ABORT: EventKind.ABORT,
    OutputKind.MARK: EventKind.MARK,
    OutputKind.REPEAT: EventKind.REPEAT,
}


def event_kind_for(kind: OutputKind) -> EventKind:
    """Map a schema output kind to the event kind its production emits."""
    return _EVENT_KIND_FOR_OUTPUT[kind]


class HotpathStats:
    """Counters for the event hot path.

    ``publishes`` counts events entering scopes; ``source_evals`` counts
    individual source-alternative examinations: each candidate the engine's
    compiled :class:`~repro.engine.plan.PlanTracker` examines, and each
    :func:`source_matches` call the specification trackers below make.
    ``source_evals / publishes`` is therefore the per-publish readiness
    re-evaluation cost.  They instrument benchmarks, not semantics.
    """

    __slots__ = ("publishes", "source_evals")

    def __init__(self) -> None:
        self.publishes = 0
        self.source_evals = 0

    def reset(self) -> None:
        self.publishes = 0
        self.source_evals = 0


HOTPATH_STATS = HotpathStats()


class WorkflowEvent(NamedTuple):
    """Something a task did, visible to its scope.

    ``producer`` is the scope-local task name (engines translate instance
    paths to local names when publishing into a scope).  A tuple, built by
    :meth:`Scope.publish` with ``tuple.__new__``; ``objects`` is the
    publisher's own copy.
    """

    producer: str
    kind: EventKind
    name: str
    objects: Mapping[str, ObjectRef]
    seq: int = 0


def source_matches(source, event: WorkflowEvent) -> Optional[ObjectRef]:
    """Return the matched value (or a notification token) if ``source``
    accepts ``event``, else None.

    For notification sources the return value is a placeholder ObjectRef so
    callers can treat both uniformly; its class name is ``"<notification>"``.
    """
    HOTPATH_STATS.source_evals += 1
    if source.task_name != event.producer:
        return None
    if source.guard_kind is GuardKind.OUTPUT:
        if event.kind not in _OUTPUT_KINDS or event.name != source.guard_name:
            return None
    elif source.guard_kind is GuardKind.INPUT:
        if event.kind is not EventKind.INPUT or event.name != source.guard_name:
            return None
    else:  # ANY: unguarded
        if event.kind not in (EventKind.OUTCOME, EventKind.MARK):
            return None
        if source.object_name is not None and source.object_name not in event.objects:
            return None
    if source.object_name is None:
        return ObjectRef("<notification>", None, event.producer, event.name)
    value = event.objects.get(source.object_name)
    if value is None:
        return None
    return value


# ---------------------------------------------------------------------------
# Trackers
# ---------------------------------------------------------------------------


class InputObjectTracker:
    """Tracks one ``inputobject ... from { alternatives }`` binding."""

    def __init__(self, binding: InputObjectBinding) -> None:
        self.binding = binding
        self.best_index: Optional[int] = None
        self.value: Optional[ObjectRef] = None

    def offer(self, event: WorkflowEvent) -> bool:
        """Offer an event; returns True if the tracker improved.

        The *earliest-listed* available alternative wins (§4.3: order is
        significant).  A fresh event matching the currently-best alternative
        replaces the value — the producer fired again (e.g. a repeat round),
        and the newest occurrence is the live one.
        """
        changed = False
        for index, source in enumerate(self.binding.sources):
            if self.best_index is not None and index > self.best_index:
                break
            value = source_matches(source, event)
            if value is not None:
                changed = self.best_index != index or value != self.value
                self.best_index = index
                self.value = value
                break
        return changed

    @property
    def satisfied(self) -> bool:
        return self.best_index is not None


class NotificationTracker:
    """Tracks one ``notification from { alternatives }`` binding."""

    def __init__(self, binding: NotificationBinding) -> None:
        self.binding = binding
        self.matched_index: Optional[int] = None
        self.matched_by: Optional[str] = None

    def offer(self, event: WorkflowEvent) -> bool:
        if self.matched_index is not None:
            return False
        for index, source in enumerate(self.binding.sources):
            if source_matches(source, event) is not None:
                self.matched_index = index
                self.matched_by = event.producer
                return True
        return False

    @property
    def satisfied(self) -> bool:
        return self.matched_index is not None


class InputSetTracker:
    """Tracks one input set of a task instance."""

    def __init__(self, binding: InputSetBinding) -> None:
        self.binding = binding
        self.objects = [InputObjectTracker(b) for b in binding.objects]
        self.notifications = [NotificationTracker(b) for b in binding.notifications]

    def offer(self, event: WorkflowEvent) -> bool:
        changed = False
        for tracker in self.objects:
            changed |= tracker.offer(event)
        for tracker in self.notifications:
            changed |= tracker.offer(event)
        return changed

    @property
    def satisfied(self) -> bool:
        return all(t.satisfied for t in self.objects) and all(
            t.satisfied for t in self.notifications
        )

    def values(self) -> Dict[str, ObjectRef]:
        if not self.satisfied:
            raise ValueError(f"input set {self.binding.name!r} is not satisfied")
        return {t.binding.name: t.value for t in self.objects}


class TaskInputTracker:
    """All input sets of one task instance; knows when the task can start."""

    def __init__(self, input_sets: Iterable[InputSetBinding]) -> None:
        self.sets = [InputSetTracker(binding) for binding in input_sets]

    def offer(self, event: WorkflowEvent) -> bool:
        changed = False
        for tracker in self.sets:
            changed |= tracker.offer(event)
        return changed

    def offer_all(self, events: Iterable[WorkflowEvent]) -> bool:
        changed = False
        for event in events:
            changed |= self.offer(event)
        return changed

    def ready(self) -> Optional[Tuple[str, Dict[str, ObjectRef]]]:
        """First declared satisfied input set (name, chosen values), if any —
        the deterministic choice rule of §3."""
        for tracker in self.sets:
            if tracker.satisfied:
                return tracker.binding.name, tracker.values()
        return None


# ---------------------------------------------------------------------------
# Scopes
# ---------------------------------------------------------------------------


class Scope:
    """The event space inside one compound task instance.

    Retains its event log so trackers created late (dynamically added tasks,
    repeat-reset tasks, crash-recovered tasks) can be replayed to the current
    state — the engine-side half of dynamic reconfiguration.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.events: List[WorkflowEvent] = []
        self._seq = itertools.count(1)
        # the engine's compound node whose inner scope this is, stamped by
        # the node itself; None for a root scope
        self.owner_node: Optional[Any] = None

    def publish(
        self,
        producer: str,
        kind: EventKind,
        name: str,
        objects: Optional[Mapping[str, ObjectRef]] = None,
    ) -> WorkflowEvent:
        event = tuple.__new__(
            WorkflowEvent, (producer, kind, name, dict(objects or {}), next(self._seq))
        )
        self.events.append(event)
        return event

    def replay_into(self, tracker: TaskInputTracker) -> bool:
        return tracker.offer_all(self.events)
