"""Discrete-event simulated clock.

The paper's execution environment runs long-lived applications on real
machines; we replace wall-clock time with a deterministic discrete-event
clock so that failures (crashes, partitions, timeouts) can be injected and
replayed exactly.  All components of the simulated world (`repro.net.node`,
`repro.net.network`, the distributed engine) share one :class:`EventClock`.

Events are ordered by ``(time, priority, sequence)``; the sequence number
makes scheduling deterministic for events at the same instant.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation substrate."""


class EventHandle:
    """One scheduled event, and the handle :meth:`EventClock.call_at`
    returns for it: ``cancel()`` keeps it from running."""

    __slots__ = ("time", "action", "cancelled", "label")

    def __init__(self, time: float, action: Callable[[], Any], label: str = "") -> None:
        self.time = time
        self.action = action
        self.cancelled = False
        self.label = label

    def cancel(self) -> None:
        """Cancel the event.  Cancelling an already-run event is a no-op."""
        self.cancelled = True


class EventClock:
    """A deterministic discrete-event scheduler with virtual time.

    Usage::

        clock = EventClock()
        clock.call_at(5.0, lambda: print("five"))
        clock.call_after(1.0, lambda: print("one"))
        clock.run()          # runs everything, in time order
    """

    def __init__(self, start: float = 0.0) -> None:
        # current virtual time: read it freely, only the clock advances it
        self.now = float(start)
        # heap of (time, priority, seq, event): seq is unique, so tuples
        # compare in C and the event itself is never compared
        self._queue: List[Tuple[float, int, int, EventHandle]] = []
        self._seq = itertools.count()
        self._running = False

    def call_at(
        self,
        when: float,
        action: Callable[[], Any],
        priority: int = 0,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``action`` to run at virtual time ``when``."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule event at {when!r}, clock already at {self.now!r}"
            )
        event = EventHandle(float(when), action, label)
        heapq.heappush(self._queue, (event.time, priority, next(self._seq), event))
        return event

    def call_after(
        self,
        delay: float,
        action: Callable[[], Any],
        priority: int = 0,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``action`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        # call_at's checks hold by construction: push directly
        event = EventHandle(self.now + delay, action, label)
        heapq.heappush(self._queue, (event.time, priority, next(self._seq), event))
        return event

    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return sum(1 for *_key, event in self._queue if not event.cancelled)

    def step(self) -> bool:
        """Run the next event.  Returns False when the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)[3]
            if event.cancelled:
                continue
            self.now = event.time
            event.action()
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have run.  Returns the number of events executed."""
        if self._running:
            raise SimulationError("clock is already running (re-entrant run())")
        self._running = True
        executed = 0
        try:
            while self._queue:
                if max_events is not None and executed >= max_events:
                    break
                head = self._queue[0][3]
                if head.cancelled:
                    heapq.heappop(self._queue)
                    continue
                if until is not None and head.time > until:
                    self.now = until
                    break
                if not self.step():
                    break
                executed += 1
            else:
                if until is not None and until > self.now:
                    self.now = until
        finally:
            self._running = False
        return executed

    def advance(self, delta: float) -> int:
        """Run all events within the next ``delta`` time units."""
        if delta < 0:
            raise SimulationError(f"negative delta {delta!r}")
        return self.run(until=self.now + delta)
