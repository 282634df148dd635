"""Discrete-event simulated clock.

The paper's execution environment runs long-lived applications on real
machines; we replace wall-clock time with a deterministic discrete-event
clock so that failures (crashes, partitions, timeouts) can be injected and
replayed exactly.  All components of the simulated world (`repro.net.node`,
`repro.net.network`, the distributed engine) share one :class:`EventClock`.

Events are ordered by ``(time, sequence)``: events at the same instant run
in the order they were scheduled.  An event is a plain heap entry, never a
handle: nothing cancels one (a crashed node's timers are suppressed by the
node when they fire, ``Node.call_after``).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation substrate."""


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
        # heap of (time, seq, action, label): seq is unique, so entries
        # compare in C and the action is never compared; the label names
        # the event for a reader of the queue
        self._queue: List[Tuple[float, int, Callable[[], Any], str]] = []
        self._seq = itertools.count()
        self._running = False

    def call_at(self, when: float, action: Callable[[], Any], label: str = "") -> None:
        """Schedule ``action`` to run at virtual time ``when``."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule event at {when!r}, clock already at {self.now!r}"
            )
        heapq.heappush(self._queue, (float(when), next(self._seq), action, label))

    def call_after(self, delay: float, action: Callable[[], Any], label: str = "") -> None:
        """Schedule ``action`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        # call_at's checks hold by construction: push directly
        heapq.heappush(self._queue, (self.now + delay, next(self._seq), action, label))

    def step(self) -> bool:
        """Run the next event.  Returns False when the queue is empty."""
        if not self._queue:
            return False
        time, _seq, action, _label = heapq.heappop(self._queue)
        self.now = time
        action()
        return True

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
        queue = self._queue
        try:
            while queue:
                if max_events is not None and executed >= max_events:
                    break
                if until is not None and queue[0][0] > until:
                    self.now = until
                    break
                self.step()
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
