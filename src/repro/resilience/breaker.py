"""Per-worker circuit breakers.

A breaker shields the dispatcher from a worker that is crashed, partitioned
away or persistently failing: after ``failure_threshold`` consecutive bad
observations (timeouts or transport failures) the breaker *opens* and the
router stops selecting that worker.  After ``cooldown`` virtual-time units
the breaker becomes *half-open*: one trial dispatch (``HALF_OPEN_PROBES``)
is admitted; the first successful reply closes the breaker, another failure
re-opens it for a fresh cooldown.

Observations arrive from the execution service at reply/timeout time — the
breaker itself never looks at the clock spontaneously; every method takes
``now`` so the whole layer stays deterministic under the simulated clock.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

HALF_OPEN_PROBES = 1  # trial dispatches admitted while HALF_OPEN


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclass(frozen=True)
class BreakerConfig:
    failure_threshold: int = 3   # consecutive timeouts/failures to trip
    cooldown: float = 60.0       # OPEN holds for this long, then HALF_OPEN

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown < 0:
            raise ValueError("cooldown must be non-negative")


class CircuitBreaker:
    """One worker's breaker.  State transitions are lazy: OPEN reports
    HALF_OPEN once the cooldown has elapsed, without needing a timer."""

    def __init__(self, config: Optional[BreakerConfig] = None) -> None:
        self.config = config or BreakerConfig()
        self.failures = 0            # consecutive bad observations
        self.trips = 0               # times the breaker opened
        self.opened_at: Optional[float] = None
        self._probes = 0             # trial dispatches admitted while half-open

    # -- state ---------------------------------------------------------------------

    def state(self, now: float) -> BreakerState:
        if self.opened_at is None:
            return BreakerState.CLOSED
        if now - self.opened_at >= self.config.cooldown:
            return BreakerState.HALF_OPEN
        return BreakerState.OPEN

    def allow(self, now: float) -> bool:
        """May a dispatch be routed to this worker right now?

        While half-open, admits at most ``HALF_OPEN_PROBES`` dispatches
        until an observation resolves the probe (the admission itself is
        counted — callers must only ask when they intend to dispatch).
        """
        state = self.state(now)
        if state is BreakerState.CLOSED:
            return True
        if state is BreakerState.OPEN:
            return False
        if self._probes < HALF_OPEN_PROBES:
            self._probes += 1
            return True
        return False

    # -- observations ----------------------------------------------------------------

    def record_success(self, now: float) -> Optional[BreakerState]:
        """A reply arrived.  Returns the new state if a transition occurred."""
        transitioned = self.opened_at is not None
        self.failures = 0
        self.opened_at = None
        self._probes = 0
        return BreakerState.CLOSED if transitioned else None

    def record_failure(self, now: float) -> Optional[BreakerState]:
        """A timeout or transport failure was observed.  Returns OPEN when
        this observation trips (or re-trips) the breaker."""
        self.failures += 1
        state = self.state(now)
        if state is BreakerState.HALF_OPEN or (
            state is BreakerState.CLOSED
            and self.failures >= self.config.failure_threshold
        ):
            self.opened_at = now
            self._probes = 0
            self.trips += 1
            return BreakerState.OPEN
        return None
