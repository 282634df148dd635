"""The client's retry schedule: exponential backoff, deterministic jitter.

A client refused with ``Overloaded`` (docs/PROTOCOLS.md §13) retries on
:class:`RetryPolicy`'s schedule: attempt *n* waits ``BASE_DELAY *
multiplier**n`` (clamped to ``MAX_DELAY``), spread by a jitter fraction so a
cohort of refused clients does not return as one wave.  The jitter is **not**
random at run time — it is derived by hashing ``(seed, key, attempt)``, so a
replayed simulation (and a hypothesis test) sees the exact same schedule.

The dispatcher does not use this schedule: a flight is resent
``dispatch_timeout`` after each send (:mod:`repro.resilience.config`).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass


BASE_DELAY = 30.0   # seconds: the wait after the first refusal, unjittered
MAX_DELAY = 120.0   # seconds: the cap of an unjittered wait


def _unit(seed: int, material: str) -> float:
    """Deterministic pseudo-uniform draw in ``[0, 1)`` from hashed material."""
    return zlib.crc32(f"{seed}:{material}".encode()) / 2**32


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule for a client's retries.

    ``attempt`` throughout is the number of retries already made: attempt 0
    follows the first refusal.
    """

    multiplier: float = 2.0
    jitter: float = 0.15            # ± fraction applied to each delay
    seed: int = 0

    def __post_init__(self) -> None:
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    # -- the schedule ------------------------------------------------------------

    def raw_delay(self, attempt: int) -> float:
        """Un-jittered backoff for ``attempt`` (clamped to ``MAX_DELAY``)."""
        return min(BASE_DELAY * self.multiplier ** max(attempt, 0), MAX_DELAY)

    def delay(self, key: str, attempt: int) -> float:
        """Jittered wait before retry ``attempt`` of client ``key``.

        Deterministic: the same ``(seed, key, attempt)`` always yields the
        same delay, inside ``[raw * (1-jitter), raw * (1+jitter)]``.
        """
        raw = self.raw_delay(attempt)
        if self.jitter == 0.0:
            return raw
        spread = _unit(self.seed, f"{key}:{attempt}")  # [0, 1)
        return raw * (1.0 - self.jitter + 2.0 * self.jitter * spread)

    # -- cooperative overload backoff ---------------------------------------------

    def overload_backoff(self, key: str, attempt: int, retry_after: float = 0.0) -> float:
        """Client-side delay before retrying an ``Overloaded`` refusal.

        Never earlier than the service's deterministic ``retry_after`` hint,
        never in lock-step with other refused clients: the hint is stretched
        by this policy's jittered exponential schedule.
        """
        return max(retry_after, self.delay(f"overload:{key}", attempt))
