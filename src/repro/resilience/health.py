"""Worker health registry and health-aware routing.

Replaces the execution service's blind rotation (``(crc32(key) +
redispatches) % len(workers)``) with an informed choice: every dispatch,
reply and timeout updates a per-worker :class:`WorkerHealth` record — EWMA
reply latency, current in-flight count, consecutive-failure streak and a
:class:`~repro.resilience.breaker.CircuitBreaker` — and
:meth:`HealthRegistry.route` picks the admissible worker with the lowest
health score.  Scores and tie-breaks are fully deterministic, so simulated
runs stay replayable.

The registry is *volatile* by design: a recovered coordinator starts with a
blank view of the fleet (it cannot know who crashed while it was down) and
relearns it from fresh observations, exactly like a restarted load balancer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from .breaker import BreakerState, CircuitBreaker
from .config import ResilienceConfig
from .events import ResilienceLog


@dataclass
class WorkerHealth:
    """Mutable health record for one worker."""

    name: str
    breaker: CircuitBreaker
    ewma_latency: Optional[float] = None   # None until first observation
    in_flight: int = 0
    streak: int = 0                        # consecutive timeouts/failures
    replies: int = 0
    timeouts: int = 0

    def as_dict(self, now: float) -> Dict[str, object]:
        return {
            "worker": self.name,
            "state": self.breaker.state(now).value,
            "ewma_latency": self.ewma_latency,
            "in_flight": self.in_flight,
            "streak": self.streak,
            "replies": self.replies,
            "timeouts": self.timeouts,
            "trips": self.breaker.trips,
        }


class HealthRegistry:
    """Health view over the worker fleet, fed by the execution service."""

    # score weights: latency dominates, queueing and instability penalise
    _INFLIGHT_WEIGHT = 0.5
    _STREAK_WEIGHT = 2.0
    _LATENCY_PRIOR = 1.0   # assumed EWMA before any observation
    _EWMA_ALPHA = 0.3      # smoothing of per-worker reply latency

    def __init__(
        self,
        worker_names: Sequence[str],
        config: ResilienceConfig,
        log: Optional[ResilienceLog] = None,
        stats: Optional[Dict[str, int]] = None,
    ) -> None:
        self.config = config
        self.log = log
        self.stats = stats
        self.workers: Dict[str, WorkerHealth] = {}
        self._names = list(worker_names)
        self.reset()

    def reset(self) -> None:
        """Forget everything (a recovered coordinator relearns the fleet).
        Cumulative trip counts in ``stats`` are preserved by the caller."""
        self.workers = {
            name: WorkerHealth(name, CircuitBreaker(self.config.breaker, name=name))
            for name in self._names
        }

    def health(self, name: str) -> WorkerHealth:
        return self.workers[name]

    # -- observations --------------------------------------------------------------

    def on_dispatch(self, name: str, now: float) -> None:
        health = self.workers.get(name)
        if health is not None:
            health.in_flight += 1

    def on_reply(self, name: str, latency: float, now: float) -> None:
        """A reply came back ``latency`` after its send (implementation
        errors included: the worker demonstrably processed the request)."""
        health = self.workers.get(name)
        if health is None:
            return
        health.in_flight = max(0, health.in_flight - 1)
        health.replies += 1
        health.streak = 0
        if health.ewma_latency is None:
            health.ewma_latency = latency
        else:
            health.ewma_latency += self._EWMA_ALPHA * (latency - health.ewma_latency)
        if health.breaker.record_success(now) is BreakerState.CLOSED:
            self._transition(now, name, "breaker-close", "reply observed")

    def on_timeout(self, name: str, now: float) -> None:
        """A flight (or hedge) to this worker went unanswered past its
        deadline."""
        health = self.workers.get(name)
        if health is None:
            return
        health.in_flight = max(0, health.in_flight - 1)
        health.timeouts += 1
        health.streak += 1
        if health.breaker.record_failure(now) is BreakerState.OPEN:
            if self.stats is not None:
                self.stats["breaker_trips"] = self.stats.get("breaker_trips", 0) + 1
            self._transition(
                now, name, "breaker-open", f"{health.streak} consecutive timeouts"
            )

    def _transition(self, now: float, name: str, kind: str, detail: str) -> None:
        if self.log is not None:
            self.log.record(now, kind, worker=name, detail=detail)

    # -- routing --------------------------------------------------------------------

    def score(self, name: str) -> float:
        """Lower is healthier.  Deterministic."""
        health = self.workers[name]
        latency = (
            health.ewma_latency if health.ewma_latency is not None else self._LATENCY_PRIOR
        )
        return (
            latency
            + self._INFLIGHT_WEIGHT * health.in_flight
            + self._STREAK_WEIGHT * health.streak
        )

    def allows(self, name: str, now: float) -> bool:
        """Would the breaker admit a dispatch to ``name``?  (Peek only —
        does not consume a half-open probe slot.)"""
        health = self.workers.get(name)
        return health is None or health.breaker.state(now) is not BreakerState.OPEN

    def route(self, now: float, exclude: Iterable[str] = ()) -> Optional[str]:
        """The healthiest worker whose breaker admits a dispatch.

        If every candidate's breaker refuses, falls back to the least-bad
        candidate anyway — a fully-open fleet must not stall the workflow
        (progress beats caution; the paper's §3 liveness guarantee wins).
        Returns None only when ``exclude`` rules out every worker.
        """
        excluded = set(exclude)
        candidates = [n for n in self._names if n not in excluded]
        if not candidates:
            return None
        admitted = [n for n in candidates if self.workers[n].breaker.allow(now)]
        pool = admitted or candidates
        return min(pool, key=lambda n: (self.score(n), n))

    # -- reporting ---------------------------------------------------------------------

    def snapshot(self, now: float) -> List[Dict[str, object]]:
        return [self.workers[name].as_dict(now) for name in self._names]
