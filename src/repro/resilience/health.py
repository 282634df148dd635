"""Worker health registry and health-aware routing.

Replaces the execution service's blind rotation (``(crc32(key) +
redispatches) % len(workers)``) with an informed choice: every dispatch,
reply and timeout updates a per-worker :class:`WorkerHealth` record — EWMA
reply latency, current in-flight count and a
:class:`~repro.resilience.breaker.CircuitBreaker`, whose count of
consecutive failures is the worker's failure streak — and
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
    replies: int = 0
    timeouts: int = 0

    def as_dict(self, now: float) -> Dict[str, object]:
        return {
            "worker": self.name,
            "state": self.breaker.state(now).value,
            "ewma_latency": self.ewma_latency,
            "in_flight": self.in_flight,
            "streak": self.breaker.failures,
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
        log: ResilienceLog,
    ) -> None:
        self.config = config
        self.log = log
        self.workers: Dict[str, WorkerHealth] = {}
        self._names = list(worker_names)
        self.reset()

    def reset(self) -> None:
        """Forget everything (a recovered coordinator relearns the fleet).
        The caller's cumulative trip count, kept from what :meth:`on_timeout`
        returns, is not touched."""
        self.workers = {
            name: WorkerHealth(name, CircuitBreaker(self.config.breaker))
            for name in self._names
        }

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
        if health.ewma_latency is None:
            health.ewma_latency = latency
        else:
            health.ewma_latency += self._EWMA_ALPHA * (latency - health.ewma_latency)
        if health.breaker.record_success(now) is BreakerState.CLOSED:
            self.log.record(now, "breaker-close", worker=name, detail="reply observed")

    def on_timeout(self, name: str, now: float) -> bool:
        """A flight (or hedge) to this worker went unanswered past its
        deadline.  True when this timeout tripped the worker's breaker."""
        health = self.workers.get(name)
        if health is None:
            return False
        health.in_flight = max(0, health.in_flight - 1)
        health.timeouts += 1
        breaker = health.breaker
        if breaker.record_failure(now) is not BreakerState.OPEN:
            return False
        self.log.record(
            now, "breaker-open", worker=name, detail=f"{breaker.failures} consecutive timeouts"
        )
        return True

    # -- routing --------------------------------------------------------------------

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
        excluded = set(exclude) if exclude else ()
        workers = self.workers
        best = best_admitted = None  # (score, name): lowest wins, first on a tie
        for name in self._names:
            if name in excluded:
                continue
            health = workers[name]
            # the score: lower is healthier (tests/test_route_model.py::reference_score)
            latency = health.ewma_latency
            if latency is None:
                latency = self._LATENCY_PRIOR
            key = (
                latency
                + self._INFLIGHT_WEIGHT * health.in_flight
                + self._STREAK_WEIGHT * health.breaker.failures,
                name,
            )
            if best is None or key < best:
                best = key
            # a closed breaker admits with no side effect; any other is asked,
            # every candidate's, because a half-open admission takes a probe
            breaker = health.breaker
            if breaker.opened_at is None or breaker.allow(now):
                if best_admitted is None or key < best_admitted:
                    best_admitted = key
        if best is None:
            return None
        return (best_admitted or best)[1]

    # -- reporting ---------------------------------------------------------------------

    def snapshot(self, now: float) -> List[Dict[str, object]]:
        return [self.workers[name].as_dict(now) for name in self._names]
