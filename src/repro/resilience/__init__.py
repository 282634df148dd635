"""Dispatch resilience: redispatch, circuit breakers, health routing, hedging.

The paper (§3) places fault tolerance at *two* levels: applications express
alternatives/compensation in the script, while the execution environment
guarantees that tasks eventually receive their inputs despite crashes and
network failures.  This package is the system half grown up — the naive
fixed-timeout/blind-rotation dispatch loop of the execution service replaced
by a production-grade resilience layer:

* :mod:`repro.resilience.config` — :class:`ResilienceConfig`: the
  dispatcher's values beyond its one redispatch interval (``dispatch_timeout``
  after each send): a redispatch cap that surfaces a system failure instead
  of retrying forever, deterministic post-recovery staggering (no thundering
  herd), the breaker settings and the hedge delay.
* :mod:`repro.resilience.policy` — :class:`RetryPolicy`: the client's
  exponential backoff with deterministic seeded jitter, for retrying an
  ``Overloaded`` refusal (:func:`repro.orb.call_with_backoff`).
* :mod:`repro.resilience.breaker` — :class:`CircuitBreaker`: per-worker
  closed/open/half-open breakers driven by timeouts and reply observations.
* :mod:`repro.resilience.health` — :class:`HealthRegistry`: EWMA reply
  latency, in-flight counts and failure streaks per worker; routes each
  dispatch to the healthiest admissible worker.
* :mod:`repro.resilience.events` — :class:`ResilienceLog`: every resilience
  decision (dispatch, redispatch, hedge, breaker transition, failover,
  abandonment, stagger) as a timestamped event, renderable next to the
  workflow trace.

Everything is deterministic under the simulation's seeds: stagger offsets
and the client's jitter are derived by hashing the seed with a key, never
from a live RNG.
"""

from .breaker import BreakerConfig, BreakerState, CircuitBreaker
from .config import ResilienceConfig
from .events import ResilienceEvent, ResilienceLog, render_resilience
from .health import HealthRegistry, WorkerHealth
from .policy import RetryPolicy

__all__ = [
    "BreakerConfig",
    "BreakerState",
    "CircuitBreaker",
    "HealthRegistry",
    "ResilienceConfig",
    "ResilienceEvent",
    "ResilienceLog",
    "RetryPolicy",
    "WorkerHealth",
    "render_resilience",
]
