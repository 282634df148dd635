"""The resilience layer's knob bundle.

One :class:`ResilienceConfig` travels from :class:`~repro.services.system.
WorkflowSystem` into the execution service and parameterises all four
mechanisms.  :meth:`ResilienceConfig.for_timeouts` is the adaptive default,
derived from the service's ``dispatch_timeout`` / ``sweep_interval`` so call
sites keep their familiar time scale (first attempt awaited
``~dispatch_timeout``, hedges after two sweep intervals).

A fixed-interval dispatcher — the baseline an ablation compares against — is
a set of ordinary values, not a mode: ``RetryPolicy(multiplier=1.0,
jitter=0.0, max_redispatches=None, recovery_stagger=0.0)`` with
``hedge_delay=None`` awaits every attempt the same ``base_delay``, never
hedges, never abandons and resends a recovered herd at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .breaker import BreakerConfig
from .policy import RetryPolicy


@dataclass(frozen=True)
class ResilienceConfig:
    """Everything the adaptive dispatch layer can be told."""

    policy: RetryPolicy = field(default_factory=RetryPolicy)
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    # virtual-time wait before a duplicate (hedged) dispatch; None = off.
    # Hedging is safe because the journal applies exactly one reply per
    # (task path, execution index) — the loser is counted, not applied.
    hedge_delay: Optional[float] = None

    @classmethod
    def for_timeouts(
        cls,
        dispatch_timeout: float,
        sweep_interval: float,
        seed: int = 0,
        hedging: bool = True,
        max_redispatches: Optional[int] = 40,
    ) -> "ResilienceConfig":
        """Adaptive defaults on the service's existing time scale."""
        policy = RetryPolicy(
            base_delay=dispatch_timeout,
            multiplier=2.0,
            max_delay=4.0 * dispatch_timeout,
            jitter=0.15,
            max_redispatches=max_redispatches,
            recovery_stagger=sweep_interval,
            seed=seed,
        )
        breaker = BreakerConfig(
            failure_threshold=3,
            cooldown=2.0 * dispatch_timeout,
            half_open_probes=1,
        )
        hedge = 2.0 * sweep_interval if hedging else None
        return cls(policy=policy, breaker=breaker, hedge_delay=hedge)
