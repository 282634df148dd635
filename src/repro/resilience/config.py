"""The dispatcher's values.

One :class:`ResilienceConfig` travels from :class:`~repro.services.system.
WorkflowSystem` into the execution service.  A flight is resent
``dispatch_timeout`` (a :class:`~repro.services.system.SystemSpec` field)
after each send that went unanswered: one constant interval, which the
leave-one-out ablation (``benchmarks/test_ablation_dispatch.py``) found
worse than a jittered exponential backoff nowhere, and twice as fast under
a crash storm or 30 % loss.  The config holds what the dispatcher adds to
that interval:

* ``max_redispatches`` bounds the loop: a flight redispatched that many
  times is *abandoned* — the execution service journals a system failure for
  the task, which then takes the ordinary path of the paper's §3 semantics
  (automatic retries per the task's ``retries`` property, then the first
  declared abort outcome).  What the cap removes is the unbounded
  retransmission of a request the fleet clearly cannot serve.
* ``recovery_stagger`` spaces out the post-recovery redispatch herd: after a
  coordinator crash every surviving flight must be resent, and doing so in
  one burst is the load spike that knocked the fleet over in the first
  place.  :meth:`ResilienceConfig.stagger` gives each flight a deterministic
  offset in ``[0, recovery_stagger)``, hashed from ``(seed, key)``.
* ``breaker`` (:mod:`repro.resilience.breaker`) and ``hedge_delay``.

:meth:`ResilienceConfig.for_timeouts` is the default, derived from the
service's ``dispatch_timeout`` / ``sweep_interval`` (hedges after two sweep
intervals, a whole recovery spread over one).  Each mechanism is switched
off by a value, not a mode: ``max_redispatches=None`` never abandons,
``recovery_stagger=0`` resends a recovered herd at once and
``hedge_delay=None`` never hedges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .breaker import BreakerConfig
from .policy import _unit


@dataclass(frozen=True)
class ResilienceConfig:
    """Everything the dispatcher can be told beyond its interval."""

    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    # virtual-time wait before a duplicate (hedged) dispatch; None = off.
    # Hedging is safe because the journal applies exactly one reply per
    # (task path, execution index) — the loser is counted, not applied.
    hedge_delay: Optional[float] = None
    max_redispatches: Optional[int] = 40   # None = retry forever
    recovery_stagger: float = 5.0          # window for post-recovery spreading
    seed: int = 0  # the stagger's hash seed; SystemSpec.seed only via for_timeouts

    def exhausted(self, redispatches: int) -> bool:
        """Has a flight used up its redispatch budget?"""
        return self.max_redispatches is not None and redispatches >= self.max_redispatches

    def stagger(self, key: str) -> float:
        """Deterministic offset in ``[0, recovery_stagger)`` for flight ``key``."""
        if self.recovery_stagger <= 0:
            return 0.0
        return self.recovery_stagger * _unit(self.seed, f"stagger:{key}")

    @classmethod
    def for_timeouts(
        cls,
        dispatch_timeout: float,
        sweep_interval: float,
        seed: int = 0,
        max_redispatches: Optional[int] = 40,
    ) -> "ResilienceConfig":
        """The default on the service's existing time scale (a caller that
        wants no hedging replaces ``hedge_delay`` with None)."""
        return cls(
            breaker=BreakerConfig(failure_threshold=3, cooldown=2.0 * dispatch_timeout),
            hedge_delay=2.0 * sweep_interval,
            max_redispatches=max_redispatches,
            recovery_stagger=sweep_interval,
            seed=seed,
        )
