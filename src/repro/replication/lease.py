"""Leases and failure detection for execution-service replication.

The :class:`LeaseService` is the small, durable arbiter of leadership: at any
instant at most one replica holds the lease, and every grant — including a
re-grant to the same holder after an expiry — advances the **fencing epoch**.
The epoch is the replication protocol's whole safety story in one integer
(docs/PROTOCOLS.md §12):

* the primary stamps it on every journal entry and worker dispatch;
* standbys and workers refuse traffic from older epochs;
* so a deposed primary — crashed and resurrected, partitioned and healed,
  or simply paused — can act only on its own local state, which the next
  full resync discards wholesale.

Failure detection is implicit and lease-based, in the spirit of
PacificA/Chubby: a primary that cannot renew before ``expires_at`` stops
acknowledging work (it self-demotes), and a standby acquires the moment the
lease has visibly expired.  Both sides read the same simulated clock
(``net/clock.py``), so "expired for the arbiter" and "expired for the
holder" cannot disagree.  The :class:`FailureDetector` augments that with
the resilience layer's breaker machinery for *reporting*: consecutive missed
renewals trip a per-holder circuit breaker, which `lease_info` surfaces so
operators (and tests) can see suspicion building before the lease lapses.

The service also tracks the **in-sync replica set (ISR)**: the primary
enlists a standby once it has acked the full durable prefix and demotes it
from the set when a push fails.  A lease is only ever granted to an ISR
member (after bootstrap), which is what makes failover lossless: every
acknowledged barrier was acked by every ISR member, and only ISR members can
be promoted.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..net.node import Service
from ..orb.broker import Interface
from ..resilience import BreakerConfig, BreakerState, CircuitBreaker
from ..sim.crashpoints import crash_point
from ..txn.store import ObjectStore

LEASE_INTERFACE = Interface(
    "ReplicationLease",
    ("acquire", "renew", "release", "demote", "enlist", "lease_info"),
)

_FRESH = {"holder": None, "epoch": 0, "expires_at": 0.0}


class FailureDetector:
    """Suspicion accounting over lease renewals.

    Reuses the resilience layer's :class:`CircuitBreaker`: each missed
    renewal window is recorded as a failure, each renewal as a success.  An
    open breaker means the holder is *suspected* — purely informational
    here (safety comes from the lease expiry itself), but it gives
    ``lease_info`` an operator-readable liveness signal and gives tests a
    hook to assert the detector converges.
    """

    def __init__(self) -> None:
        self._breakers: Dict[str, CircuitBreaker] = {}

    def _breaker(self, holder: str) -> CircuitBreaker:
        breaker = self._breakers.get(holder)
        if breaker is None:
            breaker = CircuitBreaker(BreakerConfig(), name=f"lease:{holder}")
            self._breakers[holder] = breaker
        return breaker

    def renewal(self, holder: str, now: float) -> None:
        self._breaker(holder).record_success(now)

    def missed(self, holder: str, now: float) -> None:
        self._breaker(holder).record_failure(now)

    def suspected(self, holder: str, now: float) -> bool:
        breaker = self._breakers.get(holder)
        return breaker is not None and breaker.state(now) is not BreakerState.CLOSED

    def snapshot(self, now: float) -> Dict[str, str]:
        return {name: b.state(now).value for name, b in self._breakers.items()}


class LeaseService(Service):
    """Durable lease arbiter, one per replicated execution group."""

    def __init__(
        self,
        name: str,
        store: ObjectStore,
        duration: float = 60.0,
    ) -> None:
        super().__init__(name)
        self.store = store
        self.duration = duration
        self.detector = FailureDetector()
        self.stats = {"grants": 0, "renewals": 0, "refusals": 0, "demotions": 0}

    # -- helpers ---------------------------------------------------------------

    def _now(self) -> float:
        return self.node.clock.now if self.node is not None else 0.0

    def _lease(self) -> Dict[str, Any]:
        return dict(self.store.get_committed("lease", _FRESH))

    def _isr(self) -> List[str]:
        return list(self.store.get_committed("isr", []))

    def _persist(self, lease: Dict[str, Any], isr: List[str]) -> None:
        # this service is the store's only writer: one self-committing record
        self.store.commit_batch({"lease": lease, "isr": isr})
        self.store.sync()

    def _refuse(self, lease: Dict[str, Any], reason: str) -> Dict[str, Any]:
        self.stats["refusals"] += 1
        return {
            "granted": False,
            "reason": reason,
            "holder": lease["holder"],
            "epoch": lease["epoch"],
            "expires_at": lease["expires_at"],
            "isr": self._isr(),
        }

    # -- ORB operations --------------------------------------------------------

    def acquire(self, candidate: str) -> Dict[str, Any]:
        """Try to take the lease.  Granted iff the lease is free or expired
        AND the candidate is eligible (in the ISR, or it is the bootstrap
        grant).  Every grant advances the epoch — even a re-grant to the
        previous holder — so promotion is always visible as an epoch change.
        """
        now = self._now()
        lease = self._lease()
        isr = self._isr()
        if (
            lease["holder"] is not None
            and lease["holder"] != candidate
            and now < lease["expires_at"]
        ):
            return self._refuse(lease, "lease held and unexpired")
        if lease["epoch"] > 0 and isr and candidate not in isr:
            # a lagging replica must not be promoted: its durable prefix may
            # be missing acknowledged barriers
            return self._refuse(lease, "candidate not in the in-sync set")
        if lease["holder"] is not None and lease["holder"] != candidate:
            self.detector.missed(lease["holder"], now)  # expired: suspect it
        # The grant point.  A crash here loses nothing: the grant was never
        # persisted nor returned, and the candidate simply retries.
        crash_point("repl.lease.grant", self)
        granted = {
            "holder": candidate,
            "epoch": lease["epoch"] + 1,
            "expires_at": now + self.duration,
        }
        if candidate not in isr:
            isr = isr + [candidate]
        self._persist(granted, isr)
        self.detector.renewal(candidate, now)
        self.stats["grants"] += 1
        return {"granted": True, "isr": isr, **granted}

    def renew(self, holder: str, epoch: int) -> Dict[str, Any]:
        """Extend the lease.  Refused unless (holder, epoch) match the
        current grant and it has not expired — a holder that slept through
        its own expiry must re-acquire (and receive a fresh epoch)."""
        now = self._now()
        lease = self._lease()
        if lease["holder"] != holder or lease["epoch"] != epoch:
            return self._refuse(lease, "not the current holder")
        if now >= lease["expires_at"]:
            self.detector.missed(holder, now)
            return self._refuse(lease, "lease expired; re-acquire")
        lease["expires_at"] = now + self.duration
        self._persist(lease, self._isr())
        self.detector.renewal(holder, now)
        self.stats["renewals"] += 1
        return {"granted": True, "isr": self._isr(), **lease}

    def release(self, holder: str, epoch: int) -> bool:
        """Voluntary release (planned handover): expire the lease now."""
        lease = self._lease()
        if lease["holder"] != holder or lease["epoch"] != epoch:
            return False
        lease["expires_at"] = self._now()
        self._persist(lease, self._isr())
        return True

    def demote(self, peer: str, epoch: int) -> bool:
        """Primary (holding ``epoch``) reports that ``peer`` failed to ack a
        replication push: remove it from the ISR.  The primary must not ack
        client work until the unreachable standby is demoted — otherwise an
        acknowledged barrier could exist only on nodes that then both fail.
        """
        lease = self._lease()
        if lease["epoch"] != epoch:
            return False  # stale primary: its view of the ISR is obsolete
        isr = [name for name in self._isr() if name != peer]
        self._persist(lease, isr)
        self.detector.missed(peer, self._now())
        self.stats["demotions"] += 1
        return True

    def enlist(self, peer: str, epoch: int) -> bool:
        """Primary reports that ``peer`` has caught up to the full durable
        prefix: add it (back) to the ISR."""
        lease = self._lease()
        if lease["epoch"] != epoch:
            return False
        isr = self._isr()
        if peer not in isr:
            self._persist(lease, isr + [peer])
        self.detector.renewal(peer, self._now())
        return True

    def lease_info(self) -> Dict[str, Any]:
        lease = self._lease()
        return {
            **lease,
            "now": self._now(),
            "isr": self._isr(),
            "suspected": self.detector.snapshot(self._now()),
            "stats": dict(self.stats),
        }
