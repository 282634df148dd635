"""Bounded admission, delay-gradient control, priority shedding (§13).

The execution service consults one :class:`AdmissionController` at every
externally reachable entry point.  The controller owns three pieces of
state and nothing else:

* an **admitted-concurrency window** — how many workflow instances may be
  running at once.  Arrivals beyond the window wait in a
  **bounded admission queue** (FIFO per criticality class is not needed —
  one FIFO, because shedding, not reordering, is the degrade mechanism);
  arrivals beyond the queue are refused with a typed ``Overloaded`` carrying
  a deterministic retry-after hint.
* a CoDel-style **delay-gradient controller**: each control interval
  (``CONTROL_INTERVAL``, 10 s) it looks at the *minimum* queue sojourn
  observed (the luckiest arrival).  A minimum below the target
  (``SOJOURN_TARGET``, 30 s) means the queue drains — the window grows
  additively.  A minimum above the target means a standing queue — the
  window shrinks multiplicatively and the **pressure level** rises with the
  excess:

  ========  ==========================================  ======================
  pressure  trigger (min sojourn vs target)             degrade action
  ========  ==========================================  ======================
  0         below target                                none
  1         above target                                suppress hedge duplicates
  2         above 2 × target (``SHED_LOW_AT``)          also shed new "low" arrivals
  3         above 4 × target (``SHED_ALL_AT``)          shed new arrivals of any class
  ========  ==========================================  ======================

* **counters**, read through :meth:`AdmissionController.report` (the
  service's ``resilience_report()["overload"]``).

The controller never touches the journal, the network, or the clock — it is
pure decision logic fed ``now`` by the caller, so every choice it makes is a
deterministic function of the arrival history.  The *service* carries out
the decisions: a "shed" verdict becomes a journaled decisive ``overloaded``
outcome (never a silent drop), a "reject" becomes an ``Overloaded`` raise
before anything is persisted, and promotions dispatch the queued instance's
already-persisted runtime.

What is *never* shed, regardless of pressure: instances that have already
started (their flights and journal entries are live state — killing them
forfeits work already paid for, the classic metastable mistake), and
anything already journaled.  Shedding applies to work the
service has not yet invested in.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Set, Tuple

from ..resilience.events import ResilienceLog
from .config import OverloadConfig

# Verdicts returned by AdmissionController.decide().
START = "start"
QUEUE = "queue"
SHED = "shed"
REJECT = "reject"

SOJOURN_TARGET = 30.0    # seconds: the CoDel target for the minimum sojourn
CONTROL_INTERVAL = 10.0  # seconds: the controller's tick period
WINDOW_DECREASE = 0.8    # multiplicative shrink under standing delay
SHED_LOW_AT = 2.0        # sojourn multiple of the target: shed new low-criticality
SHED_ALL_AT = 4.0        # sojourn multiple of the target: shed new any-class
RETRY_AFTER_BASE = 10.0  # seconds: the scale of a refusal's retry hint


class AdmissionController:
    """Admission decisions for one execution service.

    ``rlog`` is the service's :class:`~repro.resilience.ResilienceLog`; every
    queue/promote/shed/reject/window decision is recorded there so the trace
    shows *why* an instance waited or died next to why its tasks went where
    they went.
    """

    def __init__(self, config: OverloadConfig, rlog: ResilienceLog) -> None:
        self.config = config
        self.rlog = rlog
        self.window: int = config.initial_window
        self.pressure: int = 0
        # iid -> (criticality, enqueue time); dict preserves FIFO order.
        self.queue: Dict[str, Tuple[str, float]] = {}
        self.in_flight: Set[str] = set()
        self.counts: "Counter[str]" = Counter()
        self.last_min_sojourn: float = 0.0
        self.next_control_at: float = CONTROL_INTERVAL
        self._observations: List[float] = []

    # -- admission ---------------------------------------------------------------

    def decide(self, criticality: str, now: float) -> str:
        """Verdict for a new arrival: start | queue | shed | reject."""
        if not self.queue and len(self.in_flight) < self.window:
            return START
        if self.pressure >= 3:
            return SHED
        if self.pressure >= 2 and criticality == "low":
            return SHED
        if len(self.queue) >= self.config.queue_capacity:
            return REJECT
        return QUEUE

    def enqueue(self, iid: str, criticality: str, now: float) -> None:
        self.queue[iid] = (criticality, now)
        self.counts["queued"] += 1
        self.rlog.record(
            now, "queue", instance=iid,
            detail=f"{criticality}, depth={len(self.queue)}/{self.config.queue_capacity}",
        )

    def on_start(self, iid: str, now: float) -> None:
        """An instance was admitted straight into the window."""
        self.in_flight.add(iid)
        self.counts["admitted"] += 1

    def on_shed(self, iid: str, criticality: str, now: float, reason: str) -> None:
        self.counts[f"shed_{criticality}"] += 1
        self.rlog.record(now, "shed", instance=iid, detail=f"{criticality}: {reason}")

    def on_reject(self, now: float, retry_after: float) -> None:
        self.counts["rejected"] += 1
        self.rlog.record(
            now, "reject",
            detail=f"queue full ({len(self.queue)}), retry_after={retry_after:.1f}",
        )

    def release(self, iid: str, now: float) -> None:
        """An admitted instance reached a terminal status; free its slot."""
        self.in_flight.discard(iid)

    def forget(self, iid: str) -> None:
        """Drop an instance from the queue without shedding it (reconfig paths)."""
        self.queue.pop(iid, None)

    # -- promotion ---------------------------------------------------------------

    def promote_ready(self, now: float) -> List[Tuple[str, str, float]]:
        """Pop queue heads into freed window slots.

        Returns ``(iid, criticality, sojourn)`` triples for the service to
        dispatch.  Each promotion's sojourn is an observation for the
        controller — the queue's delay signal *is* the promotions.
        Promotions continue at any pressure level: draining the backlog is
        how pressure comes back down.
        """
        promoted: List[Tuple[str, str, float]] = []
        while self.queue and len(self.in_flight) < self.window:
            iid, (criticality, entered) = next(iter(self.queue.items()))
            del self.queue[iid]
            sojourn = max(now - entered, 0.0)
            self._observations.append(sojourn)
            self.in_flight.add(iid)
            self.counts["admitted"] += 1
            self.counts["promoted"] += 1
            promoted.append((iid, criticality, sojourn))
            self.rlog.record(
                now, "promote", instance=iid,
                detail=f"{criticality}, waited {sojourn:.1f}",
            )
        return promoted

    # -- the delay-gradient controller -------------------------------------------

    def control(self, now: float) -> None:
        """One controller tick (the service calls this from its sweeper)."""
        if now < self.next_control_at:
            return
        self.next_control_at = now + CONTROL_INTERVAL
        cfg = self.config
        # Head age counts as an observation: a queue that never promotes
        # anything would otherwise produce no delay signal at all.
        if self.queue:
            _, entered = next(iter(self.queue.values()))
            self._observations.append(max(now - entered, 0.0))
        if not self._observations:
            # Idle interval: relax toward no pressure, regrow the window.
            self._set_pressure(0, now, 0.0)
            self._resize(min(self.window + 1, cfg.max_window), now, "idle")
            self.last_min_sojourn = 0.0
            return
        min_sojourn = min(self._observations)
        self._observations = []
        self.last_min_sojourn = min_sojourn
        if min_sojourn <= SOJOURN_TARGET:
            self._set_pressure(0, now, min_sojourn)
            self._resize(min(self.window + 1, cfg.max_window), now, "below target")
            return
        if min_sojourn > SHED_ALL_AT * SOJOURN_TARGET:
            level = 3
        elif min_sojourn > SHED_LOW_AT * SOJOURN_TARGET:
            level = 2
        else:
            level = 1
        self._set_pressure(level, now, min_sojourn)
        shrunk = max(cfg.min_window, int(self.window * WINDOW_DECREASE))
        self._resize(shrunk, now, f"min sojourn {min_sojourn:.1f} > target")

    def _set_pressure(self, level: int, now: float, min_sojourn: float) -> None:
        if level == self.pressure:
            return
        previous, self.pressure = self.pressure, level
        self.rlog.record(
            now, "window",
            detail=f"pressure {previous}->{level} (min sojourn {min_sojourn:.1f})",
        )

    def _resize(self, new_window: int, now: float, why: str) -> None:
        if new_window == self.window:
            return
        previous, self.window = self.window, new_window
        self.counts["window_changes"] += 1
        self.rlog.record(now, "window", detail=f"{previous}->{new_window}: {why}")

    # -- degrade decisions beyond admission ---------------------------------------

    def allow_hedge(self) -> bool:
        """Hedged duplicates are the first thing to go under pressure."""
        return self.pressure == 0

    def evict_low(self, now: float) -> List[Tuple[str, str]]:
        """Queued low-criticality instances to shed once pressure reaches 2.

        They would have been shed on arrival at this pressure; keeping them
        queued only lengthens everyone else's sojourn.  Returns ``(iid,
        criticality)`` pairs — the *service* journals their decisive
        outcomes; nothing disappears here.
        """
        if self.pressure < 2:
            return []
        victims = [
            (iid, crit) for iid, (crit, _entered) in self.queue.items() if crit == "low"
        ]
        for iid, _crit in victims:
            del self.queue[iid]
        return victims

    # -- hints and recovery --------------------------------------------------------

    def retry_after(self, now: float) -> float:
        """Deterministic backpressure hint for a refused client: scales with
        queue depth and pressure, so the hint *is* the congestion signal."""
        cfg = self.config
        fill = len(self.queue) / cfg.queue_capacity if cfg.queue_capacity else 1.0
        return RETRY_AFTER_BASE * (1.0 + fill + self.pressure)

    def rebuild(self, iids: List[str], now: float) -> None:
        """Post-recovery reset: every rebuilt non-terminal instance is
        considered admitted (its journal is durable state the service must
        finish), the volatile queue is gone, and the controller restarts
        from its configured window with no pressure — the crash destroyed
        the backlog the pressure was measuring."""
        self.queue.clear()
        self.in_flight = set(iids)
        self.window = max(self.config.initial_window, len(iids))
        self.pressure = 0
        self._observations = []
        self.last_min_sojourn = 0.0
        self.next_control_at = now + CONTROL_INTERVAL

    # -- reporting -----------------------------------------------------------------

    def report(self) -> Dict[str, Any]:
        counts = self.counts
        return {
            "window": self.window,
            "pressure": self.pressure,
            "queue_depth": len(self.queue),
            "in_flight": len(self.in_flight),
            "last_min_sojourn": self.last_min_sojourn,
            "admitted": counts["admitted"],
            "queued": counts["queued"],
            "promoted": counts["promoted"],
            "rejected": counts["rejected"],
            "shed_low": counts["shed_low"],
            "shed_normal": counts["shed_normal"],
            "shed_high": counts["shed_high"],
            "window_changes": counts["window_changes"],
        }
