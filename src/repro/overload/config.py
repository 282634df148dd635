"""Overload-control knobs (docs/PROTOCOLS.md §13).

One frozen bundle, mirroring :class:`~repro.resilience.ResilienceConfig`:
the execution service takes an :class:`OverloadConfig` and wires it into an
:class:`~repro.overload.admission.AdmissionController`.  Defaults are
deliberately generous (window 256, queue 256) so a system that never sees
more than a few hundred concurrent instances behaves byte-for-byte as if
the layer did not exist; benchmarks and load tests pass tighter bounds.
"No admission control" — the shedding ablation of the overload benchmark —
is ``OverloadConfig(initial_window=N, max_window=N)`` with N above any
concurrency the run can reach: every arrival starts at once, nothing ever
queues, so the controller sees no delay and can neither resize the window
nor raise pressure.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.schema import Implementation
from ..settings import require, setting

# Scripts declare a criticality class as an implementation property on the
# root task ("criticality" is "low"); anything absent or unknown is this.
DEFAULT_CRITICALITY = Implementation().criticality


def criticality_of(script, root_task: str) -> str:
    """Criticality class declared by a script's root task (or the default)."""
    decl = script.tasks.get(root_task)
    if decl is None:
        return DEFAULT_CRITICALITY
    return decl.implementation.criticality


@dataclass(frozen=True)
class OverloadConfig:
    """Knobs of the bounded-admission / adaptive-control / shedding layer:
    the queue and the bounds of the window.  The controller's target and
    tick are constants (``admission.SOJOURN_TARGET``, ``CONTROL_INTERVAL``):
    as long as the *minimum* admission-queue sojourn observed over a control
    interval stays below the target, the service is running at or below the
    knee of its latency curve and the concurrency window may grow.  A minimum
    above the target means even the luckiest arrival waited too long — a
    standing queue — so the window shrinks multiplicatively and, as the
    excess grows past fixed multiples of the target (``admission.SHED_LOW_AT``
    / ``SHED_ALL_AT``), the shed policy escalates.
    """

    queue_capacity: int = setting(
        256, "bounded admission queue; full means Overloaded refusals", "count"
    )
    initial_window: int = setting(256, "admitted-concurrency window", "count")
    min_window: int = setting(8, "smallest window the controller shrinks to", "count")
    max_window: int = setting(1024, "largest window the controller grows to", "count")

    def __post_init__(self) -> None:
        require(self, "queue_capacity", self.queue_capacity >= 0, "must be at least 0")
        require(self, "initial_window",
                0 < self.min_window <= self.initial_window <= self.max_window,
                "need 0 < min_window <= initial_window <= max_window")
