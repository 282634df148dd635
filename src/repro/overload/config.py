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
    """Knobs of the bounded-admission / adaptive-control / shedding layer.

    ``sojourn_target`` is the CoDel-style target: as long as the *minimum*
    admission-queue sojourn observed over a control interval stays below it,
    the service is running at or below the knee of its latency curve and the
    concurrency window may grow.  A minimum above the target means even the
    luckiest arrival waited too long — a standing queue — so the window
    shrinks multiplicatively and, as the excess grows past fixed multiples of
    the target (``admission.SHED_LOW_AT`` / ``SHED_ALL_AT``), the shed policy
    escalates.
    """

    queue_capacity: int = 256        # bounded admission queue; full -> Overloaded
    initial_window: int = 256        # admitted-concurrency window (instances)
    min_window: int = 8
    max_window: int = 1024
    sojourn_target: float = 30.0     # CoDel target for queue sojourn (virtual s)
    control_interval: float = 10.0   # delay-gradient controller tick period
    retry_after_base: float = 10.0   # scale of the deterministic retry hint

    def __post_init__(self) -> None:
        if self.queue_capacity < 0:
            raise ValueError("queue_capacity must be >= 0")
        if not 0 < self.min_window <= self.initial_window <= self.max_window:
            raise ValueError("need 0 < min_window <= initial_window <= max_window")
        if self.sojourn_target <= 0 or self.control_interval <= 0:
            raise ValueError("sojourn_target and control_interval must be positive")
