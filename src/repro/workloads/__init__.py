"""Workload builders (DESIGN.md subsystem S9): the paper's three example
applications as ready-to-run scripts, plus parameterised synthetic DAGs for
the scalability and baseline benchmarks.

:data:`APPLICATIONS` is the one table of deployable applications — what
``repro demo`` / ``sanitize`` / ``chaos-sweep`` and the sim harness choose
from by name, and where a generated workload registers.
"""

from dataclasses import dataclass
from typing import Any, Callable, Dict

from . import paper_order, paper_service_impact, paper_trip
from .generators import Workload, chain, diamond, fan, random_dag, script_text
from .traffic import (
    Arrival,
    SLOReport,
    TrafficSpec,
    arrival_schedule,
    cohort_script,
    run_traffic,
    traffic_registry,
)


@dataclass(frozen=True)
class Application:
    """A deployable script plus its implementations and per-instance inputs."""

    script_name: str
    text: str
    root_task: str
    binder: Callable[..., Any]               # (registry=None) -> registry, bound
    inputs: Callable[[int], Dict[str, Any]]  # instance index -> initial inputs


def _paper(name: str, module: Any, input_name: str, stem: str) -> Application:
    return Application(
        name, module.SCRIPT_TEXT, module.ROOT_TASK,
        lambda registry=None: module.default_registry(registry=registry),
        lambda i: {input_name: f"{stem}-{i + 1}"},
    )


APPLICATIONS: Dict[str, Application] = {
    app.script_name: app
    for app in (
        _paper("order", paper_order, "order", "order"),
        _paper("trip", paper_trip, "user", "user"),
        _paper("service-impact", paper_service_impact, "alarmsSource", "alarm-feed"),
    )
}

__all__ = [
    "APPLICATIONS",
    "Application",
    "Arrival",
    "SLOReport",
    "TrafficSpec",
    "Workload",
    "arrival_schedule",
    "chain",
    "cohort_script",
    "diamond",
    "fan",
    "paper_order",
    "paper_service_impact",
    "paper_trip",
    "random_dag",
    "run_traffic",
    "script_text",
    "traffic_registry",
]
