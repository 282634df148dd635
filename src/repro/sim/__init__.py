"""Deterministic simulation-testing harness (FoundationDB/Jepsen style).

Layers over the existing clock/network/txn stack:

* :mod:`repro.sim.crashpoints` — named protocol steps (``wal.force.pre``,
  the service's generated ``exec.*`` boundaries, …) where a schedule can
  kill a node mid-step, including torn-write injection at WAL force sites;
* :mod:`repro.sim.nemesis` — declarative, composable, JSON-serialisable
  fault schedules (crash-at-point, timed and random crashes, partition/heal,
  loss/dup/reorder bursts, primary faults) and the one interpreter that arms
  them, on any system — the only way faults are injected;
* :mod:`repro.sim.oracles` — invariant oracles checked continuously and at
  quiescence (exactly-once application, durability, journal/store
  agreement, liveness);
* :mod:`repro.sim.harness` — runs a workload under a schedule and reports
  violations;
* :mod:`repro.sim.explorer` — exhaustive one-crash-per-point sweeps, seeded
  random nemesis runs, greedy shrinking, and replayable JSON repro files
  (the ``repro chaos-sweep`` CLI).

Import note: production modules (``repro.txn``, ``repro.services``) import
:func:`crash_point` from :mod:`repro.sim.crashpoints`, so this ``__init__``
must not import the harness layers eagerly — that would close an import
cycle back through the services.  The heavier modules are loaded lazily via
``__getattr__``.
"""

from .crashpoints import (
    CATALOGUE,
    ArmedCrash,
    CrashPoint,
    CrashPointInjector,
    SimulatedCrash,
    catalogue,
    crash_point,
    point_named,
)

__all__ = [
    "ArmedCrash",
    "CATALOGUE",
    "CrashPoint",
    "CrashPointInjector",
    "SimulatedCrash",
    "catalogue",
    "crash_point",
    "point_named",
    # lazily loaded:
    "ChaosSweep",
    "NemesisSchedule",
    "OracleViolation",
    "SimHarness",
    "SimReport",
]

_LAZY = {
    "NemesisSchedule": "nemesis",
    "OracleViolation": "oracles",
    "SimHarness": "harness",
    "SimReport": "harness",
    "ChaosSweep": "explorer",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    return getattr(module, name)
