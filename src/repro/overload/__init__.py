"""Overload robustness: bounded admission, adaptive control, priority
shedding (docs/PROTOCOLS.md §13).

The paper's composition language assumes the execution service can always
accept one more script instantiation; this package is what makes that
assumption safe to rely on.  Arrivals beyond the admitted-concurrency
window wait in a bounded queue, arrivals beyond the queue are refused with
a typed ``Overloaded`` the client backs off from cooperatively, and when a
CoDel-style delay-gradient controller detects a standing queue the service
degrades in a fixed order — hedged duplicates first, then new
low-criticality admissions, then new admissions of any class — with every
shed instance receiving a journaled decisive ``overloaded`` outcome.
Nothing is ever silently dropped, and nothing already started is ever shed.
"""

from ..core.schema import CRITICALITY_CLASSES
from .admission import QUEUE, REJECT, SHED, START, AdmissionController
from .config import DEFAULT_CRITICALITY, OverloadConfig, criticality_of

__all__ = [
    "AdmissionController",
    "CRITICALITY_CLASSES",
    "DEFAULT_CRITICALITY",
    "OverloadConfig",
    "QUEUE",
    "REJECT",
    "SHED",
    "START",
    "criticality_of",
]
