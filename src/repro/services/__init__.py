"""The workflow management system's services (DESIGN.md subsystem S6):
repository, execution, workers, system assembly and administrative workflow
applications — the paper's Fig. 4, over the simulated substrates.
"""

from .admin import (
    MONITOR_SCRIPT,
    RECONFIGURE_SCRIPT,
    admin_registry,
    build_monitor,
    build_reconfigure,
)
from .execution import EXECUTION_INTERFACE, ExecutionService
from .repository import REPOSITORY_INTERFACE, RepositoryService
from .serialization import (
    ref_from_plain,
    ref_to_plain,
    refs_from_plain,
    refs_to_plain,
    result_from_plain,
    result_to_plain,
)
from .system import TERMINAL, SystemSpec, WorkflowSystem
from .worker import WORKER_INTERFACE, MarkRecord, TaskWorker, WorkReply, WorkRequest

__all__ = [
    "EXECUTION_INTERFACE",
    "ExecutionService",
    "MarkRecord",
    "MONITOR_SCRIPT",
    "RECONFIGURE_SCRIPT",
    "REPOSITORY_INTERFACE",
    "RepositoryService",
    "SystemSpec",
    "TERMINAL",
    "TaskWorker",
    "WORKER_INTERFACE",
    "WorkReply",
    "WorkRequest",
    "WorkflowSystem",
    "admin_registry",
    "build_monitor",
    "build_reconfigure",
    "ref_from_plain",
    "ref_to_plain",
    "refs_from_plain",
    "refs_to_plain",
    "result_from_plain",
    "result_to_plain",
]
