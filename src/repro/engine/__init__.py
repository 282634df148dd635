"""Workflow execution engines (DESIGN.md subsystem S7).

``LocalEngine`` runs instances deterministically in-process; the
distributed engine lives behind :mod:`repro.services`, runs independent
tasks concurrently on worker nodes and adds persistence, transactions and
crash recovery on the same semantics (:mod:`repro.engine.instance`).
"""

from .context import (
    PendingExternal,
    TaskContext,
    TaskResult,
    abort,
    coerce_objects,
    outcome,
    pending,
    repeat,
)
from .trace import render_summary, render_trace
from .events import EventLog, LogEntry, WorkflowResult, WorkflowStatus
from .instance import CompoundNode, InstanceTree, TaskNode
from .local import LocalEngine, LocalWorkflow
from .plan import ExecutionPlan, PlanTracker, TaskTable, compile_plan
from .registry import ImplementationRegistry, ScriptBinding, TaskCallable

__all__ = [
    "CompoundNode",
    "EventLog",
    "ExecutionPlan",
    "ImplementationRegistry",
    "InstanceTree",
    "LocalEngine",
    "LocalWorkflow",
    "LogEntry",
    "PendingExternal",
    "PlanTracker",
    "ScriptBinding",
    "TaskCallable",
    "TaskContext",
    "TaskNode",
    "TaskResult",
    "TaskTable",
    "WorkflowResult",
    "WorkflowStatus",
    "abort",
    "coerce_objects",
    "compile_plan",
    "outcome",
    "pending",
    "render_summary",
    "render_trace",
    "repeat",
]
