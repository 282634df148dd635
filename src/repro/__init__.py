"""repro — reproduction of *A Language for Specifying the Composition of
Reliable Distributed Applications* (Ranno, Shrivastava, Wheater; ICDCS 1998).

The package provides, end to end:

* the workflow **scripting language** of the paper (§4): parser, validator,
  pretty-printer (:mod:`repro.lang`), a programmatic builder and the schema
  model with task life-cycle and dependency semantics (:mod:`repro.core`);
* two **execution engines** sharing one semantics: a deterministic local
  engine (:mod:`repro.engine`) and the paper's distributed transactional
  workflow system (:mod:`repro.services`) built on simulated substrates —
  transactions (:mod:`repro.txn`), nodes/network (:mod:`repro.net`) and an
  ORB (:mod:`repro.orb`);
* the paper's three example applications and synthetic workloads
  (:mod:`repro.workloads`), and the related-work baselines
  (:mod:`repro.baselines`).

Quickstart::

    from repro import compile_script, LocalEngine, ImplementationRegistry, outcome

    script = compile_script(SOURCE_TEXT)
    registry = ImplementationRegistry()
    registry.register("refGreet", lambda ctx: outcome("done", msg="hi"))
    result = LocalEngine(registry).run(script, inputs={...})
"""

from .core import (
    GuardKind,
    ObjectRef,
    OutputKind,
    ReconfigurationError,
    SchemaError,
    Script,
    ScriptBuilder,
    TaskState,
    ValidationReport,
    WorkflowError,
    from_input,
    from_output,
    from_task,
)
from .engine import (
    ImplementationRegistry,
    LocalEngine,
    LocalWorkflow,
    PendingExternal,
    TaskContext,
    TaskResult,
    WorkflowResult,
    WorkflowStatus,
    abort,
    outcome,
    pending,
    repeat,
)
from .lang import compile_script, format_script, parse
from .resilience import (
    BreakerConfig,
    CircuitBreaker,
    HealthRegistry,
    ResilienceConfig,
    RetryPolicy,
)
from .services import SystemSpec, WorkflowSystem

__version__ = "1.0.0"

__all__ = [
    "BreakerConfig",
    "CircuitBreaker",
    "GuardKind",
    "HealthRegistry",
    "ImplementationRegistry",
    "LocalEngine",
    "LocalWorkflow",
    "ObjectRef",
    "OutputKind",
    "ReconfigurationError",
    "ResilienceConfig",
    "RetryPolicy",
    "SchemaError",
    "Script",
    "ScriptBuilder",
    "SystemSpec",
    "TaskContext",
    "TaskResult",
    "TaskState",
    "ValidationReport",
    "WorkflowError",
    "WorkflowResult",
    "WorkflowStatus",
    "WorkflowSystem",
    "abort",
    "compile_script",
    "format_script",
    "from_input",
    "from_output",
    "from_task",
    "outcome",
    "parse",
    "pending",
    "PendingExternal",
    "repeat",
    "__version__",
]
