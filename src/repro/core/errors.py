"""Exception hierarchy for the workflow language and engines."""

from __future__ import annotations

from typing import List, Optional, Tuple


class WorkflowError(Exception):
    """Base class for every error raised by this library."""


class SchemaError(WorkflowError):
    """A script/schema is structurally ill-formed (duplicate names, missing
    references, kind mismatches...)."""

    def __init__(self, message: str, location: Optional[str] = None) -> None:
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


class ValidationReport(WorkflowError):
    """Aggregate of several :class:`SchemaError` messages, raised by the
    analyzer so a user sees every problem at once."""

    def __init__(self, errors: List[SchemaError]) -> None:
        self.errors = list(errors)
        lines = "\n".join(f"  - {e}" for e in self.errors)
        super().__init__(f"{len(self.errors)} schema error(s):\n{lines}")


class ParseError(WorkflowError):
    """Syntax error in a workflow script."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}" if line else message)


class ExecutionError(WorkflowError):
    """Error during workflow instance execution."""


class BindingError(ExecutionError):
    """No implementation could be bound for a task's code name."""


class TaskTimeout(ExecutionError):
    """A task implementation exceeded its wall-clock ``timeout`` property.

    Raised by :meth:`repro.engine.TaskContext.check_timeout`; the engine
    treats it like any other implementation failure (system retries, then
    the first declared abort outcome).
    """


class ReconfigurationError(WorkflowError):
    """A dynamic reconfiguration request could not be applied."""
