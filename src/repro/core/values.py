"""Run-time object references.

The language moves *references* to application objects between tasks; the
script never looks inside them (§4.1).  An :class:`ObjectRef` is such a typed
reference plus provenance (which task produced it, through which output) —
provenance is what makes event logs and experiment assertions meaningful.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

from ..orb.marshal import transferable


@transferable
class ObjectRef(NamedTuple):
    """A typed reference to an application object.  A tuple: immutable, and
    built on the hot path by ``tuple.__new__`` without a Python frame."""

    class_name: str
    value: Any = None
    produced_by: Optional[str] = None   # task path, e.g. "order/dispatch"
    via: Optional[str] = None           # output or input-set name

    def with_provenance(self, task_path: str, via: str) -> "ObjectRef":
        return tuple.__new__(ObjectRef, (self.class_name, self.value, task_path, via))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        origin = f" from {self.produced_by}.{self.via}" if self.produced_by else ""
        return f"<{self.class_name}:{self.value!r}{origin}>"


def ref(class_name: str, value: Any = None) -> ObjectRef:
    """Convenience constructor used by task implementations."""
    return ObjectRef(class_name, value)
