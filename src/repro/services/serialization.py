"""Plain-data serialization for durable workflow state.

The execution service records everything it must survive a crash with —
initial inputs, task results, marks, reconfigurations — in persistent atomic
objects.  Stored values must be plain data (dicts/lists/strings/numbers), so
object payloads carried by :class:`ObjectRef` are required to be plain data
too; this mirrors the real system, where CORBA object references and IDL
values are what crosses and persists.  The ORB is where a value that is not
plain data is refused (:mod:`repro.orb.marshal`): a result carrying one
fails its task at the worker and is never journaled.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..core.schema import OutputKind
from ..core.values import ObjectRef
from ..engine.context import TaskResult

_KINDS = {kind.name: kind for kind in OutputKind}


def ref_to_plain(ref: ObjectRef) -> Dict[str, Any]:
    return {
        "class": ref.class_name,
        "value": ref.value,
        "produced_by": ref.produced_by,
        "via": ref.via,
    }


def ref_from_plain(data: Mapping[str, Any]) -> ObjectRef:
    return tuple.__new__(
        ObjectRef, (data["class"], data["value"], data.get("produced_by"), data.get("via"))
    )


def refs_to_plain(objects: Mapping[str, ObjectRef]) -> Dict[str, Dict[str, Any]]:
    return {name: ref_to_plain(ref) for name, ref in objects.items()}


def refs_from_plain(data: Mapping[str, Mapping[str, Any]]) -> Dict[str, ObjectRef]:
    return {name: ref_from_plain(item) for name, item in data.items()}


def result_to_plain(result: TaskResult) -> Dict[str, Any]:
    objects: Dict[str, Any] = {}
    for name, value in result.objects.items():
        if isinstance(value, ObjectRef):
            objects[name] = {"__ref__": True, **ref_to_plain(value)}
        else:
            objects[name] = {"__ref__": False, "value": value}
    # ``_name_`` is the member's name, read without the ``name`` property's frames
    return {"kind": result.kind._name_, "name": result.name, "objects": objects}


def result_from_wire(wire: Tuple[str, str, Tuple[Tuple[str, Any], ...]]) -> TaskResult:
    """A :class:`TaskResult` from the wire form a worker's reply carries,
    ``(kind name, output name, ((object, ref-or-value), ...))``."""
    kind, name, objects = wire
    return tuple.__new__(TaskResult, (_KINDS[kind], name, dict(objects)))


def result_from_plain(data: Mapping[str, Any]) -> TaskResult:
    objects: Dict[str, Any] = {}
    for name, item in data["objects"].items():
        if item.get("__ref__"):
            objects[name] = ref_from_plain(item)
        else:
            objects[name] = item["value"]
    return tuple.__new__(TaskResult, (_KINDS[data["kind"]], data["name"], objects))
