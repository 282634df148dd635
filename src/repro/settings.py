"""Settings tables: frozen dataclasses whose fields describe themselves.

A field made with :func:`setting` carries its help text and unit in its
metadata, so the one declaration of a knob is also its documentation and
its command-line option (``repro.cli`` reads the field).  Values are checked
once, in the dataclass's ``__post_init__``, with :func:`require`, whose
message leads with the field's name so the CLI can name the option instead.
"""

from __future__ import annotations

from dataclasses import field, fields, is_dataclass
from typing import Any, Mapping, get_type_hints


def setting(default: Any, help: str, unit: str = "", **metadata: Any) -> Any:
    """A dataclass field with its ``help`` and ``unit`` in ``metadata``."""
    return field(default=default, metadata={"help": help, "unit": unit, **metadata})


def require(spec: Any, name: str, ok: bool, reason: str) -> None:
    """Raise ``ValueError("<name>: <reason>, got <value>")`` unless ``ok``."""
    if not ok:
        raise ValueError(f"{name}: {reason}, got {getattr(spec, name)!r}")


def from_plain(cls: type, data: Mapping[str, Any]) -> Any:
    """Rebuild a dataclass from its ``dataclasses.asdict`` form (after a JSON
    round trip): nested dataclass fields, optional ones included, are
    rebuilt from their hints."""
    hints = get_type_hints(cls)
    values = {}
    for item in fields(cls):
        kind = hints[item.name]
        # Optional[X] -> X
        kind = next((a for a in getattr(kind, "__args__", ()) if is_dataclass(a)), kind)
        value = data[item.name]
        values[item.name] = (
            from_plain(kind, value) if is_dataclass(kind) and value is not None else value
        )
    return cls(**values)
