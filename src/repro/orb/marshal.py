"""Marshalling for ORB invocations.

CORBA invocations copy values across the wire; object references pass by
reference.  We reproduce that boundary so services cannot accidentally share
mutable in-memory state: every argument and result is structurally copied by
:func:`marshal`, and anything that cannot legitimately cross (open handles,
arbitrary class instances that are not declared transferable) raises
:class:`MarshalError`.

Two speed layers sit on top of those semantics (docs/PROTOCOLS.md §11):

* **Memoized per-type dispatch.**  The first marshal of each concrete type
  walks the classification chain (primitive? namedtuple? registered dict
  subclass? frozen dataclass? ...) once and caches a specialized handler;
  subsequent values of that type pay a single dict lookup.  Late
  ``@transferable`` registration invalidates the cache, so a type's handler
  can never go stale.
* **Zero-copy fast path.**  Deeply immutable values — primitives, tuples /
  namedtuples / frozensets whose members marshal to themselves, and frozen
  ``@transferable`` dataclasses with immutable fields — are returned *by
  reference*: sharing an immutable value cannot leak mutable state, so the
  copy would buy nothing.  Mutable containers (lists, sets, dicts, mutable
  dataclasses, ``__marshal__`` protocol classes) are structurally copied.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Type

from ..core.instrument import IOPATH_STATS

_PRIMITIVES = (type(None), bool, int, float, str, bytes)

# Types explicitly allowed to cross the wire by structural copy.
_TRANSFERABLE: Set[type] = set()

# Memoized type -> handler dispatch.  Cleared whenever the registry changes,
# so classification can never go stale.
_DISPATCH: Dict[type, Callable[[Any, int], Any]] = {}

# Memoized type -> immutability checker for the zero-copy fast path:
# None = instances are never deeply immutable (copy them); otherwise a
# predicate that walks the value without allocating anything.  Cleared with
# _DISPATCH — registration can turn a rejected type into a frozen
# transferable one.
_IMMUTABLE_CHECK: Dict[type, Optional[Callable[[Any, int], bool]]] = {}

# exact types whose values are immutable with no walk at all
_PRIM_EXACT = frozenset(_PRIMITIVES)


class MarshalError(TypeError):
    """A value cannot be marshalled across the ORB."""


def transferable(cls: Type) -> Type:
    """Class decorator / registration: instances may cross ORB boundaries.

    Dataclasses are copied field-by-field; other classes must provide
    ``__marshal__() -> dict`` and ``__unmarshal__(cls, state)``.
    Registration invalidates the memoized dispatch cache: a type marshalled
    (and rejected, or decayed to a plain dict) before registration is
    re-classified on its next use.
    """
    _TRANSFERABLE.add(cls)
    _DISPATCH.clear()
    _IMMUTABLE_CHECK.clear()
    return cls


def is_transferable(cls: Type) -> bool:
    return cls in _TRANSFERABLE


def marshal(value: Any, _depth: int = 0) -> Any:
    """Return ``value`` as the far side may see it: a structural copy, or
    the value itself when it is deeply immutable (sharing is unobservable)."""
    if _depth > 100:
        raise MarshalError("value too deeply nested (possible cycle)")
    cls = type(value)
    handler = _DISPATCH.get(cls)
    if handler is None:
        handler = _build_handler(cls)
        _DISPATCH[cls] = handler
    if _depth:
        return handler(value, _depth)
    IOPATH_STATS.marshal_calls += 1
    result = handler(value, 0)
    if result is value:
        IOPATH_STATS.marshal_fast_hits += 1
    return result


def marshal_call(args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> Tuple[Tuple[Any, ...], Dict[str, Any]]:
    """Marshal a full argument list."""
    return tuple(marshal(a) for a in args), {k: marshal(v) for k, v in kwargs.items()}


# -- zero-copy immutability walk ---------------------------------------------------
#
# The fast path must not pay for the copy it avoids: these predicates walk a
# value WITHOUT allocating anything, so a hit costs type lookups only and a
# miss falls straight into the ordinary structural copy.


def _items_immutable(value: Any, depth: int) -> bool:
    """Every member of an iterable is deeply immutable."""
    if depth > 100:
        return False  # give up; the copy path enforces the real limit
    for item in value:
        cls = type(item)
        if cls in _PRIM_EXACT:
            continue
        try:
            check = _IMMUTABLE_CHECK[cls]
        except KeyError:
            check = _build_immutable_check(cls)
            _IMMUTABLE_CHECK[cls] = check
        if check is None or not check(item, depth + 1):
            return False
    return True


def _build_immutable_check(cls: type) -> Optional[Callable[[Any, int], bool]]:
    """Classify ``cls`` for the zero-copy walk: a checker when instances can
    be deeply immutable, None when they must always be copied.  Mirrors the
    marshal handlers exactly — a checker may return True only where the
    corresponding handler would return the value by reference."""
    if issubclass(cls, _PRIMITIVES):
        return lambda value, depth: True
    if cls is tuple or cls is frozenset:
        return _items_immutable
    if issubclass(cls, tuple) and hasattr(cls, "_fields"):
        return _items_immutable  # namedtuple of immutables
    if (
        cls in _TRANSFERABLE
        and not hasattr(cls, "__marshal__")
        and dataclasses.is_dataclass(cls)
        and cls.__dataclass_params__.frozen
    ):
        names = tuple(f.name for f in dataclasses.fields(cls))

        def check_fields(value: Any, depth: int) -> bool:
            if depth > 100:
                return False
            for name in names:
                item = getattr(value, name)
                icls = type(item)
                if icls in _PRIM_EXACT:
                    continue
                try:
                    check = _IMMUTABLE_CHECK[icls]
                except KeyError:
                    check = _build_immutable_check(icls)
                    _IMMUTABLE_CHECK[icls] = check
                if check is None or not check(item, depth + 1):
                    return False
            return True

        return check_fields
    return None


# -- per-type handler construction -------------------------------------------------


def _build_handler(cls: type) -> Callable[[Any, int], Any]:
    """Classify ``cls`` once and return its specialized marshal handler.

    The classification order mirrors the original isinstance chain exactly,
    so per-type dispatch is observationally identical to it (modulo the
    documented by-reference returns for immutables)."""
    if issubclass(cls, _PRIMITIVES):
        return lambda value, depth: value

    if issubclass(cls, (list, tuple)):
        if cls is tuple:
            def handle_tuple(value, depth):
                if _items_immutable(value, depth):
                    return value
                return tuple(marshal(v, depth + 1) for v in value)
            return handle_tuple
        # exact list and dict, the shapes of every request and reply record:
        # a primitive member is its own copy, so only containers recurse
        if cls is list:
            return lambda value, depth: [
                v if type(v) in _PRIM_EXACT else marshal(v, depth + 1) for v in value
            ]
        if hasattr(cls, "_fields"):
            # namedtuple-style: the constructor takes the fields positionally,
            # not a single iterable
            def handle_namedtuple(value, depth):
                if _items_immutable(value, depth):
                    return value
                return cls(*[marshal(v, depth + 1) for v in value])
            return handle_namedtuple
        return lambda value, depth: cls([marshal(v, depth + 1) for v in value])

    if issubclass(cls, (set, frozenset)):
        if cls is frozenset:
            def handle_frozenset(value, depth):
                if _items_immutable(value, depth):
                    return value
                return frozenset(marshal(v, depth + 1) for v in value)
            return handle_frozenset
        return lambda value, depth: cls(marshal(v, depth + 1) for v in value)

    if issubclass(cls, dict):
        if cls is dict:
            return lambda value, depth: {
                (k if type(k) in _PRIM_EXACT else marshal(k, depth + 1)): (
                    v if type(v) in _PRIM_EXACT else marshal(v, depth + 1)
                )
                for k, v in value.items()
            }
        def handle_dict_subclass(value, depth):
            copied_items = {
                marshal(k, depth + 1): marshal(v, depth + 1) for k, v in value.items()
            }
            if hasattr(value, "__marshal__") and cls in _TRANSFERABLE:
                state = marshal(value.__marshal__(), depth + 1)
                return cls.__unmarshal__(state)
            if cls in _TRANSFERABLE:
                # registered dict subclass: preserve the type instead of
                # silently decaying to a plain dict
                return cls(copied_items)
            return copied_items
        return handle_dict_subclass

    if cls in _TRANSFERABLE:
        if hasattr(cls, "__marshal__"):
            def handle_protocol(value, depth):
                state = marshal(value.__marshal__(), depth + 1)
                return cls.__unmarshal__(state)
            return handle_protocol
        if dataclasses.is_dataclass(cls):
            names = [f.name for f in dataclasses.fields(cls)]
            frozen = cls.__dataclass_params__.frozen
            def handle_dataclass(value, depth):
                if frozen:
                    check = _IMMUTABLE_CHECK.get(cls)
                    if check is None:
                        check = _build_immutable_check(cls)
                        _IMMUTABLE_CHECK[cls] = check
                    if check is not None and check(value, depth):
                        return value
                return cls(
                    **{name: marshal(getattr(value, name), depth + 1) for name in names}
                )
            return handle_dataclass

    if issubclass(cls, Exception):
        # Exceptions cross the wire so remote errors surface at the caller.
        return lambda value, depth: cls(*[marshal(a, depth + 1) for a in value.args])

    def handle_unmarshalable(value, depth):
        raise MarshalError(
            f"{cls.__module__}.{cls.__qualname__} is not transferable across the ORB"
        )
    return handle_unmarshalable
