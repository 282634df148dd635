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
  copy would buy nothing.  A ``@sealed`` type is checked deeply immutable
  once, when an instance is built, and crosses by reference with no walk at
  all; so does a record its builder proved plain (:func:`plain_twin`,
  :class:`PlainDict`).
  Mutable containers (lists, sets, dicts, mutable dataclasses,
  ``__marshal__`` protocol classes) are structurally copied; an exact dict
  or list is copied by one loop that descends straight into nested exact
  dicts and lists.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Type, TypeVar

from ..core.instrument import IOPATH_STATS

_PRIMITIVES = (type(None), bool, int, float, str, bytes)

T = TypeVar("T")

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

# Exact types whose values are immutable with no walk at all: the primitives,
# every @sealed type, every plain twin and PlainDict.  A dict or list member
# of one of these types is its own copy.  Builders read it to prove a record
# plain; only this module adds to it.
BY_REFERENCE: Set[type] = set(_PRIMITIVES)

# deeper than this is refused as a probable cycle
_MAX_DEPTH = 100
_TOO_DEEP = "value too deeply nested (possible cycle)"


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


def sealed(cls: Type) -> Type:
    """Class decorator for a frozen dataclass of plain data: every instance
    is checked deeply immutable once, when it is built (a mutable member
    raises :class:`MarshalError` there), and from then on crosses the ORB by
    reference with no immutability walk.  A sealed type is transferable."""
    if not (dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen):
        raise TypeError(f"{cls.__qualname__}: only a frozen dataclass can be sealed")
    names = tuple(f.name for f in dataclasses.fields(cls))
    build = cls.__init__

    @functools.wraps(build)
    def __init__(self, *args: Any, **kwargs: Any) -> None:
        build(self, *args, **kwargs)
        for name in names:
            value = getattr(self, name)
            if not _items_immutable((value,), 0):
                raise MarshalError(
                    f"{cls.__qualname__}.{name}: a {type(value).__qualname__} "
                    f"is not deeply immutable, so it cannot be sealed"
                )

    cls.__init__ = __init__
    BY_REFERENCE.add(cls)
    return transferable(cls)


def plain_twin(record: Type[T]) -> Type[T]:
    """The by-reference twin of the ``NamedTuple`` type ``record``: a
    subclass whose instances cross the ORB with one test and no walk.

    A builder that has checked every leaf of a record is of a
    :data:`BY_REFERENCE` type builds it as the twin, with ``tuple.__new__``;
    anything else is built as ``record`` and takes the walk.  The twin's own
    constructors (``Twin(...)``, ``_make``, ``_replace``) prove their value by
    the immutability walk and return a plain ``record`` when it fails, so no
    twin ever holds a mutable member."""

    def prove(fields: Any) -> Any:
        value = tuple.__new__(record, fields)
        return tuple.__new__(twin, value) if _items_immutable(value, 0) else value

    def __new__(cls: type, *args: Any, **kwargs: Any) -> Any:
        return prove(record(*args, **kwargs))

    twin = type(record.__name__, (record,), {
        "__slots__": (),
        "__new__": __new__,
        "_make": classmethod(lambda cls, iterable: prove(iterable)),
        "__doc__": f"A {record.__name__} proven plain when it was built.",
        "__module__": record.__module__,
        "__qualname__": f"{record.__qualname__}.plain",
    })
    BY_REFERENCE.add(twin)
    return twin


class PlainDict(dict):
    """A read-only dict whose keys and values are all deeply immutable, so
    it crosses the ORB by reference with one test and no walk.  A step's
    request is one when proven: a record that is still a dict to whatever
    reads one.

    A builder that has checked every leaf is of a :data:`BY_REFERENCE` type
    builds it with ``dict.__new__(PlainDict)`` and ``dict.update``; the
    class's own constructor (and so ``copy``, ``deepcopy`` and ``pickle``)
    proves its value by the immutability walk and returns a plain ``dict``
    when it fails, so no ``PlainDict`` ever holds a mutable member.  Every
    method that would change it raises ``TypeError``."""

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> Any:
        value = dict(*args, **kwargs)
        if not (_items_immutable(value, 0) and _items_immutable(value.values(), 0)):
            return value
        plain = dict.__new__(cls)
        dict.update(plain, value)
        return plain

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        pass  # filled by __new__

    def __reduce__(self) -> Any:
        return PlainDict, (dict(self),)

    def _read_only(self, *args: Any, **kwargs: Any) -> Any:
        raise TypeError("a PlainDict is read-only: build another")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


BY_REFERENCE.add(PlainDict)


def marshal(value: Any, _depth: int = 0) -> Any:
    """Return ``value`` as the far side may see it: a structural copy, or
    the value itself when it is deeply immutable (sharing is unobservable)."""
    cls = type(value)
    if cls in BY_REFERENCE or (  # a primitive, a sealed type, a proven record
        cls is tuple and BY_REFERENCE.issuperset(map(type, value))  # a batch of them
    ):
        if not _depth:
            IOPATH_STATS.marshal_calls += 1
            IOPATH_STATS.marshal_fast_hits += 1
        return value
    if _depth > _MAX_DEPTH:
        raise MarshalError(_TOO_DEEP)
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
    return tuple(map(marshal, args)), {k: marshal(v) for k, v in kwargs.items()}


# -- exact dict and list: one loop per container -----------------------------------
#
# The shape of what a client call carries and gets back, and of a step's
# request when it was not proven plain (see PlainDict).  A member that
# crosses by reference is kept as it stands, a nested exact dict or list is
# copied by the same loop one level down, and only any other member goes
# back through marshal — so the depth guard is kept here, for the levels
# marshal no longer sees.


def _copy_dict(value: dict, depth: int) -> dict:
    if depth > _MAX_DEPTH:
        raise MarshalError(_TOO_DEEP)
    copy = {}
    for k, v in value.items():
        if type(k) not in BY_REFERENCE:
            k = marshal(k, depth + 1)
        cls = type(v)
        if cls in BY_REFERENCE:
            copy[k] = v
        elif cls is dict:
            copy[k] = _copy_dict(v, depth + 1)
        elif cls is list:
            copy[k] = _copy_list(v, depth + 1)
        else:
            copy[k] = marshal(v, depth + 1)
    return copy


def _copy_list(value: list, depth: int) -> list:
    if depth > _MAX_DEPTH:
        raise MarshalError(_TOO_DEEP)
    copy = []
    append = copy.append
    for v in value:
        cls = type(v)
        if cls in BY_REFERENCE:
            append(v)
        elif cls is dict:
            append(_copy_dict(v, depth + 1))
        elif cls is list:
            append(_copy_list(v, depth + 1))
        else:
            append(marshal(v, depth + 1))
    return copy


# -- zero-copy immutability walk ---------------------------------------------------
#
# The fast path must not pay for the copy it avoids: these predicates walk a
# value WITHOUT allocating anything, so a hit costs type lookups only and a
# miss falls straight into the ordinary structural copy.


def _items_immutable(value: Any, depth: int) -> bool:
    """Every member of an iterable is deeply immutable."""
    if depth > _MAX_DEPTH:
        return False  # give up; the copy path enforces the real limit
    for item in value:
        cls = type(item)
        if cls in BY_REFERENCE:
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
    if cls in BY_REFERENCE or issubclass(cls, _PRIMITIVES):
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
            if depth > _MAX_DEPTH:
                return False
            for name in names:
                item = getattr(value, name)
                icls = type(item)
                if icls in BY_REFERENCE:
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

    The classification order mirrors the original isinstance chain, so
    per-type dispatch is observationally identical to it (modulo the
    documented by-reference returns for immutables), with one exception: a
    transferable class's ``__marshal__`` protocol is consulted before the
    dict branch, so a dict subclass that defines it is copied through it.
    (``marshal`` returns a ``BY_REFERENCE`` type's value before it asks.)"""
    if issubclass(cls, _PRIMITIVES):  # a subclass of a primitive
        return lambda value, depth: value

    if issubclass(cls, (list, tuple)):
        if cls is tuple:
            def handle_tuple(value, depth):
                if _items_immutable(value, depth):
                    return value
                return tuple(marshal(v, depth + 1) for v in value)
            return handle_tuple
        if cls is list:
            return _copy_list
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

    if cls in _TRANSFERABLE and hasattr(cls, "__marshal__"):
        # the protocol decides what crosses, for a dict subclass too: its
        # raw items need not be transferable themselves
        def handle_protocol(value, depth):
            state = marshal(value.__marshal__(), depth + 1)
            return cls.__unmarshal__(state)
        return handle_protocol

    if issubclass(cls, dict):
        if cls is not dict and cls in _TRANSFERABLE:
            # registered dict subclass: preserve the type instead of
            # silently decaying to a plain dict
            return lambda value, depth: cls(_copy_dict(value, depth))
        return _copy_dict

    if cls in _TRANSFERABLE:
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
