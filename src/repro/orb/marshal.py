"""Marshalling for ORB invocations.

CORBA invocations copy IDL values across the wire; object references pass by
reference.  We reproduce that boundary so services cannot accidentally share
mutable in-memory state.  :func:`marshal` carries what the system sends —
plain data and proven records (docs/PROTOCOLS.md §11):

* a value of a :data:`BY_REFERENCE` type — a primitive, a ``@sealed`` type,
  a record its builder proved plain (:func:`plain_twin`, :class:`PlainDict`)
  — crosses by reference after one type test; so does a subclass of a
  primitive;
* a tuple or a record (a ``NamedTuple``) crosses by reference when it is
  deeply immutable — sharing an immutable value cannot leak mutable state,
  so the copy would buy nothing — and is copied member by member otherwise;
* a list or a dict is copied by one loop per container, which descends
  straight into nested exact dicts and lists; a subclass of either arrives
  as a plain list or dict;
* anything else — a set, a dataclass, an exception, an open handle, any
  other class instance — is refused with :class:`MarshalError`.

The first marshal of each concrete type classifies it once and caches its
handler, so later values of that type pay a single dict lookup.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Callable, Dict, Set, Tuple, Type, TypeVar

from ..core.instrument import IOPATH_STATS

_PRIMITIVES = (type(None), bool, int, float, str, bytes)

T = TypeVar("T")

# Memoized type -> handler dispatch.
_DISPATCH: Dict[type, Callable[[Any, int], Any]] = {}

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


def sealed(cls: Type) -> Type:
    """Class decorator for a frozen dataclass of plain data: every instance
    is checked deeply immutable once, when it is built (a mutable member
    raises :class:`MarshalError` there), and from then on crosses the ORB by
    reference with no immutability walk."""
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
    return cls


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
# The fast path must not pay for the copy it avoids: this predicate walks a
# value WITHOUT allocating anything, so a hit costs type tests only and a
# miss falls straight into the ordinary structural copy.


def _is_record(cls: type) -> bool:
    """A tuple, or a record type (a ``NamedTuple``)."""
    return cls is tuple or (issubclass(cls, tuple) and hasattr(cls, "_fields"))


def _items_immutable(value: Any, depth: int) -> bool:
    """Every member of an iterable is deeply immutable: of a by-reference
    type, a subclass of a primitive, or a tuple or record whose members all
    are.  True only where :func:`marshal` would return the member itself."""
    if depth > _MAX_DEPTH:
        return False  # give up; the copy path enforces the real limit
    for item in value:
        cls = type(item)
        if cls in BY_REFERENCE:
            continue
        if _is_record(cls):
            if not _items_immutable(item, depth + 1):
                return False
        elif not issubclass(cls, _PRIMITIVES):
            return False
    return True


# -- per-type handler construction -------------------------------------------------


def _build_handler(cls: type) -> Callable[[Any, int], Any]:
    """Classify ``cls`` once and return its marshal handler.  (``marshal``
    returns a ``BY_REFERENCE`` type's value before it asks.)"""
    if issubclass(cls, _PRIMITIVES):  # a subclass of a primitive
        return lambda value, depth: value
    if issubclass(cls, dict):
        return _copy_dict
    if issubclass(cls, list):
        return _copy_list
    if cls is tuple:
        def handle_tuple(value, depth):
            if _items_immutable(value, depth):
                return value
            return tuple([marshal(v, depth + 1) for v in value])
        return handle_tuple
    if _is_record(cls):
        # the constructor takes the fields positionally, not one iterable
        def handle_record(value, depth):
            if _items_immutable(value, depth):
                return value
            return cls(*[marshal(v, depth + 1) for v in value])
        return handle_record

    def refuse(value, depth):
        raise MarshalError(
            f"{cls.__module__}.{cls.__qualname__} is not transferable across the ORB"
        )
    return refuse
