"""Object request broker: the CORBA analogue (see DESIGN.md §2).

Interface declarations, naming, marshalled synchronous invocation with
``CommFailure`` semantics, deferred invocation over the lossy network, and
client-side proxies.  What crosses is plain data and proven records:
primitives, tuples and records, lists and dicts, and the by-reference
types (``@sealed`` templates, plain twins, ``PlainDict``); anything else is
refused with ``MarshalError``.
"""

from .broker import (
    BadInterface,
    CommFailure,
    DelayedResult,
    Fenced,
    Interface,
    ObjectBroker,
    ObjectNotFound,
    Overloaded,
)
from .marshal import (
    MarshalError,
    marshal,
    marshal_call,
    sealed,
)
from .proxy import Proxy, call_with_backoff

__all__ = [
    "BadInterface",
    "CommFailure",
    "DelayedResult",
    "Fenced",
    "Interface",
    "MarshalError",
    "ObjectBroker",
    "ObjectNotFound",
    "Overloaded",
    "Proxy",
    "call_with_backoff",
    "marshal",
    "marshal_call",
    "sealed",
]
