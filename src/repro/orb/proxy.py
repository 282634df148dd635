"""Client-side proxies (CORBA stub analogue).

A :class:`Proxy` is bound to a caller node and a target object name; attribute
access returns a callable that performs a synchronous broker invocation, so
client code reads like a local call::

    repo = Proxy(broker, caller=client_node, target="repository")
    repo.store_script("order", text)
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..net.node import Node
from .broker import ObjectBroker, Overloaded


class Proxy:
    """Forward method calls on ``target`` through the broker."""

    def __init__(self, broker: ObjectBroker, caller: Optional[Node], target: str) -> None:
        # Set via object.__setattr__-free plain attributes; __getattr__ only
        # fires for *missing* attributes, so these stay directly accessible.
        self._broker = broker
        self._caller = caller
        self._target = target

    def __getattr__(self, operation: str) -> Callable[..., Any]:
        if operation.startswith("_"):
            raise AttributeError(operation)
        broker, caller, target = self._broker, self._caller, self._target
        broker.resolve(target).interface.validate_operation(operation)

        def call(*args: Any, **kwargs: Any) -> Any:
            return broker.invoke(caller, target, operation, *args, **kwargs)

        call.__name__ = operation
        return call


def call_with_backoff(
    clock: Any,
    policy: Any,
    key: str,
    call: Callable[[], Any],
    max_attempts: int,
    on_result: Optional[Callable[[Any], None]] = None,
    on_give_up: Optional[Callable[[Exception], None]] = None,
) -> None:
    """Invoke ``call`` with cooperative overload backoff (PROTOCOLS.md §13).

    An :class:`~repro.orb.broker.Overloaded` refusal schedules a retry at
    ``policy.overload_backoff(key, attempt, retry_after)`` — at least the
    servant's deterministic retry-after hint, stretched by the policy's
    jittered exponential schedule so a cohort of refused clients does not
    return as one synchronized wave (the retry storm that turns a load spike
    into a metastable outage).  After ``max_attempts`` refusals the client
    gives up: under sustained overload, turning traffic away at the edge is
    the correct terminal outcome.  Asynchronous: retries ride the event
    clock; ``on_result``/``on_give_up`` deliver the verdict.
    """

    def attempt(n: int) -> None:
        try:
            result = call()
        except Overloaded as exc:
            if n + 1 >= max_attempts:
                if on_give_up is not None:
                    on_give_up(exc)
                return
            delay = policy.overload_backoff(key, n, getattr(exc, "retry_after", 0.0))
            clock.call_after(delay, lambda: attempt(n + 1), label=f"backoff:{key}")
            return
        if on_result is not None:
            on_result(result)

    attempt(0)
