"""In-memory span tracer that wraps the layers' functions from outside.

Nothing under ``src/`` knows about it: ``Tracer.install`` replaces each
target in ``TARGETS`` with a wrapper that opens a span, ``restore`` puts the
originals back.  A span is (name, start, end, parent, instance id where
known); the tracer folds spans into count / total / *self* time per
(phase, name) as they close, and keeps the raw spans only when asked to
(``--spans-out``).  Self time is a span's duration minus the part its child
spans cover, so the self times of one phase add up to the time spent under
any span at all — the rest of the wall clock is ``bench.unattributed_share``.

A target that no longer resolves is skipped with a warning and listed in
``Tracer.missing``; the metrics that depend on it read ``null``.
"""

from __future__ import annotations

import importlib
import sys
import time
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Target:
    span: str                  # span name; several targets may share one
    path: str                  # "module:function" or "module:Class.method"
    # instance id from the call's positional arguments, where they carry one
    iid: Optional[Callable[[tuple], Optional[str]]] = None


def _request_iid(args: tuple) -> Optional[str]:
    request = args[1] if len(args) > 1 else None
    return request.get("instance_id") if isinstance(request, dict) else None


def _second_arg(args: tuple) -> Optional[str]:
    return args[1] if len(args) > 1 and isinstance(args[1], str) else None


# Targets that share a span name and call one another (marshal_call -> marshal,
# a subclass method -> super()) fold into one span: a wrapper whose span name
# is already on top of the stack calls straight through.
TARGETS: List[Target] = [
    Target("orb.invoke", "repro.orb.broker:ObjectBroker.invoke"),
    Target("orb.invoke", "repro.orb.broker:ObjectBroker.invoke_deferred"),
    Target("orb.marshal", "repro.orb.marshal:marshal_call"),
    Target("orb.marshal", "repro.orb.marshal:marshal"),
    Target("net.send", "repro.net.network:Network.send"),
    Target("net.clock", "repro.net.clock:EventClock.step"),
    Target("execution.instantiate", "repro.services.execution:ExecutionService.instantiate"),
    Target("execution.instantiate", "repro.replication.replica:ReplicatedExecutionService.instantiate"),
    # task replies reach the service through the ORB reply callback, marks
    # through on_message; both are "reply handling"
    Target("execution.reply", "repro.services.execution:ExecutionService._handle_reply", _second_arg),
    Target("execution.reply", "repro.services.execution:ExecutionService.on_message"),
    Target("execution.flush_journal", "repro.services.execution:ExecutionService.flush_journal"),
    Target("execution.recover", "repro.services.execution:ExecutionService.on_recover"),
    Target("execution.recover", "repro.replication.replica:ReplicatedExecutionService.on_recover"),
    Target("worker.execute", "repro.services.worker:TaskWorker.execute", _request_iid),
    Target("repository.get_script", "repro.services.repository:RepositoryService.get_script"),
    Target("repository.store_script", "repro.services.repository:RepositoryService.store_script"),
    Target("lang.compile", "repro.lang:compile_script"),
    # the execution service passes no precompiled plan, so today the tables
    # are compiled per instance scope through these two, not compile_plan
    Target("engine.plan_compile", "repro.engine.plan:compile_plan"),
    Target("engine.plan_compile", "repro.engine.plan:compile_node_table"),
    Target("engine.plan_compile", "repro.engine.plan:compile_watch_tables"),
    Target("txn.commit", "repro.txn.manager:Transaction.commit"),
    Target("txn.lock_release", "repro.txn.locks:LockManager.release_all"),
    Target("txn.wal_append", "repro.txn.wal:WriteAheadLog.append"),
    Target("txn.wal_force", "repro.txn.wal:WriteAheadLog.force"),
    Target("txn.wal_sync", "repro.txn.wal:WriteAheadLog.sync"),
    Target("txn.fsync", "os:fsync"),
    Target("overload.admission", "repro.overload.admission:AdmissionController.decide"),
    Target("overload.admission", "repro.overload.admission:AdmissionController.enqueue"),
    Target("overload.admission", "repro.overload.admission:AdmissionController.promote_ready"),
    Target("overload.admission", "repro.overload.admission:AdmissionController.control"),
    Target("resilience.route", "repro.resilience.health:HealthRegistry.route"),
    Target("replication.replicate", "repro.replication.replica:ReplicatedExecutionService.replicate"),
    Target("replication.lease_renew", "repro.replication.lease:LeaseService.renew"),
]


def _resolve(path: str) -> List[Tuple[Any, str, Callable]]:
    """Every (owner, attribute, original) that must be patched for ``path``.

    A method is patched on its class.  A module-level function is patched in
    its own module and in every loaded ``repro`` module that imported it by
    name, because those hold their own reference."""
    module_name, _, dotted = path.partition(":")
    module = importlib.import_module(module_name)
    if "." in dotted:
        class_name, attr = dotted.split(".")
        owner = getattr(module, class_name)
        return [(owner, attr, owner.__dict__[attr])]
    original = getattr(module, dotted)
    owners = [module] + [
        other
        for name, other in list(sys.modules.items())
        if other is not module
        and name.startswith("repro")
        and getattr(other, "__dict__", {}).get(dotted) is original
    ]
    return [(owner, dotted, original) for owner in owners]


class Tracer:
    def __init__(self, targets: Optional[List[Target]] = None, keep_spans: bool = False) -> None:
        self.targets = TARGETS if targets is None else targets
        self.phase = "setup"
        # (phase, span name) -> [count, total ns, self ns]
        self.totals: Dict[Tuple[str, str], List[int]] = {}
        # phase -> ns covered by outermost spans
        self.covered: Dict[str, int] = {}
        self.spans: Optional[List[Optional[Dict[str, Any]]]] = [] if keep_spans else None
        self.missing: List[str] = []      # target paths that did not resolve
        self._missing_spans: set = set()  # span names with a missing target
        self._stack: List[list] = []      # [name, start, child ns, span index, iid]
        self._patched: List[Tuple[Any, str, Callable]] = []

    # -- patching -----------------------------------------------------------------

    def install(self) -> None:
        for target in self.targets:
            try:
                owners = _resolve(target.path)
            except (ImportError, AttributeError, KeyError, ValueError) as exc:
                warnings.warn(
                    f"trace target {target.path} no longer resolves ({exc!r}); "
                    f"metrics from span {target.span!r} read null"
                )
                self.missing.append(target.path)
                self._missing_spans.add(target.span)
                continue
            for owner, attr, original in owners:
                setattr(owner, attr, self._wrap(target, original))
                self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        name = target.span
        stack = self._stack
        clock = time.perf_counter_ns
        open_span = self._open_raw if self.spans is not None else None

        def traced(*args: Any, **kwargs: Any) -> Any:
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0, 0, None, None]
            if open_span is not None:
                open_span(frame, target, args)
            stack.append(frame)
            frame[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, clock())

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _open_raw(self, frame: list, target: Target, args: tuple) -> None:
        parent = self._stack[-1] if self._stack else None
        iid = target.iid(args) if target.iid is not None else None
        if iid is None and parent is not None:
            iid = parent[4]
        frame[3] = len(self.spans)
        frame[4] = iid
        self.spans.append(None)  # filled in when the span closes

    def _close(self, frame: list, end: int) -> None:
        stack = self._stack
        stack.pop()
        name, start, child_ns, index, iid = frame
        duration = end - start
        total = self.totals.get((self.phase, name))
        if total is None:
            total = self.totals[(self.phase, name)] = [0, 0, 0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child_ns
        if stack:
            stack[-1][2] += duration
        else:
            self.covered[self.phase] = self.covered.get(self.phase, 0) + duration
        if index is not None:
            self.spans[index] = {
                "name": name,
                "phase": self.phase,
                "start_ns": start,
                "end_ns": end,
                "parent": stack[-1][3] if stack else None,
                "iid": iid,
            }

    # -- reading ------------------------------------------------------------------

    def stat(self, span: str, phase_prefix: str = "") -> Optional[Tuple[int, float, float]]:
        """(count, total ms, self ms) of ``span`` over the phases whose name
        starts with ``phase_prefix``; ``None`` when one of its targets is
        missing, so a vanished function reads as unknown, never as free."""
        if span in self._missing_spans:
            return None
        count = total = own = 0
        for (phase, name), (n, total_ns, self_ns) in self.totals.items():
            if name == span and phase.startswith(phase_prefix):
                count += n
                total += total_ns
                own += self_ns
        return count, total / 1e6, own / 1e6

    def covered_ms(self, phase_prefix: str = "") -> float:
        return sum(
            ns for phase, ns in self.covered.items() if phase.startswith(phase_prefix)
        ) / 1e6

    def self_ms(self, phase_prefix: str = "") -> float:
        return sum(
            self_ns
            for (phase, _name), (_n, _total, self_ns) in self.totals.items()
            if phase.startswith(phase_prefix)
        ) / 1e6
