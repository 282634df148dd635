"""Crash points: named protocol steps where a schedule may kill a node.

The durability story of the execution stack rests on a handful of precise
boundaries — "the WAL force is the durability point", "the journal write
commits before the tree mutates", "a standby acks only what it forced".
Sampling random crash *times* almost never lands on those boundaries; this
module lets a simulation schedule land on them *every* time.

The execution service's points are generated, not placed by hand: its
shell, ``ExecutionService._perform``, offers the boundaries of each effect
it performs for an event, ``exec.<event>.<effect>.<side>`` (:data:`EVENTS`,
:data:`SIDES`).  Other protocol code is instrumented with calls like::

    crash_point("wal.force.pre", scope=self)

which are no-ops (one global load and a ``None`` check) unless a
:class:`CrashPointInjector` is installed; the shell makes that test inline,
so an unarmed step makes no probe call.  The injector maps ``scope``
objects (WALs, services, workers) to simulated nodes; when an armed fault's
point and hit count match, the injector crashes the owning node *mid-step*
(:meth:`repro.net.node.Node.crash`: its stable storage drops its unforced
WAL suffix, the volatile state evaporates) and raises
:class:`SimulatedCrash` to unwind the Python stack exactly as a real machine
failure would cut it short.

``SimulatedCrash`` derives from ``BaseException`` on purpose: servant code
legitimately catches ``Exception`` (a worker converts implementation errors
into failure replies; the transaction manager retries aborts).  A machine
crash must not be convertible into an application-level reply.

Every crash point is in :data:`CATALOGUE` so the chaos explorer can
enumerate them exhaustively and the docs can render the table
(docs/PROTOCOLS.md §9.1, held to the catalogue by
``tests/test_sim_harness.py``).  ``crash_point`` rejects undeclared names,
so the catalogue cannot silently drift from the instrumentation.  A row
says where a point is, not how to reach it: the explorer learns that from
the runs that visit it (:meth:`repro.sim.explorer.ChaosSweep.plan_for_point`).

A point stays only while it earns its probe: a seeded mutant it alone
catches (``benchmarks/mutants.py``), or a crash state no other point
reaches — a report of its own in the exhaustive sweep of ``order`` x1,
``order`` x3 or ``trip`` x2 (EXPERIMENTS.md E16).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple


class SimulatedCrash(BaseException):
    """A crash-point fault fired: the hosting node is now down.

    Raised *after* the node has been crashed (network detached, stable store
    truncated to its durable prefix) so that unwinding the stack is the only
    thing left to do.  Harness code catches this at the event-loop boundary
    and lets the simulation continue.
    """

    def __init__(self, point: str, node: str) -> None:
        super().__init__(f"simulated crash of {node!r} at crash point {point!r}")
        self.point = point
        self.node = node


@dataclass(frozen=True)
class CrashPoint:
    """One crash point: declared by hand, or generated from :data:`EVENTS`."""

    name: str
    module: str          # repo-relative file holding the call site
    step: str            # protocol step, for the docs table
    torn: bool = False   # supports torn-write injection (WAL force sites)


#: The service's event kinds (one per decide entry, named in each call of the
#: shell) and the effect records each can return, lower-cased; most apply an
#: entry and dispatch what it readied (docs/PROTOCOLS.md §9.1).
_STEP = ("journal", "dispatch", "arm")
EVENTS: Dict[str, Tuple[str, ...]] = {
    "reply": _STEP, "mark": _STEP, "deadline": _STEP, "stagger": ("dispatch",),
    "overdue": _STEP, "admin": (*_STEP, "answer"), "complete": (*_STEP, "answer"),
    "instantiate": (*_STEP, "answer"), "shed": ("journal", "dispatch"), "resume": _STEP,
    "promote": _STEP,
}
#: The sides of each effect that are crash points (``pre``: the effects before
#: it performed; ``forced``: its barrier taken, nothing sent; ``post``: its
#: flights sent).  E16 merged the sides that report alike: a volatile entry's
#: or timer's, an answer's.
SIDES: Dict[str, Tuple[str, ...]] = {
    "journal": ("pre",), "dispatch": ("pre", "forced", "post"), "arm": ("pre",), "answer": (),
}


#: The full crash-point catalogue.  Order matters: the exhaustive sweep runs
#: the points in this order, so runs are comparable across revisions.
CATALOGUE: Tuple[CrashPoint, ...] = (
    # --- write-ahead log (the durability boundary itself) -------------------
    CrashPoint("wal.force.pre", "src/repro/txn/wal.py",
               "before any appended record becomes durable", torn=True),
    CrashPoint("wal.force.post", "src/repro/txn/wal.py",
               "all appended records durable, force returning"),
    CrashPoint("wal.checkpoint.forced", "src/repro/txn/wal.py",
               "CHECKPOINT durable, pre-checkpoint records not yet truncated"),
    # --- execution service: its shell's effect boundaries (after a rebuild:
    # its resumes, and their staggered resends) ------------------------------
    *(CrashPoint(f"exec.{event}.{effect}.{side}", "src/repro/services/execution.py",
                 f"{event} decided, the effects before this {effect} performed" if side == "pre"
                 else f"{event} decided, this {effect}'s barrier taken, nothing sent"
                 if side == "forced" else f"{event} decided, this {effect}'s flights sent")
      for event, effects in EVENTS.items() for effect in effects for side in SIDES[effect]),
    # --- worker ------------------------------------------------------------
    CrashPoint("worker.execute.post", "src/repro/services/worker.py",
               "implementation finished, reply not yet sent"),
    # --- replication (hot standby + lease failover) -------------------------
    CrashPoint("repl.lease.grant", "src/repro/replication/lease.py",
               "lease acquire accepted, grant not yet persisted"),
    CrashPoint("repl.tail.apply", "src/repro/replication/replica.py",
               "standby received a log batch, nothing applied yet"),
    CrashPoint("repl.promote.pre", "src/repro/replication/replica.py",
               "lease won, promotion not yet started"),
    CrashPoint("repl.promote.post", "src/repro/replication/replica.py",
               "standby fully promoted, serving as primary"),
    # appended last: seeded random schedules draw points by catalogue index
    CrashPoint("store.ingest.pre", "src/repro/txn/store.py",
               "shipped records and the follower's tail appended, none durable "
               "yet (torn: the tail is lost, the records it names are kept)",
               torn=True),
)

_BY_NAME: Dict[str, CrashPoint] = {point.name: point for point in CATALOGUE}


def catalogue() -> Tuple[CrashPoint, ...]:
    """The declared crash points, in sweep order."""
    return CATALOGUE


def point_named(name: str) -> CrashPoint:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown crash point {name!r}") from None


@dataclass
class ArmedCrash:
    """One armed crash fault: fire when ``point`` is visited ``at_hit`` times
    by a bound scope (optionally restricted to one node)."""

    point: str
    at_hit: int = 1
    mode: str = "clean"            # "clean" | "torn"
    node: Optional[str] = None     # restrict to this node; None = first to hit
    downtime: Optional[float] = 30.0  # None = stays down
    hits_seen: int = 0
    fired: bool = False

    def __post_init__(self) -> None:
        point = point_named(self.point)   # validates the name
        if self.mode not in ("clean", "torn"):
            raise ValueError(f"unknown crash mode {self.mode!r}")
        if self.mode == "torn" and not point.torn:
            raise ValueError(f"crash point {self.point!r} does not support torn writes")
        if self.at_hit < 1:
            raise ValueError("at_hit must be >= 1")


class CrashPointInjector:
    """Routes crash-point visits to armed faults.

    The harness binds protocol-layer *scopes* (a ``WriteAheadLog``, an
    ``ExecutionService``, a ``TaskWorker``) to the simulated node that
    hosts them.  Visits from unbound scopes — the repository's log, which
    the chaos harness does not target — are ignored, which keeps hit
    counting deterministic regardless of what else lives in the simulated
    world.

    ``crash_callback(node_name, fault, scope)`` must perform the actual
    crash: torn-force the WAL when ``fault.mode == "torn"``, crash the node
    (``Node.crash()`` — what that does to the node's stores is the node's
    business) and, optionally, schedule its recovery.  The injector then
    raises :class:`SimulatedCrash`.
    """

    def __init__(
        self, crash_callback: Callable[[str, "ArmedCrash", Any], None]
    ) -> None:
        self._crash = crash_callback
        self._scopes: Dict[int, str] = {}
        self._scope_refs: List[Any] = []  # keep scopes alive so ids stay valid
        self.armed: List[ArmedCrash] = []
        self.visits: Dict[str, int] = {}
        self.fired: List[Tuple[str, str]] = []  # (point, node) in firing order

    # -- wiring ------------------------------------------------------------

    def bind(self, scope: Any, node_name: str) -> None:
        """Declare that crash-point visits from ``scope`` belong to node
        ``node_name``."""
        self._scopes[id(scope)] = node_name
        self._scope_refs.append(scope)

    def arm(self, fault: ArmedCrash) -> ArmedCrash:
        self.armed.append(fault)
        return fault

    # -- the hot path -------------------------------------------------------

    def visit(self, name: str, scope: Any) -> None:
        node = self._scopes.get(id(scope))
        if node is None:
            return
        self.visits[name] = self.visits.get(name, 0) + 1
        for fault in self.armed:
            if fault.fired or fault.point != name:
                continue
            if fault.node is not None and fault.node != node:
                continue
            fault.hits_seen += 1
            if fault.hits_seen == fault.at_hit:
                fault.fired = True
                self.fired.append((name, node))
                self._crash(node, fault, scope)
                raise SimulatedCrash(name, node)

    def pending(self) -> List[ArmedCrash]:
        """Armed faults that have not fired yet."""
        return [fault for fault in self.armed if not fault.fired]


# -- the module-level hook ---------------------------------------------------

_active: Optional[CrashPointInjector] = None


def install(injector: CrashPointInjector) -> None:
    """Install ``injector`` as the process-wide crash-point sink."""
    global _active
    _active = injector


def uninstall() -> None:
    global _active
    _active = None


def crash_point(name: str, scope: Any = None) -> None:
    """Mark a named protocol step.  Free when no injector is installed."""
    injector = _active
    if injector is not None:
        if name not in _BY_NAME:
            raise ValueError(f"crash point {name!r} is not in the catalogue")
        injector.visit(name, scope)


def offer(event: str, effect: str, side: str, scope: Any) -> None:
    """The shell's boundary ``exec.<event>.<effect>.<side>`` if ``effect`` (a
    record type's name) keeps that side; called only while armed."""
    if side in SIDES[effect.lower()]:
        crash_point(f"exec.{event}.{effect.lower()}.{side}", scope)
