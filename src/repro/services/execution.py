"""Workflow Execution Service (paper Fig. 4).

Coordinates workflow instances with the paper's system-level guarantees:

* **Durable coordination state.**  Everything needed to reconstruct an
  instance — script text, initial inputs, and a journal of task results,
  marks, failures, reconfigurations and forced aborts — is recorded in
  persistent atomic objects, durably, *before* it takes effect outside the
  service.  The store's layout belongs to one
  :class:`~repro.services.journal.Journal` per store; this module never
  names a stored key.
* **The coordinator decides, one shell acts.**  :class:`_Coordinator` has one
  method per input event (reply, mark, timer, administrative operation,
  instantiation, shed).  Each updates the instance through the one
  definition of a step, :meth:`_Coordinator._apply_entry`, and the drain, and
  returns what must happen as :class:`Journal`, :class:`Dispatch`,
  :class:`Arm` and :class:`Answer` records; it names no node, broker or
  store.  :meth:`ExecutionService._perform` carries them out in order:
  entries are buffered, a dispatch takes the durability barrier and
  re-checks primacy before anything leaves, timers are armed, and an answer
  is refused (``Fenced``) when a barrier deposed the service
  (docs/PROTOCOLS.md §4, §12).  :meth:`ExecutionService._replay` applies the
  stored entries to a fresh tree — recovery, promotion, import, detail views
  and the oracles alike.
* **Crash recovery.**  After a node crash, :meth:`on_recover` replays each
  open instance's journal over a fresh tree; because scheduling is
  deterministic, the rebuilt tree reaches exactly the pre-crash state, and
  still-unfinished tasks are re-dispatched.  An instance the journal marks
  *closed* is not replayed: recovery is bounded by what was running.
* **Derived state is restored, not kept.**  A *settled* instance — terminal,
  journal flushed, no flight out (:meth:`_Coordinator._settle`) — sheds
  its tree and keeps a summary that answers ``status``, ``result`` and every
  poller; a detail view or a late administrative operation replays the
  journal, the way recovery does.
* **At-least-once dispatch, exactly-once application**, with adaptive
  resilience (:mod:`repro.resilience`): an unanswered flight is resent
  ``dispatch_timeout`` after its send, routed by worker health, optionally
  hedged, and abandoned into an ordinary system failure past its redispatch
  cap; the journal applies exactly one reply.  Tasks that fail for
  system-level reasons are retried per their ``retries`` property (§3).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Any, Callable, Collection, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple, Union,
)

from ..core.errors import ExecutionError, WorkflowError
from ..core.schema import OutputKind, Script, TaskClass
from ..core.states import TaskState
from ..engine.context import TaskResult, declared_output
from ..engine.events import WorkflowStatus
from ..engine.instance import InstanceTree, SettledTree
from ..engine.plan import ExecutionPlan, compile_plan
from ..lang import compile_script
from ..net.node import Message, Node, Service
from ..orb.broker import CommFailure, Fenced, Interface, ObjectBroker, Overloaded
from ..overload import AdmissionController, OverloadConfig, criticality_of
from ..resilience import HealthRegistry, ResilienceConfig, ResilienceLog, render_resilience
from ..sim import crashpoints
from ..txn.store import ObjectStore
from .journal import Journal as JournalStore, Tail, script_digest
from .serialization import (
    ref_to_plain,
    refs_from_plain,
    refs_to_plain,
    result_from_plain,
    result_from_wire,
    result_to_plain,
)
from .worker import MarkRecord, WorkReply, WorkRequest, work_reply, work_request

EXECUTION_INTERFACE = Interface("WorkflowExecution", (
    "instantiate", "status", "result", "list_instances", "reconfigure", "force_abort",
    "complete_task", "external_tasks", "trace", "tasks", "compact", "export_instance",
    "import_instance", "resilience_report",
))


# -- effects: what the coordinator decides, as data ------------------------------------


class Journal(NamedTuple):
    """Buffer ``entry`` as the next of ``runtime``'s journal entries; it is
    durable at the next barrier."""

    runtime: "_Runtime"
    entry: Dict[str, Any]


class Dispatch(NamedTuple):
    """Take the durability barrier, then — still primary — send ``flights``
    (a drained batch is the runtime's former ``unsent`` list).  ``closes``:
    the barrier leaves ``runtime`` terminal with no flight out.  With no
    flights it is a barrier alone."""

    runtime: "_Runtime"
    flights: Sequence[Tuple[Tuple[str, int], "_InFlight"]] = ()
    hedge: bool = False
    closes: bool = False


class Arm(NamedTuple):
    """Fire the timer ``key`` (its kind first) at time ``at``
    (:meth:`ExecutionService._fire`)."""

    key: Tuple
    at: float


class Answer(NamedTuple):
    """Answer the client with ``value`` — unless a barrier deposed the
    service, which then raises ``Fenced`` instead."""

    value: Any


Effect = Union[Journal, Dispatch, Arm, Answer]


@dataclass
class _InFlight:
    request: WorkRequest
    dispatched_at: float
    redispatches: int = 0
    sent: bool = False
    # resilience bookkeeping: when an un-answered flight earns a hedge,
    # whether a hedge has been sent, and per-worker send times of the
    # current wave
    hedge_at: Optional[float] = None
    hedged: bool = False
    sent_to: Dict[str, float] = field(default_factory=dict)


class _Runtime:
    """Volatile per-instance state (rebuilt from the journal on recovery).

    A *settled* instance (:meth:`ExecutionService._settle`) keeps only what
    :meth:`shed` leaves: the fields every poller and ``status`` / ``result``
    read.  The rest is a pure function of the durable journal, and whoever
    needs it again replays (:meth:`ExecutionService._full_runtime`)."""

    __slots__ = (
        "iid", "script", "tree", "in_flight", "external", "deadlines",
        "journal_keys", "unsent", "armed_deadlines",
        "deadline_expiries", "exec_counter", "tail",
    )

    def __init__(self, iid: str, script: Script, tree: InstanceTree) -> None:
        self.iid = iid
        self.script = script
        self.tree: Union[InstanceTree, SettledTree] = tree
        self.in_flight: Dict[Tuple[str, int], _InFlight] = {}
        self.external: Set[Tuple[str, int]] = set()  # parked tasks
        # the current script's deadline tasks under this root
        # (_Compiled.deadlines; a reconfiguration may introduce some)
        self.deadlines: Tuple[Tuple[str, float], ...] = ()
        self.journal_keys: Set[Tuple] = set()
        # flights built by _drain and not yet handed to _send, in build order
        self.unsent: List[Tuple[Tuple[str, int], _InFlight]] = []
        self.armed_deadlines: Set[Tuple[str, int]] = set()
        # journaled absolute deadline expiries, so recovery resumes a task's
        # *remaining* deadline instead of granting a fresh full one
        self.deadline_expiries: Dict[Tuple[str, int], float] = {}
        # Monotonic execution numbering per task path.  machine.starts is NOT
        # unique across compound repeat rounds (children are rebuilt fresh), so
        # journal keys use this counter; replay reproduces it deterministically.
        self.exec_counter: Dict[str, int] = {}
        # where the durable journal ends: a new instance's is empty, a
        # replay's is the journal it read (_replay)
        self.tail = Tail()
        self.tail.root = tree.root.path

    @property
    def settled(self) -> bool:
        return isinstance(self.tree, SettledTree)

    def shed(self) -> None:
        """Drop everything a replay of the journal rebuilds.  In place, so a
        timer key still holding this runtime holds the summary too."""
        self.tree = self.tree.shed()
        del (
            self.journal_keys, self.unsent,
            self.armed_deadlines, self.deadline_expiries,
            self.exec_counter, self.tail,
        )


class _ClosedRuntime(_Runtime):
    """A closed instance as a rebuild finds it: settled, nothing out, its
    summary — ``restore(iid)``: a replay's shed ``tree``, ``external`` — unread.
    Its own class, so that a live runtime's attribute reads stay slot reads."""

    __slots__ = ("restore",)
    settled = True

    def __init__(self, iid: str, restore: Callable[[str], Tuple[SettledTree, Set]]) -> None:
        self.iid = iid
        self.in_flight = {}
        self.restore = restore

    def __getattr__(self, name: str) -> Any:
        # only an unset slot comes here: the summary's first read restores it
        if name not in ("tree", "external"):
            raise AttributeError(name)
        self.tree, self.external = self.restore(self.iid)
        return getattr(self, name)


@dataclass
class _Compiled:
    """One cached script, what every instance of it needs to know about it
    and, from the first instance built on it, its execution plan (never
    compiled for a script that is only stored)."""

    script: Script
    digest: str
    # root task -> the paths below it (itself included) whose declaration
    # carries a ``deadline`` implementation property, each with its
    # deadline, in declaration order: the tasks _arm_deadlines looks up (a
    # root with none skips it).  Whether the task has an abort outcome to
    # take is asked of the live node: a reconfiguration keeps a live node's
    # class, which may not be this script's
    deadlines: Dict[str, Tuple[Tuple[str, float], ...]]
    plan: Optional[ExecutionPlan] = None
    _criticality: Dict[str, str] = field(default_factory=dict)

    def criticality(self, root_task: str) -> str:
        found = self._criticality.get(root_task)
        if found is None:
            found = self._criticality[root_task] = criticality_of(self.script, root_task)
        return found


# Compiled scripts keyed by their exact source text.  Scripts and plans are
# immutable (frozen declaration dataclasses, read-only tables); instance
# state lives in the tree, so one compiled Script and one ExecutionPlan can
# safely back every instance, replay shadow and recovery of the same text.
# Keying by text (not name/version) makes staleness impossible.  Bounded: a
# stream of distinct scripts evicts the least recently used entry, so the
# scripts in steady use keep theirs.
_COMPILE_CACHE: "OrderedDict[str, _Compiled]" = OrderedDict()
_COMPILE_CACHE_MAX = 128

# Bound on the hedge-loser ack table (_pending_acks): age-based reaping in the
# sweeper is the primary mechanism; this cap is the backstop under sustained
# overload, when losers can accrue faster than the reap horizon drains them.
_PENDING_ACK_CAP = 1024

# How long (simulated seconds) a buffered journal entry may stay volatile
# before a timer takes the durability barrier for it.
_JOURNAL_WINDOW = 5.0


def _mark_entry(mark: MarkRecord) -> Dict[str, Any]:
    """The journal entry of a mark, from its datagram or its reply alike."""
    return {
        "type": "mark", "path": mark.task_path, "exec": mark.execution_index,
        "name": mark.name, "objects": {name: ref_to_plain(ref) for name, ref in mark.objects},
    }


def _dedup_key(entry: Dict[str, Any]) -> Optional[Tuple]:
    """The exactly-once identity of a journal entry: an event refuses an
    entry whose key the runtime already holds, :meth:`_apply_entry` records
    it.  ``external`` / ``reconfig`` / ``force_abort`` entries have none."""
    kind = entry["type"]
    if kind == "mark":
        return ("mark", entry["path"], entry["exec"], entry["name"])
    if kind in ("result", "failure"):
        return ("result", entry["path"], entry["exec"])
    if kind == "deadline":
        return ("deadline", entry["path"], entry["exec"])
    if kind == "overloaded":
        return ("overloaded",)  # at most one decisive shed per instance
    return None


def _compiled(text: str) -> _Compiled:
    compiled = _COMPILE_CACHE.get(text)
    if compiled is None:
        script = compile_script(text)
        deadlines: Dict[str, Tuple[Tuple[str, float], ...]] = {}
        for path, decl in script.walk_tasks():
            delay = decl.implementation.deadline
            if delay is not None:
                root = path.partition("/")[0]
                deadlines[root] = (*deadlines.get(root, ()), (path, delay))
        compiled = _Compiled(script, script_digest(text), deadlines)
        if len(_COMPILE_CACHE) >= _COMPILE_CACHE_MAX:
            _COMPILE_CACHE.popitem(last=False)
        _COMPILE_CACHE[text] = compiled
    else:
        _COMPILE_CACHE.move_to_end(text)
    return compiled


class _Coordinator:
    """The decide half of the execution service: one method per input event
    (``_on_*``, :meth:`_shed`, :meth:`_resume`) updates the runtimes and
    returns the effect records :meth:`ExecutionService._perform` carries out.
    It names no node, broker or store (``tests/test_decide.py`` runs it
    without them; ``tests/test_single_definitions.py`` keeps it so); its
    state is set up by :class:`ExecutionService`."""

    # -- input events ------------------------------------------------------------------

    def _on_reply(self, iid: str, reply: WorkReply) -> List[Effect]:
        if reply.fenced:
            # a worker refused a stale-epoch dispatch: never journaled as a
            # task failure — the flight stays open for the rightful primary
            self.stats["fenced_replies"] += 1
            return []
        runtime = self.runtimes.get(iid)
        if runtime is None:
            return []
        path = reply.task_path
        exec_index = reply.execution_index
        flight_key = (path, exec_index)
        worker = reply.worker
        if worker:  # timer-task self-replies carry no worker
            # Health accounting for any reply, duplicates included: the
            # worker demonstrably served the request, so credit its latency
            # and close its breaker — even when the journal then discards the
            # reply as a duplicate (e.g. a hedge that lost the race).
            flight = runtime.in_flight.get(flight_key)
            sent_at = flight.sent_to.pop(worker, None) if flight is not None else None
            if sent_at is None:
                sent_at = self._pending_acks.pop((iid, path, exec_index, worker), None)
            if sent_at is not None:
                now = self._now()
                self.health.on_reply(worker, now - sent_at, now)
        # A settled instance is closed: every flight it ever sent is answered
        # in its journal, so whatever still arrives for it is a duplicate.
        if runtime.settled or ("result", path, exec_index) in runtime.journal_keys:
            self.stats["duplicate_replies"] += 1
            return []
        effects: List[Effect] = []
        # marks carried in the reply (the datagram copies may have been lost)
        for mark in reply.marks:
            mark_entry = _mark_entry(mark)
            if _dedup_key(mark_entry) not in runtime.journal_keys:
                effects.append(Journal(runtime, mark_entry))
                self._apply_entry(runtime, mark_entry)
        result = None
        if not reply.ok:
            entry = {"type": "failure", "path": path, "exec": exec_index, "error": reply.error}
        elif reply.external:
            # the task parked itself awaiting an external completion; stop
            # the sweeper from re-dispatching it and remember it durably
            if flight_key in runtime.external:
                self.stats["duplicate_replies"] += 1
            else:
                entry = {"type": "external", "path": path, "exec": exec_index}
                effects.append(Journal(runtime, entry))
                self._apply_entry(runtime, entry)
            return effects  # nothing became ready
        else:
            # rebuilt once: journaled in its plain form, applied as it stands
            result = result_from_wire(reply.result)
            entry = {
                "type": "result", "path": path, "exec": exec_index,
                "result": result_to_plain(result),
            }
        effects.append(Journal(runtime, entry))
        self._apply_entry(runtime, entry, result)
        self._dispatch_pending(runtime, effects)
        return effects

    def _on_mark(self, mark: MarkRecord) -> List[Effect]:
        runtime = self.runtimes.get(mark.instance_id)
        if runtime is None or runtime.settled:
            return []  # a settled instance is closed (see _on_reply)
        entry = _mark_entry(mark)
        if _dedup_key(entry) in runtime.journal_keys:
            return []
        return self._record(runtime, entry)

    def _on_deadline(self, runtime: _Runtime, path: str, count: int) -> List[Effect]:
        """Fig. 3's abort-from-WAIT by timer (:meth:`_arm_deadlines`)."""
        if runtime.tree.status is not WorkflowStatus.RUNNING:
            return []
        task = runtime.tree.find(path)
        if (
            task is None
            or not task.alive
            or task.machine.state is not TaskState.WAIT
            or runtime.exec_counter.get(path, 0) != count
        ):
            return []
        return self._record(runtime, {"type": "force_abort", "path": path, "name": None})

    def _on_stagger(self, runtime: _Runtime, key: Tuple[str, int]) -> List[Effect]:
        """A staggered resend of a rebuilt flight (:meth:`_resume`) is due."""
        flight = runtime.in_flight.get(key)
        return [] if flight is None else [Dispatch(runtime, ((key, flight),))]

    def _on_overdue(
        self, runtime: _Runtime, key: Tuple[str, int], flight: _InFlight, now: float
    ) -> List[Effect]:
        """One sent flight at a sweep: hedge it once it earned a hedge, resend
        it ``dispatch_timeout`` after its send, abandon it past the cap."""
        overdue_at = flight.dispatched_at + self.dispatch_timeout
        if now < overdue_at:
            if (
                self.admission.allow_hedge()
                and not flight.hedged
                and flight.hedge_at is not None
                and flight.hedge_at <= now
            ):
                pinned = flight.request["template"].location
                if pinned in self.worker_names and flight.redispatches == 0:
                    flight.hedge_at = None  # honour the pin: no hedge
                else:
                    return [Dispatch(runtime, ((key, flight),), hedge=True)]
            return []
        for worker in list(flight.sent_to):
            if self.health.on_timeout(worker, now):
                self.stats["breaker_trips"] += 1
            self.rlog.record(now, "timeout", runtime.iid, key[0], worker)
        flight.sent_to.clear()
        if self.resilience.exhausted(flight.redispatches) and (
            flight.request["template"].code != "system.timer"
        ):
            return self._abandon(runtime, key, flight, now)
        flight.redispatches += 1
        self.stats["redispatches"] += 1
        return [Dispatch(runtime, ((key, flight),))]

    def _on_admin(self, runtime: _Runtime, entry: Dict[str, Any]) -> List[Effect]:
        """An administrative operation's entry (``reconfig``, ``force_abort``,
        an external task's ``result``), answered once it is durable."""
        effects = self._record(runtime, entry)
        effects += (Dispatch(runtime), Answer(True))
        return effects

    def _on_complete(self, runtime: _Runtime, task_path: str, output_name: str,
                     objects: Optional[Dict[str, Any]]) -> List[Effect]:
        task = runtime.tree.node_at(task_path)
        exec_index = runtime.exec_counter.get(task_path, 0)
        if (task_path, exec_index) not in runtime.external:
            raise ExecutionError(f"{task_path}: not awaiting an external completion")
        spec = declared_output(task.taskclass, output_name, task_path)
        result = TaskResult(spec.kind, output_name, dict(objects or {}))
        return self._on_admin(runtime, {
            "type": "result", "path": task_path, "exec": exec_index,
            "result": result_to_plain(result),
        })

    def _admit(self, compiled: _Compiled, root_task: str) -> Tuple[str, str]:
        """The admission verdict for a new instance of ``root_task``, taken
        BEFORE anything is persisted: a rejected arrival leaves no trace but
        the typed refusal, so the client's cooperative backoff is the whole
        cost.  Shed verdicts, by contrast, persist the instance and journal a
        decisive ``overloaded`` outcome — the caller gets an instance id whose
        fate is queryable, never a silent drop."""
        criticality = compiled.criticality(root_task)
        now = self._now()
        verdict = self.admission.decide(criticality, now)
        if verdict == "reject":
            hint = self.admission.retry_after(now)
            self.admission.on_reject(now, hint)
            self.stats["overload_rejections"] += 1
            raise Overloaded(
                f"{self.name}: admission queue full "
                f"({len(self.admission.queue)}/{self.overload.queue_capacity})",
                retry_after=hint,
            )
        return verdict, criticality

    def _on_instantiate(self, runtime: _Runtime, verdict: str, criticality: str) -> List[Effect]:
        """Start, queue or shed a new instance; answer its id."""
        iid = runtime.iid
        self.runtimes[iid] = self._live[iid] = runtime
        effects: List[Effect] = []
        if verdict == "shed":
            effects = self._shed(runtime, criticality, f"pressure {self.admission.pressure}")
        elif verdict == "queue":
            # flights stay built-but-unsent until a window slot frees up;
            # the sweeper skips unsent flights, so nothing retransmits early
            self.admission.enqueue(iid, criticality, self._now())
        else:
            self.admission.on_start(iid, self._now())
            self._dispatch_pending(runtime, effects)
        effects.append(Answer(iid))
        return effects

    def _shed(self, runtime: _Runtime, criticality: str, reason: str) -> List[Effect]:
        """Decisive ``overloaded`` outcome for a not-yet-started instance.

        Journaled before it takes effect like every other outcome, so replay
        and recovery reproduce the shed exactly
        (``tests/test_overload.py::TestShedding``).  Only instances that have
        not dispatched anything are ever shed — started work (flights,
        journaled progress) is never thrown away."""
        self.admission.on_shed(runtime.iid, criticality, self._now(), reason)
        self.stats["shed"] += 1
        entry = {"type": "overloaded", "reason": reason, "criticality": criticality}
        self._apply_entry(runtime, entry)
        # terminal outcome, nothing ever sent: durable before observable, closed
        return [Journal(runtime, entry), Dispatch(runtime, closes=True)]

    def _resume(self, runtime: _Runtime) -> List[Effect]:
        """Re-send every flight that survived a rebuild — crash recovery,
        promotion and import all come through here — and re-arm deadlines.

        Whatever is still in flight was unanswered when its coordinator
        stopped, so each goes out as a *redispatch*: the pin is abandoned
        (the original target may be what crashed) and the redispatch count
        carries on.  Not in one burst: each flight gets a deterministic
        offset inside ``recovery_stagger``; the hashed key includes the
        durable fencing epoch — which survives both restart and failover, as
        ``stats["recoveries"]`` does not — so successive recoveries stagger
        differently."""
        effects: List[Effect] = []
        now = self._now()
        for key, flight in sorted(runtime.in_flight.items(), key=lambda kv: kv[0]):
            flight.redispatches += 1
            # a zero ``recovery_stagger`` makes every offset zero
            delay = (
                0.0
                if flight.request["template"].code == "system.timer"
                else self.resilience.stagger(f"{runtime.iid}:{key[0]}:{key[1]}:{self.epoch}")
            )
            if delay <= 0.0:
                effects.append(Dispatch(runtime, ((key, flight),)))
                continue
            self.stats["staggered"] += 1
            self.rlog.record(now, "stagger", runtime.iid, key[0], detail=f"resend +{delay:.2f}")
            effects.append(Arm(("stagger", runtime, key), now + delay))
        if runtime.deadlines:
            self._arm_deadlines(runtime, effects, ())
        return effects

    # -- what an applied entry leads to ----------------------------------------------------

    def _record(self, runtime: _Runtime, entry: Dict[str, Any]) -> List[Effect]:
        """Apply ``entry``, journal it, dispatch what it made ready.  Applied
        first: an entry the tree refuses (an illegal ``reconfig`` or
        ``force_abort``) raises with no effect and nothing journaled — were
        it journaled, every later replay would raise on it."""
        self._apply_entry(runtime, entry)
        effects: List[Effect] = [Journal(runtime, entry)]
        self._dispatch_pending(runtime, effects)
        return effects

    def _dispatch_pending(self, runtime: _Runtime, effects: List[Effect]) -> None:
        if runtime.tree.ready_heap:  # a step that made nothing ready skips the drain
            self._drain(runtime)
        flights = ()
        if runtime.unsent and runtime.iid not in self.admission.queue:
            # an instance still waiting in the admission queue keeps its
            # flights built-but-unsent; promotion dispatches them
            flights, runtime.unsent = runtime.unsent, []
        if runtime.deadlines:  # a reconfiguration may introduce deadlines
            self._arm_deadlines(runtime, effects, flights)
        elif flights:
            effects.append(Dispatch(runtime, flights))
        if runtime.tree.status is not WorkflowStatus.RUNNING:
            # terminal barrier: the deciding entry must be durable before the
            # terminal state can be observed between events (see the
            # durability oracle); with no flight out, the same record closes
            # the journal
            effects.append(Dispatch(runtime, closes=not runtime.in_flight))
            # the terminal instance's window slot frees up: promote queued work
            self.admission.forget(runtime.iid)  # terminal while still queued
            self.admission.release(runtime.iid, self._now())
            self._promote_ready(effects)

    def _promote_ready(self, effects: List[Effect]) -> None:
        """Dispatch queued instances into freed window slots.

        Iterative with a re-entrancy guard: a promoted instance that is
        terminal frees its slot and would otherwise recurse back in here;
        the outer loop picks the freed slot up instead."""
        if self._promoting:
            return
        self._promoting = True
        try:
            while True:
                promoted = self.admission.promote_ready(self._now())
                if not promoted:
                    return
                for iid, _criticality, _sojourn in promoted:
                    runtime = self._live.get(iid)  # queued, so unsettled
                    if runtime is None:
                        self.admission.release(iid, self._now())
                        continue
                    self._dispatch_pending(runtime, effects)
        finally:
            self._promoting = False

    def _arm_deadlines(
        self, runtime: _Runtime, effects: List[Effect],
        flights: Sequence[Tuple[Tuple[str, int], _InFlight]],
    ) -> None:
        """Fig. 3's abort-from-WAIT by timer: a task whose ``deadline``
        implementation property expires while it still waits for inputs is
        force-aborted into its first abort outcome.  The abort is journaled,
        so recovery replays it.  Timers themselves are volatile, but the
        *absolute expiry* is journaled the first time a deadline is armed,
        so a recovered task resumes with its remaining deadline (and a
        deadline that lapsed during the outage fires immediately) instead of
        being granted a fresh full one.

        The expiries are journaled ahead of the step's dispatch of
        ``flights``, so that one barrier makes both durable; a step that
        sends nothing takes a barrier of its own.  The timers are armed after
        it: nothing is armed under an epoch the barrier deposed."""
        arms: List[Effect] = []
        journaled = False
        now = self._now()
        find = runtime.tree.find
        for path, delay in runtime.deadlines:
            task = find(path)
            if task is None or task.machine.state is not TaskState.WAIT:
                continue
            if not task.taskclass.outputs_of_kind(OutputKind.ABORT):
                continue
            # key by the per-path execution counter, which is unique across
            # compound repeat rounds (machine.starts is not)
            key = (path, runtime.exec_counter.get(path, 0))
            if key in runtime.armed_deadlines:
                continue
            expires_at = runtime.deadline_expiries.get(key)
            if expires_at is None:
                expires_at = now + delay
                entry = {
                    "type": "deadline", "path": path, "exec": key[1],
                    "expires_at": expires_at,
                }
                effects.append(Journal(runtime, entry))
                self._apply_entry(runtime, entry)
                journaled = True
            runtime.armed_deadlines.add(key)
            arms.append(Arm(("deadline", runtime) + key, now + max(0.0, expires_at - now)))
        if flights or journaled:
            # a deadline's absolute expiry must survive a crash for recovery
            # to resume the *remaining* deadline — a barrier right away
            effects.append(Dispatch(runtime, flights))
        effects += arms

    def _abandon(
        self, runtime: _Runtime, key: Tuple[str, int], flight: _InFlight, now: float
    ) -> List[Effect]:
        """The redispatch cap is spent: stop retransmitting and surface a
        system failure for the task.  From here the paper's §3 semantics take
        over — automatic retries per the task's ``retries`` property, then
        its first declared abort outcome — so the workflow still terminates
        decisively instead of retrying forever."""
        self.stats["abandoned"] += 1
        self.rlog.record(
            now, "abandon", runtime.iid, key[0],
            detail=f"redispatch cap ({flight.redispatches}) spent",
        )
        return self._record(runtime, {
            "type": "failure", "path": key[0], "exec": key[1],
            "error": f"dispatch abandoned after {flight.redispatches} redispatches",
        })

    # -- the instance ------------------------------------------------------------------------

    def _drain(self, runtime: _Runtime) -> None:
        """Begin execution of every ready task; queue the work requests."""
        now = self._now()  # constant within an event
        while True:
            taken = runtime.tree.begin_next()
            if taken is None:
                break
            task, (input_set, inputs) = taken
            exec_index = runtime.exec_counter.get(task.path, 0) + 1
            runtime.exec_counter[task.path] = exec_index
            request = work_request(
                runtime.iid, exec_index, task.template, input_set, inputs,
                task.attempt + 1, task.machine.repeats, self._origin, self.epoch,
            )
            key = (task.path, exec_index)
            flight = runtime.in_flight[key] = _InFlight(request, now)
            runtime.unsent.append((key, flight))

    def _apply_entry(
        self, runtime: _Runtime, entry: Dict[str, Any], result: Optional[TaskResult] = None
    ) -> None:
        """What one journal entry does to an instance — its dedup key, the
        flight it answers, the parked set, the tree.  The only definition:
        a live event comes here with the entry it journals,
        :meth:`ExecutionService._replay` with the stored ones.  ``result``:
        the :class:`TaskResult` a reply's ``result`` entry was journaled
        from, so only a replay decodes one."""
        kind = entry["type"]
        key = _dedup_key(entry)
        if key is not None:
            runtime.journal_keys.add(key)
        if kind == "deadline":
            # inert for the tree: remembers the absolute expiry so recovery
            # re-arms the timer with the *remaining* deadline
            runtime.deadline_expiries[(entry["path"], entry["exec"])] = entry[
                "expires_at"
            ]
            return
        if kind == "reconfig":
            compiled = _compiled(entry["script_text"])
            runtime.tree.reconfigure(compiled.script)  # raises without effect if illegal
            runtime.script = compiled.script
            runtime.deadlines = compiled.deadlines.get(runtime.tree.root.path, ())
            return
        if kind == "force_abort":
            runtime.tree.force_abort(entry["path"], entry.get("name"))
            return
        if kind == "overloaded":
            # decisive shed outcome: the whole instance fails terminally
            # before any of its tasks dispatched.  Clearing the flight table
            # keeps replay identical to the live path, where nothing was sent.
            runtime.in_flight.clear()
            runtime.unsent.clear()
            runtime.external.clear()
            runtime.tree.fail(f"overloaded: {entry['reason']}")
            return
        path = entry["path"]
        if kind != "mark":
            # result / failure / external answer a flight: workers still
            # carrying its wave are parked in _pending_acks, their late replies
            # keep feeding health (a plain pop for a flight a replay never sent)
            flight_key = (path, entry["exec"])
            self._resolve_flight(runtime, flight_key)
            if kind == "external":
                runtime.external.add(flight_key)
                return
            runtime.external.discard(flight_key)
        task = runtime.tree.find(path)
        if task is None:
            return
        if runtime.exec_counter.get(path) != entry["exec"]:
            return  # stale: a newer execution of this path supersedes it
        if kind == "mark":
            runtime.tree.apply_mark(task, entry["name"], refs_from_plain(entry["objects"]))
        elif kind == "result":
            try:
                runtime.tree.apply_result(
                    task, result if result is not None else result_from_plain(entry["result"])
                )
            except ExecutionError as exc:
                # the result did not match the task class signature: treat it
                # as a system failure (deterministic at replay too)
                runtime.tree.apply_failure(task, exc)
        else:
            runtime.tree.apply_failure(task, WorkflowError(entry["error"]))

    def _resolve_flight(self, runtime: _Runtime, flight_key: Tuple[str, int]) -> None:
        """Retire a flight; any other workers still carrying its current
        wave (hedge losers) are parked in ``_pending_acks`` so their late
        replies still feed the health registry."""
        flight = runtime.in_flight.pop(flight_key, None)
        if flight is not None:
            for worker, sent_at in flight.sent_to.items():
                self._pending_acks[
                    (runtime.iid, flight_key[0], flight_key[1], worker)
                ] = sent_at
            flight.sent_to.clear()
            # Hard cap behind the sweeper's age-based reaping: under sustained
            # overload hedge losers can accumulate faster than the horizon
            # drains them, and an unbounded table is exactly the kind of
            # hidden queue this layer exists to remove.  Oldest entries go
            # first — their workers already took the latency hit.
            if len(self._pending_acks) > _PENDING_ACK_CAP:
                overflow = sorted(
                    self._pending_acks.items(), key=lambda kv: (kv[1], kv[0])
                )[: len(self._pending_acks) - _PENDING_ACK_CAP]
                for ack_key, _sent_at in overflow:
                    del self._pending_acks[ack_key]

    def _settle(self, runtime: _Runtime) -> bool:
        """The one rule about finished instances (docs/PROTOCOLS.md §4.2).

        An instance is *settled* once it is terminal, has no flight out and
        none of its journal entries is still buffered: nothing can happen to
        it that its durable journal does not already say.  It then leaves
        ``_live`` and sheds everything a replay rebuilds (:meth:`_Runtime.shed`);
        ``runtimes`` keeps the summary.  Applied wherever a runtime may have
        finished — the sweeper, a rebuild's replay, an import.  Returns
        whether ``runtime`` is settled."""
        if (
            runtime.in_flight
            or runtime.tree.status is WorkflowStatus.RUNNING
            or self.journal.pending(runtime.iid)
        ):
            return False
        self._live.pop(runtime.iid, None)  # gone already after a mid-event demotion
        runtime.shed()
        return True


class ExecutionService(_Coordinator, Service):
    """The workflow execution service servant: the shell that performs what
    its :class:`_Coordinator` half decides."""

    def __init__(
        self, name: str, store: ObjectStore, broker: ObjectBroker, repository_name: str,
        worker_names: List[str], resilience: ResilienceConfig, sweep_interval: float = 10.0,
        dispatch_timeout: float = 30.0, overload: Optional[OverloadConfig] = None,
    ) -> None:
        super().__init__(name)
        self.store = store
        self.broker = broker
        self.repository_name = repository_name
        self.worker_names = list(worker_names)
        self.journal = JournalStore(store)
        self.sweep_interval = sweep_interval
        # a flight unanswered this long after its send is resent
        self.dispatch_timeout = dispatch_timeout
        self._jflush_armed = False
        self.resilience = resilience
        # every instance: the unsettled ones with their trees, the settled
        # ones as the summary _Runtime.shed leaves
        self.runtimes: Dict[str, _Runtime] = {}
        # the unsettled instances, in the same order — what the sweeper visits
        self._live: Dict[str, _Runtime] = {}
        # Fencing epoch: a durable incarnation counter stamped on every
        # journal entry and worker dispatch.  For a standalone service it
        # simply counts store-backed incarnations; under replication
        # (repro.replication) it is the lease epoch, and stale-epoch traffic
        # is rejected so a resurrected old primary cannot split-brain the
        # journal (docs/PROTOCOLS.md §12).
        self.epoch = 0
        self._sweep_armed = False
        self.stats = dict.fromkeys((
            "dispatches", "redispatches", "duplicate_replies", "recoveries", "hedges",
            "breaker_trips", "abandoned", "failovers", "staggered", "fenced_replies",
            "shed", "overload_rejections",
        ), 0)
        self.rlog = ResilienceLog()
        self.health = HealthRegistry(self.worker_names, self.resilience, self.rlog)
        # Overload layer (docs/PROTOCOLS.md §13): bounded admission queue,
        # delay-gradient concurrency window, priority shedding.  Defaults are
        # generous enough that lightly loaded systems never notice it.
        self.overload = overload or OverloadConfig()
        self.admission = AdmissionController(self.overload, self.rlog)
        self._promoting = False  # re-entrancy guard for _promote_ready
        # hedge losers: sends still awaiting a (late) reply after their
        # flight resolved, kept so the reply credits the worker's health
        self._pending_acks: Dict[Tuple[str, str, int, str], float] = {}
        # readers of the former stored index (benchmarks/bench) still find it
        store.derive("instance-index", self.journal.instances)
        # the one clock reading, in C with no Python frame (every tree event
        # is stamped with it); float() reads 0.0 until the service is bound
        self._now: Callable[[], float] = float
        self._origin = ""  # the node name a work request asks replies to
        # called with each effect the shell performed (tests read the
        # Dispatch records here); None: nobody is listening
        self.tap: Optional[Callable[[Effect], None]] = None

    def bind(self, node: Node) -> None:
        super().bind(node)
        self._now = partial(getattr, node.clock, "now")
        self._origin = node.name

    # -- life-cycle -------------------------------------------------------------------

    def on_start(self) -> None:
        self.epoch = self._advance_epoch()
        self._arm_sweeper()

    def on_recover(self) -> None:
        """Rebuild every instance from its durable journal (the crux of the
        paper's fault-tolerance story).  The health registry is volatile by
        design: the recovered coordinator relearns the fleet."""
        self.stats["recoveries"] += 1
        self.epoch = self._advance_epoch()
        self._reset_volatile()
        self._sweep_armed = self._jflush_armed = False  # timers died with the crash
        self._rebuild()
        self._arm_sweeper()

    def _reset_volatile(self) -> None:
        """Forget what does not outlive a process or a reign: every runtime,
        what the fleet was observed to do, and the journal entries still
        buffered, as volatile as the tree state they described — the durable
        journal is truth."""
        self.runtimes = {}
        self._live = {}
        self.health.reset()
        self._pending_acks.clear()
        self.journal.discard()

    def _rebuild(self) -> None:
        """Take in every instance of the store — what a crash recovery and a
        standby's promotion both are.  A closed one costs its key (its summary
        waits for a reader), an open one a replay: bounded by what was running."""
        restore = self._summary  # one bound method for every closed instance
        for iid in self.journal.instances():
            if self.journal.closed(iid):
                self.runtimes[iid] = _ClosedRuntime(iid, restore)
            elif not self._adopt(self._replay(iid)):
                return  # the barrier of a resend deposed us: a standby holds nothing
        # Admission state is volatile: the queue died with the process or the
        # old primary, so every rebuilt non-terminal instance counts as admitted
        # (durable work, already re-sent) and the controller restarts unpressured.
        self.admission.rebuild(self._running(), self._now())

    def _advance_epoch(self) -> int:
        """Durably advance the fencing epoch for this incarnation.

        The counter lives in the service's own store so a recovered service
        never reuses an epoch it already journaled under — the property the
        recovery stagger key and the single-writer-per-epoch oracle rely
        on.  Replicated services override this: their epoch is the
        lease epoch, granted by the lease service."""
        advanced = self.store.get_committed("exec-epoch", 0) + 1
        self.store.commit_batch({"exec-epoch": advanced})
        self.store.sync()
        return advanced

    def is_primary(self) -> bool:
        """Whether this service currently owns its instances' journals.  A
        standalone service always does; replicated standbys return False and
        stay passive (no dispatch, no journaling) until promoted."""
        return True

    def replication_settled(self) -> bool:
        """Whether every durability barrier taken so far is also replicated
        (trivially true without replication).  The harness gates its
        durability observations on this: an outcome only counts as
        *acknowledged* once no single failure can lose it."""
        return True

    def _post_barrier(self) -> None:
        """Hook run after every durability barrier and before every answer;
        replication ships the newly durable log suffix here.  No-op
        standalone."""

    # -- ORB operations ---------------------------------------------------------------------

    def instantiate(self, script_name: str, root_task: str, input_set: str = "main",
                    inputs: Optional[Dict[str, Any]] = None) -> str:
        """Create and start a workflow instance from a stored script."""
        text = self.broker.invoke(
            self.node, self.repository_name, "get_script", script_name
        )
        compiled = _compiled(text)
        verdict, criticality = self._admit(compiled, root_task)
        iid, spec = self.journal.create(
            compiled.digest, text, root_task, input_set, inputs
        )
        runtime = self._fresh_runtime(iid, spec)
        return self._perform("instantiate", self._on_instantiate(runtime, verdict, criticality))

    def status(self, iid: str) -> Dict[str, Any]:
        runtime = self._runtime(iid)
        tree = runtime.tree
        status = tree.status
        if (
            status is WorkflowStatus.RUNNING
            and not runtime.in_flight
            and not runtime.external
            and not tree.has_work()
        ):
            status = WorkflowStatus.STALLED
        return {
            "instance": iid,
            "status": status.value,
            "outcome": tree.root.machine.outcome,
            "error": tree.error,
            "events": len(tree.log),
            "in_flight": len(runtime.in_flight),
            "awaiting_external": len(runtime.external),
        }

    def result(self, iid: str) -> Dict[str, Any]:
        runtime = self._runtime(iid)
        tree = runtime.tree
        objects, marks = tree.log.outputs_of(tree.root.path)
        return {
            "instance": iid,
            "status": tree.status.value,
            "outcome": tree.root.machine.outcome,
            "objects": refs_to_plain(objects),
            "marks": [
                {"name": name, "objects": refs_to_plain(released)} for name, released in marks
            ],
            "error": tree.error,
        }

    def list_instances(self) -> List[str]:
        return sorted(self.runtimes)

    def reconfigure(self, iid: str, new_script_text: str) -> bool:
        """Atomically apply a modified script to the *running* instance.  The
        journal stores the text once per version, like a deployed one's: a
        digest that already names other text is refused before anything is
        applied or logged."""
        runtime = self._full_runtime(iid)
        self.journal.check_script(new_script_text)
        return self._perform(
            "admin", self._on_admin(runtime, {"type": "reconfig", "script_text": new_script_text})
        )

    def force_abort(self, iid: str, task_path: str, abort_name: Optional[str] = None) -> bool:
        """Abort the waiting task at ``task_path`` into ``abort_name`` (its
        class's first abort outcome when ``None``).  The path is journaled
        as the node's own (``"/pipeline/t2"`` as ``"pipeline/t2"``), which
        is what the journal stores below the instance's root."""
        runtime = self._full_runtime(iid)
        return self._perform("admin", self._on_admin(
            runtime,
            {"type": "force_abort", "path": runtime.tree.node_at(task_path).path,
             "name": abort_name},
        ))

    def complete_task(self, iid: str, task_path: str, output_name: str,
                      objects: Optional[Dict[str, Any]] = None) -> bool:
        """Supply the outcome of a parked external task (§1's interactive
        tasks).  Journaled like a worker result, so it survives crashes."""
        return self._perform("complete", self._on_complete(
            self._full_runtime(iid), task_path, output_name, objects
        ))

    def external_tasks(self, iid: str) -> List[str]:
        """Paths of tasks parked awaiting an external completion."""
        return sorted(path for path, _exec in self._runtime(iid).external)

    def tasks(self, iid: str) -> List[Dict[str, Any]]:
        """Per-task-instance states: the admin console's detail view."""
        runtime = self._full_runtime(iid)
        rows: List[Dict[str, Any]] = []
        for node in runtime.tree.walk():
            machine, key = node.machine, (node.path, runtime.exec_counter.get(node.path))
            rows.append({
                "path": node.path, "taskclass": node.taskclass.name,
                "compound": node.is_compound, "state": machine.state.value,
                "outcome": machine.outcome, "starts": machine.starts,
                "repeats": machine.repeats, "marks": list(machine.marks_emitted),
                "in_flight": key in runtime.in_flight,
                "awaiting_external": key in runtime.external,
            })
        return rows

    def trace(self, iid: str) -> str:
        """Human-readable chronological trace (the Fig. 4 monitoring view),
        followed by the dispatch layer's resilience decisions for the
        instance (redispatches, hedges, breaker transitions, failovers)."""
        from ..engine.trace import render_trace

        trace = render_trace(self._full_runtime(iid).tree.log)
        resilience = render_resilience(self.rlog.for_instance(iid))
        return f"{trace}\n\n{resilience}" if resilience else trace

    def resilience_report(self) -> Dict[str, Any]:
        """Operator view of the dispatch layer: cumulative stats, per-worker
        health (breaker state, EWMA latency, streaks) and event counts."""
        now = self._now()
        return {
            "stats": dict(self.stats),
            "workers": self.health.snapshot(now),
            "events": self.rlog.summary(),
            "overload": self.admission.report(),
        }

    def export_instance(self, iid: str) -> Dict[str, Any]:
        """Portable snapshot of an instance
        (:meth:`Journal.snapshot <repro.services.journal.Journal.snapshot>`).

        Because the journal is the instance (everything else replays
        deterministically), this is all another execution service needs to
        adopt the workflow — coordinator migration, the strongest form of
        the paper's "services being moved" motivation.
        """
        self._runtime(iid)  # an unknown id is refused
        self.flush_journal()  # export the full history, not a prefix
        return self.journal.snapshot(iid)

    def import_instance(self, snapshot: Dict[str, Any]) -> str:
        """Adopt an exported instance: persist its state locally, replay the
        journal, resume scheduling.  The id is preserved; importing an id
        this service already runs is refused."""
        iid = snapshot["instance"]
        if iid in self.runtimes:
            raise ExecutionError(f"{iid}: already present on this execution service")
        self.journal.adopt(snapshot, _compiled(snapshot["meta"]["script_text"]).digest)
        runtime = self._replay(iid)
        if runtime.tree.status is WorkflowStatus.RUNNING:
            # adopted work is already paid for: it bypasses the admission
            # queue and takes a window slot directly
            self.admission.on_start(iid, self._now())
        self._adopt(runtime)
        return self._perform("admin", [Answer(iid)])

    def compact(self) -> int:
        """Checkpoint the durable store: fold the WAL into a snapshot.

        Long-running instances accumulate journal entries; compaction bounds
        recovery time without losing any instance (the journal entries are
        ordinary committed objects, so they live inside the checkpoint — as
        does each script version, once, however many specs name it).
        Returns the number of live log records after compaction.
        """
        self.flush_journal()  # fold buffered entries into the checkpoint
        self.store.checkpoint()
        return len(self.store.wal)

    # -- input events: each decided, then performed ------------------------------------------

    def on_message(self, message: Message) -> None:
        if isinstance(message.payload, MarkRecord):
            self._handle_mark(message.payload)

    def _handle_mark(self, mark: MarkRecord) -> None:
        if self.is_primary():  # demoted: the current primary owns this instance now
            self._perform("mark", self._on_mark(mark))

    def _handle_replies(self, replies: Tuple[WorkReply, ...]) -> None:
        """One reply leg of a worker: each reply is handled as if it had
        come alone."""
        for reply in replies:
            self._handle_reply(reply.instance_id, reply)

    def _handle_reply(self, iid: str, reply: WorkReply) -> None:
        if self.is_primary():  # demoted: late replies belong to the current primary
            self._perform("reply", self._on_reply(iid, reply))

    def _fire(self, key: Tuple) -> None:
        """The one timer entry (an :class:`Arm` record's key): a crashed
        node's timers never fire (``Node.call_at``), and only a primary acts
        on one — but for the journal window, which commits what a deposed
        primary still buffered."""
        kind = key[0]
        if kind == "window":
            self._jflush_armed = False
            self.flush_journal()
        elif kind == "timer":
            self._handle_reply(*key[1:])  # a timer task's reply, handled as any
        elif not self.is_primary():
            if kind == "sweep":
                self._sweep_armed = False  # the chain dies; promotion re-arms it
        elif kind == "sweep":
            alive = self._sweep()
            self._sweep_armed = False
            if alive:
                self._arm_sweeper()
        elif self.runtimes.get(key[1].iid) is not key[1]:
            pass  # the runtime was superseded by a rebuild, or dropped at a demotion
        elif kind == "deadline":
            self._perform("deadline", self._on_deadline(*key[1:]))
        else:
            self._perform("stagger", self._on_stagger(*key[1:]))

    def _sweep(self) -> bool:
        """The sweeper's round: the overload controller's tick, then each
        sent flight decided (:meth:`_on_overdue`) and performed on its own —
        a resend's route reads the health the timeouts before it wrote.
        Returns False when a barrier deposed the service mid-round."""
        now = self._now()
        # Overload controller tick: adjust the window from the sojourn
        # signal, shed queued low-criticality work once pressure says so,
        # and promote into any headroom the adjustment opened up.
        self.admission.control(now)
        for victim_iid, victim_class in self.admission.evict_low(now):
            victim = self._live.get(victim_iid)  # queued, so unsettled
            if victim is not None:
                self._perform("shed", self._shed(
                    victim, victim_class,
                    f"evicted from queue at pressure {self.admission.pressure}",
                ))
        promoted: List[Effect] = []
        self._promote_ready(promoted)
        self._perform("promote", promoted)
        for runtime in list(self._live.values()):
            if not runtime.in_flight:
                self._settle(runtime)
                continue
            for key, flight in list(runtime.in_flight.items()):
                if key in runtime.in_flight and flight.sent and not self._perform(
                    "overdue", self._on_overdue(runtime, key, flight, now)
                ):
                    return False  # a send's barrier deposed us and dropped every runtime
        if self._pending_acks:
            # hedge losers that never replied: count the timeout so a
            # dead hedge target still trips its breaker
            for ack_key, sent_at in list(self._pending_acks.items()):
                if now - sent_at >= self.dispatch_timeout:
                    del self._pending_acks[ack_key]
                    if self.health.on_timeout(ack_key[3], now):
                        self.stats["breaker_trips"] += 1
        return True

    # -- the shell -----------------------------------------------------------------------------

    def _perform(self, event: str, effects: List[Effect]) -> Any:
        """Carry out what the coordinator decided on ``event`` (its kind, one
        of :data:`repro.sim.crashpoints.EVENTS`), in order: a
        :class:`Journal` record is buffered, a :class:`Dispatch` takes the
        durability barrier, re-checks primacy and sends, an :class:`Arm`
        arms its timer, an :class:`Answer` ships what is durable
        (:meth:`_post_barrier`), re-checks primacy and is returned.  A barrier
        that deposed the service ends the list — nothing more is journaled,
        sent or armed under the stale epoch — and refuses an answer due with
        ``Fenced``.  Returns the answer, else whether the service is still
        primary.  An exception flushes what is buffered: the tree applied
        it, and must not run ahead of the journal (a ``SimulatedCrash``, a
        BaseException, loses both).  Each effect's sides are crash points
        (:func:`repro.sim.crashpoints.offer`)."""
        try:
            for effect in effects:
                kind = type(effect)
                if crashpoints._active is not None:
                    crashpoints.offer(event, kind.__name__, "pre", self)
                if kind is Journal:
                    self._journal(*effect)
                elif kind is Arm:
                    self._arm(*effect)
                else:
                    if kind is Dispatch:
                        self.flush_journal((effect.runtime.iid,) if effect.closes else ())
                    else:
                        self._post_barrier()
                    if not self.is_primary():
                        if type(effects[-1]) is Answer:
                            raise Fenced(
                                f"{self.name}: demoted while serving "
                                f"(epoch {self.epoch} superseded)"
                            )
                        return False
                    if kind is Answer:
                        return effect.value
                    if crashpoints._active is not None:
                        crashpoints.offer(event, kind.__name__, "forced", self)
                    if effect.flights:
                        self._post(*effect[:3])
                if crashpoints._active is not None:
                    crashpoints.offer(event, kind.__name__, "post", self)
                if self.tap is not None:
                    self.tap(effect)
        except Exception:
            self.flush_journal()
            raise
        return True

    def _journal(self, runtime: _Runtime, entry: Dict[str, Any]) -> None:
        # Provenance stamp: which incarnation wrote this entry.  Inert for
        # dedup keys and replay; the single-writer-per-epoch oracle
        # (sim/oracles.py) audits these fields across failovers.
        entry["epoch"] = self.epoch
        entry["writer"] = self.name
        if runtime.iid not in self._live:
            # a settled instance is written to again (through the runtime
            # _full_runtime handed out): that runtime is the instance now
            self.runtimes[runtime.iid] = self._live[runtime.iid] = runtime
        tail = runtime.tail
        if runtime.tree.status is not WorkflowStatus.RUNNING:
            # terminal for good: each barrier that touches it from now on
            # seals its meta with the exact length (the decide half has run,
            # so this is the tree the barrier leaves)
            tail.ended = True
        self.journal.append(runtime.iid, entry, tail)  # durable at the next barrier
        if not self._jflush_armed and self.node is not None and self.node.alive:
            # bound how long a buffered entry may stay volatile: one flush
            # timer per non-empty buffer, armed when the first entry lands
            self._jflush_armed = True
            self._arm(("window",), self._now() + _JOURNAL_WINDOW)

    def flush_journal(self, closed: Collection[str] = ()) -> int:
        """Durability barrier: commit every buffered journal entry
        (:meth:`Journal.commit <repro.services.journal.Journal.commit>`: one
        WAL record, one force, one fsync), then let replication ship the
        newly durable suffix.  Taken once before each batch of dependent
        dispatches, when an instance reaches a terminal state, in every
        public mutating operation, and at the latest ``_JOURNAL_WINDOW`` simulated seconds
        after the first buffered entry; recovery, replay and exactly-once
        dedup are as if each entry were committed as it is produced.
        ``closed``: the instances the barrier leaves terminal with no flight
        out.  Returns the number of entries made durable."""
        flushed = self.journal.commit(closed) if self.journal.rows else 0
        self._post_barrier()  # even when empty: any unshipped suffix goes out
        return flushed

    def _post(
        self, runtime: _Runtime, flights: Sequence[Tuple[Tuple[str, int], _InFlight]],
        hedge: bool = False,
    ) -> None:
        """Send ``flights`` behind a barrier already taken: each flight
        routed and accounted on its own (:meth:`_send`), then one work
        message per worker carrying that worker's requests in first-routed
        order.  A drained batch posts once; the sweeper, a resumed flight
        and a stagger timer post one flight each.  The barrier comes first
        because a dispatched task's execution (and eventual reply) depends on
        every journal entry that made it ready: were the send to outrun the
        journal, a crash could replay a shorter journal while the reply to
        the *longer* history arrives and is deduped — wedging the instance."""
        outbox: Dict[str, List[WorkRequest]] = {}
        for key, flight in flights:
            self._send(runtime, key, flight, outbox, hedge)
        for worker, requests in outbox.items():
            try:
                self.broker.invoke_deferred(
                    self.node, worker, "perform", (tuple(requests),),
                    on_reply=self._handle_replies,
                )
            except CommFailure:
                pass  # sweeper retries

    def _send(self, runtime: _Runtime, key: Tuple[str, int], flight: _InFlight,
              outbox: Dict[str, List[WorkRequest]], hedge: bool = False) -> None:
        """One flight's part of a :meth:`_post`: its route, its accounting
        and its request, added to ``outbox`` under the chosen worker."""
        now = self._now()
        template = flight.request["template"]
        if template.code == "system.timer":
            # Built-in timer tasks (§4.2: "a set for an exceptional input
            # such as a timer enabling a task to wait for normal inputs with
            # a timeout") never go to a worker: the service answers their
            # first declared outcome after the ``delay`` property elapses,
            # through the ordinary reply path — journaled and crash-safe;
            # after a recovery the in-flight timer is simply re-armed.
            flight.sent = True
            # keep the sweeper quiet until the timer is genuinely overdue
            flight.dispatched_at = now + template.delay
            flight.hedge_at = None  # timer tasks never go to a worker: no hedging
            outcomes = TaskClass.from_wire(template.taskclass).outputs_of_kind(OutputKind.OUTCOME)
            if outcomes:
                result = TaskResult(OutputKind.OUTCOME, outcomes[0].name, {})
                reply = work_reply(runtime.iid, key[0], key[1], None, True, result, (), None)
            else:
                reply = work_reply(
                    runtime.iid, key[0], key[1], None, False, None, (),
                    "system.timer task class declares no outcome",
                )
            self._arm(("timer", runtime.iid, reply), now + template.delay)
            return
        if not self.worker_names:
            raise ExecutionError("no workers configured")
        # stamp at send time, not build time: a flight drained before a
        # promotion must carry the promoted epoch when it finally goes out
        # (a request is read-only once proven: the new epoch makes a new one)
        if flight.request["epoch"] != self.epoch:
            flight.request = type(flight.request)(flight.request, epoch=self.epoch)
        cfg = self.resilience
        worker = self._route(runtime, key, flight, hedge, now)
        if worker is None:
            return  # hedge with no distinct worker available: skip
        if hedge:
            flight.hedged = True
            self.stats["hedges"] += 1
            self.rlog.record(now, "hedge", runtime.iid, key[0], worker)
        else:
            flight.dispatched_at = now
            flight.sent = True
            flight.hedge_at = (
                now + cfg.hedge_delay
                if cfg.hedge_delay is not None and not flight.hedged
                else None
            )
            self.rlog.record(
                now, "redispatch" if flight.redispatches else "dispatch", runtime.iid,
                key[0], worker, detail=f"attempt {flight.redispatches + 1}",
            )
        self.health.on_dispatch(worker, now)
        flight.sent_to[worker] = now
        self.stats["dispatches"] += 1
        outbox.setdefault(worker, []).append(flight.request)

    def _route(self, runtime: _Runtime, key: Tuple[str, int], flight: _InFlight,
               hedge: bool, now: float) -> Optional[str]:
        """Health-aware worker choice.

        The `location` implementation property pins the *first* attempt
        (§4.3's placement keywords) — unless the pinned worker's breaker is
        open, in which case the pin fails over immediately to the healthiest
        alternative (recorded as a ``failover`` event) rather than burning a
        whole timeout on a known-bad worker.  Redispatches abandon the pin
        entirely, as before.  Hedges exclude workers already carrying this
        flight's current wave.
        """
        pinned = flight.request["template"].location
        if not hedge and pinned in self.worker_names and flight.redispatches == 0:
            if self.health.allows(pinned, now):
                return pinned
            alternative = self.health.route(now, exclude={pinned})
            self.stats["failovers"] += 1
            self.rlog.record(
                now, "failover", runtime.iid, key[0], alternative or pinned,
                detail=f"pin {pinned} breaker open",
            )
            return alternative or pinned
        exclude = set(flight.sent_to) if hedge else ()
        return self.health.route(now, exclude=exclude)

    def _arm(self, key: Tuple, at: float) -> None:
        self.node.call_at(at, partial(self._fire, key), label=f"{self.name}:{key[0]}")

    def _arm_sweeper(self) -> None:
        if self.node is None or not self.node.alive or self._sweep_armed:
            return
        self._sweep_armed = True
        self._arm(("sweep",), self._now() + self.sweep_interval)

    # -- recovery -----------------------------------------------------------------------------------

    def _fresh_runtime(self, iid: str, spec: Dict[str, Any]) -> _Runtime:
        """A started tree for ``spec``, built on the script's shared plan
        (compiled here, at the first instance of the script)."""
        text = self.journal.script_text(spec["script"])
        if text is None:
            raise ExecutionError(f"{iid}: script {spec['script']} is not in the store")
        compiled = _compiled(text)
        script = compiled.script
        if compiled.plan is None:
            compiled.plan = compile_plan(script)
        tree = self._new_tree(script, spec["root_task"], compiled.plan)
        runtime = _Runtime(iid, script, tree)
        runtime.deadlines = compiled.deadlines.get(spec["root_task"], ())
        tree.start(spec["input_set"], spec["inputs"])
        self._drain(runtime)
        return runtime

    def _new_tree(self, script: Script, root_task: str, plan: ExecutionPlan) -> InstanceTree:
        """The one place this service builds an instance tree, unstarted;
        ``Sanitizer.attach_service`` wraps it to watch every root start."""
        return InstanceTree(script, root_task, now=self._now, plan=plan)

    def _replay(self, iid: str) -> Optional[_Runtime]:
        """A fresh runtime on ``iid``'s stored spec, brought up to its stored
        journal; ``None`` when the store holds no such instance.  The only
        replay: a rebuild's open instances, import, a settled instance's
        summary or detail view and the oracles."""
        spec = self.journal.spec(iid)
        if spec is None:
            return None
        runtime = self._fresh_runtime(iid, spec)
        entries = self.journal.entries(iid)
        for entry in entries:
            self._apply_entry(runtime, entry)
            self._drain(runtime)
        runtime.unsent.clear()  # a replay's flights go out by _resume
        runtime.tail = Tail.after(spec["root_task"], entries)
        return runtime

    def _adopt(self, runtime: _Runtime) -> bool:
        """Take in a runtime replayed from a journal.  A finished one is
        settled on the spot, so a recovery holds one finished tree at a time;
        an unfinished one has its flights re-sent and its deadlines re-armed.
        Returns whether the service is still primary."""
        self.runtimes[runtime.iid] = self._live[runtime.iid] = runtime
        return self._settle(runtime) or self._perform("resume", self._resume(runtime))

    # -- settled instances ----------------------------------------------------------------------------

    def _running(self) -> List[str]:
        return [
            iid
            for iid, runtime in self._live.items()
            if runtime.tree.status is WorkflowStatus.RUNNING
        ]

    def _runtime(self, iid: str) -> _Runtime:
        """What ``runtimes`` holds of ``iid`` — the summary, if it is settled."""
        try:
            return self.runtimes[iid]
        except KeyError:
            raise ExecutionError(f"unknown workflow instance {iid!r}") from None

    def _summary(self, iid: str) -> Tuple[SettledTree, Set[Tuple[str, int]]]:
        """What a settled runtime keeps of ``iid``, from one replay."""
        shadow = self._replay(iid)
        return shadow.tree.shed(), shadow.external

    def _full_runtime(self, iid: str) -> _Runtime:
        """The instance with its tree.  For a settled instance that is a
        fresh replay of its journal, which nothing keeps: a detail view reads
        it and drops it, and an operation that journals through it makes it
        the instance again (:meth:`_journal`)."""
        runtime = self._runtime(iid)
        return self._replay(iid) if runtime.settled else runtime
