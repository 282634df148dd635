"""Workflow Execution Service (paper Fig. 4).

Coordinates workflow instances with the paper's system-level guarantees:

* **Durable coordination state.**  Everything needed to reconstruct an
  instance — script text, initial inputs, and a journal of task results,
  marks, failures, reconfigurations and forced aborts — is recorded in
  persistent atomic objects, atomically and durably, *before* it takes
  effect on the in-memory instance tree.  This is the paper's "records
  inter-task dependencies in persistent atomic objects and uses atomic
  transactions for propagating coordination information".  The objects, the
  records that commit them and every read of them belong to one
  :class:`~repro.services.journal.Journal` per store; this module never
  names a stored key.
* **One definition of a step.**  What a journal entry does to an instance —
  its dedup key, the flight it answers, the parked set, the tree — is
  :meth:`ExecutionService._apply_entry` and nothing else: the live handlers
  journal an entry and apply it, and :meth:`ExecutionService._replay` applies
  the stored ones to a fresh tree, for crash recovery, a standby's
  promotion, import, detail views and the oracles alike.
* **Crash recovery.**  After a node crash, :meth:`on_recover` replays each
  open instance's journal over a fresh tree; because scheduling is
  deterministic, the rebuilt tree reaches exactly the pre-crash state, and
  still-unfinished tasks are re-dispatched.  An instance the journal marks
  *closed* is not replayed: recovery is bounded by what was running.
* **Derived state is restored, not kept.**  A *settled* instance — terminal,
  journal flushed, no flight out (:meth:`ExecutionService._settle`) — sheds
  its tree, event bodies, dedup keys and counters and stays in ``runtimes``
  as a summary that answers ``status``, ``result`` and every poller; a detail
  view or a late administrative operation replays the journal, the way
  recovery does.  Memory follows what is live, not what ever ran.
* **At-least-once dispatch, exactly-once application.**  Tasks are dispatched
  to worker nodes through deferred ORB invocations (which ride the lossy
  network); a periodic sweeper re-dispatches anything unanswered; duplicate
  replies are deduplicated against the journal.
* **Adaptive dispatch resilience** (:mod:`repro.resilience`): a flight
  unanswered ``dispatch_timeout`` after its send is resent; routing is
  health-aware (EWMA latency, in-flight counts, per-worker circuit breakers)
  instead of blind rotation; slow flights are optionally *hedged* —
  duplicated to a second worker, safe because the journal applies exactly
  one reply; a flight past its redispatch cap is abandoned into an ordinary
  system failure.
* **Automatic retries** of tasks that fail for system-level reasons, with the
  retry budget from the task's ``retries`` implementation property (§3).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Collection, Dict, List, Optional, Sequence, Set, Tuple, Union

from ..core.errors import ExecutionError, WorkflowError
from ..core.schema import OutputKind, Script, TaskClass
from ..core.states import TaskState
from ..engine.context import TaskResult, declared_output
from ..engine.events import WorkflowStatus
from ..engine.instance import InstanceTree, SettledTree
from ..engine.plan import ExecutionPlan, compile_plan
from ..lang import compile_script
from ..net.node import Message, Node, Service
from ..orb.broker import CommFailure, Interface, ObjectBroker, Overloaded
from ..overload import AdmissionController, OverloadConfig, criticality_of
from ..resilience import HealthRegistry, ResilienceConfig, ResilienceLog
from ..sim.crashpoints import crash_point
from ..txn.store import ObjectStore
from .journal import Journal, script_digest
from .serialization import (
    ref_to_plain,
    refs_from_plain,
    refs_to_plain,
    result_from_plain,
    result_from_wire,
    result_to_plain,
)
from .worker import MarkRecord, WorkReply, WorkRequest, work_reply, work_request

EXECUTION_INTERFACE = Interface(
    "WorkflowExecution",
    (
        "instantiate",
        "status",
        "result",
        "list_instances",
        "reconfigure",
        "force_abort",
        "complete_task",
        "external_tasks",
        "trace",
        "tasks",
        "compact",
        "export_instance",
        "import_instance",
        "resilience_report",
    ),
)


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
        "iid", "script", "tree", "in_flight", "external", "has_deadlines",
        "journal_keys", "unsent", "armed_deadlines",
        "deadline_expiries", "exec_counter",
    )

    def __init__(self, iid: str, script: Script, tree: InstanceTree) -> None:
        self.iid = iid
        self.script = script
        self.tree: Union[InstanceTree, SettledTree] = tree
        self.in_flight: Dict[Tuple[str, int], _InFlight] = {}
        self.external: Set[Tuple[str, int]] = set()  # parked tasks
        # the current script's _Compiled.has_deadlines (a reconfiguration may
        # introduce deadlines)
        self.has_deadlines = True
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

    @property
    def settled(self) -> bool:
        return isinstance(self.tree, SettledTree)

    def shed(self) -> None:
        """Drop everything a replay of the journal rebuilds.  In place, so a
        timer closure still holding this runtime holds the summary too."""
        self.tree = self.tree.shed()
        del (
            self.journal_keys, self.unsent,
            self.armed_deadlines, self.deadline_expiries,
            self.exec_counter,
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
    # False when no task declaration carries a ``deadline`` implementation
    # property: _arm_deadlines can skip its whole-tree walk
    has_deadlines: bool
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
        "type": "mark",
        "path": mark.task_path,
        "exec": mark.execution_index,
        "name": mark.name,
        "objects": {name: ref_to_plain(ref) for name, ref in mark.objects},
    }


def _dedup_key(entry: Dict[str, Any]) -> Optional[Tuple]:
    """The exactly-once identity of a journal entry: a handler refuses an
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
        compiled = _Compiled(
            script,
            script_digest(text),
            has_deadlines=any(
                decl.implementation.deadline is not None
                for _path, decl in script.walk_tasks()
            ),
        )
        if len(_COMPILE_CACHE) >= _COMPILE_CACHE_MAX:
            _COMPILE_CACHE.popitem(last=False)
        _COMPILE_CACHE[text] = compiled
    else:
        _COMPILE_CACHE.move_to_end(text)
    return compiled


class ExecutionService(Service):
    """The workflow execution service servant."""

    def __init__(
        self,
        name: str,
        store: ObjectStore,
        broker: ObjectBroker,
        repository_name: str,
        worker_names: List[str],
        resilience: ResilienceConfig,
        sweep_interval: float = 10.0,
        dispatch_timeout: float = 30.0,
        overload: Optional[OverloadConfig] = None,
    ) -> None:
        super().__init__(name)
        self.store = store
        self.broker = broker
        self.repository_name = repository_name
        self.worker_names = list(worker_names)
        self.journal = Journal(store)
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
        self.stats = {
            "dispatches": 0,
            "redispatches": 0,
            "duplicate_replies": 0,
            "recoveries": 0,
            "hedges": 0,
            "breaker_trips": 0,
            "abandoned": 0,
            "failovers": 0,
            "staggered": 0,
            "fenced_replies": 0,
            "shed": 0,
            "overload_rejections": 0,
        }
        self.rlog = ResilienceLog()
        self.health = HealthRegistry(
            self.worker_names, self.resilience, log=self.rlog, stats=self.stats
        )
        # Overload layer (docs/PROTOCOLS.md §13): bounded admission queue,
        # delay-gradient concurrency window, priority shedding.  Defaults are
        # generous enough that lightly loaded systems never notice it.
        self.overload = overload or OverloadConfig()
        self.admission = AdmissionController(self.overload, rlog=self.rlog)
        self._promoting = False  # re-entrancy guard for _promote_ready
        # hedge losers: sends still awaiting a (late) reply after their
        # flight resolved, kept so the reply credits the worker's health
        self._pending_acks: Dict[Tuple[str, str, int, str], float] = {}
        # readers of the former stored index (benchmarks/bench) still find it
        store.derive("instance-index", self.journal.instances)
        # the one clock reading, in C with no Python frame (every tree event
        # is stamped with it); float() reads 0.0 until the service is bound
        self._now: Callable[[], float] = float

    def bind(self, node: Node) -> None:
        super().bind(node)
        self._now = partial(getattr, node.clock, "now")

    # -- life-cycle -------------------------------------------------------------------

    def on_start(self) -> None:
        self.epoch = self._advance_epoch()
        self._arm_sweeper()

    def on_recover(self) -> None:
        """Rebuild every instance from its durable journal (the crux of the
        paper's fault-tolerance story).  The health registry is volatile by
        design: the recovered coordinator relearns the fleet."""
        self.stats["recoveries"] += 1
        crash_point("exec.recover.pre", self)
        self.epoch = self._advance_epoch()
        self._reset_volatile()
        self._sweep_armed = self._jflush_armed = False  # timers died with the crash
        self._rebuild()
        crash_point("exec.recover.replayed", self)
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
        self.journal.buffer.clear()

    def _rebuild(self) -> None:
        """Take in every instance of the store — what a crash recovery and a
        standby's promotion both are.  A closed one costs its key (its summary
        waits for a reader), an open one a replay: bounded by what was running."""
        restore = self._summary  # one bound method for every closed instance
        for iid in self.journal.instances():
            if not self.is_primary():
                return  # the barrier of a resend deposed us: a standby holds nothing
            if self.journal.closed(iid):
                self.runtimes[iid] = _ClosedRuntime(iid, restore)
            else:
                self._adopt(self._replay(iid))
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
        """Hook run after every durability barrier; replication ships the
        newly durable log suffix here.  No-op standalone."""

    # -- ORB operations ---------------------------------------------------------------------

    def instantiate(
        self,
        script_name: str,
        root_task: str,
        input_set: str = "main",
        inputs: Optional[Dict[str, Any]] = None,
    ) -> str:
        """Create and start a workflow instance from a stored script."""
        text = self.broker.invoke(
            self.node, self.repository_name, "get_script", script_name
        )
        compiled = _compiled(text)
        # Admission decision BEFORE anything is persisted: a rejected arrival
        # leaves no trace but the typed refusal, so the client's cooperative
        # backoff is the whole cost.  Shed verdicts, by contrast, persist the
        # instance and journal a decisive ``overloaded`` outcome — the caller
        # gets an instance id whose fate is queryable, never a silent drop.
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
        iid, spec = self.journal.create(
            compiled.digest, text, root_task, input_set, inputs
        )
        runtime = self._fresh_runtime(iid, spec)
        self.runtimes[iid] = self._live[iid] = runtime
        if verdict == "shed":
            self._shed(runtime, criticality, f"pressure {self.admission.pressure}")
        elif verdict == "queue":
            self.admission.enqueue(iid, criticality, now)
            # flights stay built-but-unsent until a window slot frees up;
            # the sweeper skips unsent flights, so nothing retransmits early
        else:
            self.admission.on_start(iid, now)
            self._dispatch_pending(runtime)
        return iid

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
        self._record_if_legal(runtime, {"type": "reconfig", "script_text": new_script_text})
        self.flush_journal()  # client observes the reconfiguration as durable
        return True

    def force_abort(self, iid: str, task_path: str, abort_name: Optional[str] = None) -> bool:
        self._record_if_legal(
            self._full_runtime(iid),
            {"type": "force_abort", "path": task_path, "name": abort_name},
        )
        self.flush_journal()  # client observes the abort as durable
        return True

    def external_tasks(self, iid: str) -> List[str]:
        """Paths of tasks parked awaiting an external completion."""
        return sorted(path for path, _exec in self._runtime(iid).external)

    def tasks(self, iid: str) -> List[Dict[str, Any]]:
        """Per-task-instance states: the admin console's detail view."""
        runtime = self._full_runtime(iid)
        rows: List[Dict[str, Any]] = []
        for node in runtime.tree.walk():
            rows.append(
                {
                    "path": node.path,
                    "taskclass": node.taskclass.name,
                    "compound": node.is_compound,
                    "state": node.machine.state.value,
                    "outcome": node.machine.outcome,
                    "starts": node.machine.starts,
                    "repeats": node.machine.repeats,
                    "marks": list(node.machine.marks_emitted),
                    "in_flight": (node.path, runtime.exec_counter.get(node.path))
                    in runtime.in_flight,
                    "awaiting_external": (node.path, runtime.exec_counter.get(node.path))
                    in runtime.external,
                }
            )
        return rows

    def trace(self, iid: str) -> str:
        """Human-readable chronological trace (the Fig. 4 monitoring view),
        followed by the dispatch layer's resilience decisions for the
        instance (redispatches, hedges, breaker transitions, failovers)."""
        from ..engine.trace import render_trace

        return render_trace(
            self._full_runtime(iid).tree.log,
            resilience=self.rlog.for_instance(iid),
        )

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
        return iid

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

    def complete_task(
        self,
        iid: str,
        task_path: str,
        output_name: str,
        objects: Optional[Dict[str, Any]] = None,
    ) -> bool:
        """Supply the outcome of a parked external task (§1's interactive
        tasks).  Journaled like a worker result, so it survives crashes."""
        runtime = self._full_runtime(iid)
        node = runtime.tree.node_at(task_path)
        exec_index = runtime.exec_counter.get(task_path, 0)
        if (task_path, exec_index) not in runtime.external:
            raise ExecutionError(f"{task_path}: not awaiting an external completion")
        spec = declared_output(node.taskclass, output_name, task_path)
        result = TaskResult(spec.kind, output_name, dict(objects or {}))
        entry = {
            "type": "result",
            "path": task_path,
            "exec": exec_index,
            "result": result_to_plain(result),
        }
        self._record(runtime, entry)
        self.flush_journal()  # client observes the completion as durable
        return True

    # -- dispatching -------------------------------------------------------------------------

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
        runtime.has_deadlines = compiled.has_deadlines
        tree.start(spec["input_set"], spec["inputs"])
        self._drain(runtime)
        return runtime

    def _new_tree(self, script: Script, root_task: str, plan: ExecutionPlan) -> InstanceTree:
        """The one place this service builds an instance tree, unstarted;
        ``Sanitizer.attach_service`` wraps it to watch every root start."""
        return InstanceTree(script, root_task, now=self._now, plan=plan)

    def _drain(self, runtime: _Runtime) -> None:
        """Begin execution of every ready task; queue the work requests."""
        node = self.node
        now = self._now()  # constant within an event
        while True:
            taken = runtime.tree.begin_next()
            if taken is None:
                break
            task, (input_set, inputs) = taken
            exec_index = runtime.exec_counter.get(task.path, 0) + 1
            runtime.exec_counter[task.path] = exec_index
            request = work_request(
                runtime.iid,
                exec_index,
                task.template,
                input_set,
                inputs,
                task.attempt + 1,
                task.machine.repeats,
                node.name if node else "",
                self.epoch,
            )
            key = (task.path, exec_index)
            flight = runtime.in_flight[key] = _InFlight(request, now)
            runtime.unsent.append((key, flight))

    def _dispatch_pending(self, runtime: _Runtime) -> None:
        if runtime.tree.ready_heap:  # a step that made nothing ready skips the drain
            self._drain(runtime)
        if runtime.unsent and runtime.iid not in self.admission.queue:
            # an instance still waiting in the admission queue keeps its
            # flights built-but-unsent; promotion dispatches them
            unsent, runtime.unsent = runtime.unsent, []
            self._post(runtime, unsent)
        self._arm_deadlines(runtime)
        if runtime.tree.status is not WorkflowStatus.RUNNING:
            # terminal barrier: the deciding entry must be durable before the
            # terminal state can be observed between events (see the
            # durability oracle) — flush inside the same event that applied it;
            # with no flight out, the same record closes the journal
            self.flush_journal(() if runtime.in_flight else (runtime.iid,))
            # the terminal instance's window slot frees up: promote queued work
            self.admission.forget(runtime.iid)  # terminal while still queued
            self.admission.release(runtime.iid, self._now())
            self._promote_ready()

    def _shed(self, runtime: _Runtime, criticality: str, reason: str) -> None:
        """Decisive ``overloaded`` outcome for a not-yet-started instance.

        Journaled before it takes effect like every other outcome, so replay
        and recovery reproduce the shed exactly
        (``tests/test_overload.py::TestShedding``).  Only instances that have
        not dispatched anything are ever shed — started work (flights,
        journaled progress) is never thrown away."""
        self.admission.on_shed(runtime.iid, criticality, self._now(), reason)
        self.stats["shed"] += 1
        entry = {
            "type": "overloaded",
            "reason": reason,
            "criticality": criticality,
        }
        try:
            self._journal(runtime, entry)
            self._apply_entry(runtime, entry)
        except Exception:
            self.flush_journal()  # see _record
            raise
        # terminal outcome, nothing ever sent: durable before observable, closed
        self.flush_journal((runtime.iid,))

    def _promote_ready(self) -> None:
        """Dispatch queued instances into freed window slots.

        Iterative with a re-entrancy guard: a promoted instance can complete
        synchronously (timer-free scripts on a quiet network), which frees
        its slot and would otherwise recurse back in here; the outer loop
        picks the freed slot up instead."""
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
                    self._dispatch_pending(runtime)
        finally:
            self._promoting = False

    def _arm_deadlines(self, runtime: _Runtime) -> None:
        """Fig. 3's abort-from-WAIT by timer: a task whose ``deadline``
        implementation property expires while it still waits for inputs is
        force-aborted into its first abort outcome.  The abort is journaled,
        so recovery replays it.  Timers themselves are volatile, but the
        *absolute expiry* is journaled the first time a deadline is armed,
        so a recovered task resumes with its remaining deadline (and a
        deadline that lapsed during the outage fires immediately) instead of
        being granted a fresh full one."""
        if self.node is None or not self.node.alive:
            return
        if not runtime.has_deadlines:
            return  # script declares no deadline property: skip the tree walk
        journaled = False
        for node in runtime.tree.walk():
            delay = node.decl.implementation.deadline
            if delay is None or node.machine.state is not TaskState.WAIT:
                continue
            if not node.taskclass.outputs_of_kind(OutputKind.ABORT):
                continue
            # key by the per-path execution counter, which is unique across
            # compound repeat rounds (machine.starts is not)
            key = (node.path, runtime.exec_counter.get(node.path, 0))
            if key in runtime.armed_deadlines:
                continue
            expires_at = runtime.deadline_expiries.get(key)
            if expires_at is None:
                expires_at = self._now() + delay
                entry = {
                    "type": "deadline",
                    "path": node.path,
                    "exec": key[1],
                    "expires_at": expires_at,
                }
                self._journal(runtime, entry)
                self._apply_entry(runtime, entry)
                journaled = True
            delay = max(0.0, expires_at - self._now())
            runtime.armed_deadlines.add(key)

            def fire(
                runtime=runtime,
                path=node.path,
                count=runtime.exec_counter.get(node.path, 0),
            ) -> None:
                if not self.is_primary():
                    return  # demoted: the new primary re-arms from its journal
                if runtime is not self.runtimes.get(runtime.iid):
                    return  # superseded by a rebuild, or dropped at a demotion
                if runtime.tree.status.value != "running":
                    return
                try:
                    live = runtime.tree.node_at(path)
                except Exception:
                    return
                if (
                    not live.alive
                    or live.machine.state is not TaskState.WAIT
                    or runtime.exec_counter.get(path, 0) != count
                ):
                    return
                self._record_if_legal(
                    runtime, {"type": "force_abort", "path": path, "name": None}
                )

            self.node.call_after(delay, fire, label=f"deadline:{node.path}")
        if journaled:
            # a deadline's absolute expiry must survive a crash for recovery
            # to resume the *remaining* deadline — flush it right away
            self.flush_journal()

    def _post(
        self,
        runtime: _Runtime,
        flights: Sequence[Tuple[Tuple[str, int], _InFlight]],
        hedge: bool = False,
    ) -> None:
        """Send ``flights``: one durability barrier, each flight routed and
        accounted on its own (:meth:`_send`), then one work message per
        worker carrying that worker's requests in first-routed order.  A
        drained batch posts once; the sweeper, a resumed flight and a
        stagger timer post one flight each."""
        # Durability barrier: a dispatched task's execution (and eventual
        # reply) depends on every journal entry that made it ready.  Were the
        # send to outrun the journal, a crash could replay a shorter journal
        # while the reply to the *longer* history arrives and is deduped —
        # wedging the instance.  Flush-before-send makes that impossible;
        # nothing is journaled between a batch's sends, so one serves all.
        self.flush_journal()
        if not self.is_primary():
            # Demoted *mid-event* — by this barrier (a fenced push, the lease
            # service unreachable) or an earlier one, whose demotion left
            # nothing buffered for this one to commit: nothing may leave
            # under the stale epoch.
            return
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

    def _send(
        self,
        runtime: _Runtime,
        key: Tuple[str, int],
        flight: _InFlight,
        outbox: Dict[str, List[WorkRequest]],
        hedge: bool = False,
    ) -> None:
        """One flight's part of a :meth:`_post`: its route, its accounting
        and its request, added to ``outbox`` under the chosen worker."""
        if flight.request["template"].code == "system.timer":
            self._arm_timer_task(runtime, key, flight)
            return
        if not self.worker_names:
            raise ExecutionError("no workers configured")
        # stamp at send time, not build time: a flight drained before a
        # promotion must carry the promoted epoch when it finally goes out
        # (a request is read-only once proven: the new epoch makes a new one)
        if flight.request["epoch"] != self.epoch:
            flight.request = type(flight.request)(flight.request, epoch=self.epoch)
        now = self._now()
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
                now,
                "redispatch" if flight.redispatches else "dispatch",
                runtime.iid,
                key[0],
                worker,
                detail=f"attempt {flight.redispatches + 1}",
            )
        self.health.on_dispatch(worker, now)
        flight.sent_to[worker] = now
        self.stats["dispatches"] += 1
        outbox.setdefault(worker, []).append(flight.request)

    def _route(
        self,
        runtime: _Runtime,
        key: Tuple[str, int],
        flight: _InFlight,
        hedge: bool,
        now: float,
    ) -> Optional[str]:
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
                now,
                "failover",
                runtime.iid,
                key[0],
                alternative or pinned,
                detail=f"pin {pinned} breaker open",
            )
            return alternative or pinned
        exclude = set(flight.sent_to) if hedge else ()
        return self.health.route(now, exclude=exclude)

    def _arm_timer_task(self, runtime: _Runtime, key: Tuple[str, int], flight: _InFlight) -> None:
        """Built-in timer tasks (§4.2: "a set for an exceptional input such
        as a timer enabling a task to wait for normal inputs with a
        timeout").

        A task whose implementation names the reserved code ``system.timer``
        never goes to a worker: the execution service fires its first
        declared outcome after the ``delay`` property elapses.  The firing
        goes through the ordinary reply path, so it is journaled and
        crash-safe; after a recovery the in-flight timer is simply re-armed.
        """
        flight.sent = True
        delay = flight.request["template"].delay
        # keep the sweeper quiet until the timer is genuinely overdue
        flight.dispatched_at = self._now() + delay
        flight.hedge_at = None  # timer tasks never go to a worker: no hedging
        taskclass = TaskClass.from_wire(flight.request["template"].taskclass)
        outcomes = taskclass.outputs_of_kind(OutputKind.OUTCOME)
        if outcomes:
            result = TaskResult(OutputKind.OUTCOME, outcomes[0].name, {})
            reply = work_reply(runtime.iid, key[0], key[1], None, True, result, (), None)
        else:
            reply = work_reply(
                runtime.iid, key[0], key[1], None, False, None, (),
                "system.timer task class declares no outcome",
            )
        self.node.call_after(
            delay,
            lambda: self._handle_reply(runtime.iid, reply),
            label=f"timer-task:{key[0]}",
        )

    def _arm_sweeper(self) -> None:
        if self.node is None or not self.node.alive or self._sweep_armed:
            return
        self._sweep_armed = True

        def sweep() -> None:
            if not self.is_primary():
                # demoted to standby: let the chain die; promotion re-arms it
                self._sweep_armed = False
                return
            now = self._now()
            cfg = self.resilience
            # Overload controller tick: adjust the window from the sojourn
            # signal, shed queued low-criticality work once pressure says so,
            # and promote into any headroom the adjustment opened up.
            self.admission.control(now)
            for victim_iid, victim_class in self.admission.evict_low(now):
                victim = self._live.get(victim_iid)  # queued, so unsettled
                if victim is not None:
                    self._shed(
                        victim, victim_class,
                        f"evicted from queue at pressure {self.admission.pressure}",
                    )
            self._promote_ready()
            live = self._live
            for runtime in list(live.values()):
                if not runtime.in_flight:
                    self._settle(runtime)
                    continue
                for key, flight in list(runtime.in_flight.items()):
                    if self._live is not live:
                        # a send's barrier deposed us and dropped every runtime
                        self._sweep_armed = False
                        return
                    if key not in runtime.in_flight or not flight.sent:
                        continue
                    overdue_at = flight.dispatched_at + self.dispatch_timeout
                    if (
                        self.admission.allow_hedge()
                        and not flight.hedged
                        and flight.hedge_at is not None
                        and flight.hedge_at <= now < overdue_at
                    ):
                        pinned = flight.request["template"].location
                        if pinned in self.worker_names and flight.redispatches == 0:
                            flight.hedge_at = None  # honour the pin: no hedge
                        else:
                            self._post(runtime, ((key, flight),), hedge=True)
                    if key not in runtime.in_flight:
                        continue
                    if now >= overdue_at:
                        for worker in list(flight.sent_to):
                            self.health.on_timeout(worker, now)
                            self.rlog.record(
                                now, "timeout", runtime.iid, key[0], worker
                            )
                        flight.sent_to.clear()
                        if cfg.exhausted(flight.redispatches) and (
                            flight.request["template"].code != "system.timer"
                        ):
                            self._abandon(runtime, key, flight, now)
                            continue
                        flight.redispatches += 1
                        self.stats["redispatches"] += 1
                        self._post(runtime, ((key, flight),))
            if self._pending_acks:
                # hedge losers that never replied: count the timeout so a
                # dead hedge target still trips its breaker
                for ack_key, sent_at in list(self._pending_acks.items()):
                    if now - sent_at >= self.dispatch_timeout:
                        del self._pending_acks[ack_key]
                        self.health.on_timeout(ack_key[3], now)
            self._sweep_armed = False
            self._arm_sweeper()

        self.node.call_after(self.sweep_interval, sweep, label=f"{self.name}-sweep")

    def _abandon(
        self, runtime: _Runtime, key: Tuple[str, int], flight: _InFlight, now: float
    ) -> None:
        """The redispatch cap is spent: stop retransmitting and surface a
        system failure for the task.  From here the paper's §3 semantics take
        over — automatic retries per the task's ``retries`` property, then
        its first declared abort outcome — so the workflow still terminates
        decisively instead of retrying forever."""
        self.stats["abandoned"] += 1
        self.rlog.record(
            now,
            "abandon",
            runtime.iid,
            key[0],
            detail=f"redispatch cap ({flight.redispatches}) spent",
        )
        entry = {
            "type": "failure",
            "path": key[0],
            "exec": key[1],
            "error": f"dispatch abandoned after {flight.redispatches} redispatches",
        }
        self._record(runtime, entry)

    # -- replies and marks ----------------------------------------------------------------------

    def on_message(self, message: Message) -> None:
        if isinstance(message.payload, MarkRecord):
            self._handle_mark(message.payload)

    def _handle_mark(self, mark: MarkRecord) -> None:
        if not self.is_primary():
            return  # demoted: the current primary owns this instance now
        crash_point("exec.mark.recv", self)
        runtime = self.runtimes.get(mark.instance_id)
        if runtime is None or runtime.settled:
            return  # a settled instance is closed (see _handle_reply)
        entry = _mark_entry(mark)
        if _dedup_key(entry) not in runtime.journal_keys:
            self._record(runtime, entry)

    def _handle_replies(self, replies: Tuple[WorkReply, ...]) -> None:
        """One reply leg of a worker: each reply is handled as if it had
        come alone."""
        for reply in replies:
            self._handle_reply(reply.instance_id, reply)

    def _handle_reply(self, iid: str, reply: WorkReply) -> None:
        if not self.is_primary():
            return  # demoted: late replies belong to the current primary
        if reply.fenced:
            # a worker refused a stale-epoch dispatch: never journaled as a
            # task failure — the flight stays open for the rightful primary
            self.stats["fenced_replies"] += 1
            return
        runtime = self.runtimes.get(iid)
        if runtime is None:
            return
        path = reply.task_path
        exec_index = reply.execution_index
        flight_key = (path, exec_index)
        self._credit_reply(runtime, flight_key, reply)
        # A settled instance is closed: every flight it ever sent is answered
        # in its journal, so whatever still arrives for it is a duplicate.
        if runtime.settled or ("result", path, exec_index) in runtime.journal_keys:
            self.stats["duplicate_replies"] += 1
            return
        result = None
        if not reply.ok:
            kind = "failure"
            entry = {"type": kind, "path": path, "exec": exec_index, "error": reply.error}
        elif reply.external:
            # the task parked itself awaiting an external completion; stop
            # the sweeper from re-dispatching it and remember it durably
            kind = "external"
            entry = {"type": kind, "path": path, "exec": exec_index}
        else:
            # rebuilt once: journaled in its plain form, applied as it stands
            kind = "result"
            result = result_from_wire(reply.result)
            entry = {
                "type": kind, "path": path, "exec": exec_index,
                "result": result_to_plain(result),
            }
        try:
            # marks carried in the reply (the datagram copies may have been lost)
            for mark in reply.marks:
                mark_entry = _mark_entry(mark)
                if _dedup_key(mark_entry) not in runtime.journal_keys:
                    self._journal(runtime, mark_entry)
                    self._apply_entry(runtime, mark_entry)
            if kind == "external" and flight_key in runtime.external:
                self.stats["duplicate_replies"] += 1
                return
            self._journal(runtime, entry)
            self._apply_entry(runtime, entry, result)
            if kind == "external":
                return  # nothing became ready
            crash_point("exec.reply.applied", self)
            self._dispatch_pending(runtime)
        except Exception:
            self.flush_journal()  # see _record
            raise

    def _credit_reply(
        self, runtime: _Runtime, flight_key: Tuple[str, int], reply: WorkReply
    ) -> None:
        """Health accounting for any reply, duplicates included: the worker
        demonstrably served the request, so credit its latency and close its
        breaker — even when the journal then discards the reply as a
        duplicate (e.g. a hedge that lost the race)."""
        worker = reply.worker
        if not worker:
            return  # timer-task self-replies carry no worker
        now = self._now()
        flight = runtime.in_flight.get(flight_key)
        sent_at = flight.sent_to.pop(worker, None) if flight is not None else None
        if sent_at is None:
            sent_at = self._pending_acks.pop(
                (runtime.iid, flight_key[0], flight_key[1], worker), None
            )
        if sent_at is not None:
            self.health.on_reply(worker, now - sent_at, now)

    def _resolve_flight(
        self, runtime: _Runtime, flight_key: Tuple[str, int]
    ) -> Optional[_InFlight]:
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
        return flight

    # -- journal ----------------------------------------------------------------------------------

    def _journal(self, runtime: _Runtime, entry: Dict[str, Any]) -> None:
        # Provenance stamp: which incarnation wrote this entry.  Inert for
        # dedup keys and replay; the single-writer-per-epoch oracle
        # (sim/oracles.py) audits these fields across failovers.
        entry["epoch"] = self.epoch
        entry["writer"] = self.name
        if runtime.iid not in self._live:
            if not self.is_primary():
                # deposed mid-event (a standby's _live is empty): nothing more
                # is journaled under the stale epoch, no runtime is taken back
                return
            # a settled instance is written to again (through the runtime
            # _full_runtime handed out): that runtime is the instance now
            self.runtimes[runtime.iid] = self._live[runtime.iid] = runtime
        self.journal.append(runtime.iid, entry)  # durable at the next barrier
        self._arm_journal_window()

    def _record(self, runtime: _Runtime, entry: Dict[str, Any]) -> None:
        """Journal ``entry``, apply it, dispatch what it made ready.

        An exception between buffering an entry and the next barrier must
        not strand the buffer: the tree has applied the entry, so the
        in-memory state would run ahead of the durable journal for up to
        ``_JOURNAL_WINDOW``.  Hence the flush on the error path, here and
        wherever else a handler journals.  ``SimulatedCrash`` is a
        BaseException and deliberately *not* caught: a machine crash loses
        the buffer together with the volatile tree state it described."""
        try:
            self._journal(runtime, entry)
            self._apply_entry(runtime, entry)
            self._dispatch_pending(runtime)
        except Exception:
            self.flush_journal()
            raise

    def _record_if_legal(self, runtime: _Runtime, entry: Dict[str, Any]) -> None:
        """:meth:`_record` for an administrative entry the tree may refuse
        (``reconfig``, ``force_abort``): applied first — an illegal one raises
        without effect — and journaled as what stood.  Journaled first, a
        refused entry would be left in the buffer for the error-path flush to
        make durable, and every later replay would raise on it."""
        try:
            self._apply_entry(runtime, entry)
            self._journal(runtime, entry)
            self._dispatch_pending(runtime)
        except Exception:
            self.flush_journal()
            raise

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
        flushed = self.journal.commit(closed) if self.journal.buffer else 0
        self._post_barrier()  # even when empty: any unshipped suffix goes out
        return flushed

    def _arm_journal_window(self) -> None:
        """Bound how long a buffered entry may stay volatile: one flush timer
        per non-empty buffer, armed when the first entry lands."""
        if self._jflush_armed or self.node is None or not self.node.alive:
            return
        self._jflush_armed = True

        def fire() -> None:
            self._jflush_armed = False
            if self.node is not None and self.node.alive:
                self.flush_journal()

        self.node.call_after(_JOURNAL_WINDOW, fire, label=f"{self.name}-jflush")

    def _apply_entry(
        self, runtime: _Runtime, entry: Dict[str, Any], result: Optional[TaskResult] = None
    ) -> None:
        """What one journal entry does to an instance — its dedup key, the
        flight it answers, the parked set, the tree.  The only definition:
        a live handler comes here with the entry it journaled, :meth:`_replay`
        with the stored ones.  ``result``: the :class:`TaskResult` a reply's
        ``result`` entry was journaled from, so only a replay decodes one."""
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
            runtime.has_deadlines = compiled.has_deadlines
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
        try:
            node = runtime.tree.node_at(path)
        except ExecutionError:
            return
        if runtime.exec_counter.get(path) != entry["exec"]:
            return  # stale: a newer execution of this path supersedes it
        if kind == "mark":
            runtime.tree.apply_mark(node, entry["name"], refs_from_plain(entry["objects"]))
        elif kind == "result":
            try:
                runtime.tree.apply_result(
                    node, result if result is not None else result_from_plain(entry["result"])
                )
            except ExecutionError as exc:
                # the result did not match the task class signature: treat it
                # as a system failure (deterministic at replay too)
                runtime.tree.apply_failure(node, exc)
        else:
            runtime.tree.apply_failure(node, WorkflowError(entry["error"]))

    # -- recovery -----------------------------------------------------------------------------------

    def _replay(self, iid: str) -> Optional[_Runtime]:
        """A fresh runtime on ``iid``'s stored spec, brought up to its stored
        journal; ``None`` when the store holds no such instance.  The only
        replay: a rebuild's open instances, import, a settled instance's
        summary or detail view and the oracles."""
        spec = self.journal.spec(iid)
        if spec is None:
            return None
        runtime = self._fresh_runtime(iid, spec)
        for entry in self.journal.entries(iid):
            if entry is None:
                break
            self._apply_entry(runtime, entry)
            self._drain(runtime)
        runtime.unsent.clear()  # a replay's flights go out by _resume_flights
        return runtime

    def _resume_flights(self, runtime: _Runtime) -> None:
        """Re-send every flight that survived a rebuild — crash recovery,
        promotion and import all come through here.

        Whatever is still in flight was unanswered when its coordinator
        stopped, so each goes out as a *redispatch*: the pin is abandoned
        (the original target may be what crashed) and the redispatch count
        carries on.  Not in one burst: each flight gets a deterministic
        offset inside ``recovery_stagger``; the hashed key includes the
        durable fencing epoch — which survives both restart and failover, as
        ``stats["recoveries"]`` does not — so successive recoveries stagger
        differently.
        """
        resilience = self.resilience
        epoch = self.epoch
        for key, flight in sorted(runtime.in_flight.items(), key=lambda kv: kv[0]):
            flight.redispatches += 1
            # a zero ``recovery_stagger`` makes every offset zero
            delay = (
                0.0
                if flight.request["template"].code == "system.timer"
                else resilience.stagger(f"{runtime.iid}:{key[0]}:{key[1]}:{epoch}")
            )
            if delay <= 0.0:
                self._post(runtime, ((key, flight),))
                continue
            self.stats["staggered"] += 1
            self.rlog.record(
                self._now(),
                "stagger",
                runtime.iid,
                key[0],
                detail=f"resend +{delay:.2f}",
            )

            def fire(runtime=runtime, key=key) -> None:
                if not self.is_primary():
                    return  # demoted while the stagger timer was pending
                if self.runtimes.get(runtime.iid) is not runtime:
                    return  # superseded by another rebuild, or dropped at a demotion
                flight = runtime.in_flight.get(key)
                if flight is not None:
                    self._post(runtime, ((key, flight),))

            self.node.call_after(delay, fire, label=f"stagger:{key[0]}")

    # -- settled instances ----------------------------------------------------------------------------

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

    def _adopt(self, runtime: _Runtime) -> None:
        """Take in a runtime replayed from a journal.  A finished one is
        settled on the spot, so a recovery holds one finished tree at a time;
        an unfinished one has its flights re-sent and its deadlines re-armed."""
        self.runtimes[runtime.iid] = self._live[runtime.iid] = runtime
        if not self._settle(runtime):
            self._resume_flights(runtime)
            self._arm_deadlines(runtime)

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
