"""Static liveness / stall analysis (``E2xx``) over the compiled plan.

Computes, without executing anything, which task instances can ever become
ready, which bound input sets are unsatisfiable, and which root outcomes are
statically unreachable.  It reads the tables the engine runs
(:mod:`repro.engine.plan`): a *fact* is a firing-table key
``(producer, EventKind, name)`` that an event of one scope can carry, and the
model is a fixpoint over producible facts:

* a root task is startable (the environment supplies one input set, the
  same default rule as :func:`repro.core.analysis.analyze_outcomes`);
* a startable task publishes an ``INPUT`` key for each set it can start
  through, and — implementations being opaque — every output
  :func:`~repro.engine.plan.producible_events` lists for it (a mark only
  when a non-abort final can follow it);
* a startable compound publishes each output whose watch table
  (``ScopePlan.watch_tables``) its inner facts satisfy;
* a set — an input set or an output mapping, one ``SetPlan`` — is
  satisfiable when every bit of its mask has a producible key among those
  its slot's firing groups list, **and** the keys can be chosen
  consistently: a task instance terminates in exactly one final output per
  round, so a conjunction that needs two different outcomes of the same
  producer (the ghost-path mistake of the paper's Fig. 7 family) is
  unsatisfiable.

The result is a *may* analysis: everything the real engines can do is
producible here, so a task flagged dead (``E201``) or an outcome flagged
unreachable (``E202``) is a genuine composition bug.  ``repro analyze``
cross-checks these verdicts against the dynamic explorer
(:mod:`repro.core.analysis`) and treats disagreement as an analyser bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..core.schema import OutputKind
from ..core.selection import EventKind, event_kind_for
from ..engine.plan import EventKey, ExecutionPlan, PlannedTask, TaskTable, producible_events
from .findings import Finding
from .registry import DIAGNOSTICS

#: the event kinds that end a producer's round
FINAL_KINDS = (EventKind.OUTCOME, EventKind.ABORT)

# How many alternative combinations a consistency search may explore before
# falling back to the per-slot over-approximation.
_COMBO_CAP = 4096

#: one way to fill a slot: a firing-table key and the object the slot reads
#: off that event (None for a notification)
Feed = Tuple[EventKey, Optional[str]]


def slot_feeds(table: TaskTable) -> List[List[Feed]]:
    """Per slot of ``table``, every key its firing groups list, with the
    object each source alternative reads (the inverse of ``entries``)."""
    feeds: List[List[Feed]] = [[] for _ in table.slots]
    for key, groups in table.entries.items():
        for index, _bit, _notification, candidates in groups:
            feeds[index].extend((key, obj) for _source, obj in candidates)
    return feeds


def set_slots(mask: int) -> List[int]:
    """The slot indices a ``SetPlan.mask`` demands."""
    return [index for index in range(mask.bit_length()) if mask >> index & 1]


def output_key(compound: PlannedTask, watch: TaskTable) -> EventKey:
    """The key the compound's output mapping ``watch`` (one of its scope's
    ``watch_tables``) publishes into the compound's enclosing scope."""
    name = watch.sets[0].name
    return compound.local, event_kind_for(compound.taskclass.output(name).kind), name


@dataclass
class LivenessResult:
    """Everything the static liveness pass computed."""

    root_task: str
    input_set: str
    findings: List[Finding] = field(default_factory=list)
    # task path -> input-set names it can become ready through
    startable: Dict[str, Set[str]] = field(default_factory=dict)
    dead_tasks: List[str] = field(default_factory=list)
    reachable_outcomes: Set[str] = field(default_factory=set)
    unreachable_outcomes: List[str] = field(default_factory=list)
    # scope path -> producible firing-table keys there (see module docstring)
    facts: Dict[str, Set[EventKey]] = field(default_factory=dict)

    def may_start(self, path: str) -> bool:
        return bool(self.startable.get(path))


class _LivenessPass:
    def __init__(self, plan: ExecutionPlan, input_set: str) -> None:
        self.plan = plan
        self.input_set = input_set
        self.facts: Dict[str, Set[EventKey]] = {}
        self.startable: Dict[str, Set[str]] = {task.path: set() for task in plan.tasks}
        # (scope, producer name) -> producer id: a compound names itself in
        # its inner scope, and a constituent of the same name shadows it
        # there, as in the scope's vocabulary
        self._ids: Dict[Tuple[str, str], int] = {}
        for task in plan.tasks:
            if task.compound:
                self._ids[(task.path, task.local)] = task.task_id
            if task.scope:
                self._ids[(task.scope, task.local)] = task.task_id
        # producers a repeat output lets restart through another input set
        self._restarts = {
            task.task_id
            for task in plan.tasks
            if task.taskclass.outputs_of_kind(OutputKind.REPEAT)
        }
        self._options: Dict[int, List[List[EventKey]]] = {}

    def _add_fact(self, scope: str, key: EventKey) -> bool:
        bucket = self.facts.setdefault(scope, set())
        if key in bucket:
            return False
        bucket.add(key)
        return True

    # -- satisfiability ---------------------------------------------------------

    def _satisfiable(self, scope: str, table: TaskTable, mask: int) -> bool:
        """Can every slot of ``mask`` pick a producible key consistently?

        Consistency: per producer, one final output (a task terminates once
        per round) and — unless the producer has a repeat output, letting it
        restart with a different set — one input set.
        """
        options = self._options.get(id(table))
        if options is None:
            options = self._options[id(table)] = [
                list(dict.fromkeys(key for key, _obj in feeds))
                for feeds in slot_feeds(table)
            ]
        facts = self.facts.get(scope, set())
        viable: List[List[EventKey]] = []
        for slot in set_slots(mask):
            keys = [key for key in options[slot] if key in facts]
            if not keys:
                return False
            viable.append(keys)

        budget = [_COMBO_CAP]

        def search(index: int, chosen: Dict[Tuple[int, bool], str]) -> bool:
            if budget[0] <= 0 or index == len(viable):
                return True  # a cap hit accepts: over-approximate, stays sound
            for producer, kind, name in viable[index]:
                budget[0] -= 1
                pid = self._ids[(scope, producer)]
                if kind in FINAL_KINDS:
                    constraint: Optional[Tuple[int, bool]] = (pid, True)
                elif kind is EventKind.INPUT and pid not in self._restarts:
                    constraint = (pid, False)
                else:
                    # marks precede non-abort termination and a class with
                    # marks declares no aborts (schema rule); repeats precede
                    # any final
                    constraint = None
                if constraint is None:
                    narrowed = chosen
                elif chosen.get(constraint, name) != name:
                    continue
                else:
                    narrowed = {**chosen, constraint: name}
                if search(index + 1, narrowed):
                    return True
            return False

        return search(0, {})

    # -- the fixpoint -----------------------------------------------------------

    def run(self) -> None:
        changed = True
        while changed:
            changed = False
            for task in self.plan.tasks:
                changed |= self._step(task)

    def _step(self, task: PlannedTask) -> bool:
        changed = False
        startable = self.startable[task.path]
        if not task.scope:
            chosen = self._root_input_set(task)
            if chosen not in startable:
                startable.add(chosen)
                changed = True
        elif self.startable[task.scope]:
            for set_plan in task.table.sets:
                if set_plan.name not in startable and self._satisfiable(
                    task.scope, task.table, set_plan.mask
                ):
                    startable.add(set_plan.name)
                    changed = True
        if not startable:
            return changed
        for set_name in startable:
            changed |= self._add_fact(task.scope, (task.local, EventKind.INPUT, set_name))
            if task.compound:
                changed |= self._add_fact(task.path, (task.local, EventKind.INPUT, set_name))
        if not task.compound:
            finals = task.taskclass.final_outputs()
            markable = not finals or any(out.kind is not OutputKind.ABORT for out in finals)
            for event in producible_events(task.taskclass, task.decl, True):
                if event.kind is EventKind.INPUT or (
                    event.kind is EventKind.MARK and not markable
                ):
                    continue
                changed |= self._add_fact(task.scope, (task.local, event.kind, event.name))
        else:
            produced = self.facts.get(task.scope, set())
            for watch in self.plan.scopes[task.path].watch_tables:
                key = output_key(task, watch)
                if key not in produced and self._satisfiable(
                    task.path, watch, watch.sets[0].mask
                ):
                    changed |= self._add_fact(task.scope, key)
        return changed

    def _root_input_set(self, root: PlannedTask) -> str:
        taskclass = root.taskclass
        if not taskclass.input_sets:
            return ""
        if taskclass.input_set(self.input_set) is not None:
            return self.input_set
        return taskclass.input_sets[0].name

    # -- findings ----------------------------------------------------------------

    def report(self) -> LivenessResult:
        plan = self.plan
        first = plan.by_path[plan.root_tasks[0]]
        result = LivenessResult(
            root_task=first.local,
            input_set=self._root_input_set(first),
            startable=self.startable,
            facts=self.facts,
        )

        def finding(code: str, location: str, message: str) -> None:
            spec = DIAGNOSTICS.require(code)
            result.findings.append(Finding(code, spec.severity, location, message))

        for task in plan.tasks:
            if not task.scope:
                continue
            startable = self.startable[task.path]
            if not startable:
                result.dead_tasks.append(task.path)
                if self.startable[task.scope]:
                    # only the topmost dead task is reported; its descendants
                    # are dead as a consequence, not as separate bugs
                    finding(
                        "E201",
                        task.path,
                        "task can never become ready: every alternative source "
                        "of every input set is transitively unsatisfiable",
                    )
                continue
            for set_plan in task.table.sets:
                if set_plan.name not in startable:
                    finding(
                        "E203",
                        task.path,
                        f"input set {set_plan.name!r} can never be satisfied; "
                        f"the task only starts via "
                        f"{', '.join(sorted(repr(s) for s in startable))}",
                    )
            if task.compound:
                produced = self.facts.get(task.scope, set())
                for watch in plan.scopes[task.path].watch_tables:
                    if output_key(task, watch) not in produced:
                        finding(
                            "E204",
                            task.path,
                            f"output mapping {watch.sets[0].name!r} can never fire",
                        )

        produced = self.facts.get("", set())
        for name in plan.root_tasks:
            root = plan.by_path[name]
            finals = root.taskclass.final_outputs()
            reachable: Set[str] = set()
            unreachable: List[str] = []
            for out in finals:
                key = (root.local, event_kind_for(out.kind), out.name)
                if key in produced or not root.compound:
                    reachable.add(out.name)
                else:
                    unreachable.append(out.name)
                    finding(
                        "E202",
                        root.path,
                        f"root outcome {out.name!r} is statically unreachable "
                        f"through the output mapping",
                    )
            if finals and not reachable:
                finding(
                    "E200",
                    root.path,
                    "no final output of the root task is statically "
                    "producible: the workflow is guaranteed to stall",
                )
            if root is first:
                result.reachable_outcomes = reachable
                result.unreachable_outcomes = unreachable
        return result


def check_liveness(plan: ExecutionPlan, input_set: str = "main") -> LivenessResult:
    """Run the static liveness pass over ``plan``; see :class:`LivenessResult`.

    Every top-level task of the plan is analysed, each started through
    ``input_set`` (or its first declared set); the findings cover them all,
    while ``root_task``, ``input_set`` and the root outcomes are the first
    one's.
    """
    if not plan.root_tasks:
        return LivenessResult(root_task="", input_set=input_set)
    run = _LivenessPass(plan, input_set)
    run.run()
    return run.report()
