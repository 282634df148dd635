"""Concurrency-interference analysis (``W3xx``).

The execution service puts *every* ready task in flight in one pass
(``ExecutionService._drain`` takes what ``InstanceTree.peek_ready()`` lists),
and each flight runs on whichever worker node the router picks — two tasks
with no happens-before ordering in the dependency graph can execute at the
same time on different nodes (the enablement relation :func:`enabled_pairs`
reads off the tree).  The service serialises the coordination state, but
the task *implementations* run on the workers; if two simultaneously-enabled
tasks hold the same object reference, their implementations may race on the
shared object and no layer of the system can detect it.  This pass finds
those pairs statically.

Method:

* build a conservative happens-before relation over task starts and ends,
  read off the compiled plan (:mod:`repro.engine.plan`) — an edge is added
  only when it holds on *every* execution (every firing-table key that can
  fill a slot names the same producer, intersected across the input sets
  the task can actually start through, and across a compound's producible
  final outputs);
* two startable simple tasks neither of whose ends reaches the other's
  start *may* overlap;
* each task's consumed object references are resolved to their origin —
  chasing the keys that fill its slots through compound input ports and
  output mappings — and a pair that may overlap while sharing an origin is
  reported as ``W301``.

This is a *may* analysis: every pair one drain pass can genuinely put in
flight together is reported (soundness is property-tested against
:func:`enabled_pairs`), at the price of possible false positives when
dataflow values rule an overlap out dynamically.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from ..core.selection import EventKind
from ..engine.plan import EventKey, ExecutionPlan, PlannedTask, TaskTable
from .findings import Finding
from .liveness import (
    FINAL_KINDS,
    LivenessResult,
    check_liveness,
    output_key,
    set_slots,
    slot_feeds,
)
from .registry import DIAGNOSTICS

# an origin of an object reference: (producing task path or "<env>", object)
Origin = Tuple[str, str]
# a task's start or end, and the happens-before graph over them
Point = Tuple[str, str]
Graph = Dict[Point, Set[Point]]

_START = "s"
_END = "e"


def enabled_pairs(tree) -> Set[FrozenSet[str]]:
    """The pairs of simple tasks of ``tree`` (an
    :class:`~repro.engine.instance.InstanceTree`) that are *simultaneously
    enabled* now: both would go into flight in the same pass of
    ``ExecutionService._drain``, and so may execute at the same time on two
    worker nodes.  The single definition of the enablement relation whose
    every pair, over every schedule, the ``W301`` findings must include."""
    ready = tree.peek_ready()
    return {
        frozenset((a.path, b.path))
        for i, a in enumerate(ready)
        for b in ready[i + 1 :]
    }


def _set_preds(plan: ExecutionPlan, scope: str, table: TaskTable, mask: int) -> Dict[str, str]:
    """path -> strongest guaranteed predecessor strength for one set of
    ``table``: an input set of a task in ``scope``, or an output mapping of
    the compound at ``scope``.

    A slot guarantees a predecessor only when every key that can fill it
    names the same producer: whichever fires, that producer acted first —
    at its end when every key is a final output, else at its start.  Mixed
    producers guarantee nothing (the slot may be filled by either).
    """
    owner = plan.by_path[scope].local
    feeds = slot_feeds(table)
    preds: Dict[str, str] = {}
    for slot in set_slots(mask):
        keys = {key for key, _obj in feeds[slot]}
        producers = {producer for producer, _kind, _name in keys}
        if len(producers) != 1:
            continue
        (producer,) = producers
        if producer == owner:
            continue  # the enclosing compound; covered by the parent edge
        strength = _END if all(kind in FINAL_KINDS for _p, kind, _n in keys) else _START
        path = f"{scope}/{producer}"
        if preds.get(path) != _END:
            preds[path] = strength
    return preds


def _intersect_preds(all_preds: List[Dict[str, str]]) -> Dict[str, str]:
    """Predecessors guaranteed by every alternative (weakest strength wins)."""
    if not all_preds:
        return {}
    merged = dict(all_preds[0])
    for preds in all_preds[1:]:
        for path in list(merged):
            if path not in preds:
                del merged[path]
            elif preds[path] == _START:
                merged[path] = _START
    return merged


def _happens_before(plan: ExecutionPlan, liveness: LivenessResult) -> Graph:
    graph: Graph = defaultdict(set)
    for task in plan.tasks:
        graph[(_START, task.path)].add((_END, task.path))
        if task.scope:
            graph[(_START, task.scope)].add((_START, task.path))
            startable = liveness.startable[task.path]
            per_set = [
                _set_preds(plan, task.scope, task.table, set_plan.mask)
                for set_plan in task.table.sets
                if set_plan.name in startable
            ]
            for path, strength in _intersect_preds(per_set).items():
                graph[(strength, path)].add((_START, task.path))
        if task.compound:
            produced = liveness.facts.get(task.scope, set())
            final_preds = []
            for watch in plan.scopes[task.path].watch_tables:
                key = output_key(task, watch)
                # an output that can never fire does not constrain the end
                if key[1] in FINAL_KINDS and key in produced:
                    final_preds.append(_set_preds(plan, task.path, watch, watch.sets[0].mask))
            for path, strength in _intersect_preds(final_preds).items():
                graph[(strength, path)].add((_END, task.path))
    return graph


class _OriginResolver:
    """Chases an object reference back to the task (or environment input)
    that created it, through compound input ports and output mappings."""

    def __init__(self, plan: ExecutionPlan) -> None:
        self.plan = plan
        self._memo: Dict[Tuple[str, EventKey, str], FrozenSet[Origin]] = {}
        self._active: Set[Tuple[str, EventKey, str]] = set()

    def slot_origins(self, scope: str, table: TaskTable, slot: int) -> FrozenSet[Origin]:
        """Origins of the object that fills ``slot`` of ``table``, a consumer
        in ``scope``."""
        origins: Set[Origin] = set()
        for key, obj in slot_feeds(table)[slot]:
            if obj is not None:
                origins.update(self._event_origins(scope, key, obj))
        return frozenset(origins)

    def _event_origins(self, scope: str, key: EventKey, obj: str) -> FrozenSet[Origin]:
        memo_key = (scope, key, obj)
        if memo_key in self._memo:
            return self._memo[memo_key]
        if memo_key in self._active:
            return frozenset()  # reference cycle: no base origin
        self._active.add(memo_key)
        try:
            result = self._resolve(scope, key, obj)
        finally:
            self._active.discard(memo_key)
        self._memo[memo_key] = result
        return result

    def _resolve(self, scope: str, key: EventKey, obj: str) -> FrozenSet[Origin]:
        producer, kind, name = key
        # a constituent, or else the enclosing compound itself
        task = self.plan.by_path.get(f"{scope}/{producer}", self.plan.by_path[scope])
        if kind is EventKind.INPUT:
            # the object the producer itself received (the enclosing
            # compound's objects flow in through its input port)
            return self._port_origins(task, name, obj)
        if not task.compound:
            return frozenset({(task.path, obj)})
        # compound producer: chase through its output mapping
        return self._bound_origins(task.path, self.plan.scopes[task.path].watch_tables, name, obj)

    def _port_origins(self, task: PlannedTask, set_name: str, obj: str) -> FrozenSet[Origin]:
        if not task.scope:
            return frozenset({("<env>", obj)})
        return self._bound_origins(task.scope, (task.table,), set_name, obj)

    def _bound_origins(
        self, scope: str, tables: Sequence[TaskTable], set_name: str, obj: str
    ) -> FrozenSet[Origin]:
        """Origins of ``obj`` as the set ``set_name`` of one of ``tables``
        (consumers in ``scope``) binds it."""
        for table in tables:
            for set_plan in table.sets:
                if set_plan.name == set_name:
                    for name, slot in set_plan.layout:
                        if name == obj:
                            return self.slot_origins(scope, table, slot)
        return frozenset()


def trees(plan: ExecutionPlan) -> List[List[PlannedTask]]:
    """The tasks of each top-level task's tree, in plan order."""
    grouped: Dict[str, List[PlannedTask]] = {}
    for task in plan.tasks:
        grouped.setdefault(task.path.split("/", 1)[0], []).append(task)
    return list(grouped.values())


def _descendants(graph: Graph, point: Point) -> Set[Point]:
    seen: Set[Point] = set()
    stack = [point]
    while stack:
        for after in graph.get(stack.pop(), ()):
            if after not in seen:
                seen.add(after)
                stack.append(after)
    return seen


def may_overlap(tasks: List[PlannedTask], graph: Graph) -> Iterator[Tuple[PlannedTask, PlannedTask]]:
    """The pairs of ``tasks`` (in order) neither of whose ends reaches the
    other's start in the happens-before ``graph``."""
    reach = {task.path: _descendants(graph, (_END, task.path)) for task in tasks}
    for i, a in enumerate(tasks):
        for b in tasks[i + 1 :]:
            if (_START, b.path) in reach[a.path] or (_START, a.path) in reach[b.path]:
                continue  # one ends before the other starts on every execution
            yield a, b


def _consumed_origins(
    task: PlannedTask, liveness: LivenessResult, resolver: _OriginResolver
) -> FrozenSet[Origin]:
    """Origins of every object reference ``task`` may receive as input."""
    if not task.scope:
        return frozenset()
    startable = liveness.startable[task.path]
    origins: Set[Origin] = set()
    for set_plan in task.table.sets:
        if set_plan.name in startable:
            for _name, slot in set_plan.layout:
                origins.update(resolver.slot_origins(task.scope, task.table, slot))
    return frozenset(origins)


def check_interference(
    plan: ExecutionPlan, liveness: Optional[LivenessResult] = None
) -> List[Finding]:
    """All ``W3xx`` findings: potentially racy concurrently-enabled pairs."""
    if liveness is None:
        liveness = check_liveness(plan)
    graph = _happens_before(plan, liveness)
    resolver = _OriginResolver(plan)
    spec = DIAGNOSTICS.require("W301")
    findings: List[Finding] = []
    for tree in trees(plan):
        findings.extend(_check_tree(tree, liveness, graph, resolver, spec))
    return findings


def _check_tree(tree, liveness, graph, resolver, spec) -> List[Finding]:
    simple = [
        task for task in tree if not task.compound and liveness.may_start(task.path)
    ]
    shared: Dict[str, FrozenSet[Origin]] = {
        task.path: _consumed_origins(task, liveness, resolver) for task in simple
    }
    findings: List[Finding] = []
    for a, b in may_overlap(simple, graph):
        common = shared[a.path] & shared[b.path]
        if not common:
            continue
        refs = ", ".join(f"{obj!r} from {origin}" for origin, obj in sorted(common))
        findings.append(
            Finding(
                code="W301",
                severity=spec.severity,
                location=f"{a.path} <-> {b.path}",
                message=(
                    "tasks may be simultaneously enabled (in flight "
                    "together on two worker nodes) and share object "
                    f"reference(s) "
                    f"{refs}; implementations may race on the shared "
                    "object"
                ),
                related=(a.path, b.path),
            )
        )
    return findings
