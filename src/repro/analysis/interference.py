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

* build a conservative happens-before relation over task starts and ends —
  an edge is added only when it holds on *every* execution (all alternative
  sources of a binding agree on the producer, intersected across the input
  sets the task can actually start through, and across a compound's
  producible final outputs);
* two startable simple tasks neither of whose ends reaches the other's
  start *may* overlap;
* each task's consumed object references are resolved to their origin —
  chasing references through compound input ports and output mappings — and
  a pair that may overlap while sharing an origin is reported as ``W301``.

This is a *may* analysis: every pair one drain pass can genuinely put in
flight together is reported (soundness is property-tested against
:func:`enabled_pairs`), at the price of possible false positives when
dataflow values rule an overlap out dynamically.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from ..core.schema import (
    GuardKind,
    InputSetBinding,
    OutputBinding,
    OutputKind,
    Script,
    Source,
)
from .findings import Finding
from .liveness import FlowNode, LivenessResult, check_liveness
from .registry import DIAGNOSTICS

if TYPE_CHECKING:
    import networkx as nx  # loaded by the functions that build a graph

# an origin of an object reference: (producing task path or "<env>", object)
Origin = Tuple[str, str]

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


def _is_final_guard(source: Source, owner: FlowNode) -> bool:
    """True when the source can only fire at its producer's termination."""
    producer_class = owner.sibling_class(source.task_name)
    if producer_class is None:
        return False
    if source.guard_kind is GuardKind.OUTPUT:
        out = producer_class.output(source.guard_name)
        return out is not None and out.kind in (OutputKind.OUTCOME, OutputKind.ABORT)
    if source.guard_kind is GuardKind.ANY:
        candidates = [
            out
            for out in producer_class.outputs
            if out.kind in (OutputKind.OUTCOME, OutputKind.MARK)
            and source.object_name is not None
            and out.object(source.object_name) is not None
        ]
        return bool(candidates) and all(
            out.kind is OutputKind.OUTCOME for out in candidates
        )
    return False  # `if input` fires at the producer's start


def _conjunct_pred(
    sources: Sequence[Source], owner: FlowNode
) -> Optional[Tuple[str, str]]:
    """Guaranteed predecessor of a conjunct, as (start|end, producer path).

    Only meaningful when every alternative names the same producer: whichever
    alternative fires, that producer acted first.  Mixed producers guarantee
    nothing (the conjunct may be satisfied by either), so no edge.
    """
    producers = {source.task_name for source in sources}
    if len(producers) != 1:
        return None
    producer = producers.pop()
    if producer == owner.local:
        return None  # the enclosing compound; covered by the parent edge
    if owner.sibling_class(producer) is None:
        return None
    strength = (
        _END
        if all(_is_final_guard(source, owner) for source in sources)
        else _START
    )
    return strength, f"{owner.path}/{producer}"


def _binding_preds(
    binding: Union[InputSetBinding, OutputBinding], owner: FlowNode
) -> Dict[str, str]:
    """path -> strongest guaranteed predecessor strength for one input set
    (or one output mapping of the compound ``owner``)."""
    preds: Dict[str, str] = {}
    conjuncts: List[Sequence[Source]] = [obj.sources for obj in binding.objects]
    conjuncts.extend(notif.sources for notif in binding.notifications)
    for sources in conjuncts:
        pred = _conjunct_pred(sources, owner)
        if pred is None:
            continue
        strength, path = pred
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


def _happens_before(liveness: LivenessResult) -> "nx.DiGraph":
    import networkx as nx

    graph = nx.DiGraph()
    for root in liveness.roots:
        for node in root.walk():
            graph.add_edge((_START, node.path), (_END, node.path))
            for child in node.children:
                graph.add_edge((_START, node.path), (_START, child.path))
            if node.parent is not None:
                owner = node.parent
                startable = liveness.startable.get(node.path, set())
                per_set = [
                    _binding_preds(binding, owner)
                    for binding in node.decl.input_sets
                    if binding.name in startable
                ]
                for path, strength in _intersect_preds(per_set).items():
                    graph.add_edge((strength, path), (_START, node.path))
            if node.is_compound:
                produced = liveness.facts.get(node.scope, set())
                taskclass = node.taskclass
                finals = {o.name for o in taskclass.final_outputs()} if taskclass else set()
                final_preds = [
                    _binding_preds(binding, node)
                    for binding in node.decl.outputs
                    # an output that can never fire does not constrain the end
                    if binding.name in finals
                    and (node.local, "output", binding.name) in produced
                ]
                for path, strength in _intersect_preds(final_preds).items():
                    graph.add_edge((strength, path), (_END, node.path))
    return graph


class _OriginResolver:
    """Chases an object reference back to the task (or environment input)
    that created it, through compound input ports and output mappings."""

    def __init__(self, liveness: LivenessResult) -> None:
        self.liveness = liveness
        self._memo: Dict[Tuple[str, str, Optional[str], Optional[str], str], FrozenSet[Origin]] = {}
        self._active: Set[Tuple[str, str, Optional[str], Optional[str], str]] = set()

    def source_origins(self, owner: FlowNode, source: Source) -> FrozenSet[Origin]:
        if source.object_name is None:
            return frozenset()
        key = (
            owner.path,
            source.task_name,
            source.guard_name,
            source.object_name,
            source.guard_kind.value,
        )
        if key in self._memo:
            return self._memo[key]
        if key in self._active:
            return frozenset()  # reference cycle: no base origin
        self._active.add(key)
        try:
            result = self._resolve(owner, source)
        finally:
            self._active.discard(key)
        self._memo[key] = result
        return result

    def _resolve(self, owner: FlowNode, source: Source) -> FrozenSet[Origin]:
        obj = source.object_name
        assert obj is not None
        if source.task_name == owner.local:
            # the enclosing compound: objects flow in through its input port
            if source.guard_kind is not GuardKind.INPUT:
                return frozenset()
            return self._input_port_origins(owner, source.guard_name, obj)
        producer = next(
            (c for c in owner.children if c.local == source.task_name), None
        )
        if producer is None:
            return frozenset()
        if source.guard_kind is GuardKind.INPUT:
            # the object the producer itself received
            return self._input_port_origins(producer, source.guard_name, obj)
        if not producer.is_compound:
            return frozenset({(producer.path, obj)})
        # compound producer: chase through its output mapping(s)
        if source.guard_kind is GuardKind.OUTPUT:
            names = [source.guard_name]
        else:  # ANY: any outcome/mark carrying the object
            names = [
                out.name
                for out in (producer.taskclass.outputs if producer.taskclass else ())
                if out.kind in (OutputKind.OUTCOME, OutputKind.MARK)
                and out.object(obj) is not None
            ]
        origins: Set[Origin] = set()
        for name in names:
            binding = producer.decl.output(name)
            if binding is None:
                continue
            mapped = binding.object(obj)
            if mapped is None:
                continue
            for alt in mapped.sources:
                origins.update(self.source_origins(producer, alt))
        return frozenset(origins)

    def _input_port_origins(
        self, node: FlowNode, set_name: Optional[str], obj: str
    ) -> FrozenSet[Origin]:
        if node.parent is None:
            return frozenset({("<env>", obj)})
        candidates = (
            [b for b in node.decl.input_sets if b.name == set_name]
            if set_name is not None
            else list(node.decl.input_sets)
        )
        origins: Set[Origin] = set()
        for binding in candidates:
            bound = binding.object(obj)
            if bound is None:
                continue
            for alt in bound.sources:
                origins.update(self.source_origins(node.parent, alt))
        return frozenset(origins)


def _consumed_origins(
    node: FlowNode, liveness: LivenessResult, resolver: _OriginResolver
) -> FrozenSet[Origin]:
    """Origins of every object reference ``node`` may receive as input."""
    if node.parent is None:
        return frozenset()
    startable = liveness.startable.get(node.path, set())
    origins: Set[Origin] = set()
    for binding in node.decl.input_sets:
        if binding.name not in startable:
            continue
        for obj in binding.objects:
            for source in obj.sources:
                origins.update(resolver.source_origins(node.parent, source))
    return frozenset(origins)


def check_interference(
    script: Script, liveness: Optional[LivenessResult] = None
) -> List[Finding]:
    """All ``W3xx`` findings: potentially racy concurrently-enabled pairs."""
    if liveness is None:
        liveness = check_liveness(script)
    graph = _happens_before(liveness)
    resolver = _OriginResolver(liveness)
    spec = DIAGNOSTICS.require("W301")
    findings: List[Finding] = []
    for root in liveness.roots:
        findings.extend(
            _check_root(root, liveness, graph, resolver, spec)
        )
    return findings


def _check_root(root, liveness, graph, resolver, spec) -> List[Finding]:
    import networkx as nx

    simple = [
        node
        for node in root.walk()
        if not node.is_compound and liveness.may_start(node.path)
    ]
    reach: Dict[str, Set] = {
        node.path: nx.descendants(graph, (_END, node.path))
        for node in simple
        if (_END, node.path) in graph
    }
    shared: Dict[str, FrozenSet[Origin]] = {
        node.path: _consumed_origins(node, liveness, resolver) for node in simple
    }
    findings: List[Finding] = []
    for i, a in enumerate(simple):
        for b in simple[i + 1 :]:
            if (_START, b.path) in reach.get(a.path, set()):
                continue  # a's end precedes b's start on every execution
            if (_START, a.path) in reach.get(b.path, set()):
                continue
            common = shared[a.path] & shared[b.path]
            if not common:
                continue
            refs = ", ".join(
                f"{obj!r} from {origin}" for origin, obj in sorted(common)
            )
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
