"""Static lock-order analysis (``E403``).

An atomic task (one with an abort outcome, §4.2) runs as a transaction:
under strict two-phase locking (:mod:`repro.txn.locks`) its implementation
locks the objects it operates on and holds them to commit/abort.  The
objects a task operates on are exactly its declared input objects, and the
natural (and documented) acquisition order is their declaration order in
the input set — the same order :class:`~repro.engine.context.TaskContext`
presents them in.

Two atomic tasks that the concurrent engine may co-schedule and that lock
two shared objects in opposite declaration orders can therefore deadlock:
A holds x and waits for y while B holds y and waits for x.  The runtime
:class:`~repro.txn.locks.LockManager` detects the waits-for cycle only
once it has formed (``DeadlockError``); this pass reports the possibility
statically, before anything runs.

Method (reusing the interference machinery):

* *may-overlap* — same happens-before criterion as ``W301``: neither
  task's end reaches the other's start in the conservative HB graph;
* *acquisition profile* — per startable input set, the task's input
  objects resolved to their origins (:class:`_OriginResolver` — the same
  origin is the same lockable object) in declaration order, first
  occurrence kept;
* *inversion* — a pair of origins ``x``, ``y`` with ``x`` before ``y`` in
  one task's profile and ``y`` before ``x`` in the other's.

This detects 2-cycles (AB-BA inversions).  Longer cycles through three or
more tasks are not enumerated statically — the dynamic sanitizer
(:mod:`repro.analysis.dynamic`) still catches them at run time, and every
pair of adjacent tasks on such a cycle shares two objects in inverted
order whenever the cycle is closed by declaration order, so the common
cases surface here too.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..core.schema import Script
from .findings import Finding
from .interference import _END, _START, Origin, _OriginResolver, _happens_before
from .liveness import FlowNode, LivenessResult, check_liveness
from .registry import DIAGNOSTICS

#: one acquisition profile: origins in declaration order (deduplicated)
Profile = Tuple[Origin, ...]


def acquisition_profiles(
    node: FlowNode, liveness: LivenessResult, resolver: _OriginResolver
) -> List[Profile]:
    """Every lock-acquisition order ``node`` can exhibit: one profile per
    startable input set, input objects in declaration order, each resolved
    to its origin set (a multi-origin alternative contributes every origin
    at that position — over-approximate, sound for a may-analysis)."""
    if node.parent is None:
        return []
    profiles: List[Profile] = []
    startable = liveness.startable.get(node.path, set())
    for binding in node.decl.input_sets:
        if binding.name not in startable:
            continue
        ordered: List[Origin] = []
        seen: Set[Origin] = set()
        for obj in binding.objects:
            position: Set[Origin] = set()
            for source in obj.sources:
                position.update(resolver.source_origins(node.parent, source))
            for origin in sorted(position):
                if origin not in seen:
                    seen.add(origin)
                    ordered.append(origin)
        if len(ordered) >= 2:
            profiles.append(tuple(ordered))
    return profiles


def _inverted_pair(
    a_profiles: List[Profile], b_profiles: List[Profile]
) -> Optional[Tuple[Origin, Origin]]:
    """A pair of origins acquired in opposite orders, if any."""
    for pa in a_profiles:
        index_a = {origin: i for i, origin in enumerate(pa)}
        for pb in b_profiles:
            index_b = {origin: i for i, origin in enumerate(pb)}
            shared = [o for o in pa if o in index_b]
            for i, x in enumerate(shared):
                for y in shared[i + 1 :]:
                    if (index_a[x] < index_a[y]) != (index_b[x] < index_b[y]):
                        first, second = sorted((x, y))
                        return first, second
    return None


def check_lockorder(
    script: Script, liveness: Optional[LivenessResult] = None
) -> List[Finding]:
    """All ``E403`` findings: potential AB-BA deadlocks between atomic
    tasks the concurrent engine may co-schedule."""
    import networkx as nx

    if liveness is None:
        liveness = check_liveness(script)
    graph = _happens_before(liveness)
    resolver = _OriginResolver(liveness)
    spec = DIAGNOSTICS.require("E403")
    findings: List[Finding] = []
    for root in liveness.roots:
        atomic = [
            node
            for node in root.walk()
            if not node.is_compound
            and node.taskclass is not None
            and node.taskclass.is_atomic
            and liveness.may_start(node.path)
        ]
        reach: Dict[str, Set] = {
            node.path: nx.descendants(graph, (_END, node.path))
            for node in atomic
            if (_END, node.path) in graph
        }
        profiles = {
            node.path: acquisition_profiles(node, liveness, resolver)
            for node in atomic
        }
        for i, a in enumerate(atomic):
            for b in atomic[i + 1 :]:
                if (_START, b.path) in reach.get(a.path, set()):
                    continue  # ordered: a always ends before b starts
                if (_START, a.path) in reach.get(b.path, set()):
                    continue
                inverted = _inverted_pair(profiles[a.path], profiles[b.path])
                if inverted is None:
                    continue
                (ox, nx_), (oy, ny) = inverted
                findings.append(
                    Finding(
                        code="E403",
                        severity=spec.severity,
                        location=f"{a.path} <-> {b.path}",
                        message=(
                            "atomic tasks may run concurrently and lock "
                            f"{nx_!r} (from {ox}) and {ny!r} (from {oy}) in "
                            "opposite declaration order; under strict 2PL "
                            "this can deadlock at run time "
                            "(LockManager DeadlockError)"
                        ),
                        related=(a.path, b.path),
                    )
                )
    return findings
