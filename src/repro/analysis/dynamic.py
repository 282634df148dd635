"""Runtime sanitizer: the dynamic half of the recovery/concurrency analysis.

The static passes (:mod:`repro.analysis.interference`,
:mod:`repro.analysis.recovery`) are
*may*-analyses — they over-approximate what the engine can do.  This module
watches what the engine actually *does* and checks the containment the
analyzer promises: **every dynamic finding must be predicted by a static
one** (dynamic ⊆ static).  A dynamic finding with no static counterpart is
an analyzer bug, and ``repro sanitize`` exits non-zero on it.

Two detectors, one :class:`Sanitizer`:

* **races** (dynamic ``W301``) — vector clocks threaded through the
  instance tree.  A task's clock is the join of its parent compound's
  clock and the clocks of every event its chosen input set matched, plus
  one tick of its own; events are stamped with their publisher's clock.
  Two tasks that start with *incomparable* clocks while holding the same
  object reference (same provenance token) raced on it.
* **duplicate effects** (dynamic ``W401``) — no hooks at all: the
  :class:`~repro.services.worker.TaskWorker` execution ledger is scanned
  after the run for ``(instance, path, execution_index)`` triples executed
  more than once.  A duplicate on a non-atomic task is a bare effect
  applied twice (the journal deduplicates only the reply).

The sanitizer attaches by *instance-level method wrapping* — it replaces
bound methods on one tree or one execution service.
Unsanitized runs execute the original methods with zero added branches,
which is what keeps the "0 overhead when disabled" guarantee honest.

Concurrency is tasks on different worker nodes of the simulated system
(:func:`sanitized_run`), so a schedule is a seed: the same seed replays the
same interleaving, and the same findings, byte for byte.  Every hook runs
on the one thread that drives the simulation, so the clock tables need no
locking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.schema import Script
from ..core.selection import source_matches
from ..core.values import ObjectRef
from ..engine.plan import ExecutionPlan, compile_plan
from .findings import StaticReport

#: provenance token identifying one shared object reference: producer,
#: producing outcome/input set, class, and the name the producer published
#: it under — the same granularity as the static analysis's origins, which
#: distinguish sibling objects of one event (and distinct environment
#: inputs) by name
AccessToken = Tuple[Optional[str], Optional[str], str, Optional[str]]


class VectorClock:
    """A plain path→counter vector clock (mutable, copy-on-share)."""

    __slots__ = ("clock",)

    def __init__(self, clock: Optional[Dict[str, int]] = None) -> None:
        self.clock: Dict[str, int] = dict(clock) if clock else {}

    def copy(self) -> "VectorClock":
        return VectorClock(self.clock)

    def join(self, other: Optional["VectorClock"]) -> None:
        if other is None:
            return
        for path, tick in other.clock.items():
            if tick > self.clock.get(path, 0):
                self.clock[path] = tick

    def increment(self, path: str) -> None:
        self.clock[path] = self.clock.get(path, 0) + 1

    def concurrent(self, other: "VectorClock") -> bool:
        # single pass over both clocks (this runs O(accesses^2) per token
        # on fan-heavy workloads, so it is the sanitizer's hottest loop)
        mine, theirs = self.clock, other.clock
        self_ahead = other_ahead = False
        get = theirs.get
        for path, tick in mine.items():
            delta = tick - get(path, 0)
            if delta > 0:
                if other_ahead:
                    return True
                self_ahead = True
            elif delta < 0:
                if self_ahead:
                    return True
                other_ahead = True
        if self_ahead and not other_ahead:
            get = mine.get
            for path, tick in theirs.items():
                if tick > get(path, 0):
                    return True
        return False


@dataclass(frozen=True)
class DynamicFinding:
    """One runtime observation, tagged with the static code that must
    predict it."""

    kind: str                    # "race" | "duplicate-effect"
    code: str                    # the static code expected to cover it
    subjects: Tuple[str, ...]    # task paths involved (sorted)
    detail: str

    def render(self) -> str:
        return f"[{self.kind} -> {self.code}] {' <-> '.join(self.subjects)}: {self.detail}"


class Sanitizer:
    """Vector-clock observer for one (or several) runs.

    Attach with :meth:`attach_tree` / :meth:`attach_service`, run the
    workflow, then read :attr:`findings`
    (plus :meth:`scan_workers` for duplicate effects) and gate with
    :meth:`check_coverage`.
    """

    def __init__(self) -> None:
        self.findings: List[DynamicFinding] = []
        self._node_vc: Dict[str, VectorClock] = {}
        self._event_vc: Dict[Tuple[str, int], VectorClock] = {}
        self._accesses: Dict[AccessToken, List[Tuple[str, VectorClock]]] = {}
        # ref -> (name it was published under, publisher's clock); keyed by
        # id() but holding the ref itself so the id cannot be recycled while
        # the entry lives
        self._ref_names: Dict[int, Tuple[ObjectRef, str, VectorClock]] = {}
        self._race_details: Dict[AccessToken, str] = {}
        self._race_pairs: Set[Tuple[str, str]] = set()
        self._reported_duplicates: Set[Tuple[str, str, int]] = set()
        self.trees_attached = 0

    # -- instance-tree hooks (races) ----------------------------------------------

    def attach_tree(self, tree) -> None:
        """Wrap ``tree._publish`` and ``tree._start_node`` in place."""
        original_publish = tree._publish
        original_start = tree._start_node
        sanitizer = self

        def publish(scope, node, kind, name, objects):
            event = original_publish(scope, node, kind, name, objects)
            vc = sanitizer._node_vc.get(node.path)
            stamped = vc.copy() if vc is not None else VectorClock()
            sanitizer._event_vc[(scope.path, event.seq)] = stamped
            for obj_name, ref in objects.items():
                if isinstance(ref, ObjectRef):
                    sanitizer._ref_names.setdefault(
                        id(ref), (ref, obj_name, stamped)
                    )
            return event

        def start_node(node, input_set, inputs):
            sanitizer._on_start(node, input_set, inputs)
            original_start(node, input_set, inputs)

        tree._publish = publish
        tree._start_node = start_node
        self.trees_attached += 1

    def attach_service(self, service) -> None:
        """Wrap ``service._new_tree`` in place: every tree the execution
        service builds from now on — live, replayed after a crash or
        restored for a read — is attached before its root starts."""
        original_new_tree = service._new_tree
        attach_tree = self.attach_tree

        def new_tree(script, root_task, plan):
            tree = original_new_tree(script, root_task, plan)
            attach_tree(tree)
            return tree

        service._new_tree = new_tree

    def attach_harness(self, harness) -> None:
        """Wrap ``harness._deploy`` in place on one ``SimHarness``: every
        execution service of the system it builds is attached before the
        workload is deployed, and stays attached through every crash."""
        original_deploy = harness._deploy

        def deploy(spec):
            system = harness._system
            for service in system.execution_replicas or [system.execution]:
                self.attach_service(service)
            original_deploy(spec)

        harness._deploy = deploy

    def _on_start(
        self, node, input_set: str, inputs: Mapping[str, ObjectRef]
    ) -> None:
        vc = VectorClock()
        if node.parent is not None:
            vc.join(self._node_vc.get(node.parent.path))
        # object bindings: join the publisher clocks of the refs actually
        # consumed (exact dataflow ordering, no event scan)
        ref_names = self._ref_names
        for ref in inputs.values():
            entry = ref_names.get(id(ref))
            if entry is not None and entry[0] is ref:
                vc.join(entry[2])
        # notification bindings never surface a ref in the chosen inputs, so
        # recover their ordering by matching the scope history (rare path —
        # most bindings carry only objects)
        binding = next(
            (b for b in node.decl.input_sets if b.name == input_set), None
        )
        if binding is not None and binding.notifications:
            by_producer: Dict[str, List] = {}
            for notif in binding.notifications:
                for s in notif.sources:
                    by_producer.setdefault(s.task_name, []).append(s)
            scope = node.outer_scope
            event_vc = self._event_vc
            for event in list(scope.events):
                candidates = by_producer.get(event.producer)
                if candidates and any(
                    source_matches(s, event) for s in candidates
                ):
                    vc.join(event_vc.get((scope.path, event.seq)))
        vc.increment(node.path)
        self._node_vc[node.path] = vc
        if not node.is_compound:
            self._record_accesses(node.path, vc, inputs)

    def _record_accesses(
        self, path: str, vc: VectorClock, inputs: Mapping[str, ObjectRef]
    ) -> None:
        ref_names = self._ref_names
        accesses = self._accesses
        race_pairs = self._race_pairs
        findings = self.findings
        for ref in inputs.values():
            if not isinstance(ref, ObjectRef) or ref.class_name == "<notification>":
                continue
            named = ref_names.get(id(ref))
            produced_as = named[1] if named is not None and named[0] is ref else None
            token: AccessToken = (
                ref.produced_by, ref.via, ref.class_name, produced_as,
            )
            history = accesses.setdefault(token, [])
            for other_path, other_vc in history:
                if other_path == path:
                    continue
                pair = (
                    (other_path, path) if other_path < path else (path, other_path)
                )
                if pair in race_pairs:
                    continue
                if vc.concurrent(other_vc):
                    race_pairs.add(pair)
                    detail = self._race_details.get(token)
                    if detail is None:
                        detail = (
                            f"both held {token[2]} produced by "
                            f"{token[0]}.{token[1]} with incomparable "
                            "vector clocks"
                        )
                        self._race_details[token] = detail
                    findings.append(
                        DynamicFinding(
                            kind="race",
                            code="W301",
                            subjects=pair,
                            detail=detail,
                        )
                    )
            history.append((path, vc))

    # -- duplicate effects (worker ledger scan) ------------------------------------

    def scan_workers(self, workers: Sequence, plan: ExecutionPlan) -> None:
        """Scan :attr:`TaskWorker.executed` ledgers for task executions the
        at-least-once dispatch ran more than once; duplicates on non-atomic
        tasks of ``plan`` are bare effects applied twice (dynamic ``W401``).
        A path the plan does not hold (a task grown from a template) is
        skipped."""
        counts: Dict[Tuple[str, str, int], int] = {}
        for worker in workers:
            for triple in getattr(worker, "executed", []):
                counts[triple] = counts.get(triple, 0) + 1
        for triple, count in sorted(counts.items()):
            if count < 2 or triple in self._reported_duplicates:
                continue
            instance, path, index = triple
            task = plan.task_at(path)
            if task is None or task.taskclass.is_atomic:
                continue  # transactional effects roll back; not a bare duplicate
            self._reported_duplicates.add(triple)
            self.findings.append(
                DynamicFinding(
                    kind="duplicate-effect",
                    code="W401",
                    subjects=(path,),
                    detail=(
                        f"execution #{index} of {path!r} (instance "
                        f"{instance!r}) ran {count} times across workers"
                    ),
                )
            )

    # -- the containment check -----------------------------------------------------

    def check_coverage(self, report: StaticReport) -> List[DynamicFinding]:
        """Dynamic findings with **no** static counterpart (must be empty —
        anything returned is an analyzer bug, not an application bug)."""
        by_code: Dict[str, List] = {}
        for finding in report.findings:
            by_code.setdefault(finding.code, []).append(finding)
        uncovered: List[DynamicFinding] = []
        for dyn in self.findings:
            if not any(_covers(stat, dyn) for stat in by_code.get(dyn.code, [])):
                uncovered.append(dyn)
        return uncovered

    def render(self) -> List[str]:
        return [finding.render() for finding in self.findings]


def _covers(static_finding, dyn: DynamicFinding) -> bool:
    """Does one static finding predict one dynamic observation?"""
    subjects = set(dyn.subjects)
    if dyn.kind == "duplicate-effect":
        return static_finding.location in subjects
    return set(static_finding.related) == subjects


def sanitized_run(
    sanitizer: Sanitizer,
    script: Script,
    root_task: str,
    registry,
    inputs: Mapping[str, object],
    input_set: str = "main",
    seed: int = 0,
) -> Dict[str, Any]:
    """Run one instance of ``script`` to its end on a simulated distributed
    system seeded ``seed``, with ``sanitizer`` attached to the execution
    service's trees, then scan the workers' ledgers for duplicate effects.
    The seed fixes the network latencies, so the order in which concurrent
    tasks' replies land: one seed is one schedule, replayed exactly.
    Returns the instance's result (``ExecutionService.result``)."""
    from ..lang import format_script
    from ..services.system import WorkflowSystem

    system = WorkflowSystem(seed=seed, registry=registry)
    sanitizer.attach_service(system.execution)
    system.deploy(root_task, format_script(script))
    iid = system.instantiate(root_task, root_task, inputs, input_set)
    result = system.run_until_terminal(iid)
    sanitizer.scan_workers(system.workers, compile_plan(script))
    return result


