"""Effect/recovery analysis (``W401`` / ``E402`` / ``W404``).

The reliability half of the language: which of a task's effects survive a
redispatch, and which abort paths can leave committed effects behind.

Effect classification follows §4.2's atomicity convention: a task class
with at least one abort outcome is *atomic* — its implementation runs as a
transaction, so its effects either commit exactly once or roll back.  Every
other task's effects are *bare*: the execution service's at-least-once
dispatch (timeout redispatch, hedging — :mod:`repro.services.execution`)
may run the implementation twice, and the journal deduplicates only the
*reply*, never the side effects (see the ``worker.execute.post`` crash
point in :mod:`repro.services.worker`).

Three checks, all computed over the liveness pass's may-startable relation
(so dead code is not reported twice):

* ``W401`` — a reachable non-atomic task with a bound implementation: its
  bare effects can be applied twice under redispatch/hedging.  This is
  deliberately broad (implementations are opaque, any of them could have
  effects), which is what makes the dynamic sanitizer's duplicate-effect
  findings (:mod:`repro.analysis.dynamic`) always statically predicted.
  Built-in ``system.timer`` tasks never reach a worker and are exempt.
* ``E402`` — a compound whose abort outcome can fire in an execution where
  an atomic constituent has already committed, while no other constituent
  consumes that constituent's committed results (no compensation hook, in
  the sense of the trip workload's ``flightCancellation`` consuming
  ``plane of task flightReservation``): the abort pretends nothing
  happened while committed effects stand.
* ``W404`` — a ``deadline`` implementation property that the execution
  service's ``_arm_deadlines`` will never honour (no abort outcome to fire
  it into), silently ignore (unparsable number), or fire degenerately (a
  non-positive delay lapses the instant it is armed).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from ..core.schema import OutputKind, Script, Source
from .findings import Finding
from .liveness import FlowNode, LivenessResult, check_liveness
from .registry import DIAGNOSTICS

#: implementation codes the execution service handles itself — the task
#: never reaches a worker, so at-least-once duplication cannot touch it
_SERVICE_CODES = frozenset({"system.timer"})


def check_recovery(
    script: Script, liveness: Optional[LivenessResult] = None
) -> List[Finding]:
    """All recovery-safety findings: ``W401``, ``E402``, ``W404``."""
    if liveness is None:
        liveness = check_liveness(script)
    findings: List[Finding] = []
    for root in liveness.roots:
        for node in root.walk():
            findings.extend(_check_bare_effects(node, liveness))
            findings.extend(_check_deadline(node))
            if node.is_compound:
                findings.extend(_check_abort_compensation(node, liveness))
    return findings


# -- W401: bare effects under at-least-once dispatch ---------------------------


def _check_bare_effects(node: FlowNode, liveness: LivenessResult) -> List[Finding]:
    if node.is_compound or node.taskclass is None:
        return []
    if not liveness.may_start(node.path):
        return []  # dead task: E201 already covers it
    if node.taskclass.is_atomic:
        return []  # transactional effects: commit-or-rollback, applied once
    code = node.decl.implementation.code
    if code is None or code in _SERVICE_CODES:
        return []
    spec = DIAGNOSTICS.require("W401")
    return [
        Finding(
            code="W401",
            severity=spec.severity,
            location=node.path,
            message=(
                f"non-atomic task bound to {code!r} is reachable under "
                "at-least-once dispatch: a redispatch or hedge may run the "
                "implementation twice and only the reply is deduplicated, "
                "not its effects — declare an abort outcome to make the "
                "task atomic, or make the implementation idempotent"
            ),
        )
    ]


# -- W404: degenerate deadlines ------------------------------------------------


def _check_deadline(node: FlowNode) -> List[Finding]:
    implementation = node.decl.implementation
    delay = implementation.deadline
    unparsed = {known.keyword: text for known, text in implementation.ill_typed}
    if node.taskclass is None or (delay is None and "deadline" not in unparsed):
        return []
    raw = unparsed["deadline"] if delay is None else f"{delay:g}"
    if not node.taskclass.outputs_of_kind(OutputKind.ABORT):
        problem = (
            "can never arm: the task class declares no abort outcome for the "
            "expiry to fire into"
        )
    elif delay is None:
        problem = "is not a number and is silently ignored by the execution service"
    elif delay <= 0:
        problem = (
            "is non-positive: it lapses the instant it is armed, aborting the "
            "task before inputs can arrive"
        )
    else:
        return []
    severity = DIAGNOSTICS.require("W404").severity
    return [Finding("W404", severity, node.path, f"deadline {raw!r} {problem}")]


# -- E402: abort paths over committed sibling effects --------------------------


def _source_demands_abort(source: Source, constituent: FlowNode) -> bool:
    """True when ``source`` can only fire via ``constituent``'s abort."""
    if source.task_name != constituent.local or constituent.taskclass is None:
        return False
    if source.guard_kind.value != "output" or source.guard_name is None:
        return False
    out = constituent.taskclass.output(source.guard_name)
    return out is not None and out.kind is OutputKind.ABORT


def _conjunct_avoidable(
    sources: Sequence[Source],
    constituent: FlowNode,
    producible: Set,
) -> bool:
    """Can this conjunct be satisfied without demanding the constituent's
    abort?  (Producibility per the liveness facts of the enclosing scope.)"""
    for source in sources:
        if _source_demands_abort(source, constituent):
            continue
        if source.guard_kind.value == "input":
            fact = (source.task_name, "input", source.guard_name)
            if fact in producible:
                return True
        elif source.guard_name is not None:
            fact = (source.task_name, "output", source.guard_name)
            if fact in producible:
                return True
        else:
            # unguarded: any producible outcome/mark of the producer
            if any(
                kind == "output" and producer == source.task_name
                for producer, kind, _name in producible
            ):
                return True
    return False


def _consumes_commit(node: FlowNode, constituent: FlowNode) -> bool:
    """Does ``node`` (a sibling) consume a committed (non-abort) result of
    ``constituent``?  Such a consumer is the compensation hook: it observes
    the committed effects and can undo them (trip's ``flightCancellation``
    consuming ``plane of task flightReservation``)."""
    for binding in node.decl.input_sets:
        groups: List[Sequence[Source]] = [obj.sources for obj in binding.objects]
        groups.extend(notif.sources for notif in binding.notifications)
        for sources in groups:
            for source in sources:
                if source.task_name != constituent.local:
                    continue
                if not _source_demands_abort(source, constituent):
                    return True
    return False


def _check_abort_compensation(
    compound: FlowNode, liveness: LivenessResult
) -> List[Finding]:
    if compound.taskclass is None or not liveness.may_start(compound.path):
        return []
    producible = liveness.facts.get(compound.scope, set())
    inner = liveness.facts.get(compound.path, set())
    abort_bindings = [
        binding
        for binding in compound.decl.outputs
        if (spec := compound.taskclass.output(binding.name)) is not None
        and spec.kind is OutputKind.ABORT
        and (compound.local, "output", binding.name) in producible
    ]
    if not abort_bindings:
        return []
    spec404 = DIAGNOSTICS.require("E402")
    findings: List[Finding] = []
    for constituent in compound.children:
        if constituent.is_compound or constituent.taskclass is None:
            continue
        if not constituent.taskclass.is_atomic:
            continue  # bare effects: W401's department, not E402's
        if not liveness.may_start(constituent.path):
            continue
        commits = [
            out
            for out in constituent.taskclass.final_outputs()
            if out.kind is OutputKind.OUTCOME
            and (constituent.local, "output", out.name) in inner
        ]
        if not commits:
            continue  # the constituent can never commit
        if any(
            sibling is not constituent and _consumes_commit(sibling, constituent)
            for sibling in compound.children
        ):
            continue  # a compensation hook observes the committed result
        uncompensated = []
        for binding in abort_bindings:
            groups: List[Sequence[Source]] = [
                obj.sources for obj in binding.objects
            ]
            groups.extend(notif.sources for notif in binding.notifications)
            # the abort can fire independently of the constituent's fate
            # when every conjunct has a producible alternative that does
            # not demand the constituent's abort
            if all(
                _conjunct_avoidable(sources, constituent, inner)
                for sources in groups
            ):
                uncompensated.append(binding.name)
        if not uncompensated:
            continue
        names = ", ".join(repr(n) for n in sorted(uncompensated))
        findings.append(
            Finding(
                code="E402",
                severity=spec404.severity,
                location=f"{compound.path} -> {constituent.path}",
                message=(
                    f"abort outcome(s) {names} can fire after atomic "
                    f"constituent {constituent.local!r} has committed, and "
                    "no sibling consumes its committed results: the abort "
                    "claims no effects happened while committed effects "
                    "stand uncompensated"
                ),
                related=(compound.path, constituent.path),
            )
        )
    return findings
