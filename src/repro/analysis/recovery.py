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

from typing import List, Optional

from ..core.schema import OutputKind
from ..core.selection import EventKind
from ..engine.plan import EventKey, ExecutionPlan, PlannedTask, TaskTable
from .findings import Finding
from .liveness import LivenessResult, check_liveness, output_key, set_slots, slot_feeds
from .registry import DIAGNOSTICS

#: implementation codes the execution service handles itself — the task
#: never reaches a worker, so at-least-once duplication cannot touch it
_SERVICE_CODES = frozenset({"system.timer"})


def check_recovery(
    plan: ExecutionPlan, liveness: Optional[LivenessResult] = None
) -> List[Finding]:
    """All recovery-safety findings: ``W401``, ``E402``, ``W404``."""
    if liveness is None:
        liveness = check_liveness(plan)
    findings: List[Finding] = []
    for task in plan.tasks:
        findings.extend(_check_bare_effects(task, liveness))
        findings.extend(_check_deadline(task))
        if task.compound:
            findings.extend(_check_abort_compensation(plan, task, liveness))
    return findings


# -- W401: bare effects under at-least-once dispatch ---------------------------


def _check_bare_effects(task: PlannedTask, liveness: LivenessResult) -> List[Finding]:
    if task.compound:
        return []
    if not liveness.may_start(task.path):
        return []  # dead task: E201 already covers it
    if task.taskclass.is_atomic:
        return []  # transactional effects: commit-or-rollback, applied once
    code = task.decl.implementation.code
    if code is None or code in _SERVICE_CODES:
        return []
    spec = DIAGNOSTICS.require("W401")
    return [
        Finding(
            code="W401",
            severity=spec.severity,
            location=task.path,
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


def _check_deadline(task: PlannedTask) -> List[Finding]:
    implementation = task.decl.implementation
    delay = implementation.deadline
    unparsed = {known.keyword: text for known, text in implementation.ill_typed}
    if delay is None and "deadline" not in unparsed:
        return []
    raw = unparsed["deadline"] if delay is None else f"{delay:g}"
    if not task.taskclass.outputs_of_kind(OutputKind.ABORT):
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
    return [Finding("W404", severity, task.path, f"deadline {raw!r} {problem}")]


# -- E402: abort paths over committed sibling effects --------------------------


def _demands_abort(key: EventKey, constituent: PlannedTask) -> bool:
    """True when ``key`` is ``constituent``'s abort."""
    producer, kind, _name = key
    return producer == constituent.local and kind is EventKind.ABORT


def _consumes_commit(table: TaskTable, constituent: PlannedTask) -> bool:
    """Does a sibling with input ``table`` consume a committed (non-abort)
    result of ``constituent``?  Such a consumer is the compensation hook: it
    observes the committed effects and can undo them (trip's
    ``flightCancellation`` consuming ``plane of task flightReservation``)."""
    return any(
        key[0] == constituent.local and not _demands_abort(key, constituent)
        for key in table.entries
    )


def _check_abort_compensation(
    plan: ExecutionPlan, compound: PlannedTask, liveness: LivenessResult
) -> List[Finding]:
    if not liveness.may_start(compound.path):
        return []
    producible = liveness.facts.get(compound.scope, set())
    inner = liveness.facts.get(compound.path, set())
    abort_watches = []
    for watch in plan.scopes[compound.path].watch_tables:
        key = output_key(compound, watch)
        if key[1] is EventKind.ABORT and key in producible:
            abort_watches.append(watch)
    if not abort_watches:
        return []
    spec402 = DIAGNOSTICS.require("E402")
    children = [task for task in plan.tasks if task.scope == compound.path]
    findings: List[Finding] = []
    for constituent in children:
        if constituent.compound or not constituent.taskclass.is_atomic:
            continue  # bare effects: W401's department, not E402's
        if not liveness.may_start(constituent.path):
            continue
        if not any(
            (constituent.local, EventKind.OUTCOME, out.name) in inner
            for out in constituent.taskclass.outputs_of_kind(OutputKind.OUTCOME)
        ):
            continue  # the constituent can never commit
        if any(
            sibling is not constituent and _consumes_commit(sibling.table, constituent)
            for sibling in children
        ):
            continue  # a compensation hook observes the committed result
        uncompensated = []
        for watch in abort_watches:
            feeds = slot_feeds(watch)
            # the abort can fire independently of the constituent's fate
            # when every slot has a producible key (per the liveness facts of
            # the compound's scope) that does not demand the constituent's
            # abort
            if all(
                any(
                    key in inner and not _demands_abort(key, constituent)
                    for key, _obj in feeds[slot]
                )
                for slot in set_slots(watch.sets[0].mask)
            ):
                uncompensated.append(watch.sets[0].name)
        if not uncompensated:
            continue
        names = ", ".join(repr(n) for n in sorted(uncompensated))
        findings.append(
            Finding(
                code="E402",
                severity=spec402.severity,
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
