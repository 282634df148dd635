"""Invariant oracles for the simulation harness.

Each oracle inspects the live system and returns violations — statements of
fact about a broken guarantee, with enough detail to debug the schedule that
produced it.  The harness runs the cheap oracles continuously (between event
slices, when no transaction can be mid-commit) and the full set after every
recovery and at quiescence.

Oracles and the guarantees they police:

``store-agreement``
    The committed cache of every :class:`~repro.txn.store.ObjectStore` must
    equal a replay of its durable WAL.  The cache is *defined* as a
    projection of the log; divergence means a commit installed state that
    the log cannot reproduce (a lost write after the next crash).
``journal-contiguity``
    Every instance in the store (every durable ``instance:<iid>:spec``) must
    have its meta object, and its segments, walked from position 0, must
    reach ``journal_len`` and every stored segment (one key scan finds
    them); an instance a barrier left terminal (its ``meta`` written then)
    must end exactly at ``journal_len``.  A gap or an overrun means the
    instantiate or journal-append record committed non-atomically.
``script-resolution``
    Every durable spec names its script by digest, and that
    ``script:<digest>`` must be present in the *same* store — on the primary
    and on every standby, at every check.  The text commits in the record of
    the first spec that names it; a spec without it is an instance no
    recovery or promotion could rebuild.
``exactly-once``
    No two journal entries may resolve the same task execution, and no mark
    may be journaled twice.  Duplicate worker replies (at-least-once
    dispatch, duplicated datagrams, hedged sends) must be filtered before
    the journal, not after.
``replay-agreement``
    For every instance, replaying its durable journal from scratch must
    reproduce the answer the service holds for it — status, outcome, output
    objects by value and marks (:func:`answer_of`) — of the live tree, or of
    the summary a settled instance was shed down to.  This is the paper's
    recovery guarantee checked *without* crashing: if replay disagrees with
    the service now, a crash right now would change history — and a summary
    that disagreed could not have been rebuilt.
``refinement``
    Every faulted run must be one the fault-free semantics could produce.  A
    terminal instance whose journal records no ``failure``, ``overloaded``,
    ``force_abort`` or ``reconfig`` entry answers exactly what a
    :class:`~repro.engine.LocalEngine` run of the same script, root, inputs
    and implementations answers — but for the values, where the script binds
    an object from two producers' alternatives (the first to publish wins:
    the schedule's choice); any other instance's root outcome is one
    :func:`repro.core.analysis.analyze_outcomes` finds reachable.  The
    structural oracles above see the journal's shape; this one sees its
    values (a reply's objects lost on the way in, a task run on another
    instance's inputs).
``closed-is-settled``
    Every instance whose stored ``meta`` carries the ``closed`` mark — in the
    primary's store and in every standby's — must replay cold through its
    whole stored journal to a terminal tree with no flight out: a rebuild
    takes it in unreplayed, so a mark on anything else silently drops work.
``settled-is-closed``
    The converse, on the primary: every runtime it holds settled (terminal,
    flushed, nothing out), except an imported one, carries the ``closed``
    mark in its store.  Without it a rebuild replays the instance again:
    recovery would no longer be bounded by what was running.
``durability``
    Once an instance has been *observed* terminal (the observation implies
    the deciding entry was journaled, because entries are journaled before
    they are applied), no later crash/recovery may change its status or
    outcome.  On a run whose faults never end (a node down for good) it is
    the only check of an outcome.
``liveness``
    Once every fault that can end has ended and the network is quiet — a
    primary killed for good excuses nothing its live successor owes — every
    instance
    the execution service accepted — the workload's, and each load-spike
    submission it returned an id for instead of refusing with
    ``Overloaded`` — must be terminal within the quiescence grace period.
    Stuck-forever is a real bug (lost wakeup, un-redispatched flight), and
    an accepted instance that never ends is the silent drop the overload
    layer exists to prevent (§13): turning work away loudly is legal.

Replication oracles (``replicas > 0`` only; docs/PROTOCOLS.md §12):

``single-writer-per-epoch``
    Across all replica stores, every fencing epoch maps to at most one
    writer name.  Two writers sharing an epoch is split-brain made durable.
``single-primary``
    At any observation point, at most one *live* replica may answer
    ``is_primary()`` — the primary role inside an unexpired lease.

Each oracle keeps its place with a seeded mutant it alone catches
(``benchmarks/mutants.py``), or a written reason (EXPERIMENTS.md E16).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Collection, Dict, List, Mapping, Optional, Tuple

from ..services.journal import Journal
from ..services.system import TERMINAL
from ..txn import wal as wal_mod
from ..txn.store import ObjectStore


@dataclass(frozen=True)
class OracleViolation:
    """One broken invariant."""

    oracle: str     # which oracle fired (see module docstring)
    subject: str    # instance id or store name
    detail: str     # human-readable specifics
    phase: str = ""  # when it was detected: "continuous" | "recovery" | "quiescence"

    def to_plain(self) -> Dict[str, str]:
        return asdict(self)


def check_store_agreement(store: ObjectStore, phase: str = "") -> List[OracleViolation]:
    """Committed cache == replay of the durable log.

    Only meaningful at a consistent point — between simulation events (no
    transaction is mid-commit; commits run synchronously inside one event)
    or right after ``store.recover()``.
    """
    replayed = wal_mod.replay(store.wal.durable_records())
    live = store.snapshot()
    if replayed == live:
        return []
    missing = sorted(set(replayed) - set(live))
    extra = sorted(set(live) - set(replayed))
    differing = sorted(
        key for key in set(replayed) & set(live) if replayed[key] != live[key]
    )
    return [
        OracleViolation(
            "store-agreement",
            store.name,
            f"cache diverges from durable log: missing={missing[:5]} "
            f"extra={extra[:5]} differing={differing[:5]}",
            phase,
        )
    ]


def check_journal_integrity(
    store: ObjectStore, phase: str = ""
) -> List[OracleViolation]:
    """Contiguity + script resolution (the spec's script and every
    ``reconfig``'s) + exactly-once over every instance's durable spec and
    journal."""
    violations: List[OracleViolation] = []
    stored = Journal(store)
    for iid, starts in stored.segments().items():
        digest = stored.spec(iid)["script"]
        if stored.script_text(digest) is None:
            violations.append(
                OracleViolation(
                    "script-resolution", iid,
                    f"spec names script {digest} but the store holds no "
                    f"text under it", phase,
                )
            )
        length = stored.length(iid)
        if length is None:
            violations.append(
                OracleViolation(
                    "journal-contiguity", iid,
                    "instance has a spec but no meta object", phase,
                )
            )
            continue
        journal = stored.entries(iid)
        # the walk ends at its first missing position: a segment starting
        # past it, or a journal_len past it, says entries are missing there
        end = max([length, *starts])
        if end > len(journal):
            holes = list(range(len(journal), end))
            violations.append(
                OracleViolation(
                    "journal-contiguity", iid,
                    f"journal_len={length} but entries "
                    f"{holes[:5]} are missing", phase,
                )
            )
        if len(journal) > length and stored.ended(iid):
            violations.append(
                OracleViolation(
                    "journal-contiguity", iid,
                    f"journal_len={length} but its segments hold "
                    f"{len(journal)} entries", phase,
                )
            )
        seen: Dict[Tuple, int] = {}
        for n, entry in enumerate(journal):
            if entry is None:
                continue
            kind = entry.get("type")
            if kind == "reconfig" and entry["script_text"] is None:
                violations.append(
                    OracleViolation(
                        "script-resolution", iid,
                        f"journal entry {n} reconfigures to a script the "
                        f"store holds no text for", phase,
                    )
                )
            if kind in ("result", "failure"):
                key = ("result", entry["path"], entry["exec"])
            elif kind == "mark":
                key = ("mark", entry["path"], entry["exec"], entry["name"])
            elif kind == "deadline":
                key = ("deadline", entry["path"], entry["exec"])
            else:
                continue  # reconfig / force_abort / external may legally repeat
            if key in seen:
                violations.append(
                    OracleViolation(
                        "exactly-once", iid,
                        f"journal entries {seen[key]} and {n} both record "
                        f"{key}", phase,
                    )
                )
            else:
                seen[key] = n
    return violations


def answer_of(tree: Any) -> Tuple[str, Optional[str], Dict[str, Any], List[Tuple[str, Dict]]]:
    """What an instance answers a client (``ExecutionService.result``), by
    value: status, outcome, output objects and marks — the shape of
    ``tests/test_concurrent_engine.py::fingerprint``.  ``tree``: a live or
    settled tree, or a ``LocalEngine`` result."""
    if hasattr(tree, "root"):
        objects, marks = tree.log.outputs_of(tree.root.path)
        status, outcome = tree.status, tree.root.machine.outcome
    else:
        objects, marks = tree.objects, tree.marks
        status, outcome = tree.status, tree.outcome
    return (
        status.value,
        outcome,
        {name: ref.value for name, ref in objects.items()},
        [(name, {key: ref.value for key, ref in released.items()}) for name, released in marks],
    )


def check_replay_agreement(service: Any, phase: str = "") -> List[OracleViolation]:
    """Replaying each instance's durable journal must land on the answer
    ``runtimes`` holds for it — a live tree's or a settled instance's
    summary.  ``service`` is an ExecutionService; typed as Any to keep this
    module import-light."""
    violations: List[OracleViolation] = []
    for iid, runtime in sorted(service.runtimes.items()):
        shadow = service._replay(iid)
        if shadow is None:
            violations.append(
                OracleViolation(
                    "replay-agreement", iid,
                    "live instance has no durable spec to replay from", phase,
                )
            )
            continue
        live, replayed = answer_of(runtime.tree), answer_of(shadow.tree)
        if live != replayed:
            violations.append(
                OracleViolation(
                    "replay-agreement", iid,
                    f"service holds {live} but journal replay yields {replayed}",
                    phase,
                )
            )
    return violations


# entries after which a fault-free run is no longer the reference
_DEPARTURES = frozenset({"failure", "overloaded", "force_abort", "reconfig"})


def _races(script: Any) -> bool:
    """Whether some object is bound from alternatives of two or more
    producers: which one an instance takes is then the schedule's choice
    (the first to publish), and the fault-free run is one answer of several."""
    for _path, decl in script.walk_tasks():
        bindings = [obj for input_set in decl.input_sets for obj in input_set.objects]
        bindings += [obj for output in getattr(decl, "outputs", ()) for obj in output.objects]
        if any(len({source.task_name for source in binding.sources}) > 1 for binding in bindings):
            return True
    return False


def check_refinement(
    service: Any, registry: Any, reference: Dict[Tuple, Any], phase: str = ""
) -> List[OracleViolation]:
    """Each terminal instance answers what the fault-free semantics could.
    ``registry``: the implementations the workers run; ``reference``: the
    caller's memo of reference answers, which depend only on the script
    text, the start and the registry.  Scripts compile through the
    execution service's text-keyed cache."""
    from ..core.analysis import analyze_outcomes
    from ..engine import LocalEngine
    from ..services.execution import _compiled

    violations: List[OracleViolation] = []
    stored = service.journal
    for iid, runtime in sorted(service.runtimes.items()):
        answer = answer_of(runtime.tree)
        spec = stored.spec(iid)
        entries = stored.entries(iid)
        if answer[0] not in TERMINAL or spec is None or len(entries) < (stored.length(iid) or 0):
            continue  # still running, or journal-contiguity's to report
        text = stored.script_text(spec["script"])
        departed = False
        for entry in entries:
            departed = departed or entry["type"] in _DEPARTURES
            if entry["type"] == "reconfig":
                text = entry["script_text"]
        start, script = (spec["root_task"], spec["input_set"]), _compiled(text).script
        if ("races", text) not in reference:
            reference["races", text] = _races(script)
        if departed:
            key = ("reachable", text) + start
            if key not in reference:
                reference[key] = set(analyze_outcomes(script, *start).reachable)
            if answer[1] is None or answer[1] in reference[key]:
                continue
            detail = f"root outcome {answer[1]!r} is not reachable: {sorted(reference[key])}"
        else:
            key = ("answer", text) + start + (repr(sorted(spec["inputs"].items())),)
            if key not in reference:
                reference[key] = answer_of(LocalEngine(registry).run(
                    script, spec["root_task"], inputs=spec["inputs"],
                    input_set=spec["input_set"],
                ))
            expected = reference[key]
            if reference["races", text]:
                # the values are the schedule's choice; what is released is not
                answer, expected = _shape(answer), _shape(expected)
            if answer == expected:
                continue
            detail = f"answers {answer}, the fault-free run {expected}"
        violations.append(OracleViolation("refinement", iid, detail, phase))
    return violations


def _shape(answer: Tuple) -> Tuple:
    """An answer without its values: status, outcome, the output objects'
    names and each mark's name with its objects' names."""
    status, outcome, objects, marks = answer
    return status, outcome, sorted(objects), [(name, sorted(released)) for name, released in marks]


def check_closed_is_settled(service: Any, phase: str = "") -> List[OracleViolation]:
    """What the ``closed`` mark promises of every instance carrying it in
    ``service``'s store (a standby will do: the replay reads only the store):
    the stored journal has no hole, and a cold replay of it ends terminal
    with nothing in flight."""
    violations: List[OracleViolation] = []
    stored = service.journal
    for iid in filter(stored.closed, stored.instances()):
        shadow = service._replay(iid)
        status = shadow.tree.status.value
        missing = stored.length(iid) - len(stored.entries(iid))
        if missing > 0 or status not in TERMINAL or shadow.in_flight:
            violations.append(OracleViolation(
                "closed-is-settled", iid,
                f"{service.store.name} marks the instance closed, but its journal lacks "
                f"{max(missing, 0)} of its entries and replays to status {status!r} with "
                f"{sorted(shadow.in_flight)} still in flight", phase,
            ))
    return violations


def check_settled_is_closed(
    service: Any, phase: str = "", imported: Collection[str] = ()
) -> List[OracleViolation]:
    """The converse of :func:`check_closed_is_settled`, on a primary: every
    runtime ``service`` holds settled carries the ``closed`` mark in its
    store, which is what keeps it out of the next rebuild's replays.  The
    ``imported`` ids are exempt: an adopted journal is stored unmarked and
    replayed at every rebuild, by design."""
    stored = service.journal
    return [
        OracleViolation(
            "settled-is-closed", iid,
            f"{service.store.name} holds the instance settled, but its meta "
            f"carries no closed mark: every rebuild would replay it", phase,
        )
        for iid, runtime in service.runtimes.items()
        if runtime.settled and iid not in imported and not stored.closed(iid)
    ]


def observe_terminal(
    service: Any, recorded: Dict[str, Tuple[str, Optional[str]]]
) -> None:
    """Record the first observed terminal (status, outcome) per instance.

    Entries are journaled before they are applied to the tree, and under
    journal batching the execution service flushes its buffered entries
    within the same event that drives the tree terminal (the terminal
    barrier in ``_dispatch_pending``) — so by the time the harness can
    observe a terminal tree between events, the deciding entry is durable.
    It is from that moment on that losing it becomes a durability
    violation.
    """
    for iid, runtime in service.runtimes.items():
        status = runtime.tree.status.value
        if status in TERMINAL and iid not in recorded:
            recorded[iid] = (status, runtime.tree.root.machine.outcome)


def check_durability(
    service: Any,
    recorded: Mapping[str, Tuple[str, Optional[str]]],
    phase: str = "",
) -> List[OracleViolation]:
    """No previously-observed committed outcome may change or vanish."""
    violations: List[OracleViolation] = []
    for iid, (status, outcome) in sorted(recorded.items()):
        runtime = service.runtimes.get(iid)
        if runtime is None:
            violations.append(
                OracleViolation(
                    "durability", iid,
                    f"instance was observed {status}/{outcome} but is now "
                    f"gone from the execution service", phase,
                )
            )
            continue
        now = (runtime.tree.status.value, runtime.tree.root.machine.outcome)
        if now != (status, outcome):
            violations.append(
                OracleViolation(
                    "durability", iid,
                    f"instance was observed {status}/{outcome} but is now "
                    f"{now[0]}/{now[1]}", phase,
                )
            )
    return violations


def check_epoch_fencing(
    stores: List[ObjectStore], phase: str = ""
) -> List[OracleViolation]:
    """Fencing-epoch safety over the durable journals of every replica:
    across all stores, an epoch is owned by exactly one writer name — two
    writers sharing an epoch is split-brain made durable.  Entries without
    an epoch stamp (epoch 0) predate replication and are skipped.
    """
    violations: List[OracleViolation] = []
    writers: Dict[int, Dict[str, str]] = {}  # epoch -> writer -> first site
    for store in stores:
        stored = Journal(store)
        for iid in stored.instances():
            for n, entry in enumerate(stored.entries(iid)):
                epoch = entry and entry.get("epoch")
                writer = epoch and entry.get("writer")
                if writer:
                    writers.setdefault(epoch, {}).setdefault(
                        writer, f"{store.name}:{iid}:{n}"
                    )
    for epoch, seen in sorted(writers.items()):
        if len(seen) > 1:
            detail = ", ".join(
                f"{writer} (first at {site})" for writer, site in sorted(seen.items())
            )
            violations.append(
                OracleViolation(
                    "single-writer-per-epoch", f"epoch-{epoch}",
                    f"multiple writers journaled entries under one fencing "
                    f"epoch: {detail}", phase,
                )
            )
    return violations


def check_single_primary(replicas: List[Any], phase: str = "") -> List[OracleViolation]:
    """At most one live replica may act as primary: answer ``is_primary()``.

    ``replicas`` are the replicated services.  A replica is primary only
    inside its lease, and the arbiter grants the next epoch only once that
    lease has expired, so two live replicas answering True at one instant is
    the split-brain the lease arbiter exists to prevent.
    """
    holders = [
        (service.name, service.epoch)
        for service in replicas
        if service.node.alive and service.is_primary()
    ]
    if len(holders) <= 1:
        return []
    detail = ", ".join(f"{name} (epoch {epoch})" for name, epoch in sorted(holders))
    return [
        OracleViolation(
            "single-primary", "lease",
            f"{len(holders)} live replicas act as primary at once: {detail}", phase,
        )
    ]


def check_liveness(
    service: Any, accepted: Mapping[str, str], phase: str = "quiescence"
) -> List[OracleViolation]:
    """Every accepted instance must be present and terminal.  ``accepted``
    maps each instance id the service returned to a short provenance label
    (``"workload"``, ``"spike@120.0"``) used in violation messages."""
    violations: List[OracleViolation] = []
    for iid, origin in accepted.items():
        runtime = service.runtimes.get(iid)
        if runtime is None:
            violations.append(
                OracleViolation(
                    "liveness", iid,
                    f"accepted instance ({origin}) missing from a healthy "
                    f"execution service", phase,
                )
            )
            continue
        status = runtime.tree.status.value
        if status not in TERMINAL:
            detail = (
                f"accepted instance ({origin}) has status {status!r} with "
                f"{len(runtime.in_flight)} in-flight and {len(runtime.external)} "
                f"external tasks after quiescence"
            )
            violations.append(OracleViolation("liveness", iid, detail, phase))
    return violations
