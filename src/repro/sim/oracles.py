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
    have its meta object and journal entries ``0..journal_len-1`` all
    present.  A gap means the instantiate or journal-append record
    committed non-atomically.
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
    reproduce the status and outcome the service holds for it: the live
    tree's, or the summary a settled instance was shed down to.  This is the
    paper's recovery guarantee checked *without* crashing: if replay
    disagrees with the service now, a crash right now would change history —
    and a summary that disagreed could not have been rebuilt.
``closed-is-settled``
    Every instance whose stored ``meta`` carries the ``closed`` mark — in the
    primary's store and in every standby's — must replay cold through its
    whole stored journal to a terminal tree with no flight out: a rebuild
    takes it in unreplayed, so a mark on anything else silently drops work.
``durability``
    Once an instance has been *observed* terminal (the observation implies
    the deciding entry was journaled, because entries are journaled before
    they are applied), no later crash/recovery may change its status or
    outcome.
``liveness``
    Once every node is healthy and the network is quiet, every instance
    must reach a terminal status within the quiescence grace period.
    Stuck-forever is a real bug (lost wakeup, un-redispatched flight), not
    an acceptable outcome of a finite fault schedule.
``no-silent-drop``
    Every instance the execution service *accepted* under load (returned an
    id for, instead of refusing with ``Overloaded``) must end in a decisive
    journaled terminal state — completed, aborted, failed, or a journaled
    ``overloaded`` shed.  Turning work away loudly is legal; losing it
    quietly is the overload bug this layer exists to prevent (§13).

Replication oracles (``replicas > 0`` only; docs/PROTOCOLS.md §12):

``epoch-monotone``
    Within each instance journal — on every replica's store — the fencing
    epoch stamped on successive entries must be non-decreasing.  A decrease
    means a stale primary appended after a successor was elected.
``single-writer-per-epoch``
    Across all replica stores, every fencing epoch maps to at most one
    writer name.  Two writers sharing an epoch is split-brain made durable.
``single-primary``
    At any observation point, at most one *live* replica may hold the
    PRIMARY role under an unexpired lease.  (A demoted-but-not-yet-ticked
    stale primary with an expired lease is legal; one actively holding an
    overlapping lease is not.)
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

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

    def __str__(self) -> str:
        where = f" [{self.phase}]" if self.phase else ""
        return f"{self.oracle}({self.subject}){where}: {self.detail}"


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
    """Contiguity + script resolution + exactly-once over every instance's
    durable spec and journal."""
    violations: List[OracleViolation] = []
    stored = Journal(store)
    for iid in stored.instances():
        digest = stored.spec(iid)["script"]
        if stored.script_text(digest) is None:
            violations.append(
                OracleViolation(
                    "script-resolution", iid,
                    f"spec names script {digest} but the store holds no "
                    f"text under it", phase,
                )
            )
        if stored.length(iid) is None:
            violations.append(
                OracleViolation(
                    "journal-contiguity", iid,
                    "instance has a spec but no meta object", phase,
                )
            )
            continue
        journal = stored.entries(iid)
        holes = [n for n, entry in enumerate(journal) if entry is None]
        if holes:
            violations.append(
                OracleViolation(
                    "journal-contiguity", iid,
                    f"journal_len={len(journal)} but entries "
                    f"{holes[:5]} are missing", phase,
                )
            )
        seen: Dict[Tuple, int] = {}
        for n, entry in enumerate(journal):
            if entry is None:
                continue
            kind = entry.get("type")
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


def check_replay_agreement(service: Any, phase: str = "") -> List[OracleViolation]:
    """Replaying each instance's durable journal must land on the (status,
    outcome) ``runtimes`` holds for it — a live tree's or a settled
    instance's summary.  ``service`` is an ExecutionService; typed as Any to
    keep this module import-light."""
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
        live = (runtime.tree.status.value, runtime.tree.root.machine.outcome)
        replayed = (shadow.tree.status.value, shadow.tree.root.machine.outcome)
        if live != replayed:
            violations.append(
                OracleViolation(
                    "replay-agreement", iid,
                    f"service holds {live} but journal replay yields {replayed}",
                    phase,
                )
            )
    return violations


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
        holes = stored.entries(iid).count(None)
        if holes or status not in TERMINAL or shadow.in_flight:
            violations.append(OracleViolation(
                "closed-is-settled", iid,
                f"{service.store.name} marks the instance closed, but its journal has "
                f"{holes} hole(s) and replays to status {status!r} with "
                f"{sorted(shadow.in_flight)} still in flight", phase,
            ))
    return violations


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


def check_atomic_commit(
    store_a: ObjectStore,
    store_b: ObjectStore,
    key: str = "probe-counter",
    phase: str = "",
) -> List[OracleViolation]:
    """2PC atomicity: the probe counter incremented in both participant
    stores under one transaction must never diverge.  Only meaningful once
    in-doubt participants have been resolved (the harness checks after
    recovery resolution, never mid-outage)."""
    a = store_a.get_committed(key, 0)
    b = store_b.get_committed(key, 0)
    if a == b:
        return []
    return [
        OracleViolation(
            "atomic-commit",
            f"{store_a.name}+{store_b.name}",
            f"{key} diverged: {store_a.name}={a} {store_b.name}={b}",
            phase,
        )
    ]


def check_epoch_fencing(
    stores: List[ObjectStore], phase: str = ""
) -> List[OracleViolation]:
    """Fencing-epoch safety over the durable journals of every replica.

    *Monotonicity*: within one instance journal, entry epochs never
    decrease — a decrease means a deposed primary appended after its
    successor.  *Single writer per epoch*: across all stores, an epoch is
    owned by exactly one writer name — two writers sharing an epoch is
    split-brain made durable.  Entries without an epoch stamp (epoch 0)
    predate replication and are skipped.
    """
    violations: List[OracleViolation] = []
    writers: Dict[int, Dict[str, str]] = {}  # epoch -> writer -> first site
    for store in stores:
        stored = Journal(store)
        for iid in stored.instances():
            high = 0
            for n, entry in enumerate(stored.entries(iid)):
                if entry is None:
                    continue
                epoch = entry.get("epoch") or 0
                if not epoch:
                    continue
                if epoch < high:
                    violations.append(
                        OracleViolation(
                            "epoch-monotone", iid,
                            f"journal entry {n} in {store.name} carries epoch "
                            f"{epoch} after an entry with epoch {high}", phase,
                        )
                    )
                high = max(high, epoch)
                writer = entry.get("writer")
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


def check_single_primary(
    replicas: List[Any], now: float, phase: str = ""
) -> List[OracleViolation]:
    """At most one live replica may act as primary under an unexpired lease.

    ``replicas`` are the replicated services.  A deposed primary that has
    not yet noticed its lease lapsed is legal (its local expiry is in the
    past); two replicas both believing they hold *currently valid* leases is
    the split-brain the lease arbiter exists to prevent.
    """
    holders: List[Tuple[str, int]] = []
    for service in replicas:
        if not service.node.alive or not service.is_primary():
            continue
        lease = getattr(service, "lease", None) or {}
        if lease.get("holder") == service.name and lease.get("expires_at", 0.0) > now:
            holders.append((service.name, service.epoch))
    if len(holders) <= 1:
        return []
    detail = ", ".join(f"{name} (epoch {epoch})" for name, epoch in sorted(holders))
    return [
        OracleViolation(
            "single-primary", "lease",
            f"{len(holders)} live replicas hold the primary role under "
            f"unexpired leases: {detail}", phase,
        )
    ]


def check_no_silent_drop(
    service: Any, submitted: Mapping[str, str], phase: str = "quiescence"
) -> List[OracleViolation]:
    """Overload honesty (docs/PROTOCOLS.md §13): every instance the service
    *accepted* — returned an id for, instead of raising ``Overloaded`` — must
    end in a decisive, journaled terminal state.  Shedding is allowed;
    vanishing is not.  A shed instance must both be terminal in memory and
    carry its ``overloaded`` entry in the durable journal, so a crash cannot
    resurrect it into limbo.

    ``submitted`` maps instance id -> a short provenance label (e.g.
    ``"spike@120.0"``) used in violation messages.
    """
    violations: List[OracleViolation] = []
    for iid, origin in sorted(submitted.items()):
        runtime = service.runtimes.get(iid)
        if runtime is None:
            violations.append(
                OracleViolation(
                    "no-silent-drop", iid,
                    f"accepted instance ({origin}) is gone from the execution "
                    f"service without a decisive outcome", phase,
                )
            )
            continue
        status = runtime.tree.status.value
        if status not in TERMINAL:
            violations.append(
                OracleViolation(
                    "no-silent-drop", iid,
                    f"accepted instance ({origin}) never reached a decisive "
                    f"state: status {status!r}", phase,
                )
            )
            continue
        error = runtime.tree.error or ""
        if status == "failed" and error.startswith("overloaded"):
            journal = Journal(service.store).entries(iid)
            if not any(e and e.get("type") == "overloaded" for e in journal):
                violations.append(
                    OracleViolation(
                        "no-silent-drop", iid,
                        f"instance ({origin}) was shed in memory but its "
                        f"journal records no 'overloaded' entry — the shed "
                        f"would not survive a crash", phase,
                    )
                )
    return violations


def check_liveness(
    service: Any, expected: List[str], phase: str = "quiescence"
) -> List[OracleViolation]:
    """Every expected instance must be present and terminal."""
    violations: List[OracleViolation] = []
    for iid in expected:
        runtime = service.runtimes.get(iid)
        if runtime is None:
            violations.append(
                OracleViolation(
                    "liveness", iid,
                    "instance missing from a healthy execution service", phase,
                )
            )
            continue
        status = runtime.tree.status.value
        if status not in TERMINAL:
            detail = (
                f"status {status!r} with {len(runtime.in_flight)} in-flight "
                f"and {len(runtime.external)} external tasks after quiescence"
            )
            violations.append(OracleViolation("liveness", iid, detail, phase))
    return violations
