"""Hot-standby replica of the execution service (docs/PROTOCOLS.md §12).

A :class:`ReplicatedExecutionService` is an ordinary
:class:`~repro.services.execution.ExecutionService` plus a role.  The
**primary** (current lease holder) serves clients and, after every durability
barrier, ships the newly durable suffix of its WAL to each standby over the
ORB.  A **standby** is a log follower and nothing more: it appends the
shipped records to its own stable log, forces them, folds them into its
store and acks.  It executes nothing and holds no runtime: the paper keeps
dependencies "in persistent atomic objects" so that whoever holds the
objects can carry on, and holding them is a standby's whole job.

Safety invariants, in the order they are enforced:

* **Demote-before-ack.**  The primary does not treat a durability barrier as
  replicated until every in-sync standby acked it or was demoted from the
  ISR at the lease service.  If the lease service itself is unreachable, the
  primary *self-demotes*: it can no longer prove it is allowed to shrink the
  ISR, so it must stop acknowledging work (the PacificA rule).
* **Fencing epochs.**  Every lease grant advances the epoch.  The primary
  stamps it on journal entries and worker dispatches; standbys refuse
  replication pushes from older epochs and workers refuse older dispatches.
* **Divergence is discarded wholesale.**  A standby that receives a push
  from a *newer* epoch than its local tail wipes its stable log and takes a
  full resync: anything the old primary journaled beyond the last replicated
  barrier was, by demote-before-ack, never acknowledged to anyone.

* **Primacy is the lease.**  A replica acts only while ``is_primary()``:
  the primary role and ``now < expires_at`` on the clock it shares with the
  arbiter, which grants the next epoch only once ``now >= expires_at``.
* **One answer rule.**  The replica changes what the service's shell
  (``ExecutionService._perform``) does only through ``is_primary()``,
  ``_post_barrier()`` (shipping) and its life cycle; it overrides no client
  operation.  The shell re-checks primacy after every barrier and refuses a
  client's answer with ``Fenced`` when serving it deposed the replica.

Promotion *is* crash recovery's rebuild over the standby's own store: adopt
the grant's epoch, then ``ExecutionService._rebuild`` — closed instances are
taken in by key, open ones replayed, their deadlines re-armed with the
journaled *remaining* time and their surviving flights resumed, staggered,
as redispatches.  Its cost is bounded by what was running, not by the
store's history; the committed cache needs no rebuild, ``ObjectStore.ingest``
has kept it equal to a replay of the durable log.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..orb.broker import CommFailure, Interface, ObjectBroker, ObjectNotFound
from ..sim.crashpoints import SimulatedCrash, crash_point
from ..txn.ids import ObjectId, TransactionId
from ..txn.store import ObjectStore
from ..txn.wal import BATCH, LogRecord
from ..services.execution import EXECUTION_INTERFACE, ExecutionService

REPLICA_INTERFACE = Interface(
    "WorkflowExecutionReplica",
    EXECUTION_INTERFACE.operations + ("replicate", "repl_status"),
)

# Operations a standby still serves: the replication stream itself and the
# introspection the harness/oracles use.  Everything else is fenced.
_UNFENCED_OPS = frozenset({"replicate", "repl_status"})


class Role(enum.Enum):
    PRIMARY = "primary"
    STANDBY = "standby"


def _wire(record: LogRecord) -> Tuple[str, Optional[Tuple[int, str]], Optional[str], Any]:
    """Plain-data ``(kind, txn, obj, value)`` of a WAL record for the ORB."""
    txn = (record.txn.number, record.txn.origin) if record.txn else None
    return record.kind, txn, record.obj.name if record.obj else None, record.value


class ReplicatedExecutionService(ExecutionService):
    """Execution service replica: primary when holding the lease, a
    follower of the primary's log otherwise."""

    def __init__(
        self,
        name: str,
        store: ObjectStore,
        broker: ObjectBroker,
        repository_name: str,
        worker_names: List[str],
        *,
        lease_name: str = "lease",
        peer_names: Sequence[str] = (),
        alias: str = "execution",
        repl_interval: float = 5.0,
        **kwargs: Any,
    ) -> None:
        super().__init__(name, store, broker, repository_name, worker_names, **kwargs)
        self.lease_name = lease_name
        self.peer_names = [p for p in peer_names if p != name]
        self.alias = alias
        self.repl_interval = repl_interval
        self.role = Role.STANDBY
        self.lease: Dict[str, Any] = {"holder": None, "epoch": 0, "expires_at": 0.0}
        self.isr: List[str] = []
        # Highest epoch this replica has ever observed (grants, pushes):
        # its floor for accepting replication traffic.
        self._max_epoch_seen = 0
        # Primary-side: last primary-LSN each peer acked (volatile — a new
        # primary starts every peer from a full resync).
        self._standby_acked: Dict[str, int] = {}
        # Peers that failed a push since the last tick: skip until the tick
        # retries them, so a dead standby costs one failed call per interval,
        # not one per barrier.
        self._ship_paused: Set[str] = set()
        self._shipping = False
        self._tick_armed = False
        self.repl_stats = {
            "pushes": 0,
            "push_failures": 0,
            "tail_applies": 0,
            "resyncs": 0,
            "promotions": 0,
            "demotions": 0,
            "fenced_pushes": 0,
            "promoted_at": None,
        }
        # why this replica last stopped being primary, under which epoch and
        # when: {"reason", "epoch", "at"}, or None
        self.last_demotion: Optional[Dict[str, Any]] = None

    # -- life-cycle -------------------------------------------------------------

    def on_start(self) -> None:
        # No base on_start: the fencing epoch comes from lease grants, not
        # the local incarnation counter, and only a primary runs a sweeper.
        self._try_acquire()
        self._arm_tick()

    def on_recover(self) -> None:
        """A resurrected replica always comes back as a standby.  If its old
        lease is somehow still current, the acquire below re-grants it under
        a fresh epoch — its pre-crash epoch is never reused."""
        self.stats["recoveries"] += 1
        self.role = Role.STANDBY
        self._reset_volatile()
        # the sweep chain, the flush timer and the tick died with the crash
        self._sweep_armed = self._jflush_armed = self._tick_armed = False
        self._max_epoch_seen = max(self._max_epoch_seen, self._tail()["epoch"])
        self._try_acquire()
        self._arm_tick()

    def _reset_volatile(self) -> None:
        """Also what a primary knew of its peers (a new reign resyncs them
        all).  Every way into the standby role comes through here: a standby
        holds no runtime."""
        super()._reset_volatile()
        self._standby_acked = {}
        self._ship_paused = set()

    def is_primary(self) -> bool:
        """Primary role and an unexpired lease, read off the clock the
        arbiter shares: the complement of ``LeaseService.acquire``'s grant
        condition (``now >= expires_at``), so no instant has two replicas
        answering True.  Pure — the oracles and the system read it too."""
        return self.role is Role.PRIMARY and self._now() < self.lease["expires_at"]

    def _fence(self, operation: str) -> Optional[str]:
        """ORB gatekeeper: while not primary, refuse everything except the
        replication stream and status introspection."""
        if operation in _UNFENCED_OPS or self.is_primary():
            return None
        return f"{self.name} is a standby (epoch {self._max_epoch_seen})"

    # -- invocation helpers -----------------------------------------------------

    def _invoke(self, target: str, operation: str, *args: Any) -> Any:
        """ORB call with replica-grade failure handling.

        A :class:`SimulatedCrash` raised inside the *callee* (an armed crash
        point on a standby or the lease node) is a BaseException that would
        otherwise unwind this — alive — caller's whole event, wedging any
        half-dispatched work.  Only a crash of our *own* node may propagate;
        a foreign crash is exactly a communication failure."""
        try:
            return self.broker.invoke(self.node, target, operation, *args)
        except ObjectNotFound as exc:
            raise CommFailure(f"{target}: not registered yet") from exc
        except SimulatedCrash as crash:
            if self.node is not None and crash.node == self.node.name:
                raise
            raise CommFailure(f"{target}: crashed mid-call ({crash.point})") from crash

    # -- leadership -------------------------------------------------------------

    def _try_acquire(self) -> bool:
        try:
            reply = self._invoke(self.lease_name, "acquire", self.name)
        except CommFailure:
            return False
        if reply.get("granted"):
            self._promote(reply)
            return True
        self.lease = {
            "holder": reply.get("holder"),
            "epoch": reply.get("epoch", 0),
            "expires_at": reply.get("expires_at", 0.0),
        }
        self._max_epoch_seen = max(self._max_epoch_seen, reply.get("epoch", 0))
        return False

    def _promote(self, grant: Dict[str, Any]) -> None:
        """Adopt a lease grant: become the primary under its epoch."""
        crash_point("repl.promote.pre", self)
        self.lease = {
            "holder": grant["holder"],
            "epoch": grant["epoch"],
            "expires_at": grant["expires_at"],
        }
        self.epoch = grant["epoch"]
        self.isr = list(grant.get("isr", ()))
        self._max_epoch_seen = max(self._max_epoch_seen, self.epoch)
        # not the sweep and flush timers: a re-promoted primary's chains may
        # still be alive
        self._reset_volatile()
        self.role = Role.PRIMARY
        self.repl_stats["promotions"] += 1
        self.repl_stats["promoted_at"] = self._now()
        # Persist the adopted epoch as the local tail so a crash right after
        # promotion recovers into the same epoch lineage.
        self.store.commit_batch(self._tail_write(self.store.wal.last_durable_lsn, self.epoch))
        self.store.sync()
        self._rebuild()  # what a crash recovery does with its store, over ours
        if not self.is_primary():
            return  # the barrier of a resend deposed us: no sweeper, no public name
        self._arm_sweeper()
        # Take over the public name: clients re-resolve to the new primary.
        self.broker.register(
            self.alias, REPLICA_INTERFACE, self, self.node, fence=self._fence
        )
        crash_point("repl.promote.post", self)

    def _demote_self(self, reason: str, seen_epoch: int = 0) -> None:
        if self.role is not Role.PRIMARY:
            return
        self.role = Role.STANDBY
        self.repl_stats["demotions"] += 1
        self.last_demotion = {"reason": reason, "epoch": self.epoch, "at": self._now()}
        self._max_epoch_seen = max(self._max_epoch_seen, seen_epoch, self.epoch)
        # Anything journaled past the last replicated barrier — including the
        # still-buffered entries dropped here — was never acknowledged; the
        # next resync from the rightful primary discards it wholesale.
        self._reset_volatile()

    def _demote_peer(self, peer: str) -> None:
        """A push to ``peer`` failed.  An ISR member must be demoted at the
        lease service *before* the barrier counts as replicated; if we cannot
        reach the lease service to do that, we demote ourselves instead."""
        self._ship_paused.add(peer)
        self._standby_acked.pop(peer, None)
        if peer not in self.isr:
            return
        try:
            ok = self._invoke(self.lease_name, "demote", peer, self.epoch)
        except CommFailure:
            self._demote_self("lease service unreachable while demoting "
                              f"{peer}: cannot prove leadership")
            return
        if ok:
            self.isr = [name for name in self.isr if name != peer]
        else:
            self._demote_self("stale epoch at the lease service")

    # -- periodic replication tick ----------------------------------------------

    def _arm_tick(self) -> None:
        if self._tick_armed or self.node is None or not self.node.alive:
            return
        self._tick_armed = True

        def tick() -> None:
            self._tick_armed = False
            if self.node is None or not self.node.alive:
                return
            self._tick()
            self._arm_tick()

        self.node.call_after(self.repl_interval, tick, label=f"{self.name}-repl-tick")

    def _tick(self) -> None:
        if self.role is Role.PRIMARY:
            self._primary_tick()
        else:
            # Standby: poll for the lease.  Refused while the primary renews
            # on time; the first poll after an expiry wins promotion — the
            # lease duration *is* the failure detector's suspicion timeout.
            self._try_acquire()

    def _primary_tick(self) -> None:
        if not self.is_primary():
            # The lease lapsed without renewal: this replica stopped acting
            # at the expiry instant (is_primary); drop its runtimes.
            self._demote_self("lease expired without renewal")
            return
        try:
            reply = self._invoke(self.lease_name, "renew", self.name, self.epoch)
        except CommFailure:
            return  # still leased until expires_at; retry next tick
        if not reply.get("granted"):
            self._demote_self("lease renewal refused", reply.get("epoch", 0))
            return
        self.lease["expires_at"] = reply["expires_at"]
        self.isr = list(reply["isr"])
        self._ship_paused = set()  # retry peers that failed since last tick
        self._post_barrier()  # catch-up push to any lagging peer
        for peer in self.peer_names:
            self._maybe_enlist(peer)

    def _maybe_enlist(self, peer: str) -> None:
        """Grow the ISR the moment a standby has acked the full durable
        prefix — eagerly, not just on the tick, so a primary that dies right
        after bootstrap already left an eligible successor behind.  Failure
        is benign: a too-small ISR only costs availability, never safety."""
        if peer in self.isr or not self.is_primary():
            return
        if self._standby_acked.get(peer, -1) < self.store.wal.last_durable_lsn:
            return
        try:
            if self._invoke(self.lease_name, "enlist", peer, self.epoch):
                self.isr.append(peer)
        except CommFailure:
            pass  # retried at the next barrier or tick

    # -- log shipping (primary side) ---------------------------------------------

    def _post_barrier(self) -> None:
        if self._shipping:
            return
        self._shipping = True  # demotion paths below may themselves barrier
        try:
            target = self.store.wal.last_durable_lsn
            for peer in self.peer_names:
                if peer in self._ship_paused:
                    continue
                if self._standby_acked.get(peer, -1) >= target:
                    continue
                if not self.is_primary():
                    return  # nothing ships from a standby or a lapsed lease
                self._ship_to(peer)
        finally:
            self._shipping = False

    def _push(self, peer: str) -> Optional[Dict[str, Any]]:
        """Ship ``peer`` the durable suffix past its acked LSN (the whole,
        checkpoint-rooted log when nothing is acked).  Returns its reply, or
        ``None`` when there was nothing to ship or the call failed (the peer
        is then demoted)."""
        acked = self._standby_acked.get(peer)
        reset = acked is None
        from_lsn = 0 if reset else acked
        records = self.store.wal.durable_since(from_lsn)
        # A checkpoint-truncated gap needs no resync: the retained log starts
        # with the CHECKPOINT record whose snapshot supersedes the gap.
        if not records and not reset:
            return None
        batch = {
            "epoch": self.epoch,
            "writer": self.name,
            "reset": reset,
            "from_lsn": from_lsn,
            "last_lsn": records[-1].lsn if records else from_lsn,
            "records": [_wire(rec) for rec in records],
        }
        self.repl_stats["pushes"] += 1
        try:
            return self._invoke(peer, "replicate", batch)
        except CommFailure:
            self.repl_stats["push_failures"] += 1
            self._demote_peer(peer)
            return None

    def _ship_to(self, peer: str) -> None:
        reply = self._push(peer)
        if reply is None:
            return
        if not (reply.get("ok") or reply.get("fenced")):
            # Cursor disagreement (e.g. the standby under-reported its tail
            # after a crash between force and tail-persist): adopt its
            # position — or a full resync when its tail is from another
            # epoch — and retry once.
            if reply.get("resync"):
                self._standby_acked.pop(peer, None)
            else:
                self._standby_acked[peer] = reply.get("have", 0)
            reply = self._push(peer)
            if reply is None:
                return
        if reply.get("ok"):
            self._standby_acked[peer] = reply["have"]
            self._maybe_enlist(peer)
        elif reply.get("fenced"):
            self._demote_self(f"push fenced by {peer}", reply.get("epoch", 0))
        else:
            self._demote_peer(peer)  # still disagreeing: give up until tick

    # -- replication stream (standby side) ----------------------------------------

    @property
    def _tail_key(self) -> str:
        return f"_repl:tail:{self.name}"

    def _tail(self) -> Dict[str, Any]:
        return dict(self.store.get_committed(self._tail_key, {"lsn": 0, "epoch": 0}))

    def _tail_write(self, lsn: int, epoch: int) -> Dict[str, Any]:
        return {self._tail_key: {"lsn": lsn, "epoch": epoch}}

    def replicate(self, batch: Dict[str, Any]) -> Dict[str, Any]:
        """Apply one shipped log batch (primary → this standby)."""
        epoch = batch["epoch"]
        if epoch < self._max_epoch_seen:
            self.repl_stats["fenced_pushes"] += 1
            return {"ok": False, "fenced": True, "epoch": self._max_epoch_seen}
        if self.role is Role.PRIMARY:
            if epoch <= self.epoch:
                self.repl_stats["fenced_pushes"] += 1
                return {"ok": False, "fenced": True, "epoch": self.epoch}
            # a newer primary exists: step down and accept its stream
            self._demote_self("pushed by a newer primary", epoch)
        self._max_epoch_seen = epoch
        tail = self._tail()
        if not batch.get("reset"):
            if tail["epoch"] != epoch:
                # our tail belongs to a deposed epoch: whatever follows the
                # last replicated barrier was never acknowledged — wipe it
                return {"ok": False, "resync": True, "have": tail["lsn"]}
            if tail["lsn"] != batch["from_lsn"]:
                return {"ok": False, "resync": False, "have": tail["lsn"]}
        # The batch is received but nothing applied yet; a crash here loses
        # only volatile state — the persisted tail still names the old
        # cursor, so the primary re-ships idempotently.
        crash_point("repl.tail.apply", self)
        if batch.get("reset"):
            # full resync: wipe local stable storage, a standby's whole state
            self.repl_stats["resyncs"] += 1
            self.store.wal.reset()
            self.store.crash()  # rebuild cache/locks from the (now empty) log
        # Fold the batch alone into the committed cache: its cost is its own
        # length, not the log's.  A full replay of the local log would end in
        # the same cache (the store-agreement oracle holds us to that).  Our
        # tail is the *last* record of the same force: torn, it loses the tail
        # but no record the tail names, and the re-ship replays identically.
        # The ack follows that force: no entry is applied to anything here.
        shipped = [
            (
                kind,
                TransactionId(*txn) if txn else None,
                ObjectId(obj) if obj is not None else None,
                value,
            )
            for kind, txn, obj, value in batch["records"]
        ]
        shipped.append((BATCH, None, None, self._tail_write(batch["last_lsn"], epoch)))
        self.store.ingest(shipped)
        self.repl_stats["tail_applies"] += 1
        return {"ok": True, "have": batch["last_lsn"]}

    # -- settlement ----------------------------------------------------------------

    def replication_settled(self) -> bool:
        """True once every in-sync standby acked the full durable prefix.
        The harness gates durability observations on this: an acknowledged
        outcome must survive the loss of any single replica."""
        if not self.is_primary():
            return False
        target = self.store.wal.last_durable_lsn
        return all(
            self._standby_acked.get(peer, -1) >= target
            for peer in self.peer_names
            if peer in self.isr
        )

    # -- the tracer's name for a replica's instantiations ---------------------------

    def instantiate(self, *args: Any, **kwargs: Any) -> str:
        """:meth:`ExecutionService.instantiate`, under this class's own name
        (``benchmarks/bench`` traces a replica's instantiations here).  Its
        answer ships the new spec and is refused if serving it deposed us —
        the one answer rule of :meth:`ExecutionService._perform`."""
        return super().instantiate(*args, **kwargs)

    # -- introspection ---------------------------------------------------------------

    def repl_status(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "role": self.role.value,
            "epoch": self.epoch,
            "max_epoch_seen": self._max_epoch_seen,
            "lease": dict(self.lease),
            "isr": list(self.isr),
            "acked": dict(self._standby_acked),
            "tail": self._tail(),
            "instances": sorted(self.journal.instances()),
            "settled": self.replication_settled(),
            "stats": dict(self.repl_stats),
            "last_demotion": dict(self.last_demotion) if self.last_demotion else None,
        }
