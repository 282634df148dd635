"""Write-ahead log.

Redo-only logging: a transaction's updates are appended as ``UPDATE`` records
and become durable exactly when its ``COMMIT`` record is forced.  A ``BATCH``
is its own commit — one record with every after-image of a single-writer
update; a torn force drops the last record whole, so it needs no envelope.
The log lives in *stable storage* — in the simulation, a plain Python list
attached to a node's stable store that deliberately survives
:meth:`Node.crash` — and can optionally be mirrored to a JSON-lines file on
disk for inspection.  The mirror trails ``_forced_upto``: it receives records
only when they are *forced*, so after any crash — torn writes included — the
file holds exactly the durable prefix.

Group commit (see docs/PROTOCOLS.md §11): ``force()`` advances simulated
durability (``_forced_upto``) and writes its records to the mirror through a
persistent handle, but leaves the fsync to :meth:`sync` — the physical
barrier, which the store's owner issues at the end of each mutating
operation, so adjacent forces share one fsync.  At most :data:`GROUP_MAX`
forces wait for it.  Every crash path (:meth:`lose_unforced`, :meth:`torn_force`)
syncs the pending mirror rows first, so post-mortem the file is still exactly
the durable prefix.

Record kinds::

    BEGIN    txn
    UPDATE   txn, object, after-image
    COMMIT   txn
    ABORT    txn
    BATCH    {object: after-image, ...}   (self-committing, one writer)
    CHECKPOINT snapshot              (compaction point)
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, Optional

from ..core.instrument import IOPATH_STATS
from ..sim.crashpoints import crash_point
from .ids import ObjectId, TransactionId

#: Forces that may wait for one fsync before :meth:`WriteAheadLog._mirror`
#: issues it itself.
GROUP_MAX = 128


BEGIN = "BEGIN"
UPDATE = "UPDATE"
COMMIT = "COMMIT"
ABORT = "ABORT"
BATCH = "BATCH"
CHECKPOINT = "CHECKPOINT"

_KINDS = {BEGIN, UPDATE, COMMIT, ABORT, BATCH, CHECKPOINT}

# one encoder for every mirror row (``json.dumps`` builds one per call),
# without the default separators' padding
_ENCODE = json.JSONEncoder(default=repr, separators=(",", ":")).encode


class LogRecord(NamedTuple):
    """One durable log record (a tuple, built by :meth:`WriteAheadLog.append`
    with ``tuple.__new__``)."""

    lsn: int
    kind: str
    txn: Optional[TransactionId] = None
    obj: Optional[ObjectId] = None
    value: Any = None

    def to_json(self) -> str:
        return _ENCODE(
            {
                "lsn": self.lsn,
                "kind": self.kind,
                "txn": [self.txn.number, self.txn.origin] if self.txn else None,
                "obj": self.obj.name if self.obj else None,
                "value": self.value,
            }
        )


class WriteAheadLog:
    """Append-only redo log.

    ``force()`` is the durability point; appends before a force are volatile
    and are discarded by :meth:`lose_unforced` (which node crash invokes).
    :meth:`sync` is the physical barrier behind it.
    """

    def __init__(self, mirror_path: Optional[str] = None) -> None:
        self._records: List[LogRecord] = []
        self._forced_upto = 0  # index one past the last durable record
        self._next_lsn = 1
        self._mirror_path = mirror_path
        self._mirror_fh = None  # persistent handle, opened on first mirror write
        self._pending_syncs = 0  # forces mirrored but not yet fsynced

    # -- append/force ------------------------------------------------------------

    def append(
        self,
        kind: str,
        txn: Optional[TransactionId] = None,
        obj: Optional[ObjectId] = None,
        value: Any = None,
    ) -> LogRecord:
        if kind not in _KINDS:
            raise ValueError(f"unknown log record kind {kind!r}")
        record = tuple.__new__(LogRecord, (self._next_lsn, kind, txn, obj, value))
        self._next_lsn += 1
        self._records.append(record)
        return record

    def force(self) -> int:
        """Make all appended records durable; returns the durable LSN.

        This is the simulated durability point — ``_forced_upto`` advances
        here, bracketed by the ``wal.force.pre/post`` crash points.  The
        physical fsync of the mirror file waits for the next :meth:`sync`
        barrier (or until :data:`GROUP_MAX` forces are pending)."""
        crash_point("wal.force.pre", self)
        IOPATH_STATS.wal_forces += 1
        start = self._forced_upto
        self._forced_upto = len(self._records)
        self._mirror(start, self._forced_upto)
        crash_point("wal.force.post", self)
        return self._records[-1].lsn if self._records else 0

    def torn_force(self) -> int:
        """A force cut short by a crash: every pending record except the last
        becomes durable; the last write is torn and will be discarded by
        :meth:`lose_unforced` (recovery drops a record with a bad checksum).
        Returns how many records were made durable.

        Only meaningful from a crash injector — normal operation never
        half-forces.  The on-disk mirror receives exactly the records that
        became durable, so mirror and simulated stable storage agree.
        """
        target = len(self._records) - 1
        if target <= self._forced_upto:
            self.sync()  # coalesced rows from earlier forces still hit disk
            return 0  # zero or one pending record: nothing becomes durable
        start = self._forced_upto
        self._forced_upto = target
        self._mirror(start, target)
        self.sync()
        return target - start

    def _mirror(self, start: int, end: int) -> None:
        """Append records ``[start, end)`` to the JSON-lines mirror.

        The mirror only ever receives *forced* records — it trails
        ``_forced_upto``, never the volatile tail — so after any crash the
        file is exactly the durable prefix.  Writes go through a persistent
        handle (reopening the file per force cost more than the write
        itself); the rows are marked pending and the fsync is left to the
        next :meth:`sync` barrier.  Without a physical mirror the pending
        count is kept all the same, so the fsyncs-per-step counters are
        meaningful in pure simulation.
        """
        if end <= start:
            return
        if self._mirror_path:
            if self._mirror_fh is None:
                self._mirror_fh = open(self._mirror_path, "a", encoding="utf-8")
            fh = self._mirror_fh
            fh.write("".join(record.to_json() + "\n" for record in self._records[start:end]))
            fh.flush()  # visible to same-host readers; durability is the fsync
        self._pending_syncs += 1
        if self._pending_syncs >= GROUP_MAX:
            self.sync()

    def sync(self) -> bool:
        """The physical barrier: fsync every mirror row written since the
        last sync, in one physical operation.  Returns True if a sync was
        actually performed (False when nothing was pending).  Callers invoke
        this before any externally observable action that depends on a
        force — that is what bounds the coalescing window."""
        if self._pending_syncs == 0:
            return False
        self._pending_syncs = 0
        if self._mirror_fh is not None:
            os.fsync(self._mirror_fh.fileno())
        IOPATH_STATS.wal_syncs += 1
        return True

    def close(self) -> None:
        """Sync and release the persistent mirror handle."""
        self.sync()
        if self._mirror_fh is not None:
            self._mirror_fh.close()
            self._mirror_fh = None

    def reset(self) -> None:
        """Discard the entire log and restart LSN numbering.

        This is *not* a crash path: it models a standby wiping its local
        stable storage before a full resync from the primary (the shipped
        log is checkpoint-rooted, so the replacement prefix is complete).
        Pending mirror rows are synced first so the on-disk file never
        claims records the reborn log does not have.
        """
        self.sync()
        self._records = []
        self._forced_upto = 0
        self._next_lsn = 1

    def lose_unforced(self) -> int:
        """Simulate a crash: drop records appended since the last force.
        Returns how many records were lost.  Pending mirror rows are
        synced first: they cover records *before* ``_forced_upto``, so after
        the crash the mirror file is still exactly the durable prefix."""
        self.sync()
        lost = len(self._records) - self._forced_upto
        del self._records[self._forced_upto:]
        return lost

    # -- reading ---------------------------------------------------------------

    def durable_records(self) -> Iterator[LogRecord]:
        """Iterate records that survived (i.e. were forced)."""
        return iter(self._records[: self._forced_upto])

    def __len__(self) -> int:
        return len(self._records)

    @property
    def durable_length(self) -> int:
        return self._forced_upto

    @property
    def last_durable_lsn(self) -> int:
        """LSN of the newest durable record (0 when nothing is durable yet).

        LSNs are stable across checkpoint truncation, which makes them the
        cursor replication ships by (docs/PROTOCOLS.md §12)."""
        return self._records[self._forced_upto - 1].lsn if self._forced_upto else 0

    def durable_since(self, lsn: int) -> List[LogRecord]:
        """Durable records with an LSN above ``lsn``, found by bisection:
        LSNs only ever increase along the log, though a crash or a
        truncation leaves gaps."""
        records = self._records
        low, high = 0, self._forced_upto
        while low < high:
            middle = (low + high) // 2
            if records[middle].lsn > lsn:
                high = middle
            else:
                low = middle + 1
        return records[low : self._forced_upto]

    # -- compaction ---------------------------------------------------------------

    def checkpoint(self, snapshot: Dict[str, Any]) -> None:
        """Write a checkpoint carrying a full committed snapshot, force it and
        truncate everything before it.

        Crash-consistent at every step: before the force the CHECKPOINT
        record is volatile (recovery sees the pre-compaction log); after the
        force but before the truncation the durable log ends in a CHECKPOINT
        whose replay supersedes everything before it (recovery sees the
        post-compaction state); the truncation itself only discards records
        the checkpoint already covers.  There is no half-compacted state.
        """
        self.append(CHECKPOINT, value=snapshot)
        self.force()
        self.sync()  # compaction is a durability barrier: drain the window
        crash_point("wal.checkpoint.forced", self)
        del self._records[:-1]  # the CHECKPOINT is the record appended above
        self._forced_upto = len(self._records)


def fold(
    records: Iterable[LogRecord],
    snapshot: Dict[str, Any],
    pending: Dict[TransactionId, List[LogRecord]],
) -> None:
    """Advance a replay state over ``records``, in place.

    ``snapshot`` is the committed state so far and ``pending`` the logged
    updates of transactions not yet decided.  A BATCH takes effect where it
    stands; other updates only once their transaction's COMMIT record is
    present (redo-only, presumed abort for the rest) — the standard recovery
    rule the execution service's guarantees rest on.  Folding a log in
    pieces, carrying both across the pieces, ends in the same state as
    folding it whole.
    """
    for record in records:
        if record.kind == BATCH:
            snapshot.update(record.value)
        elif record.kind == CHECKPOINT:
            snapshot.clear()
            snapshot.update(record.value or {})
            pending.clear()
        elif record.kind == BEGIN:
            pending[record.txn] = []
        elif record.kind == UPDATE:
            pending.setdefault(record.txn, []).append(record)
        elif record.kind == COMMIT:
            for update in pending.pop(record.txn, ()):
                snapshot[update.obj.name] = update.value
        elif record.kind == ABORT:
            pending.pop(record.txn, None)


def replay(records: Iterable[LogRecord]) -> Dict[str, Any]:
    """Rebuild the committed state from a durable record stream."""
    snapshot: Dict[str, Any] = {}
    fold(records, snapshot, {})
    return snapshot
