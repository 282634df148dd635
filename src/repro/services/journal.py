"""The execution store's layout, and the only code that knows it.

The paper's execution service "records inter-task dependencies in persistent
atomic objects and uses atomic transactions for propagating coordination
information"; a :class:`Journal` is where those objects are named, written
and read back.  Per script version the store holds one write-once
``script:<digest>`` with the source text, content-addressed
(:func:`script_digest`), so recovery and promotion never need the repository.
Per instance: a write-once ``instance:<iid>:spec`` (the script's digest, root
task, input set, inputs), an ``instance:<iid>:meta`` holding ``journal_len``
and, once the instance is finished for good, ``closed``, and one
``instance:<iid>:journal:<n>`` per entry.  The instances of a store are its
``spec`` keys, in commit order; no stored object grows with their number.

Every write is one self-committing WAL record
(:meth:`~repro.txn.store.ObjectStore.commit_batch`): the service is the
objects' only writer, and a journal must be atomic and durable, not isolated.
A script's text rides in the record of the first spec that names it, so a
torn force drops both or neither; a barrier's entries and the lengths they
advance are one record too, whatever the script's size or the history's
length — and so is the ``closed`` mark of an instance that barrier leaves
terminal with no flight out (:meth:`Journal.commit`): "closed, but the
deciding entry is missing" cannot be stored.  The mark is recorded derived
state: a recovery or a promotion takes a closed instance in by its key and
replays only the open ones.

Nothing else under ``services``, ``replication`` or ``sim`` builds or parses
one of these keys or the mark (``tests/test_journal_layout.py::TestLayout``
holds the source to that), so the layout changes in this file alone: the
mark was the first step, ``journal:<n>`` truncation and stored outcomes next.
"""

from __future__ import annotations

import hashlib
from typing import Any, Collection, Dict, List, Optional, Tuple

from ..core.errors import ExecutionError
from ..core.instrument import IOPATH_STATS
from ..sim.crashpoints import crash_point
from ..txn.store import ObjectStore


def script_digest(text: str) -> str:
    """Content address of a script version: SHA-256 of its source, hex,
    truncated to 128 bits."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


# spec fields an exported snapshot carries as they stand (the script, a
# digest in the spec, crosses as its text)
_SPEC_FIELDS = ("root_task", "input_set", "inputs")


class Journal:
    """The instances of one execution store: create, append, commit, read.

    Appended entries are buffered (:attr:`buffer`, ``(iid, entry)`` in append
    order) until :meth:`commit` makes them durable as one record; a crash
    loses the buffer together with the volatile trees it described."""

    def __init__(self, store: ObjectStore) -> None:
        self.store = store
        self.buffer: List[Tuple[str, Dict[str, Any]]] = []

    # -- writing ----------------------------------------------------------------

    def create(
        self,
        digest: str,
        text: str,
        root_task: str,
        input_set: str,
        inputs: Optional[Dict[str, Any]],
    ) -> Tuple[str, Dict[str, Any]]:
        """Number a new instance of the script ``text`` (``digest`` is its
        :func:`script_digest`) and commit it with an empty journal.  Returns
        its id and spec."""
        script_write = self._intern(digest, text)
        counter = self.store.get_committed("instance-counter", 0) + 1
        iid = f"wf-{counter}"
        spec = {
            "script": digest,
            "root_task": root_task,
            "input_set": input_set,
            "inputs": dict(inputs or {}),
        }
        self.store.commit_batch({
            **script_write,
            "instance-counter": counter,
            f"instance:{iid}:spec": spec,
            f"instance:{iid}:meta": {"journal_len": 0},
        })
        return iid, spec

    def snapshot(self, iid: str) -> Dict[str, Any]:
        """A stored instance as portable plain data: its spec and
        ``journal_len`` (one ``meta`` dict on the wire) and its whole
        journal.  Self-contained — the script crosses as its text, which the
        importer may never have seen."""
        spec = self.spec(iid)
        entries = self.entries(iid)
        return {
            "instance": iid,
            "meta": {
                "script_text": self.script_text(spec["script"]),
                **{name: spec[name] for name in _SPEC_FIELDS},
                "journal_len": len(entries),
            },
            "journal": entries,
        }

    def adopt(self, snapshot: Dict[str, Any], digest: str) -> None:
        """Commit a :meth:`snapshot` taken elsewhere under the id it had
        there (``digest`` is its script text's :func:`script_digest`).  The
        snapshot comes from outside the service: one whose journal is not
        what its own ``journal_len`` says, entry for entry, is refused before
        anything is logged."""
        iid, meta = snapshot["instance"], snapshot["meta"]
        entries = list(snapshot["journal"])
        if meta["journal_len"] != len(entries) or not all(
            isinstance(entry, dict) for entry in entries
        ):
            raise ExecutionError(
                f"{iid}: snapshot journal does not match its journal_len "
                f"({meta['journal_len']}) entry for entry"
            )
        script_write = self._intern(digest, meta["script_text"])
        self.store.commit_batch({
            **script_write,
            f"instance:{iid}:spec": {
                "script": digest, **{name: meta[name] for name in _SPEC_FIELDS},
            },
            f"instance:{iid}:meta": {"journal_len": len(entries)},
            **{f"instance:{iid}:journal:{n}": e for n, e in enumerate(entries)},
        })

    def _intern(self, digest: str, text: str) -> Dict[str, str]:
        """The write that makes ``text`` durable under ``digest``, to ride in
        the batch of the first spec that names it: empty once the store holds
        it.  A digest that already names other text is refused before
        anything is logged — an instance is never bound to text it did not
        start with."""
        held = self.script_text(digest)
        if held is None:
            return {f"script:{digest}": text}
        if held != text:
            raise ExecutionError(
                f"script digest {digest} already names a different text"
            )
        return {}

    def append(self, iid: str, entry: Dict[str, Any]) -> None:
        """Buffer ``entry`` as the next of ``iid``'s journal; it becomes
        durable at the next :meth:`commit`."""
        IOPATH_STATS.journal_entries += 1
        crash_point("exec.journal.pre", self.store)
        self.buffer.append((iid, entry))

    def commit(self, closed: Collection[str] = ()) -> int:
        """Make every buffered entry durable — the entries and each touched
        instance's ``meta``, one WAL record, one force — then drain the WAL's
        group-commit window.  The record is all-or-nothing (a torn force
        drops it whole), so recovery sees a contiguous journal either way.
        ``closed`` names the instances this barrier leaves terminal with no
        flight out: those among the touched get the mark beside their length
        — durable or lost together with the entry that earned it; any other
        touched instance has its ``meta`` written without it, which is how a
        later write reopens one.  Returns the number of entries committed."""
        batch, self.buffer = self.buffer, []
        store = self.store
        writes: Dict[str, Any] = {}
        lens: Dict[str, int] = {}
        for iid, entry in batch:
            n = lens.get(iid)
            if n is None:
                n = store.read_committed(f"instance:{iid}:meta")["journal_len"]
            writes[f"instance:{iid}:journal:{n}"] = entry
            lens[iid] = n + 1
        for iid, n in lens.items():
            writes[f"instance:{iid}:meta"] = (
                {"journal_len": n, "closed": True} if iid in closed
                else {"journal_len": n}
            )
        store.commit_batch(writes)
        IOPATH_STATS.journal_batches += 1
        crash_point("exec.journal.post", store)
        store.sync()
        return len(batch)

    def pending(self, iid: str) -> bool:
        """Whether an entry of ``iid`` is still buffered."""
        return any(buffered == iid for buffered, _entry in self.buffer)

    # -- reading ----------------------------------------------------------------

    def instances(self) -> List[str]:
        """Ids of every instance in the store, in the order their ``spec``
        objects first committed (instantiation order; a crash replay, a
        checkpoint and a replication stream all preserve it).  This scan is
        the only instance index."""
        prefix, suffix = "instance:", ":spec"
        return [
            key[len(prefix):-len(suffix)] for key in self.store.keys()
            if key.startswith(prefix) and key.endswith(suffix)
        ]

    def closed(self, iid: str) -> bool:
        """Whether ``iid``'s last barrier left it terminal with no flight out
        (:meth:`commit`): nobody who opens the store needs to replay it.  One
        without the mark — open, imported, or older than the mark — is replayed."""
        return self.store.get_committed(f"instance:{iid}:meta", {}).get("closed", False)

    def spec(self, iid: str) -> Optional[Dict[str, Any]]:
        return self.store.get_committed(f"instance:{iid}:spec")

    def script_text(self, digest: str) -> Optional[str]:
        """The text the store holds under ``digest``, if any."""
        return self.store.get_committed(f"script:{digest}")

    def length(self, iid: str) -> Optional[int]:
        """``iid``'s committed ``journal_len`` (``None`` without a ``meta``;
        spec and meta commit together)."""
        meta = self.store.get_committed(f"instance:{iid}:meta")
        return None if meta is None else meta["journal_len"]

    def entries(self, iid: str) -> List[Optional[Dict[str, Any]]]:
        """``iid``'s committed entries, in order (``None`` where the store
        holds none: a hole)."""
        return self.store.get_committed_many(
            f"instance:{iid}:journal:{n}" for n in range(self.length(iid) or 0)
        )
