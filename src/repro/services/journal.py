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
``instance:<iid>:journal:<n>`` *segment* per barrier that touched it: the
entries ``n … n+k-1`` that barrier made durable.  The instances of a store
are its ``spec`` keys, in commit order; no stored object grows with their
number.

An entry is stored positionally, as a row ``[type, *fields]`` in the order
of :data:`ENTRY_FIELDS` (:func:`encode_entry`), and read back as exactly the
dict that was appended (:func:`decode_entry`): key names are spelled by the
table, not by every row.  In a ``result``'s object map a plain value is
stored as ``[value]`` and a reference as its ref dict without the
``__ref__`` tag; a ``reconfig`` names its text by digest and the text goes
to ``script:<digest>`` in the same record, only when the store lacks it.  An
entry the table cannot spell exactly is refused: every entry the service
journals carries its ``epoch`` and ``writer``.  ``spec`` and ``meta`` keep
their dict shapes.

A segment of one entry is that entry's row (:func:`encode_segment`), so a
store holding one key per entry — rows written before segments — reads each
key as a one-entry segment.  A segment of several
entries that share their ``epoch`` and ``writer``, as a barrier's always do,
is ``[epoch, writer, *rows without them]``: a fan-out's outcomes pay for one
key and one stamp.  Any other run of entries (an imported journal may mix
stamps) is ``[None, *rows]``.  A row starts with its type string, so the first
element tells the three apart (:func:`segment_rows`).

Every write is one self-committing WAL record
(:meth:`~repro.txn.store.ObjectStore.commit_batch`): the service is the
objects' only writer, and a journal must be atomic and durable, not isolated.
A script's text rides in the record of the first spec or ``reconfig`` entry
that names it, so a torn force drops both or neither; a barrier's segments
and the lengths they advance are one record too, whatever the script's size
or the history's length — and so is the ``closed`` mark of an instance that
barrier leaves terminal with no flight out (:meth:`Journal.commit`): "closed,
but the deciding entry is missing" cannot be stored.  The mark is recorded
derived state: a recovery or a promotion takes a closed instance in by its
key and replays only the open ones.

Nothing else under ``services``, ``replication`` or ``sim`` builds or parses
one of these keys, the mark, a stored entry or a segment
(``tests/test_journal_layout.py::TestLayout`` holds the source to the keys),
so the layout changes in this file alone: the mark was the first step, the
positional entry the second, the segment the third; truncating the segments
below a stored state image, and stored outcomes, come next.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Collection, Dict, List, Optional, Tuple

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

# Every journal entry type (docs/PROTOCOLS.md §4.1) and its fields after
# ``type``, in the order the service builds them: the stored row is
# ``[type, *fields]`` in this order.
ENTRY_FIELDS: Dict[str, Tuple[str, ...]] = {
    "result": ("path", "exec", "result", "epoch", "writer"),
    "failure": ("path", "exec", "error", "epoch", "writer"),
    "mark": ("path", "exec", "name", "objects", "epoch", "writer"),
    "external": ("path", "exec", "epoch", "writer"),
    "reconfig": ("script_text", "epoch", "writer"),
    "force_abort": ("path", "name", "epoch", "writer"),
    "deadline": ("path", "exec", "expires_at", "epoch", "writer"),
    "overloaded": ("reason", "criticality", "epoch", "writer"),
}
# an entry's keys, in the order its stored row holds their values
_ENTRY_KEYS = {kind: ("type", *fields) for kind, fields in ENTRY_FIELDS.items()}
# where a row holds the two fields with a codec of their own
_RESULT_AT = _ENTRY_KEYS["result"].index("result")
_TEXT_AT = _ENTRY_KEYS["reconfig"].index("script_text")

Row = List[Any]


def encode_entry(entry: Dict[str, Any], scripts: Dict[str, str]) -> Row:
    """``entry`` as it is stored: ``[type, *fields]`` (:data:`ENTRY_FIELDS`).
    A ``result``'s ``{kind, name, objects}`` becomes ``[kind, name,
    objects]``, each object ``[value]`` or its ref dict untagged; a
    ``reconfig``'s text becomes its digest, and ``digest -> text`` goes into
    ``scripts`` for the caller to intern.  An entry the table cannot spell
    exactly — an unknown type, a field missing or extra, an object map of
    another shape — is refused (``ExecutionError``)."""
    kind = entry.get("type")
    fields = ENTRY_FIELDS.get(kind)
    # every shape the table cannot spell ends in the one refusal below: a
    # lookup that fails, or a check that raises KeyError like one
    try:
        if len(entry) != len(fields) + 1:  # TypeError for an unknown type
            raise KeyError(kind)
        row = [kind, *map(entry.__getitem__, fields)]
        if kind == "result":
            result = row[_RESULT_AT]
            if len(result) != 3:
                raise KeyError("result")
            objects: Dict[str, Any] = {}
            for name, item in result["objects"].items():
                tag = item.get("__ref__")
                if tag is False and len(item) == 2:
                    objects[name] = [item["value"]]
                elif tag is True:
                    objects[name] = ref = item.copy()
                    del ref["__ref__"]
                else:
                    raise KeyError(name)
            row[_RESULT_AT] = [result["kind"], result["name"], objects]
        elif kind == "reconfig":
            text = row[_TEXT_AT]
            row[_TEXT_AT] = digest = script_digest(text)
            if scripts.setdefault(digest, text) != text:
                raise ExecutionError(f"script digest {digest} names two texts in one batch")
    except (KeyError, TypeError, AttributeError):
        raise ExecutionError(f"a journal entry the table cannot spell: {entry!r}") from None
    return row


def decode_entry(row: Row, script_text: Callable[[str], Optional[str]]) -> Dict[str, Any]:
    """The entry ``row`` was encoded from (:func:`encode_entry`): equal to
    the dict that was appended, keys in the table's order.  ``script_text``
    resolves a ``reconfig``'s digest (a digest the store holds no text for
    reads back as ``None``)."""
    kind = row[0]
    entry = dict(zip(_ENTRY_KEYS[kind], row))
    if kind == "result":
        output_kind, name, stored = row[_RESULT_AT]
        objects: Dict[str, Any] = {}
        for key, item in stored.items():
            objects[key] = (
                {"__ref__": True, **item} if isinstance(item, dict)
                else {"__ref__": False, "value": item[0]}
            )
        entry["result"] = {"kind": output_kind, "name": name, "objects": objects}
    elif kind == "reconfig":
        entry["script_text"] = script_text(row[_TEXT_AT])
    return entry


def encode_segment(rows: List[Row]) -> Any:
    """One stored value for ``rows``, consecutive entries of one journal
    (:func:`encode_entry`): the row itself when there is one; ``[epoch,
    writer, *rows without them]`` when every row is positional and ends in
    the same ``int`` epoch and ``str`` writer (so equal means identical);
    else ``[None, *rows]``.  It makes no call per row."""
    if len(rows) == 1:
        return rows[0]
    stamp = rows[0][-2:]
    if type(stamp[0]) is int and type(stamp[1]) is str:
        shared = stamp.copy()
        for row in rows:
            if row[-2:] != stamp or type(row[-2]) is not int or type(row[-1]) is not str:
                break
            shared.append(row[:-2])
        else:
            return shared
    return [None, *rows]


def segment_rows(segment: Any) -> List[Row]:
    """The rows :func:`encode_segment` stored as ``segment``, in order."""
    if isinstance(segment[0], str):
        return [segment]  # one row: [type, *fields]
    if segment[0] is None:
        return segment[1:]
    epoch, writer, *rows = segment
    return [[*row, epoch, writer] for row in rows]


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
        what its own ``journal_len`` says, entry for entry, or holds an entry
        of a type :data:`ENTRY_FIELDS` does not know, or with a field it does
        not spell or missing one it does, is refused before anything is
        logged."""
        iid, meta = snapshot["instance"], snapshot["meta"]
        entries = list(snapshot["journal"])
        if meta["journal_len"] != len(entries) or not all(
            isinstance(entry, dict) for entry in entries
        ):
            raise ExecutionError(
                f"{iid}: snapshot journal does not match its journal_len "
                f"({meta['journal_len']}) entry for entry"
            )
        for n, entry in enumerate(entries):
            keys = _ENTRY_KEYS.get(entry.get("type"))
            if keys is None or entry.keys() != set(keys):
                raise ExecutionError(
                    f"{iid}: snapshot journal entry {n} has an unknown type or "
                    f"field, or lacks one: {sorted(entry)}"
                )
        scripts = {digest: meta["script_text"]}
        rows = [encode_entry(entry, scripts) for entry in entries]
        writes: Dict[str, Any] = {}
        for each, text in scripts.items():
            writes.update(self._intern(each, text))
        writes[f"instance:{iid}:spec"] = {
            "script": digest, **{name: meta[name] for name in _SPEC_FIELDS},
        }
        writes[f"instance:{iid}:meta"] = {"journal_len": len(entries)}
        if rows:
            writes[f"instance:{iid}:journal:0"] = encode_segment(rows)
        self.store.commit_batch(writes)

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

    def check_script(self, text: str) -> None:
        """Refuse ``text`` if its digest already names other text in the
        store — what :meth:`commit` would refuse for a ``reconfig`` entry
        carrying it, asked before the entry is applied or buffered."""
        self._intern(script_digest(text), text)

    def append(self, iid: str, entry: Dict[str, Any]) -> None:
        """Buffer ``entry`` as the next of ``iid``'s journal; it becomes
        durable at the next :meth:`commit`."""
        IOPATH_STATS.journal_entries += 1
        self.buffer.append((iid, entry))

    def commit(self, closed: Collection[str] = ()) -> int:
        """Make every buffered entry durable — one segment per touched
        instance holding its entries in their stored form
        (:func:`encode_segment`), each touched instance's ``meta`` and the
        text of any ``reconfig`` the store lacks, one WAL record, one force —
        then drain the WAL's group-commit window.  The record is
        all-or-nothing (a torn force drops it whole), so recovery sees a
        contiguous journal either way.
        ``closed`` names the instances this barrier leaves terminal with no
        flight out: those among the touched get the mark beside their length
        — durable or lost together with the entry that earned it; any other
        touched instance has its ``meta`` written without it, which is how a
        later write reopens one.  Returns the number of entries committed."""
        batch, self.buffer = self.buffer, []
        store = self.store
        writes: Dict[str, Any] = {}
        segments: Dict[str, List[Row]] = {}
        scripts: Dict[str, str] = {}
        for iid, entry in batch:
            rows = segments.get(iid)
            if rows is None:
                segments[iid] = [encode_entry(entry, scripts)]
            else:
                rows.append(encode_entry(entry, scripts))
        lens: Dict[str, int] = {}
        for iid, rows in segments.items():
            n = store.read_committed(f"instance:{iid}:meta")["journal_len"]
            # a lone entry is its own segment: no call for a chain's step
            writes[f"instance:{iid}:journal:{n}"] = (
                rows[0] if len(rows) == 1 else encode_segment(rows)
            )
            lens[iid] = n + len(rows)
        for iid, n in lens.items():
            writes[f"instance:{iid}:meta"] = (
                {"journal_len": n, "closed": True} if iid in closed
                else {"journal_len": n}
            )
        for digest, text in scripts.items():
            writes.update(self._intern(digest, text))
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
        """``iid``'s committed entries, in order, each the dict that was
        appended (:func:`decode_entry`; ``None`` at a position where no
        segment starts or covers it: a hole).  The walk goes segment by
        segment from position 0 while the position is below ``journal_len``,
        so a segment that runs past it is read whole: the list is then
        longer than ``journal_len``, which the contiguity oracle reports."""
        length = self.length(iid) or 0
        read, script_text = self.store.get_committed, self.script_text
        prefix = f"instance:{iid}:journal:"
        found: List[Optional[Dict[str, Any]]] = []
        while len(found) < length:
            segment = read(f"{prefix}{len(found)}")
            if segment is None:
                found.append(None)
            elif isinstance(segment[0], str):
                found.append(decode_entry(segment, script_text))  # one row (segment_rows)
            else:
                found += [decode_entry(row, script_text) for row in segment_rows(segment)]
        return found
