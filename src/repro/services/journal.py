"""The execution store's layout, and the only code that knows it.

The paper's execution service "records inter-task dependencies in persistent
atomic objects and uses atomic transactions for propagating coordination
information"; a :class:`Journal` is where those objects are named, written
and read back.  Per script version the store holds one write-once
``script:<digest>`` with the source text, content-addressed
(:func:`script_digest`), so recovery and promotion never need the repository.
Per instance: a write-once ``instance:<iid>:spec``, the list ``[digest,
root_task, input_set, inputs]`` (:meth:`Journal.spec` reads it back as a
dict), one ``instance:<iid>:journal:<n>`` *segment* per barrier that touched
it — the entries ``n … n+k-1`` that barrier made durable — and an
``instance:<iid>:meta``, a seal rather than a counter.  The segments are the
journal of a running instance: read from position 0 to the first position
no segment starts at, they say how long it is.  ``meta`` is written when the
instance is born (``journal_len`` 0) and by every barrier that leaves it
terminal (its exact ``journal_len`` and ``closed``: whether no flight is
out); a barrier that writes to an instance after it ended, which reopens a
closed one, is such a barrier too.  No other barrier writes it, so
``journal_len`` is exact for an ended instance and a lower bound while it
runs.  The instances of a store are its ``spec`` keys, in commit order; no
stored object grows with their number.

An entry is stored positionally, as a row ``[code, *fields]``
(:func:`encode_entry`), and read back as exactly the dict that was appended
(:func:`decode_entry`).  A row says only what its instance does not already
know:

* ``code`` is the entry's position in :data:`CODES`, one per entry type of
  :data:`ENTRY_FIELDS` and, for a ``result``, one per output kind — so the
  row spells neither the type nor the kind, and a ``result``'s output name
  and objects stand in its row where the ``result`` field stands;
* a ``path`` is stored below the instance's root task (the spec's, which no
  entry changes): ``root/a/b`` as ``a/b``, the root itself as ``""``;
* in a ``result``'s or a ``mark``'s object map a plain value is ``[value]``
  and a reference its ref dict without the ``__ref__`` tag, without
  ``produced_by`` when that is the row's path and without ``via`` when that
  is the row's output or mark name;
* a ``reconfig`` names its text by digest, and the text goes to
  ``script:<digest>`` in the same record, only when the store lacks it.

An entry the table cannot spell exactly is refused — a field missing or
extra, a path not under the root, a ref without its four fields — by
:meth:`Journal.append`, before it is buffered: every entry the service
journals carries its ``epoch`` and ``writer``.  ``meta``
keeps its dict shape.

A segment has one form (:func:`encode_segment`): the list of its rows, or
the row itself when there is one (a row starts with its code, a list of
rows with a row).  A row ends in its ``epoch, writer`` only where they
differ from the entry's before it in the instance's journal — its first
entry, the first after a promotion or a recovery — and the reader carries
the stamp forward.  The writer takes the root, the previous stamp and the
next position from the instance's :class:`Tail`, which its runtime rebuilds
from the durable journal whenever it replays.

Every write is one self-committing WAL record
(:meth:`~repro.txn.store.ObjectStore.commit_batch`): the service is the
objects' only writer, and a journal must be atomic and durable, not isolated.
A script's text rides in the record of the first spec or ``reconfig`` entry
that names it, so a torn force drops both or neither; a barrier's segments
and the seals it writes are one record too, whatever the script's size or
the history's length — so the ``closed`` mark of an instance that barrier
leaves terminal with no flight out (:meth:`Journal.commit`) is durable or
lost with the deciding entry: "closed, but the deciding entry is missing"
cannot be stored.  The mark is recorded
derived state: a recovery or a promotion takes a closed instance in by its
key and replays only the open ones.

Nothing else under ``services``, ``replication`` or ``sim`` builds or parses
one of these keys, the mark, a stored entry or a segment
(``tests/test_journal_layout.py::TestLayout`` holds the source to the keys),
so the layout changes in this file alone: the mark was the first step, the
positional entry the second, the segment the third, ``meta`` as a seal and
the stamp written where it changes the fourth, a row without what its
instance knows the fifth; truncating the segments below a stored state
image, and stored outcomes, come next.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Collection, Dict, List, Optional, Tuple

from ..core.errors import ExecutionError
from ..core.instrument import IOPATH_STATS
from ..core.schema import OutputKind
from ..txn.store import ObjectStore


def script_digest(text: str) -> str:
    """Content address of a script version: SHA-256 of its source, hex,
    truncated to 128 bits."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


# what an ``instance:<iid>:spec`` list holds, in order
_SPEC_KEYS = ("script", "root_task", "input_set", "inputs")
# spec fields an exported snapshot carries as they stand (the script, a
# digest in the spec, crosses as its text)
_SPEC_FIELDS = _SPEC_KEYS[1:]

# Every journal entry type (docs/PROTOCOLS.md §4.1) and its fields after
# ``type``, in the order the service builds them.
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
# The stored row's first item: its position here.  One code per entry type,
# in the table's order, and for a ``result`` one per output kind
# (``OutputKind``'s member names, the ``kind`` of ``result_to_plain``).
CODES: Tuple[Tuple[str, Optional[str]], ...] = tuple(
    (kind, output)
    for kind in ENTRY_FIELDS
    for output in (tuple(OutputKind.__members__) if kind == "result" else (None,))
)
_CODE_OF = {kind: code for code, (kind, output) in enumerate(CODES) if output is None}
_RESULT_CODE = {output: code for code, (_kind, output) in enumerate(CODES) if output}
# the fields each code's row holds after the code: a ``result``'s output
# name and objects stand where its ``result`` field stands
_ROW_FIELDS = tuple(
    tuple(
        part for field in ENTRY_FIELDS[kind]
        for part in (("name", "objects") if field == "result" else (field,))
    )
    for kind, _output in CODES
)
# where a row holds the fields with a codec of their own
_PATH_AT, _NAME_AT, _OBJECTS_AT, _TEXT_AT = 1, 3, 4, 1

Row = List[Any]
Stamp = Tuple[int, str]


def encode_entry(entry: Dict[str, Any], scripts: Dict[str, str], root: str) -> Row:
    """``entry``, of an instance whose root task is ``root``, as it is
    stored: ``[code, *fields]`` (:data:`CODES`, :data:`ENTRY_FIELDS`).  A
    ``path`` goes below ``root``; a ``result``'s ``{kind, name, objects}``
    becomes its code and ``name, objects``; in a ``result``'s or a
    ``mark``'s objects a plain value becomes ``[value]`` and a ref its dict
    untagged, less the ``produced_by`` and ``via`` the row already says.  A
    ``reconfig``'s text becomes its digest, and ``digest -> text`` goes into
    ``scripts`` for the caller to intern.  An entry the table cannot spell
    exactly — an unknown type or output kind, a field missing or extra, a
    path not under ``root``, an object map of another shape — is refused
    (``ExecutionError``)."""
    kind = entry.get("type")
    fields = ENTRY_FIELDS.get(kind)
    # every shape the table cannot spell ends in the one refusal below: a
    # lookup that fails, or a check that raises KeyError like one
    try:
        if len(entry) != len(fields) + 1:  # TypeError for an unknown type
            raise KeyError(kind)
        # (a ``result``'s code is its output kind's, set below)
        row = [_CODE_OF.get(kind), *map(entry.__getitem__, fields)]
        if fields[0] == "path":
            path = row[_PATH_AT]
            if path == root:
                row[_PATH_AT] = ""
            elif path.startswith(root + "/") and path != root + "/":
                row[_PATH_AT] = path[len(root) + 1:]
            else:
                raise KeyError(path)
        if kind == "result" or kind == "mark":
            if kind == "result":
                result = row[_NAME_AT]
                if len(result) != 3:
                    raise KeyError("result")
                row[0] = _RESULT_CODE[result["kind"]]
                name, given = result["name"], result["objects"]
                row[_NAME_AT:_NAME_AT + 1] = name, None
            else:
                name, given = row[_NAME_AT], row[_OBJECTS_AT]
            tagged = kind == "result"
            objects: Dict[str, Any] = {}
            for key, item in given.items():
                size = len(item)
                if tagged:
                    tag = item.get("__ref__")
                    if tag is False and size == 2:
                        objects[key] = [item["value"]]
                        continue
                    if tag is not True:
                        raise KeyError(key)
                    size -= 1
                if size != 4:
                    raise KeyError(key)
                objects[key] = ref = {"class": item["class"], "value": item["value"]}
                if item["produced_by"] != path:
                    ref["produced_by"] = item["produced_by"]
                if item["via"] != name:
                    ref["via"] = item["via"]
            row[_OBJECTS_AT] = objects
        elif kind == "reconfig":
            text = row[_TEXT_AT]
            row[_TEXT_AT] = digest = script_digest(text)
            if scripts.setdefault(digest, text) != text:
                raise ExecutionError(f"script digest {digest} names two texts in one batch")
    except (KeyError, TypeError, AttributeError):
        raise ExecutionError(f"a journal entry the table cannot spell: {entry!r}") from None
    return row


def decode_entry(
    row: Row, script_text: Callable[[str], Optional[str]], root: str,
    stamp: Optional[Stamp] = None,
) -> Dict[str, Any]:
    """The entry ``row`` was encoded from (:func:`encode_entry`) for an
    instance whose root task is ``root``: equal to the dict that was
    appended, keys in the table's order, a ref's fields in
    ``ref_to_plain``'s.  ``script_text`` resolves a ``reconfig``'s digest (a
    digest the store holds no text for reads back as ``None``); a row
    stored without its ``epoch, writer`` (:func:`encode_segment`) takes
    ``stamp``, the entry's before it."""
    code = row[0]
    kind, output = CODES[code]
    fields = _ROW_FIELDS[code]
    stored = dict(zip(fields, row[1:]))
    if len(row) <= len(fields):
        stored["epoch"], stored["writer"] = stamp
    if "path" in stored:
        below = stored["path"]
        stored["path"] = path = f"{root}/{below}" if below else root
    if "objects" in stored:
        name = stored["name"]
        objects: Dict[str, Any] = {}
        for key, item in stored["objects"].items():
            if isinstance(item, list):
                objects[key] = {"__ref__": False, "value": item[0]}
                continue
            ref = {
                "class": item["class"], "value": item["value"],
                "produced_by": item.get("produced_by", path), "via": item.get("via", name),
            }
            objects[key] = {"__ref__": True, **ref} if output else ref
        stored["objects"] = objects
    if output:
        stored["result"] = {
            "kind": output, "name": stored.pop("name"), "objects": stored.pop("objects"),
        }
    elif kind == "reconfig":
        stored["script_text"] = script_text(stored["script_text"])
    entry = {"type": kind}
    for field in ENTRY_FIELDS[kind]:
        entry[field] = stored[field]
    return entry


class Tail:
    """Where one instance's durable journal ends, as the runtime that writes
    it knows it: ``root``, the instance's root task, which its rows' paths
    are stored below; ``length``, the position the next segment starts at;
    ``stamp``, the ``(epoch, writer)`` of the last entry when that is an
    ``int`` and a ``str`` (else ``None``: the next row spells its own);
    ``ended``, set by the owner once the instance is terminal, so that every
    barrier that touches it writes its ``meta``.  Built for a new instance
    with the class defaults and its ``root`` set (no call), and by
    :meth:`after` from the journal a replay read — never kept across a
    crash, a demotion or a promotion, which all replay."""

    root: str
    length = 0
    stamp: Optional[Stamp] = None
    ended = False

    @classmethod
    def after(cls, root: str, entries: List[Dict[str, Any]]) -> "Tail":
        """The tail of a journal under ``root`` that holds ``entries``."""
        tail = cls()
        tail.root = root
        if entries:
            epoch, writer = entries[-1]["epoch"], entries[-1]["writer"]
            tail.length = len(entries)
            if type(epoch) is int and type(writer) is str:
                tail.stamp = (epoch, writer)
        return tail


def encode_segment(rows: List[Row], stamp: Optional[Stamp]) -> Tuple[Any, Optional[Stamp]]:
    """One stored value for ``rows``, consecutive entries of one journal
    (:func:`encode_entry`) whose entry before them had ``stamp``: each row
    loses its trailing ``epoch, writer`` when they equal the entry's before
    it, and the segment is the list of rows — the row itself when there is
    one.  Returns the segment and the stamp of its last row.  Rows are
    changed in place."""
    for row in rows:
        epoch, writer = row[-2], row[-1]
        if type(epoch) is not int or type(writer) is not str:
            stamp = None  # spelled out, and so is the next row's
        elif stamp is not None and epoch == stamp[0] and writer == stamp[1]:
            del row[-2:]
        else:
            stamp = (epoch, writer)
    return (rows[0] if len(rows) == 1 else rows), stamp


def segment_rows(segment: Any) -> List[Row]:
    """The rows :func:`encode_segment` stored as ``segment``, in order."""
    return [segment] if type(segment[0]) is int else segment


class Journal:
    """The instances of one execution store: create, append, commit, read.

    Appended entries are buffered, encoded, in :attr:`rows` (each buffered
    instance's, in append order) until :meth:`commit` makes them durable as
    one record; a crash loses the buffer together with the volatile trees it
    described."""

    def __init__(self, store: ObjectStore) -> None:
        self.store = store
        self.rows: Dict[str, List[Row]] = {}
        # the tail each buffered instance was last appended at, until the commit
        self._tails: Dict[str, Tail] = {}
        # the text of each reconfig digest among the buffered rows
        self._scripts: Dict[str, str] = {}

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
        stored = [digest, root_task, input_set, dict(inputs or {})]
        self.store.commit_batch({
            **script_write,
            "instance-counter": counter,
            f"instance:{iid}:spec": stored,
            f"instance:{iid}:meta": {"journal_len": 0},
        })
        return iid, dict(zip(_SPEC_KEYS, stored))

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
        not spell or missing one it does, or one :func:`encode_entry`
        refuses (a path not under the snapshot's root task, say), is refused
        before anything is logged."""
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
            fields = ENTRY_FIELDS.get(entry.get("type"))
            if fields is None or entry.keys() != {"type", *fields}:
                raise ExecutionError(
                    f"{iid}: snapshot journal entry {n} has an unknown type or "
                    f"field, or lacks one: {sorted(entry)}"
                )
        scripts = {digest: meta["script_text"]}
        root = meta["root_task"]
        rows = [encode_entry(entry, scripts, root) for entry in entries]
        writes: Dict[str, Any] = {}
        for each, text in scripts.items():
            writes.update(self._intern(each, text))
        writes[f"instance:{iid}:spec"] = [digest, *(meta[name] for name in _SPEC_FIELDS)]
        writes[f"instance:{iid}:meta"] = {"journal_len": len(entries)}
        if rows:
            writes[f"instance:{iid}:journal:0"] = encode_segment(rows, None)[0]
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

    def append(self, iid: str, entry: Dict[str, Any], tail: Tail) -> None:
        """Buffer ``entry`` as the next of ``iid``'s journal, whose durable
        end is ``tail``; it becomes durable at the next :meth:`commit`.  It
        is encoded here (:func:`encode_entry`): an entry the table cannot
        spell is refused before it is buffered, and the entries already
        buffered stay so."""
        row = encode_entry(entry, self._scripts, tail.root)
        IOPATH_STATS.journal_entries += 1
        rows = self.rows.get(iid)
        if rows is None:
            self.rows[iid] = [row]
        else:
            rows.append(row)
        self._tails[iid] = tail

    def discard(self) -> None:
        """Forget every buffered entry, never to be committed."""
        self.rows.clear()
        self._tails.clear()
        self._scripts.clear()

    def commit(self, closed: Collection[str] = ()) -> int:
        """Make every buffered entry durable — one segment per touched
        instance at its tail's position, holding its entries in their stored
        form (:func:`encode_segment`), and the text of any ``reconfig`` the
        store lacks, one WAL record, one force — then drain the WAL's
        group-commit window.  The record is all-or-nothing (a torn force
        drops it whole), so recovery sees a contiguous journal either way.
        A touched instance whose tail has ``ended`` — this barrier leaves it
        terminal, or writes to it after it ended, which reopens a closed one
        — also gets its ``meta``: its length, and ``closed`` when ``closed``
        names it (no flight out), durable or lost together with the entry
        that earned it.  Every other barrier writes segments alone.  Returns
        the number of entries committed."""
        segments, self.rows = self.rows, {}
        tails, self._tails = self._tails, {}
        scripts, self._scripts = self._scripts, {}
        store = self.store
        writes: Dict[str, Any] = {}
        ends: List[Tuple[Tail, int, Optional[Stamp]]] = []
        count = 0
        for iid, rows in segments.items():
            tail = tails[iid]
            n = tail.length
            count += len(rows)
            writes[f"instance:{iid}:journal:{n}"], stamp = encode_segment(rows, tail.stamp)
            ends.append((tail, n + len(rows), stamp))
            if tail.ended or iid in closed:
                writes[f"instance:{iid}:meta"] = {
                    "journal_len": n + len(rows), "closed": iid in closed,
                }
        for digest, text in scripts.items():
            writes.update(self._intern(digest, text))
        store.commit_batch(writes)
        for tail, length, stamp in ends:
            tail.length, tail.stamp = length, stamp
        IOPATH_STATS.journal_batches += 1
        store.sync()
        return count

    def pending(self, iid: str) -> bool:
        """Whether an entry of ``iid`` is still buffered."""
        return iid in self.rows

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

    def segments(self) -> Dict[str, List[int]]:
        """Every instance of the store, in :meth:`instances` order, with the
        positions its stored segments start at, ascending — from the same
        one key scan.  A position the walk of :meth:`entries` does not reach
        is a hole."""
        found: Dict[str, List[int]] = {}
        starts: Dict[str, List[int]] = {}
        prefix, suffix = "instance:", ":spec"
        for key in self.store.keys():
            if not key.startswith(prefix):
                continue
            if key.endswith(suffix):
                iid = key[len(prefix):-len(suffix)]
                found[iid] = starts.setdefault(iid, [])
                continue
            head, journal, position = key.rpartition(":journal:")
            if journal:
                starts.setdefault(head[len(prefix):], []).append(int(position))
        for positions in found.values():
            positions.sort()
        return found

    def closed(self, iid: str) -> bool:
        """Whether ``iid``'s last barrier left it terminal with no flight out
        (:meth:`commit`): nobody who opens the store needs to replay it.  One
        without the mark — open, imported, or older than the mark — is replayed."""
        return self.store.get_committed(f"instance:{iid}:meta", {}).get("closed", False)

    def ended(self, iid: str) -> bool:
        """Whether a barrier that left ``iid`` terminal wrote its ``meta``
        (closed or not): its ``journal_len`` is then exact, not a lower
        bound."""
        return "closed" in self.store.get_committed(f"instance:{iid}:meta", {})

    def spec(self, iid: str) -> Optional[Dict[str, Any]]:
        """``iid``'s spec as a dict — ``script`` (the digest), ``root_task``,
        ``input_set``, ``inputs`` — or ``None`` for no such instance."""
        stored = self.store.get_committed(f"instance:{iid}:spec")
        return None if stored is None else dict(zip(_SPEC_KEYS, stored))

    def script_text(self, digest: str) -> Optional[str]:
        """The text the store holds under ``digest``, if any."""
        return self.store.get_committed(f"script:{digest}")

    def length(self, iid: str) -> Optional[int]:
        """``iid``'s committed ``journal_len`` (``None`` without a ``meta``;
        spec and meta commit together): exact once the instance
        :meth:`ended`, a lower bound while it runs."""
        meta = self.store.get_committed(f"instance:{iid}:meta")
        return None if meta is None else meta["journal_len"]

    def entries(self, iid: str) -> List[Dict[str, Any]]:
        """``iid``'s committed entries, in order, each the dict that was
        appended (:func:`decode_entry`).  The walk goes segment by segment
        from position 0 to the first position where no segment starts,
        carrying each row's stamp to the next; it does not read ``meta``, so
        a segment past a lost one is not reached (:meth:`segments` finds
        it), and one running past ``journal_len`` is read whole.  An id with
        no spec has none."""
        read, script_text = self.store.get_committed, self.script_text
        spec = read(f"instance:{iid}:spec")
        if spec is None:
            return []
        root = spec[1]
        prefix = f"instance:{iid}:journal:"
        found: List[Dict[str, Any]] = []
        stamp: Optional[Stamp] = None
        while True:
            segment = read(f"{prefix}{len(found)}")
            if segment is None:
                return found
            for row in segment_rows(segment):
                entry = decode_entry(row, script_text, root, stamp)
                stamp = (entry["epoch"], entry["writer"])
                found.append(entry)
