"""The journal's stored form: ``[type, *fields]``, read back as the dict
that was appended (docs/PROTOCOLS.md §4.1).

``repro.services.journal`` stores every entry positionally, in the order of
its ``ENTRY_FIELDS`` table, and decodes it back on every read.  These tests
pin what that rests on:

* **Round trip.**  For every entry type, ``decode(encode(e)) == e`` — also
  after the JSON round trip the WAL mirror puts a row through — including
  plain outputs that are lists, dicts, dicts holding a ``"__ref__"`` key and
  ``None``, and refs without ``produced_by`` / ``via``.  An entry the table
  cannot spell is stored as the dict it is, and reads back as itself.
* **What the service journals.**  Every entry the paper's three
  applications append reads back from ``Journal.entries`` equal to the dict
  appended, key order included, on the primary and on a standby.
* **Outside input is checked.**  ``Journal.adopt`` refuses a snapshot with
  an entry of an unknown type or field before anything is logged.
* **A reconfiguration names its text by digest.**  The text is stored once
  per version, in the record of the first entry that names it, and a digest
  that names other text is refused before anything is applied or logged.
* **One segment per instance per barrier.**  Over interleaved barriers on
  one to four instances, every entry type, dict rows among positional ones
  and mixed stamps, ``Journal.entries`` reads back exactly what was
  appended, also through JSON and through export and import; a store
  already holding one key per entry (dicts, or rows) reads on.
"""

import copy
import json
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ExecutionError
from repro.engine import outcome
from repro.services import WorkflowSystem
from repro.services import execution as execution_mod
from repro.services import journal as journal_mod
from repro.services.journal import ENTRY_FIELDS, Journal, decode_entry, encode_entry, script_digest
from repro.sim import crashpoints
from repro.sim.crashpoints import ArmedCrash, CrashPointInjector, SimulatedCrash
from repro.sim.oracles import check_journal_integrity, check_store_agreement
from repro.txn.store import ObjectStore
from repro.workloads import APPLICATIONS, chain, paper_order, script_text

from tests.test_journal_layout import journal_keys

PROTOCOL_TYPES = {
    "result", "failure", "mark", "external", "reconfig", "force_abort", "deadline", "overloaded",
}


def round_trip(entry):
    scripts = {}
    row = encode_entry(entry, scripts)
    return row, decode_entry(row, scripts.get), scripts


# -- round trip ----------------------------------------------------------------------

scalars = (
    st.none() | st.booleans() | st.integers(-10**6, 10**6)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6)
)
plain = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["__ref__", "value", "class", "k"]) | st.text(max_size=3),
                      inner, max_size=3),
    max_leaves=8,
)
# the shapes the issue names, drawn often rather than by luck
awkward = st.sampled_from([None, [], [1, [2]], {}, {"__ref__": True}, {"__ref__": False, "value": 1}])
values = awkward | plain
names = st.text(min_size=1, max_size=5)


@st.composite
def refs(draw):
    """A reference as ``ref_to_plain`` writes it, or with ``produced_by`` /
    ``via`` absent, as an older or a foreign writer may."""
    ref = {"class": draw(st.text(max_size=5)), "value": draw(values)}
    for optional in ("produced_by", "via"):
        form = draw(st.sampled_from(["absent", "none", "text"]))
        if form != "absent":
            ref[optional] = None if form == "none" else draw(st.text(max_size=5))
    return ref


result_objects = st.dictionaries(
    names,
    values.map(lambda value: {"__ref__": False, "value": value})
    | refs().map(lambda ref: {"__ref__": True, **ref}),
    max_size=3,
)
FIELD_VALUES = {
    "path": st.text(max_size=12),
    "exec": st.integers(0, 99),
    "result": st.fixed_dictionaries({
        "kind": st.sampled_from(["OUTCOME", "ABORT", "MARK"]),
        "name": names,
        "objects": result_objects,
    }),
    "error": st.text(max_size=12),
    "name": st.none() | names,
    "objects": st.dictionaries(names, refs(), max_size=3),
    "script_text": st.text(min_size=1, max_size=40),
    "expires_at": st.floats(0, 1e6),
    "reason": st.text(max_size=12),
    "criticality": st.integers(0, 3) | st.text(max_size=6),
    "epoch": st.integers(0, 9),
    "writer": st.sampled_from(["execution", "execution-1"]),
}


@st.composite
def entries_of(draw, kind):
    """An entry of ``kind``, keys in the order the service builds them."""
    entry = {"type": kind}
    for field in ENTRY_FIELDS[kind]:
        entry[field] = draw(FIELD_VALUES[field])
    return entry


class TestRoundTrip:
    def test_the_table_covers_every_entry_type_of_the_protocol(self):
        assert set(ENTRY_FIELDS) == PROTOCOL_TYPES
        assert all(fields[-2:] == ("epoch", "writer") for fields in ENTRY_FIELDS.values())

    @pytest.mark.parametrize("kind", sorted(PROTOCOL_TYPES))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_decode_of_encode_is_the_entry(self, kind, data):
        entry = data.draw(entries_of(kind))
        appended = copy.deepcopy(entry)
        row, decoded, scripts = round_trip(entry)
        assert entry == appended  # encoding leaves the appended entry alone
        assert isinstance(row, list) and row[0] == kind and len(row) == len(entry)
        assert decoded == entry and list(decoded) == list(entry)
        # the mirror stores the row as JSON; its replay decodes the same
        mirrored = json.loads(json.dumps(row))
        assert decode_entry(mirrored, scripts.get) == json.loads(json.dumps(entry))
        if kind == "reconfig":
            assert row[1] == script_digest(entry["script_text"])
            assert scripts == {row[1]: entry["script_text"]}
        else:
            assert scripts == {}

    def test_object_map_stores_plain_values_wrapped_and_refs_untagged(self):
        entry = {
            "type": "result", "path": "p", "exec": 1,
            "result": {"kind": "OUTCOME", "name": "done", "objects": {
                "list": {"__ref__": False, "value": [1, 2]},
                "none": {"__ref__": False, "value": None},
                "tagged": {"__ref__": False, "value": {"__ref__": True, "class": "C"}},
                "ref": {"__ref__": True, "class": "C", "value": 3},
            }},
            "epoch": 2, "writer": "execution",
        }
        row, decoded, _scripts = round_trip(entry)
        assert row == [
            "result", "p", 1,
            ["OUTCOME", "done", {
                "list": [[1, 2]], "none": [None],
                "tagged": [{"__ref__": True, "class": "C"}],
                "ref": {"class": "C", "value": 3},
            }],
            2, "execution",
        ]
        assert decoded == entry

    @pytest.mark.parametrize(
        "entry",
        [
            {"type": "force_abort", "path": "p", "epoch": 1, "writer": "w"},  # no name
            {"type": "external", "path": "p", "exec": 1},  # written before the stamp
            {"type": "external", "path": "p", "exec": 1, "epoch": 1, "writer": "w", "x": 0},
            {"type": "later", "what": 1},
            {"type": "result", "path": "p", "exec": 1, "epoch": 1, "writer": "w",
             "result": {"kind": "OUTCOME", "name": "d", "objects": {"o": {"value": 1}}}},
            {"type": "result", "path": "p", "exec": 1, "epoch": 1, "writer": "w",
             "result": {"kind": "OUTCOME", "name": "d", "objects": {"o": {"__ref__": 1}}}},
            {"type": "result", "path": "p", "exec": 1, "epoch": 1, "writer": "w",
             "result": {"kind": "OUTCOME", "name": "d", "objects": {"o": [1]}}},
            {"type": "result", "path": "p", "exec": 1, "epoch": 1, "writer": "w",
             "result": {"kind": "OUTCOME", "name": "d",
                        "objects": {"o": {"__ref__": False, "value": 1, "x": 2}}}},
            {"type": "result", "path": "p", "exec": 1, "epoch": 1, "writer": "w",
             "result": {"kind": "OUTCOME", "name": "d", "objects": {"o": {"__ref__": False}}}},
        ],
        ids=["field-missing", "unstamped", "field-extra", "unknown-type",
             "object-untagged", "tag-not-a-bool", "object-not-a-dict",
             "plain-object-key-extra", "plain-object-value-missing"],
    )
    def test_an_entry_the_table_cannot_spell_is_stored_as_itself(self, entry):
        row, decoded, scripts = round_trip(entry)
        assert row is entry and decoded is entry and scripts == {}


# -- what the service journals ---------------------------------------------------------


def record_appends(monkeypatch):
    """Every entry a service appends, as it stood when appended, by instance."""
    appended = {}
    append = Journal.append

    def recording(self, iid, entry):
        appended.setdefault(iid, []).append(copy.deepcopy(entry))
        append(self, iid, entry)

    monkeypatch.setattr(Journal, "append", recording)
    return appended


@pytest.mark.parametrize("name", sorted(APPLICATIONS))
def test_every_entry_a_paper_application_journals_reads_back_as_appended(name, monkeypatch):
    appended = record_appends(monkeypatch)
    app = APPLICATIONS[name]
    system = WorkflowSystem(workers=3, replicas=2, lease_duration=30.0, repl_interval=5.0)
    app.binder(system.registry)
    system.deploy(app.script_name, app.text)
    iids = [system.instantiate(app.script_name, app.root_task, app.inputs(i)) for i in range(3)]
    for iid in iids:
        assert system.run_until_terminal(iid)["status"] == "completed", iid
    system.clock.advance(20.0)  # the standby has everything
    primary, standby = system.execution_replicas
    assert sorted(appended) == sorted(iids)
    for iid in iids:
        for store in (primary.store, standby.store):
            stored = Journal(store).entries(iid)
            assert stored == appended[iid], iid
            assert [list(entry) for entry in stored] == [list(entry) for entry in appended[iid]]
        raw = [
            primary.store.get_committed(key) for key in primary.store.keys()
            if key.startswith(f"instance:{iid}:journal:")
        ]
        assert all(isinstance(row, list) for row in raw)
    kinds = {entry["type"] for entries in appended.values() for entry in entries}
    assert "result" in kinds


@pytest.mark.parametrize(
    "forge",
    [
        lambda entry: entry.__setitem__("type", "rumour"),
        lambda entry: entry.__setitem__("extra", 1),
    ],
    ids=["unknown-type", "unknown-field"],
)
def test_adopt_refuses_an_unknown_entry_before_anything_is_logged(forge):
    source = WorkflowSystem(workers=2)
    paper_order.default_registry(registry=source.registry)
    source.deploy("order", paper_order.SCRIPT_TEXT)
    iid = source.instantiate("order", paper_order.ROOT_TASK, {"order": "o-1"})
    source.run_until_terminal(iid)
    snapshot = source.execution.export_instance(iid)
    forge(snapshot["journal"][-1])

    target = WorkflowSystem(workers=2)
    store = target.execution_store
    keys, logged = list(store.keys()), len(store.wal)
    with pytest.raises(ExecutionError, match="unknown type or field"):
        target.execution.import_instance(snapshot)
    assert list(store.keys()) == keys and len(store.wal) == logged
    assert target.execution.runtimes == {}


# -- reconfig entries name their script by digest ----------------------------------------


@pytest.fixture
def cold_compile_cache(monkeypatch):
    monkeypatch.setattr(execution_mod, "_COMPILE_CACHE", OrderedDict())


def reconfigurable():
    """A chain(3) instance just started, and a second version of its script
    whose last stage answers ``reconfigured``."""
    workload = chain(3)
    _script, registry, root, inputs = workload
    registry.register("stage2", lambda ctx: outcome("done", out="reconfigured"))
    system = WorkflowSystem(workers=2, registry=registry)
    text = script_text(workload)
    system.deploy("chain", text)
    iid = system.instantiate("chain", root, inputs)
    head, _sep, tail = text.rpartition('"code" is "stage"')
    return system, iid, text, head + '"code" is "stage2"' + tail


def records_holding(store, key):
    return [record for record in store.wal.all_records() if key in (record.value or ())]


class TestReconfigByDigest:
    def test_two_reconfigs_to_the_same_text_store_it_once(self):
        system, iid, text, new_text = reconfigurable()
        store = system.execution_store
        for _ in range(2):
            system.execution.reconfigure(iid, new_text)
        key = f"script:{script_digest(new_text)}"
        assert len(records_holding(store, key)) == 1
        assert store.get_committed(key) == new_text
        stored = Journal(store).entries(iid)
        assert [entry["script_text"] for entry in stored if entry["type"] == "reconfig"] == [
            new_text, new_text,
        ]
        rows = [store.get_committed(f"instance:{iid}:journal:{n}") for n in range(len(stored))]
        reconfigs = [row for row in rows if row[0] == "reconfig"]
        assert [row[1] for row in reconfigs] == [script_digest(new_text)] * 2
        assert all(new_text not in json.dumps(row) for row in rows)
        # the entry and its text ride in one record
        (record,) = records_holding(store, key)
        assert any(value is reconfigs[0] for value in record.value.values())
        assert system.run_until_terminal(iid)["objects"]["out"]["value"] == "reconfigured"
        assert check_journal_integrity(store) == []

    def test_a_reconfig_back_to_the_deployed_text_stores_no_text(self):
        system, iid, text, _new_text = reconfigurable()
        store = system.execution_store
        logged = len(store.wal)
        system.execution.reconfigure(iid, text)
        added = list(store.wal.all_records())[logged:]
        assert [key for record in added for key in record.value if key.startswith("script:")] == []
        assert Journal(store).entries(iid)[-1]["script_text"] == text

    @pytest.mark.parametrize(
        "point, mode, survives",
        [
            ("store.commit.pre", "clean", False),
            ("wal.force.pre", "torn", False),
            ("exec.journal.post", "clean", True),
        ],
    )
    def test_a_crash_keeps_the_text_and_the_entry_together(self, point, mode, survives):
        system, iid, _text, new_text = reconfigurable()
        store, node, service = system.execution_store, system.execution_node, system.execution

        def crash(_node_name, fault, _scope):
            if fault.mode == "torn":
                store.wal.torn_force()
            node.crash()

        injector = CrashPointInjector(crash)
        for scope in (service, store, store.wal):
            injector.bind(scope, node.name)
        injector.arm(ArmedCrash(point, mode=mode))
        crashpoints.install(injector)
        try:
            with pytest.raises(SimulatedCrash):
                service.reconfigure(iid, new_text)
        finally:
            crashpoints.uninstall()
        key = f"script:{script_digest(new_text)}"
        journaled = [entry["type"] for entry in Journal(store).entries(iid)] == ["reconfig"]
        assert [store.exists(key), journaled] == [survives, survives]
        assert check_journal_integrity(store) == []
        assert check_store_agreement(store) == []
        node.recover()
        expected = "reconfigured" if survives else "seed"
        assert system.run_until_terminal(iid)["objects"]["out"]["value"] == expected

    def test_a_digest_naming_other_text_is_refused_before_anything_is_logged(
        self, monkeypatch, cold_compile_cache
    ):
        for module in (execution_mod, journal_mod):
            monkeypatch.setattr(module, "script_digest", lambda text: "0" * 32)
        system, iid, text, new_text = reconfigurable()
        store = system.execution_store
        logged = len(store.wal)
        with pytest.raises(ExecutionError, match="already names a different text"):
            system.execution.reconfigure(iid, new_text)
        assert len(store.wal) == logged
        assert store.get_committed("script:" + "0" * 32) == text
        assert Journal(store).entries(iid) == [] and not system.execution.journal.buffer
        # nothing was applied either: the instance runs the text it started with
        assert system.run_until_terminal(iid)["objects"]["out"]["value"] == "seed"

    def test_the_integrity_oracle_fires_when_a_reconfig_names_a_missing_text(self):
        """Seeded mutation: drop the text behind the store's back."""
        system, iid, _text, new_text = reconfigurable()
        store = system.execution_store
        system.execution.reconfigure(iid, new_text)
        assert check_journal_integrity(store) == []
        del store._committed[f"script:{script_digest(new_text)}"]
        (violation,) = check_journal_integrity(store)
        assert violation.oracle == "script-resolution" and violation.subject == iid
        assert "entry 0" in violation.detail

    def test_export_carries_the_text_and_import_interns_it(self):
        system, iid, _text, new_text = reconfigurable()
        system.execution.reconfigure(iid, new_text)
        snapshot = system.execution.export_instance(iid)
        assert snapshot["journal"][0]["script_text"] == new_text
        target = WorkflowSystem(workers=2, registry=system.registry)
        target.execution.import_instance(snapshot)
        store = target.execution_store
        assert store.get_committed(f"script:{script_digest(new_text)}") == new_text
        assert Journal(store).entries(iid) == snapshot["journal"]
        assert check_journal_integrity(store) == []
        assert target.run_until_terminal(iid)["objects"]["out"]["value"] == "reconfigured"


# -- segments: one stored value per instance per barrier ---------------------------------

SCRIPT = "script s { }"
STAMPS = st.tuples(FIELD_VALUES["epoch"], FIELD_VALUES["writer"])


@st.composite
def any_entry(draw):
    """An entry of any type of the table, or — now and then — one the table
    cannot spell, a field short (stored as the dict it is, and still one an
    import accepts)."""
    kind = draw(st.sampled_from(sorted(ENTRY_FIELDS)))
    entry = draw(entries_of(kind))
    if draw(st.integers(0, 5)) == 0:
        del entry[draw(st.sampled_from(ENTRY_FIELDS[kind]))]
    return entry


@st.composite
def barriers(draw, instances):
    """Interleaved barriers over ``instances`` instances: each a list of
    ``(instance index, entry)``, the entries stamped alike (as the service
    stamps a barrier's) unless drawn otherwise."""
    drawn = []
    for _ in range(draw(st.integers(1, 6))):
        epoch, writer = draw(STAMPS)
        shared = draw(st.booleans()) or draw(st.booleans())
        barrier = []
        for _ in range(draw(st.integers(1, 6))):
            entry = draw(any_entry())
            if shared and "epoch" in entry:
                entry.update(epoch=epoch, writer=writer)
            barrier.append((draw(st.integers(0, instances - 1)), entry))
        drawn.append(barrier)
    return drawn


class PlainStore:
    """What the WAL mirror's replay holds of ``store``: its committed
    objects through JSON, read the way ``Journal`` reads a store."""

    def __init__(self, store):
        self._committed = json.loads(json.dumps(store.snapshot()))

    def get_committed(self, key, default=None):
        return self._committed.get(key, default)

    def keys(self):
        return self._committed.keys()


def created(store, count):
    journal = Journal(store)
    return journal, [
        journal.create(script_digest(SCRIPT), SCRIPT, "root", "main", {})[0]
        for _ in range(count)
    ]


class TestSegmentRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), count=st.integers(1, 4))
    def test_interleaved_barriers_read_back_as_appended(self, data, count):
        store = ObjectStore("exec")
        journal, iids = created(store, count)
        appended = {iid: [] for iid in iids}
        for barrier in data.draw(barriers(count)):
            touched = set()
            for index, entry in barrier:
                journal.append(iids[index], entry)
                appended[iids[index]].append(copy.deepcopy(entry))
                touched.add(iids[index])
            written = len(store.wal)
            assert journal.commit() == len(barrier)
            # one record, one segment per instance the barrier touched
            (record,) = list(store.wal.all_records())[written:]
            assert sum(":journal:" in key for key in record.value) == len(touched)
        mirrored = Journal(PlainStore(store))
        for iid in iids:
            assert journal.entries(iid) == appended[iid]
            assert journal.length(iid) == len(appended[iid])
            assert [list(entry) for entry in journal.entries(iid)] == [
                list(entry) for entry in appended[iid]
            ]
            assert mirrored.entries(iid) == json.loads(json.dumps(appended[iid]))
            # export -> import: one segment, the same entries
            target = ObjectStore("target")
            Journal(target).adopt(journal.snapshot(iid), script_digest(SCRIPT))
            assert Journal(target).entries(iid) == appended[iid]
            assert journal_keys(target, iid) == ([0] if appended[iid] else [])

    def test_a_multi_entry_segment_shares_one_stamp_and_keeps_a_dict_row_behind_the_marker(self):
        store = ObjectStore("exec")
        journal, (iid,) = created(store, 1)
        stamp = {"epoch": 2, "writer": "execution"}
        results = [
            {"type": "external", "path": f"p{n}", "exec": 1, **stamp} for n in range(3)
        ]
        for entry in results:
            journal.append(iid, entry)
        journal.commit()
        assert store.get_committed(f"instance:{iid}:journal:0") == [
            2, "execution", ["external", "p0", 1], ["external", "p1", 1], ["external", "p2", 1],
        ]
        odd = {"type": "external", "path": "q", **stamp}  # no exec: stored as a dict
        journal.append(iid, results[0])
        journal.append(iid, odd)
        journal.commit()
        assert store.get_committed(f"instance:{iid}:journal:3") == [
            None, ["external", "p0", 1, 2, "execution"], odd,
        ]
        assert journal.entries(iid) == [*results, results[0], odd]

    def test_adopt_writes_one_segment_whatever_the_stamps(self):
        store = ObjectStore("exec")
        journal, (iid,) = created(store, 1)
        entries = [
            {"type": "external", "path": "a", "exec": 1, "epoch": 1, "writer": "execution-1"},
            {"type": "external", "path": "b", "exec": 1, "epoch": 2, "writer": "execution-2"},
            {"type": "external", "path": "c", "exec": 1, "epoch": 2, "writer": "execution-2"},
        ]
        for entry in entries:
            journal.append(iid, entry)
        journal.commit()
        snapshot = journal.snapshot(iid)
        target = ObjectStore("target")
        Journal(target).adopt(snapshot, script_digest(SCRIPT))
        assert journal_keys(target, iid) == [0]
        assert target.get_committed(f"instance:{iid}:journal:0")[0] is None  # mixed stamps
        assert Journal(target).entries(iid) == entries
        assert Journal(target).snapshot(iid) == snapshot
        assert check_journal_integrity(target) == []

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_a_store_holding_one_key_per_entry_reads_each_as_a_segment(self, data):
        """Per-entry keys — dicts, as logs before the positional form hold
        them, and positional rows, as logs before segments do — then
        segments on top: one journal."""
        store = ObjectStore("exec")
        journal, (iid,) = created(store, 1)
        old = data.draw(st.lists(any_entry(), min_size=1, max_size=6))
        scripts = {}
        rows = [
            entry if data.draw(st.booleans()) else encode_entry(entry, scripts)
            for entry in old
        ]
        store.commit_batch({
            **{f"script:{digest}": text for digest, text in scripts.items()},
            **{f"instance:{iid}:journal:{n}": row for n, row in enumerate(rows)},
            f"instance:{iid}:meta": {"journal_len": len(rows)},
        })
        new = []
        for barrier in data.draw(barriers(1)):
            for _index, entry in barrier:
                journal.append(iid, entry)
                new.append(copy.deepcopy(entry))
            journal.commit()
        assert journal.entries(iid) == old + new
        assert Journal(PlainStore(store)).entries(iid) == json.loads(json.dumps(old + new))
        assert journal.length(iid) == len(old + new)
