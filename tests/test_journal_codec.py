"""The journal's stored form: ``[code, *fields]``, read back as the dict
that was appended (docs/PROTOCOLS.md §4.1).

``repro.services.journal`` stores every entry positionally — its code in the
``CODES`` table (one per entry type, and per output kind of a ``result``),
then its fields in the order of ``ENTRY_FIELDS``, a path below the
instance's root task, a ref without the ``produced_by`` / ``via`` its row
already says — and decodes it back on every read.  These tests pin what
that rests on:

* **Round trip.**  For every code, ``decode(encode(e)) == e`` — also after
  the JSON round trip the WAL mirror puts a row through — including paths at
  the root and three or more levels below it, plain outputs that are lists,
  dicts, dicts holding a ``"__ref__"`` key and ``None``, and refs whose
  ``produced_by`` / ``via`` equal the row's path and name or differ from
  them.  An entry the table cannot spell — a path not under the root, a ref
  missing a field — is refused: the service journals none.
* **What the service journals.**  Every entry the paper's three
  applications append reads back from ``Journal.entries`` equal to the dict
  appended, key order included, on the primary and on a standby.
* **Outside input is checked.**  ``Journal.adopt`` refuses a snapshot with
  an entry of an unknown type or field, or one missing a field, before
  anything is logged.
* **A reconfiguration names its text by digest.**  The text is stored once
  per version, in the record of the first entry that names it, and a digest
  that names other text is refused before anything is applied or logged.
* **One segment per instance per barrier.**  Over interleaved barriers on
  one to four instances, every entry type, stamps that change mid-journal
  (a promotion) and crashes between barriers, ``Journal.entries`` reads back
  exactly what was appended, also through JSON and through export and
  import; a row spells its ``epoch, writer`` only where they change, and
  ``meta`` is written only for an instance a barrier leaves terminal.  A
  store already holding one row per key reads on.
* **The spec is positional.**  ``instance:<iid>:spec`` is ``[digest,
  root_task, input_set, inputs]`` and ``Journal.spec`` reads it as the dict,
  through export and import and through a crash and its recovery.
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
from repro.services.journal import (
    CODES, ENTRY_FIELDS, Journal, Tail, decode_entry, encode_entry, script_digest, segment_rows,
)
from repro.sim import crashpoints
from repro.sim.crashpoints import ArmedCrash, CrashPointInjector, SimulatedCrash
from repro.sim.oracles import check_journal_integrity, check_store_agreement
from repro.txn.store import ObjectStore
from repro.workloads import APPLICATIONS, chain, paper_order, script_text

from tests.test_journal_layout import journal_keys

PROTOCOL_TYPES = {
    "result", "failure", "mark", "external", "reconfig", "force_abort", "deadline", "overloaded",
}
OUTPUT_KINDS = ("OUTCOME", "ABORT", "REPEAT", "MARK")
ROOT = "pipeline"
EXTERNAL = CODES.index(("external", None))


def round_trip(entry, root=ROOT):
    scripts = {}
    row = encode_entry(entry, scripts, root)
    return row, decode_entry(row, scripts.get, root), scripts


def fresh_tail(root=ROOT):
    """The tail of an instance under ``root`` with an empty journal."""
    return Tail.after(root, [])


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
# the root itself, or one to four levels below it (a level may hold "/")
paths = st.lists(st.text(min_size=1, max_size=4), max_size=4).map(
    lambda levels: "/".join([ROOT, *levels])
)


@st.composite
def refs(draw, path, name):
    """A reference as ``ref_to_plain`` writes it, in a row of ``path`` and
    output or mark ``name``: its ``produced_by`` and ``via`` each that
    row's, another's or ``None``."""
    ref = {"class": draw(st.text(max_size=5)), "value": draw(values)}
    ref["produced_by"] = draw(st.sampled_from([path, None]) | paths | st.text(max_size=5))
    ref["via"] = draw(st.sampled_from([name, None]) | names)
    return ref


def object_maps(path, name, tagged):
    """A ``result``'s object map (``tagged``: plain values and tagged refs)
    or a ``mark``'s (untagged refs)."""
    ref = refs(path, name)
    if tagged:
        ref = values.map(lambda value: {"__ref__": False, "value": value}) | ref.map(
            lambda item: {"__ref__": True, **item}
        )
    return st.dictionaries(names, ref, max_size=3)


FIELD_VALUES = {
    "path": paths,
    "exec": st.integers(0, 99),
    "error": st.text(max_size=12),
    "name": st.none() | names,
    "script_text": st.text(min_size=1, max_size=40),
    "expires_at": st.floats(0, 1e6),
    "reason": st.text(max_size=12),
    "criticality": st.integers(0, 3) | st.text(max_size=6),
    "epoch": st.integers(0, 9),
    "writer": st.sampled_from(["execution", "execution-1"]),
}


@st.composite
def entries_of(draw, kind, output=None):
    """An entry of ``kind`` (a ``result`` of the output kind ``output``, or
    of any), keys in the order the service builds them."""
    entry = {"type": kind}
    for field in ENTRY_FIELDS[kind]:
        if field == "result":
            name = draw(names)
            entry["result"] = {
                "kind": output or draw(st.sampled_from(OUTPUT_KINDS)), "name": name,
                "objects": draw(object_maps(entry["path"], name, tagged=True)),
            }
        elif field == "objects":
            entry["objects"] = draw(object_maps(entry["path"], entry["name"], tagged=False))
        else:
            entry[field] = draw(FIELD_VALUES[field])
    return entry


class TestRoundTrip:
    def test_the_table_covers_every_entry_type_of_the_protocol(self):
        assert set(ENTRY_FIELDS) == PROTOCOL_TYPES
        assert all(fields[-2:] == ("epoch", "writer") for fields in ENTRY_FIELDS.values())

    def test_the_code_table_is_pinned(self):
        """A stored row's code is its position here: reordering the table,
        or ``OutputKind``, would misread every stored journal."""
        assert CODES == (
            ("result", "OUTCOME"), ("result", "ABORT"), ("result", "REPEAT"), ("result", "MARK"),
            ("failure", None), ("mark", None), ("external", None), ("reconfig", None),
            ("force_abort", None), ("deadline", None), ("overloaded", None),
        )

    @pytest.mark.parametrize("kind", sorted(PROTOCOL_TYPES))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_decode_of_encode_is_the_entry(self, kind, data):
        self.check_round_trip(data.draw(entries_of(kind)))

    @pytest.mark.parametrize("output", OUTPUT_KINDS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_each_result_kind_round_trips_under_its_own_code(self, output, data):
        self.check_round_trip(data.draw(entries_of("result", output)))

    @staticmethod
    def check_round_trip(entry):
        kind = entry["type"]
        output = entry["result"]["kind"] if kind == "result" else None
        appended = copy.deepcopy(entry)
        row, decoded, scripts = round_trip(entry)
        assert entry == appended  # encoding leaves the appended entry alone
        assert isinstance(row, list) and CODES[row[0]] == (kind, output)
        # a result's {kind, name, objects} stands as name and objects
        assert len(row) == len(entry) + (kind == "result")
        assert decoded == entry and list(decoded) == list(entry)
        # the mirror stores the row as JSON; its replay decodes the same
        mirrored = json.loads(json.dumps(row))
        assert decode_entry(mirrored, scripts.get, ROOT) == json.loads(json.dumps(entry))
        if "path" in entry:
            below = row[1]
            assert ("/".join(filter(None, [ROOT, below]))) == entry["path"]
        if kind in ("result", "mark"):
            name = entry["result"]["name"] if kind == "result" else entry["name"]
            given = entry["result"]["objects"] if kind == "result" else entry["objects"]
            for key, item in row[4].items():
                if isinstance(item, dict):
                    full = given[key]
                    assert ("produced_by" in item) == (full["produced_by"] != entry["path"])
                    assert ("via" in item) == (full["via"] != name)
        if kind == "reconfig":
            assert row[1] == script_digest(entry["script_text"])
            assert scripts == {row[1]: entry["script_text"]}
        else:
            assert scripts == {}

    @pytest.mark.parametrize("path, below", [
        (ROOT, ""), (f"{ROOT}/a", "a"), (f"{ROOT}/a/b/c", "a/b/c"), (f"{ROOT}/a/b/c/d", "a/b/c/d"),
    ])
    def test_a_path_is_stored_below_the_root(self, path, below):
        entry = {"type": "external", "path": path, "exec": 1, "epoch": 1, "writer": "w"}
        row, decoded, _scripts = round_trip(entry)
        assert row == [EXTERNAL, below, 1, 1, "w"]
        assert decoded == entry

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_a_path_not_under_the_root_is_refused(self, data):
        kind = data.draw(st.sampled_from(
            sorted(kind for kind, fields in ENTRY_FIELDS.items() if "path" in fields)
        ))
        entry = data.draw(entries_of(kind))
        entry["path"] = data.draw(
            st.sampled_from([f"{ROOT}/", f"{ROOT}x/a", "other", "", f"x/{ROOT}", None, 3])
            | st.text(max_size=12).filter(lambda text: text != ROOT and not text.startswith(ROOT + "/"))
        )
        scripts = {}
        with pytest.raises(ExecutionError, match="cannot spell"):
            encode_entry(entry, scripts, ROOT)
        assert scripts == {}

    def test_object_map_stores_plain_values_wrapped_and_refs_untagged(self):
        path = f"{ROOT}/t8"
        entry = {
            "type": "result", "path": path, "exec": 1,
            "result": {"kind": "ABORT", "name": "done", "objects": {
                "list": {"__ref__": False, "value": [1, 2]},
                "none": {"__ref__": False, "value": None},
                "tagged": {"__ref__": False, "value": {"__ref__": True, "class": "C"}},
                "own": {"__ref__": True, "class": "C", "value": 3,
                        "produced_by": path, "via": "done"},
                "passed": {"__ref__": True, "class": "C", "value": 4,
                           "produced_by": f"{ROOT}/t7", "via": "out"},
                "unknown": {"__ref__": True, "class": "C", "value": 5,
                            "produced_by": None, "via": None},
            }},
            "epoch": 2, "writer": "execution",
        }
        row, decoded, _scripts = round_trip(entry)
        assert row == [
            CODES.index(("result", "ABORT")), "t8", 1, "done", {
                "list": [[1, 2]], "none": [None],
                "tagged": [{"__ref__": True, "class": "C"}],
                "own": {"class": "C", "value": 3},
                "passed": {"class": "C", "value": 4, "produced_by": f"{ROOT}/t7", "via": "out"},
                "unknown": {"class": "C", "value": 5, "produced_by": None, "via": None},
            },
            2, "execution",
        ]
        assert decoded == entry
        assert [list(item) for item in decoded["result"]["objects"].values()][3:] == [
            ["__ref__", "class", "value", "produced_by", "via"],
        ] * 3

    def test_a_mark_row_drops_what_its_path_and_name_say(self):
        path = f"{ROOT}/a/b/c"
        entry = {
            "type": "mark", "path": path, "exec": 2, "name": "costKnown", "objects": {
                "cost": {"class": "Cost", "value": 420.0, "produced_by": path, "via": "costKnown"},
                "seat": {"class": "Seat", "value": "1A", "produced_by": path, "via": "other"},
            },
            "epoch": 1, "writer": "execution",
        }
        row, decoded, _scripts = round_trip(entry)
        assert row == [
            CODES.index(("mark", None)), "a/b/c", 2, "costKnown", {
                "cost": {"class": "Cost", "value": 420.0},
                "seat": {"class": "Seat", "value": "1A", "via": "other"},
            },
            1, "execution",
        ]
        assert decoded == entry

    @pytest.mark.parametrize(
        "entry",
        [
            {"type": "force_abort", "path": "p", "epoch": 1, "writer": "w"},  # no name
            {"type": "external", "path": "q/t", "exec": 1, "epoch": 1, "writer": "w"},
            {"type": "external", "path": "p/", "exec": 1, "epoch": 1, "writer": "w"},
            {"type": "external", "path": "pp/t", "exec": 1, "epoch": 1, "writer": "w"},
            {"type": "result", "path": "p", "exec": 1, "epoch": 1, "writer": "w",
             "result": {"kind": "FINAL", "name": "d", "objects": {}}},
            {"type": "result", "path": "p", "exec": 1, "epoch": 1, "writer": "w",
             "result": {"kind": "OUTCOME", "name": "d", "objects": {
                 "o": {"__ref__": True, "class": "C", "value": 1, "via": "d"}}}},
            {"type": "mark", "path": "p", "exec": 1, "name": "m", "epoch": 1, "writer": "w",
             "objects": {"o": {"class": "C", "value": 1, "produced_by": "p", "via": "m", "x": 0}}},
            {"type": "mark", "path": "p", "exec": 1, "name": "m", "epoch": 1, "writer": "w",
             "objects": {"o": {"class": "C", "produced_by": "p", "via": "m", "x": 0}}},
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
        ids=["field-missing", "path-not-under-the-root", "path-the-root-and-a-slash",
             "path-sharing-the-roots-prefix", "unknown-output-kind", "ref-without-produced-by",
             "mark-ref-key-extra", "mark-ref-value-missing",
             "unstamped", "field-extra", "unknown-type",
             "object-untagged", "tag-not-a-bool", "object-not-a-dict",
             "plain-object-key-extra", "plain-object-value-missing"],
    )
    def test_an_entry_the_table_cannot_spell_is_stored_as_itself(self, entry):
        """Such an entry is refused and nothing is interned (it was stored as
        the dict it was while the codec kept dict rows)."""
        scripts = {}
        with pytest.raises(ExecutionError, match="cannot spell"):
            encode_entry(entry, scripts, "p")
        assert scripts == {}


# -- what the service journals ---------------------------------------------------------


def record_appends(monkeypatch):
    """Every entry a service appends, as it stood when appended, by instance."""
    appended = {}
    append = Journal.append

    def recording(self, iid, entry, tail):
        appended.setdefault(iid, []).append(copy.deepcopy(entry))
        append(self, iid, entry, tail)

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
        lambda entry: entry.__delitem__("writer"),
    ],
    ids=["unknown-type", "unknown-field", "missing-field"],
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
    return [record for record in store.wal.durable_records() if key in (record.value or ())]


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
        reconfigs = [row for row in rows if CODES[row[0]] == ("reconfig", None)]
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
        added = list(store.wal.durable_records())[logged:]
        assert [key for record in added for key in record.value if key.startswith("script:")] == []
        assert Journal(store).entries(iid)[-1]["script_text"] == text

    @pytest.mark.parametrize(
        "point, mode, survives",
        [
            ("wal.force.pre", "clean", False),
            ("wal.force.pre", "torn", False),
            ("exec.admin.dispatch.forced", "clean", True),
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
        assert [key in store.keys(), journaled] == [survives, survives]
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
        assert Journal(store).entries(iid) == [] and not system.execution.journal.rows
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
    """An entry of any type of the table."""
    return draw(entries_of(draw(st.sampled_from(sorted(ENTRY_FIELDS)))))


@st.composite
def barriers(draw, instances):
    """Interleaved barriers over ``instances`` instances: each a list of
    ``(instance index, entry)``, the entries stamped alike (as the service
    stamps a barrier's) unless drawn otherwise, so that a stamp changes
    between barriers (a promotion) and, now and then, within one."""
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
        journal.create(script_digest(SCRIPT), SCRIPT, ROOT, "main", {})[0]
        for _ in range(count)
    ]


def stamps_spelled(store, iid):
    """How many of ``iid``'s stored rows spell their ``epoch, writer``: a
    row of all its entry's fields (a ``result``'s stands as two) and its
    code."""
    spelled = 0
    for n in journal_keys(store, iid):
        for row in segment_rows(store.get_committed(f"instance:{iid}:journal:{n}")):
            kind = CODES[row[0]][0]
            spelled += len(row) == len(ENTRY_FIELDS[kind]) + 1 + (kind == "result")
    return spelled


def stamp_changes(entries):
    """Where a row must spell its stamp: the first entry, and each entry
    whose ``(epoch, writer)`` differs from the one before it."""
    before, changes = None, 0
    for entry in entries:
        stamp = (entry["epoch"], entry["writer"])
        changes += stamp != before
        before = stamp
    return changes


class TestSegmentRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), count=st.integers(1, 4))
    def test_interleaved_barriers_read_back_as_appended(self, data, count):
        """Each barrier is one record holding one segment per instance it
        touched, and ``meta`` only for those it ends; between barriers the
        store may crash, losing what was buffered, and the tails are then
        rebuilt from the durable journal, as a recovery does."""
        store = ObjectStore("exec")
        journal, iids = created(store, count)
        tails = {iid: fresh_tail() for iid in iids}
        appended = {iid: [] for iid in iids}
        for barrier in data.draw(barriers(count)):
            touched, ending = set(), set()
            for index, entry in barrier:
                iid = iids[index]
                if data.draw(st.integers(0, 4)) == 0:
                    tails[iid].ended = True  # the owner saw it end
                journal.append(iid, entry, tails[iid])
                appended[iid].append(copy.deepcopy(entry))
                touched.add(iid)
                if tails[iid].ended:
                    ending.add(iid)
            if data.draw(st.integers(0, 5)) == 0:
                # a crash before the barrier: the buffer is lost with the
                # entries it held, and every tail is rebuilt from the store
                # (an instance that ended stays ended: its owner replays it
                # to a terminal tree)
                store.crash()
                journal = Journal(store)
                for index, _entry in barrier:
                    appended[iids[index]].pop()
                for iid in iids:
                    tails[iid] = Tail.after(ROOT, journal.entries(iid))
                    tails[iid].ended = journal.ended(iid)
                continue
            closed = {iid for iid in ending if data.draw(st.booleans())}
            written = len(store.wal)
            assert journal.commit(closed) == len(barrier)
            (record,) = list(store.wal.durable_records())[written:]
            assert sum(":journal:" in key for key in record.value) == len(touched)
            assert {key.split(":")[1] for key in record.value if key.endswith(":meta")} == ending
            for iid in ending:
                assert journal.length(iid) == len(appended[iid]) and journal.ended(iid)
                assert journal.closed(iid) == (iid in closed)
        mirrored = Journal(PlainStore(store))
        for iid in iids:
            assert journal.entries(iid) == appended[iid]
            assert [list(entry) for entry in journal.entries(iid)] == [
                list(entry) for entry in appended[iid]
            ]
            assert mirrored.entries(iid) == json.loads(json.dumps(appended[iid]))
            assert journal.length(iid) <= len(appended[iid])
            # a row spells its stamp exactly where it changes
            assert stamps_spelled(store, iid) == stamp_changes(appended[iid])
            # export -> import: one segment, the same entries
            target = ObjectStore("target")
            Journal(target).adopt(journal.snapshot(iid), script_digest(SCRIPT))
            assert Journal(target).entries(iid) == appended[iid]
            assert Journal(target).length(iid) == len(appended[iid])
            assert journal_keys(target, iid) == ([0] if appended[iid] else [])
        # (drawn entries may repeat one another: exactly-once is not asked)
        assert [
            violation for violation in check_journal_integrity(store)
            if violation.oracle == "journal-contiguity"
        ] == []

    def test_a_multi_entry_segment_shares_one_stamp_and_keeps_a_changed_one_on_its_row(self):
        store = ObjectStore("exec")
        journal, (iid,) = created(store, 1)
        tail = fresh_tail()
        stamp = {"epoch": 2, "writer": "execution"}
        results = [
            {"type": "external", "path": f"{ROOT}/p{n}", "exec": 1, **stamp} for n in range(3)
        ]
        for entry in results:
            journal.append(iid, entry, tail)
        journal.commit()
        assert store.get_committed(f"instance:{iid}:journal:0") == [
            [EXTERNAL, "p0", 1, 2, "execution"], [EXTERNAL, "p1", 1], [EXTERNAL, "p2", 1],
        ]
        odd = {"type": "external", "path": f"{ROOT}/q", "exec": 1, "epoch": 3, "writer": "execution"}
        journal.append(iid, results[0], tail)
        journal.append(iid, odd, tail)
        journal.commit()
        # the stamp carries across segments: only the promotion spells one
        assert store.get_committed(f"instance:{iid}:journal:3") == [
            [EXTERNAL, "p0", 1], [EXTERNAL, "q", 1, 3, "execution"],
        ]
        journal.append(iid, {**odd, "path": ROOT}, tail)
        journal.commit()
        assert store.get_committed(f"instance:{iid}:journal:5") == [EXTERNAL, "", 1]
        assert journal.entries(iid) == [*results, results[0], odd, {**odd, "path": ROOT}]
        # no barrier ended it: meta is still what its birth wrote
        assert store.get_committed(f"instance:{iid}:meta") == {"journal_len": 0}

    def test_adopt_writes_one_segment_whatever_the_stamps(self):
        store = ObjectStore("exec")
        journal, (iid,) = created(store, 1)
        entries = [
            {"type": "external", "path": f"{ROOT}/a", "exec": 1, "epoch": 1, "writer": "execution-1"},
            {"type": "external", "path": f"{ROOT}/b", "exec": 1, "epoch": 2, "writer": "execution-2"},
            {"type": "external", "path": f"{ROOT}/c", "exec": 1, "epoch": 2, "writer": "execution-2"},
        ]
        tail = fresh_tail()
        for entry in entries:
            journal.append(iid, entry, tail)
        journal.commit()
        snapshot = journal.snapshot(iid)
        target = ObjectStore("target")
        Journal(target).adopt(snapshot, script_digest(SCRIPT))
        assert journal_keys(target, iid) == [0]
        assert target.get_committed(f"instance:{iid}:journal:0") == [
            [EXTERNAL, "a", 1, 1, "execution-1"],
            [EXTERNAL, "b", 1, 2, "execution-2"],
            [EXTERNAL, "c", 1],
        ]
        assert Journal(target).entries(iid) == entries
        assert Journal(target).snapshot(iid) == snapshot
        assert check_journal_integrity(target) == []

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_a_store_holding_one_key_per_entry_reads_each_as_a_segment(self, data):
        """Per-entry keys — positional rows, each spelling its stamp, as
        logs before segments hold them — then segments on top: one
        journal."""
        store = ObjectStore("exec")
        journal, (iid,) = created(store, 1)
        old = data.draw(st.lists(any_entry(), min_size=1, max_size=6))
        scripts = {}
        rows = [encode_entry(entry, scripts, ROOT) for entry in old]
        store.commit_batch({
            **{f"script:{digest}": text for digest, text in scripts.items()},
            **{f"instance:{iid}:journal:{n}": row for n, row in enumerate(rows)},
            f"instance:{iid}:meta": {"journal_len": len(rows)},
        })
        tail = Tail.after(ROOT, journal.entries(iid))
        tail.ended = True
        new = []
        for barrier in data.draw(barriers(1)):
            for _index, entry in barrier:
                journal.append(iid, entry, tail)
                new.append(copy.deepcopy(entry))
            journal.commit()
        assert journal.entries(iid) == old + new
        assert Journal(PlainStore(store)).entries(iid) == json.loads(json.dumps(old + new))
        assert journal.length(iid) == len(old + new)


# -- the spec is positional ----------------------------------------------------------------


class TestPositionalSpec:
    def test_create_stores_a_list_and_spec_reads_the_dict(self):
        store = ObjectStore("exec")
        journal = Journal(store)
        iid, spec = journal.create(script_digest(SCRIPT), SCRIPT, ROOT, "main", {"k": [1]})
        assert store.get_committed(f"instance:{iid}:spec") == [
            script_digest(SCRIPT), ROOT, "main", {"k": [1]},
        ]
        assert spec == journal.spec(iid) == {
            "script": script_digest(SCRIPT), "root_task": ROOT, "input_set": "main",
            "inputs": {"k": [1]},
        }
        assert list(journal.spec(iid)) == ["script", "root_task", "input_set", "inputs"]
        assert journal.spec("wf-99") is None and journal.entries("wf-99") == []

    def test_the_spec_crosses_export_and_import(self):
        store = ObjectStore("exec")
        journal = Journal(store)
        iid, spec = journal.create(script_digest(SCRIPT), SCRIPT, ROOT, "side", {"k": 1})
        journal.append(iid, {"type": "external", "path": f"{ROOT}/a/b/c", "exec": 1,
                             "epoch": 1, "writer": "execution"}, fresh_tail())
        journal.commit()
        target = ObjectStore("target")
        Journal(target).adopt(journal.snapshot(iid), script_digest(SCRIPT))
        assert target.get_committed(f"instance:{iid}:spec") == store.get_committed(
            f"instance:{iid}:spec"
        )
        assert Journal(target).spec(iid) == spec
        assert Journal(target).entries(iid) == journal.entries(iid)
        assert target.get_committed(f"instance:{iid}:journal:0") == [
            EXTERNAL, "a/b/c", 1, 1, "execution",
        ]

    def test_the_spec_survives_a_crash_and_recovery(self):
        workload = chain(3)
        _script, registry, root, inputs = workload
        system = WorkflowSystem(workers=2, registry=registry)
        system.deploy("chain", script_text(workload))
        iid = system.instantiate("chain", root, inputs)
        store = system.execution_store
        spec = Journal(store).spec(iid)
        assert spec["root_task"] == root and spec["inputs"] == inputs
        system.execution_node.crash()
        system.execution_node.recover()
        assert Journal(store).spec(iid) == spec
        assert system.run_until_terminal(iid)["status"] == "completed"
        assert [entry["path"].split("/")[0] for entry in Journal(store).entries(iid)] == [root] * 3
        assert check_journal_integrity(store) == []


class TestRefusalBeforeBuffering:
    def test_a_refused_append_leaves_the_buffered_entries_to_commit(self):
        store = ObjectStore("exec")
        journal, (first, second) = created(store, 2)
        buffered = {"type": "external", "path": f"{ROOT}/a", "exec": 1,
                    "epoch": 1, "writer": "execution"}
        journal.append(first, buffered, fresh_tail())
        refused = dict(buffered, path=f"/{ROOT}/a")
        with pytest.raises(ExecutionError, match="cannot spell"):
            journal.append(second, refused, fresh_tail())
        assert [(iid, len(rows)) for iid, rows in journal.rows.items()] == [(first, 1)]
        assert journal.commit() == 1
        assert journal.entries(first) == [buffered] and journal.entries(second) == []

    @pytest.mark.parametrize("spelled", ["/wf/approve", "wf/approve/", "wf//approve"])
    def test_force_abort_journals_the_nodes_own_path(self, spelled):
        from tests.test_replication import parked_instance, parked_system

        system = parked_system(replicas=0)
        iid = parked_instance(system)
        service = system.execution
        assert service.force_abort(iid, spelled) is True
        (entry,) = [entry for entry in service.journal.entries(iid) if entry["type"] == "force_abort"]
        assert entry["path"] == "wf/approve"
        system.execution_node.crash()
        system.execution_node.recover()
        result = system.run_until_terminal(iid)
        assert (result["status"], result["outcome"]) == ("completed", "withdrawn")
        assert check_journal_integrity(system.execution_store) == []
