"""Unit tests for plain-data serialization of durable workflow state."""

from repro.core.schema import OutputKind, TaskClass
from repro.core.values import ObjectRef
from repro.engine.context import TaskResult
from repro.services import (
    ref_from_plain,
    ref_to_plain,
    refs_from_plain,
    refs_to_plain,
    result_from_plain,
    result_to_plain,
)
from repro.workloads import paper_trip


class TestRefs:
    def test_ref_roundtrip(self):
        ref = ObjectRef("Order", {"id": 7}, "wf/task", "done")
        assert ref_from_plain(ref_to_plain(ref)) == ref

    def test_ref_without_provenance(self):
        ref = ObjectRef("Order", "x")
        assert ref_from_plain(ref_to_plain(ref)) == ref

    def test_refs_map_roundtrip(self):
        refs = {"a": ObjectRef("A", 1), "b": ObjectRef("B", [1, 2])}
        assert refs_from_plain(refs_to_plain(refs)) == refs


class TestResults:
    def test_result_roundtrip_plain_values(self):
        result = TaskResult(OutputKind.OUTCOME, "done", {"out": "value"})
        back = result_from_plain(result_to_plain(result))
        assert back.kind is OutputKind.OUTCOME
        assert back.name == "done"
        assert back.objects == {"out": "value"}

    def test_result_roundtrip_ref_values(self):
        ref = ObjectRef("Data", 42, "p", "done")
        result = TaskResult(OutputKind.REPEAT, "again", {"carry": ref})
        back = result_from_plain(result_to_plain(result))
        assert back.objects["carry"] == ref

    def test_every_output_kind_roundtrips(self):
        for kind in OutputKind:
            result = TaskResult(kind, "name", {})
            assert result_from_plain(result_to_plain(result)).kind is kind


class TestTaskClasses:
    def test_simple_taskclass_roundtrip(self):
        script = paper_trip.build()
        for taskclass in script.taskclasses.values():
            back = TaskClass.from_wire(taskclass.wire)
            assert back == taskclass

    def test_roundtrip_preserves_atomicity(self):
        script = paper_trip.build()
        br = script.taskclasses["BusinessReservation"]
        assert TaskClass.from_wire(br.wire).is_atomic
