"""Unit tests for a compound's arcs (the figure structures) and the cycle
check over them."""

from repro.core import AddDependency, arcs, find_cycles, from_output, structure_summary
from repro.workloads import chain, diamond, paper_order, paper_trip


def edges(compound):
    """(producer, consumer) -> "notify" | "data", as the figures draw them."""
    return {
        (arc.source.task_name, arc.consumer): "notify" if arc.notify else "data"
        for arc in arcs(compound)
    }


class TestDiamond:
    def test_fig1_shape(self):
        script, _reg, root, _inputs = diamond()
        compound = script.tasks[root]
        drawn = edges(compound)
        assert {name for edge in drawn for name in edge} == {"fig1", "t1", "t2", "t3", "t4"}
        # t2 and t3 both depend on t1; t4 on both t2 and t3
        assert {("t1", "t2"), ("t1", "t3"), ("t2", "t4"), ("t3", "t4")} <= drawn.keys()

    def test_fig1_arc_flavours(self):
        script, _reg, root, _inputs = diamond()
        flavours = edges(script.tasks[root])
        assert flavours[("t1", "t2")] == "notify"   # dotted arc in Fig. 1
        assert flavours[("t1", "t3")] == "data"     # solid arc
        assert flavours[("t2", "t4")] == "data"
        assert flavours[("t3", "t4")] == "data"

    def test_fig1_acyclic(self):
        script, _reg, root, _inputs = diamond()
        assert find_cycles(script.tasks[root], script) == []


class TestOrderStructure:
    def test_fig7_summary(self):
        script = paper_order.build()
        summary = structure_summary(script.tasks[paper_order.ROOT_TASK])
        assert summary["tasks"] == 4
        assert summary["outputs"] == 2

    def test_fig7_acyclic(self):
        script = paper_order.build()
        assert find_cycles(script.tasks[paper_order.ROOT_TASK], script) == []

    def test_fig7_parallel_branches(self):
        script = paper_order.build()
        drawn = edges(script.tasks[paper_order.ROOT_TASK])
        # no edge between the two parallel front tasks
        assert ("paymentAuthorisation", "checkStock") not in drawn
        assert ("checkStock", "paymentAuthorisation") not in drawn
        assert ("paymentAuthorisation", "dispatch") in drawn
        assert ("checkStock", "dispatch") in drawn
        assert ("dispatch", "paymentCapture") in drawn


class TestTripStructure:
    def test_fig8_top_level(self):
        script = paper_trip.build()
        trip = script.tasks[paper_trip.ROOT_TASK]
        assert {t.name for t in trip.tasks} == {"businessReservation", "printTickets"}

    def test_fig9_business_reservation_constituents(self):
        script = paper_trip.build()
        trip = script.tasks[paper_trip.ROOT_TASK]
        br = trip.task("businessReservation")
        assert {t.name for t in br.tasks} == {
            "dataAcquisition",
            "checkFlightReservation",
            "flightReservation",
            "hotelReservation",
            "flightCancellation",
        }

    def test_repeat_loop_not_reported_as_cycle(self):
        script = paper_trip.build()
        trip = script.tasks[paper_trip.ROOT_TASK]
        br = trip.task("businessReservation")
        assert find_cycles(br, script) == []

    def test_compensation_edge_present(self):
        script = paper_trip.build()
        br = script.tasks[paper_trip.ROOT_TASK].task("businessReservation")
        drawn = edges(br)
        assert ("hotelReservation", "flightCancellation") in drawn
        assert ("flightReservation", "flightCancellation") in drawn


class TestArcs:
    def test_input_sets_in_declaration_order_then_the_output_mapping(self):
        script, _reg, root, _inputs = diamond()
        walked = [
            (arc.source.task_name, arc.consumer, arc.notify, arc.via)
            for arc in arcs(script.tasks[root])
        ]
        assert walked == [
            ("fig1", "t1", True, "main"),
            ("t1", "t2", True, "main"),
            ("t1", "t3", False, "main"),
            ("t2", "t4", False, "main"),
            ("t3", "t4", False, "main"),
            ("t4", "fig1", False, "done"),  # the output mapping, at the compound's name
        ]


class TestFindCycles:
    def test_a_chain_closed_by_a_back_arc_is_one_group(self):
        script, _reg, root, _inputs = chain(3000)
        back = AddDependency(f"{root}/t1", "main", None, (from_output("t3000", "done"),))
        compound = back.apply(script).tasks[root]
        assert find_cycles(compound, script) == [[f"t{i}" for i in range(1, 3001)]]
