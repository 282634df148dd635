"""F9 — Fig. 9 / §5.3: the businessReservation compound.

Regenerates the inner structure: DA feeding CFR (itself a compound of three
parallel airline queries), FR with its costKnown mark, HR's repeat-based
retries, and the compensating FC.  Sweeps hotel-booking difficulty and checks
the compensation accounting.
"""

from repro.core import arcs
from repro.core.selection import EventKind
from repro.engine import LocalEngine
from repro.workloads import paper_trip

from .conftest import report

BR = "tripReservation/businessReservation"


def test_fig9_structure(benchmark):
    script = paper_trip.build()
    br = script.tasks[paper_trip.ROOT_TASK].task("businessReservation")
    benchmark(lambda: list(arcs(br)))
    assert {t.name for t in br.tasks} == {
        "dataAcquisition",
        "checkFlightReservation",
        "flightReservation",
        "hotelReservation",
        "flightCancellation",
    }
    cfr = br.task("checkFlightReservation")
    assert cfr.is_compound and len(cfr.tasks) == 3
    drawn = {(arc.source.task_name, arc.consumer) for arc in arcs(br)}
    assert ("dataAcquisition", "checkFlightReservation") in drawn
    assert ("checkFlightReservation", "flightReservation") in drawn
    assert ("flightReservation", "hotelReservation") in drawn
    assert ("hotelReservation", "flightCancellation") in drawn


def test_fig9_alternative_quote_selection(benchmark):
    """First-listed available airline wins (not the cheapest)."""
    script = paper_trip.build()

    def run(quotes):
        registry = paper_trip.default_registry(airline_quotes=quotes)
        return LocalEngine(registry).run(script, inputs={"user": "u"})

    rows = []
    for quotes, expected in [
        ((300.0, 420.0, 380.0), 300.0),
        ((None, 420.0, 380.0), 420.0),
        ((None, None, 380.0), 380.0),
    ]:
        result = run(quotes)
        cost = result.marks[0][1]["cost"].value
        assert cost == expected
        rows.append((quotes, cost))
    report("F9: first-available airline quote", ["quotes", "chosen cost"], rows)

    benchmark(lambda: run((None, 420.0, 380.0)))


def test_fig9_hotel_difficulty_sweep(benchmark):
    """Hotel retries rise with difficulty until the round fails, triggering
    FC compensation and a BR loop."""
    script = paper_trip.build()

    def run(attempts_needed, max_tries):
        registry = paper_trip.default_registry(
            hotel_attempts_needed=attempts_needed, hotel_max_tries=max_tries
        )
        return LocalEngine(registry).run(script, inputs={"user": "u"})

    rows = []
    for needed in (0, 1, 2):
        result = run(needed, 4)
        assert result.outcome == "tripArranged"
        hr_repeats = sum(
            1
            for e in result.log.for_task(f"{BR}/hotelReservation")
            if e.event.kind is EventKind.REPEAT
        )
        assert hr_repeats == needed
        rows.append((needed, 4, hr_repeats, result.outcome))
    report(
        "F9: hotel retries sweep",
        ["attempts needed", "max tries", "HR repeats", "outcome"],
        rows,
    )

    benchmark(lambda: run(1, 4))


def test_fig9_compensation_accounting(benchmark):
    """Every failed round reserves a flight and must cancel exactly it."""
    script = paper_trip.build()

    def run(failed_rounds):
        registry = paper_trip.default_registry(
            hotel_rounds_until_success=failed_rounds + 1,
            hotel_attempts_needed=0,
            hotel_max_tries=2,
        )
        return LocalEngine(registry).run(script, inputs={"user": "u"})

    rows = []
    for failed_rounds in (0, 1, 2):
        result = run(failed_rounds)
        assert result.outcome == "tripArranged"
        cancellations = sum(
            1
            for e in result.log.entries
            if e.producer_path == f"{BR}/flightCancellation"
            and e.event.kind is EventKind.OUTCOME
        )
        assert cancellations == failed_rounds
        rows.append((failed_rounds, cancellations))
    report(
        "F9: compensation accounting",
        ["failed rounds", "flight cancellations"],
        rows,
    )

    benchmark(lambda: run(1))
