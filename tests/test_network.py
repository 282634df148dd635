"""Unit tests for the simulated network."""

import pytest

from repro.net.clock import EventClock, SimulationError
from repro.net.network import LatencyModel, Message, Network


def make(loss=0.0, jitter=0.0, seed=0):
    clock = EventClock()
    return clock, Network(clock, LatencyModel(1.0, jitter), loss, seed)


class TestDelivery:
    def test_message_delivered_to_receiver(self):
        clock, net = make()
        got = []
        net.attach("b", got.append)
        net.send("a", "b", "hello")
        clock.run()
        assert len(got) == 1
        assert got[0].payload == "hello"
        assert got[0].source == "a"

    def test_latency_applied(self):
        clock, net = make()
        times = []
        net.attach("b", lambda m: times.append(clock.now))
        net.send("a", "b", "x")
        clock.run()
        assert times == [1.0]

    def test_jitter_within_bounds(self):
        clock, net = make(jitter=2.0, seed=42)
        times = []
        net.attach("b", lambda m: times.append(clock.now - m.sent_at))
        for _ in range(50):
            net.send("a", "b", "x")
        clock.run()
        assert all(1.0 <= t <= 3.0 for t in times)

    def test_message_to_unattached_endpoint_dropped(self):
        clock, net = make()
        net.send("a", "ghost", "x")
        clock.run()
        assert net.stats.dropped_dead == 1

    def test_detached_receiver_loses_in_flight_message(self):
        clock, net = make()
        got = []
        net.attach("b", got.append)
        net.send("a", "b", "x")
        net.detach("b")
        clock.run()
        assert got == []
        assert net.stats.dropped_dead == 1

    def test_stats_count_sent_and_delivered(self):
        clock, net = make()
        net.attach("b", lambda m: None)
        for _ in range(3):
            net.send("a", "b", "x")
        clock.run()
        assert net.stats.sent == 3
        assert net.stats.delivered == 3


class TestLoss:
    def test_zero_loss_delivers_everything(self):
        clock, net = make(loss=0.0)
        got = []
        net.attach("b", got.append)
        for _ in range(100):
            net.send("a", "b", "x")
        clock.run()
        assert len(got) == 100

    def test_loss_rate_drops_roughly_that_fraction(self):
        clock, net = make(loss=0.5, seed=1)
        got = []
        net.attach("b", got.append)
        for _ in range(1000):
            net.send("a", "b", "x")
        clock.run()
        assert 350 < len(got) < 650
        assert net.stats.dropped_loss == 1000 - len(got)

    def test_loss_is_deterministic_under_seed(self):
        counts = []
        for _ in range(2):
            clock, net = make(loss=0.3, seed=99)
            got = []
            net.attach("b", got.append)
            for _ in range(200):
                net.send("a", "b", "x")
            clock.run()
            counts.append(len(got))
        assert counts[0] == counts[1]

    def test_invalid_loss_rate_rejected(self):
        clock = EventClock()
        with pytest.raises(SimulationError):
            Network(clock, loss_rate=1.0)


class TestPartitions:
    def test_partition_blocks_both_directions(self):
        clock, net = make()
        got = []
        net.attach("a", got.append)
        net.attach("b", got.append)
        net.partition({"a"}, {"b"})
        net.send("a", "b", "x")
        net.send("b", "a", "y")
        clock.run()
        assert got == []
        assert net.stats.dropped_partition == 2

    def test_partition_does_not_affect_third_parties(self):
        clock, net = make()
        got = []
        net.attach("c", got.append)
        net.partition({"a"}, {"b"})
        net.send("a", "c", "x")
        clock.run()
        assert len(got) == 1

    def test_heal_restores_connectivity(self):
        clock, net = make()
        got = []
        net.attach("b", got.append)
        net.partition({"a"}, {"b"})
        net.heal()
        net.send("a", "b", "x")
        clock.run()
        assert len(got) == 1

    def test_heal_specific_pair(self):
        clock, net = make()
        net.partition({"a"}, {"b", "c"})
        net.heal({"a"}, {"b"})
        assert not net.partitioned("a", "b")
        assert net.partitioned("a", "c")

    def test_heal_single_group_only_touches_that_group(self):
        # regression: heal(group) used to silently clear *all* partitions,
        # letting partial-heal experiments pass vacuously
        clock, net = make()
        net.partition({"a"}, {"b"})
        net.partition({"c"}, {"d"})
        net.heal({"a"})
        assert not net.partitioned("a", "b")
        assert net.partitioned("c", "d")

    def test_heal_single_group_via_keyword(self):
        clock, net = make()
        net.partition({"a"}, {"b"})
        net.partition({"c"}, {"d"})
        net.heal(group_b={"d"})
        assert net.partitioned("a", "b")
        assert not net.partitioned("c", "d")

    def test_heal_single_group_heals_every_touching_edge(self):
        clock, net = make()
        net.partition({"a"}, {"b", "c"})
        net.partition({"b"}, {"c"})
        net.heal({"b"})
        assert net.partitioned("a", "c")
        assert not net.partitioned("a", "b")
        assert not net.partitioned("b", "c")

    def test_partition_forming_mid_flight_drops_message(self):
        clock, net = make()
        got = []
        net.attach("b", got.append)
        net.send("a", "b", "x")
        net.partition({"a"}, {"b"})
        clock.run()
        assert got == []

class TestDuplication:
    def test_dup_rate_injects_extra_copies(self):
        clock = EventClock()
        net = Network(clock, LatencyModel(1.0), seed=4, dup_rate=0.5)
        got = []
        net.attach("b", got.append)
        for _ in range(200):
            net.send("a", "b", "x")
        clock.run()
        assert net.stats.duplicated > 0
        assert len(got) == 200 + net.stats.duplicated
        assert net.stats.delivered == len(got)

    def test_zero_dup_rate_never_duplicates(self):
        clock = EventClock()
        net = Network(clock, LatencyModel(1.0), seed=4, dup_rate=0.0)
        got = []
        net.attach("b", got.append)
        for _ in range(100):
            net.send("a", "b", "x")
        clock.run()
        assert net.stats.duplicated == 0
        assert len(got) == 100

    def test_invalid_dup_rate_rejected(self):
        clock = EventClock()
        with pytest.raises(SimulationError):
            Network(clock, dup_rate=1.0)


class TestReordering:
    def test_reorder_window_delivers_out_of_send_order(self):
        clock = EventClock()
        net = Network(clock, LatencyModel(1.0), seed=7, reorder_window=10.0)
        got = []
        net.attach("b", lambda m: got.append(m.payload))
        for n in range(50):
            net.send("a", "b", n)
        clock.run()
        assert net.stats.reordered > 0
        assert sorted(got) == list(range(50))  # nothing lost...
        assert got != sorted(got)              # ...but order was scrambled

    def test_negative_reorder_window_rejected(self):
        clock = EventClock()
        with pytest.raises(SimulationError):
            Network(clock, reorder_window=-1.0)


class TestIncarnations:
    def test_message_to_crashed_incarnation_dropped_stale(self):
        # a datagram stamped for incarnation 0 must not leak into the
        # endpoint's recovered (incarnation 1) self
        clock, net = make()
        got = []
        net.attach("b", got.append, incarnation=0)
        net.send("a", "b", "for-old-self")
        net.detach("b")
        net.attach("b", got.append, incarnation=1)
        clock.run()
        assert got == []
        assert net.stats.dropped_stale == 1

    def test_same_incarnation_still_delivered_after_reattach(self):
        clock, net = make()
        got = []
        net.attach("b", got.append, incarnation=3)
        net.send("a", "b", "x")
        net.detach("b")
        net.attach("b", got.append, incarnation=3)
        clock.run()
        assert len(got) == 1
