"""Shared fixtures: small scripts, engines and simulated worlds."""

from __future__ import annotations

import pytest

from repro.core import ScriptBuilder, from_input, from_output
from repro.core.instrument import IOPATH_STATS
from repro.core.selection import HOTPATH_STATS
from repro.engine import ImplementationRegistry, LocalEngine, outcome
from repro.net import EventClock, LatencyModel, Network, Node
from repro.txn import ObjectStore, TransactionManager


@pytest.fixture(autouse=True)
def _reset_hotpath_stats():
    """HOTPATH_STATS/IOPATH_STATS are process-global counters; without this
    reset every test (and any engine or store the test runs) bleeds
    publishes/forces/marshal counts into the next, making per-test ratio
    assertions order-dependent."""
    HOTPATH_STATS.reset()
    IOPATH_STATS.reset()
    yield
    HOTPATH_STATS.reset()
    IOPATH_STATS.reset()


@pytest.fixture
def clock():
    return EventClock()


@pytest.fixture
def network(clock):
    return Network(clock, LatencyModel(1.0, 0.0))


@pytest.fixture
def nodes(clock, network):
    return [Node(f"n{i}", clock, network) for i in range(3)]


@pytest.fixture
def store():
    return ObjectStore("test-store")


@pytest.fixture
def manager(store):
    return TransactionManager("test-tm")


def build_pipeline_script(length: int = 2):
    """pipeline: t1 -> t2 -> ... -> tN, all of taskclass Stage."""
    b = ScriptBuilder()
    b.object_class("Data")
    b.taskclass("Stage").input_set("main", inp="Data").outcome("done", out="Data")
    b.taskclass("Root").input_set("main", inp="Data").outcome("done", out="Data")
    root = b.compound("pipeline", "Root")
    source = from_input("pipeline", "main", "inp")
    for index in range(length):
        name = f"t{index + 1}"
        root.task(name, "Stage").implementation(code="stage").input(
            "main", "inp", source
        ).up()
        source = from_output(name, "done", "out")
    root.output("done").object("out", from_output(f"t{length}", "done", "out")).up()
    root.up()
    return b.build()


def stage_registry():
    reg = ImplementationRegistry()
    reg.register("stage", lambda ctx: outcome("done", out=f"{ctx.value('inp')}+"))
    return reg


@pytest.fixture
def pipeline_script():
    return build_pipeline_script(3)


@pytest.fixture
def pipeline_registry():
    return stage_registry()


@pytest.fixture
def local_engine(pipeline_registry):
    return LocalEngine(pipeline_registry)

