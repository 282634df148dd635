"""The one-pass health router against the three passes it replaced.

``reference_route`` is the previous ``HealthRegistry.route``, kept verbatim
as the model: it listed the candidates, asked every candidate's breaker
``allow`` (a half-open admission takes a probe slot, chosen or not), and
took the minimum ``(score, name)`` over the admitted, or over all candidates
when none was admitted; ``reference_score`` is the score it ranked by, its
failure streak read where the registry keeps it, the breaker's count of
consecutive failures.  ``route`` now scores and admits in one pass and asks
only a breaker that is not closed.  Driven through the same breaker states,
half-open probe counts, EWMA / in-flight / streak values and ``exclude``
sets, the two must choose the same worker and leave every breaker the same.
"""

from typing import Iterable, Optional

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.resilience.breaker import BreakerConfig
from repro.resilience.config import ResilienceConfig
from repro.resilience.events import ResilienceLog
from repro.resilience.health import HealthRegistry

WORKERS = ("w1", "w2", "w3", "w4")


# -- the parent's router, verbatim -----------------------------------------------------


def reference_route(
    self: HealthRegistry, now: float, exclude: Iterable[str] = ()
) -> Optional[str]:
    excluded = set(exclude)
    candidates = [n for n in self._names if n not in excluded]
    if not candidates:
        return None
    admitted = [n for n in candidates if self.workers[n].breaker.allow(now)]
    pool = admitted or candidates
    return min(pool, key=lambda n: (reference_score(self, n), n))


def reference_score(self: HealthRegistry, name: str) -> float:
    """Lower is healthier.  Deterministic."""
    health = self.workers[name]
    latency = (
        health.ewma_latency if health.ewma_latency is not None else self._LATENCY_PRIOR
    )
    return (
        latency
        + self._INFLIGHT_WEIGHT * health.in_flight
        + self._STREAK_WEIGHT * health.breaker.failures
    )


# -- the state machine ------------------------------------------------------------------

workers = st.sampled_from(WORKERS)
# few distinct values, so equal scores (and the tie-break by name) are common
latencies = st.sampled_from([None, 0.5, 1.0, 2.0, 3.5])
counts = st.integers(min_value=0, max_value=3)
times = st.sampled_from([0.0, 5.0, 9.0, 10.0, 11.0, 25.0])
# every shape an ``exclude`` argument comes in; an iterator is used up by one
# call, so each router is handed its own
excludes = st.tuples(
    st.sampled_from([tuple, list, set, iter]), st.lists(workers, max_size=len(WORKERS))
)


class RouteAgainstReference(RuleBasedStateMachine):
    @initialize(threshold=st.integers(1, 3))
    def build(self, threshold):
        # one half-open probe (breaker.HALF_OPEN_PROBES); set_breaker also
        # draws breakers whose probe is already spent
        config = ResilienceConfig(
            breaker=BreakerConfig(failure_threshold=threshold, cooldown=10.0)
        )
        self.real = HealthRegistry(list(WORKERS), config, ResilienceLog())
        self.model = HealthRegistry(list(WORKERS), config, ResilienceLog())

    def _both(self):
        return self.real, self.model

    @rule(name=workers, latency=latencies, in_flight=counts, streak=counts)
    def set_health(self, name, latency, in_flight, streak):
        for registry in self._both():
            health = registry.workers[name]
            health.ewma_latency = latency
            health.in_flight = in_flight
            health.breaker.failures = streak

    @rule(name=workers, opened_at=st.sampled_from([None, 0.0, 3.0, 8.0]), probes=counts)
    def set_breaker(self, name, opened_at, probes):
        for registry in self._both():
            breaker = registry.workers[name].breaker
            breaker.opened_at = opened_at
            breaker._probes = probes

    @rule(name=workers, now=times)
    def dispatch(self, name, now):
        for registry in self._both():
            registry.on_dispatch(name, now)

    @rule(name=workers, latency=st.sampled_from([0.5, 1.0, 4.0]), now=times)
    def reply(self, name, latency, now):
        for registry in self._both():
            registry.on_reply(name, latency, now)

    @rule(name=workers, now=times)
    def timeout(self, name, now):
        for registry in self._both():
            registry.on_timeout(name, now)

    @rule(now=times, exclude=excludes)
    def route(self, now, exclude):
        shape, names = exclude
        chosen = self.real.route(now, exclude=shape(names))
        assert chosen == reference_route(self.model, now, exclude=shape(names))

    @rule(now=times)
    def route_without_exclude(self, now):
        assert self.real.route(now) == reference_route(self.model, now)

    @invariant()
    def same_breakers(self):
        for name in WORKERS:
            real = self.real.workers[name].breaker
            model = self.model.workers[name].breaker
            assert (real._probes, real.opened_at, real.failures, real.trips) == (
                model._probes,
                model.opened_at,
                model.failures,
                model.trips,
            ), name


RouteAgainstReference.TestCase.settings = settings(
    max_examples=300, stateful_step_count=40, deadline=None
)
TestRouteAgainstReference = RouteAgainstReference.TestCase


def test_every_half_open_candidate_spends_a_probe():
    """The side effect the one pass must keep: the half-open breakers of
    candidates that lose still take their probe slot."""
    config = ResilienceConfig(breaker=BreakerConfig(cooldown=10.0))
    real = HealthRegistry(list(WORKERS), config, ResilienceLog())
    model = HealthRegistry(list(WORKERS), config, ResilienceLog())
    for registry in (real, model):
        for name in ("w2", "w3"):
            registry.workers[name].breaker.opened_at = 0.0
        registry.workers["w1"].ewma_latency = 5.0
    assert real.route(20.0) == reference_route(model, 20.0) == "w2"
    assert [real.workers[n].breaker._probes for n in WORKERS] == [0, 1, 1, 0]
    assert [model.workers[n].breaker._probes for n in WORKERS] == [0, 1, 1, 0]
    # the probes are spent: an open-looking fleet falls back to all candidates
    for registry in (real, model):
        registry.workers["w1"].breaker.opened_at = 15.0
        registry.workers["w4"].breaker.opened_at = 15.0
    assert real.route(20.0) == reference_route(model, 20.0) == "w2"
