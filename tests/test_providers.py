"""Tests for the pluggable provider layer under the restrictive interface.

The §II-B billing contract is provider-independent: the API must bill,
cache, and budget identically whether responses come from a bare graph,
a latency model, or a flaky backend — only simulated *time* may differ.
"""

import struct

import pytest

from repro.datasets import load
from repro.errors import PrivateUserError, ProviderTimeoutError, UnknownUserError
from repro.generators import complete_graph, star_graph
from repro.graph import Graph
from repro.interface import (
    FlakyProvider,
    InMemoryGraphProvider,
    LatencyModelProvider,
    RestrictedSocialAPI,
)
from repro.walks import SimpleRandomWalk


class TestInMemoryGraphProvider:
    def test_fetch_matches_graph(self):
        g = Graph([(1, 2), (2, 3)])
        provider = InMemoryGraphProvider(g)
        fetched = provider.fetch(2)
        assert set(fetched.neighbor_seq) == {1, 3}
        assert fetched.latency == 0.0
        assert fetched.attempts == 1
        assert provider.user_count() == 3
        assert provider.has_user(1) and not provider.has_user(99)

    def test_unknown_user_raises(self):
        provider = InMemoryGraphProvider(complete_graph(3))
        with pytest.raises(UnknownUserError):
            provider.fetch("nope")

    def test_inaccessible_refuses(self):
        provider = InMemoryGraphProvider(complete_graph(4), inaccessible={2})
        assert provider.may_refuse
        with pytest.raises(PrivateUserError):
            provider.fetch(2)

    def test_api_over_provider_bills_like_api_over_graph(self):
        g = complete_graph(5)
        direct = RestrictedSocialAPI(g)
        layered = RestrictedSocialAPI(InMemoryGraphProvider(g))
        for user in [0, 1, 0, 2, 1]:
            a = direct.query(user)
            b = layered.query(user)
            assert a.neighbors == b.neighbors
            assert a.neighbor_seq == b.neighbor_seq
            assert a.from_cache == b.from_cache
        assert direct.query_cost == layered.query_cost == 3
        assert direct.clock.now() == layered.clock.now()

    def test_provider_conflicts_with_graph_only_kwargs(self):
        provider = InMemoryGraphProvider(complete_graph(3))
        with pytest.raises(ValueError):
            RestrictedSocialAPI(provider, inaccessible={1})


class TestLatencyModelProvider:
    def test_per_user_latency_is_deterministic_and_order_free(self):
        g = complete_graph(6)
        a = LatencyModelProvider(g, distribution="heavy_tailed", seed=7)
        b = LatencyModelProvider(g, distribution="heavy_tailed", seed=7)
        users = list(range(6))
        for u in users:
            assert a.latency_of(u) == b.latency_of(u)
        # Order independence: drawing in reverse produces identical values.
        c = LatencyModelProvider(g, distribution="heavy_tailed", seed=7)
        reversed_draws = {u: c.latency_of(u) for u in reversed(users)}
        assert reversed_draws == {u: a.latency_of(u) for u in users}

    def test_seed_changes_latencies(self):
        g = complete_graph(6)
        a = LatencyModelProvider(g, distribution="uniform", seed=1)
        b = LatencyModelProvider(g, distribution="uniform", seed=2)
        assert any(a.latency_of(u) != b.latency_of(u) for u in range(6))

    def test_constant_distribution(self):
        provider = LatencyModelProvider(complete_graph(3), distribution="constant", scale=2.5)
        assert provider.latency_of(0) == 2.5
        assert provider.fetch(0).latency == 2.5

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ValueError):
            LatencyModelProvider(complete_graph(3), distribution="gaussian")

    def test_latency_advances_clock_and_tally(self):
        provider = LatencyModelProvider(complete_graph(4), distribution="constant", scale=3.0)
        api = RestrictedSocialAPI(provider, seconds_per_query=1.0)
        api.query(0)
        assert api.clock.now() == 4.0  # 1s service + 3s latency
        assert api.latency_spent == 3.0
        api.query(0)  # cache hit: no time, no latency
        assert api.clock.now() == 4.0
        assert api.latency_spent == 3.0
        assert api.query_cost == 1

    def test_billing_identical_to_zero_latency(self):
        net = load("epinions_like", seed=0, scale=0.1)
        flat = net.interface()
        slow = net.interface(latency_distribution="heavy_tailed", latency_seed=5)
        walk_a = SimpleRandomWalk(flat, start=net.seed_node(1), seed=9)
        walk_b = SimpleRandomWalk(slow, start=net.seed_node(1), seed=9)
        for _ in range(120):
            assert walk_a.step() == walk_b.step()
        assert flat.query_cost == slow.query_cost
        assert slow.latency_spent > 0.0

    def test_response_carries_latency(self):
        provider = LatencyModelProvider(complete_graph(3), distribution="constant", scale=2.0)
        api = RestrictedSocialAPI(provider)
        assert api.query(1).latency == 2.0
        assert api.query(1).latency == 0.0  # cached

    def test_state_delegates_to_inner(self):
        inner = FlakyProvider(complete_graph(6), failure_rate=0.4, seed=9)
        provider = LatencyModelProvider(inner, distribution="constant", scale=1.0)
        assert provider.inner is inner
        assert provider.distribution == "constant"
        for u in range(3):
            provider.fetch(u)
        state = provider.state_dict()

        fresh_inner = FlakyProvider(complete_graph(6), failure_rate=0.4, seed=9)
        fresh = LatencyModelProvider(fresh_inner, distribution="constant", scale=1.0)
        fresh.load_state(state)
        assert fresh_inner.retry_stats == inner.retry_stats

    def test_invalid_parameters(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            LatencyModelProvider(g, scale=-1.0)
        with pytest.raises(ValueError):
            LatencyModelProvider(g, alpha=1.0)
        with pytest.raises(ValueError):
            FlakyProvider(g, failure_rate=1.0)
        with pytest.raises(ValueError):
            FlakyProvider(g, max_attempts=0)
        with pytest.raises(ValueError):
            FlakyProvider(g, timeout_latency=-0.5)


class TestFlakyProvider:
    def test_retries_are_seeded_and_accounted(self):
        g = complete_graph(5)
        provider = FlakyProvider(g, failure_rate=0.5, seed=3, timeout_latency=2.0)
        fetches = [provider.fetch(u) for u in range(5)]
        stats = provider.retry_stats
        assert stats.fetches == 5
        assert stats.attempts >= 5
        assert stats.timeouts == stats.attempts - 5
        assert stats.abandoned == 0
        # Wasted attempts surface as latency, 2s per timeout.
        assert sum(f.latency for f in fetches) == stats.timeouts * 2.0
        assert [f.attempts for f in fetches] == [
            1 + t for t in _per_fetch_timeouts(0.5, 3, 5)
        ]

    def test_exhausted_retries_raise(self):
        provider = FlakyProvider(
            complete_graph(3), failure_rate=0.95, seed=1, max_attempts=2, timeout_latency=3.0
        )
        with pytest.raises(ProviderTimeoutError) as excinfo:
            for u in range(3):
                provider.fetch(u)
        assert provider.retry_stats.abandoned >= 1
        # The abandoned fetch's wasted time is reported on the error.
        assert excinfo.value.attempts == 2
        assert excinfo.value.wasted_latency == 2 * 3.0

    def test_private_users_propagate_unretried(self):
        inner = InMemoryGraphProvider(star_graph(4), inaccessible={1})
        provider = FlakyProvider(inner, failure_rate=0.0, seed=0)
        with pytest.raises(PrivateUserError):
            provider.fetch(1)
        assert provider.may_refuse

    def test_walkers_survive_flaky_backend(self):
        provider = FlakyProvider(
            complete_graph(6), failure_rate=0.3, seed=4, timeout_latency=1.0
        )
        api = RestrictedSocialAPI(provider)
        walk = SimpleRandomWalk(api, start=0, seed=2)
        for _ in range(40):
            walk.step()
        assert api.query_cost <= 6
        assert provider.retry_stats.timeouts > 0
        # No fetch was abandoned here, so every timeout's latency reached
        # the simulated clock (abandoned fetches bill nothing — their
        # wasted time rides on the raised ProviderTimeoutError instead).
        assert provider.retry_stats.abandoned == 0
        assert api.latency_spent == provider.retry_stats.timeouts * 1.0

    def test_state_roundtrip_replays_failures(self):
        def build():
            return FlakyProvider(complete_graph(8), failure_rate=0.4, seed=6)

        reference = build()
        for u in range(4):
            reference.fetch(u)
        captured = reference.state_dict()
        ref_tail = [reference.fetch(u).attempts for u in range(4, 8)]

        resumed = build()
        for u in range(4):
            resumed.fetch(u)
        resumed.load_state(captured)
        assert [resumed.fetch(u).attempts for u in range(4, 8)] == ref_tail
        assert resumed.retry_stats == reference.retry_stats

    def test_rng_state_is_packed_and_tuple_layout_loads(self):
        def build():
            return FlakyProvider(complete_graph(8), failure_rate=0.4, seed=6)

        reference = build()
        for u in range(4):
            reference.fetch(u)
        captured = reference.state_dict()
        version, words, gauss_next = captured["rng"]
        assert (type(words), len(words)) == (bytes, 2500)
        ref_tail = [reference.fetch(u).attempts for u in range(4, 8)]

        # snapshots written before the packed form carry Random's tuple
        legacy = dict(captured, rng=(version, struct.unpack("<625I", words), gauss_next))
        resumed = build()
        resumed.load_state(legacy)
        assert [resumed.fetch(u).attempts for u in range(4, 8)] == ref_tail


def _per_fetch_timeouts(rate, seed, fetches):
    """Replay the flaky failure stream to predict per-fetch timeout counts."""
    import random

    rng = random.Random(seed)
    counts = []
    for _ in range(fetches):
        timeouts = 0
        while rng.random() < rate:
            timeouts += 1
        counts.append(timeouts)
    return counts


class TestProviderSnapshotsThroughApi:
    def test_api_state_includes_provider_state(self):
        provider = FlakyProvider(complete_graph(6), failure_rate=0.4, seed=2)
        api = RestrictedSocialAPI(provider)
        for u in range(3):
            api.query(u)
        state = api.state_dict()
        assert "provider" in state

        fresh_provider = FlakyProvider(complete_graph(6), failure_rate=0.4, seed=2)
        fresh = RestrictedSocialAPI(fresh_provider)
        fresh.load_state(state)
        assert fresh_provider.retry_stats == provider.retry_stats
        assert fresh.latency_spent == api.latency_spent
