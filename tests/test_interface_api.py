"""Unit tests for the restrictive q(v) interface."""

import dataclasses

import pytest

from repro.datastore import DocumentStore, KeyValueStore
from repro.errors import PrivateUserError, QueryBudgetExhaustedError, UnknownUserError
from repro.graph import Graph
from repro.interface import (
    FixedWindowRateLimiter,
    LatencyModelProvider,
    NeighborhoodCache,
    QueryResponse,
    RestrictedSocialAPI,
)


def small_net() -> Graph:
    return Graph([(1, 2), (2, 3), (3, 1), (3, 4)])


class TestQuery:
    def test_returns_full_neighborhood(self):
        api = RestrictedSocialAPI(small_net())
        resp = api.query(3)
        assert resp.neighbors == frozenset({1, 2, 4})
        assert resp.degree == 3
        assert resp.from_cache is False

    def test_unknown_user(self):
        api = RestrictedSocialAPI(small_net())
        with pytest.raises(UnknownUserError):
            api.query(99)

    def test_attributes_served_from_profiles(self):
        profiles = DocumentStore()
        profiles.insert(1, {"self_description": "hello world"})
        api = RestrictedSocialAPI(small_net(), profiles=profiles)
        assert api.query(1).attributes["self_description"] == "hello world"
        assert api.query(2).attributes == {}

    def test_published_user_count(self):
        api = RestrictedSocialAPI(small_net())
        assert api.published_user_count() == 4


class TestCostAccounting:
    def test_unique_cost_only(self):
        api = RestrictedSocialAPI(small_net())
        api.query(1)
        api.query(2)
        repeat = api.query(1)
        assert repeat.from_cache is True
        assert api.query_cost == 2
        assert api.total_queries == 3

    def test_cached_degree_free(self):
        api = RestrictedSocialAPI(small_net())
        assert api.cached_degree(3) is None
        api.query(3)
        cost = api.query_cost
        assert api.cached_degree(3) == 3
        assert api.query_cost == cost  # no extra spend

    def test_reset_accounting(self):
        api = RestrictedSocialAPI(small_net())
        api.query(1)
        api.reset_accounting()
        assert api.query_cost == 0
        assert api.cached_degree(1) is None

    def test_budget_enforced(self):
        api = RestrictedSocialAPI(small_net(), query_budget=2)
        api.query(1)
        api.query(2)
        assert api.remaining_budget() == 0
        api.query(1)  # cache hit is still allowed
        with pytest.raises(QueryBudgetExhaustedError):
            api.query(3)

    def test_remaining_budget_none_when_unbounded(self):
        api = RestrictedSocialAPI(small_net())
        assert api.remaining_budget() is None

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            RestrictedSocialAPI(small_net(), query_budget=0)


class TestRateLimiting:
    def test_clock_advances_per_billed_query(self):
        api = RestrictedSocialAPI(small_net(), seconds_per_query=2.0)
        api.query(1)
        api.query(2)
        assert api.clock.now() == pytest.approx(4.0)
        api.query(1)  # cache hit: no time cost
        assert api.clock.now() == pytest.approx(4.0)

    def test_throttled_query_waits_on_simulated_time(self):
        limiter = FixedWindowRateLimiter(2, 100.0)
        api = RestrictedSocialAPI(small_net(), rate_limiter=limiter, seconds_per_query=1.0)
        api.query(1)
        api.query(2)
        api.query(3)  # third billed query must wait for the next window
        assert api.clock.now() >= 100.0
        assert api.query_cost == 3

    def test_invalid_seconds_per_query(self):
        with pytest.raises(ValueError):
            RestrictedSocialAPI(small_net(), seconds_per_query=-1)


class TestNeighborhoodCache:
    def test_put_and_lookup(self):
        cache = NeighborhoodCache()
        cache.put("u", frozenset({1, 2}), {"x": 1})
        assert cache.has("u")
        assert cache.neighbors("u") == frozenset({1, 2})
        assert cache.attributes("u") == {"x": 1}
        assert cache.degree("u") == 2

    def test_missing_user(self):
        cache = NeighborhoodCache()
        assert not cache.has("u")
        assert cache.neighbors("u") is None
        assert cache.attributes("u") is None
        assert cache.degree("u") is None

    def test_known_users(self):
        cache = NeighborhoodCache()
        cache.put("a", frozenset(), {})
        cache.put("b", frozenset({1}), {})
        assert cache.known_users() == frozenset({"a", "b"})

    def test_clear(self):
        cache = NeighborhoodCache()
        cache.put("a", frozenset(), {})
        cache.clear()
        assert not cache.has("a")

    def test_retention_version(self):
        cache = NeighborhoodCache()
        before = cache.retention_version
        cache.put("a", frozenset({1}), {})
        assert cache.retention_version == before  # new entries drop nothing
        cache.put("a", frozenset({2}), {})
        assert cache.retention_version != before  # a replaced response
        ttl_cache = NeighborhoodCache(ttl=1.0)
        ttl_cache.put("a", frozenset({1}), {})
        assert ttl_cache.retention_version is None  # entries expire unseen
        assert NeighborhoodCache(KeyValueStore(capacity=8)).retention_version is None

    def test_bounded_cache_never_serves_half_a_response(self):
        graph = Graph([(u, u % 7 + 1) for u in range(1, 8)])
        profiles = DocumentStore()
        for u in range(1, 8):
            profiles.insert(u, {"age": 10 * u})
        cache = NeighborhoodCache(KeyValueStore(capacity=4))
        api = RestrictedSocialAPI(graph, profiles=profiles, cache=cache)
        api.query(1)
        api.cached_degree(1)  # refreshes part of user 1's LRU standing
        api.query(2)
        resp = api.query(1)
        # A hit carries the billed profile; an evicted user is re-fetched.
        # A free hit with the attributes dropped would bias any estimate.
        assert resp.attributes == {"age": 10}
        assert resp.neighbors == frozenset({2, 7})
        assert set(resp.neighbor_seq) == resp.neighbors


def _records(api):
    return api.log.state_dict()["records"]


class _CountingCache(NeighborhoodCache):
    """Counts the reads that answer, the reads that miss, and the puts."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.answered = 0
        self.missed = 0

    def _count(self, found):
        if found is None:
            self.missed += 1
        else:
            self.answered += 1
        return found

    def neighbors(self, user):
        return self._count(super().neighbors(user))

    def hot_seq(self, user):
        return self._count(super().hot_seq(user))

    def put(self, *args, **kwargs):
        super().put(*args, **kwargs)
        self.answered += 1


class TestQueryContract:
    def test_one_record_per_logical_query(self):
        api = RestrictedSocialAPI(small_net(), inaccessible=frozenset({4}))
        api.query(1)
        api.query(1)
        api.fetch_seq(2)
        api.fetch_seq(2)
        api.fetch_seq(1)
        batch = api.query_many([1, 3, 4, 99, 3])
        assert (batch.private, batch.unknown) == ((4,), (99,))
        with pytest.raises(PrivateUserError):
            api.fetch_seq(4)  # a cached refusal logs nothing
        assert _records(api) == [
            (1, True, 1.0),
            (1, False, 1.0),
            (2, True, 2.0),
            (2, False, 2.0),
            (1, False, 2.0),
            (1, False, 2.0),
            (3, True, 3.0),
            (4, True, 3.0),
        ]
        assert (api.total_queries, api.query_cost) == (8, 4)

    def test_lru_refetch_is_logged_unbilled(self):
        api = RestrictedSocialAPI(small_net(), cache=NeighborhoodCache(KeyValueStore(capacity=1)))
        api.query(1)
        api.query(2)  # evicts user 1
        assert api.query(1).from_cache is False
        assert api.fetch_seq(2) == api.query(2).neighbor_seq  # evicted again, then a hit
        assert [(user, billed) for user, billed, _ in _records(api)] == [
            (1, True),
            (2, True),
            (1, False),
            (2, False),
            (2, False),
        ]
        assert (api.query_cost, api.cache_misses, api.cache_hits) == (2, 4, 1)

    def test_attributes_handed_out_are_copies(self):
        profiles = DocumentStore()
        profiles.insert(1, {"age": 30})
        api = RestrictedSocialAPI(small_net(), profiles=profiles)
        api.query(1).attributes["age"] = 0  # the billed response
        api.query(1).attributes["age"] = 1  # a hit
        assert api.query(1).attributes == {"age": 30}
        assert api.query_many([1]).responses[1].attributes == {"age": 30}

    def test_responses_are_frozen(self):
        api = RestrictedSocialAPI(small_net())
        for response in (api.query(1), api.query(1), api.query_many([2]).responses[2]):
            with pytest.raises(dataclasses.FrozenInstanceError):
                response.user = 9
            with pytest.raises(dataclasses.FrozenInstanceError):
                response.neighbor_seq = ()

    def test_responses_equal_the_public_constructor(self):
        provider = LatencyModelProvider(small_net(), distribution="uniform", scale=2.0, seed=1)
        api = RestrictedSocialAPI(provider)
        miss = api.query(3)
        hit = api.query(3)
        seq = miss.neighbor_seq
        assert miss.latency > 0
        assert miss == QueryResponse(3, frozenset({1, 2, 4}), {}, False, seq, miss.latency)
        assert hit == QueryResponse(3, frozenset({1, 2, 4}), {}, True, seq)
        assert hit.neighbor_seq is seq and hit.latency == 0.0 and hit.degree == 3
        # A hand-built response still derives its sequence.
        derived = QueryResponse(user=3, neighbors=frozenset({1, 2, 4}), attributes={}, from_cache=True)
        assert derived.neighbor_seq == tuple(frozenset({1, 2, 4}))

    def test_one_answered_cache_call_per_logical_query(self):
        cache = _CountingCache()
        api = RestrictedSocialAPI(small_net(), cache=cache)
        calls = [
            lambda: api.query(1),  # miss: one put
            lambda: api.query(1),  # hit: one neighbors read
            lambda: api.fetch_seq(2),  # miss: one put, after a single probe
            lambda: api.fetch_seq(2),  # hit: one hot_seq read
            lambda: api.fetch_seq(1),
            lambda: api.query_many([1, 3, 4]),  # one hit, two puts
        ]
        for call in calls:
            answered, logged = cache.answered, api.total_queries
            call()
            assert cache.answered - answered == api.total_queries - logged
        assert (cache.answered, api.total_queries) == (8, 8)
        assert cache.missed == 4  # query(1), fetch_seq(2), query_many's 3 and 4: one probe each
