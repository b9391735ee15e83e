"""Tests for the planning layer's building blocks (ISSUE 5).

The load-bearing invariant: the neighborhood cache the planner walks
through answers every accessor from one record per user, and drops that
whole record under LRU eviction and TTL expiry.  A hypothesis-driven op
sequence hammers exactly that, alongside unit coverage for the history
index's step statistics, the ledger's accounting identity and the
adaptive policy's decision function.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datastore.kv import KeyValueStore
from repro.errors import DataStoreError, PlanningError
from repro.interface.cache import NeighborhoodCache
from repro.planning import (
    ROSTER_ACTIVE,
    ROSTER_RESERVE,
    ROSTER_RETIRED,
    AdaptiveChainPolicy,
    ChainObservation,
    DispatchPlanner,
    HistoryIndex,
    PrefetchLedger,
)


class TestHistoryIndex:
    def test_step_accounting_and_regions(self):
        index = HistoryIndex(shard_of=lambda user: user % 2)
        index.record_step(2, known=True)
        index.record_step(2, known=True)
        index.record_step(3, known=False)
        assert index.known_steps == 2
        assert index.unknown_steps == 1
        assert index.hit_rate() == pytest.approx(2 / 3)
        assert index.region_stats() == {
            0: {"known": 2, "unknown": 0},
            1: {"known": 0, "unknown": 1},
        }

    def test_state_roundtrip(self):
        index = HistoryIndex(shard_of=lambda user: 0)
        index.record_step("a", known=True)
        index.record_step("b", known=False)
        fresh = HistoryIndex(shard_of=lambda user: 0)
        fresh.load_state(index.state_dict())
        assert fresh.state_dict() == index.state_dict()
        assert fresh.known_steps == 1
        assert fresh.unknown_steps == 1
        assert fresh.region_stats() == index.region_stats()

    def test_older_state_with_visit_counts_loads(self):
        """Per-node visit counts, which older builds stored, are ignored."""
        index = HistoryIndex(shard_of=lambda user: 0)
        index.record_step("a", known=True)
        older = dict(index.state_dict(), visits={"a": 1})
        fresh = HistoryIndex(shard_of=lambda user: 0)
        fresh.load_state(older)
        assert fresh.state_dict() == index.state_dict()

    def test_hit_rate_empty(self):
        assert HistoryIndex().hit_rate() == 0.0


# Op alphabet for the consistency property: (kind, user) pairs over a
# small user universe so collisions, evictions, and expiries all happen.
_USERS = st.integers(min_value=0, max_value=7)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), _USERS),
        st.tuples(st.just("get"), _USERS),
        st.tuples(st.just("probe"), _USERS),
        st.tuples(st.just("advance"), st.integers(min_value=1, max_value=4)),
    ),
    min_size=1,
    max_size=60,
)


class TestHistoryCacheConsistency:
    """No partial or stale record under LRU eviction + TTL expiry."""

    @settings(max_examples=60, deadline=None)
    @given(ops=_OPS, capacity=st.integers(min_value=1, max_value=4), ttl=st.integers(5, 9))
    def test_cache_answers_one_record_per_user(self, ops, capacity, ttl):
        store = KeyValueStore(capacity=capacity)
        cache = NeighborhoodCache(store, ttl=float(ttl))
        for kind, value in ops:
            if kind == "put":
                cache.put(value, frozenset([value + 1]), {}, seq=(value + 1,))
            elif kind == "get":
                cache.neighbors(value)  # touches LRU order
            elif kind == "advance":
                store.advance(float(value))  # expires TTL'd entries
            for user in range(8):
                # No accessor sees a partial response, eviction and expiry
                # included.
                assert len({
                    cache.has(user),
                    cache.neighbors(user) is not None,
                    cache.neighbor_seq(user) is not None,
                    cache.attributes(user) is not None,
                    cache.degree(user) is not None,
                }) == 1

    def test_eviction_drops_known(self):
        store = KeyValueStore(capacity=1)  # one user = one key
        cache = NeighborhoodCache(store)
        cache.put(1, frozenset([2]), {}, seq=(2,))
        assert cache.has(1)
        cache.put(2, frozenset([3]), {}, seq=(3,))  # evicts user 1's entries
        assert not cache.has(1)

    def test_ttl_expiry_drops_known(self):
        store = KeyValueStore()
        cache = NeighborhoodCache(store, ttl=10.0)
        cache.put(1, frozenset([2]), {}, seq=(2,))
        assert cache.has(1)
        store.advance(10.0)
        assert not cache.has(1)

    def test_cache_ttl_validation(self):
        with pytest.raises(DataStoreError):
            NeighborhoodCache(ttl=0.0)
        with pytest.raises(DataStoreError):
            NeighborhoodCache(ttl=-1.0)


class TestPrefetchLedger:
    def test_accounting_identity(self):
        ledger = PrefetchLedger()
        ledger.record_issue("a", chain=0, lands_at=4.0)
        ledger.record_issue("b", chain=0, lands_at=5.0)
        ledger.record_issue("c", chain=1, lands_at=6.0)
        assert ledger.mark_used("a") == 4.0
        assert ledger.mark_used("missing") is None
        assert ledger.drop_chain(0) == 1  # "b" orphaned
        assert ledger.issued == 3
        assert ledger.used == 1
        assert ledger.wasted == 1
        assert ledger.outstanding == 1
        assert ledger.issued == ledger.used + ledger.wasted + ledger.outstanding
        assert ledger.is_pending("c")
        assert not ledger.is_pending("b")

    def test_state_roundtrip(self):
        ledger = PrefetchLedger()
        ledger.record_issue((1, "x"), chain=2, lands_at=7.5)
        ledger.record_issue("y", chain=1, lands_at=3.25)
        ledger.mark_used("y")
        fresh = PrefetchLedger()
        fresh.load_state(ledger.state_dict())
        assert fresh.summary() == ledger.summary()
        assert fresh.mark_used((1, "x")) == 7.5


def _obs(chain, roster, steps, latency, collected=0):
    return ChainObservation(
        chain=chain,
        roster=roster,
        timed_steps=steps,
        latency=latency,
        collect_steps=steps,
        collected=collected,
    )


class TestAdaptiveChainPolicy:
    def test_validation(self):
        with pytest.raises(PlanningError):
            AdaptiveChainPolicy(start_chains=1)
        with pytest.raises(PlanningError):
            AdaptiveChainPolicy(min_chains=0)
        with pytest.raises(PlanningError):
            AdaptiveChainPolicy(tail_ratio=1.0)
        with pytest.raises(PlanningError):
            AdaptiveChainPolicy(evaluate_every=0)
        with pytest.raises(PlanningError):
            AdaptiveChainPolicy(min_chains=4, max_active=3)

    def test_initial_roster(self):
        assert AdaptiveChainPolicy().initial_roster(3) == [ROSTER_ACTIVE] * 3
        assert AdaptiveChainPolicy(start_chains=2).initial_roster(4) == [
            ROSTER_ACTIVE,
            ROSTER_ACTIVE,
            ROSTER_RESERVE,
            ROSTER_RESERVE,
        ]

    def test_retires_tail_outlier_and_spawns_reserve(self):
        policy = AdaptiveChainPolicy(min_chains=2, tail_ratio=2.0, min_observations=5)
        decision = policy.review(
            [
                _obs(0, ROSTER_ACTIVE, 10, 10.0),
                _obs(1, ROSTER_ACTIVE, 10, 12.0),
                _obs(2, ROSTER_ACTIVE, 10, 80.0),  # 8.0/step vs median ~1.2
                _obs(3, ROSTER_RESERVE, 10, 0.0),
            ]
        )
        assert decision.retire == (2,)
        assert decision.spawn == (3,)

    def test_respects_min_chains(self):
        policy = AdaptiveChainPolicy(min_chains=2, tail_ratio=2.0, min_observations=5)
        decision = policy.review(
            [_obs(0, ROSTER_ACTIVE, 10, 10.0), _obs(1, ROSTER_ACTIVE, 10, 99.0)]
        )
        assert not decision

    def test_no_retire_without_observations(self):
        policy = AdaptiveChainPolicy(min_chains=2, tail_ratio=2.0, min_observations=50)
        decision = policy.review(
            [
                _obs(0, ROSTER_ACTIVE, 10, 10.0),
                _obs(1, ROSTER_ACTIVE, 10, 10.0),
                _obs(2, ROSTER_ACTIVE, 10, 999.0),
            ]
        )
        assert not decision

    def test_ignores_retired_chains(self):
        policy = AdaptiveChainPolicy(min_chains=2, tail_ratio=2.0, min_observations=5)
        decision = policy.review(
            [
                _obs(0, ROSTER_ACTIVE, 10, 10.0),
                _obs(1, ROSTER_ACTIVE, 10, 11.0),
                _obs(2, ROSTER_ACTIVE, 10, 12.0),
                _obs(3, ROSTER_RETIRED, 10, 500.0),
            ]
        )
        assert not decision

    def test_r_hat_spawn_trigger(self):
        policy = AdaptiveChainPolicy(spawn_r_hat_above=1.2)
        assert policy.collect_spawn_count(3, r_hat=1.5) == 3
        assert policy.collect_spawn_count(3, r_hat=1.1) == 0
        assert policy.collect_spawn_count(0, r_hat=9.0) == 0
        assert policy.collect_spawn_count(3, r_hat=None) == 0
        assert AdaptiveChainPolicy().collect_spawn_count(3, r_hat=9.0) == 0


class TestDispatchPlannerValidation:
    def test_knob_validation(self):
        with pytest.raises(PlanningError):
            DispatchPlanner(lookahead=-1)

    def test_unbound_access(self):
        planner = DispatchPlanner()
        assert not planner.bound
        with pytest.raises(PlanningError):
            planner.summary()
        with pytest.raises(PlanningError):
            _ = planner.history

    def test_double_bind_rejected(self):
        class _Fleet:
            @staticmethod
            def shard_of(user):
                return 0

        planner = DispatchPlanner()
        planner.bind(_Fleet())
        assert planner.bound
        with pytest.raises(PlanningError):
            planner.bind(_Fleet())
