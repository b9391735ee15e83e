"""Edge cases of the batched query path (``query_many`` and friends)."""

import pytest

from repro.core import MTOSampler
from repro.core.overlay import OverlayGraph
from repro.errors import PrivateUserError
from repro.generators import paper_barbell
from repro.graph import Graph
from repro.interface import FixedWindowRateLimiter, RestrictedSocialAPI
from repro.walks import SimpleRandomWalk
from repro.walks.parallel import ParallelWalkers


def small_net() -> Graph:
    return Graph([(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])


class TestQueryMany:
    def test_duplicates_billed_once(self):
        api = RestrictedSocialAPI(small_net())
        result = api.query_many([1, 1, 2, 1, 2])
        assert sorted(result.responses) == [1, 2]
        assert api.query_cost == 2

    def test_cached_users_free(self):
        api = RestrictedSocialAPI(small_net())
        api.query(1)
        api.query(2)
        cost = api.query_cost
        result = api.query_many([1, 2, 3])
        assert api.query_cost == cost + 1  # only user 3 was billed
        assert result.responses[1].from_cache is True
        assert result.responses[2].from_cache is True
        assert result.responses[3].from_cache is False

    def test_request_order_preserved(self):
        api = RestrictedSocialAPI(small_net())
        result = api.query_many([3, 1, 4])
        assert list(result.responses) == [3, 1, 4]

    def test_private_members_reported_without_aborting(self):
        api = RestrictedSocialAPI(small_net(), inaccessible=frozenset({2}))
        result = api.query_many([1, 2, 3])
        assert sorted(result.responses) == [1, 3]
        assert result.private == (2,)
        # the refusal is billed once, exactly like the single-query path
        assert api.query_cost == 3
        # ...and is a cached (free) refusal on the next batch
        again = api.query_many([2])
        assert again.private == (2,)
        assert api.query_cost == 3
        with pytest.raises(PrivateUserError):
            api.query(2)

    def test_unknown_members_reported(self):
        api = RestrictedSocialAPI(small_net())
        result = api.query_many([1, 99])
        assert sorted(result.responses) == [1]
        assert result.unknown == (99,)
        assert api.query_cost == 1

    def test_budget_exhaustion_returns_partial_prefix(self):
        api = RestrictedSocialAPI(small_net(), query_budget=2)
        result = api.query_many([1, 2, 3, 4])
        assert result.budget_exhausted is True
        assert list(result.responses) == [1, 2]
        assert api.query_cost == 2
        assert api.remaining_budget() == 0

    def test_budget_exhaustion_keeps_accounting_consistent(self):
        api = RestrictedSocialAPI(small_net(), query_budget=2)
        api.query_many([1, 2, 3])
        # cached members still served for free; unaffordable ones reported
        again = api.query_many([1, 2, 3])
        assert sorted(again.responses) == [1, 2]
        assert again.budget_exhausted is True
        assert api.query_cost == 2

    def test_matches_sequence_of_single_queries(self):
        users = [1, 2, 3, 4]
        api_batch = RestrictedSocialAPI(small_net())
        batch = api_batch.query_many(users)
        api_single = RestrictedSocialAPI(small_net())
        singles = {u: api_single.query(u) for u in users}
        assert api_batch.query_cost == api_single.query_cost
        for u in users:
            assert batch.responses[u].neighbors == singles[u].neighbors
            assert batch.responses[u].neighbor_seq == singles[u].neighbor_seq

    def test_throttled_batch_advances_clock_like_singles(self):
        limiter = FixedWindowRateLimiter(2, 100.0)
        api = RestrictedSocialAPI(small_net(), rate_limiter=limiter, seconds_per_query=1.0)
        api.query_many([1, 2, 3])
        assert api.query_cost == 3
        assert api.clock.now() >= 100.0  # the third fetch waited a window out


class TestEnsureKnownMany:
    def test_materializes_and_bills_like_singles(self):
        api = RestrictedSocialAPI(paper_barbell())
        ov = OverlayGraph(api)
        ov.ensure_known_many([0, 1, 2])
        assert all(ov.is_known(n) for n in (0, 1, 2))
        assert api.query_cost == 3

    def test_skips_already_known(self):
        api = RestrictedSocialAPI(paper_barbell())
        ov = OverlayGraph(api)
        ov.ensure_known(0)
        result = ov.ensure_known_many([0, 1])
        assert list(result.responses) == [1]
        assert api.query_cost == 2

    def test_private_members_stay_unmaterialized(self):
        api = RestrictedSocialAPI(small_net(), inaccessible=frozenset({2}))
        ov = OverlayGraph(api)
        result = ov.ensure_known_many([1, 2, 3])
        assert ov.is_known(1) and ov.is_known(3)
        assert not ov.is_known(2)
        assert result.private == (2,)


class TestPrefetchingWalkers:
    def test_parallel_prefetch_keeps_chains_walking(self):
        g = paper_barbell()
        api = RestrictedSocialAPI(g)
        walkers = ParallelWalkers(
            [SimpleRandomWalk(api, start=0, seed=i) for i in range(3)],
            prefetch=True,
        )
        prev = [s.current for s in walkers.chains]
        for _ in range(25):
            positions = walkers.step_all()
            for before, after in zip(prev, positions):
                assert g.has_edge(before, after)
            prev = positions

    def test_parallel_prefetch_warms_each_chains_next_fetch(self):
        api = RestrictedSocialAPI(paper_barbell())
        walkers = ParallelWalkers(
            [SimpleRandomWalk(api, start=0, seed=i) for i in range(3)],
            prefetch=True,
        )
        api.query(0)  # the shared start, as the chains' first round fetches it
        predicted = [s.predict_next_fetch(max_steps=1) for s in walkers.chains]
        assert any(t is not None for t in predicted)
        walkers.prefetch_candidates()
        # exactly the predicted fetches were billed into the batch...
        assert api.query_cost == 1 + len({t for t in predicted if t is not None})
        # ...and each chain's next fetch is now a cache hit
        for target in predicted:
            if target is not None:
                assert api.query(target).from_cache

    def test_mto_replacement_rewires(self):
        total = 0
        for seed in range(8):
            g = Graph(
                [
                    ("u", "v"),
                    ("v", "a"),
                    ("v", "b"),
                    ("u", "x"),
                    ("a", "y"),
                    ("b", "z"),
                    ("x", "y"),
                    ("y", "z"),
                ]
            )
            api = RestrictedSocialAPI(g)
            mto = MTOSampler(api, start="u", seed=seed)
            for _ in range(200):
                mto.step()
            total += mto.overlay.replacement_count
        assert total > 0
