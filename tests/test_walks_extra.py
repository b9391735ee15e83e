"""Tests for the related-work samplers: NBRW and the crawlers."""


import pytest

from repro import AggregateQuery, estimate, ground_truth
from repro.datasets import load
from repro.errors import DeadEndError
from repro.generators import complete_graph, cycle_graph, paper_barbell, star_graph
from repro.graph import Graph
from repro.interface import RestrictedSocialAPI
from repro.walks import (
    BFSCrawler,
    DFSCrawler,
    NonBacktrackingWalk,
    SimpleRandomWalk,
    SnowballCrawler,
)


class TestNonBacktracking:
    def test_never_backtracks_on_cycle(self):
        # On a cycle, NBRW is deterministic drift: it never reverses.
        api = RestrictedSocialAPI(cycle_graph(8))
        walk = NonBacktrackingWalk(api, start=0, seed=0)
        positions = [walk.step() for _ in range(16)]
        # After the first hop the walk circles; 16 steps visit each node
        # twice and never repeat the immediate predecessor.
        for prev, cur, nxt in zip([0] + positions, positions, positions[1:]):
            assert nxt != prev

    def test_degree_one_fallback(self):
        # A path end forces a backtrack rather than a crash.
        api = RestrictedSocialAPI(Graph([(0, 1)]))
        walk = NonBacktrackingWalk(api, start=0, seed=0)
        assert walk.step() == 1
        assert walk.step() == 0  # only option is to reverse

    def test_weight_is_inverse_degree(self):
        api = RestrictedSocialAPI(star_graph(4))
        walk = NonBacktrackingWalk(api, start=0, seed=1)
        walk.step()
        assert walk.weight(0) == pytest.approx(0.25)

    def test_unbiased_degree_estimate(self):
        g = paper_barbell()
        api = RestrictedSocialAPI(g)
        walk = NonBacktrackingWalk(api, start=0, seed=2)
        run = walk.run(num_samples=4000)
        res = estimate(AggregateQuery.average_degree(), run.samples, api)
        truth = ground_truth(AggregateQuery.average_degree(), g)
        assert abs(res.estimate - truth) / truth < 0.1

    def test_faster_decorrelation_than_srw_on_cycle(self):
        from repro.analysis.walk_stats import integrated_autocorrelation_time

        def iat(cls):
            g = Graph()
            # A cycle with distinguishable degrees: pendant on every other
            # node so the trace is non-constant.
            for i in range(20):
                g.add_edge(i, (i + 1) % 20)
            for i in range(0, 20, 2):
                g.add_edge(i, 100 + i)
            walk = cls(RestrictedSocialAPI(g), start=0, seed=3)
            for _ in range(4000):
                walk.step()
            return integrated_autocorrelation_time(list(walk.trace))

        assert iat(NonBacktrackingWalk) <= iat(SimpleRandomWalk) * 1.2


class TestCrawlers:
    def test_bfs_visits_everything(self):
        g = paper_barbell()
        api = RestrictedSocialAPI(g)
        crawler = BFSCrawler(api, start=0, seed=0)
        while True:
            try:
                crawler.step()
            except DeadEndError:
                break
        assert crawler.visited == frozenset(g.nodes())
        assert api.query_cost == g.num_nodes

    def test_dfs_visits_everything(self):
        g = complete_graph(8)
        api = RestrictedSocialAPI(g)
        crawler = DFSCrawler(api, start=0, seed=1)
        for _ in range(7):
            crawler.step()
        assert len(crawler.visited) == 8

    def test_frontier_exhaustion_raises(self):
        api = RestrictedSocialAPI(Graph([(0, 1)]))
        crawler = BFSCrawler(api, start=0, seed=0)
        crawler.step()
        with pytest.raises(DeadEndError):
            crawler.step()

    def test_snowball_fanout_bound(self):
        g = star_graph(30)
        api = RestrictedSocialAPI(g)
        crawler = SnowballCrawler(api, start=0, k=3, seed=2)
        visited = 0
        while True:
            try:
                crawler.step()
                visited += 1
            except DeadEndError:
                break
        # Hub keeps only 3 of its 30 leaves.
        assert visited == 3

    def test_snowball_invalid_k(self):
        api = RestrictedSocialAPI(complete_graph(3))
        with pytest.raises(ValueError):
            SnowballCrawler(api, start=0, k=0)

    def test_bfs_degree_bias_demonstrated(self):
        # BFS over-samples hubs: crawling a partial BFS sample of a
        # heavy-tailed stand-in yields a higher naive mean degree than the
        # population's.
        net = load("epinions_like", seed=0, scale=0.2)
        api = net.interface()
        crawler = BFSCrawler(api, start=net.seed_node(0), seed=3)
        sampled = []
        for _ in range(120):
            node = crawler.step()
            sampled.append(net.graph.degree(node))
        truth = ground_truth(AggregateQuery.average_degree(), net.graph)
        naive = sum(sampled) / len(sampled)
        assert naive > truth  # the classic BFS bias

    def test_crawler_skips_private_users(self):
        api = RestrictedSocialAPI(complete_graph(5), inaccessible={2})
        crawler = BFSCrawler(api, start=0, seed=4)
        seen = set()
        while True:
            try:
                seen.add(crawler.step())
            except DeadEndError:
                break
        assert 2 not in seen
        assert seen == {1, 3, 4}

    @pytest.mark.parametrize("crawler_cls", [BFSCrawler, DFSCrawler, SnowballCrawler])
    def test_crawl_logs_one_record_per_visit(self, crawler_cls):
        # Each visit reads the node once: the start's bootstrap read feeds
        # the first frontier, and a step's fetch feeds the next one.
        net = load("epinions_like", seed=0, scale=0.15)
        api = net.interface()
        crawler = crawler_cls(api, start=net.seed_node(0), seed=3)
        visits = [crawler.step() for _ in range(100)]
        records = list(api.log)
        assert [r.user for r in records] == [net.seed_node(0), *visits]
        assert all(r.billed for r in records)
        assert api.query_cost == 101
