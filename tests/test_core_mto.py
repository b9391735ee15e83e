"""Unit tests for the MTO-Sampler (Algorithm 1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import min_conductance_exact
from repro.convergence import FixedLengthMonitor
from repro.core import MTOSampler, OverlayGraph, extension_criterion, removal_criterion
from repro.errors import EdgeNotFoundError
from repro.generators import complete_graph, cycle_graph, paper_barbell
from repro.graph import Graph, is_connected
from repro.interface import RestrictedSocialAPI


def sampler_on(graph: Graph, start=0, seed=0, **kw) -> MTOSampler:
    return MTOSampler(RestrictedSocialAPI(graph), start=start, seed=seed, **kw)


@st.composite
def partial_overlays(draw):
    """A random graph on at most 14 nodes under a partly materialized overlay.

    "Page" nodes hang off both ends of an edge, so common neighbors of
    degree 2 and 3 are frequent; removals interleave with
    materializations, so some land on known rows and some wait as lazy
    deltas.
    """
    n = draw(st.integers(3, 8))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph()
    g.add_nodes(range(n))
    for (a, b), kept in zip(pairs, keep):
        if kept:
            g.add_edge(a, b)
    base = st.integers(0, n - 1)
    for page, (a, b) in enumerate(draw(st.lists(st.tuples(base, base), max_size=14 - n)), start=n):
        g.add_edge(page, a)
        if b != a:
            g.add_edge(page, b)
            g.add_edge(a, b)
    api = RestrictedSocialAPI(g)
    overlay = OverlayGraph(api)
    nodes = st.integers(0, g.num_nodes - 1)
    for op, a, b in draw(st.lists(st.tuples(st.integers(0, 2), nodes, nodes), max_size=3 * g.num_nodes)):
        if op:  # two materializations per removal
            overlay.ensure_known(a)
        elif a != b:
            try:
                overlay.remove_edge(a, b)
            except EdgeNotFoundError:
                pass
    return api, overlay


class TestStepMechanics:
    def test_moves_along_overlay_edges(self):
        mto = sampler_on(paper_barbell(), seed=1)
        for _ in range(40):
            nxt = mto.step()
            # every committed hop is an overlay edge at commit time — we
            # can at least assert both endpoints are materialized and the
            # walk moved to a real node.
            assert mto.overlay.is_known(nxt)

    def test_removals_happen_on_clique(self):
        mto = sampler_on(paper_barbell(), seed=2)
        for _ in range(200):
            mto.step()
        assert mto.overlay.removal_count > 0

    def test_removal_disabled(self):
        mto = sampler_on(paper_barbell(), seed=2, enable_removal=False)
        for _ in range(100):
            mto.step()
        assert mto.overlay.removal_count == 0

    def test_replacement_disabled(self):
        mto = sampler_on(paper_barbell(), seed=2, enable_replacement=False)
        for _ in range(100):
            mto.step()
        assert mto.overlay.replacement_count == 0

    def test_no_modifications_reduces_to_srw(self):
        # With both rules off, the sampler is a (lazy) SRW: it must follow
        # original edges only.
        g = paper_barbell()
        mto = sampler_on(g, seed=3, enable_removal=False, enable_replacement=False)
        prev = mto.current
        for _ in range(50):
            nxt = mto.step()
            assert g.has_edge(prev, nxt)
            prev = nxt

    def test_cycle_graph_never_modified(self):
        # No removable edges, no degree-3 nodes: MTO behaves exactly as SRW.
        mto = sampler_on(cycle_graph(10), seed=4)
        for _ in range(100):
            mto.step()
        assert mto.overlay.removal_count == 0
        assert mto.overlay.replacement_count == 0

    def test_invalid_params(self):
        api = RestrictedSocialAPI(complete_graph(3))
        with pytest.raises(ValueError):
            MTOSampler(api, start=0, replacement_probability=1.5)
        with pytest.raises(ValueError):
            MTOSampler(api, start=0, max_redraws=0)


class TestOverlayConsistency:
    def test_overlay_stays_connected_on_barbell(self):
        mto = sampler_on(paper_barbell(), seed=5)
        for _ in range(500):
            mto.step()
        sub = mto.overlay.known_subgraph()
        if sub.num_nodes == 22:  # fully explored
            assert is_connected(sub)

    def test_conductance_never_decreases_on_barbell(self, paper_barbell_phi):
        g = paper_barbell()
        phi0 = paper_barbell_phi
        mto = sampler_on(g, seed=6)
        for _ in range(600):
            mto.step()
        sub = mto.overlay.known_subgraph()
        if sub.num_nodes == g.num_nodes and is_connected(sub):
            phi1 = min_conductance_exact(sub).conductance
            assert phi1 >= phi0 - 1e-12

    def test_weight_uses_overlay_degree(self):
        mto = sampler_on(paper_barbell(), seed=7)
        for _ in range(100):
            mto.step()
        node = mto.current
        assert mto.weight(node) == pytest.approx(1.0 / mto.overlay.degree(node))

    def test_weight_unknown_node_raises(self):
        from repro.errors import WalkError

        mto = sampler_on(paper_barbell(), seed=0)
        with pytest.raises(WalkError):
            mto.weight(21)  # far side, not yet visited


class TestRemovalTestOnLiveOverlays:
    @settings(max_examples=60, deadline=None)
    @given(partial_overlays(), st.booleans())
    def test_early_exits_never_change_an_answer(self, api_overlay, use_cache):
        api, overlay = api_overlay
        known = list(overlay.known_nodes())
        if not known:
            return
        mto = MTOSampler(api, start=known[0], overlay=overlay, use_degree_cache=use_cache)
        for u in known:
            for v in overlay.neighbors_seq(u):
                if not overlay.is_known(v) or overlay.degree(u) < 2 or overlay.degree(v) < 2:
                    continue
                nu, nv = overlay.neighbors_view(u), overlay.neighbors_view(v)
                common = nu & nv
                if use_cache:
                    cached = {w: overlay.known_degree(w) for w in common if overlay.is_known(w)}
                    expected = extension_criterion(len(common), len(nu), len(nv), cached)
                else:
                    expected = removal_criterion(len(common), len(nu), len(nv))
                assert mto._removable(nu, nv) == expected, (u, v)

    def test_theorem_5_reads_the_overlay_degree(self):
        # k_u = k_v = 4 with common {a, b}: Theorem 3 says no.  Once a is
        # materialized and its overlay row is cut to {u, v}, its overlay
        # degree 2 (not its original degree 4) certifies the edge.
        g = Graph([("u", "v"), ("u", "a"), ("a", "v"), ("u", "b"), ("b", "v"), ("u", "x"), ("v", "y")])
        g.add_edges([("a", "p"), ("a", "q")])
        api = RestrictedSocialAPI(g)
        overlay = OverlayGraph(api)
        overlay.ensure_known("v")
        mto = MTOSampler(api, start="u", overlay=overlay)
        blind = MTOSampler(api, start="u", overlay=overlay, use_degree_cache=False)
        nu, nv = overlay.neighbors_view("u"), overlay.neighbors_view("v")
        overlay.ensure_known("a")
        assert mto._removable(nu, nv) is False  # a's overlay degree is 4
        overlay.remove_edge("a", "p")
        overlay.remove_edge("a", "q")
        assert mto._removable(nu, nv) is True
        assert blind._removable(nu, nv) is False


class TestSamplingRun:
    def test_run_with_monitor(self):
        mto = sampler_on(paper_barbell(), seed=8)
        run = mto.run(num_samples=30, monitor=FixedLengthMonitor(100))
        assert len(run.samples) == 30
        assert run.converged
        assert run.query_cost <= 22  # can't exceed the node count

    def test_samples_record_costs_nondecreasing(self):
        mto = sampler_on(paper_barbell(), seed=9)
        run = mto.run(num_samples=50)
        costs = [s.query_cost for s in run.samples]
        assert costs == sorted(costs)

    def test_estimation_close_to_truth(self):
        from repro import AggregateQuery, estimate, ground_truth

        g = paper_barbell()
        api = RestrictedSocialAPI(g)
        mto = MTOSampler(api, start=0, seed=10)
        run = mto.run(num_samples=3000)
        res = estimate(AggregateQuery.average_degree(), run.samples, api)
        truth = ground_truth(AggregateQuery.average_degree(), g)
        assert abs(res.estimate - truth) / truth < 0.15
