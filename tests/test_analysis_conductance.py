"""Unit tests for conductance (Definition 3/4) and cut search."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    cheeger_bounds,
    cross_cutting_edges,
    cut_conductance,
    min_conductance_exact,
    sweep_conductance,
)
from repro.generators import barbell_graph, complete_graph, cycle_graph, paper_barbell
from repro.graph import Graph


class TestCutConductance:
    def test_paper_barbell_clique_cut(self):
        # Running example: Φ(G) = 1/(C(11,2)+1) = 1/56 ≈ 0.018.
        g = paper_barbell()
        left = set(range(11))
        assert cut_conductance(g, left) == pytest.approx(1 / 56)

    def test_symmetric_in_side(self):
        g = paper_barbell()
        left = set(range(11))
        right = set(range(11, 22))
        assert cut_conductance(g, left) == pytest.approx(cut_conductance(g, right))

    def test_single_node_cut_on_complete(self):
        g = complete_graph(5)
        # S={0}: cut=4, incident(S)=4, incident(S̄)=10 → 4/4 = 1.
        assert cut_conductance(g, {0}) == pytest.approx(1.0)

    def test_invalid_sides(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            cut_conductance(g, set())
        with pytest.raises(ValueError):
            cut_conductance(g, {0, 1, 2})
        with pytest.raises(ValueError):
            cut_conductance(g, {99})


class TestMinConductanceExact:
    def test_small_barbell_minimum_is_clique_split(self):
        g = barbell_graph(5)  # 10 nodes
        result = min_conductance_exact(g)
        assert result.conductance == pytest.approx(1 / 11)  # C(5,2)+1
        assert result.side in (frozenset(range(5)), frozenset(range(5, 10)))
        assert result.cut_edges == frozenset({(0, 5)})

    def test_paper_barbell_value(self):
        result = min_conductance_exact(paper_barbell())
        assert result.conductance == pytest.approx(1 / 56)
        assert result.cut_edges == frozenset({(0, 11)})

    def test_matches_bruteforce_on_random_graph(self):
        import itertools
        import random

        rng = random.Random(4)
        g = Graph()
        nodes = list(range(8))
        g.add_nodes(nodes)
        for i in range(8):
            for j in range(i + 1, 8):
                if rng.random() < 0.4:
                    g.add_edge(i, j)
        from repro.graph import is_connected

        if not is_connected(g):
            g.add_edges((i, i + 1) for i in range(7))
        best = math.inf
        for r in range(1, 8):
            for side in itertools.combinations(nodes, r):
                best = min(best, cut_conductance(g, set(side)))
        assert min_conductance_exact(g).conductance == pytest.approx(best)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_all_subsets_reference(self, data):
        # Random connected graphs of up to 12 nodes: a spanning tree plus
        # random extra edges.
        n = data.draw(st.integers(2, 12))
        g = Graph()
        g.add_nodes(range(n))
        for v in range(1, n):
            g.add_edge(data.draw(st.integers(0, v - 1)), v)
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
        g.add_edges(data.draw(st.lists(pairs, max_size=3 * n)))
        # Every cut with node 0 outside S, scored by cut_conductance in the
        # same Gray-code order, the first strict minimum kept.
        nodes = list(g.nodes())
        best, best_side = math.inf, None
        for code in range(1, 1 << (n - 1)):
            gray = code ^ (code >> 1)
            side = frozenset(nodes[i + 1] for i in range(n - 1) if (gray >> i) & 1)
            phi = cut_conductance(g, side)
            if phi < best:
                best, best_side = phi, side
        result = min_conductance_exact(g)
        assert result.conductance == best
        assert result.side == best_side

    def test_too_large_rejected(self):
        g = complete_graph(23)
        with pytest.raises(ValueError):
            min_conductance_exact(g)

    def test_too_small_rejected(self):
        g = Graph()
        g.add_node(0)
        with pytest.raises(ValueError):
            min_conductance_exact(g)

    def test_edgeless_rejected(self):
        g = Graph()
        g.add_nodes([0, 1])
        with pytest.raises(ValueError):
            min_conductance_exact(g)


class TestCrossCuttingEdges:
    def test_barbell_bridge_is_the_only_one(self):
        g = barbell_graph(5)
        assert cross_cutting_edges(g) == frozenset({(0, 5)})

    def test_cycle_all_edges_cross_cutting(self):
        # Every minimum cut of a cycle severs two edges; by symmetry every
        # edge participates in some minimizing cut.
        g = cycle_graph(6)
        assert cross_cutting_edges(g) == frozenset(g.edges())

    def test_two_bridges_both_cross_cutting(self):
        g = barbell_graph(4, 2)
        crossing = cross_cutting_edges(g)
        assert (0, 4) in crossing and (1, 5) in crossing


class TestSweepConductance:
    def test_finds_barbell_bottleneck(self):
        g = paper_barbell()
        result = sweep_conductance(g)
        assert result.conductance == pytest.approx(1 / 56)
        assert result.side in (frozenset(range(11)), frozenset(range(11, 22)))

    def test_upper_bounds_exact(self):
        g = barbell_graph(6)
        exact = min_conductance_exact(g).conductance
        swept = sweep_conductance(g).conductance
        assert swept >= exact - 1e-12

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            sweep_conductance(Graph([(0, 1)]))


class TestCheegerBounds:
    def test_bounds_sandwich_barbell(self, paper_barbell_phi):
        g = paper_barbell()
        low, high = cheeger_bounds(g)
        phi = paper_barbell_phi
        # Directional sanity: paper-variant conductance sits within a
        # factor-2-adjusted Cheeger window.
        assert low / 2 <= phi <= 2 * high

    def test_complete_graph_gap_large(self):
        low, high = cheeger_bounds(complete_graph(8))
        assert low > 0.3
        assert high >= low
