"""Unit tests for the overlay graph and the offline fixpoint builder."""

import random

import pytest

from repro.analysis import min_conductance_exact
from repro.core import OverlayGraph, build_overlay_fixpoint
from repro.errors import EdgeNotFoundError, SelfLoopError, WalkError
from repro.generators import barbell_graph, complete_graph, paper_barbell
from repro.graph import Graph, is_connected
from repro.interface import RestrictedSocialAPI


def overlay_for(graph: Graph) -> OverlayGraph:
    return OverlayGraph(RestrictedSocialAPI(graph))


class TestMaterialization:
    def test_unknown_until_ensured(self):
        ov = overlay_for(complete_graph(4))
        assert not ov.is_known(0)
        with pytest.raises(WalkError):
            ov.neighbors(0)
        with pytest.raises(WalkError):
            ov.degree(0)
        with pytest.raises(WalkError):
            ov.has_edge(0, 1)

    def test_ensure_known_costs_one_query(self):
        api = RestrictedSocialAPI(complete_graph(4))
        ov = OverlayGraph(api)
        ov.ensure_known(0)
        ov.ensure_known(0)
        assert api.query_cost == 1
        assert ov.neighbors(0) == frozenset({1, 2, 3})

    def test_known_degree_never_queries(self):
        api = RestrictedSocialAPI(complete_graph(4))
        ov = OverlayGraph(api)
        assert ov.known_degree(0) is None
        assert api.query_cost == 0


class TestModifications:
    def test_remove_edge_symmetric(self):
        ov = overlay_for(complete_graph(4))
        ov.ensure_known(0)
        ov.ensure_known(1)
        ov.remove_edge(0, 1)
        assert not ov.has_edge(0, 1)
        assert not ov.has_edge(1, 0)
        assert ov.degree(0) == 2
        assert ov.removal_count == 1

    def test_removal_applies_lazily_to_unmaterialized(self):
        ov = overlay_for(complete_graph(4))
        ov.ensure_known(0)
        ov.remove_edge(0, 1)  # node 1 not yet materialized
        ov.ensure_known(1)
        assert not ov.has_edge(1, 0)
        assert ov.degree(1) == 2

    def test_remove_missing_edge_raises(self):
        ov = overlay_for(Graph([(0, 1), (2, 3)]))
        ov.ensure_known(0)
        with pytest.raises(EdgeNotFoundError):
            ov.remove_edge(0, 2)

    def test_add_edge_and_lazy_application(self):
        ov = overlay_for(Graph([(0, 1), (2, 3)]))
        ov.ensure_known(0)
        ov.add_edge(0, 2)
        assert ov.has_edge(0, 2)
        ov.ensure_known(2)
        assert ov.has_edge(2, 0)

    def test_add_self_loop_rejected(self):
        ov = overlay_for(complete_graph(3))
        with pytest.raises(SelfLoopError):
            ov.add_edge(1, 1)

    def test_replace_edge(self):
        # v has degree 3: neighbors u, a, b. Replace e_uv with e_ua.
        g = Graph([("u", "v"), ("v", "a"), ("v", "b"), ("u", "x"), ("a", "y"), ("b", "z"), ("x", "y"), ("y", "z")])
        ov = overlay_for(g)
        for n in ("u", "v", "a"):
            ov.ensure_known(n)
        assert ov.degree("v") == 3
        ov.replace_edge("u", "v", "a")
        assert not ov.has_edge("u", "v")
        assert ov.has_edge("u", "a")
        assert ov.degree("v") == 2
        assert ov.replacement_count == 1
        assert ov.removal_count == 0  # replacement is not counted as removal

    def test_replace_to_self_rejected(self):
        ov = overlay_for(complete_graph(3))
        ov.ensure_known(0)
        ov.ensure_known(1)
        with pytest.raises(SelfLoopError):
            ov.replace_edge(0, 1, 0)

    def test_readd_removed_edge(self):
        ov = overlay_for(complete_graph(3))
        ov.ensure_known(0)
        ov.ensure_known(1)
        ov.remove_edge(0, 1)
        ov.add_edge(0, 1)
        assert ov.has_edge(0, 1)
        ov.ensure_known(2)  # unaffected node
        assert ov.has_edge(2, 0)


class TestVersion:
    def test_every_change_to_g_star_moves_it(self):
        ov = overlay_for(complete_graph(5))
        seen = [ov.version]
        ov.ensure_known(0)
        seen.append(ov.version)
        ov.ensure_known(0)  # already materialized: no change
        assert ov.version == seen[-1]
        ov.ensure_known_many([1, 2])
        seen.append(ov.version)
        ov.remove_edge(0, 1)
        seen.append(ov.version)
        ov.add_edge(0, 1)
        seen.append(ov.version)
        ov.ensure_known(3)
        ov.remove_edge(0, 3)
        seen.append(ov.version)
        ov.replace_edge(0, 2, 3)
        seen.append(ov.version)
        ov.load_state(ov.state_dict())
        seen.append(ov.version)
        assert seen == sorted(set(seen))

    def test_reads_leave_it(self):
        ov = overlay_for(complete_graph(4))
        ov.ensure_known(0)
        before = ov.version
        ov.neighbors_seq(0)
        ov.degree(0)
        ov.is_known(1)
        ov.random_neighbor(0, random.Random(1))
        assert ov.version == before
        assert "version" not in ov.state_dict()


class TestNeighborTuples:
    def test_rewiring_drops_cached_rows(self):
        ov = overlay_for(complete_graph(4))
        ov.ensure_known_many([0, 1])
        assert (ov.neighbors_seq(0), ov.neighbors_seq(1)) == ((1, 2, 3), (0, 2, 3))
        ov.remove_edge(0, 1)
        assert (ov.neighbors_seq(0), ov.neighbors_seq(1)) == ((2, 3), (2, 3))
        ov.add_edge(0, 1)
        assert (ov.neighbors_seq(0), ov.neighbors_seq(1)) == ((2, 3, 1), (2, 3, 0))
        ov.replace_edge(0, 2, 2)  # remove then re-add: 2 moves to the end
        assert ov.neighbors_seq(0) == (3, 1, 2)

    def test_load_state_drops_cached_rows(self):
        ov = overlay_for(complete_graph(4))
        ov.ensure_known(0)
        before = ov.state_dict()
        ov.remove_edge(0, 1)
        assert ov.neighbors_seq(0) == (2, 3)
        ov.load_state(before)
        assert ov.neighbors_seq(0) == (1, 2, 3)
        ov.load_state(overlay_for(complete_graph(4)).state_dict())  # empty G*
        with pytest.raises(WalkError):
            ov.random_neighbor(0, random.Random(1))


class TestKnownSubgraph:
    def test_reflects_modifications(self):
        ov = overlay_for(complete_graph(4))
        for n in range(4):
            ov.ensure_known(n)
        ov.remove_edge(0, 1)
        sub = ov.known_subgraph()
        assert sub.num_nodes == 4
        assert not sub.has_edge(0, 1)
        assert sub.num_edges == 5

    def test_partial_materialization(self):
        ov = overlay_for(complete_graph(4))
        ov.ensure_known(0)
        sub = ov.known_subgraph()
        assert sub.num_nodes == 1
        assert sub.num_edges == 0


class TestFixpoint:
    def test_barbell_conductance_never_decreases(self, paper_barbell_phi):
        g = paper_barbell()
        phi0 = paper_barbell_phi
        gstar = build_overlay_fixpoint(g, seed=1)
        assert is_connected(gstar)
        phi1 = min_conductance_exact(gstar).conductance
        assert phi1 >= phi0

    def test_barbell_edges_removed(self):
        g = paper_barbell()
        gstar = build_overlay_fixpoint(g, seed=0)
        assert gstar.num_edges < g.num_edges
        assert gstar.has_edge(0, 11)  # the bridge survives

    def test_original_untouched(self):
        g = paper_barbell()
        build_overlay_fixpoint(g, seed=0)
        assert g.num_edges == 111

    def test_small_barbell_bridge_kept(self):
        g = barbell_graph(6)
        gstar = build_overlay_fixpoint(g, seed=3)
        assert gstar.has_edge(0, 6)
        assert is_connected(gstar)

    def test_replacement_variant_runs(self):
        g = paper_barbell()
        gss = build_overlay_fixpoint(g, use_replacement=True, seed=2)
        assert is_connected(gss)

    def test_sparse_graph_unchanged(self):
        # A cycle has no removable edges (common = 0, degrees 2).
        from repro.generators import cycle_graph

        g = cycle_graph(8)
        gstar = build_overlay_fixpoint(g, seed=0)
        assert gstar == g
