"""Property-based tests (hypothesis) for the graph substrate."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NodeNotFoundError
from repro.graph import Graph, connected_components, normalize_edge
from repro.graph.metrics import degree_histogram


def edge_lists(max_nodes: int = 12, max_edges: int = 40):
    nodes = st.integers(min_value=0, max_value=max_nodes - 1)
    pair = st.tuples(nodes, nodes).filter(lambda p: p[0] != p[1])
    return st.lists(pair, max_size=max_edges)


class TestGraphInvariants:
    @given(edge_lists())
    def test_handshake_lemma(self, edges):
        g = Graph(edges)
        assert sum(g.degree(v) for v in g.nodes()) == 2 * g.num_edges

    @given(edge_lists())
    def test_edges_iterated_once_and_canonical(self, edges):
        g = Graph(edges)
        seen = list(g.edges())
        assert len(seen) == len(set(seen)) == g.num_edges
        for u, v in seen:
            assert normalize_edge(u, v) == (u, v)
            assert g.has_edge(u, v) and g.has_edge(v, u)

    @given(edge_lists())
    def test_copy_independence(self, edges):
        g = Graph(edges)
        h = g.copy()
        for u, v in list(h.edges()):
            h.remove_edge(u, v)
        assert h.num_edges == 0
        assert g.num_edges == len({normalize_edge(u, v) for u, v in edges})

    @given(edge_lists())
    def test_remove_all_edges_leaves_nodes(self, edges):
        g = Graph(edges)
        n = g.num_nodes
        for u, v in list(g.edges()):
            assert g.remove_edge(u, v)
        assert g.num_nodes == n
        assert all(g.degree(v) == 0 for v in g.nodes())

    @given(edge_lists())
    def test_components_partition_nodes(self, edges):
        g = Graph(edges)
        comps = connected_components(g)
        union = set()
        total = 0
        for c in comps:
            assert not (union & c)  # disjoint
            union |= c
            total += len(c)
        assert union == set(g.nodes())
        assert total == g.num_nodes

    @given(edge_lists())
    def test_degree_histogram_counts_nodes(self, edges):
        g = Graph(edges)
        hist = degree_histogram(g)
        assert sum(hist.values()) == g.num_nodes

    @given(edge_lists(), st.integers(min_value=0, max_value=11))
    def test_subgraph_edges_subset(self, edges, cutoff):
        g = Graph(edges)
        keep = [v for v in g.nodes() if isinstance(v, int) and v <= cutoff]
        sub = g.subgraph(keep)
        for u, v in sub.edges():
            assert g.has_edge(u, v)
        assert set(sub.nodes()) <= set(g.nodes())

    @given(edge_lists())
    def test_relabel_preserves_degree_sequence(self, edges):
        g = Graph(edges)
        h, mapping = g.relabeled()
        assert sorted(g.degree(v) for v in g.nodes()) == sorted(h.degree(v) for v in h.nodes())


NODES = st.integers(min_value=0, max_value=5)
PICK = st.integers(min_value=0, max_value=63)


def graph_programs():
    """Mutation programs over ``Graph``: ``(op, u, v)`` tuples.

    ``remove_edge`` and ``remove_node`` pick their target by index among
    the live edges and nodes, so every such op mutates the graph.
    """
    return st.lists(
        st.one_of(
            st.tuples(st.just("add_edge"), NODES, NODES),
            st.tuples(st.just("remove_edge"), PICK, PICK),
            st.tuples(st.just("add_node"), NODES, st.just(None)),
            st.tuples(st.just("remove_node"), PICK, st.just(None)),
            st.tuples(st.just("copy"), st.just(None), st.just(None)),
            st.tuples(st.just("subgraph"), st.lists(NODES, max_size=6), st.just(None)),
        ),
        max_size=40,
    )


def _apply(g, model, op, u, v):
    """Run one op on the graph and on the insertion-ordered list model."""
    if op == "add_edge":
        if u != v:
            g.add_edge(u, v)
            for a, b in ((u, v), (v, u)):
                row = model.setdefault(a, [])
                if b not in row:
                    row.append(b)
    elif op == "remove_edge":
        rows = [(n, row) for n, row in model.items() if row]
        if rows:
            a, row = rows[u % len(rows)]
            b = row[v % len(row)]
            assert g.remove_edge(a, b)
            model[a].remove(b)
            model[b].remove(a)
    elif op == "add_node":
        g.add_node(u)
        model.setdefault(u, [])
    elif op == "remove_node":
        if model:
            a = list(model)[u % len(model)]
            g.remove_node(a)
            for w in model.pop(a):
                model[w].remove(a)
    elif op == "copy":
        g = g.copy()
    elif op == "subgraph":
        # Same construction as Graph.subgraph: add the kept nodes, then
        # each kept row's kept neighbors, in the same set order.
        keep = {n for n in u if n in model}
        g = g.subgraph(u)
        sub = {n: [] for n in keep}
        for n in keep:
            for m in model[n]:
                if m in keep and m not in sub[n]:
                    sub[n].append(m)
                    sub[m].append(n)
        model = sub
    return g, model


def _assert_rows_and_draws(g, model, seed):
    for node, row in model.items():
        assert g.neighbors_seq(node) == tuple(row)
        live, mirror = random.Random(seed), random.Random(seed)
        want = row[mirror.randrange(len(row))] if row else None
        assert g.random_neighbor(node, live) == want
        # one randrange(degree) per draw, none on an empty row
        assert live.getstate() == mirror.getstate()
    for node in range(6):
        if node not in model:
            with pytest.raises(NodeNotFoundError):
                g.neighbors_seq(node)


class TestDrawDeterminism:
    @settings(deadline=None)
    @given(graph_programs(), st.integers(min_value=0, max_value=2**31))
    def test_rows_and_draws_follow_list_model(self, program, seed):
        """After every op, ``neighbors_seq`` is the insertion-ordered list
        model and a seeded draw indexes it with one ``randrange``."""
        g, model = Graph(), {}
        for op, u, v in program:
            g, model = _apply(g, model, op, u, v)
            _assert_rows_and_draws(g, model, seed)
