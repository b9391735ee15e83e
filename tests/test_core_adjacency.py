"""Property tests: adjacency rows replay a dict-of-lists reference.

``Graph`` and ``OverlayGraph`` keep one insertion-ordered dict per row plus
a lazily built neighbor tuple.  Their contract is the one the seeded walk
engines rely on: neighbor sequences keep insertion order through every
mutation, a seeded draw consumes exactly one ``randrange(degree)`` (none on
an empty row) and lands on the same node as indexing the reference row, and
the overlay's batched lanes (``draw_many``/``known_mask``/
``known_degrees_many``) agree with their scalar counterparts.  Hypothesis
drives randomized mutation programs against a plain dict-of-lists model.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.overlay import OverlayGraph
from repro.graph import Graph
from repro.interface import RestrictedSocialAPI

NODES = st.integers(min_value=0, max_value=24)


def _ops():
    """A mutation program: (op, node, neighbor-or-row) tuples."""
    return st.lists(
        st.one_of(
            st.tuples(st.just("append"), NODES, NODES),
            st.tuples(st.just("remove"), NODES, NODES),
            st.tuples(st.just("set_row"), NODES, st.lists(NODES, max_size=8)),
            st.tuples(st.just("drop"), NODES, st.just(None)),
        ),
        max_size=60,
    )


def _link(model, u, v):
    for a, b in ((u, v), (v, u)):
        row = model.setdefault(a, [])
        if b not in row:
            row.append(b)


def _unlink(model, u, v):
    model[u].remove(v)
    model[v].remove(u)


def _assert_rows(store, model):
    for node, row in model.items():
        assert store.neighbors_seq(node) == tuple(row)


def _apply_graph(ops):
    """Run one program against a ``Graph`` and the reference in lockstep.

    Rows are undirected, so every edge lands in both endpoints' rows;
    ``set_row`` unlinks the node's current row in order, then links the new
    one; ``drop`` deletes the node.  Rows are checked after every op, so
    the cached neighbor tuples are warm when the next op mutates them.
    """
    g, model = Graph(), {}
    for op, node, arg in ops:
        g.add_node(node)
        model.setdefault(node, [])
        if op == "append":
            if arg != node:
                g.add_edge(node, arg)
                _link(model, node, arg)
        elif op == "remove":
            if arg in model[node]:
                assert g.remove_edge(node, arg)
                _unlink(model, node, arg)
        elif op == "set_row":
            for v in list(model[node]):
                assert g.remove_edge(node, v)
                _unlink(model, node, v)
            for v in arg:
                if v != node:
                    g.add_edge(node, v)
                    _link(model, node, v)
        elif op == "drop":
            g.remove_node(node)
            for v in model.pop(node):
                model[v].remove(node)
        _assert_rows(g, model)
    return g, model


def _apply_overlay(ops):
    """Run one program against G* over an edgeless base graph.

    Every touched node is materialized first, so each row is an overlay
    row; G* has no node deletion, so ``drop`` removes the node's edges and
    leaves its row empty.  Rows are checked after every op.
    """
    base = Graph()
    base.add_nodes(range(25))
    overlay, model = OverlayGraph(RestrictedSocialAPI(base)), {}
    for op, node, arg in ops:
        touched = [node] + (arg if op == "set_row" else [] if arg is None else [arg])
        for n in touched:
            overlay.ensure_known(n)
            model.setdefault(n, [])
        if op == "append":
            if arg != node:
                overlay.add_edge(node, arg)
                _link(model, node, arg)
        elif op == "remove":
            if arg in model[node]:
                overlay.remove_edge(node, arg)
                _unlink(model, node, arg)
        elif op in ("set_row", "drop"):
            for v in list(model[node]):
                overlay.remove_edge(node, v)
                _unlink(model, node, v)
            for v in arg or ():
                if v != node:
                    overlay.add_edge(node, v)
                    _link(model, node, v)
        _assert_rows(overlay, model)
    return overlay, model


class TestMutationReplay:
    @settings(max_examples=120, deadline=None)
    @given(_ops())
    def test_rows_match_dict_reference(self, ops):
        g, model = _apply_graph(ops)
        assert set(g.nodes()) == set(model)
        overlay, omodel = _apply_overlay(ops)
        assert set(overlay.known_nodes()) == set(omodel)
        for store, rows in ((g, model), (overlay, omodel)):
            for node, row in rows.items():
                assert store.degree(node) == len(row)
                assert store.neighbors_seq(node) == tuple(row)

    @settings(max_examples=120, deadline=None)
    @given(_ops(), st.integers(min_value=0, max_value=2**31))
    def test_seeded_draws_are_bit_identical(self, ops, seed):
        """A draw must consume exactly one randrange on the row length."""
        for store, model in (_apply_graph(ops), _apply_overlay(ops)):
            for node, row in model.items():
                a, b = random.Random(seed), random.Random(seed)
                got = store.random_neighbor(node, a)
                want = row[b.randrange(len(row))] if row else None
                assert got == want
                assert a.getstate() == b.getstate()

    @settings(max_examples=60, deadline=None)
    @given(_ops(), st.integers(min_value=0, max_value=2**31))
    def test_draw_many_matches_scalar_draws(self, ops, seed):
        overlay, model = _apply_overlay(ops)
        nodes = sorted(model)
        rngs = [random.Random(seed + i) for i in range(len(nodes))]
        mirrors = [random.Random(seed + i) for i in range(len(nodes))]
        got = overlay.draw_many(nodes, rngs)
        want = [overlay.random_neighbor(n, r) for n, r in zip(nodes, mirrors)]
        assert got == want
        # The batched lane consumes each chain's RNG exactly as the
        # scalar path does — the Mersenne streams stay in lockstep.
        assert [r.getstate() for r in rngs] == [r.getstate() for r in mirrors]

    @settings(max_examples=60, deadline=None)
    @given(_ops())
    def test_batched_lookups_and_csr(self, ops):
        overlay, model = _apply_overlay(ops)
        probe = sorted(model) + [1000, 1001]  # plus never-materialized nodes
        assert overlay.known_mask(probe) == [n in model for n in probe]
        assert overlay.known_degrees_many(probe) == [len(model[n]) if n in model else -1 for n in probe]
        # The exported rows (the state a snapshot carries) keep row order
        # and reload into the same neighbor sequences.
        state = overlay.state_dict()
        assert state["known"] == model
        restored = OverlayGraph(RestrictedSocialAPI(Graph()))
        restored.load_state(state)
        for node, row in model.items():
            assert restored.neighbors_seq(node) == tuple(row)


class TestOverlayRewireReplay:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.tuples(NODES, NODES), min_size=1, max_size=40),
        st.lists(st.tuples(NODES, NODES), max_size=20),
    )
    def test_rewire_sequences_preserve_order(self, edges, rewires):
        """MTO-style rewires (remove one edge, add another) replay."""
        base = Graph()
        base.add_nodes(range(25))
        model = {}
        for u, v in edges:
            if u != v:
                base.add_edge(u, v)
                _link(model, u, v)
        overlay = OverlayGraph(RestrictedSocialAPI(base))
        for node in model:
            overlay.ensure_known(node)
        for node, row in model.items():
            assert overlay.neighbors_seq(node) == tuple(row)
        for u, v in rewires:
            if v in model.get(u, []):
                # replace u–v by u–v: the edge is removed, then re-added
                # at the end of both rows, like remove-then-add rewiring.
                overlay.replace_edge(u, v, v)
                _unlink(model, u, v)
                _link(model, u, v)
                _assert_rows(overlay, model)
        for node, row in model.items():
            assert overlay.neighbors_seq(node) == tuple(row)
            rng_a, rng_b = random.Random(7), random.Random(7)
            want = row[rng_b.randrange(len(row))] if row else None
            assert overlay.random_neighbor(node, rng_a) == want
