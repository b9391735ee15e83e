"""Property tests for overlay consistency and public API sanity."""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.overlay import OverlayGraph
from repro.errors import EdgeNotFoundError, ExperimentError, WalkError
from repro.generators import complete_graph
from repro.graph import Graph
from repro.interface import RestrictedSocialAPI


@st.composite
def modification_scripts(draw):
    """Sequences of (op, u, v) overlay actions on K6."""
    ops = st.tuples(
        st.sampled_from(["materialize", "remove", "add"]),
        st.integers(0, 5),
        st.integers(0, 5),
    )
    return draw(st.lists(ops, max_size=25))


class TestOverlaySymmetryProperty:
    @settings(max_examples=60, deadline=None)
    @given(modification_scripts())
    def test_materialized_views_always_symmetric(self, script):
        api = RestrictedSocialAPI(complete_graph(6))
        overlay = OverlayGraph(api)
        for op, u, v in script:
            if op == "materialize":
                overlay.ensure_known(u)
            elif u != v:
                try:
                    if op == "remove":
                        overlay.remove_edge(u, v)
                    else:
                        overlay.add_edge(u, v)
                except EdgeNotFoundError:
                    pass
        known = list(overlay.known_nodes())
        for a in known:
            for b in known:
                if a == b:
                    continue
                assert overlay.has_edge(a, b) == overlay.has_edge(b, a)

    @settings(max_examples=40, deadline=None)
    @given(modification_scripts())
    def test_lazy_materialization_agrees_with_eager(self, script):
        # Applying the same script with eager vs lazy materialization of a
        # probe node must produce the same final neighborhood for it.
        def run(eager: bool):
            api = RestrictedSocialAPI(complete_graph(6))
            overlay = OverlayGraph(api)
            if eager:
                overlay.ensure_known(0)
            for op, u, v in script:
                if op == "materialize":
                    overlay.ensure_known(u)
                elif u != v:
                    try:
                        if op == "remove":
                            overlay.remove_edge(u, v)
                        else:
                            overlay.add_edge(u, v)
                    except EdgeNotFoundError:
                        return None  # eager/lazy may differ in error timing
                    except Exception:
                        raise
            overlay.ensure_known(0)
            return overlay.neighbors(0)

        eager = run(True)
        lazy = run(False)
        if eager is not None and lazy is not None:
            assert eager == lazy


NODES = st.integers(0, 7)
PICK = st.integers(0, 63)


def overlay_programs():
    """A base graph on nodes 0..7 plus a program of overlay ops on it.

    ``remove_edge``/``replace`` pick ``(u, v)`` by index among the edges
    of materialized rows, so each one rewires a row the overlay holds;
    ``remove`` takes any pair and may be refused.
    """
    edges = st.lists(st.tuples(NODES, NODES).filter(lambda p: p[0] != p[1]), max_size=20)
    ops = st.lists(
        st.one_of(
            st.tuples(st.just("materialize"), NODES, NODES, NODES),
            st.tuples(st.just("remove"), NODES, NODES, NODES),
            st.tuples(st.just("remove_edge"), PICK, PICK, NODES),
            st.tuples(st.just("add"), NODES, NODES, NODES),
            st.tuples(st.just("replace"), PICK, PICK, NODES),
            st.tuples(st.just("save"), NODES, NODES, NODES),
            st.tuples(st.just("load"), NODES, NODES, NODES),
        ),
        max_size=40,
    )
    return st.tuples(edges, ops)


class OverlayModel:
    """Insertion-ordered list model of G*: materialized rows plus the lazy
    removal/addition deltas for nodes not yet materialized."""

    def __init__(self, base_rows):
        self.base_rows = base_rows
        self.known = {}
        self.removed = {}
        self.added = {}

    def materialize(self, u):
        if u not in self.known:
            removed = self.removed.get(u, set())
            row = [v for v in self.base_rows[u] if v not in removed]
            row += [v for v in self.added.get(u, []) if v not in row]
            self.known[u] = row

    def carries(self, u, v):
        return all(b in self.known[a] for a, b in ((u, v), (v, u)) if a in self.known)

    def remove(self, u, v):
        for a, b in ((u, v), (v, u)):
            self.removed.setdefault(a, set()).add(b)
            if b in self.added.get(a, []):
                self.added[a].remove(b)
            if a in self.known:
                self.known[a].remove(b)

    def add(self, u, v):
        for a, b in ((u, v), (v, u)):
            row = self.added.setdefault(a, [])
            if b not in row:
                row.append(b)
            self.removed.get(a, set()).discard(b)
            if a in self.known and b not in self.known[a]:
                self.known[a].append(b)

    def pick_edge(self, i, j):
        """The ``j``-th edge of the ``i``-th non-empty row, or ``None``."""
        rows = [(n, row) for n, row in self.known.items() if row]
        if not rows:
            return None
        u, row = rows[i % len(rows)]
        return u, row[j % len(row)]

    def snapshot(self):
        return copy.deepcopy((self.known, self.removed, self.added))

    def restore(self, snap):
        self.known, self.removed, self.added = copy.deepcopy(snap)


def _apply_overlay_op(overlay, model, saved, op, u, v, w):
    if op == "materialize":
        overlay.ensure_known(u)
        model.materialize(u)
    elif op == "remove" and u != v:
        if model.carries(u, v):
            overlay.remove_edge(u, v)
            model.remove(u, v)
        else:
            with pytest.raises(EdgeNotFoundError):
                overlay.remove_edge(u, v)
    elif op == "add" and u != v:
        overlay.add_edge(u, v)
        model.add(u, v)
    elif op in ("remove_edge", "replace"):
        edge = model.pick_edge(u, v)
        if edge is None or (op == "replace" and edge[0] == w):
            return
        a, b = edge
        if op == "remove_edge":
            overlay.remove_edge(a, b)
            model.remove(a, b)
        else:
            # w == b re-appends the edge at the end of a's row
            overlay.replace_edge(a, b, w)
            model.remove(a, b)
            model.add(a, w)
    elif op == "save":
        saved[:] = [overlay.state_dict(), model.snapshot()]
    elif op == "load":
        overlay.load_state(saved[0])
        model.restore(saved[1])


def _assert_rows_and_draws(overlay, model, seed):
    for node in range(8):
        row = model.known.get(node)
        if row is None:
            with pytest.raises(WalkError):
                overlay.neighbors_seq(node)
            continue
        assert overlay.neighbors_seq(node) == tuple(row)
        live, mirror = random.Random(seed), random.Random(seed)
        want = row[mirror.randrange(len(row))] if row else None
        assert overlay.random_neighbor(node, live) == want
        # one randrange(degree) per draw, none on an empty row
        assert live.getstate() == mirror.getstate()
    nodes = list(model.known)
    batched = [random.Random(seed + i) for i in range(len(nodes))]
    scalar = [random.Random(seed + i) for i in range(len(nodes))]
    got = overlay.draw_many(nodes, batched)
    assert got == [overlay.random_neighbor(n, r) for n, r in zip(nodes, scalar)]
    assert [r.getstate() for r in batched] == [r.getstate() for r in scalar]
    probe = list(range(8))
    assert overlay.known_mask(probe) == [n in model.known for n in probe]
    degrees = [len(model.known[n]) if n in model.known else -1 for n in probe]
    assert overlay.known_degrees_many(probe) == degrees


class TestDrawDeterminism:
    @settings(deadline=None)
    @given(overlay_programs(), st.integers(min_value=0, max_value=2**31))
    def test_rows_and_draws_follow_list_model(self, program, seed):
        """After every op, G*'s rows are the insertion-ordered list model,
        a seeded draw indexes them with one ``randrange`` and
        ``draw_many`` equals the scalar draws in list order."""
        edges, ops = program
        base = Graph()
        base.add_nodes(range(8))
        base.add_edges(edges)
        rows = {n: [] for n in range(8)}
        for a, b in edges:
            if b not in rows[a]:
                rows[a].append(b)
                rows[b].append(a)
        overlay, model = OverlayGraph(RestrictedSocialAPI(base)), OverlayModel(rows)
        saved = [overlay.state_dict(), model.snapshot()]  # "load" before any "save" empties G*
        for op, u, v, w in ops:
            _apply_overlay_op(overlay, model, saved, op, u, v, w)
            _assert_rows_and_draws(overlay, model, seed)


class TestPublicApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_subpackage_exports_resolve(self):
        import repro.analysis as analysis
        import repro.convergence as convergence
        import repro.datasets as datasets
        import repro.generators as generators
        import repro.graph as graph
        import repro.interface as interface
        import repro.walks as walks

        for module in (analysis, convergence, datasets, generators, graph, interface, walks):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_runner_rejects_bad_runs(self):
        from repro.aggregates.queries import AggregateQuery
        from repro.datasets import load
        from repro.experiments.runner import mean_cost_at_error_curve

        net = load("epinions_like", seed=0, scale=0.1)
        with pytest.raises(ExperimentError):
            mean_cost_at_error_curve(net, AggregateQuery.average_degree(), 5.0, "SRW", [0.1], runs=0)
