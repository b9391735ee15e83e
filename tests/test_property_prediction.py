"""Property-based tests for universal prefetch prediction.

The prediction contract every walk engine honors: replaying the engine's
own draw discipline through cached territory, on the chain's own future
draws, yields either ``None`` (unresolvable — private users, dead ends, a
rewiring branch, or no fetch within the horizon) or the *exact* user the
walk's next billed §II-B query will hit.  Hypothesis sweeps random
connected graphs, walk seeds, warm-up depths, and pre-warmed cache
states; a wrong prediction here means a planner would prefetch — and
bill — a neighborhood the walk never visits.

Each chain keeps one persistent replay cursor between predictions
(:meth:`~repro.walks.base.RandomWalkSampler._replay_fetch`), an index
into the chain's word stream, so a prediction continues the previous
replay instead of starting again at the live node.  The differential
family interleaves predictions, prefetches, live steps and
``load_state`` at random and checks every cursor answer against a fresh
replay's; named cases cover a reloaded RNG at the same position,
TTL'd and capacity-bounded caches, and a sharer's write to an MTO
overlay.

The ledger family checks the planner's books over mixed-engine rosters:
the prefetch ledger must balance (issued = used + wasted + outstanding)
and the per-engine prediction counters must cover exactly the engine
types that walked, both for one scheduler hosting a heterogeneous
roster and for a multi-tenant service whose tenants run different
engines over one shared cache.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compose import (
    FleetSpec,
    PlannerSpec,
    StackConfig,
    WalkSpec,
    build_fleet,
)
from repro.core.mto import MTOSampler
from repro.core.overlay import OverlayGraph
from repro.datastore.kv import KeyValueStore
from repro.errors import QueryBudgetExhaustedError
from repro.generators import barbell_graph
from repro.graph import Graph
from repro.interface.api import RestrictedSocialAPI
from repro.interface.cache import NeighborhoodCache
from repro.planning import DispatchPlanner
from repro.utils.rng import WordStream
from repro.walks.mhrw import MetropolisHastingsWalk
from repro.walks.nbrw import NonBacktrackingWalk
from repro.walks.scheduler import EventDrivenWalkers
from repro.walks.srw import SimpleRandomWalk
from repro.service import SamplingService

ENGINES = {
    "srw": SimpleRandomWalk,
    "mhrw": MetropolisHastingsWalk,
    "nbrw": NonBacktrackingWalk,
    "mto": MTOSampler,
}

HORIZON = 32


@st.composite
def connected_graphs(draw, min_nodes=5, max_nodes=12):
    """Small connected random graphs (spanning tree + extra edges)."""
    n = draw(st.integers(min_nodes, max_nodes))
    g = Graph()
    g.add_nodes(range(n))
    for v in range(1, n):
        g.add_edge(draw(st.integers(0, v - 1)), v)
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1]),
            max_size=2 * n,
        )
    )
    g.add_edges(extra)
    return g


def _next_billed_fetch(walk, api, horizon=HORIZON):
    """Step ``walk`` live to its next billed user, in bill order, or ``None``.

    One MTO step can bill twice (the drawn candidate, then a Theorem-4
    replacement target), so the first *billed log record* past the mark —
    not the set difference — is what a prediction must have named.
    """
    mark = len(api.log)
    for _ in range(horizon):
        walk.step()
        for record in api.log.tail(len(api.log) - mark):
            if record.billed:
                return record.user
        mark = len(api.log)
    return None


class TestPredictionMatchesReality:
    """predicted fetch == the walk's actual next billed §II-B query."""

    @settings(max_examples=40, deadline=None)
    @given(
        graph=connected_graphs(),
        engine=st.sampled_from(sorted(ENGINES)),
        seed=st.integers(0, 2**20),
        warmup=st.integers(0, 24),
    )
    def test_prediction_is_the_next_billed_query(self, graph, engine, seed, warmup):
        api = RestrictedSocialAPI(graph)
        walk = ENGINES[engine](api, start=0, seed=seed)
        for _ in range(warmup):
            walk.step()
        predicted = walk.predict_next_fetch(max_steps=HORIZON)
        actual = _next_billed_fetch(walk, api)
        if predicted is not None:
            assert predicted == actual, f"{engine} predicted {predicted!r} but the walk billed {actual!r}"

    @settings(max_examples=25, deadline=None)
    @given(
        graph=connected_graphs(),
        engine=st.sampled_from(sorted(ENGINES)),
        seed=st.integers(0, 2**20),
        warm_fraction=st.floats(0.0, 1.0),
    )
    def test_prediction_holds_over_warmed_caches(self, graph, engine, seed, warm_fraction):
        """Pre-warmed (never-billed) cache entries extend the replay
        horizon without breaking the contract — warm knowledge changes
        *which* fetch comes next, not the predictor's correctness.

        One refinement over the cold property: MTO predicts its next
        *overlay materialization* target, and warm entries make that
        ``ensure_known`` a free cache hit instead of a billed query — so
        the billing claim only applies when the predicted neighborhood
        is uncached (prefetching a cached prediction is a free no-op
        either way)."""
        api = RestrictedSocialAPI(graph)
        warm_nodes = [v for v in sorted(graph.nodes()) if (v % 10) / 10 < warm_fraction]
        api.warm_start({v: (tuple(sorted(graph.neighbors(v))), {}) for v in warm_nodes})
        walk = ENGINES[engine](api, start=0, seed=seed)
        predicted = walk.predict_next_fetch(max_steps=HORIZON)
        if predicted is not None and not api.cache.has(predicted):
            assert _next_billed_fetch(walk, api) == predicted

    @settings(max_examples=25, deadline=None)
    @given(
        graph=connected_graphs(min_nodes=6),
        engine=st.sampled_from(sorted(ENGINES)),
        seed=st.integers(0, 2**20),
        private=st.sets(st.integers(1, 5), min_size=1, max_size=3),
    )
    def test_private_refusals_never_mispredict(self, graph, engine, seed, private):
        """Networks with private users make replay data-dependent (the
        refusal branches consume different draw counts), so the engines
        must answer ``None`` rather than guess — a planner acting on a
        wrong guess would bill a neighborhood the walk never fetches."""
        api = RestrictedSocialAPI(graph, inaccessible=frozenset(private))
        walk = ENGINES[engine](api, start=0, seed=seed)
        for _ in range(8):
            walk.step()
        assert walk.predict_next_fetch(max_steps=HORIZON) is None


def _fresh_prediction(walk, horizon):
    """What a fresh replay from the live step predicts; the walk's cursor is untouched."""
    saved = walk._cursor
    walk._cursor = None
    try:
        return walk.predict_next_fetch(max_steps=horizon)
    finally:
        walk._cursor = saved


def _checked_prediction(walk, horizon):
    """The cursor's prediction, asserted equal to a fresh replay's."""
    live_rng = walk.rng.getstate()
    fresh = _fresh_prediction(walk, horizon)
    predicted = walk.predict_next_fetch(max_steps=horizon)
    assert predicted == fresh, (
        f"{type(walk).__name__} cursor predicted {predicted!r}, "
        f"a fresh replay {fresh!r} (horizon {horizon}, step {walk.steps})"
    )
    assert walk.rng.getstate() == live_rng  # no live draws consumed
    return predicted


#: One interleaving step: plan (the planner's loop: predict, prefetch the
#: target, ask again, up to ``arg`` times), predict alone at a horizon,
#: fetch an arbitrary node (another chain's query), step live, or capture
#: / reload the sampler's state.
OPS = st.one_of(
    st.tuples(st.just("plan"), st.integers(1, 4)),
    st.tuples(st.just("predict"), st.integers(1, 12)),
    st.tuples(st.just("fetch"), st.integers(0, 11)),
    st.tuples(st.just("step"), st.integers(1, 3)),
    st.tuples(st.just("save"), st.just(0)),
    st.tuples(st.just("load"), st.just(0)),
)


def _run_interleaving(walk, api, graph, ops):
    saved = None
    nodes = sorted(graph.nodes())
    for op, arg in ops:
        if op == "plan":
            for _ in range(arg):
                target = _checked_prediction(walk, HORIZON)
                if target is None:
                    break
                api.query(target)
        elif op == "predict":
            _checked_prediction(walk, arg)
        elif op == "fetch":
            api.query(nodes[arg % len(nodes)])
        elif op == "step":
            for _ in range(arg):
                walk.step()
        elif op == "save":
            saved = walk.state_dict()
        elif saved is not None:
            walk.load_state(saved)
    _checked_prediction(walk, HORIZON)


class TestReplayCursor:
    """The persistent cursor answers exactly what a fresh replay answers."""

    @settings(deadline=None)  # max_examples comes from the active profile
    @given(
        graph=connected_graphs(),
        engine=st.sampled_from(sorted(ENGINES)),
        seed=st.integers(0, 2**20),
        ops=st.lists(OPS, min_size=3, max_size=30),
    )
    def test_cursor_matches_fresh_replay(self, graph, engine, seed, ops):
        api = RestrictedSocialAPI(graph)
        walk = ENGINES[engine](api, start=0, seed=seed)
        _run_interleaving(walk, api, graph, ops)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_load_state_same_position_other_rng(self, engine):
        """Reloading the same ``(steps, current)`` with another RNG restarts the cursor."""
        graph = Graph([(i, j) for i in range(12) for j in range(i + 1, 12) if (i * j) % 5 < 3])
        differed = 0
        for seed in range(20):
            api = RestrictedSocialAPI(graph)
            walk = ENGINES[engine](api, start=0, seed=seed)
            for _ in range(3):
                walk.step()
            before = _checked_prediction(walk, HORIZON)
            state = walk.state_dict()
            state["rng"] = random.Random(10_000 + seed).getstate()
            walk.load_state(state)
            after = _checked_prediction(walk, HORIZON)
            differed += after != before
        assert differed  # the reload changed the answer at least once

    @pytest.mark.parametrize("engine", ["srw", "mhrw", "nbrw"])
    def test_shared_caller_rng(self, engine):
        """Another holder of a caller-supplied RNG may draw between calls,
        so such a chain has no stream to read ahead: it answers ``None``
        (fetch-on-visit) without drawing."""
        graph = Graph([(i, (i + 1) % 30) for i in range(30)] + [(i, (i + 4) % 30) for i in range(30)])
        api = RestrictedSocialAPI(graph)
        for v in range(0, 30, 2):
            api.query(v)
        shared = random.Random(4)
        walk = ENGINES[engine](api, start=0, seed=shared)
        other = ENGINES[engine](api, start=15, seed=shared)
        for _ in range(30):
            state = shared.getstate()
            assert walk.predict_next_fetch(max_steps=HORIZON) is None
            assert shared.getstate() == state
            other.step()

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_step_failing_after_a_draw(self, engine):
        """A step that draws, then fails its fetch, leaves the RNG ahead."""
        graph = Graph([(i, (i + 1) % 30) for i in range(30)] + [(i, (i + 4) % 30) for i in range(30)])
        failures = 0
        for seed in range(10):
            api = RestrictedSocialAPI(graph, query_budget=8)
            walk = ENGINES[engine](api, start=0, seed=seed)
            for _ in range(40):
                _checked_prediction(walk, HORIZON)
                try:
                    walk.step()
                except QueryBudgetExhaustedError:
                    failures += 1
        assert failures

    def test_pending_target_answered_without_replay(self):
        graph = Graph([(i, (i + 1) % 40) for i in range(40)] + [(i, (i + 7) % 40) for i in range(40)])
        api = RestrictedSocialAPI(graph)
        walk = SimpleRandomWalk(api, start=0, seed=3)
        for _ in range(10):
            walk.step()
        target = walk.predict_next_fetch(max_steps=64)
        assert target is not None
        cursor = walk._cursor
        offset = len(cursor.path)  # draws from the live node to the target
        index = cursor.index
        assert walk.predict_next_fetch(max_steps=offset) == target
        assert walk.predict_next_fetch(max_steps=offset - 1) is None
        assert cursor.index == index  # nothing replayed again
        assert "cursor" not in str(sorted(walk.state_dict()))

    def test_path_trimmed_as_live_chain_catches_up(self):
        graph = Graph([(i, (i + 1) % 30) for i in range(30)] + [(i, (i + 4) % 30) for i in range(30)])
        api = RestrictedSocialAPI(graph)
        for v in graph.nodes():
            api.query(v)
        walk = NonBacktrackingWalk(api, start=0, seed=5)
        assert walk.predict_next_fetch(max_steps=20) is None  # everything cached
        cursor = walk._cursor
        assert len(cursor.path) == 21
        for _ in range(7):
            walk.step()
        assert _checked_prediction(walk, 20) is None
        assert walk._cursor is cursor
        assert cursor.base == walk.steps
        assert cursor.path[0] == (walk.current, walk._previous)
        assert len(cursor.path) == 21

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @settings(max_examples=20, deadline=None)
    @given(
        graph=connected_graphs(),
        seed=st.integers(0, 2**20),
        ops=st.lists(OPS, min_size=3, max_size=30),
    )
    def test_ttl_cache(self, engine, graph, seed, ops):
        """TTL'd entries expire on the clock: every prediction restarts the cursor."""
        now = [0.0]
        store = KeyValueStore(clock=lambda: now[0])
        api = RestrictedSocialAPI(graph, cache=NeighborhoodCache(store, ttl=3.0))
        walk = ENGINES[engine](api, start=0, seed=seed)
        assert api.cache.retention_version is None
        timed = []
        for op in ops:
            timed.append(op)
            if op[0] == "step":
                timed.append(("predict", HORIZON))
        for op, arg in timed:
            now[0] += 1.0  # entries fetched three operations ago expire
            _run_interleaving(walk, api, graph, [(op, arg)])

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @settings(max_examples=20, deadline=None)
    @given(
        graph=connected_graphs(),
        seed=st.integers(0, 2**20),
        capacity=st.integers(2, 8),  # cached users (one key each)
        ops=st.lists(OPS, min_size=3, max_size=30),
    )
    def test_capacity_bounded_cache(self, engine, graph, seed, capacity, ops):
        """A bounded store evicts on any insert: every prediction restarts the cursor."""
        api = RestrictedSocialAPI(graph, cache=NeighborhoodCache(KeyValueStore(capacity=capacity)))
        walk = ENGINES[engine](api, start=0, seed=seed)
        assert api.cache.retention_version is None
        _run_interleaving(walk, api, graph, ops)

    def test_shared_store_delete_invalidates(self):
        """A delete through the shared store, by another writer, is seen."""
        graph = Graph([(i, (i + 1) % 20) for i in range(20)] + [(i, (i + 3) % 20) for i in range(20)])
        for seed in range(50):
            store = KeyValueStore()
            api = RestrictedSocialAPI(graph, cache=NeighborhoodCache(store))
            for v in range(16):
                api.query(v)
            walk = SimpleRandomWalk(api, start=0, seed=seed)
            before = _checked_prediction(walk, HORIZON)
            path = walk._cursor.path
            if len(path) > 1 and path[1] != walk.current:
                break
        else:
            pytest.fail("no seed replayed through a cached neighbor")
        version = api.cache.retention_version
        store.delete(("resp", path[1]))
        assert api.cache.retention_version != version
        assert _checked_prediction(walk, HORIZON) == path[1] != before

    def test_mto_sharer_overlay_write(self):
        """Another chain materializing the predicted node restarts the cursor."""
        graph = Graph([(i, (i + 1) % 24) for i in range(24)] + [(i, (i + 5) % 24) for i in range(24)])
        api = RestrictedSocialAPI(graph)
        overlay = OverlayGraph(api)
        chain = MTOSampler(api, start=0, seed=2, overlay=overlay)
        sharer = MTOSampler(api, start=12, seed=9, overlay=overlay)
        target = _checked_prediction(chain, HORIZON)
        assert target is not None
        version = overlay.version
        overlay.ensure_known(target)  # the sharer's step would do this
        assert overlay.version != version
        assert _checked_prediction(chain, HORIZON) != target
        for _ in range(20):
            sharer.step()
            _checked_prediction(chain, HORIZON)
            chain.step()
            _checked_prediction(chain, HORIZON)

    @settings(deadline=None)  # max_examples comes from the active profile
    @given(
        graph=connected_graphs(),
        seeds=st.tuples(st.integers(0, 2**20), st.integers(0, 2**20)),
        lazy=st.booleans(),
        rounds=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 13), st.integers(0, 13)),
            min_size=1,
            max_size=25,
        ),
    )
    def test_mto_cursor_carried_through_live_steps(self, graph, seeds, lazy, rounds):
        """Rounds of predict, step, with a sharer's step or a write to G*
        before and after the live step.  Every write restarts the cursor
        at the live step, and a live step may land on or off the replayed
        path; every prediction must still equal a fresh replay's."""
        api = RestrictedSocialAPI(graph)
        overlay = OverlayGraph(api)
        nodes = sorted(graph.nodes())
        chain = MTOSampler(api, start=nodes[0], seed=seeds[0], overlay=overlay, lazy=lazy)
        sharer = MTOSampler(api, start=nodes[-1], seed=seeds[1], overlay=overlay, lazy=lazy)

        def interfere(arg):
            # 0-11: materialize a node; 12: the sharer steps; 13: nothing
            if arg < 12:
                overlay.ensure_known(nodes[arg % len(nodes)])
            elif arg == 12:
                sharer.step()

        for horizon, before, after in rounds:
            if horizon:
                _checked_prediction(chain, horizon)
            interfere(before)
            chain.step()
            interfere(after)
        _checked_prediction(chain, 1)

    @pytest.mark.parametrize("lazy", [False, True])
    def test_mto_cursor_carried_through_seeded_schedules(self, lazy):
        """Seeded lock-step schedules on graphs rich in each branch: a
        prism (every node has degree 3, so replacements fire), a barbell
        (triangles, so removals fire) and a binary tree (lazy redraws hit
        the same node again).  Every prediction equals a fresh replay's."""
        prism = Graph(
            [(i, (i + 1) % 12) for i in range(12)]
            + [(12 + i, 12 + (i + 1) % 12) for i in range(12)]
            + [(i, 12 + i) for i in range(12)]
        )
        tree = Graph([(i, 2 * i + c) for i in range(15) for c in (1, 2)])
        for graph in (prism, barbell_graph(8), tree):
            nodes = sorted(graph.nodes())
            for seed in range(40):
                pick = random.Random(seed)
                api = RestrictedSocialAPI(graph)
                overlay = OverlayGraph(api)
                chain = MTOSampler(api, start=nodes[0], seed=seed, overlay=overlay, lazy=lazy)
                sharer = MTOSampler(api, start=nodes[-1], seed=seed + 1, overlay=overlay, lazy=lazy)
                for _ in range(30):
                    for action in pick.sample(["predict", "again", "sharer", "write", "skip"], 3):
                        if action in ("predict", "again"):
                            _checked_prediction(chain, pick.choice((1, 1, 2, 3)))
                        elif action == "sharer":
                            sharer.step()
                        elif action == "write":
                            overlay.ensure_known(pick.choice(nodes))
                    chain.step()

    def test_mto_lock_step_keeps_one_clone(self, monkeypatch):
        """Predict, step, let a sharer write G*: every round restarts the
        cursor, and a restart only moves an index, so no ``getstate`` or
        ``setstate`` runs in 30 rounds (a buffer fill records the
        generator's state once per 512 words, not per round)."""
        graph = Graph([(i, (i + 1) % 40) for i in range(40)] + [(i, (i + 7) % 40) for i in range(40)])
        api = RestrictedSocialAPI(graph)
        overlay = OverlayGraph(api)
        chain = MTOSampler(api, start=0, seed=3, overlay=overlay)
        sharer = MTOSampler(api, start=20, seed=4, overlay=overlay)
        calls = []
        for cls in (random.Random, WordStream):
            for name in ("getstate", "setstate"):
                original = getattr(cls, name)
                monkeypatch.setattr(
                    cls, name, lambda self, *a, _n=name, _f=original: calls.append(_n) or _f(self, *a)
                )
        predicted = 0
        for _ in range(30):
            predicted += chain.predict_next_fetch(max_steps=1) is not None
            chain.step()
            sharer.step()
        assert predicted
        assert calls == []


class TestLedgerBalance:
    """The prefetch ledger balances over mixed-engine rosters."""

    @settings(max_examples=15, deadline=None)
    @given(
        graph=connected_graphs(min_nodes=8, max_nodes=14),
        roster=st.lists(st.sampled_from(sorted(ENGINES)), min_size=2, max_size=4),
        seed=st.integers(0, 1000),
        lookahead=st.integers(1, 4),
    )
    def test_mixed_roster_ledger_balances(self, graph, roster, seed, lookahead):
        fleet = build_fleet(FleetSpec(num_shards=2, seed=seed), graph)
        api = RestrictedSocialAPI(fleet)
        chains = [
            ENGINES[name](api, start=i % len(graph), seed=seed * 7 + i)
            for i, name in enumerate(roster)
        ]
        walkers = EventDrivenWalkers(
            chains,
            planner=DispatchPlanner(lookahead=lookahead, speculation=0, seed=seed),
        )
        walkers.run(num_samples=8 * len(chains))
        planning = walkers.planning_summary()
        assert planning["prefetch_issued"] == (
            planning["prefetch_used"]
            + planning["prefetch_wasted"]
            + planning["prefetch_outstanding"]
        )
        # Prediction books cover exactly the engine types that walked
        # (engines that never resolved a replay still book their misses).
        booked = set(planning["prediction"])
        walked = {type(c).__name__ for c in chains}
        assert booked <= walked

    @settings(max_examples=10, deadline=None)
    @given(
        graph=connected_graphs(min_nodes=8, max_nodes=14),
        engines=st.lists(
            st.sampled_from(("srw", "mhrw", "nbrw")),
            min_size=2,
            max_size=3,
            unique=True,
        ),
        seed=st.integers(0, 500),
    )
    def test_mixed_engine_tenants_ledgers_balance(self, graph, engines, seed):
        """One service, one shared cache, one tenant per engine: every
        tenant's prefetch ledger balances and its prediction books name
        only its own engine."""

        class _Net:
            def __init__(self, g):
                self.graph = g
                self.profiles = None

            def seed_node(self, i):
                return sorted(self.graph.nodes())[i % len(self.graph)]

        network = _Net(graph)
        fleet_spec = FleetSpec(num_shards=2, seed=seed)
        service = SamplingService(network, fleet=fleet_spec)
        for i, engine in enumerate(engines):
            service.register(
                engine,
                StackConfig(
                    fleet=fleet_spec,
                    walk=WalkSpec(engine=engine, chains=2, seed=seed + i),
                    planner=PlannerSpec(lookahead=2, speculation=0, seed=seed),
                ),
            )
            service.request(engine, 12)
        service.run_pending()
        expected_class = {
            "srw": "SimpleRandomWalk",
            "mhrw": "MetropolisHastingsWalk",
            "nbrw": "NonBacktrackingWalk",
        }
        for engine in engines:
            planning = service.tenant(engine).stack.walkers.planning_summary()
            assert planning["prefetch_issued"] == (
                planning["prefetch_used"]
                + planning["prefetch_wasted"]
                + planning["prefetch_outstanding"]
            )
            assert set(planning["prediction"]) <= {expected_class[engine]}
