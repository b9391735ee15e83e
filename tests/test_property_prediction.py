"""Property-based tests for universal prefetch prediction (ISSUE 8).

The prediction contract every walk engine now honors: cloning the live
RNG (:meth:`~repro.walks.base.RandomWalkSampler._replay_rng_clone`) and
replaying the engine's own draw discipline through cached territory
yields either ``None`` (unresolvable — private users, dead ends, a
rewiring branch, or no fetch within the horizon) or the *exact* user the
walk's next billed §II-B query will hit.  Hypothesis sweeps random
connected graphs, walk seeds, warm-up depths, and pre-warmed cache
states; a wrong prediction here means a planner would prefetch — and
bill — a neighborhood the walk never visits.

The second family checks the planner's books over mixed-engine rosters:
the prefetch ledger must balance (issued = used + wasted + outstanding)
and the per-engine prediction counters must cover exactly the engine
types that walked, both for one scheduler hosting a heterogeneous
roster and for a multi-tenant service whose tenants run different
engines over one shared cache.
"""

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
from repro.graph import Graph
from repro.interface.api import RestrictedSocialAPI
from repro.planning import DispatchPlanner
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
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] != p[1]
            ),
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
            assert predicted == actual, (
                f"{engine} predicted {predicted!r} but the walk billed {actual!r}"
            )

    @settings(max_examples=25, deadline=None)
    @given(
        graph=connected_graphs(),
        engine=st.sampled_from(sorted(ENGINES)),
        seed=st.integers(0, 2**20),
        warm_fraction=st.floats(0.0, 1.0),
    )
    def test_prediction_holds_over_warmed_caches(
        self, graph, engine, seed, warm_fraction
    ):
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
        api.warm_start(
            {v: (tuple(sorted(graph.neighbors(v))), {}) for v in warm_nodes}
        )
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
