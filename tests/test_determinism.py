"""Seed determinism of the indexed-draw walk engines.

The O(1) draw refactor removed every per-step ``sorted(...)`` from the hot
paths; determinism now rests on the substrate's stable insertion ordering.
These tests pin that contract: a fixed seed must reproduce identical visit
sequences, identical overlay rewiring counts, and identical billed query
costs, run after run.
"""

from repro.core import MTOSampler, build_overlay_fixpoint
from repro.generators import paper_barbell
from repro.graph import Graph
from repro.interface import RestrictedSocialAPI
from repro.walks import SimpleRandomWalk


def replacement_rich_graph() -> Graph:
    # v has degree exactly 3 (Theorem 4's one safe degree), so the
    # replacement branch actually fires.
    return Graph(
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


def mto_trajectory(graph: Graph, seed: int, steps: int = 300):
    api = RestrictedSocialAPI(graph)
    mto = MTOSampler(api, start=next(iter(graph.nodes())), seed=seed)
    visits = [mto.step() for _ in range(steps)]
    return visits, mto.overlay.removal_count, mto.overlay.replacement_count, api.query_cost


class TestMTODeterminism:
    def test_same_seed_same_visits_and_rewirings(self):
        a = mto_trajectory(paper_barbell(), seed=13)
        b = mto_trajectory(paper_barbell(), seed=13)
        assert a == b

    def test_same_seed_same_replacements(self):
        a = mto_trajectory(replacement_rich_graph(), seed=5)
        b = mto_trajectory(replacement_rich_graph(), seed=5)
        assert a == b
        # the fixture graph must actually exercise the replacement branch
        # over some seed — otherwise this test guards nothing
        assert any(mto_trajectory(replacement_rich_graph(), seed=s)[2] > 0 for s in range(8))

    def test_different_seeds_diverge(self):
        a = mto_trajectory(paper_barbell(), seed=1)
        b = mto_trajectory(paper_barbell(), seed=2)
        assert a[0] != b[0]

    def test_same_seed_same_query_cost_per_sample(self):
        costs = []
        for _ in range(2):
            api = RestrictedSocialAPI(paper_barbell())
            mto = MTOSampler(api, start=0, seed=21)
            run = mto.run(num_samples=60)
            costs.append([s.query_cost for s in run.samples])
        assert costs[0] == costs[1]


class TestSRWDeterminism:
    def test_same_seed_same_visits(self):
        sequences = []
        for _ in range(2):
            api = RestrictedSocialAPI(paper_barbell())
            walk = SimpleRandomWalk(api, start=0, seed=9)
            sequences.append([walk.step() for _ in range(300)])
        assert sequences[0] == sequences[1]

    def test_different_seeds_diverge(self):
        sequences = []
        for seed in (3, 4):
            api = RestrictedSocialAPI(paper_barbell())
            walk = SimpleRandomWalk(api, start=0, seed=seed)
            sequences.append([walk.step() for _ in range(300)])
        assert sequences[0] != sequences[1]


# Literal seeded streams: the tests above compare two runs of the same
# build, these pin the streams across builds.  A change to neighbor
# ordering or to how a draw consumes the RNG moves these values.
PINNED_SRW_SEED_9 = [
    8, 10, 5, 4, 2, 3, 0, 6, 9, 7, 10, 1, 6, 9, 10, 0, 7, 2, 8, 6, 2, 3, 4, 0, 2,
    3, 9, 10, 1, 7, 1, 5, 3, 4, 7, 1, 5, 3, 7, 4, 6, 0, 4, 0, 7, 0, 7, 8, 2, 0,
]
PINNED_MTO_SEED_13 = [
    6, 4, 2, 4, 2, 3, 10, 3, 0, 8, 2, 0, 6, 4, 1, 10, 6, 4, 5, 7, 3, 10, 6, 9, 5,
    7, 1, 8, 4, 8, 2, 9, 2, 5, 4, 2, 10, 5, 6, 5, 10, 4, 10, 4, 7, 10, 3, 5, 4, 6,
]
PINNED_REPLACEMENT_SEED_7 = [
    "x", "u", "x", "u", "v", "u", "x", "u", "b", "z", "u", "x", "u", "z", "y", "x", "u",
    "x", "b", "x", "y", "z", "a", "y", "a", "v", "a", "y", "x", "u", "z", "v", "z", "x",
    "z", "x", "z", "y", "a", "z", "a", "z", "y", "x", "u", "x", "u", "x", "u", "b",
]
# fmt: on


class TestPinnedStreams:
    def test_srw_first_50_positions(self):
        walk = SimpleRandomWalk(RestrictedSocialAPI(paper_barbell()), start=0, seed=9)
        assert [walk.step() for _ in range(50)] == PINNED_SRW_SEED_9

    def test_mto_first_50_positions_and_rewirings(self):
        visits, removals, replacements, cost = mto_trajectory(paper_barbell(), seed=13, steps=50)
        assert visits == PINNED_MTO_SEED_13
        assert (removals, replacements, cost) == (10, 0, 11)

    def test_mto_replacement_stream(self):
        visits, removals, replacements, cost = mto_trajectory(replacement_rich_graph(), seed=7, steps=50)
        assert visits == PINNED_REPLACEMENT_SEED_7
        assert (removals, replacements, cost) == (1, 9, 7)


class TestFixpointDeterminism:
    def test_same_seed_same_overlay(self):
        a = build_overlay_fixpoint(paper_barbell(), seed=7)
        b = build_overlay_fixpoint(paper_barbell(), seed=7)
        assert a == b

    def test_same_seed_same_overlay_with_replacement(self):
        a = build_overlay_fixpoint(paper_barbell(), use_replacement=True, seed=7)
        b = build_overlay_fixpoint(paper_barbell(), use_replacement=True, seed=7)
        assert a == b
