"""Seed determinism of the indexed-draw walk engines.

The O(1) draw refactor removed every per-step ``sorted(...)`` from the hot
paths; determinism now rests on the substrate's stable insertion ordering.
These tests pin that contract: a fixed seed must reproduce identical visit
sequences, identical overlay rewiring counts, and identical billed query
costs, run after run.
"""

import hashlib

import pytest

from repro.core import MTOSampler, build_overlay_fixpoint
from repro.datasets import load
from repro.generators import paper_barbell
from repro.graph import Graph
from repro.interface import RestrictedSocialAPI
from repro.walks import (
    BFSCrawler,
    DFSCrawler,
    MetropolisHastingsWalk,
    NonBacktrackingWalk,
    RandomJumpWalk,
    SimpleRandomWalk,
    SnowballCrawler,
)


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


# Whole-log pins for every engine's step, open and with private users.
# The digest covers the samples, the trace, every query-log record, the
# clock and the cache hit/miss counters over a run that is resumed in
# place halfway (``load_state(state_dict())``), so a change to how a step
# reads its current node or a neighbor moves it.
def _step_log_digest(engine: str, private: bool, seed: int = 3) -> str:
    net = load("epinions_like", seed=0, scale=0.15)
    nodes = sorted(net.graph.nodes())
    hidden = frozenset(nodes[6::7]) if private else None
    api = RestrictedSocialAPI(net.graph, inaccessible=hidden)
    start = nodes[0]
    build = {
        "srw": lambda: SimpleRandomWalk(api, start=start, seed=seed),
        "mhrw": lambda: MetropolisHastingsWalk(api, start=start, seed=seed),
        "nbrw": lambda: NonBacktrackingWalk(api, start=start, seed=seed),
        "rj": lambda: RandomJumpWalk(api, start=start, id_space=nodes, seed=seed),
        "mto": lambda: MTOSampler(api, start=start, seed=seed),
        "bfs": lambda: BFSCrawler(api, start=start, seed=seed),
        "dfs": lambda: DFSCrawler(api, start=start, seed=seed),
        "snowball": lambda: SnowballCrawler(api, start=start, seed=seed),
    }
    sampler = build[engine]()
    run = sampler.run(60, thinning=2)
    sampler.load_state(sampler.state_dict())
    for _ in range(40):
        sampler.step()
    payload = (
        [(s.node, s.weight, s.query_cost, s.step) for s in run.samples],
        tuple(sampler.trace),
        list(api.log.state_dict()["records"]),
        api.clock.now(),
        api.cache_hits,
        api.cache_misses,
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest()


# fmt: off
PINNED_STEP_LOGS = {
    ("srw", False): "0a1fc1c3844d245843b07d28e8c2c6cd3e1c4aef0765129c0064b0928abc76c2",
    ("srw", True): "021b82d4f3412434c2aa406db512657d0e2fce7e0d2985a1aae2dc5660e19f51",
    ("mhrw", False): "cc750cec4c83ccbb8873b62723b144e8c9b290b81ed276d255153b3813e653e1",
    ("mhrw", True): "89701fa7fff3284f44615eb89ef304faffa0ec021dc9e0f149321a2681ba9192",
    ("nbrw", False): "c286579232f847938ab0255c65de39eaf391ff91f15248b6976254c33f260f08",
    ("nbrw", True): "ffbe1d8ff13ee05159e9c571f297a3992f83a8dde523d633590eafaf2dc4df59",
    ("rj", False): "4d7da8e59c91385cd2e116941039b54243a423e4e3476c165b0af5911b3d6f2b",
    ("rj", True): "22f36ada011fd5e9c9722fdc5927cc61da5bf3512f8e0eab48dcc93b1ed67fb1",
    ("mto", False): "5c4883dfbe0e5f090d1c1e00346b633f3164538c3b1d439d5b9a92baa86b44b0",
    ("mto", True): "cad182fe94bafafa84d7ad8a9ff1d963e0750e61578e3bb65c0a5fe955d63e1e",
    ("bfs", False): "65a366bebd70a37fc805bc3eb140ce1decd93298d1f0d08a016798b6e34b68d4",
    ("bfs", True): "6f5c69ef3a7528bb7f693ef8d526d74977a17d5fec87c306bbc4a5c9ca1b9639",
    ("dfs", False): "352514e4bc3d6e4f10ac81d81ea65754d5a202e40c72af70e9cb220bb1e38bab",
    ("dfs", True): "6323b3c4123eb4ba39cd5d60e26cc1378fb42e03530c82b517b170da47eead90",
    ("snowball", False): "726c495b75647ab33ed6cccd347cb94c06cc9b256048b68c9289c92480af7479",
    ("snowball", True): "aecece9523dc6c2fe81e7c1845ca27694318b7eecae986884b8e049a9aadc088",
}
# fmt: on


class TestStepLogPins:
    @pytest.mark.parametrize("engine, private", sorted(PINNED_STEP_LOGS), ids=str)
    def test_whole_log_pinned(self, engine, private):
        assert _step_log_digest(engine, private) == PINNED_STEP_LOGS[engine, private]

    def test_mto_private_hold_rereads_after_resume(self):
        # The only neighbor is private, so every step holds.  The first
        # hold reads the start node's memo; after a resume the memo is
        # gone and the hold re-reads it once (free), then it is warm again.
        api = RestrictedSocialAPI(Graph([(0, 1)]), inaccessible=frozenset({1}))
        mto = MTOSampler(api, start=0, seed=1)
        mto.step()
        mto.load_state(mto.state_dict())
        mto.step()
        mto.step()
        assert list(api.log.state_dict()["records"]) == [
            (0, True, 1.0),
            (0, False, 1.0),
            (1, True, 1.0),
            (0, False, 1.0),
        ]
        assert mto.trace == (1.0, 1.0, 1.0, 1.0)
