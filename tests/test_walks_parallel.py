"""Tests for parallel walks and the Gelman–Rubin diagnostic."""

import hashlib
import json
import math
import random

import pytest

from repro.convergence import GelmanRubinDiagnostic
from repro.core import MTOSampler
from repro.core.overlay import OverlayGraph
from repro.datasets import load
from repro.datastore.snapshot import encode_value
from repro.errors import WalkError
from repro.generators import complete_graph, paper_barbell
from repro.interface import RestrictedSocialAPI
from repro.walks import ParallelWalkers, SimpleRandomWalk


class TestGelmanRubin:
    def test_needs_two_chains(self):
        with pytest.raises(ValueError):
            GelmanRubinDiagnostic().r_hat([[1.0] * 100])

    def test_short_chains_not_converged(self):
        d = GelmanRubinDiagnostic(min_chain_length=50)
        assert d.r_hat([[1.0] * 10, [1.0] * 10]) == math.inf

    def test_identical_stationary_chains_converge(self):
        rng = random.Random(0)
        chains = [[rng.gauss(5, 1) for _ in range(500)] for _ in range(3)]
        d = GelmanRubinDiagnostic(threshold=1.1)
        assert d.r_hat(chains) < 1.1
        assert d.converged(chains)

    def test_disagreeing_chains_rejected(self):
        rng = random.Random(1)
        a = [rng.gauss(0, 1) for _ in range(500)]
        b = [rng.gauss(10, 1) for _ in range(500)]
        d = GelmanRubinDiagnostic()
        assert d.r_hat([a, b]) > 2.0
        assert not d.converged([a, b])

    def test_constant_equal_chains(self):
        d = GelmanRubinDiagnostic(min_chain_length=10)
        assert d.r_hat([[3.0] * 100, [3.0] * 100]) == 1.0

    def test_constant_unequal_chains(self):
        d = GelmanRubinDiagnostic(min_chain_length=10)
        assert d.r_hat([[3.0] * 100, [4.0] * 100]) == math.inf

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GelmanRubinDiagnostic(threshold=0.9)
        with pytest.raises(ValueError):
            GelmanRubinDiagnostic(min_chain_length=2)


class TestParallelWalkers:
    def _walkers(self, k=3):
        g = paper_barbell()
        api = RestrictedSocialAPI(g)
        samplers = [SimpleRandomWalk(api, start=(0 if i % 2 == 0 else 11), seed=i) for i in range(k)]
        return api, ParallelWalkers(samplers)

    def test_requires_two_samplers(self):
        api = RestrictedSocialAPI(complete_graph(4))
        with pytest.raises(WalkError):
            ParallelWalkers([SimpleRandomWalk(api, start=0, seed=0)])

    def test_requires_shared_interface(self):
        g = complete_graph(4)
        a = SimpleRandomWalk(RestrictedSocialAPI(g), start=0, seed=0)
        b = SimpleRandomWalk(RestrictedSocialAPI(g), start=1, seed=1)
        with pytest.raises(WalkError):
            ParallelWalkers([a, b])

    def test_shared_cache_saves_queries(self):
        api, walkers = self._walkers(k=4)
        for _ in range(50):
            walkers.step_all()
        # 4 chains × 50 steps but the graph only has 22 nodes: the shared
        # cache caps the bill at the node count.
        assert api.query_cost <= 22

    def test_run_collects_quota(self):
        _, walkers = self._walkers()
        result = walkers.run(num_samples=30)
        assert len(result.samples) == 30
        assert sum(len(r.samples) for r in result.per_chain) == 30

    def test_run_with_monitor_reports_r_hat(self):
        _, walkers = self._walkers()
        result = walkers.run(num_samples=10, monitor=GelmanRubinDiagnostic(threshold=1.5))
        assert result.r_hat_at_convergence is not None

    def test_invalid_run_params(self):
        _, walkers = self._walkers()
        with pytest.raises(ValueError):
            walkers.run(num_samples=0)
        with pytest.raises(ValueError):
            walkers.run(num_samples=1, thinning=0)


class TestThinningBookkeeping:
    """Regression (ISSUE 3): per-chain sample spacing must equal thinning.

    The collection loop's bare ``for…else`` fallback used to advance all
    chains one extra step per round, stretching the spacing to
    ``thinning + 1`` and billing an extra all-chain round after the final
    sample.
    """

    @pytest.mark.parametrize("thinning", [1, 2, 3, 5])
    def test_per_chain_sample_spacing_is_exact(self, thinning):
        g = paper_barbell()
        api = RestrictedSocialAPI(g)
        samplers = [SimpleRandomWalk(api, start=(0 if i % 2 == 0 else 11), seed=i) for i in range(3)]
        result = ParallelWalkers(samplers).run(num_samples=30, thinning=thinning)
        for chain_run in result.per_chain:
            steps = [s.step for s in chain_run.samples]
            deltas = [b - a for a, b in zip(steps, steps[1:])]
            assert deltas == [thinning] * len(deltas)

    def test_no_steps_billed_after_final_sample(self):
        g = paper_barbell()
        api = RestrictedSocialAPI(g)
        samplers = [SimpleRandomWalk(api, start=(0 if i % 2 == 0 else 11), seed=i) for i in range(3)]
        walkers = ParallelWalkers(samplers)
        num_samples = 30  # divisible by 3 chains: quota fills at a round end
        result = walkers.run(num_samples=num_samples)
        last_step = max(s.step for s in result.samples)
        assert all(c.steps == last_step for c in walkers.chains)


class TestPrefetchCacheEviction:
    def test_prefetch_survives_evicted_current_node(self):
        from repro.datastore.kv import KeyValueStore
        from repro.interface import NeighborhoodCache

        g = paper_barbell()
        store = KeyValueStore()
        api = RestrictedSocialAPI(g, cache=NeighborhoodCache(store))
        samplers = [
            SimpleRandomWalk(api, start=0, seed=0),
            SimpleRandomWalk(api, start=11, seed=1),
        ]
        walkers = ParallelWalkers(samplers, prefetch=True)
        walkers.step_all()

        # Evict chain 0's current node from the cache, as LRU pressure
        # would; its stable ordering is gone from shared local state.
        current = samplers[0].current
        store.delete(("resp", current))
        assert api.cache.neighbor_seq(current) is None

        cost_before = api.query_cost
        result = walkers.prefetch_candidates()

        # Draw-aware prefetch: at most one predicted fetch per chain, and
        # §II-B unique-cost accounting never exceeds the batch size (an
        # already-billed user re-fetched after eviction stays free).
        assert len(result.responses) <= len(samplers)
        assert api.query_cost - cost_before <= len(result.responses)
        # The walk itself continues normally: each chain still holds its
        # current neighborhood in its step memo, and the next committed
        # move lands on a freshly cached node.
        walkers.step_all()
        assert api.cache.neighbor_seq(samplers[0].current) is not None


class TestSharedOverlayMTO:
    def test_chains_share_rewirings(self):
        net = load("epinions_like", seed=0, scale=0.15)
        api = net.interface()
        overlay = OverlayGraph(api)
        chains = [MTOSampler(api, start=net.seed_node(i), seed=i, overlay=overlay) for i in range(3)]
        walkers = ParallelWalkers(chains)
        for _ in range(150):
            walkers.step_all()
        # All chains observe the same overlay object and its rewirings.
        assert all(c.overlay is overlay for c in chains)
        assert overlay.removal_count > 0

    def test_shared_overlay_estimation(self):
        from repro import AggregateQuery, estimate, ground_truth

        net = load("epinions_like", seed=0, scale=0.15)
        api = net.interface()
        overlay = OverlayGraph(api)
        chains = [MTOSampler(api, start=net.seed_node(i), seed=i, overlay=overlay) for i in range(3)]
        result = ParallelWalkers(chains).run(num_samples=900)
        est = estimate(AggregateQuery.average_degree(), result.samples, api)
        truth = ground_truth(AggregateQuery.average_degree(), net.graph)
        assert abs(est.estimate - truth) / truth < 0.3


def _lockstep_digest(samples, api, sim_elapsed: float, extra=()) -> str:
    """sha256 over the samples, the billed log, the interface clock and ``sim_elapsed``."""
    payload = {
        "samples": [encode_value((s.node, s.weight, s.query_cost, s.step)) for s in samples],
        "billed": [encode_value((r.user, r.timestamp)) for r in api.log if r.billed],
        "clock": api.clock.now().hex(),
        "sim_elapsed": float(sim_elapsed).hex(),
        "extra": [encode_value(item) for item in extra],
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class TestLockstepPins:
    """Lock-step runs under latency, pinned bit for bit.

    Each digest covers the merged samples, the billed query log, the
    interface's serial clock and the group's simulated wall-clock (the sum
    of per-round maxima), so any change to the round order, the prefetch
    batch or the clock arithmetic shows here.
    """

    SRW_DIGEST = "22996921da39c0145efde88eb85cf6319f094bed3b4293cb0c5776c5c9121f5e"
    MTO_DIGEST = "f6f7b76e07d4d00782b4e922ac0c934e60fbe53759c9f078da07fbc9f51455c8"

    @pytest.fixture(scope="class")
    def network(self):
        return load("epinions_like", seed=0, scale=0.15)

    def test_srw_heavy_tailed_burn_in_and_thinned_collection(self, network):
        api = network.interface(latency_distribution="heavy_tailed", latency_seed=3)
        walkers = ParallelWalkers(
            [SimpleRandomWalk(api, start=network.seed_node(i), seed=i) for i in range(4)]
        )
        run = walkers.run(num_samples=103, thinning=2, monitor=GelmanRubinDiagnostic(threshold=1.3))
        assert len(run.samples) == 103
        assert run.sim_elapsed == walkers.simulated_elapsed
        assert _lockstep_digest(run.samples, api, run.sim_elapsed) == self.SRW_DIGEST

    def test_shared_overlay_mto_prefetch_rounds_and_checkpoints(self, network):
        api = network.interface(latency_distribution="constant", latency_scale=2.0)
        shared = None
        chains = []
        for i in range(3):
            chain = MTOSampler(api, start=network.seed_node(i), seed=20 + i, overlay=shared)
            shared = chain.overlay
            chains.append(chain)
        walkers = ParallelWalkers(chains, prefetch=True)
        calls = []
        walkers.set_checkpoint(
            lambda w: calls.append((w.state_dict()["rounds"], w.simulated_elapsed, api.query_cost)), 7
        )
        for _ in range(20):
            walkers.step_all()
        run = walkers.run(45, monitor=GelmanRubinDiagnostic(threshold=1.3))
        assert [rounds for rounds, _, _ in calls] == [7 * (i + 1) for i in range(10)]
        assert api.query_cost == 105
        assert run.sim_elapsed == walkers.simulated_elapsed == 178.0
        assert _lockstep_digest(run.samples, api, run.sim_elapsed, calls) == self.MTO_DIGEST
