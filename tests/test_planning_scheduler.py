"""Tests for history-aware dispatch planning in the scheduler (ISSUE 5).

Acceptance bars:

* with planning disabled (no planner, or an all-zero-knob planner) the
  scheduler's output is bit-for-bit the PR-4 behaviour;
* with planning on over a seeded skewed fleet the same samples arrive at
  the *identical* §II-B query cost in less simulated wall-clock, with the
  prefetch ledger balancing (issued = used + wasted + outstanding);
* an in-flight checkpoint with an active prefetch ledger and adaptive
  chain roster resumes bit-for-bit in a fresh process (subprocess test);
* retired chains' already-merged samples stay put and the whole run is
  reproducible (satellite: auditable adaptive retirement).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.datasets import load
from repro.datastore.snapshot import JsonLinesBackend, KeyValueBackend
from repro.compose import FleetSpec, ProviderSpec, build_fleet
from repro.errors import SnapshotError, WalkError
from repro.interface import RestrictedSocialAPI, SamplingSession, collect_telemetry
from repro.planning import AdaptiveChainPolicy, DispatchPlanner
from repro.walks import EventDrivenWalkers, ParallelWalkers, SimpleRandomWalk

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="module")
def network():
    return load("epinions_like", seed=0, scale=0.15)


def _chains(network, api, k=4, seed_base=0):
    return [
        SimpleRandomWalk(api, start=network.seed_node(i), seed=seed_base + i)
        for i in range(k)
    ]


def _skewed_fleet_api(network, shard_latency_spread=1.0):
    spec = FleetSpec(
        num_shards=4,
        seed=11,
        weights=(5.0, 1.0, 1.0, 1.0),
        provider=ProviderSpec(
            latency_distribution="heavy_tailed", latency_scale=0.5
        ),
        shard_latency_spread=shard_latency_spread,
        admission_interval=1.0,
        latency_quantum=0.5,
        batch_cap=16,
    )
    return RestrictedSocialAPI(
        build_fleet(spec, network.graph, profiles=network.profiles)
    )


def _policy(**overrides):
    kwargs = dict(min_chains=2, tail_ratio=1.5, evaluate_every=8, min_observations=6)
    kwargs.update(overrides)
    return AdaptiveChainPolicy(**kwargs)


class TestValidation:
    def test_planner_requires_a_fleet(self, network):
        with pytest.raises(WalkError):
            EventDrivenWalkers(
                _chains(network, network.interface()), planner=DispatchPlanner()
            )


class TestPredictNextFetch:
    def test_prediction_matches_reality(self, network):
        """The RNG replay names exactly the node the walk fetches next."""
        api = network.interface()
        walk = SimpleRandomWalk(api, start=network.seed_node(0), seed=7)
        checked = 0
        for _ in range(200):
            predicted = walk.predict_next_fetch()
            cost_before = api.query_cost
            while api.query_cost == cost_before:
                walk.step()
            # The step that billed a fetch landed on the fetched node.
            assert predicted == walk.current
            checked += 1
            if checked >= 25:
                break
        assert checked >= 25

    def test_prediction_consumes_no_live_rng(self, network):
        api = network.interface()
        walk = SimpleRandomWalk(api, start=network.seed_node(0), seed=7)
        state_before = walk.rng.getstate()
        walk.predict_next_fetch()
        assert walk.rng.getstate() == state_before

    def test_every_registry_engine_predicts(self, network):
        """All four engines override the base no-op predictor (ISSUE 8)."""
        from repro.core import MTOSampler
        from repro.walks import MetropolisHastingsWalk, NonBacktrackingWalk
        from repro.walks.base import RandomWalkSampler

        for engine in (
            SimpleRandomWalk,
            MetropolisHastingsWalk,
            NonBacktrackingWalk,
            MTOSampler,
        ):
            assert (
                engine.predict_next_fetch is not RandomWalkSampler.predict_next_fetch
            )

    def test_mhrw_prediction_matches_reality(self, network):
        """The acceptance-test replay names the next billed fetch."""
        from repro.walks import MetropolisHastingsWalk

        api = network.interface()
        walk = MetropolisHastingsWalk(api, start=network.seed_node(0), seed=7)
        checked = 0
        for _ in range(300):
            predicted = walk.predict_next_fetch()
            if predicted is None:
                walk.step()
                continue
            cost_before = api.query_cost
            queried = set(api.log.queried_users())
            while api.query_cost == cost_before:
                walk.step()
            fetched = set(api.log.queried_users()) - queried
            assert fetched == {predicted}
            checked += 1
            if checked >= 25:
                break
        assert checked >= 25

    def test_private_users_disable_prediction(self):
        from repro.graph import Graph

        g = Graph([(1, 2), (2, 3), (3, 1)])
        api = RestrictedSocialAPI(g, inaccessible=frozenset([3]))
        walk = SimpleRandomWalk(api, start=1, seed=0)
        assert walk.predict_next_fetch() is None


class TestPlanningEquivalence:
    def test_zero_knob_planner_matches_lockstep(self, network):
        """An all-zero planner over a trivial fleet == lock-step, bit for bit."""
        lock_run = ParallelWalkers(_chains(network, network.interface())).run(num_samples=48)
        fleet_api = RestrictedSocialAPI(
            build_fleet(FleetSpec(num_shards=1, seed=0), network.graph, profiles=network.profiles)
        )
        planned = EventDrivenWalkers(
            _chains(network, fleet_api),
            planner=DispatchPlanner(lookahead=0),
        ).run(num_samples=48)
        assert planned.samples == lock_run.samples
        assert planned.queries == lock_run.queries
        assert planned.sim_elapsed == 0.0

    def test_same_bill_less_waiting(self, network):
        k, n = 8, 240
        plain = EventDrivenWalkers(
            _chains(network, _skewed_fleet_api(network), k)
        ).run(num_samples=n)
        planned = EventDrivenWalkers(
            _chains(network, _skewed_fleet_api(network), k),
            planner=DispatchPlanner(lookahead=4),
        ).run(num_samples=n)
        assert planned.queries == plain.queries
        assert sorted(s.node for s in planned.samples) == sorted(
            s.node for s in plain.samples
        )
        assert planned.sim_elapsed < plain.sim_elapsed
        planning = planned.planning
        assert planning["prefetch_issued"] > 0
        assert planning["prefetch_issued"] == (
            planning["prefetch_used"]
            + planning["prefetch_wasted"]
            + planning["prefetch_outstanding"]
        )
        assert planning["cache_first_steps"] > 0
        # Prefetches showed up in the per-shard books.
        assert sum(row.prefetched for row in planned.shards.values()) == planning[
            "prefetch_issued"
        ]

    def test_planning_is_deterministic(self, network):
        def run_once():
            return EventDrivenWalkers(
                _chains(network, _skewed_fleet_api(network), 6),
                planner=DispatchPlanner(lookahead=3),
            ).run(num_samples=120)

        a, b = run_once(), run_once()
        assert a.samples == b.samples
        assert a.sim_elapsed == b.sim_elapsed
        assert a.planning == b.planning

    def test_chain_steps_surfaced(self, network):
        run = EventDrivenWalkers(
            _chains(network, _skewed_fleet_api(network), 4)
        ).run(num_samples=48)
        assert run.chain_steps is not None and len(run.chain_steps) == 4
        assert run.chain_steps == tuple(c.total_steps for c in run.per_chain)
        assert run.planning is None  # no planner attached


class TestTelemetryAndSummary:
    def test_cache_accounting_in_telemetry(self, network):
        api = _skewed_fleet_api(network)
        run = EventDrivenWalkers(
            _chains(network, api, 4),
            planner=DispatchPlanner(lookahead=3),
        ).run(num_samples=48)
        telemetry = collect_telemetry(api)
        assert telemetry.cache_hits == api.cache_hits > 0
        assert telemetry.cache_misses == api.cache_misses == api.query_cost
        assert telemetry.prefetched == run.planning["prefetch_issued"]
        rendered = telemetry.format_summary()
        assert "cache:" in rendered and "prefetched" in rendered

    def test_session_summary_covers_planning(self, network):
        api = _skewed_fleet_api(network)
        group = EventDrivenWalkers(
            _chains(network, api, 4),
            planner=DispatchPlanner(lookahead=3, policy=_policy()),
        )
        session = SamplingSession(api, group, KeyValueBackend())
        group.run(num_samples=48)
        summary = session.summary()
        assert summary["cache_hits"] == api.cache_hits
        assert summary["cache_misses"] == api.cache_misses
        assert summary["chain_steps"] == group.chain_steps
        assert summary["planning"]["prefetch_issued"] >= 0
        assert summary["planning"]["roster"] == group.roster


class TestAdaptiveLifecycle:
    def _run(self, network, n=160, seed_base=0):
        api = _skewed_fleet_api(network, shard_latency_spread=4.0)
        group = EventDrivenWalkers(
            _chains(network, api, 8, seed_base=seed_base),
            planner=DispatchPlanner(lookahead=3, policy=_policy(min_chains=3)),
        )
        return group, group.run(num_samples=n)

    def test_retirement_happens_and_completes(self, network):
        _group, run = self._run(network)
        assert len(run.samples) == 160
        assert run.planning["retired_chains"]  # the spread makes tails certain
        retired = set(run.planning["retired_chains"])
        # Retired chains' samples are still in the merged output.
        contributors = {chain for chain in range(8) if run.per_chain[chain].samples}
        assert retired & contributors

    def test_retired_chains_merge_deterministically(self, network):
        """Satellite: rerunning the same config reproduces the same merge."""
        _g1, a = self._run(network)
        _g2, b = self._run(network)
        assert a.samples == b.samples
        assert a.planning["roster"] == b.planning["roster"]
        assert a.chain_steps == b.chain_steps

    def test_retired_chain_steps_freeze(self, network):
        group, run = self._run(network)
        for chain in run.planning["retired_chains"]:
            # The audit trail: a retired chain stepped less than the most
            # active chain (it stopped when the policy shed it).
            assert run.chain_steps[chain] < max(run.chain_steps)

    def test_warm_reserves_spawn(self, network):
        api = _skewed_fleet_api(network, shard_latency_spread=4.0)
        group = EventDrivenWalkers(
            _chains(network, api, 8),
            planner=DispatchPlanner(
                lookahead=3, policy=_policy(min_chains=3, start_chains=6)
            ),
        )
        run = group.run(num_samples=160)
        assert len(run.samples) == 160
        # A retirement spawned the lowest-index reserve (chain 6); the
        # spawned chain may itself be retired by a later review, but it
        # can no longer be a dormant reserve.
        if run.planning["retired_chains"]:
            assert group.roster[6] != "reserve"


class TestPlanningCheckpoint:
    def _build(self, network):
        api = _skewed_fleet_api(network, shard_latency_spread=4.0)
        group = EventDrivenWalkers(
            _chains(network, api, 4),
            planner=DispatchPlanner(lookahead=3, policy=_policy(min_chains=2)),
        )
        return api, group

    def test_state_roundtrip_mid_flight(self, network):
        _api_ref, reference = self._build(network)
        ref_run = reference.run(num_samples=80)

        api_a, first = self._build(network)
        backend = KeyValueBackend()
        session = SamplingSession(api_a, first, backend, checkpoint_every=37)
        first.run(num_samples=80)
        assert session.saves >= 1

        api_b, resumed = self._build(network)
        resume_session = SamplingSession(api_b, resumed, backend)
        assert resume_session.resume()
        resumed_run = resumed.run(num_samples=80)

        assert resumed_run.samples == ref_run.samples
        assert resumed_run.sim_elapsed == ref_run.sim_elapsed
        assert resumed_run.planning == ref_run.planning
        assert api_b.query_cost == _api_ref.query_cost

    def test_resume_without_planner_rejected(self, network):
        api_a, first = self._build(network)
        backend = KeyValueBackend()
        session = SamplingSession(api_a, first, backend)
        first.run(num_samples=40)
        session.save()

        api_b = _skewed_fleet_api(network, shard_latency_spread=4.0)
        bare = EventDrivenWalkers(_chains(network, api_b, 4))
        resume_session = SamplingSession(api_b, bare, backend)
        with pytest.raises(SnapshotError):
            resume_session.resume()

    def test_subprocess_resume_is_bit_for_bit(self, network, tmp_path):
        """The acceptance criterion: an in-flight checkpoint with an active
        prefetch ledger and adaptive roster resumes in a *new process*."""
        _, reference = self._build(network)
        ref_run = reference.run(num_samples=80)

        api_a, first = self._build(network)
        snapshot_path = tmp_path / "planning.snapshot.jsonl"
        backend = JsonLinesBackend(snapshot_path)
        session = SamplingSession(api_a, first, backend, checkpoint_every=41)

        saves = {"n": 0}
        original = first._checkpoint_fn

        def stop_after_first(group):
            original(group)
            saves["n"] += 1
            if saves["n"] >= 1:
                raise _Interrupted()

        first._checkpoint_fn = stop_after_first
        with pytest.raises(_Interrupted):
            first.run(num_samples=80)
        assert session.saves >= 1

        script = tmp_path / "resume_child.py"
        script.write_text(_CHILD_SCRIPT)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(script), str(snapshot_path)],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        child = json.loads(proc.stdout)
        assert child["nodes"] == [s.node for s in ref_run.samples]
        assert child["query_cost"] == ref_run.queries
        assert child["sim_elapsed_hex"] == ref_run.sim_elapsed.hex()
        for key in ("prefetch_issued", "prefetch_used", "prefetch_wasted"):
            assert child["planning"][key] == ref_run.planning[key]
        assert child["planning"]["roster"] == list(ref_run.planning["roster"])


class _Interrupted(Exception):
    pass


_CHILD_SCRIPT = """
import json, sys
from repro.datasets import load
from repro.datastore.snapshot import JsonLinesBackend
from repro.compose import FleetSpec, ProviderSpec, build_fleet
from repro.interface import RestrictedSocialAPI, SamplingSession
from repro.planning import AdaptiveChainPolicy, DispatchPlanner
from repro.walks import EventDrivenWalkers, SimpleRandomWalk

network = load("epinions_like", seed=0, scale=0.15)
spec = FleetSpec(
    num_shards=4, seed=11, weights=(5.0, 1.0, 1.0, 1.0),
    provider=ProviderSpec(latency_distribution="heavy_tailed", latency_scale=0.5),
    shard_latency_spread=4.0, admission_interval=1.0,
    latency_quantum=0.5, batch_cap=16,
)
api = RestrictedSocialAPI(build_fleet(spec, network.graph, profiles=network.profiles))
chains = [SimpleRandomWalk(api, start=network.seed_node(i), seed=i) for i in range(4)]
policy = AdaptiveChainPolicy(min_chains=2, tail_ratio=1.5, evaluate_every=8, min_observations=6)
group = EventDrivenWalkers(
    chains, planner=DispatchPlanner(lookahead=3, policy=policy)
)
session = SamplingSession(api, group, JsonLinesBackend(sys.argv[1]))
assert session.resume()
run = group.run(num_samples=80)
planning = {
    key: value
    for key, value in run.planning.items()
    if key in ("prefetch_issued", "prefetch_used", "prefetch_wasted", "roster")
}
planning["roster"] = list(planning["roster"])
print(json.dumps({
    "nodes": [s.node for s in run.samples],
    "query_cost": run.queries,
    "sim_elapsed_hex": run.sim_elapsed.hex(),
    "planning": planning,
}))
"""
