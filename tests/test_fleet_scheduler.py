"""Tests for batch-coalescing dispatch over a provider fleet (ISSUE 4).

Acceptance bars:

* over a single zero-latency shard the coalescing scheduler reproduces
  lock-step rounds bit-for-bit — same samples, query cost, R̂;
* with a skewed multi-shard fleet and coalescing on, the same samples
  arrive at identical §II-B query cost in less simulated wall-clock;
* mid-run fleet state (router, per-shard stacks, open bursts, admission
  horizons) snapshots through :class:`SamplingSession` and resumes
  bit-for-bit in a fresh process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.convergence.gelman_rubin import GelmanRubinDiagnostic
from repro.datasets import load
from repro.datastore.snapshot import JsonLinesBackend, KeyValueBackend
from repro.compose import FleetSpec, ProviderSpec, build_fleet
from repro.errors import WalkError
from repro.fleet import find_fleet
from repro.interface import RestrictedSocialAPI, SamplingSession
from repro.planning import DispatchPlanner
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


def _skewed_fleet_api(network, cap, failure_rate=0.0):
    spec = FleetSpec(
        num_shards=4,
        seed=11,
        weights=(5.0, 1.0, 1.0, 1.0),
        provider=ProviderSpec(
            latency_distribution="heavy_tailed",
            latency_scale=0.5,
            failure_rate=failure_rate,
        ),
        shard_latency_spread=1.0,
        admission_interval=1.0,
        latency_quantum=0.5,
        batch_cap=cap,
    )
    return RestrictedSocialAPI(
        build_fleet(spec, network.graph, profiles=network.profiles)
    )


class TestValidation:
    def test_coalescing_is_on_iff_the_stack_has_a_fleet(self, network):
        assert EventDrivenWalkers(_chains(network, network.interface())).fleet is None
        api = _skewed_fleet_api(network, cap=8, failure_rate=0.1)
        assert EventDrivenWalkers(_chains(network, api)).fleet is find_fleet(api.provider)

    def test_planner_requires_a_fleet(self, network):
        with pytest.raises(WalkError):
            EventDrivenWalkers(
                _chains(network, network.interface()), planner=DispatchPlanner()
            )

    def test_batch_window_requires_a_fleet(self, network):
        with pytest.raises(WalkError):
            EventDrivenWalkers(
                _chains(network, network.interface()), batch_window=1.0
            )

    def test_negative_window(self, network):
        api = _skewed_fleet_api(network, cap=8)
        with pytest.raises(WalkError):
            EventDrivenWalkers(_chains(network, api), batch_window=-1.0)


class TestFleetEquivalence:
    """The ISSUE 4 determinism criteria."""

    CONFIGS = [
        dict(num_samples=48),
        dict(num_samples=50, thinning=3),
        dict(num_samples=40, monitor=GelmanRubinDiagnostic(threshold=1.2)),
        dict(num_samples=6),  # fewer samples than a full round
    ]

    @pytest.mark.parametrize("config", CONFIGS, ids=[str(i) for i in range(len(CONFIGS))])
    def test_zero_latency_single_shard_batched_matches_lockstep(self, network, config):
        """Batching ON over a trivial fleet == lock-step rounds, bit for bit."""
        lock_run = ParallelWalkers(_chains(network, network.interface())).run(**config)
        fleet_api = RestrictedSocialAPI(
            build_fleet(FleetSpec(num_shards=1, seed=0), network.graph, profiles=network.profiles)
        )
        event = EventDrivenWalkers(_chains(network, fleet_api))
        event_run = event.run(**config)
        assert event_run.samples == lock_run.samples
        assert event_run.queries == lock_run.queries
        assert event_run.r_hat_at_convergence == lock_run.r_hat_at_convergence
        assert event_run.sim_elapsed == 0.0

    def test_coalescing_same_bill_less_waiting(self, network):
        k, n = 8, 240
        uncoalesced = EventDrivenWalkers(
            _chains(network, _skewed_fleet_api(network, cap=1), k)
        ).run(num_samples=n)
        coalesced = EventDrivenWalkers(
            _chains(network, _skewed_fleet_api(network, cap=8), k)
        ).run(num_samples=n)
        assert coalesced.queries == uncoalesced.queries
        assert sorted(s.node for s in coalesced.samples) == sorted(
            s.node for s in uncoalesced.samples
        )
        assert coalesced.sim_elapsed < uncoalesced.sim_elapsed
        # Coalescing showed up in the books: multi-fetch round trips.
        assert max(row.max_in_flight for row in coalesced.shards.values()) > 1
        assert all(row.max_in_flight <= 8 for row in coalesced.shards.values())

    def test_batch_window_trades_delay_for_depth(self, network):
        k, n = 8, 160
        tight = EventDrivenWalkers(
            _chains(network, _skewed_fleet_api(network, cap=8), k)
        ).run(num_samples=n)
        held = EventDrivenWalkers(
            _chains(network, _skewed_fleet_api(network, cap=8), k),
            batch_window=1.0,
        ).run(num_samples=n)
        assert held.queries == tight.queries
        held_bursts = sum(row.bursts for row in held.shards.values())
        tight_bursts = sum(row.bursts for row in tight.shards.values())
        assert held_bursts <= tight_bursts  # the window packs rounds deeper

    def test_burn_in_runs_batched(self, network):
        api = _skewed_fleet_api(network, cap=8)
        run = EventDrivenWalkers(_chains(network, api, 4)).run(
            num_samples=24, monitor=GelmanRubinDiagnostic(threshold=1.3)
        )
        assert len(run.samples) == 24
        assert run.r_hat_at_convergence is not None
        assert run.latency_spent > 0

    def test_telemetry_surfaced_on_the_run(self, network):
        api = _skewed_fleet_api(network, cap=8, failure_rate=0.2)
        run = EventDrivenWalkers(_chains(network, api, 4)).run(
            num_samples=32
        )
        assert run.latency_spent == api.latency_spent > 0
        assert run.retries > 0
        assert set(run.shards) == {0, 1, 2, 3}
        assert sum(r.queries for r in run.shards.values()) == api.query_cost


class TestFleetCheckpointing:
    def _build(self, network, cap=8):
        api = _skewed_fleet_api(network, cap=cap, failure_rate=0.1)
        return api, EventDrivenWalkers(_chains(network, api, 4))

    def test_state_roundtrip_mid_flight(self, network):
        api_ref, reference = self._build(network)
        ref_run = reference.run(num_samples=60)

        api_a, first = self._build(network)
        backend = KeyValueBackend()
        session = SamplingSession(api_a, first, backend, checkpoint_every=37)
        first.run(num_samples=60)
        assert session.saves >= 1

        api_b, resumed = self._build(network)
        resume_session = SamplingSession(api_b, resumed, backend)
        assert resume_session.resume()
        resumed_run = resumed.run(num_samples=60)

        assert resumed_run.samples == ref_run.samples
        assert resumed_run.queries == ref_run.queries
        assert resumed_run.sim_elapsed == ref_run.sim_elapsed
        assert api_b.query_cost == api_ref.query_cost
        # The per-shard books resumed too.
        fleet_ref = api_ref.provider
        fleet_b = api_b.provider
        assert [s.state_dict() for s in fleet_b.stats] == [
            s.state_dict() for s in fleet_ref.stats
        ]

    def test_session_summary_covers_the_fleet(self, network):
        api, group = self._build(network)
        backend = KeyValueBackend()
        session = SamplingSession(api, group, backend)
        group.run(num_samples=24)
        summary = session.summary()
        assert summary["query_cost"] == api.query_cost
        assert summary["latency_spent"] == api.latency_spent
        assert set(summary["shards"]) == {0, 1, 2, 3}
        assert summary["sampler_type"] == "EventDrivenWalkers"

    def test_subprocess_resume_is_bit_for_bit(self, network, tmp_path):
        """The acceptance criterion, literally: resume in a *new process*."""
        _, reference = self._build(network)
        ref_run = reference.run(num_samples=60)

        api_a, first = self._build(network)
        snapshot_path = tmp_path / "fleet.snapshot.jsonl"
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
            first.run(num_samples=60)
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
        assert child["weights_hex"] == [s.weight.hex() for s in ref_run.samples]


class _Interrupted(Exception):
    pass


_CHILD_SCRIPT = """
import json, sys
from repro.datasets import load
from repro.datastore.snapshot import JsonLinesBackend
from repro.compose import FleetSpec, ProviderSpec, build_fleet
from repro.interface import RestrictedSocialAPI, SamplingSession
from repro.walks import EventDrivenWalkers, SimpleRandomWalk

network = load("epinions_like", seed=0, scale=0.15)
spec = FleetSpec(
    num_shards=4, seed=11, weights=(5.0, 1.0, 1.0, 1.0),
    provider=ProviderSpec(latency_distribution="heavy_tailed",
                          latency_scale=0.5, failure_rate=0.1),
    shard_latency_spread=1.0, admission_interval=1.0,
    latency_quantum=0.5, batch_cap=8,
)
api = RestrictedSocialAPI(build_fleet(spec, network.graph, profiles=network.profiles))
chains = [SimpleRandomWalk(api, start=network.seed_node(i), seed=i) for i in range(4)]
group = EventDrivenWalkers(chains)
session = SamplingSession(api, group, JsonLinesBackend(sys.argv[1]))
assert session.resume()
run = group.run(num_samples=60)
print(json.dumps({
    "nodes": [s.node for s in run.samples],
    "query_cost": run.queries,
    "sim_elapsed_hex": run.sim_elapsed.hex(),
    "weights_hex": [s.weight.hex() for s in run.samples],
}))
"""


class TestRerunWithLargerTarget:
    """``run`` on a finished scheduler with a larger target re-opens collection.

    It takes the path the service's ``begin_collect`` takes: the samples
    already merged stay first, and the result holds the larger target.
    """

    @pytest.mark.parametrize("fleet", [False, True], ids=["no-fleet", "fleet"])
    def test_rerun_collects_the_larger_target(self, network, fleet):
        def build():
            if fleet:
                api = _skewed_fleet_api(network, cap=8)
            else:
                api = network.interface(latency_distribution="heavy_tailed", latency_seed=4)
            return EventDrivenWalkers(_chains(network, api))

        walkers = build()
        first = walkers.run(num_samples=30)
        again = walkers.run(num_samples=60)
        assert walkers.phase == "done"
        assert len(again.samples) == 60
        assert again.samples[:30] == first.samples

        incremental = build()
        incremental.run(num_samples=30)
        incremental.begin_collect(60)
        while not incremental.collect_tick(60):
            pass
        assert again.samples == incremental.result().samples
        assert again.sim_elapsed == incremental.result().sim_elapsed
