"""The unified composition API: specs, builders, codec round-trips.

ISSUE 6 satellite: one declarative ``StackConfig`` stands up the whole
provider → interface → walkers → planner stack, round-trips through the
snapshot codec bit-for-bit.
"""

import dataclasses

import pytest

from repro.compose import (
    FleetSpec,
    PlannerSpec,
    PolicySpec,
    ProviderSpec,
    RateLimitSpec,
    StackConfig,
    WalkSpec,
    build_stack,
    walk_starts,
)
from repro.datasets import load
from repro.datastore.snapshot import KeyValueBackend, decode_value, encode_value
from repro.errors import ComposeError, SnapshotError
from repro.walks import SimpleRandomWalk


@pytest.fixture(scope="module")
def network():
    return load("epinions_like", seed=0, scale=0.2)


class TestBuildStack:
    def test_assembles_every_layer(self, network):
        config = StackConfig(
            fleet=FleetSpec(num_shards=2, seed=5),
            walk=WalkSpec(engine="srw", chains=3, seed=4),
            planner=PlannerSpec(lookahead=2),
            query_budget=10_000,
        )
        stack = build_stack(config, network)
        assert stack.config is config
        assert len(stack.samplers) == 3
        assert all(s.api is stack.api for s in stack.samplers)
        assert stack.planner is not None
        assert stack.walkers.planner is stack.planner

    def test_run_returns_unified_result(self, network):
        stack = build_stack(StackConfig(walk=WalkSpec(chains=2, seed=1)), network)
        run = stack.run(num_samples=20)
        assert len(run.samples) == 20
        assert run.queries == stack.api.query_cost

    def test_fresh_planner_per_stack(self, network):
        config = StackConfig(
            walk=WalkSpec(chains=2, seed=2), planner=PlannerSpec(lookahead=3)
        )
        first = build_stack(config, network)
        second = build_stack(config, network)
        assert first.planner is not second.planner

    @pytest.mark.parametrize(
        "config",
        [
            StackConfig(walk=WalkSpec(engine="teleport")),
            StackConfig(walk=WalkSpec(chains=1)),
            StackConfig(walk=WalkSpec(chains=3, starts=("a", "b"))),
        ],
    )
    def test_invalid_configs_raise(self, network, config):
        with pytest.raises(ComposeError):
            build_stack(config, network)


def _collect(stack, target):
    """Drive ``stack`` to ``target`` samples through the incremental API."""
    stack.walkers.begin_collect(target, 1)
    while not stack.walkers.collect_tick(target):
        pass


class TestRestore:
    CONFIG = StackConfig(
        fleet=FleetSpec(
            num_shards=2,
            seed=5,
            provider=ProviderSpec(latency_distribution="uniform", failure_rate=0.2),
        ),
        walk=WalkSpec(engine="nbrw", chains=3, seed=4),
        planner=PlannerSpec(lookahead=2),
    )

    def test_restore_issues_no_reads_and_continues_bit_for_bit(self, network):
        reference = build_stack(self.CONFIG, network)
        _collect(reference, 30)
        _collect(reference, 60)

        first = build_stack(self.CONFIG, network)
        _collect(first, 30)
        sections = decode_value(
            encode_value(
                {
                    "api": first.api.state_dict(include_shared=False),
                    "walkers": first.walkers.state_dict(),
                }
            )
        )
        shared = (first.fleet.state_dict(), first.api.cache.state_dict())
        restored = build_stack(
            self.CONFIG, network, cache=first.api.cache, fleet=first.fleet, state=sections
        )
        # No start-node query: the shared layers and the log are as captured.
        assert (first.fleet.state_dict(), first.api.cache.state_dict()) == shared
        assert restored.api.log.state_dict() == first.api.log.state_dict()

        _collect(restored, 60)
        assert restored.walkers.result().samples == reference.walkers.result().samples
        assert restored.api.query_cost == reference.api.query_cost

    def test_unbootstrapped_sampler_queries_nothing(self, network):
        start = network.seed_node(0)
        api = network.interface()
        walk = SimpleRandomWalk(api, start=start, seed=1, bootstrap=False)
        assert api.query_cost == 0 and api.log.state_dict()["records"] == []
        assert walk.trace == ()

        source = SimpleRandomWalk(network.interface(), start=start, seed=1)
        for _ in range(5):
            source.step()
        walk.load_state(source.state_dict())
        assert [walk.step() for _ in range(10)] == [source.step() for _ in range(10)]
        assert walk.trace == source.trace


class TestWalkStarts:
    def test_explicit_starts_win(self, network):
        starts = (network.seed_node(50), network.seed_node(51))
        config = StackConfig(walk=WalkSpec(chains=2, starts=starts))
        assert walk_starts(config, network) == starts

    def test_derived_starts_follow_seed(self, network):
        config = StackConfig(walk=WalkSpec(chains=3, seed=9))
        assert walk_starts(config, network) == tuple(
            network.seed_node(9 + i) for i in range(3)
        )


class TestSpecCodec:
    CONFIG = StackConfig(
        fleet=FleetSpec(
            num_shards=3,
            seed=7,
            weights=(4.0, 1.0, 1.0),
            provider=ProviderSpec(
                latency_distribution="heavy_tailed", latency_scale=0.4
            ),
            shard_latency_spread=1.0,
            batch_cap=16,
            admission_interval=2.0,
            latency_quantum=0.5,
        ),
        walk=WalkSpec(engine="mhrw", chains=4, seed=11, max_lead=32),
        planner=PlannerSpec(lookahead=4, policy=PolicySpec(min_chains=2)),
        rate_limit=RateLimitSpec(kind="fixed_window", limit=10, window=1.0),
        query_budget=500,
        seconds_per_query=2.0,
    )

    def test_value_round_trip_is_equal(self):
        assert decode_value(encode_value(self.CONFIG)) == self.CONFIG

    def test_backend_round_trip_is_equal(self):
        backend = KeyValueBackend()
        backend.write({"config": self.CONFIG})
        assert backend.read()["config"] == self.CONFIG

    def test_round_trip_builds_identical_stack(self, network):
        config = decode_value(encode_value(StackConfig(walk=WalkSpec(chains=2, seed=3))))
        a = build_stack(StackConfig(walk=WalkSpec(chains=2, seed=3)), network).run(30)
        b = build_stack(config, network).run(30)
        assert a.samples == b.samples and a.queries == b.queries


def _older(spec, **removed):
    """``spec`` as a build that still had the ``removed`` fields encoded it."""
    tag, _payload = encode_value(spec)
    fields = {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}
    return [tag, encode_value({**fields, **removed})]


class TestRemovedSpecFields:
    """Specs from builds with frontier speculation and the batch window load or fail loudly."""

    def test_planner_spec_without_speculation_loads(self):
        spec = PlannerSpec(lookahead=3, policy=PolicySpec(min_chains=2))
        assert decode_value(_older(spec, speculation=0, seed=17)) == spec

    def test_planner_spec_with_speculation_is_refused(self):
        with pytest.raises(SnapshotError, match="speculation=2"):
            decode_value(_older(PlannerSpec(), speculation=2, seed=0))

    def test_walk_spec_without_batch_window_loads(self):
        spec = WalkSpec(engine="mhrw", chains=3, seed=4)
        assert decode_value(_older(spec, batch_window=0.0)) == spec

    def test_walk_spec_with_batch_window_is_refused(self):
        with pytest.raises(SnapshotError, match="batch_window=0.25"):
            decode_value(_older(WalkSpec(), batch_window=0.25))
