"""Tests for the sharded provider fleet: routing, accounting, snapshots."""

import dataclasses

import pytest

from repro.compose import FleetSpec, ProviderSpec, build_fleet
from repro.datasets import load
from repro.datastore.snapshot import decode_value, encode_value
from repro.errors import PrivateUserError, SnapshotError
from repro.fleet import (
    DisruptionSchedule,
    ShardRouter,
    ShardedProvider,
    find_fleet,
)
from repro.interface import (
    FlakyProvider,
    InMemoryGraphProvider,
    LatencyModelProvider,
    RestrictedSocialAPI,
    collect_telemetry,
)
from repro.walks import SimpleRandomWalk


@pytest.fixture(scope="module")
def network():
    return load("epinions_like", seed=0, scale=0.15)


class TestValidation:
    def test_router_shard_mismatch(self, network):
        stacks = [InMemoryGraphProvider(network.graph) for _ in range(2)]
        with pytest.raises(ValueError):
            ShardedProvider(stacks, ShardRouter(3))

    def test_no_shards(self):
        with pytest.raises(ValueError):
            ShardedProvider([], ShardRouter(1))

    def test_bad_caps_and_intervals(self, network):
        stacks = [InMemoryGraphProvider(network.graph) for _ in range(2)]
        with pytest.raises(ValueError):
            ShardedProvider(stacks, ShardRouter(2), batch_cap=0)
        with pytest.raises(ValueError):
            ShardedProvider(stacks, ShardRouter(2), admission_interval=-1.0)
        with pytest.raises(ValueError):
            ShardedProvider(stacks, ShardRouter(2), batch_cap=[1, 2, 3])
        with pytest.raises(ValueError):
            ShardedProvider(stacks, ShardRouter(2), latency_quantum=-0.5)

    def test_disruption_count_mismatch(self, network):
        stacks = [InMemoryGraphProvider(network.graph) for _ in range(2)]
        with pytest.raises(ValueError):
            ShardedProvider(stacks, ShardRouter(2), disruptions=[None])


class TestRoutingAndBilling:
    def test_fleet_answers_match_the_graph(self, network):
        fleet = build_fleet(FleetSpec(num_shards=4, seed=1), network.graph, profiles=network.profiles)
        api = RestrictedSocialAPI(fleet)
        for user in list(network.graph.nodes())[:50]:
            resp = api.query(user)
            assert resp.neighbors == network.graph.neighbors(user)
            assert resp.neighbor_seq == network.graph.neighbors_seq(user)
        assert api.published_user_count() == network.graph.num_nodes

    def test_every_fetch_lands_on_the_owning_shard(self, network):
        fleet = build_fleet(FleetSpec(num_shards=4, seed=1), network.graph)
        api = RestrictedSocialAPI(fleet)
        users = list(network.graph.nodes())[:120]
        for user in users:
            api.query(user)
        per_shard = [0] * 4
        for user in users:
            per_shard[fleet.shard_of(user)] += 1
        assert [s.queries for s in fleet.stats] == per_shard
        assert sum(s.queries for s in fleet.stats) == api.query_cost

    def test_cache_hits_never_reach_the_fleet(self, network):
        fleet = build_fleet(FleetSpec(num_shards=2, seed=1), network.graph)
        api = RestrictedSocialAPI(fleet)
        user = network.seed_node(0)
        api.query(user)
        queries_before = sum(s.queries for s in fleet.stats)
        api.query(user)  # cache hit
        assert sum(s.queries for s in fleet.stats) == queries_before

    def test_billing_identical_to_single_provider(self, network):
        """§II-B semantics hold bit-for-bit over a zero-latency fleet."""
        plain = network.interface()
        walk_a = SimpleRandomWalk(plain, start=network.seed_node(3), seed=7)
        fleet_api = RestrictedSocialAPI(
            build_fleet(
                FleetSpec(num_shards=4, seed=1), network.graph, profiles=network.profiles
            )
        )
        walk_b = SimpleRandomWalk(fleet_api, start=network.seed_node(3), seed=7)
        nodes_a = [walk_a.step() for _ in range(200)]
        nodes_b = [walk_b.step() for _ in range(200)]
        assert nodes_a == nodes_b
        assert plain.query_cost == fleet_api.query_cost
        assert plain.total_queries == fleet_api.total_queries

    def test_private_users_bill_and_count_once(self, network):
        private_user = network.seed_node(4)
        router = ShardRouter(2, seed=1)
        stacks = [
            InMemoryGraphProvider(network.graph, inaccessible=frozenset([private_user]))
            for _ in range(2)
        ]
        fleet = ShardedProvider(stacks, router)
        api = RestrictedSocialAPI(fleet)
        assert fleet.may_refuse
        with pytest.raises(PrivateUserError):
            api.query(private_user)
        with pytest.raises(PrivateUserError):
            api.query(private_user)  # cached refusal — free
        assert api.query_cost == 1
        assert fleet.stats[fleet.shard_of(private_user)].queries == 1

    def test_may_refuse_is_fixed_by_the_shards(self, network):
        # One shard with a private user makes the whole fleet refusable;
        # a fleet without one never is, and a restored state changes neither.
        private = frozenset([network.seed_node(4)])
        refusing = FlakyProvider(InMemoryGraphProvider(network.graph, inaccessible=private), seed=3)
        mixed = ShardedProvider([InMemoryGraphProvider(network.graph), refusing], ShardRouter(2, seed=1))
        open_shards = [InMemoryGraphProvider(network.graph) for _ in range(2)]
        plain = ShardedProvider(open_shards, ShardRouter(2, seed=1))
        assert RestrictedSocialAPI(mixed).may_have_private is True
        assert RestrictedSocialAPI(plain).may_have_private is False
        for fleet, expected in ((mixed, True), (plain, False)):
            fleet.load_state(fleet.state_dict())
            assert fleet.may_refuse is expected


class TestLatencyAndDisruption:
    def test_per_shard_latency_is_deterministic(self, network):
        def build():
            spec = FleetSpec(
                num_shards=3,
                seed=5,
                provider=ProviderSpec(
                    latency_distribution="heavy_tailed", latency_scale=0.5
                ),
                shard_latency_spread=1.0,
            )
            return RestrictedSocialAPI(build_fleet(spec, network.graph))

        users = list(network.graph.nodes())[:60]
        a, b = build(), build()
        lat_a = [a.query(u).latency for u in users]
        lat_b = [b.query(u).latency for u in users]
        assert lat_a == lat_b
        assert a.latency_spent == b.latency_spent > 0

    def test_quantum_grids_every_latency(self, network):
        spec = FleetSpec(
            num_shards=2,
            seed=5,
            provider=ProviderSpec(latency_distribution="uniform", latency_scale=1.0),
            latency_quantum=0.25,
        )
        api = RestrictedSocialAPI(build_fleet(spec, network.graph))
        for user in list(network.graph.nodes())[:40]:
            latency = api.query(user).latency
            assert latency > 0
            assert latency == 0.25 * round(latency / 0.25)

    def test_disruption_schedule_is_pure(self):
        a = DisruptionSchedule(seed=3, window=16)
        b = DisruptionSchedule(seed=3, window=16)
        assert [a.mode_of(i) for i in range(500)] == [b.mode_of(i) for i in range(500)]
        modes = {a.mode_of(i) for i in range(5000)}
        assert modes == {"ok", "degraded", "outage"}

    def test_disruption_inflates_latency_and_counts(self, network):
        # A schedule that is *always* in outage makes the effect exact.
        schedule = DisruptionSchedule(
            seed=0,
            degraded_rate=0.0,
            outage_rate=1.0,
            degraded_multiplier=2.0,
            outage_penalty=10.0,
        )
        base = LatencyModelProvider(
            InMemoryGraphProvider(network.graph), distribution="constant", scale=1.0
        )
        fleet = ShardedProvider([base], ShardRouter(1), disruptions=[schedule])
        api = RestrictedSocialAPI(fleet)
        resp = api.query(network.seed_node(0))
        assert resp.latency == 1.0 * 2.0 + 10.0
        assert fleet.stats[0].disrupted == 1

    def test_disruption_validation(self):
        with pytest.raises(ValueError):
            DisruptionSchedule(window=0)
        with pytest.raises(ValueError):
            DisruptionSchedule(degraded_rate=0.8, outage_rate=0.4)
        with pytest.raises(ValueError):
            DisruptionSchedule(degraded_multiplier=0.5)
        with pytest.raises(ValueError):
            DisruptionSchedule(outage_penalty=-1.0)

    def test_flaky_shard_retries_are_accounted(self, network):
        spec = FleetSpec(
            num_shards=2,
            seed=9,
            provider=ProviderSpec(
                latency_distribution="constant",
                latency_scale=0.1,
                failure_rate=0.3,
                timeout_latency=1.0,
            ),
        )
        fleet = build_fleet(spec, network.graph)
        api = RestrictedSocialAPI(fleet)
        for user in list(network.graph.nodes())[:80]:
            api.query(user)
        assert sum(s.retries for s in fleet.stats) > 0
        telemetry = collect_telemetry(api)
        assert telemetry.retries == sum(s.retries for s in fleet.stats)
        assert telemetry.shards is not None and len(telemetry.shards) == 2


class TestFindFleet:
    def test_found_at_root_and_nested(self, network):
        fleet = build_fleet(FleetSpec(num_shards=2, seed=1), network.graph)
        assert find_fleet(fleet) is fleet
        wrapped = FlakyProvider(fleet, failure_rate=0.0)
        assert find_fleet(wrapped) is fleet

    def test_absent(self, network):
        assert find_fleet(InMemoryGraphProvider(network.graph)) is None


class TestFleetSnapshots:
    def test_state_round_trips_through_codec(self, network):
        spec = FleetSpec(
            num_shards=3,
            seed=2,
            provider=ProviderSpec(
                latency_distribution="heavy_tailed",
                latency_scale=0.5,
                failure_rate=0.2,
            ),
            disruption={"window": 8},
        )
        fleet = build_fleet(spec, network.graph)
        api = RestrictedSocialAPI(fleet)
        users = list(network.graph.nodes())
        for user in users[:90]:
            api.query(user)
        captured = decode_value(encode_value(fleet.state_dict()))

        restored = build_fleet(spec, network.graph)
        restored.load_state(captured)
        assert [s.state_dict() for s in restored.stats] == [
            s.state_dict() for s in fleet.stats
        ]
        # The restored fleet replays the *same* flaky stream: fetching the
        # same continuation users yields identical latencies.
        continuation = users[90:140]
        lat_a = [fleet.fetch(u).latency for u in continuation]
        lat_b = [restored.fetch(u).latency for u in continuation]
        assert lat_a == lat_b

    def test_stats_state_equals_field_deep_copy(self, network):
        fleet = build_fleet(FleetSpec(num_shards=2, seed=2), network.graph)
        api = RestrictedSocialAPI(fleet)
        users = list(network.graph.nodes())
        fleet.set_active_tenant("a")
        for user in users[:20]:
            api.query(user)
        fleet.set_active_tenant("b")
        for user in users[20:30]:
            api.query(user)
        fleet.set_active_tenant(None)
        for stats in fleet.stats:
            state = stats.state_dict()
            assert state == dataclasses.asdict(stats)
            assert list(state) == [f.name for f in dataclasses.fields(stats)]
            # The books are copies: later bookings do not leak into the state.
            for label, book in state["tenants"].items():
                assert book is not stats.tenants[label]
        assert any(stats.tenants for stats in fleet.stats)

    def test_router_mismatch_rejected_on_load(self, network):
        fleet = build_fleet(FleetSpec(num_shards=2, seed=2), network.graph)
        captured = fleet.state_dict()
        other = build_fleet(FleetSpec(num_shards=2, seed=3), network.graph)
        with pytest.raises(SnapshotError):
            other.load_state(captured)
