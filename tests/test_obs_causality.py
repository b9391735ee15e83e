"""Critical-path attribution tests (ISSUE 10 acceptance).

The acceptance check lives here: over a seeded skewed-fleet
multi-tenant service run, the causal profiler must attribute 100% of
the simulated wall-clock to exclusive categories whose tiling meets the
run clock, each tenant's scheduler elapsed, and each tenant's latency
book *bit-for-bit* — no float tolerance anywhere.
"""

import math

import pytest

from repro.compose import (
    FleetSpec,
    PlannerSpec,
    ProviderSpec,
    StackConfig,
    WalkSpec,
    build_stack,
)
from repro.datasets import load
from repro.errors import ExperimentError
from repro.experiments import run_obs_critical_path
from repro.interface import collect_telemetry
from repro.obs import (
    CATEGORY_SHARD_LATENCY,
    TraceRecorder,
    attribute_run,
    attribute_service,
    build_dag,
    reconcile_attribution,
    reconcile_service,
)
from repro.service import SamplingService


@pytest.fixture(scope="module")
def network():
    return load("epinions_like", seed=0, scale=0.15)


def _skewed_fleet(seed=5, provider=None, **extra):
    if provider is None:
        provider = ProviderSpec(latency_distribution="constant", latency_scale=0.5)
    return FleetSpec(
        num_shards=3,
        seed=seed,
        weights=(0.6, 0.3, 0.1),
        shard_latency_spread=1.0,
        provider=provider,
        **extra,
    )


def _traced_stack(network, config):
    recorder = TraceRecorder()
    stack = build_stack(config, network, recorder=recorder)
    stack.run(num_samples=40)
    return recorder, stack


class TestAttributeRun:
    def test_wall_clock_matches_scheduler_bitwise(self, network):
        recorder, stack = _traced_stack(
            network,
            StackConfig(
                fleet=_skewed_fleet(),
                walk=WalkSpec(engine="srw", chains=4, seed=11),
                planner=PlannerSpec(lookahead=2),
            ),
        )
        attribution = attribute_run(recorder)
        assert attribution.wall_clock == stack.walkers.simulated_elapsed
        assert attribution.total() == pytest.approx(attribution.wall_clock, abs=0.0)

    def test_segments_tile_the_wall_exactly(self, network):
        recorder, stack = _traced_stack(
            network,
            StackConfig(
                fleet=_skewed_fleet(),
                walk=WalkSpec(engine="srw", chains=4, seed=11),
                planner=PlannerSpec(lookahead=2),
            ),
        )
        attribution = attribute_run(recorder)
        segments = attribution.segments
        assert segments[0].start == 0.0
        assert segments[-1].end == attribution.wall_clock
        for left, right in zip(segments, segments[1:]):
            assert left.end == right.start  # bitwise, no tolerance
        assert math.fsum(s.width for s in segments) == attribution.total()

    def test_reconciles_against_telemetry(self, network):
        recorder, stack = _traced_stack(
            network,
            StackConfig(
                fleet=_skewed_fleet(),
                walk=WalkSpec(engine="srw", chains=4, seed=11),
                planner=PlannerSpec(lookahead=2),
            ),
        )
        attribution = attribute_run(recorder)
        telemetry = collect_telemetry(stack.api)
        assert reconcile_attribution(attribution, telemetry=telemetry) == []

    def test_stressed_run_reconciles(self, network):
        """Retries, admission gaps and tight caps."""
        recorder, stack = _traced_stack(
            network,
            StackConfig(
                fleet=_skewed_fleet(
                    admission_interval=(0.2, 0.0, 0.4),
                    batch_cap=2,
                    provider=ProviderSpec(
                        latency_distribution="uniform",
                        latency_scale=0.5,
                        failure_rate=0.2,
                        max_attempts=6,
                    ),
                ),
                walk=WalkSpec(engine="srw", chains=4, seed=11),
                planner=PlannerSpec(lookahead=2),
            ),
        )
        attribution = attribute_run(recorder)
        assert attribution.wall_clock == stack.walkers.simulated_elapsed
        telemetry = collect_telemetry(stack.api)
        assert reconcile_attribution(attribution, telemetry=telemetry) == []

    def test_plannerless_unbatched_run_reconciles(self, network):
        recorder, stack = _traced_stack(
            network,
            StackConfig(
                fleet=_skewed_fleet(),
                walk=WalkSpec(engine="mhrw", chains=3, seed=7),
            ),
        )
        attribution = attribute_run(recorder)
        assert attribution.wall_clock == stack.walkers.simulated_elapsed
        telemetry = collect_telemetry(stack.api)
        assert reconcile_attribution(attribution, telemetry=telemetry) == []
        assert CATEGORY_SHARD_LATENCY in attribution.categories

    def test_counts_account_for_every_action(self, network):
        recorder, _ = _traced_stack(
            network,
            StackConfig(
                fleet=_skewed_fleet(),
                walk=WalkSpec(engine="srw", chains=4, seed=11),
                planner=PlannerSpec(lookahead=2),
            ),
        )
        attribution = attribute_run(recorder)
        counts = attribution.counts
        assert counts["actions"] == counts["steps"] + counts["samples"]
        assert 0 < counts["free_steps"] <= counts["steps"]
        assert counts["prefetch_issued"] >= counts["prefetch_landed"] >= 0
        assert counts["path_segments"] == len(attribution.segments)

    def test_explicit_wall_clock_mismatch_is_flagged(self, network):
        recorder, stack = _traced_stack(
            network,
            StackConfig(
                fleet=_skewed_fleet(),
                walk=WalkSpec(engine="srw", chains=4, seed=11),
            ),
        )
        attribution = attribute_run(recorder)
        problems = reconcile_attribution(
            attribution, wall_clock=attribution.wall_clock + 1.0
        )
        assert any("wall_clock" in problem for problem in problems)


class TestServiceAttribution:
    def test_multi_tenant_attribution_reconciles_bitwise(self, network):
        """The ISSUE 10 acceptance criterion, end to end."""
        recorder = TraceRecorder()
        service = SamplingService(network, fleet=_skewed_fleet(), recorder=recorder)
        for i, tenant in enumerate(("alpha", "beta", "gamma")):
            service.register(
                tenant,
                StackConfig(
                    walk=WalkSpec(
                        engine="mhrw" if i % 2 else "srw", chains=2, seed=20 + i
                    ),
                    planner=PlannerSpec(lookahead=2) if i == 0 else None,
                ),
            )
            service.request(tenant, 30 if tenant == "alpha" else 10)
        service.run_pending()

        attribution = attribute_service(recorder)
        assert reconcile_service(attribution) == []
        # Outer tiling: the quanta partition [0, service clock] exactly.
        assert attribution.quanta[0].start == 0.0
        assert attribution.quanta[-1].end == attribution.clock
        for left, right in zip(attribution.quanta, attribution.quanta[1:]):
            assert left.end == right.start
        # Inner tilings: each tenant's own wall is its scheduler elapsed,
        # bit for bit, and reconciles against its latency book.
        for tenant in ("alpha", "beta", "gamma"):
            inner = attribution.per_tenant[tenant]
            walkers = service.tenant(tenant).stack.walkers
            assert inner.wall_clock == walkers.simulated_elapsed
            telemetry = collect_telemetry(service.tenant(tenant).stack.api)
            assert reconcile_attribution(inner, telemetry=telemetry) == []

    def test_tenant_filter_matches_service_slice(self, network):
        recorder = TraceRecorder()
        service = SamplingService(network, fleet=_skewed_fleet(), recorder=recorder)
        for tenant in ("alpha", "beta"):
            service.register(
                tenant, StackConfig(walk=WalkSpec(engine="srw", chains=2, seed=3))
            )
            service.request(tenant, 10)
        service.run_pending()
        attribution = attribute_service(recorder)
        direct = attribute_run(recorder, tenant="alpha")
        assert direct.wall_clock == attribution.per_tenant["alpha"].wall_clock
        assert direct.categories == attribution.per_tenant["alpha"].categories


class TestCausalDag:
    def test_dag_edges_reference_recorded_events(self, network):
        recorder, _ = _traced_stack(
            network,
            StackConfig(
                fleet=_skewed_fleet(),
                walk=WalkSpec(engine="srw", chains=4, seed=11),
                planner=PlannerSpec(lookahead=2),
            ),
        )
        dag = build_dag(recorder)
        seqs = {event.seq for event in recorder.events}
        for src, dst, _kind in dag.edges:
            assert src in seqs and dst in seqs
        summary = dag.summary()
        assert summary["nodes"] == len(recorder.events)
        assert summary["edges"]["fetch"] > 0
        assert summary["edges"]["prefetch"] > 0

    def test_fetch_edges_point_at_consuming_actions(self, network):
        recorder, _ = _traced_stack(
            network,
            StackConfig(
                fleet=_skewed_fleet(),
                walk=WalkSpec(engine="srw", chains=2, seed=11),
            ),
        )
        dag = build_dag(recorder)
        by_seq = {event.seq: event for event in recorder.events}
        for src, dst, _kind in dag.edges_of("fetch"):
            assert by_seq[src].name == "shard_fetch"
            assert by_seq[dst].name in ("walk_step", "sample", "prefetch_issue")


class TestExperimentDriver:
    def test_run_obs_critical_path_reconciles_and_exports(self, network, tmp_path):
        jsonl = tmp_path / "causality.jsonl"
        result = run_obs_critical_path(
            network, num_samples=10, seed=2, jsonl_path=str(jsonl)
        )
        assert result.problems == []
        assert jsonl.exists()
        assert set(result.quanta_by_tenant) == {"t0", "t1", "t2"}
        for tenant, categories in result.categories_by_tenant.items():
            # Exclusive categories: per-tenant totals re-sum to the
            # tenant's own wall, which the driver already reconciled.
            assert all(width >= 0.0 for width in categories.values())
        assert "attribution reconciled" in str(result)

    def test_run_obs_critical_path_rejects_empty_workloads(self, network):
        with pytest.raises(ExperimentError):
            run_obs_critical_path(network, num_tenants=0)
