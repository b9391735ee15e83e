"""Causal profiler driver: critical path, attribution, SLOs, trace diff.

:mod:`repro.experiments.obs_trace` proves the timeline adds up;
this driver explains it.  :func:`run_obs_critical_path` runs a seeded
multi-tenant workload over a deliberately skewed fleet with live SLO
watchers attached, then walks every tenant's causal critical path and
attributes 100% of the service's simulated wall-clock to exclusive wait
categories (:mod:`repro.obs.causality`) — failing loudly unless the
tiling reconciles bit-for-bit against the run clock and each tenant's
latency book.

:func:`run_obs_tracediff` runs the canonical regression pair — the same
stack with the prefetch planner on and off — and prints
:meth:`~repro.obs.diff.TraceDiff.explain`: the wall-clock delta,
its category movers, and the dominant causal driver (planner prefetch,
for this pair, by construction).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.compose import (
    FleetSpec,
    PlannerSpec,
    ProviderSpec,
    StackConfig,
    WalkSpec,
    build_stack,
)
from repro.datasets.standins import SocialNetwork
from repro.errors import ExperimentError
from repro.interface.telemetry import collect_telemetry
from repro.obs import (
    SLOWatcher,
    TraceDiff,
    TraceRecorder,
    attribute_service,
    cache_hit_rate_slo,
    diff_traces,
    export_jsonl,
    reconcile_attribution,
    reconcile_service,
    retry_rate_slo,
    shard_in_flight_slo,
    tenant_pace_slo,
)
from repro.service import SamplingService


@dataclasses.dataclass
class ObsCriticalPathResult:
    """What one causally profiled multi-tenant run decomposed into.

    Attributes:
        dataset: Network label.
        num_tenants: Concurrent tenants in the workload.
        num_samples: Samples each cold tenant requested.
        clock: The service's final simulated clock.
        quanta_by_tenant: Outer tiling — each tenant's share of the
            service clock, summed from its quantum segments.
        categories_by_tenant: Inner tiling — each tenant's own
            wall-clock split into exclusive critical-path categories.
        counts_by_tenant: Structural counters (actions, free cache-hit
            steps, prefetches, critical-path segments) per tenant.
        breaches: ``(slo, ts, value)`` for every SLO breach the watcher
            recorded, in emission order.
        problems: Reconciliation mismatches — empty means the tilings
            meet the clock and the latency books bit-for-bit.
        jsonl_path: Where the traced event log went (``None`` = skipped).
    """

    dataset: str
    num_tenants: int
    num_samples: int
    clock: float
    quanta_by_tenant: Dict[str, float]
    categories_by_tenant: Dict[str, Dict[str, float]]
    counts_by_tenant: Dict[str, Dict[str, int]]
    breaches: List[Tuple[str, float, float]]
    problems: List[str]
    jsonl_path: Optional[str] = None

    def __str__(self) -> str:
        lines = [
            f"critical path — {self.num_tenants} tenants on {self.dataset}: "
            f"clock {self.clock:.3f}s, attribution "
            + ("reconciled" if not self.problems else f"FAILED ({len(self.problems)})"),
        ]
        for tenant in sorted(self.quanta_by_tenant):
            lines.append(
                f"  tenant {tenant}: {self.quanta_by_tenant[tenant]:.3f}s of the clock"
            )
            categories = self.categories_by_tenant[tenant]
            for category in sorted(categories, key=categories.get, reverse=True):
                lines.append(f"    {category:>16}: {categories[category]:.3f}s")
            counts = self.counts_by_tenant[tenant]
            lines.append(
                "    {:>16}: {} actions, {} free cache-hit steps, "
                "{} path segments".format(
                    "structure",
                    counts["actions"],
                    counts["free_steps"],
                    counts["path_segments"],
                )
            )
        if self.breaches:
            for slo, ts, value in self.breaches:
                lines.append(f"  SLO breach: {slo} = {value:.4f} at t={ts:.3f}s")
        else:
            lines.append("  SLO breaches: none")
        for problem in self.problems:
            lines.append(f"  MISMATCH: {problem}")
        if self.jsonl_path:
            lines.append(f"  event log: {self.jsonl_path}")
        return "\n".join(lines)


def run_obs_critical_path(
    network: SocialNetwork,
    num_tenants: int = 3,
    num_samples: int = 30,
    hot_skew: float = 3.0,
    num_shards: int = 3,
    seed: int = 0,
    pace_ceiling: float = 0.5,
    jsonl_path: Optional[str] = None,
) -> ObsCriticalPathResult:
    """Profile one skewed multi-tenant run down to causal categories.

    Args:
        network: Dataset to sample.
        num_tenants: Concurrent tenants (first one is the hot tenant).
        num_samples: Samples per cold tenant.
        hot_skew: Hot tenant's request size as a multiple of a cold one's.
        num_shards: Shared fleet size; shard weights skew 2x per shard
            and the latency spread is on, so the critical path has real
            structure to find.
        seed: Master seed — attribution is a pure function of it.
        pace_ceiling: p95 seconds-per-sample SLO ceiling for the hot
            tenant (deliberately tight so the driver demonstrates a
            breach timeline on the default workload).
        jsonl_path: When given, write the traced event log (breach
            events included) as codec-exact JSONL.

    Raises:
        ExperimentError: When any tiling fails to reconcile — a gap or
            overlap means the causal account cannot be trusted.
    """
    if num_tenants < 1:
        raise ExperimentError("a profiled run needs at least one tenant")
    weights = tuple(2.0 ** (-i) for i in range(num_shards))
    recorder = TraceRecorder()
    service = SamplingService(
        network,
        fleet=FleetSpec(
            num_shards=num_shards,
            seed=seed * 7 + 3,
            weights=weights,
            shard_latency_spread=1.0,
            provider=ProviderSpec(
                latency_distribution="uniform",
                latency_scale=0.5,
                failure_rate=0.1,
                max_attempts=6,
            ),
        ),
        recorder=recorder,
    )
    tenants = [f"t{i}" for i in range(num_tenants)]
    watcher = SLOWatcher(
        recorder,
        [
            tenant_pace_slo(tenants[0], pace_ceiling),
            cache_hit_rate_slo(0.5, min_count=10),
            shard_in_flight_slo(0, 4.0),
            retry_rate_slo(0.25, min_count=10),
        ],
    )
    service.set_watcher(watcher)
    for i, tenant in enumerate(tenants):
        service.register(
            tenant,
            StackConfig(
                walk=WalkSpec(
                    engine="mhrw" if i % 2 else "srw",
                    chains=2,
                    seed=seed * 1_009 + i,
                ),
                planner=PlannerSpec(lookahead=2) if i % 2 == 0 else None,
            ),
        )
        hot = i == 0
        service.request(tenant, round(num_samples * hot_skew) if hot else num_samples)
    service.run_pending()

    attribution = attribute_service(recorder)
    problems = list(reconcile_service(attribution))
    for tenant in tenants:
        telemetry = collect_telemetry(service.tenant(tenant).stack.api)
        inner = attribution.per_tenant[tenant]
        problems.extend(
            f"tenant {tenant}: {problem}"
            for problem in reconcile_attribution(inner, telemetry=telemetry)
        )
    if problems:
        raise ExperimentError(
            "attribution failed reconciliation: " + "; ".join(problems)
        )

    if jsonl_path is not None:
        export_jsonl(recorder, jsonl_path)
    return ObsCriticalPathResult(
        dataset=network.name,
        num_tenants=num_tenants,
        num_samples=num_samples,
        clock=attribution.clock,
        quanta_by_tenant=dict(attribution.by_tenant),
        categories_by_tenant={
            tenant: dict(inner.categories)
            for tenant, inner in attribution.per_tenant.items()
        },
        counts_by_tenant={
            tenant: dict(inner.counts)
            for tenant, inner in attribution.per_tenant.items()
        },
        breaches=[
            (event.attrs["slo"], event.ts, event.attrs["value"])
            for event in watcher.breaches
        ],
        problems=problems,
        jsonl_path=jsonl_path,
    )


def run_obs_tracediff(
    network: SocialNetwork,
    num_samples: int = 60,
    num_shards: int = 3,
    seed: int = 0,
    lookahead: int = 2,
) -> TraceDiff:
    """Diff the canonical regression pair: planner off vs planner on.

    Runs one seeded single-tenant stack twice — identical except for the
    prefetch planner — and returns the causal diff.  By construction the
    dominant driver is planner prefetching: the planner-on run converts
    provider round trips into free cache-hit steps and finishes sooner.
    The diff's ``cost_delta`` reports any §II-B divergence (a prefetch
    the run ends before consuming bills a user the plain walk never reaches);
    the reference seed is cost-neutral and the benchmark gate holds it
    there.
    """

    def _run(planner: Optional[PlannerSpec]) -> TraceRecorder:
        recorder = TraceRecorder()
        stack = build_stack(
            StackConfig(
                fleet=FleetSpec(
                    num_shards=num_shards,
                    seed=seed * 7 + 3,
                    weights=tuple(2.0 ** (-i) for i in range(num_shards)),
                    shard_latency_spread=1.0,
                    provider=ProviderSpec(
                        latency_distribution="constant", latency_scale=0.5
                    ),
                ),
                walk=WalkSpec(engine="srw", chains=4, seed=seed * 1_009 + 11),
                planner=planner,
            ),
            network,
            recorder=recorder,
        )
        stack.run(num_samples=num_samples)
        return recorder

    return diff_traces(
        _run(None),
        _run(PlannerSpec(lookahead=lookahead)),
        label_a="planner-off",
        label_b="planner-on",
    )
