"""Reproduction of *Faster Random Walks By Rewiring Online Social Networks
On-The-Fly* (Zhou, Zhang, Gong, Das — ICDE 2013).

The package implements the paper's **MTO-Sampler** — a random-walk sampler
for online social networks that builds a virtual overlay topology on-the-fly
(removing provably non-cross-cutting edges, replacing edges around degree-3
nodes) to raise graph conductance and cut the query cost of convergence —
together with every substrate the paper's evaluation needs: the restrictive
``q(v)`` web-interface model with rate limits and caching, SRW / MHRW /
Random-Jump baselines, importance-sampling aggregate estimation, the Geweke
convergence diagnostic, spectral mixing-time and conductance analysis,
synthetic graph models (latent space, barbell, community models), dataset
stand-ins, and one experiment driver per table/figure in the paper.

Quickstart::

    from repro import AggregateQuery, MTOSampler, estimate
    from repro.datasets import load

    net = load("epinions_like", seed=0)
    api = net.interface()
    sampler = MTOSampler(api, start=net.seed_node(), seed=1)
    run = sampler.run(num_samples=500)
    result = estimate(AggregateQuery.average_degree(), run.samples, api)
    print(result.estimate, "for", result.query_cost, "queries")
"""

from repro.aggregates.queries import AggregateQuery, ground_truth
from repro.compose import (
    FleetSpec,
    PlannerSpec,
    ProviderSpec,
    RateLimitSpec,
    StackConfig,
    WalkSpec,
    build_fleet,
    build_stack,
)
from repro.convergence.geweke import GewekeDiagnostic
from repro.core.estimators import EstimationResult, Estimator, estimate
from repro.core.mto import MTOSampler
from repro.core.overlay import OverlayGraph, build_overlay_fixpoint
from repro.datastore.snapshot import JsonLinesBackend, KeyValueBackend, SnapshotBackend
from repro.graph.adjacency import Graph
from repro.interface.api import RestrictedSocialAPI
from repro.fleet import ShardRouter, ShardedProvider
from repro.interface.providers import (
    FlakyProvider,
    InMemoryGraphProvider,
    LatencyModelProvider,
    SocialProvider,
)
from repro.interface.session import SamplingSession
from repro.interface.telemetry import collect_telemetry
from repro.obs import (
    SLO,
    MetricsRegistry,
    SLOWatcher,
    TraceDiff,
    TraceRecorder,
    attach_stack,
    attribute_run,
    attribute_service,
    build_dag,
    diff_traces,
    export_chrome_trace,
    export_jsonl,
    filter_events,
    read_jsonl,
    reconcile_attribution,
    reconcile_run,
    reconcile_service,
)
from repro.service import SamplingService, TenantSession
from repro.walks.mhrw import MetropolisHastingsWalk
from repro.walks.parallel import ParallelWalkers
from repro.walks.rj import RandomJumpWalk
from repro.walks.scheduler import EventDrivenWalkers
from repro.walks.srw import SimpleRandomWalk

__version__ = "1.0.0"

__all__ = [
    "AggregateQuery",
    "ground_truth",
    "GewekeDiagnostic",
    "EstimationResult",
    "Estimator",
    "estimate",
    "MTOSampler",
    "OverlayGraph",
    "build_overlay_fixpoint",
    "Graph",
    "RestrictedSocialAPI",
    "SocialProvider",
    "InMemoryGraphProvider",
    "LatencyModelProvider",
    "FlakyProvider",
    "ShardRouter",
    "ShardedProvider",
    "FleetSpec",
    "ProviderSpec",
    "PlannerSpec",
    "RateLimitSpec",
    "StackConfig",
    "WalkSpec",
    "build_fleet",
    "build_stack",
    "SamplingService",
    "TenantSession",
    "collect_telemetry",
    "TraceRecorder",
    "MetricsRegistry",
    "attach_stack",
    "export_jsonl",
    "read_jsonl",
    "export_chrome_trace",
    "filter_events",
    "reconcile_run",
    "attribute_run",
    "attribute_service",
    "reconcile_attribution",
    "reconcile_service",
    "build_dag",
    "diff_traces",
    "TraceDiff",
    "SLO",
    "SLOWatcher",
    "ParallelWalkers",
    "EventDrivenWalkers",
    "SamplingSession",
    "SnapshotBackend",
    "JsonLinesBackend",
    "KeyValueBackend",
    "MetropolisHastingsWalk",
    "RandomJumpWalk",
    "SimpleRandomWalk",
    "__version__",
]
