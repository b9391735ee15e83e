"""Unified composition API: declarative specs for the whole sampling stack.

Before this module, standing up the full stack meant hand-threading
keyword arguments through five layers of constructors::

    fleet = ShardedProvider([...per-shard provider stacks...], router=...)
    api = RestrictedSocialAPI(fleet, cache=..., query_budget=...)
    samplers = [SimpleRandomWalk(api, start=..., seed=...) for ...]
    planner = DispatchPlanner(lookahead=..., policy=AdaptiveChainPolicy(...))
    walkers = EventDrivenWalkers(samplers, planner=planner)

That wiring cannot be persisted, compared, or handed to a service that
must rebuild a tenant's stack on demand.  Here the same stack is one
value::

    config = StackConfig(
        fleet=FleetSpec(num_shards=4, provider=ProviderSpec(
            latency_distribution="heavy_tailed", latency_scale=0.5)),
        walk=WalkSpec(engine="srw", chains=8, seed=7),
        planner=PlannerSpec(lookahead=4),
    )
    stack = build_stack(config, net)
    run = stack.run(num_samples=400)

Every spec is a frozen dataclass registered with the snapshot codec
(:mod:`repro.datastore.snapshot`), so configs round-trip bit-for-bit
through any snapshot backend — the service layer persists each tenant's
``StackConfig`` next to its session state and rebuilds the identical
stack in a fresh process.
"""

from __future__ import annotations

import dataclasses
from typing import Hashable, List, Optional, Tuple, Union

from repro.datastore.snapshot import register_codec
from repro.errors import ComposeError, SnapshotError
from repro.fleet.disruption import DisruptionSchedule
from repro.fleet.provider import ShardedProvider
from repro.fleet.router import ShardRouter
from repro.interface.api import RestrictedSocialAPI
from repro.interface.providers import (
    FlakyProvider,
    InMemoryGraphProvider,
    LatencyModelProvider,
    SocialProvider,
)
from repro.interface.ratelimit import (
    FixedWindowRateLimiter,
    RateLimiter,
    TokenBucketRateLimiter,
    UnlimitedRateLimiter,
)
from repro.obs.trace import TraceRecorder
from repro.planning.lifecycle import AdaptiveChainPolicy
from repro.planning.planner import DispatchPlanner
from repro.walks.mhrw import MetropolisHastingsWalk
from repro.walks.nbrw import NonBacktrackingWalk
from repro.walks.scheduler import EventDrivenWalkers
from repro.walks.srw import SimpleRandomWalk

Node = Hashable

__all__ = [
    "ProviderSpec",
    "FleetSpec",
    "RateLimitSpec",
    "PolicySpec",
    "PlannerSpec",
    "WalkSpec",
    "StackConfig",
    "SamplingStack",
    "build_fleet",
    "build_stack",
    "walk_starts",
]

#: Walk-engine registry for :class:`WalkSpec.engine`.
WALK_ENGINES = {
    "srw": SimpleRandomWalk,
    "mhrw": MetropolisHastingsWalk,
    "nbrw": NonBacktrackingWalk,
}


@dataclasses.dataclass(frozen=True)
class ProviderSpec:
    """Per-shard serving behaviour (latency + flakiness layers).

    Each shard wraps the hidden graph in an optional seeded
    :class:`~repro.interface.providers.LatencyModelProvider` and an
    optional seeded :class:`~repro.interface.providers.FlakyProvider`.
    """

    latency_distribution: Optional[str] = None
    latency_scale: float = 1.0
    latency_alpha: float = 1.5
    failure_rate: float = 0.0
    max_attempts: int = 8
    timeout_latency: float = 5.0


@dataclasses.dataclass(frozen=True)
class FleetSpec:
    """A whole :class:`~repro.fleet.provider.ShardedProvider` as one value.

    Attributes:
        num_shards: Fleet size (>= 1).
        seed: Master seed; every shard's latency/flaky/disruption stream
            derives from it, so the fleet is a pure function of its spec.
        weights: Optional routing weights (traffic-skew axis).
        provider: Per-shard serving behaviour.
        shard_latency_spread: Heterogeneity axis — shard ``s`` scales its
            latency by ``1 + spread * s / (num_shards - 1)``.
        disruption: Optional keyword arguments for per-shard
            :class:`~repro.fleet.disruption.DisruptionSchedule` instances
            (``{}`` uses the schedule defaults; ``None`` disables).
        batch_cap: Per-shard batch caps (scalar or one per shard).
        admission_interval: Per-shard admission intervals.
        latency_quantum: Response-latency grid (0.0 keeps latencies
            continuous).
    """

    num_shards: int = 1
    seed: int = 0
    weights: Optional[Tuple[float, ...]] = None
    provider: ProviderSpec = dataclasses.field(default_factory=ProviderSpec)
    shard_latency_spread: float = 0.0
    disruption: Optional[dict] = None
    batch_cap: Union[int, Tuple[int, ...]] = 8
    admission_interval: Union[float, Tuple[float, ...]] = 0.0
    latency_quantum: float = 0.0

    def build(self, graph, profiles=None) -> ShardedProvider:
        """Assemble the fleet this spec describes."""
        return build_fleet(self, graph, profiles=profiles)


@dataclasses.dataclass(frozen=True)
class RateLimitSpec:
    """A tenant's rate limiter as one value.

    ``kind`` selects the limiter class: ``"unlimited"`` (default),
    ``"fixed_window"`` (``limit`` requests per ``window`` simulated
    seconds), or ``"token_bucket"`` (``rate`` tokens/second, optional
    ``burst`` capacity).
    """

    kind: str = "unlimited"
    limit: int = 0
    window: float = 0.0
    rate: float = 0.0
    burst: Optional[float] = None

    def build(self) -> RateLimiter:
        """Construct the configured limiter."""
        if self.kind == "unlimited":
            return UnlimitedRateLimiter()
        if self.kind == "fixed_window":
            return FixedWindowRateLimiter(self.limit, self.window)
        if self.kind == "token_bucket":
            return TokenBucketRateLimiter(self.rate, self.burst)
        raise ComposeError(
            f"unknown rate-limiter kind {self.kind!r} "
            "(expected 'unlimited', 'fixed_window', or 'token_bucket')"
        )


@dataclasses.dataclass(frozen=True)
class PolicySpec:
    """An :class:`~repro.planning.lifecycle.AdaptiveChainPolicy` as one value."""

    start_chains: Optional[int] = None
    min_chains: int = 2
    max_active: Optional[int] = None
    tail_ratio: float = 2.0
    evaluate_every: int = 16
    min_observations: int = 8
    spawn_r_hat_above: Optional[float] = None

    def build(self) -> AdaptiveChainPolicy:
        """Construct the configured policy."""
        return AdaptiveChainPolicy(
            start_chains=self.start_chains,
            min_chains=self.min_chains,
            max_active=self.max_active,
            tail_ratio=self.tail_ratio,
            evaluate_every=self.evaluate_every,
            min_observations=self.min_observations,
            spawn_r_hat_above=self.spawn_r_hat_above,
        )


@dataclasses.dataclass(frozen=True)
class PlannerSpec:
    """A :class:`~repro.planning.planner.DispatchPlanner` as one value.

    Planners hold per-run state and bind once, so the spec (not a planner
    instance) is what configs carry — :func:`build_stack` constructs a
    fresh planner per stack.
    """

    lookahead: int = 4
    policy: Optional[PolicySpec] = None

    def build(self) -> DispatchPlanner:
        """Construct a fresh, unbound planner."""
        policy = self.policy.build() if self.policy is not None else None
        return DispatchPlanner(lookahead=self.lookahead, policy=policy)


@dataclasses.dataclass(frozen=True)
class WalkSpec:
    """The walk-engine half of a stack: which chains, from where.

    Attributes:
        engine: One of :data:`WALK_ENGINES` (``"srw"``/``"mhrw"``/``"nbrw"``).
        chains: Chain count (>= 2; the event scheduler's floor).
        seed: Master seed; chain ``i`` walks with seed
            ``seed * 100_003 + i`` and, when ``starts`` is not given,
            starts at ``network.seed_node(seed + i)``.
        starts: Explicit per-chain start nodes (length must equal
            ``chains``), or ``None`` to derive them from the network.
        max_lead: Burn-in lead bound (see
            :class:`~repro.walks.scheduler.EventDrivenWalkers`).
    """

    engine: str = "srw"
    chains: int = 2
    seed: int = 0
    starts: Optional[Tuple[Node, ...]] = None
    max_lead: int = 64


@dataclasses.dataclass(frozen=True)
class StackConfig:
    """Everything needed to stand up one tenant's full sampling stack.

    Attributes:
        fleet: The provider fleet (shared across tenants in a service;
            per-stack otherwise).
        walk: Walk engine, chain count, seeds.
        planner: Optional history-aware dispatch planning.
        rate_limit: The tenant's rate limiter (unlimited by default).
        query_budget: Optional §II-B unique-query budget.
        seconds_per_query: Simulated seconds each billed query costs.
    """

    fleet: FleetSpec = dataclasses.field(default_factory=FleetSpec)
    walk: WalkSpec = dataclasses.field(default_factory=WalkSpec)
    planner: Optional[PlannerSpec] = None
    rate_limit: Optional[RateLimitSpec] = None
    query_budget: Optional[int] = None
    seconds_per_query: float = 1.0


class SamplingStack:
    """A fully assembled provider → interface → walkers → planner stack.

    Built by :func:`build_stack`; holds the live layers plus the config
    that produced them, so callers stop keeping five loose references.
    """

    def __init__(
        self,
        config: StackConfig,
        fleet: ShardedProvider,
        api: RestrictedSocialAPI,
        samplers: List,
        walkers: EventDrivenWalkers,
    ) -> None:
        self.config = config
        self.fleet = fleet
        self.api = api
        self.samplers = samplers
        self.walkers = walkers

    @property
    def planner(self) -> Optional[DispatchPlanner]:
        """The stack's dispatch planner, or ``None``."""
        return self.walkers.planner

    def run(self, num_samples: int, **kwargs):
        """Delegate to :meth:`EventDrivenWalkers.run`."""
        return self.walkers.run(num_samples, **kwargs)


def build_fleet(spec: FleetSpec, graph, profiles=None) -> ShardedProvider:
    """Compose a homogeneous-data, heterogeneous-serving fleet from a spec.

    Every shard serves the same hidden ``graph`` (the fleet partitions
    *traffic*, not data) through its own stack of the provider layers::

        InMemoryGraphProvider          # the data
          └─ LatencyModelProvider      # per-shard seeded latency (optional)
               └─ FlakyProvider        # per-shard seeded retries (optional)

    Args:
        spec: The fleet description.
        graph: The hidden social-network topology.
        profiles: Optional per-user attribute documents.

    Raises:
        ValueError: On invalid shard counts or parameters (propagated
            from the underlying layers).
    """
    p = spec.provider
    router = ShardRouter(spec.num_shards, seed=spec.seed, weights=spec.weights)
    stacks: List[SocialProvider] = []
    disruptions: Optional[List[Optional[DisruptionSchedule]]] = None
    for shard in range(spec.num_shards):
        stack: SocialProvider = InMemoryGraphProvider(graph, profiles=profiles)
        if p.latency_distribution is not None:
            multiplier = 1.0
            if spec.num_shards > 1 and spec.shard_latency_spread > 0.0:
                multiplier += spec.shard_latency_spread * shard / (spec.num_shards - 1)
            stack = LatencyModelProvider(
                stack,
                distribution=p.latency_distribution,
                scale=p.latency_scale * multiplier,
                seed=spec.seed * 1_000_003 + shard,
                alpha=p.latency_alpha,
            )
        if p.failure_rate > 0.0:
            stack = FlakyProvider(
                stack,
                failure_rate=p.failure_rate,
                seed=spec.seed * 999_983 + shard,
                max_attempts=p.max_attempts,
                timeout_latency=p.timeout_latency,
            )
        stacks.append(stack)
    if spec.disruption is not None:
        disruptions = [
            DisruptionSchedule(seed=spec.seed * 31_337 + shard, **spec.disruption)
            for shard in range(spec.num_shards)
        ]
    return ShardedProvider(
        stacks,
        router,
        disruptions=disruptions,
        batch_cap=spec.batch_cap,
        admission_interval=spec.admission_interval,
        latency_quantum=spec.latency_quantum,
    )


def walk_starts(config: StackConfig, network) -> Tuple[Node, ...]:
    """The start nodes :func:`build_stack` will give ``config``'s chains.

    Either ``config.walk.starts`` verbatim or one
    ``network.seed_node(seed + i)`` per chain.
    """
    starts = config.walk.starts
    if starts is not None:
        return tuple(starts)
    return tuple(
        network.seed_node(config.walk.seed + i) for i in range(config.walk.chains)
    )


def build_stack(
    config: StackConfig,
    network,
    cache=None,
    fleet: Optional[ShardedProvider] = None,
    recorder: Optional[TraceRecorder] = None,
    tenant: Optional[str] = None,
    state: Optional[dict] = None,
) -> SamplingStack:
    """Assemble provider → interface → walkers → planner from one config.

    Without ``state`` every chain bootstraps with a billed query of its
    start node.  With ``state`` the stack is a *restore*: the chains are
    set up without that query and the captured session is loaded on top,
    so the rebuild issues no reads.  A tenant-scoped state (captured with
    ``include_shared=False``) then leaves a mounted cache and fleet
    exactly as they were: entries, LRU order, counters, RNG positions.

    Args:
        config: The declarative stack description.
        network: A dataset stand-in (anything with ``graph``,
            ``profiles``, and ``seed_node(seed)``) the fleet serves and
            start nodes are drawn from.
        cache: Optional pre-existing
            :class:`~repro.interface.cache.NeighborhoodCache` to mount —
            the service layer passes its cross-tenant shared cache here.
        fleet: Optional pre-built fleet to mount instead of building
            ``config.fleet`` — the service layer passes its shared fleet
            so every tenant's interface bills against the same shards.
        recorder: Optional :class:`~repro.obs.trace.TraceRecorder` wired
            through every layer *before* the chains bootstrap, so the
            trace includes the start-node queries the stack bills during
            assembly.  Attaching one after ``build_stack`` returns (see
            :func:`repro.obs.attach_stack`) misses those — a
            reconciliation audit against ``query_cost`` then comes up
            short by one query per chain.
        tenant: Optional tenant label forwarded to the interface's
            recorder hookup (events gain a ``tenant`` attribute; cache
            counters move to the ``tenant.<label>.*`` namespace).  Only
            meaningful with ``recorder``.
        state: Optional captured session — ``{"api": ..., "walkers": ...}``
            as produced by the interface's
            :meth:`~repro.interface.api.RestrictedSocialAPI.state_dict`
            and the scheduler's
            :meth:`~repro.walks.scheduler.EventDrivenWalkers.state_dict`
            — to restore instead of bootstrapping.

    Raises:
        ComposeError: On an unknown walk engine, too few chains, or a
            ``starts`` tuple whose length disagrees with ``chains``.
        SnapshotError: If ``state`` does not fit the configured stack.
    """
    engine = WALK_ENGINES.get(config.walk.engine)
    if engine is None:
        raise ComposeError(
            f"unknown walk engine {config.walk.engine!r} "
            f"(expected one of {sorted(WALK_ENGINES)})"
        )
    if config.walk.chains < 2:
        raise ComposeError("WalkSpec.chains must be at least 2 (the scheduler's floor)")
    if config.walk.starts is not None and len(config.walk.starts) != config.walk.chains:
        raise ComposeError(
            f"WalkSpec.starts holds {len(config.walk.starts)} nodes "
            f"for {config.walk.chains} chains"
        )
    # A restored chain stands wherever its captured state left it.
    starts = walk_starts(config, network) if state is None else (None,) * config.walk.chains
    if fleet is None:
        fleet = build_fleet(config.fleet, network.graph, profiles=network.profiles)
    limiter = config.rate_limit.build() if config.rate_limit is not None else None
    api = RestrictedSocialAPI(
        fleet,
        rate_limiter=limiter,
        seconds_per_query=config.seconds_per_query,
        query_budget=config.query_budget,
        cache=cache,
    )
    if recorder is not None:
        fleet.set_recorder(recorder)
        api.set_recorder(recorder, tenant=tenant)
    samplers = [
        engine(
            api,
            start=starts[i],
            seed=config.walk.seed * 100_003 + i,
            bootstrap=state is None,
        )
        for i in range(config.walk.chains)
    ]
    planner = config.planner.build() if config.planner is not None else None
    walkers = EventDrivenWalkers(samplers, max_lead=config.walk.max_lead, planner=planner)
    if state is not None:
        api.load_state(state["api"])
        walkers.load_state(state["walkers"])
    if recorder is not None:
        walkers.set_recorder(recorder, tenant=tenant)
        if planner is not None:
            planner.set_recorder(recorder)
    return SamplingStack(config, fleet, api, samplers, walkers)


def _register_spec_codec(tag: str, cls: type, decode=None) -> None:
    """Register a field-dict codec for one frozen spec dataclass.

    ``encode`` reduces the instance to ``{field: value}`` — nested specs
    stay instances and are recursively encoded by *their* codecs, so a
    :class:`StackConfig` round-trips with full type fidelity.  ``decode``
    defaults to ``cls(**payload)``.
    """

    def encode(spec):
        return {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}

    register_codec(tag, cls, encode, decode or (lambda payload: cls(**payload)))


def _refuse_retired(spec: str, field: str, value: object, inert: object) -> None:
    """Raise when an older snapshot sets a removed field to anything but its no-op value."""
    if value != inert:
        raise SnapshotError(
            f"this snapshot's {spec} sets {field}={value!r}; the field is removed and "
            f"only {inert!r} (its no-op value) still loads"
        )


def _decode_planner_spec(payload: dict) -> PlannerSpec:
    """``PlannerSpec(**payload)``, reading older snapshots too.

    Older builds also stored ``speculation`` and its ranking ``seed``.  A
    ``speculation`` of 0, where the seed had no effect, decodes to the same
    planner; any other value refuses to resume a different plan.
    """
    payload = dict(payload)
    payload.pop("seed", None)
    _refuse_retired("PlannerSpec", "speculation", payload.pop("speculation", 0), 0)
    return PlannerSpec(**payload)


def _decode_walk_spec(payload: dict) -> WalkSpec:
    """``WalkSpec(**payload)``; an older snapshot's ``batch_window`` must be 0.0, its no-op value."""
    payload = dict(payload)
    _refuse_retired("WalkSpec", "batch_window", payload.pop("batch_window", 0.0), 0.0)
    return WalkSpec(**payload)


_register_spec_codec("x:provider-spec", ProviderSpec)
_register_spec_codec("x:fleet-spec", FleetSpec)
_register_spec_codec("x:rate-limit-spec", RateLimitSpec)
_register_spec_codec("x:policy-spec", PolicySpec)
_register_spec_codec("x:planner-spec", PlannerSpec, _decode_planner_spec)
_register_spec_codec("x:walk-spec", WalkSpec, _decode_walk_spec)
_register_spec_codec("x:stack-config", StackConfig)
