"""A provider fleet: per-shard stacks behind one ``SocialProvider`` face.

:class:`ShardedProvider` routes each user's fetch — via a deterministic
:class:`~repro.fleet.router.ShardRouter` — to that user's owning shard,
where a private provider stack (composed from the existing PR-3 layers:
in-memory graph → seeded latency model → flaky retries) answers it.  Each
shard keeps its own books (:class:`ShardStats`: queries, latency spent,
retries, burst depth) and optionally runs a seeded
:class:`~repro.fleet.disruption.DisruptionSchedule` that degrades whole
windows of its requests, so experiments can ask what a walk costs when
one shard of the fleet is having a bad day.

The interface layer needs no change: a fleet *is* a
:class:`~repro.interface.providers.SocialProvider`, so all §II-B billing,
caching, budget, and rate-limit semantics hold bit-for-bit over it.  What
the fleet adds beyond routing is **dispatch structure** for the
batch-aware scheduler: per-shard batch caps and admission intervals
(how many fetches one ``query_many`` round trip may carry, and how
closely a shard admits round trips), plus a dispatch trace the scheduler
drains to learn which shard each in-flight fetch went to.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

from repro.errors import PrivateUserError
from repro.fleet.disruption import DisruptionSchedule
from repro.fleet.router import ShardRouter
from repro.interface.providers import ProviderFetch, SocialProvider
from repro.obs.trace import EVENT_FETCH, EVENT_RETRY, TraceRecorder

Node = Hashable


@dataclasses.dataclass(frozen=True, init=False)
class FetchDispatch:
    """One completed fetch, as the batch-aware scheduler sees it.

    A frozen dataclass whose ``__init__`` fills the instance dict in
    place: a dispatch-tracing fleet builds one per fetch.

    Attributes:
        shard: Index of the shard that served the fetch.
        user: The fetched user id.
        latency: Simulated seconds the shard took (disruption included).
    """

    shard: int
    user: Node
    latency: float

    def __init__(self, shard: int, user: Node, latency: float) -> None:
        fields = self.__dict__
        fields["shard"] = shard
        fields["user"] = user
        fields["latency"] = latency


@dataclasses.dataclass
class ShardStats:
    """Mutable per-shard accounting.

    Attributes:
        queries: Fetch requests routed to the shard (refusals included —
            a refusal consumes a shard request like any other).
        latency_spent: Total simulated response latency the shard served.
        retries: Extra attempts flaky layers consumed beyond the first.
        disrupted: Requests that landed in a degraded or outage window.
        bursts: Coalesced round trips the scheduler dispatched here.
        max_in_flight: Largest burst depth the shard has carried.
        prefetched: Fetches a dispatch planner issued predictively into
            this shard's open bursts (a subset of ``queries``).
        tenants: Per-tenant books — ``label -> {"queries", "latency_spent"}``
            — filled only while a service layer names an active tenant
            (see :meth:`ShardedProvider.set_active_tenant`); empty for
            single-tenant use.
    """

    queries: int = 0
    latency_spent: float = 0.0
    retries: int = 0
    disrupted: int = 0
    bursts: int = 0
    max_in_flight: int = 0
    prefetched: int = 0
    tenants: Dict[str, Dict[str, float]] = dataclasses.field(default_factory=dict)

    def book_tenant(self, tenant: str, latency: float) -> None:
        """Attribute one served fetch (and its latency) to ``tenant``."""
        book = self.tenants.setdefault(tenant, {"queries": 0, "latency_spent": 0.0})
        book["queries"] += 1
        book["latency_spent"] += latency

    def state_dict(self) -> dict:
        return {
            "queries": self.queries,
            "latency_spent": self.latency_spent,
            "retries": self.retries,
            "disrupted": self.disrupted,
            "bursts": self.bursts,
            "max_in_flight": self.max_in_flight,
            "prefetched": self.prefetched,
            "tenants": {label: dict(book) for label, book in self.tenants.items()},
        }

    def load_state(self, state: dict) -> None:
        self.queries = int(state["queries"])
        self.latency_spent = float(state["latency_spent"])
        self.retries = int(state["retries"])
        self.disrupted = int(state["disrupted"])
        self.bursts = int(state["bursts"])
        self.max_in_flight = int(state["max_in_flight"])
        self.prefetched = int(state["prefetched"])
        self.tenants = {
            str(label): {"queries": int(book["queries"]), "latency_spent": float(book["latency_spent"])}
            for label, book in state["tenants"].items()
        }


def _per_shard(value: Union[float, int, Sequence], num_shards: int, name: str) -> tuple:
    """Broadcast a scalar (or validate a sequence) into per-shard values."""
    if isinstance(value, (int, float)):
        return (value,) * num_shards
    values = tuple(value)
    if len(values) != num_shards:
        raise ValueError(f"got {len(values)} {name} values for {num_shards} shards")
    return values


class ShardedProvider(SocialProvider):
    """Route each user to its owning shard's provider stack.

    Args:
        shards: One provider stack per shard, all answering over the same
            hidden network (the fleet is a partition of *serving*, not of
            *data* — any shard can answer an existence check).
        router: The user→shard map; its shard count must match.
        disruptions: Optional per-shard
            :class:`~repro.fleet.disruption.DisruptionSchedule` (entries
            may be ``None`` for always-healthy shards).
        batch_cap: Per-shard maximum fetches one coalesced round trip may
            carry (scalar broadcasts; each cap >= 1).
        admission_interval: Per-shard minimum simulated seconds between
            round-trip admissions — the shard-side rate limit the
            batch-aware scheduler honours (scalar broadcasts; >= 0).
        latency_quantum: When positive, every non-zero response latency is
            rounded *up* to a multiple of this many simulated seconds.
            Real backends answer on an RTT/polling grid rather than a
            continuum; on the simulated side the grid is what lets
            independent chains' completions land on the same tick, which
            is where batch coalescing finds its bursts.  Use a
            binary-exact value (0.5, 0.25, ...) so grid arithmetic stays
            exact in floating point.

    Raises:
        ValueError: On shard-count mismatches or invalid caps/intervals.
    """

    def __init__(
        self,
        shards: Sequence[SocialProvider],
        router: ShardRouter,
        disruptions: Optional[Sequence[Optional[DisruptionSchedule]]] = None,
        batch_cap: Union[int, Sequence[int]] = 8,
        admission_interval: Union[float, Sequence[float]] = 0.0,
        latency_quantum: float = 0.0,
    ) -> None:
        if len(shards) < 1:
            raise ValueError("a fleet needs at least one shard")
        if router.num_shards != len(shards):
            raise ValueError(f"router addresses {router.num_shards} shards, got {len(shards)} stacks")
        if disruptions is not None and len(disruptions) != len(shards):
            raise ValueError(f"got {len(disruptions)} disruption schedules for {len(shards)} shards")
        self._shards = list(shards)
        self._router = router
        self._disruptions: Tuple[Optional[DisruptionSchedule], ...] = (
            tuple(disruptions) if disruptions is not None else (None,) * len(shards)
        )
        self._batch_caps = tuple(int(c) for c in _per_shard(batch_cap, len(shards), "batch_cap"))
        if any(c < 1 for c in self._batch_caps):
            raise ValueError("batch caps must be positive")
        self._intervals = tuple(
            float(i) for i in _per_shard(admission_interval, len(shards), "admission_interval")
        )
        if any(i < 0 for i in self._intervals):
            raise ValueError("admission intervals must be non-negative")
        if latency_quantum < 0:
            raise ValueError("latency_quantum must be non-negative")
        self._quantum = float(latency_quantum)
        self._stats = [ShardStats() for _ in shards]
        self._trace_dispatches = False
        self._dispatch_log: List[FetchDispatch] = []
        self._active_tenant: Optional[str] = None
        self._recorder: Optional[TraceRecorder] = None
        # Read on every walk step (``api.may_have_private``); the shards are fixed.
        self._may_refuse = any(s.may_refuse for s in self._shards)

    # ------------------------------------------------------------------
    # fleet introspection
    # ------------------------------------------------------------------
    @property
    def router(self) -> ShardRouter:
        """The user→shard map."""
        return self._router

    @property
    def num_shards(self) -> int:
        """Number of shards in the fleet."""
        return len(self._shards)

    @property
    def shards(self) -> Sequence[SocialProvider]:
        """The per-shard provider stacks."""
        return tuple(self._shards)

    @property
    def stats(self) -> Sequence[ShardStats]:
        """Per-shard accounting (live objects; read-only use)."""
        return tuple(self._stats)

    def batch_cap(self, shard: int) -> int:
        """Max fetches one coalesced round trip to ``shard`` may carry."""
        return self._batch_caps[shard]

    def admission_interval(self, shard: int) -> float:
        """Min simulated seconds between round-trip admissions at ``shard``."""
        return self._intervals[shard]

    @property
    def latency_quantum(self) -> float:
        """The response-latency grid (0.0 = continuous latencies)."""
        return self._quantum

    def shard_of(self, user: Node) -> int:
        """The shard that serves ``user`` (delegates to the router)."""
        return self._router.shard_of(user)

    # ------------------------------------------------------------------
    # dispatch tracing (consumed by the batch-aware scheduler)
    # ------------------------------------------------------------------
    def trace_dispatches(self, enabled: bool = True) -> None:
        """Start (or stop) recording per-fetch dispatch events."""
        self._trace_dispatches = bool(enabled)
        if not enabled:
            self._dispatch_log.clear()

    def drain_dispatches(self) -> Tuple[FetchDispatch, ...]:
        """Return and clear the dispatch events recorded since last drain."""
        events = tuple(self._dispatch_log)
        self._dispatch_log.clear()
        return events

    def record_burst(self, shard: int, depth: int = 1) -> None:
        """Account one new coalesced round trip of ``depth`` fetches."""
        stats = self._stats[shard]
        stats.bursts += 1
        if depth > stats.max_in_flight:
            stats.max_in_flight = depth

    def record_burst_depth(self, shard: int, depth: int) -> None:
        """Update the in-flight depth of the shard's open round trip."""
        stats = self._stats[shard]
        if depth > stats.max_in_flight:
            stats.max_in_flight = depth

    def record_prefetch(self, shard: int) -> None:
        """Account one planner-issued predictive fetch riding ``shard``."""
        self._stats[shard].prefetched += 1

    # ------------------------------------------------------------------
    # observability (zero-cost when no recorder is attached)
    # ------------------------------------------------------------------
    @property
    def recorder(self) -> Optional[TraceRecorder]:
        """The attached trace recorder, or ``None`` (the default)."""
        return self._recorder

    def set_recorder(self, recorder: Optional[TraceRecorder]) -> None:
        """Attach (or with ``None`` detach) a trace recorder.

        The fleet owns no simulated clock, so its ``shard_fetch``/``retry``
        events are stamped with the time the interface hinted just before
        delegating the fetch (see ``TraceRecorder.hint_clock``).
        """
        self._recorder = recorder

    # ------------------------------------------------------------------
    # per-tenant attribution (set by the service layer around each tick)
    # ------------------------------------------------------------------
    @property
    def active_tenant(self) -> Optional[str]:
        """The tenant label fetches are currently booked under, or ``None``."""
        return self._active_tenant

    def set_active_tenant(self, label: Optional[str]) -> None:
        """Attribute subsequent fetches to ``label`` in the shard books.

        The service layer brackets each tenant's scheduler tick with
        ``set_active_tenant(tenant_id)`` / ``set_active_tenant(None)`` so
        :attr:`ShardStats.tenants` splits the fleet's load by who caused
        it.  Transient runtime state: not part of :meth:`state_dict` — a
        restored service re-asserts it before every tick.
        """
        self._active_tenant = None if label is None else str(label)

    # ------------------------------------------------------------------
    # SocialProvider contract
    # ------------------------------------------------------------------
    def has_user(self, user: Node) -> bool:
        return self._shards[self._router.shard_of(user)].has_user(user)

    def fetch(self, user: Node):
        shard = self._router.shard_of(user)
        stats = self._stats[shard]
        request_index = stats.queries
        stats.queries += 1
        try:
            fetched = self._shards[shard].fetch(user)  # refusals propagate billed
        except PrivateUserError:
            if self._recorder is not None:
                # A refusal consumed a shard request (stats.queries above)
                # but no latency/retry books — the audit replays it from
                # this zero-latency mark.
                self._recorder.record(
                    EVENT_FETCH,
                    self._recorder.hinted_clock,
                    shard=shard,
                    user=user,
                    refused=True,
                )
            raise
        latency = fetched.latency
        disrupted = False
        schedule = self._disruptions[shard]
        if schedule is not None:
            latency = schedule.disrupted_latency(request_index, latency)
            if schedule.mode_of(request_index) != "ok":
                stats.disrupted += 1
                disrupted = True
        if self._quantum > 0.0 and latency > 0.0:
            latency = self._quantum * math.ceil(latency / self._quantum)
        stats.latency_spent += latency
        stats.retries += max(0, fetched.attempts - 1)
        if self._active_tenant is not None:
            stats.book_tenant(self._active_tenant, latency)
        if self._trace_dispatches:
            self._dispatch_log.append(FetchDispatch(shard=shard, user=user, latency=latency))
        recorder = self._recorder
        if recorder is not None:
            issued = recorder.hinted_clock
            attrs = {
                "shard": shard,
                "user": user,
                "latency": latency,
                "attempts": fetched.attempts,
            }
            if disrupted:
                attrs["disrupted"] = True
            if self._active_tenant is not None:
                attrs["tenant"] = self._active_tenant
            recorder.record(EVENT_FETCH, issued, latency, **attrs)
            recorder.count("fleet.fetches")
            if fetched.attempts > 1:
                # Disruption/quantum transforms apply to the whole response,
                # so the pre-transform wasted share is clamped to the billed
                # latency: the profiler's backoff split stays a partition.
                backoff = min(fetched.wasted_latency, latency)
                recorder.record(
                    EVENT_RETRY,
                    issued,
                    shard=shard,
                    user=user,
                    attempts=fetched.attempts,
                    backoff=backoff,
                )
                recorder.count("fleet.retries", fetched.attempts - 1)
        if latency != fetched.latency:
            fetched = ProviderFetch(
                user=fetched.user,
                neighbor_seq=fetched.neighbor_seq,
                attributes=fetched.attributes,
                latency=latency,
                attempts=fetched.attempts,
                wasted_latency=fetched.wasted_latency,
            )
        return fetched

    def user_count(self) -> int:
        return self._shards[0].user_count()

    @property
    def may_refuse(self) -> bool:
        return self._may_refuse

    # ------------------------------------------------------------------
    # snapshot support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Router fingerprint, per-shard stack states, and accounting.

        The per-shard request counters (inside the stats) are what anchor
        the disruption schedules, and the stacks' own states carry any
        flaky RNG positions — restoring all of it means a resumed crawl
        replays the same shard behaviour bit-for-bit.
        """
        return {
            "router": self._router.state_dict(),
            "shards": [s.state_dict() for s in self._shards],
            "stats": [s.state_dict() for s in self._stats],
        }

    def load_state(self, state: dict) -> None:
        """Restore a captured fleet state.

        Raises:
            SnapshotError: If the captured router configuration differs
                from this fleet's.
        """
        self._router.load_state(state["router"])
        for stack, stack_state in zip(self._shards, state["shards"]):
            stack.load_state(stack_state)
        for stats, stats_state in zip(self._stats, state["stats"]):
            stats.load_state(stats_state)
        self._dispatch_log.clear()


def find_fleet(provider: SocialProvider) -> Optional[ShardedProvider]:
    """The :class:`ShardedProvider` inside a provider stack, or ``None``.

    Walks ``inner`` links so a fleet wrapped in e.g. a
    :class:`~repro.interface.providers.FlakyProvider` is still found.
    """
    seen = 0
    while provider is not None and seen < 32:  # stacks are shallow
        if isinstance(provider, ShardedProvider):
            return provider
        provider = getattr(provider, "inner", None)
        seen += 1
    return None
