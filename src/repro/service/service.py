"""A long-lived multi-tenant sampling service over one shared fleet.

The experiment drivers so far run one crawl at a time: build a stack,
call ``run()``, read the result.  A measurement *service* looks
different — many concurrent clients ("tenants"), each with their own
§II-B budget, rate limiter, RNG streams, and walk specification, all
sampling the same social network through one shared provider fleet on
one simulated clock.  :class:`SamplingService` is that runtime:

* **Shared substrate** — one :class:`~repro.fleet.provider.ShardedProvider`
  and one cross-tenant :class:`~repro.interface.cache.NeighborhoodCache`.
  A neighborhood any tenant paid to fetch is a free cache hit for every
  other tenant (logged un-billed; see
  :meth:`RestrictedSocialAPI._serve_cached
  <repro.interface.api.RestrictedSocialAPI._serve_cached>`).
* **Per-tenant isolation** — each tenant owns a full
  :class:`~repro.compose.SamplingStack` built from its
  :class:`~repro.compose.StackConfig`: private query log (§II-B spend),
  private rate limiter and simulated clock, private chains and planner.
* **Fairness-aware admission** — tenants advance tick by tick through
  the schedulers' incremental API
  (:meth:`~repro.walks.scheduler.EventDrivenWalkers.collect_tick`),
  interleaved by deficit round-robin over the fleet's *simulated
  occupancy*: each round every runnable tenant's deficit grows by one
  quantum and ticks drain it by the simulated time they consumed, so a
  hot tenant (many chains, heavy batches) cannot starve light ones.
  With ``fairness=False`` the service degrades to first-come-first-served
  run-to-completion — the baseline the fairness benchmark beats.
* **Hibernation** — an idle tenant's entire session state (interface
  accounting + scheduler state, *excluding* the shared cache/fleet)
  spills into a :class:`~repro.datastore.kv.KeyValueStore` through the
  snapshot codec and is rebuilt bit-for-bit on its next request, even
  in a fresh process via :meth:`SamplingService.save` /
  :meth:`SamplingService.resume`.  A wake costs O(the tenant's own
  payload): the stack is restored through ``build_stack(state=...)``,
  which issues no reads, so the shared layers are never touched.  A
  spill costs O(what the tenant appended since its last one): the
  encoded history of that spill is spliced in (see :meth:`hibernate`).

Example::

    net = load("epinions_like", seed=7, scale=0.3)
    svc = SamplingService(net, fleet=FleetSpec(num_shards=4, provider=ProviderSpec(
        latency_distribution="heavy_tailed", latency_scale=0.4)))
    svc.register("alice", StackConfig(walk=WalkSpec(engine="mhrw", chains=4, seed=1)))
    svc.register("bob", StackConfig(walk=WalkSpec(engine="srw", chains=2, seed=2)))
    svc.request("alice", 200)
    svc.request("bob", 50)
    svc.run_pending()
    report = svc.fairness_report()
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compose import (
    FleetSpec,
    SamplingStack,
    StackConfig,
    build_fleet,
    build_stack,
)
from repro.datastore.kv import KeyValueStore
from repro.datastore.snapshot import SnapshotBackend, decode_value, encode_run, encode_value
from repro.errors import QueryBudgetExhaustedError, ServiceError
from repro.interface.cache import NeighborhoodCache
from repro.obs.trace import (
    EVENT_HIBERNATE,
    EVENT_TENANT_TICK,
    EVENT_WAKE,
    TraceRecorder,
)

__all__ = [
    "SamplingService",
    "TenantSession",
    "STATE_ACTIVE",
    "STATE_IDLE",
    "STATE_HIBERNATED",
    "STATE_EXHAUSTED",
]

#: Tenant lifecycle states.
STATE_ACTIVE = "active"  #: has pending samples and a live stack
STATE_IDLE = "idle"  #: live stack, nothing requested
STATE_HIBERNATED = "hibernated"  #: state spilled to the datastore, no stack
STATE_EXHAUSTED = "exhausted"  #: §II-B budget spent; refuses further requests

_META_SECTION = "service/meta"
_FLEET_SECTION = "service/fleet"
_CACHE_SECTION = "service/cache"
_REGISTRY_SECTION = "service/registry"
_SNAPSHOT_VERSION = 1


def _p95(values: List[float]) -> float:
    """The 95th-percentile of ``values`` (nearest-rank; 0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, math.ceil(0.95 * len(ordered)) - 1)
    return ordered[rank]


def _runs(stack: SamplingStack, payload: dict) -> Dict[tuple, Tuple[list, Sequence]]:
    """A tenant payload's append-only runs: ``path -> (live list, payload value)``.

    The runs are the query log's records, the merged samples and their
    chain indices, and each chain's trace.  Their live lists are only
    ever appended to: a reset or a ``load_state`` puts a new list in
    place instead of editing the old one, which is what lets a spill
    reuse the encoded prefix of a list it has seen before.
    """
    walkers, state = stack.walkers, payload["walkers"]
    runs = {("api", "log", "records"): (stack.api.log._records, payload["api"]["log"]["records"])}
    for name in ("merged", "merged_chain"):
        # A lock-step group keeps no merged list in its payload.
        if name in state:
            runs[("walkers", name)] = (getattr(walkers, "_" + name), state[name])
    for i, (chain, chain_state) in enumerate(zip(walkers.chains, state["chains"])):
        runs[("walkers", "chains", i, "trace")] = (chain._trace, chain_state["trace"])
    return runs


def _encode_spliced(value: object, runs: Dict[tuple, list], above: frozenset, path: tuple = ()) -> object:
    """``encode_value(value)``, with the run at each path in ``runs`` taking that encoding.

    ``above`` holds every proper prefix of those paths: only the dicts
    and lists on the way to a run are encoded here, everything else by
    :func:`encode_value`.
    """
    encoded = runs.get(path)
    if encoded is not None:
        return encoded
    if path not in above:
        return encode_value(value)
    if type(value) is dict:
        return [
            "d",
            [[encode_value(k), _encode_spliced(v, runs, above, path + (k,))] for k, v in value.items()],
        ]
    return ["l", [_encode_spliced(v, runs, above, path + (i,)) for i, v in enumerate(value)]]


@dataclasses.dataclass
class _SpillMemo:
    """A tenant's last spill, kept so its next spill encodes only what the runs appended.

    Attributes:
        encoded: The spill as written; ``None`` once a wake has read it.
        items: Run path -> the column blocks each spill appended to that
            run, oldest first (see :func:`~repro.datastore.snapshot.encode_run`;
            empty for a run in the per-member form).
        live: Run path -> the live list the woken stack grows that run
            in.  Noted at wake, and only when the spill the wake read is
            ``encoded`` itself, so each list starts with the values of
            ``items``.
    """

    encoded: Optional[list]
    items: Dict[tuple, list]
    live: Dict[tuple, list] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class TenantSession:
    """One tenant's registration record inside the service.

    Attributes:
        tenant_id: The tenant's label (shard books and reports key on it).
        config: The declarative stack description the tenant registered
            with; persisted verbatim (it is codec-registered) so the
            identical stack is rebuilt on wake or service resume.
        stack: The live stack, or ``None`` while hibernated.
        state: One of the ``STATE_*`` constants.
        requested: Cumulative sample target across all requests so far.
        thinning: Per-chain sample spacing of the latest request.
        deficit: Deficit-round-robin balance (simulated seconds of fleet
            occupancy this tenant may still consume this round).
        arrival: Service-clock reading of the request that made the
            tenant runnable (the anchor per-sample paces measure from).
        epoch_base: Samples already delivered when ``arrival`` was set
            (paces count samples within the current request epoch).
        sample_clock: Absolute service-clock reading at each sample.
        sample_walls: Per-sample wall-clock *pace* at each sample —
            ``(clock - arrival) / samples_since_arrival`` — the fairness
            benchmark's p95 substrate.  Pace (not inter-sample deltas)
            is what exposes unfair admission: a tenant parked behind a
            hog pays the wait on every sample of its request, not just
            the first.
        idle_rounds: Consecutive admission rounds spent idle (drives
            automatic hibernation).
    """

    tenant_id: str
    config: StackConfig
    stack: Optional[SamplingStack] = None
    state: str = STATE_IDLE
    requested: int = 0
    thinning: int = 1
    deficit: float = 0.0
    arrival: Optional[float] = None
    epoch_base: int = 0
    sample_clock: List[float] = dataclasses.field(default_factory=list)
    sample_walls: List[float] = dataclasses.field(default_factory=list)
    idle_rounds: int = 0
    # Accounting frozen at hibernate time (the live stack is gone).
    frozen_samples: int = 0
    frozen_cost: int = 0
    frozen_latency: float = 0.0
    frozen_hits: int = 0
    frozen_warm_hits: int = 0

    @property
    def samples(self) -> int:
        """Samples collected so far (live or frozen)."""
        if self.stack is not None:
            return self.stack.walkers.samples_collected
        return self.frozen_samples

    @property
    def query_cost(self) -> int:
        """§II-B unique queries this tenant's budget has paid for."""
        if self.stack is not None:
            return self.stack.api.query_cost
        return self.frozen_cost

    @property
    def latency_spent(self) -> float:
        """Provider response latency billed to this tenant (simulated s)."""
        if self.stack is not None:
            return self.stack.api.latency_spent
        return self.frozen_latency

    @property
    def cache_hits(self) -> int:
        """Queries the shared cache served this tenant for free."""
        if self.stack is not None:
            return self.stack.api.cache_hits
        return self.frozen_hits

    @property
    def warm_hits(self) -> int:
        """Hits served from history-warm-started knowledge."""
        if self.stack is not None:
            return self.stack.api.warm_hits
        return self.frozen_warm_hits

    @property
    def pending(self) -> int:
        """Samples still owed against the cumulative target."""
        return max(0, self.requested - self.samples)


class SamplingService:
    """Run many tenant sampling sessions over one shared provider fleet.

    Args:
        network: The dataset stand-in every tenant samples (anything with
            ``graph``, ``profiles``, ``seed_node``).
        fleet: The shared fleet's :class:`~repro.compose.FleetSpec`
            (default: one zero-latency shard).  Tenants' own
            ``config.fleet`` fields are ignored — the service mounts this
            shared fleet into every stack it builds.
        fairness: ``True`` (default) interleaves tenants by deficit
            round-robin over simulated fleet occupancy; ``False`` serves
            run-to-completion in registration order (no admission
            control — the benchmark baseline).
        quantum: Simulated seconds of fleet occupancy each runnable
            tenant earns per admission round (fairness mode only).  Keep
            it comparable to a few per-sample occupancies — a quantum
            large enough to cover a tenant's whole request degenerates
            the round-robin into run-to-completion.
        cache_ttl: Optional TTL for the shared neighborhood cache
            (simulated seconds); ``None`` caches forever.
        idle_hibernate_after: Hibernate a tenant after this many
            consecutive idle admission rounds; ``None`` (default) only
            hibernates on explicit :meth:`hibernate` calls.
        spill_store: The key-value store hibernated sessions spill into;
            a private in-memory store by default.
        history: Optional :class:`~repro.datastore.history.HistoryStore`
            to warm-start the *shared* cache from: neighborhoods a prior
            service run (or any single-tenant crawl) paid for preload
            once, unbilled, and every tenant registered afterwards gets
            its warm hits attributed through
            :attr:`~repro.interface.api.RestrictedSocialAPI.warm_hits`.
            Call :meth:`save_history` to write the (grown) shared
            knowledge back for the next service run.
        recorder: Optional shared :class:`~repro.obs.trace.TraceRecorder`.
            The service attaches it to the shared fleet and to every
            tenant stack it builds (registration *and* wake), so one
            recorder sees the whole multi-tenant run: per-tenant query
            and walk events, shard fetches with tenant attribution, and
            the service-level ``tenant_tick``/``hibernate``/``wake``
            lifecycle on the service clock.

    Raises:
        ServiceError: On a non-positive ``quantum``.
    """

    def __init__(
        self,
        network,
        fleet: Optional[FleetSpec] = None,
        *,
        fairness: bool = True,
        quantum: float = 0.5,
        cache_ttl: Optional[float] = None,
        idle_hibernate_after: Optional[int] = None,
        spill_store: Optional[KeyValueStore] = None,
        history=None,
        recorder: Optional[TraceRecorder] = None,
    ) -> None:
        if quantum <= 0.0:
            raise ServiceError("quantum must be positive simulated seconds")
        if idle_hibernate_after is not None and idle_hibernate_after < 1:
            raise ServiceError("idle_hibernate_after must be a positive round count")
        self._network = network
        self._fleet_spec = fleet if fleet is not None else FleetSpec()
        self._fleet = build_fleet(
            self._fleet_spec, network.graph, profiles=network.profiles
        )
        self._cache_ttl = cache_ttl
        self._cache = NeighborhoodCache(ttl=cache_ttl)
        self._fairness = bool(fairness)
        self._quantum = float(quantum)
        self._idle_hibernate_after = idle_hibernate_after
        self._spill = spill_store if spill_store is not None else KeyValueStore()
        self._spill_memo: Dict[str, _SpillMemo] = {}
        self._tenants: Dict[str, TenantSession] = {}
        self._clock = 0.0
        self._recorder = recorder
        self._watcher = None
        if recorder is not None:
            self._fleet.set_recorder(recorder)
        self._history = history
        self._warm_users: frozenset = frozenset()
        self._warm_private: frozenset = frozenset()
        self._warm_stats: dict = {}
        if history is not None:
            record = history.load()
            if record is not None:
                self._cache.preload(record.neighborhoods)
                self._warm_users = frozenset(record.neighborhoods) | record.private
                self._warm_private = record.private
                self._warm_stats = dict(record.stats)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def fleet(self):
        """The shared :class:`~repro.fleet.provider.ShardedProvider`."""
        return self._fleet

    @property
    def cache(self) -> NeighborhoodCache:
        """The cross-tenant shared neighborhood cache."""
        return self._cache

    @property
    def fairness(self) -> bool:
        """Whether deficit-round-robin admission is on."""
        return self._fairness

    @property
    def recorder(self) -> Optional[TraceRecorder]:
        """The shared trace recorder, or ``None``."""
        return self._recorder

    def set_watcher(self, watcher) -> None:
        """Attach (or with ``None`` detach) a live SLO watcher.

        The watcher is polled once per tenant tick on the service clock,
        after the tick's time has been charged and its pace metrics
        streamed — so a breach event lands at the first admission commit
        where the condition held.  Polling only reads metrics and
        appends breach events; samples and billing stay bit-for-bit.
        """
        self._watcher = watcher

    @property
    def clock(self) -> float:
        """The service's simulated clock: serialized fleet occupancy.

        Each tick's simulated-time delta (batched waits, provider
        latency, per-query seconds) is charged here in admission order —
        the single shared timeline every tenant's wall-clock metrics are
        measured on.
        """
        return self._clock

    @property
    def tenant_ids(self) -> Tuple[str, ...]:
        """Registered tenants in registration (= admission) order."""
        return tuple(self._tenants)

    def tenant(self, tenant_id: str) -> TenantSession:
        """The session record for ``tenant_id``.

        Raises:
            ServiceError: If the tenant is not registered.
        """
        return self._session(tenant_id)

    def _session(self, tenant_id: str) -> TenantSession:
        session = self._tenants.get(str(tenant_id))
        if session is None:
            raise ServiceError(f"tenant {tenant_id!r} is not registered")
        return session

    # ------------------------------------------------------------------
    # tenant lifecycle
    # ------------------------------------------------------------------
    def register(
        self, tenant_id: str, config: Optional[StackConfig] = None
    ) -> TenantSession:
        """Admit a new tenant and build its stack over the shared layers.

        The stack's bootstrap queries (each chain fetches its start node)
        are real tenant spend: they run with the tenant attributed in the
        shard books, bill the tenant's own §II-B log, and warm the shared
        cache for everyone else.

        Args:
            tenant_id: A unique label for the tenant.
            config: The tenant's stack description; ``config.fleet`` is
                ignored in favour of the service's shared fleet.

        Raises:
            ServiceError: If the label is already registered.
            ComposeError: If the config cannot be assembled.
        """
        tid = str(tenant_id)
        if tid in self._tenants:
            raise ServiceError(f"tenant {tid!r} is already registered")
        if config is None:
            config = StackConfig()
        session = TenantSession(tenant_id=tid, config=config)
        session.stack = self._build(tid, config)
        self._tenants[tid] = session
        return session

    def _build(self, tenant_id: str, config: StackConfig) -> SamplingStack:
        """Build a tenant stack on the shared fleet/cache, books attributed.

        Always drains the fleet's dispatch trace afterwards — bootstrap
        fetches left in the log would be mis-attributed to whichever
        tenant's scheduler next settles a batch.
        """
        self._fleet.set_active_tenant(tenant_id)
        try:
            stack = build_stack(
                config,
                self._network,
                cache=self._cache,
                fleet=self._fleet,
                recorder=self._recorder,
                tenant=tenant_id,
            )
        finally:
            self._fleet.set_active_tenant(None)
            self._fleet.drain_dispatches()
        if self._warm_users:
            # The shared cache is already warm; the tenant interface only
            # needs the refusal knowledge and the hit attribution.
            stack.api.warm_start({}, private=self._warm_private)
            stack.api.note_warm_start(self._warm_users)
            if stack.planner is not None and self._warm_stats:
                stack.planner.warm_start(self._warm_stats)
        return stack

    def request(
        self, tenant_id: str, num_samples: int, thinning: int = 1
    ) -> TenantSession:
        """Ask for ``num_samples`` more samples for ``tenant_id``.

        A hibernated tenant is woken (its session rebuilt bit-for-bit
        from the spill store) before the request is queued.  The request
        only queues work; :meth:`run_pending` performs it.

        Raises:
            ServiceError: On an unknown/exhausted tenant or non-positive
                arguments.
        """
        session = self._session(tenant_id)
        if num_samples <= 0:
            raise ServiceError("num_samples must be positive")
        if thinning <= 0:
            raise ServiceError("thinning must be positive")
        if session.state == STATE_EXHAUSTED:
            raise ServiceError(
                f"tenant {session.tenant_id!r} has exhausted its query budget"
            )
        if session.state == STATE_HIBERNATED:
            self._wake(session)
        if session.state != STATE_ACTIVE:
            session.arrival = self._clock
            session.epoch_base = session.samples
        session.requested += int(num_samples)
        session.thinning = int(thinning)
        session.idle_rounds = 0
        self._arm(session)
        session.state = STATE_ACTIVE
        return session

    def _arm(self, session: TenantSession) -> None:
        """Point the tenant's scheduler at its current cumulative target."""
        session.stack.walkers.begin_collect(session.requested, session.thinning)

    # ------------------------------------------------------------------
    # the admission loop
    # ------------------------------------------------------------------
    def run_pending(self, max_rounds: Optional[int] = None) -> dict:
        """Serve every queued request; returns a small progress summary.

        Under fairness each admission round tops up every runnable
        tenant's deficit by one quantum and lets it tick until the
        deficit is spent (deficit round-robin over simulated fleet
        occupancy).  Without fairness tenants run to completion in
        registration order.

        Args:
            max_rounds: Optional admission-round cap (``None`` serves
                until no tenant is runnable) — useful for interleaving
                service work with other simulation activity.

        Returns:
            ``{"rounds": int, "clock": float, "served": {tenant: samples}}``
            where ``served`` counts samples delivered by *this* call.
        """
        served = {tid: s.samples for tid, s in self._tenants.items()}
        rounds = 0
        while max_rounds is None or rounds < max_rounds:
            runnable = [
                s for s in self._tenants.values() if s.state == STATE_ACTIVE
            ]
            if not runnable:
                break
            rounds += 1
            for session in runnable:
                if session.state != STATE_ACTIVE:
                    continue
                if self._fairness:
                    session.deficit += self._quantum
                    self._drive(session, bounded=True)
                else:
                    self._drive(session, bounded=False)
            self._sweep_idle()
        return {
            "rounds": rounds,
            "clock": self._clock,
            "served": {
                tid: s.samples - served[tid] for tid, s in self._tenants.items()
            },
        }

    def _drive(self, session: TenantSession, bounded: bool) -> None:
        """Tick one tenant until done, exhausted, or (bounded) out of deficit."""
        self._fleet.set_active_tenant(session.tenant_id)
        try:
            while session.state == STATE_ACTIVE:
                if bounded and session.deficit <= 0.0:
                    break
                if self._tick(session):
                    session.state = STATE_IDLE
                    session.arrival = None
                    session.deficit = 0.0
                    session.idle_rounds = 0
                    break
        finally:
            self._fleet.set_active_tenant(None)

    def _tick(self, session: TenantSession) -> bool:
        """One scheduler tick: charge its simulated time, record samples.

        Returns ``True`` when the tenant's cumulative target is reached.
        A :class:`~repro.errors.QueryBudgetExhaustedError` mid-tick
        freezes the tenant in the ``exhausted`` state instead of
        propagating — one tenant's spent budget must not abort the
        admission loop.
        """
        walkers = session.stack.walkers
        recorder = self._recorder
        before_time = walkers.simulated_elapsed
        before_samples = walkers.samples_collected
        before_clock = self._clock
        try:
            done = walkers.collect_tick(session.requested)
        except QueryBudgetExhaustedError:
            self._charge(session, walkers.simulated_elapsed - before_time)
            if recorder is not None:
                # The absolute post-charge clock rides along because float
                # addition is not associative: the profiler's service
                # timeline tiles on these exact values, never on re-summed
                # durations.
                recorder.record(
                    EVENT_TENANT_TICK,
                    before_clock,
                    self._clock - before_clock,
                    tenant=session.tenant_id,
                    clock=self._clock,
                    exhausted=True,
                )
            session.state = STATE_EXHAUSTED
            session.deficit = 0.0
            if self._watcher is not None:
                self._watcher.poll(self._clock)
            return False
        self._charge(session, walkers.simulated_elapsed - before_time)
        if recorder is not None:
            recorder.record(
                EVENT_TENANT_TICK,
                before_clock,
                self._clock - before_clock,
                tenant=session.tenant_id,
                clock=self._clock,
            )
        anchor = session.arrival if session.arrival is not None else 0.0
        for count in range(before_samples + 1, walkers.samples_collected + 1):
            since_arrival = max(1, count - session.epoch_base)
            session.sample_clock.append(self._clock)
            session.sample_walls.append((self._clock - anchor) / since_arrival)
            if recorder is not None:
                recorder.metrics.series(
                    f"tenant.{session.tenant_id}.pace"
                ).observe(self._clock, session.sample_walls[-1])
                recorder.metrics.histogram(
                    f"tenant.{session.tenant_id}.pace_hist"
                ).observe(session.sample_walls[-1])
        if self._watcher is not None:
            self._watcher.poll(self._clock)
        return done

    def _charge(self, session: TenantSession, delta: float) -> None:
        """Bill ``delta`` simulated seconds of fleet occupancy."""
        if delta > 0.0:
            self._clock += delta
            session.deficit -= delta

    def _sweep_idle(self) -> None:
        """Advance idle counters; hibernate tenants past the threshold."""
        if self._idle_hibernate_after is None:
            return
        for session in self._tenants.values():
            if session.state == STATE_IDLE and session.stack is not None:
                session.idle_rounds += 1
                if session.idle_rounds >= self._idle_hibernate_after:
                    self.hibernate(session.tenant_id)

    # ------------------------------------------------------------------
    # hibernation: spill / wake
    # ------------------------------------------------------------------
    def hibernate(self, tenant_id: str) -> TenantSession:
        """Spill a tenant's session to the datastore and drop its stack.

        Only tenant-owned state travels — the interface snapshot is taken
        with ``include_shared=False`` so the shared cache and fleet stay
        out of the payload (they live on in the service).  Mid-request
        hibernation is legal: the scheduler's in-flight queue is part of
        the payload, and :meth:`request` re-arms the target on wake.

        The spill is always exactly ``encode_value(payload)``, but it
        costs the delta.  The append-only runs (the query log's records,
        the merged samples and their chain indices, each chain's trace)
        are lists, which the codec writes as column blocks, one array per
        field.  The service keeps the blocks each spill appended to a
        run, and a run encodes only its tail when its live list is the
        very list the last wake built from that spill and is no shorter:
        the tail's block is joined onto the kept ones by extending each
        field's array into a new one.  A tail of another shape (a new
        type in a field, a row of another width), a wake that read a
        spill this service did not write, or a ``load_state`` or
        ``reset_accounting`` that put a new list in place makes the run
        encode whole again.

        An exhausted tenant stays ``exhausted``: its session is spilled
        all the same, but :meth:`request` keeps refusing it, so nothing
        ever wakes it.

        Raises:
            ServiceError: On an unknown tenant or one with no live stack
                to spill (one already spilled is a no-op).
        """
        session = self._session(tenant_id)
        stack = session.stack
        if stack is None:
            if session.state in (STATE_HIBERNATED, STATE_EXHAUSTED):
                return session
            raise ServiceError(
                f"tenant {session.tenant_id!r} has no live session to hibernate"
            )
        session.frozen_samples = stack.walkers.samples_collected
        session.frozen_cost = stack.api.query_cost
        session.frozen_latency = stack.api.latency_spent
        session.frozen_hits = stack.api.cache_hits
        session.frozen_warm_hits = stack.api.warm_hits
        payload = {
            "api": stack.api.state_dict(include_shared=False),
            "walkers": stack.walkers.state_dict(),
        }
        memo = self._spill_memo.get(session.tenant_id)
        runs: Dict[tuple, list] = {}
        items: Dict[tuple, list] = {}
        for path, (live, run) in _runs(stack, payload).items():
            prefix = () if memo is None or memo.live.get(path) is not live else memo.items[path]
            runs[path], items[path] = encode_run(run, prefix)
        above = frozenset(path[:i] for path in runs for i in range(len(path)))
        encoded = _encode_spliced(payload, runs, above)
        self._spill.set(("tenant", session.tenant_id), encoded)
        self._spill_memo[session.tenant_id] = _SpillMemo(encoded, items)
        session.stack = None
        if session.state != STATE_EXHAUSTED:
            session.state = STATE_HIBERNATED
        session.idle_rounds = 0
        if self._recorder is not None:
            self._recorder.record(
                EVENT_HIBERNATE, self._clock, tenant=session.tenant_id
            )
        return session

    def _wake(self, session: TenantSession) -> None:
        """Rebuild a hibernated tenant's stack bit-for-bit from the spill."""
        payload = self._spill.get(("tenant", session.tenant_id))
        if payload is None:
            raise ServiceError(
                f"tenant {session.tenant_id!r} has no spilled session to wake"
            )
        sections = decode_value(payload)
        session.stack = self._materialize(session.config, sections, tenant_id=session.tenant_id)
        self._spill.delete(("tenant", session.tenant_id))
        memo = self._spill_memo.get(session.tenant_id)
        if memo is not None and memo.encoded is payload:
            # The stack was built from the spill the memo encoded, so each
            # run's live list starts with the memo's members.
            memo.encoded = None
            memo.live = {path: live for path, (live, _) in _runs(session.stack, sections).items()}
        else:
            self._spill_memo.pop(session.tenant_id, None)
        if self._recorder is not None:
            self._recorder.record(EVENT_WAKE, self._clock, tenant=session.tenant_id)
        if session.requested > session.stack.walkers.samples_collected:
            self._arm(session)
            session.state = STATE_ACTIVE
        else:
            session.state = STATE_IDLE
        session.idle_rounds = 0

    def _materialize(
        self, config: StackConfig, sections: dict, tenant_id: str
    ) -> SamplingStack:
        """Restore a tenant's stack from its tenant-scoped snapshot sections.

        ``build_stack(state=...)`` sets the chains up without their
        start-node queries and loads the tenant's own state on top, so the
        rebuild bills nothing, fetches nothing, and leaves the shared
        fleet and cache exactly as they were.  The shared recorder is
        wired through the restored stack like a fresh registration's.
        """
        return build_stack(
            config,
            self._network,
            cache=self._cache,
            fleet=self._fleet,
            recorder=self._recorder,
            tenant=tenant_id,
            state=sections,
        )

    # ------------------------------------------------------------------
    # whole-service persistence
    # ------------------------------------------------------------------
    def save(self, backend: SnapshotBackend) -> None:
        """Persist the entire service — shared layers and every tenant.

        Sections: ``service/meta`` (config scalars, registration order,
        the fleet spec), ``service/fleet``, ``service/cache``,
        ``service/registry`` (per-tenant records), and one
        ``tenant/<id>`` section per tenant with its session payload
        (live ones snapshotted fresh, spilled ones — hibernated, or
        exhausted and hibernated — copied from the spill store).
        """
        registry: Dict[str, dict] = {}
        sections: Dict[str, object] = {}
        for tid, session in self._tenants.items():
            if session.stack is None:
                spilled = self._spill.get(("tenant", tid))
                if spilled is None:
                    raise ServiceError(
                        f"tenant {tid!r} is hibernated but its spill is missing"
                    )
                payload = decode_value(spilled)
            else:
                payload = {
                    "api": session.stack.api.state_dict(include_shared=False),
                    "walkers": session.stack.walkers.state_dict(),
                }
            sections[f"tenant/{tid}"] = payload
            registry[tid] = {
                "config": session.config,
                "state": session.state,
                "requested": session.requested,
                "thinning": session.thinning,
                "deficit": session.deficit,
                "arrival": session.arrival,
                "epoch_base": session.epoch_base,
                "sample_clock": list(session.sample_clock),
                "sample_walls": list(session.sample_walls),
                "idle_rounds": session.idle_rounds,
                "frozen_samples": session.samples,
                "frozen_cost": session.query_cost,
                "frozen_latency": session.latency_spent,
                "frozen_hits": session.cache_hits,
                "frozen_warm_hits": session.warm_hits,
                "spilled": session.stack is None,
            }
        sections[_META_SECTION] = {
            "version": _SNAPSHOT_VERSION,
            "clock": self._clock,
            "fairness": self._fairness,
            "quantum": self._quantum,
            "cache_ttl": self._cache_ttl,
            "idle_hibernate_after": self._idle_hibernate_after,
            "order": list(self._tenants),
            "fleet_spec": self._fleet_spec,
        }
        sections[_FLEET_SECTION] = self._fleet.state_dict()
        sections[_CACHE_SECTION] = self._cache.state_dict()
        sections[_REGISTRY_SECTION] = registry
        backend.write(sections)

    @classmethod
    def resume(
        cls,
        backend: SnapshotBackend,
        network,
        spill_store: Optional[KeyValueStore] = None,
    ) -> "SamplingService":
        """Reconstruct a saved service in a fresh process.

        Shared layers are restored first, then each tenant in the saved
        registration order: live tenants are materialized (and re-armed
        if they were mid-request), spilled ones go straight back to the
        spill store without being built.

        Raises:
            ServiceError: If the backend holds no snapshot or the
                snapshot version is unsupported.
        """
        sections = backend.read()
        if sections is None:
            raise ServiceError("backend holds no service snapshot")
        meta = sections.get(_META_SECTION)
        if meta is None or int(meta.get("version", -1)) != _SNAPSHOT_VERSION:
            raise ServiceError("unsupported or missing service snapshot metadata")
        service = cls(
            network,
            fleet=meta["fleet_spec"],
            fairness=bool(meta["fairness"]),
            quantum=float(meta["quantum"]),
            cache_ttl=meta["cache_ttl"],
            idle_hibernate_after=meta["idle_hibernate_after"],
            spill_store=spill_store,
        )
        service._fleet.load_state(sections[_FLEET_SECTION])
        service._cache.load_state(sections[_CACHE_SECTION])
        service._clock = float(meta["clock"])
        registry = sections[_REGISTRY_SECTION]
        for tid in meta["order"]:
            row = registry[tid]
            session = TenantSession(
                tenant_id=tid,
                config=row["config"],
                state=str(row["state"]),
                requested=int(row["requested"]),
                thinning=int(row["thinning"]),
                deficit=float(row["deficit"]),
                arrival=None if row["arrival"] is None else float(row["arrival"]),
                epoch_base=int(row["epoch_base"]),
                sample_clock=[float(t) for t in row["sample_clock"]],
                sample_walls=[float(t) for t in row["sample_walls"]],
                idle_rounds=int(row["idle_rounds"]),
                frozen_samples=int(row["frozen_samples"]),
                frozen_cost=int(row["frozen_cost"]),
                frozen_latency=float(row["frozen_latency"]),
                frozen_hits=int(row["frozen_hits"]),
                frozen_warm_hits=int(row["frozen_warm_hits"]),
            )
            service._tenants[tid] = session
            payload = sections[f"tenant/{tid}"]
            # Snapshots written before exhausted tenants could be spilled
            # carry no flag: only a hibernated tenant was.
            if row.get("spilled", session.state == STATE_HIBERNATED):
                service._spill.set(("tenant", tid), encode_value(payload))
            else:
                session.stack = service._materialize(
                    session.config, payload, tenant_id=tid
                )
                if session.state == STATE_ACTIVE:
                    service._arm(session)
        return service

    # ------------------------------------------------------------------
    # cross-run history
    # ------------------------------------------------------------------
    @property
    def warm_user_count(self) -> int:
        """Users the attached history store preloaded (0 when cold)."""
        return len(self._warm_users)

    def save_history(self, metadata: Optional[dict] = None) -> dict:
        """Write the shared cache's knowledge to the attached history store.

        Every neighborhood any tenant paid for (plus everything the warm
        start preloaded) becomes the next service run's free territory.

        Raises:
            ServiceError: When the service was constructed without a
                ``history`` store.
        """
        if self._history is None:
            raise ServiceError(
                "this service has no history store; pass history=... at construction"
            )
        private = set(self._warm_private)
        for session in self._tenants.values():
            if session.stack is not None:
                api = session.stack.api
                private.update(
                    u for u in api.log.queried_users() if api.is_known_private(u)
                )
        return self._history.save_cache(
            self._cache,
            private=frozenset(private),
            stats=self._warm_stats or None,
            metadata=metadata,
        )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def tenant_summary(self, tenant_id: str) -> dict:
        """One tenant's accounting as a plain dict (JSON-friendly)."""
        session = self._session(tenant_id)
        summary = {
            "tenant": session.tenant_id,
            "state": session.state,
            "samples": session.samples,
            "requested": session.requested,
            "query_cost": session.query_cost,
            "latency_spent": session.latency_spent,
            "cache_hits": session.cache_hits,
            "warm_hits": session.warm_hits,
            "p95_wall": _p95(session.sample_walls),
        }
        if session.stack is not None:
            planning = session.stack.walkers.planning_summary()
            if planning is not None:
                summary["prediction"] = planning.get("prediction", {})
        return summary

    def fairness_report(self) -> dict:
        """Cross-tenant fairness picture on the shared service clock.

        ``fair_share`` is the per-sample pace a perfect round-robin over
        all registered tenants would give each of them:
        ``num_tenants * clock / total_samples`` (every sample occupies
        the fleet for ``clock/total_samples`` on average, and a fair
        schedule hands each tenant a ``1/num_tenants`` slice of the
        timeline).  Each tenant's ``ratio`` compares its p95 per-sample
        pace against that share; ``max_ratio`` is the number the
        fairness benchmark gates (bounded under deficit-round-robin,
        unbounded under FCFS, where late tenants pay the hog's whole run
        on every sample).
        """
        total_samples = sum(s.samples for s in self._tenants.values())
        occupancy = self._clock / total_samples if total_samples else 0.0
        fair_share = occupancy * max(1, len(self._tenants))
        tenants = {}
        for tid, session in self._tenants.items():
            p95 = _p95(session.sample_walls)
            tenants[tid] = {
                "samples": session.samples,
                "query_cost": session.query_cost,
                "cache_hits": session.cache_hits,
                "warm_hits": session.warm_hits,
                "p95_wall": p95,
                "ratio": (p95 / fair_share) if fair_share > 0.0 else 0.0,
            }
        return {
            "fairness": self._fairness,
            "clock": self._clock,
            "total_samples": total_samples,
            "total_query_cost": sum(s.query_cost for s in self._tenants.values()),
            "fair_share": fair_share,
            "max_ratio": max((row["ratio"] for row in tenants.values()), default=0.0),
            "tenants": tenants,
        }
