"""The restrictive individual-user-query interface ``q(v)``.

This is the only door between a sampler and the social network, exactly as
in §II-A of the paper::

    q(v): SELECT * FROM D WHERE USER-ID = v

The response carries user ``v``'s profile attributes and the full neighbor
list.  The interface:

* bills one unit of query cost the *first* time each user is queried
  (repeats are served from the sampler-side cache for free — §II-B);
* enforces an optional provider rate limit on simulated time, advancing the
  clock automatically when throttled (so experiments measure query cost,
  not wall-clock);
* enforces an optional hard unique-query budget, letting experiments stop a
  sampler after a fixed spend;
* never exposes anything global: no node list, no edge count, no topology.

Samplers receive a :class:`RestrictedSocialAPI` and must work through it;
nothing in :mod:`repro.walks` or :mod:`repro.core` touches the underlying
graph directly.

The data source itself is pluggable: the API sits on any
:class:`~repro.interface.providers.SocialProvider` (in-memory graph,
seeded latency models, flaky backends with retries) and keeps the §II-B
billing semantics identical across all of them — a provider decides *what*
a fetch returns and *how long* it takes; the interface decides what it
*costs*.  Provider response latency is added to the simulated clock on
each billed fetch and tallied in :attr:`RestrictedSocialAPI.latency_spent`
for latency-aware schedulers.

:meth:`RestrictedSocialAPI.query_many` is the batched entry point: it keeps
the per-user billing semantics of ``q(v)`` bit-for-bit (cache hits free,
refusals billed once, one limiter token per billed fetch — so simulated
time is identical to a loop of singles) and degrades gracefully where a
loop would abort: private members are reported rather than raised, unknown
ids are reported, and budget exhaustion returns the partial prefix.
Follow-up work on the paper ("Walk, Not Wait"; history-reuse sampling)
shows batched neighborhood fetches are where multi-chain crawlers win;
this is the substrate for that.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, Hashable, Iterable, Optional, Tuple

from repro.datastore.documents import DocumentStore
from repro.datastore.querylog import QueryLog
from repro.errors import (
    PrivateUserError,
    QueryBudgetExhaustedError,
    SnapshotError,
    UnknownUserError,
)
from repro.graph.adjacency import Graph
from repro.interface.cache import NeighborhoodCache
from repro.interface.providers import InMemoryGraphProvider, SocialProvider
from repro.interface.ratelimit import RateLimiter, SimulatedClock, UnlimitedRateLimiter
from repro.obs.trace import (
    EVENT_LIMITER_WAIT,
    EVENT_QUERY,
    EVENT_REFUSAL,
    TraceRecorder,
)

Node = Hashable


@dataclasses.dataclass(frozen=True, init=False)
class QueryResponse:
    """What ``q(v)`` returns: the user, their attributes, their neighbors.

    A frozen dataclass whose ``__init__`` fills the instance dict in
    place: the interface builds one per cached or billed query.

    Attributes:
        user: The queried user id.
        neighbors: All users connected to ``user`` (the full list, as OSN
            interfaces return it).
        attributes: Profile fields (e.g. ``self_description``); empty dict
            when the network has no attribute payload.
        from_cache: Whether this response was served locally (not billed).
        neighbor_seq: The same neighbors in a stable order, for O(1)
            uniform draws without sorting.  Optional at construction only:
            derived from ``neighbors`` when not supplied (hand-built
            responses in tests), so readers always see a tuple.
        latency: Simulated seconds the provider took to serve this
            response (0.0 for cache hits and zero-latency providers).
    """

    user: Node
    neighbors: FrozenSet[Node]
    attributes: Dict
    from_cache: bool
    neighbor_seq: Optional[Tuple[Node, ...]] = None
    latency: float = 0.0

    def __init__(
        self,
        user: Node,
        neighbors: FrozenSet[Node],
        attributes: Dict,
        from_cache: bool,
        neighbor_seq: Optional[Tuple[Node, ...]] = None,
        latency: float = 0.0,
    ) -> None:
        fields = self.__dict__
        fields["user"] = user
        fields["neighbors"] = neighbors
        fields["attributes"] = attributes
        fields["from_cache"] = from_cache
        fields["neighbor_seq"] = tuple(neighbors) if neighbor_seq is None else neighbor_seq
        fields["latency"] = latency

    @property
    def degree(self) -> int:
        """``k_user`` — the size of the returned neighbor list."""
        return len(self.neighbors)


@dataclasses.dataclass(frozen=True)
class BatchQueryResult:
    """Outcome of one :meth:`RestrictedSocialAPI.query_many` call.

    Attributes:
        responses: Successful responses keyed by user, in request order.
        private: Users that refused the query (each billed once on first
            contact, exactly as the single-query path bills refusals).
        unknown: Requested ids that do not exist in the network (free — the
            provider rejects them before any billable work).
        budget_exhausted: ``True`` when the unique-query budget ran out
            mid-batch; ``responses`` then holds the partial prefix and all
            accounting remains consistent with the work actually done.
    """

    responses: Dict[Node, QueryResponse]
    private: Tuple[Node, ...]
    unknown: Tuple[Node, ...]
    budget_exhausted: bool


class RestrictedSocialAPI:
    """The §II-B billing interface over a pluggable social provider.

    Args:
        graph: The data source — either a :class:`SocialProvider`
            implementation, or a bare :class:`Graph` which is wrapped in a
            zero-latency :class:`InMemoryGraphProvider` (the historical
            behavior, bit-for-bit).  The API holds a reference (not a
            copy); experiments must not mutate the topology while
            sampling.
        profiles: Optional document store of user attributes served with
            each query response.  Only valid with a bare graph — a
            provider owns its own attribute payloads.
        rate_limiter: Provider throttle; default unlimited.
        clock: Simulated clock; a fresh one is created if omitted.
        seconds_per_query: How much simulated time one billed query takes
            on top of the provider's response latency.
        query_budget: Optional hard cap on billed queries, after which
            :class:`QueryBudgetExhaustedError` is raised.
        inaccessible: Optional set of user ids whose profiles are private:
            they appear in neighbor lists but ``q(v)`` on them raises
            :class:`PrivateUserError`.  The refusal itself is billed once
            (real interfaces charge the request) and cached thereafter.
            Only valid with a bare graph — providers model their own
            refusals (see :class:`InMemoryGraphProvider`).
        cache: Sampler-side response cache; a fresh unbounded
            :class:`NeighborhoodCache` by default.  Injectable so
            bounded-memory crawls can run over an LRU-capped store —
            evicted users are re-fetched (and re-billed in *time*, never
            in unique-query cost, which the log owns).

    Raises:
        ValueError: On invalid numeric parameters, or when ``profiles`` /
            ``inaccessible`` are combined with a provider instance.

    Example:
        >>> g = Graph([(1, 2), (2, 3)])
        >>> api = RestrictedSocialAPI(g)
        >>> sorted(api.query(2).neighbors)
        [1, 3]
        >>> api.query_cost
        1
        >>> _ = api.query(2)  # cache hit, still 1 billed query
        >>> api.query_cost
        1
    """

    def __init__(
        self,
        graph: "Graph | SocialProvider",
        profiles: Optional[DocumentStore] = None,
        rate_limiter: Optional[RateLimiter] = None,
        clock: Optional[SimulatedClock] = None,
        seconds_per_query: float = 1.0,
        query_budget: Optional[int] = None,
        inaccessible: Optional[frozenset] = None,
        cache: Optional[NeighborhoodCache] = None,
    ) -> None:
        if seconds_per_query < 0:
            raise ValueError("seconds_per_query must be non-negative")
        if query_budget is not None and query_budget <= 0:
            raise ValueError("query_budget must be positive or None")
        if isinstance(graph, SocialProvider):
            if profiles is not None or inaccessible:
                raise ValueError(
                    "profiles/inaccessible belong to the provider; "
                    "configure them on the provider instance instead"
                )
            self._provider: SocialProvider = graph
        else:
            self._provider = InMemoryGraphProvider(graph, profiles=profiles, inaccessible=inaccessible)
        self._known_private: set = set()
        self._limiter = rate_limiter if rate_limiter is not None else UnlimitedRateLimiter()
        self._clock = clock if clock is not None else SimulatedClock()
        self._seconds_per_query = seconds_per_query
        self._budget = query_budget
        self._cache = cache if cache is not None else NeighborhoodCache()
        self._log = QueryLog()
        self._latency_spent = 0.0
        self._cache_hits = 0
        self._cache_misses = 0
        self._warm_users: FrozenSet[Node] = frozenset()
        self._warm_hits = 0
        self._recorder: Optional[TraceRecorder] = None
        self._obs_attrs: dict = {}
        self._obs_hits = "interface.cache_hits"
        self._obs_misses = "interface.cache_misses"
        self._obs_hit_rate = "interface.cache_hit_rate"
        self._obs_hit_counter = None
        self._obs_miss_counter = None
        self._obs_rate_series = None

    # ------------------------------------------------------------------
    # the public queries
    # ------------------------------------------------------------------
    def query(self, user: Node) -> QueryResponse:
        """Issue ``q(user)``.

        Served from the local cache when possible (free); otherwise billed
        against the rate limit and budget.

        Raises:
            UnknownUserError: If ``user`` is not in the network.
            PrivateUserError: If ``user`` refuses queries (billed once,
                cached thereafter).
            QueryBudgetExhaustedError: If the configured budget is spent.
        """
        if user in self._known_private:
            raise PrivateUserError(user)  # cached refusal — free
        cached = self._serve_cached(user)
        if cached is not None:
            return cached
        return self._query_uncached(user)

    def fetch_seq(self, user: Node) -> Tuple[Node, ...]:
        """Hot-path ``q(user)``: the stable neighbor sequence only.

        Billing, budget, refusal, and clock semantics are identical to
        :meth:`query` — every call logs one logical query, cache hits are
        free, the first contact with an uncached user is billed — but a
        cache hit skips the response rebuild entirely (no frozenset, no
        attribute copy, no :class:`QueryResponse`): one ``hot_seq`` read
        plus one log append, on every cache configuration — TTL'd and
        capacity-bounded caches included.  Every walk engine's step reads
        its neighborhoods through it; everything that needs attributes
        or a full response keeps using :meth:`query`.  A miss goes
        straight to the billed path, without probing the cache again.

        Raises:
            Exactly what :meth:`query` raises, under the same conditions.
        """
        if user in self._known_private:
            raise PrivateUserError(user)  # cached refusal — free
        seq = self._cache.hot_seq(user)
        if seq is None:
            return self._query_uncached(user).neighbor_seq
        self._cache_hits += 1
        if user in self._warm_users:
            self._warm_hits += 1
        counter = self._obs_hit_counter
        if counter is not None:
            # Counter-only on a cached step: no event allocation,
            # so recorder-on overhead stays within the CI budget.
            counter.value += 1
        self._log.note(user, False, self._clock.now())
        return seq

    def query_many(self, users: Iterable[Node]) -> BatchQueryResult:
        """Issue ``q(u)`` for a batch of users.

        Per-user billing semantics are identical to :meth:`query` — cached
        users are free, each uncached user (including refusals) is billed
        exactly once and acquires one rate-limiter token, duplicates
        collapse to one bill, and total simulated time matches a loop of
        single queries.  What the batch changes is failure behaviour:

        * private members are *reported* in the result instead of raising,
          so one refusal cannot abort the batch;
        * ids unknown to the provider are reported, not raised;
        * when the unique-query budget runs out mid-batch, the partial
          results gathered so far are returned with ``budget_exhausted``
          set and the accounting (cost, cache, clock) reflects exactly the
          users actually fetched.

        Args:
            users: User ids to fetch; duplicates are collapsed (first
                occurrence wins the request-order slot).

        Returns:
            A :class:`BatchQueryResult`; never raises for per-user
            failures.
        """
        responses: Dict[Node, QueryResponse] = {}
        private = []
        unknown = []
        billable = []
        for user in dict.fromkeys(users):
            if user in self._known_private:
                private.append(user)
                continue
            cached = self._serve_cached(user)
            if cached is not None:
                responses[user] = cached
                continue
            if not self._provider.has_user(user):
                unknown.append(user)
                continue
            billable.append(user)

        exhausted = False
        for user in billable:
            if self._budget is not None and self._log.unique_queries >= self._budget:
                exhausted = True
                break
            try:
                responses[user] = self._billed_fetch(user)
            except PrivateUserError:
                self._bill_refusal(user)
                private.append(user)
        return BatchQueryResult(
            responses=responses,
            private=tuple(private),
            unknown=tuple(unknown),
            budget_exhausted=exhausted,
        )

    # ------------------------------------------------------------------
    # shared query machinery
    # ------------------------------------------------------------------
    def _serve_cached(self, user: Node) -> Optional[QueryResponse]:
        """Build a free response from the cache, or ``None`` on a miss.

        Logged as unbilled: under a *shared* cache (the service layer
        hands many tenant interfaces one ``NeighborhoodCache``) the hit
        may serve knowledge another tenant's budget paid for, and
        derived billing would charge this tenant's unique set for a fetch
        it never issued.  For a private cache the flag is identical to
        the derived one — a cached user is always already in this log's
        unique set.

        One ``neighbors`` read decides hit or miss; on a hit, the
        sequence and a fresh copy of the attributes come from one more
        read of the same record, so a hit never serves a neighbor set
        without its billed attributes.
        """
        cached = self._cache.neighbors(user)
        if cached is None:
            return None
        seq, _, attrs = self._cache._record(user)
        self._cache_hits += 1
        if user in self._warm_users:
            self._warm_hits += 1
        if self._obs_hit_counter is not None:
            self._obs_hit_counter.value += 1
        self._log.note(user, False, self._clock.now())
        return QueryResponse(user, cached, dict(attrs), True, seq)

    def _query_uncached(self, user: Node) -> QueryResponse:
        """``q(user)`` past the cache: check the user and the budget, then bill."""
        if not self._provider.has_user(user):
            raise UnknownUserError(user)
        if self._budget is not None and self._log.unique_queries >= self._budget:
            raise QueryBudgetExhaustedError(self._budget)
        try:
            return self._billed_fetch(user)
        except PrivateUserError:
            self._bill_refusal(user)
            raise

    def _bill_refusal(self, user: Node) -> None:
        """Book a provider's refusal: one billed request, then cached."""
        self._log.note(user, not self._log.was_queried(user), self._clock.now())
        self._known_private.add(user)
        if self._recorder is not None:
            self._recorder.record(EVENT_REFUSAL, self._clock.now(), user=user, **self._obs_attrs)

    def _billed_fetch(self, user: Node) -> QueryResponse:
        """Bill one fetch: read the provider, wait out the limiter, cache, log.

        The provider is consulted *before* any clock/limiter work so a
        refusal (which real providers return instantly and which this
        interface bills without consuming a limiter token) never advances
        simulated time — exactly the pre-provider semantics.
        """
        self._cache_misses += 1
        recorder = self._recorder
        started = 0.0
        if recorder is not None:
            self._obs_miss_counter.value += 1
            started = self._clock.now()
            # Stamp the issue time for the clockless fleet layer, whose
            # shard_fetch/retry events land at this simulated instant.
            recorder.hint_clock(started)
        fetched = self._provider.fetch(user)  # may raise PrivateUserError

        wait = self._limiter.try_acquire(self._clock.now())
        while wait > 0:
            self._clock.advance(wait)
            wait = self._limiter.try_acquire(self._clock.now())
        if recorder is not None:
            throttled = self._clock.now() - started
            if throttled > 0.0:
                recorder.record(EVENT_LIMITER_WAIT, started, throttled, user=user, **self._obs_attrs)
        self._clock.advance(self._seconds_per_query + fetched.latency)
        self._latency_spent += fetched.latency
        if recorder is not None:
            now = self._clock.now()
            recorder.record(
                EVENT_QUERY,
                started,
                now - started,
                user=user,
                latency=fetched.latency,
                **self._obs_attrs,
            )
            hits, misses = self._cache_hits, self._cache_misses
            self._obs_rate_series.observe(now, hits / (hits + misses))

        seq = fetched.neighbor_seq
        neighbors = frozenset(seq)
        attrs = fetched.attributes
        self._cache.put(user, neighbors, attrs, seq=seq)
        self._log.note(user, not self._log.was_queried(user), self._clock.now())
        return QueryResponse(user, neighbors, attrs, False, seq, fetched.latency)

    # ------------------------------------------------------------------
    # cost accounting and cached knowledge (all local, never billed)
    # ------------------------------------------------------------------
    @property
    def query_cost(self) -> int:
        """Billed (unique) queries so far — the paper's cost measure."""
        return self._log.unique_queries

    @property
    def total_queries(self) -> int:
        """All logical queries including cache hits."""
        return self._log.total_queries

    @property
    def log(self) -> QueryLog:
        """The underlying query log (read-only use)."""
        return self._log

    @property
    def clock(self) -> SimulatedClock:
        """The simulated clock (shared with the rate limiter)."""
        return self._clock

    @property
    def cache(self) -> NeighborhoodCache:
        """The sampler-side cache; exposes free degree lookups (Thm 5)."""
        return self._cache

    @property
    def provider(self) -> SocialProvider:
        """The raw data source this interface bills queries against."""
        return self._provider

    @property
    def latency_spent(self) -> float:
        """Total provider response latency billed so far (simulated s).

        This is the *serial* sum over billed fetches; multi-chain
        schedulers (:mod:`repro.walks.scheduler`) diff it around a chain's
        step to attribute each response's latency to the chain that
        triggered it, then redistribute those durations onto concurrent
        timelines.
        """
        return self._latency_spent

    @property
    def cache_hits(self) -> int:
        """Logical queries served from the local cache (free)."""
        return self._cache_hits

    @property
    def cache_misses(self) -> int:
        """Logical queries that had to consult the provider (billed).

        Counts every billed fetch attempt, refusals included — on an
        unbounded cache this equals ``query_cost``; under LRU/TTL caches
        it also counts re-fetches of evicted or expired users (billed in
        *time*, never again in unique-query cost, which the log owns).
        """
        return self._cache_misses

    # ------------------------------------------------------------------
    # observability (zero-cost when no recorder is attached)
    # ------------------------------------------------------------------
    @property
    def recorder(self) -> Optional[TraceRecorder]:
        """The attached trace recorder, or ``None`` (the default)."""
        return self._recorder

    def set_recorder(self, recorder: Optional[TraceRecorder], tenant: Optional[str] = None) -> None:
        """Attach (or with ``None`` detach) a trace recorder.

        Attaching only affects *this* interface's hooks; use
        :func:`repro.obs.attach_stack` to instrument a whole
        provider → interface → walkers → planner stack with one call.

        Args:
            recorder: The sink, or ``None`` to detach.
            tenant: Optional tenant label.  When set, every interface
                event carries a ``tenant`` attribute and the cache
                counters/series move from the ``interface.*`` namespace
                to ``tenant.<label>.*`` — a shared service recorder can
                then reconcile each tenant's bill separately.  The names
                are precomputed here so the hot cache-hit lane stays
                allocation-free.
        """
        self._recorder = recorder
        if tenant is None:
            self._obs_attrs = {}
            prefix = "interface"
        else:
            self._obs_attrs = {"tenant": str(tenant)}
            prefix = f"tenant.{tenant}"
        self._obs_hits = prefix + ".cache_hits"
        self._obs_misses = prefix + ".cache_misses"
        self._obs_hit_rate = prefix + ".cache_hit_rate"
        # Pre-bound counter objects: the cached-step lane bumps `.value`
        # directly instead of paying a registry lookup per step, which is
        # what keeps recorder-on overhead inside the CI-gated 10% budget.
        if recorder is None:
            self._obs_hit_counter = None
            self._obs_miss_counter = None
            self._obs_rate_series = None
        else:
            self._obs_hit_counter = recorder.metrics.counter(self._obs_hits)
            self._obs_miss_counter = recorder.metrics.counter(self._obs_misses)
            self._obs_rate_series = recorder.metrics.series(self._obs_hit_rate)

    @property
    def may_have_private(self) -> bool:
        """Whether any user of this network can refuse queries.

        ``False`` lets walk engines skip accessibility filtering entirely —
        the common case for pure-algorithm experiments.
        """
        return self._provider.may_refuse

    # ------------------------------------------------------------------
    # cross-run warm starts (history preloaded, never billed)
    # ------------------------------------------------------------------
    def warm_start(self, neighborhoods: Dict, private: Iterable[Node] = ()) -> int:
        """Preload a prior run's paid-for knowledge into this interface.

        Every entry goes straight into the sampler-side cache via
        ``cache.preload`` — never through :meth:`query` — so nothing is
        billed, no limiter token is consumed, and the simulated clock
        does not move: §II-B already charged these fetches in the run
        that recorded them.  Known refusals are replayed into the
        private set the same way, so a warm walk never re-bills a
        refusal the prior run paid for.

        Args:
            neighborhoods: ``{user: (neighbor_seq, attributes)}`` as a
                :class:`~repro.datastore.history.HistoryStore` records
                them.  Users already cached here are skipped (the live
                entry is fresher).
            private: Users a prior run's billed refusals identified.

        Returns:
            Number of neighborhoods actually preloaded.
        """
        count = self._cache.preload(neighborhoods)
        self._known_private.update(private)
        self.note_warm_start(list(neighborhoods) + list(private))
        return count

    def note_warm_start(self, users: Iterable[Node]) -> None:
        """Mark ``users`` as warm-started for hit attribution.

        The service layer warms its *shared* cache once and then calls
        this on every tenant interface — the entries are already in
        place, but each tenant's :attr:`warm_hits` must still attribute
        the free hits to the warm start rather than to live sharing.
        """
        self._warm_users = self._warm_users | frozenset(users)

    @property
    def warm_user_count(self) -> int:
        """Users this interface was warm-started with (0 when cold)."""
        return len(self._warm_users)

    @property
    def warm_hits(self) -> int:
        """Cache hits served from warm-started (prior-run) knowledge."""
        return self._warm_hits

    def cached_degree(self, user: Node) -> Optional[int]:
        """Degree of ``user`` if previously queried, else ``None``. Free."""
        return self._cache.degree(user)

    @property
    def query_budget(self) -> Optional[int]:
        """The configured cap on billed queries, or ``None`` if unbounded."""
        return self._budget

    def remaining_budget(self) -> Optional[int]:
        """Billed queries left under the budget, or ``None`` if unbounded."""
        if self._budget is None:
            return None
        return max(0, self._budget - self._log.unique_queries)

    # ------------------------------------------------------------------
    # provider-published metadata (the paper allows the total user count,
    # which providers publish for advertising — footnote 4)
    # ------------------------------------------------------------------
    def published_user_count(self) -> int:
        """Total user count, as providers publish it (footnote 4).

        This is the one piece of global information the paper permits; it
        enables COUNT/SUM estimation on top of AVG.
        """
        return self._provider.user_count()

    def is_known_private(self, user: Node) -> bool:
        """Whether a previous query already revealed ``user`` as private."""
        return user in self._known_private

    def reset_accounting(self) -> None:
        """Clear the cache, log, and budget spend (fresh experiment run)."""
        self._cache.clear()
        self._log = QueryLog()
        self._known_private = set()
        self._cache_hits = 0
        self._cache_misses = 0
        self._warm_users = frozenset()
        self._warm_hits = 0

    # ------------------------------------------------------------------
    # snapshot support
    # ------------------------------------------------------------------
    def state_dict(self, include_shared: bool = True) -> dict:
        """Serializable sampler-side interface state.

        Captures everything the crawl has *paid for* — the response cache,
        the query log (whose billed flags are §II-B's unique-query
        accounting), the set of users known to be private, the simulated
        clock, and the rate-limiter position.  The network itself, the
        profile store, and the budget/limit *configuration* are provider
        side: a restoring process reconstructs those and loads this state
        on top, after which billing continues exactly where it left off
        (cached users stay free, the budget remembers its spend, the rate
        limiter its window).

        Args:
            include_shared: When ``False``, omit the ``cache`` and
                ``provider`` sections.  The service layer hands many
                tenant interfaces one shared cache and one shared fleet;
                a *tenant-scoped* snapshot must carry only what this
                tenant owns (log, clock, limiter, private set, counters)
                — the shared layers live in the service's own sections.
        """
        state = {
            "clock_now": self._clock.now(),
            "known_private": set(self._known_private),
            "log": self._log.state_dict(),
            "limiter": self._limiter.state_dict(),
            "latency_spent": self._latency_spent,
            "cache_hits": self._cache_hits,
            "cache_misses": self._cache_misses,
            "warm_users": frozenset(self._warm_users),
            "warm_hits": self._warm_hits,
        }
        if include_shared:
            state["cache"] = self._cache.state_dict()
            state["provider"] = self._provider.state_dict()
            if self._recorder is not None:
                # An in-flight trace rides full snapshots so a resumed
                # session keeps recording where it left off.  Tenant-scoped
                # snapshots skip it: a service-wide recorder is shared
                # state, and hibernation must not fork it per tenant.
                state["obs"] = self._recorder.state_dict()
        return state

    def load_state(self, state: dict) -> None:
        """Replace cache/log/clock/limiter state with a captured one.

        Args:
            state: Output of :meth:`state_dict`.

        Raises:
            SnapshotError: If the captured clock reads earlier than this
                interface's clock (simulated time cannot run backwards).
        """
        delta = float(state["clock_now"]) - self._clock.now()
        if delta < 0:
            raise SnapshotError(
                "snapshot clock reads earlier than this interface's clock; "
                "restore into a freshly constructed interface"
            )
        self._clock.advance(delta)
        self._known_private = set(state["known_private"])
        # Tenant-scoped snapshots (``state_dict(include_shared=False)``)
        # omit the shared cache/provider sections — the service restores
        # those once from its own sections, never per tenant.
        if "cache" in state:
            self._cache.load_state(state["cache"])
        self._log.load_state(state["log"])
        self._limiter.load_state(state["limiter"])
        self._latency_spent = float(state["latency_spent"])
        self._cache_hits = int(state["cache_hits"])
        self._cache_misses = int(state["cache_misses"])
        self._warm_users = frozenset(state["warm_users"])
        self._warm_hits = int(state["warm_hits"])
        if "provider" in state:
            self._provider.load_state(state["provider"])
        obs = state.get("obs")
        if obs is not None:
            recorder = self._recorder if self._recorder is not None else TraceRecorder()
            recorder.load_state(obs)
            self._recorder = recorder
            # load_state rebuilt every instrument, so the pre-bound cached-step
            # counters point at dead objects until re-bound here.
            self._obs_hit_counter = recorder.metrics.counter(self._obs_hits)
            self._obs_miss_counter = recorder.metrics.counter(self._obs_misses)
            self._obs_rate_series = recorder.metrics.series(self._obs_hit_rate)
