"""Pluggable social-network providers: the raw data source under ``q(v)``.

The paper's interface model (§II-A) has two distinct responsibilities that
were historically welded together inside :class:`RestrictedSocialAPI`:

* the **provider** — whoever actually owns the data and answers a fetch
  for one user's neighbor list and profile, with whatever latency and
  reliability a real OSN backend exhibits;
* the **interface** — the §II-B economics on top: unique-query billing,
  the sampler-side cache, rate limits, budgets.

This module is the provider half.  :class:`SocialProvider` is the
protocol; the interface keeps all billing semantics unchanged over any
implementation:

* :class:`InMemoryGraphProvider` — the historical behavior: an in-memory
  graph plus optional profile documents, zero latency, optional private
  (query-refusing) users;
* :class:`LatencyModelProvider` — wraps another provider and attaches a
  deterministic, seeded per-user response latency drawn from a constant,
  uniform, or heavy-tailed distribution.  The latency a user's fetch
  incurs is a stable function of (seed, user), independent of fetch
  order, so multi-chain schedules stay reproducible;
* :class:`FlakyProvider` — wraps another provider with seeded transient
  timeouts.  Failed attempts are retried internally up to a bound, each
  timed-out attempt contributing its timeout latency to the response;
  retry accounting (attempts / timeouts / abandoned fetches) is exposed
  for robustness experiments.

The follow-up papers "Walk, Not Wait" (async, non-blocking queries) and
"Leveraging History" (reusing responses across chains) both start from
exactly this split: once latency and flakiness are provider properties,
an event-driven scheduler (:mod:`repro.walks.scheduler`) can overlap many
chains' in-flight queries instead of stalling every chain on the slowest
response.
"""

from __future__ import annotations

import abc
import dataclasses
import random
import zlib
from typing import Dict, Hashable, Optional, Tuple

from repro.datastore.documents import DocumentStore
from repro.datastore.snapshot import canonical_key
from repro.errors import PrivateUserError, ProviderTimeoutError, UnknownUserError
from repro.graph.adjacency import Graph
from repro.utils.rng import pack_state, unpack_state

Node = Hashable

#: Latency distributions understood by :class:`LatencyModelProvider`.
LATENCY_DISTRIBUTIONS = ("constant", "uniform", "heavy_tailed")


@dataclasses.dataclass(frozen=True, init=False)
class ProviderFetch:
    """One raw provider response, before any interface-side accounting.

    A frozen dataclass whose ``__init__`` fills the instance dict in
    place: each provider layer builds its own response on every fetch.

    Attributes:
        user: The fetched user id.
        neighbor_seq: The user's neighbors in the provider's stable order.
        attributes: Profile attribute payload (may be empty).
        latency: Simulated seconds this response took to arrive, including
            any retried/timed-out attempts.  Zero for in-memory providers.
        attempts: Fetch attempts consumed (1 unless a flaky layer retried).
        wasted_latency: The share of ``latency`` burnt on failed attempts
            (retry backoff); zero unless a flaky layer retried.  The
            causal profiler splits ``latency`` into useful shard time and
            retry backoff with this.
    """

    user: Node
    neighbor_seq: Tuple[Node, ...]
    attributes: Dict
    latency: float = 0.0
    attempts: int = 1
    wasted_latency: float = 0.0

    def __init__(
        self,
        user: Node,
        neighbor_seq: Tuple[Node, ...],
        attributes: Dict,
        latency: float = 0.0,
        attempts: int = 1,
        wasted_latency: float = 0.0,
    ) -> None:
        fields = self.__dict__
        fields["user"] = user
        fields["neighbor_seq"] = neighbor_seq
        fields["attributes"] = attributes
        fields["latency"] = latency
        fields["attempts"] = attempts
        fields["wasted_latency"] = wasted_latency


class SocialProvider(abc.ABC):
    """Protocol for the raw data source behind the restrictive interface.

    A provider answers existence checks and per-user fetches, and (as real
    OSNs do — paper footnote 4) publishes its total user count.  It knows
    nothing about billing, caching, budgets, or rate limits: those are the
    interface's (§II-B) and remain in
    :class:`~repro.interface.api.RestrictedSocialAPI` unchanged.
    """

    @abc.abstractmethod
    def has_user(self, user: Node) -> bool:
        """Whether ``user`` exists in the network."""

    @abc.abstractmethod
    def fetch(self, user: Node) -> ProviderFetch:
        """Fetch ``user``'s neighbor list and attributes.

        Raises:
            UnknownUserError: If the user does not exist.
            PrivateUserError: If the user refuses individual queries.
            ProviderTimeoutError: If a flaky layer exhausted its retries.
        """

    @abc.abstractmethod
    def user_count(self) -> int:
        """Published total user count (the one global the paper permits)."""

    @property
    def may_refuse(self) -> bool:
        """Whether any user of this provider can refuse queries."""
        return False

    # ------------------------------------------------------------------
    # snapshot support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serializable mutable provider state; stateless providers: ``{}``.

        The *configuration* (graph, distributions, rates) is environment
        and is rebuilt by the restoring process; only state that evolves
        with the crawl (e.g. a flaky layer's RNG position) belongs here,
        so a resumed run replays the same failures bit-for-bit.
        """
        return {}

    def load_state(self, state: dict) -> None:
        """Restore a captured state (no-op for stateless providers)."""


class InMemoryGraphProvider(SocialProvider):
    """The historical data source: an in-memory graph, zero latency.

    Args:
        graph: The hidden social-network topology (held by reference).
        profiles: Optional document store of user attributes.
        inaccessible: Optional set of user ids whose profiles are private:
            they appear in neighbor lists but fetching them raises
            :class:`PrivateUserError` — the failure-injection surface the
            interface bills once and caches (§II-B refusal semantics).
    """

    def __init__(
        self,
        graph: Graph,
        profiles: Optional[DocumentStore] = None,
        inaccessible: Optional[frozenset] = None,
    ) -> None:
        self._graph = graph
        self._profiles = profiles
        self._inaccessible = frozenset(inaccessible) if inaccessible else frozenset()

    @property
    def graph(self) -> Graph:
        """The backing topology (experiments must not mutate it mid-run)."""
        return self._graph

    def has_user(self, user: Node) -> bool:
        return self._graph.has_node(user)

    def fetch(self, user: Node) -> ProviderFetch:
        if not self._graph.has_node(user):
            raise UnknownUserError(user)
        if user in self._inaccessible:
            raise PrivateUserError(user)
        attrs: Dict = {}
        if self._profiles is not None:
            doc = self._profiles.get_or_none(user)
            if doc is not None:
                attrs = doc
        return ProviderFetch(
            user=user,
            neighbor_seq=self._graph.neighbors_seq(user),
            attributes=attrs,
        )

    def user_count(self) -> int:
        return self._graph.num_nodes

    @property
    def may_refuse(self) -> bool:
        return bool(self._inaccessible)


def _stable_user_seed(seed: int, user: Node) -> int:
    """A process-stable 32-bit seed mixing ``seed`` with ``user``.

    Python's ``hash`` is salted per process for strings, so the per-user
    latency stream is anchored on the snapshot codec's canonical encoding
    instead — identical across runs and machines for any snapshotable id.
    """
    key = f"{seed}:{canonical_key(user)}"
    return zlib.crc32(key.encode("utf-8"))


class LatencyModelProvider(SocialProvider):
    """Attach deterministic seeded per-user latency to another provider.

    Each user's response latency is drawn once from the configured
    distribution using a stream seeded by (seed, user id) — stable across
    processes and independent of fetch order — then reused for every fetch
    of that user.  Per-user (rather than per-call) latency models the real
    dominant effect: response time tracks the user's data size and shard
    placement, so some users are consistently slow.

    Args:
        inner: The wrapped provider, or a bare :class:`Graph` (wrapped in
            a zero-latency :class:`InMemoryGraphProvider`).
        distribution: One of :data:`LATENCY_DISTRIBUTIONS` —
            ``"constant"`` (every user takes ``scale`` seconds),
            ``"uniform"`` (U(0, 2·scale), mean ``scale``), or
            ``"heavy_tailed"`` (Pareto with shape ``alpha``, scaled by
            ``scale`` — a few users are pathologically slow, the regime
            where event-driven scheduling wins).
        scale: Latency scale in simulated seconds.
        seed: Master seed for the per-user draws.
        alpha: Pareto shape for ``"heavy_tailed"`` (smaller = heavier).

    Raises:
        ValueError: On unknown distributions or non-positive parameters.
    """

    def __init__(
        self,
        inner: "SocialProvider | Graph",
        distribution: str = "heavy_tailed",
        scale: float = 1.0,
        seed: int = 0,
        alpha: float = 1.5,
    ) -> None:
        if distribution not in LATENCY_DISTRIBUTIONS:
            raise ValueError(
                f"unknown latency distribution {distribution!r}; expected one of {LATENCY_DISTRIBUTIONS}"
            )
        if scale < 0:
            raise ValueError("scale must be non-negative")
        if alpha <= 1.0:
            raise ValueError("alpha must exceed 1.0 (finite-mean Pareto)")
        self._inner = inner if isinstance(inner, SocialProvider) else InMemoryGraphProvider(inner)
        self._distribution = distribution
        self._scale = float(scale)
        self._seed = int(seed)
        self._alpha = float(alpha)
        # user -> drawn latency; pure function of (seed, user), memoized.
        self._drawn: Dict[Node, float] = {}

    @property
    def inner(self) -> SocialProvider:
        """The wrapped provider."""
        return self._inner

    @property
    def distribution(self) -> str:
        """The configured latency distribution name."""
        return self._distribution

    def latency_of(self, user: Node) -> float:
        """The deterministic latency every fetch of ``user`` incurs."""
        latency = self._drawn.get(user)
        if latency is None:
            rng = random.Random(_stable_user_seed(self._seed, user))
            if self._distribution == "constant":
                latency = self._scale
            elif self._distribution == "uniform":
                latency = rng.uniform(0.0, 2.0 * self._scale)
            else:  # heavy_tailed
                latency = self._scale * rng.paretovariate(self._alpha)
            self._drawn[user] = latency
        return latency

    def has_user(self, user: Node) -> bool:
        return self._inner.has_user(user)

    def fetch(self, user: Node) -> ProviderFetch:
        fetched = self._inner.fetch(user)
        return ProviderFetch(
            user=fetched.user,
            neighbor_seq=fetched.neighbor_seq,
            attributes=fetched.attributes,
            latency=fetched.latency + self.latency_of(user),
            attempts=fetched.attempts,
            wasted_latency=fetched.wasted_latency,
        )

    def user_count(self) -> int:
        return self._inner.user_count()

    @property
    def may_refuse(self) -> bool:
        return self._inner.may_refuse

    def state_dict(self) -> dict:
        """Delegates to the wrapped provider (the draws are re-derivable)."""
        return {"inner": self._inner.state_dict()}

    def load_state(self, state: dict) -> None:
        """Restore the wrapped provider's state."""
        self._inner.load_state(state.get("inner", {}))


@dataclasses.dataclass(frozen=True)
class RetryStats:
    """Accounting of a :class:`FlakyProvider`'s fetch attempts.

    Attributes:
        fetches: Logical fetches requested by the interface.
        attempts: Physical attempts issued (>= fetches when retries fired).
        timeouts: Attempts that timed out and were retried or abandoned.
        abandoned: Fetches that exhausted every attempt and raised
            :class:`ProviderTimeoutError`.
    """

    fetches: int
    attempts: int
    timeouts: int
    abandoned: int


class FlakyProvider(SocialProvider):
    """Seeded transient timeouts with bounded in-provider retries.

    Real crawls see dropped connections and 5xx responses constantly; the
    standard client behavior is to retry with a timeout.  This layer
    simulates that: each attempt times out with probability
    ``failure_rate`` (drawn from a seeded stream, so runs are
    reproducible); timed-out attempts cost ``timeout_latency`` simulated
    seconds each and are retried up to ``max_attempts`` in total before
    the fetch is abandoned with :class:`ProviderTimeoutError`.  Retry
    latency reaches the simulated clock only through a *completed*
    response; an abandoned fetch bills neither cost nor time (the wasted
    seconds ride on the raised error's ``wasted_latency`` for callers
    that catch and keep their own books).

    Permanent refusals (private users) are the wrapped provider's business
    and propagate immediately on the first non-timed-out attempt.

    Args:
        inner: The wrapped provider, or a bare :class:`Graph`.
        failure_rate: Per-attempt timeout probability in [0, 1).
        seed: Seed for the failure stream.
        max_attempts: Attempts per fetch before abandoning.
        timeout_latency: Simulated seconds one timed-out attempt costs.

    Raises:
        ValueError: On out-of-range parameters.
    """

    def __init__(
        self,
        inner: "SocialProvider | Graph",
        failure_rate: float = 0.1,
        seed: int = 0,
        max_attempts: int = 8,
        timeout_latency: float = 5.0,
    ) -> None:
        if not 0.0 <= failure_rate < 1.0:
            raise ValueError("failure_rate must be in [0, 1)")
        if max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        if timeout_latency < 0:
            raise ValueError("timeout_latency must be non-negative")
        self._inner = inner if isinstance(inner, SocialProvider) else InMemoryGraphProvider(inner)
        self._failure_rate = float(failure_rate)
        self._max_attempts = int(max_attempts)
        self._timeout_latency = float(timeout_latency)
        self._rng = random.Random(seed)
        self._fetches = 0
        self._attempts = 0
        self._timeouts = 0
        self._abandoned = 0

    @property
    def inner(self) -> SocialProvider:
        """The wrapped provider."""
        return self._inner

    @property
    def retry_stats(self) -> RetryStats:
        """Retry accounting so far."""
        return RetryStats(
            fetches=self._fetches,
            attempts=self._attempts,
            timeouts=self._timeouts,
            abandoned=self._abandoned,
        )

    def has_user(self, user: Node) -> bool:
        return self._inner.has_user(user)

    def fetch(self, user: Node) -> ProviderFetch:
        self._fetches += 1
        wasted = 0.0
        for attempt in range(1, self._max_attempts + 1):
            self._attempts += 1
            if self._rng.random() < self._failure_rate:
                self._timeouts += 1
                wasted += self._timeout_latency
                continue
            fetched = self._inner.fetch(user)  # refusals propagate un-retried
            return ProviderFetch(
                user=fetched.user,
                neighbor_seq=fetched.neighbor_seq,
                attributes=fetched.attributes,
                latency=fetched.latency + wasted,
                attempts=attempt,
                wasted_latency=fetched.wasted_latency + wasted,
            )
        self._abandoned += 1
        raise ProviderTimeoutError(user, self._max_attempts, wasted_latency=wasted)

    def user_count(self) -> int:
        return self._inner.user_count()

    @property
    def may_refuse(self) -> bool:
        return self._inner.may_refuse

    def state_dict(self) -> dict:
        """RNG position + counters: a resumed run replays the same failures."""
        return {
            "rng": pack_state(self._rng.getstate()),
            "fetches": self._fetches,
            "attempts": self._attempts,
            "timeouts": self._timeouts,
            "abandoned": self._abandoned,
            "inner": self._inner.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        """Restore the failure stream and counters captured by ``state_dict``."""
        self._rng.setstate(unpack_state(state["rng"]))
        self._fetches = int(state["fetches"])
        self._attempts = int(state["attempts"])
        self._timeouts = int(state["timeouts"])
        self._abandoned = int(state["abandoned"])
        self._inner.load_state(state.get("inner", {}))
