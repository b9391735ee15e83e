"""Sampler-side neighborhood cache backed by the key-value store.

Every billed ``q(v)`` response — the neighbor list plus profile attributes
— is written here, so repeat queries are served locally for free (the
paper's query-cost model) and the MTO extension criterion (Theorem 5) can
look up *previously seen degrees* without spending queries.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Optional, Sequence, Tuple

from repro.datastore.kv import KeyValueStore
from repro.errors import DataStoreError

Node = Hashable


class NeighborhoodCache:
    """Caches neighbor sets and profile attributes per queried user.

    Args:
        store: Backing key-value store (a fresh unbounded store by
            default).  Pass a capacity-bounded store for bounded-memory
            crawls — evicted users simply read as unknown again.
        ttl: Optional freshness bound in store-clock seconds applied to
            every entry: a neighborhood older than ``ttl`` expires and
            the user reads as unknown (real crawls re-fetch stale
            neighborhoods; §II-B unique-query cost is unaffected — the
            query log, not the cache, owns billing).

    Raises:
        DataStoreError: On a non-positive ``ttl``.
    """

    def __init__(
        self, store: Optional[KeyValueStore] = None, ttl: Optional[float] = None
    ) -> None:
        if ttl is not None and ttl <= 0:
            raise DataStoreError("cache ttl must be positive or None")
        self._store = store if store is not None else KeyValueStore()
        self._ttl = ttl
        # Hot lane: user -> stable neighbor tuple, a plain-dict mirror of
        # the store's "seq" entries for the walk engines' cached-step fast
        # path.  Only coherent when nothing can silently drop entries —
        # no TTL and an unbounded store — so it is disabled otherwise.
        # Foreign writes through a *shared* store (a second cache object
        # over the same KeyValueStore) are detected via the store's write
        # version and flush the lane.
        self._hot: Dict[Node, Tuple[Node, ...]] = {}
        self._hot_enabled = ttl is None and self._store.capacity is None
        self._hot_version = self._store.version

    @staticmethod
    def _nbr_key(user: Node) -> tuple:
        return ("nbrs", user)

    @staticmethod
    def _seq_key(user: Node) -> tuple:
        return ("seq", user)

    @staticmethod
    def _attr_key(user: Node) -> tuple:
        return ("attrs", user)

    def put(
        self,
        user: Node,
        neighbors: FrozenSet[Node],
        attributes: Dict,
        seq: Optional[Sequence[Node]] = None,
    ) -> None:
        """Store one query response.

        Args:
            user: The queried user id.
            neighbors: The neighbor set.
            seq: Stable ordering of ``neighbors`` for O(1) uniform draws;
                derived from the set when omitted (legacy callers).
            attributes: Profile attributes.
        """
        seq_tuple = tuple(seq) if seq is not None else tuple(neighbors)
        version_before = self._store.version
        self._store.set(self._nbr_key(user), frozenset(neighbors), ttl=self._ttl)
        self._store.set(self._seq_key(user), seq_tuple, ttl=self._ttl)
        self._store.set(self._attr_key(user), dict(attributes), ttl=self._ttl)
        if self._hot_enabled:
            if version_before != self._hot_version:
                # A foreign writer touched the shared store since the lane
                # last synced; drop everything it might have invalidated.
                self._hot.clear()
            self._hot[user] = seq_tuple
            self._hot_version = self._store.version

    def hot_seq(self, user: Node) -> Optional[Tuple[Node, ...]]:
        """Hot-lane read: the stable neighbor tuple, or ``None``.

        The walk engines' cached-step fast path — one plain-dict lookup
        instead of three store reads plus a response rebuild.  Answers
        ``None`` (callers then take the full :meth:`neighbor_seq` /
        interface path) whenever the lane cannot guarantee coherence:
        TTL'd or capacity-bounded stores, a foreign write through a
        shared store since the last sync, or simply a user this cache
        object has not mirrored yet.  A miss for a user the *store* does
        hold repopulates the lane from the store.
        """
        if not self._hot_enabled:
            return None
        if self._store.version != self._hot_version:
            self._hot.clear()
            self._hot_version = self._store.version
        seq = self._hot.get(user)
        if seq is not None:
            return seq
        # Shared-store entries written by another cache object (or lane
        # flushes) land here: re-mirror from the store once, then serve
        # from the lane.
        stored = self.neighbor_seq(user)
        if stored is not None:
            self._hot[user] = stored
        return stored

    @property
    def retention_version(self) -> Optional[int]:
        """Changes whenever a cached response may have been dropped.

        Readers that keep state derived from earlier reads (a walk's
        replay cursor) compare it across calls: while it reads the same
        non-``None`` value, every response seen before is still cached,
        unchanged.  Any drop through this cache or another one sharing
        the store (``clear``, ``load_state``, a delete, an overwrite)
        moves it.  ``None`` when drops can happen unseen: a TTL'd entry
        is stored, or the store is capacity-bounded.
        """
        return self._store.retention_version

    def has(self, user: Node) -> bool:
        """Whether ``user``'s response is cached."""
        return self._store.contains(self._nbr_key(user))

    def neighbors(self, user: Node) -> Optional[FrozenSet[Node]]:
        """Cached neighbor set, or ``None`` if not cached."""
        value = self._store.get(self._nbr_key(user))
        return value if isinstance(value, frozenset) else None

    def neighbor_seq(self, user: Node) -> Optional[Tuple[Node, ...]]:
        """Cached stable neighbor ordering, or ``None`` if not cached."""
        value = self._store.get(self._seq_key(user))
        return value if isinstance(value, tuple) else None

    def attributes(self, user: Node) -> Optional[Dict]:
        """Cached attribute dict (copy), or ``None`` if not cached."""
        value = self._store.get(self._attr_key(user))
        return dict(value) if isinstance(value, dict) else None

    def degree(self, user: Node) -> Optional[int]:
        """Cached degree of ``user`` — the Theorem 5 side channel.

        Returns ``None`` when the user has never been queried; never issues
        a query itself.
        """
        nbrs = self.neighbors(user)
        return len(nbrs) if nbrs is not None else None

    def known_users(self) -> frozenset:
        """All user ids with cached responses."""
        return frozenset(
            key[1] for key in self._store.keys() if isinstance(key, tuple) and key[0] == "nbrs"
        )

    def known_count(self) -> int:
        """Number of users with live cached responses (expired excluded)."""
        return sum(
            1 for key in self._store.keys() if isinstance(key, tuple) and key[0] == "nbrs"
        )

    def clear(self) -> None:
        """Drop everything."""
        self._store.clear()
        self._hot.clear()
        self._hot_version = self._store.version

    # ------------------------------------------------------------------
    # snapshot support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serializable state (delegates to the backing store)."""
        return {"store": self._store.state_dict()}

    def load_state(self, state: dict) -> None:
        """Replace cached responses with a captured state.

        Args:
            state: Output of :meth:`state_dict`.
        """
        self._store.load_state(state["store"])
        self._hot.clear()
        self._hot_version = self._store.version
