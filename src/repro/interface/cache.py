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

#: First element of every response key: ``("resp", user)``.
_RESP = "resp"


class NeighborhoodCache:
    """Caches one ``q(v)`` response record per queried user.

    A response is stored as one plain tuple ``(seq, neighbors, attrs)``
    under one store key, so an eviction or expiry drops the whole
    response: a user is either fully cached or unknown, never a neighbor
    set without its attributes.

    Args:
        store: Backing key-value store (a fresh unbounded store by
            default).  Pass a capacity-bounded store for bounded-memory
            crawls — the capacity then counts cached users, and an
            evicted user simply reads as unknown again.
        ttl: Optional freshness bound in store-clock seconds applied to
            every response: a neighborhood older than ``ttl`` expires and
            the user reads as unknown (real crawls re-fetch stale
            neighborhoods; §II-B unique-query cost is unaffected — the
            query log, not the cache, owns billing).

    Raises:
        DataStoreError: On a non-positive ``ttl``.
    """

    def __init__(self, store: Optional[KeyValueStore] = None, ttl: Optional[float] = None) -> None:
        if ttl is not None and ttl <= 0:
            raise DataStoreError("cache ttl must be positive or None")
        self._store = store if store is not None else KeyValueStore()
        self._ttl = ttl

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
        record = (seq_tuple, frozenset(neighbors), dict(attributes))
        self._store.set((_RESP, user), record, ttl=self._ttl)

    def preload(self, neighborhoods: Dict[Node, Tuple[Sequence[Node], Dict]]) -> int:
        """Put every ``{user: (neighbor_seq, attributes)}`` row not cached yet.

        A live entry is fresher than a recorded one, so it is kept.
        Returns the number of rows put.
        """
        count = 0
        for user, (seq, attrs) in neighborhoods.items():
            if not self.has(user):
                self.put(user, frozenset(seq), attrs, seq=seq)
                count += 1
        return count

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
        return self._store.contains((_RESP, user))

    def neighbors(self, user: Node) -> Optional[FrozenSet[Node]]:
        """Cached neighbor set, or ``None`` if not cached."""
        record = self._store.get((_RESP, user))
        return None if record is None else record[1]

    def neighbor_seq(self, user: Node) -> Optional[Tuple[Node, ...]]:
        """Cached stable neighbor ordering, or ``None`` if not cached."""
        record = self._store.get((_RESP, user))
        return None if record is None else record[0]

    def _record(self, user: Node) -> Optional[Tuple[Tuple[Node, ...], FrozenSet[Node], Dict]]:
        # The whole ``(seq, neighbors, attrs)`` record, uncopied: the
        # interface's full-response read after ``neighbors`` answered.
        return self._store.get((_RESP, user))

    #: The cached-step read behind ``RestrictedSocialAPI.fetch_seq``: one
    #: store read, no response rebuild.  Its own name keeps those lookups
    #: apart from other sequence reads in profiles.
    hot_seq = neighbor_seq

    def attributes(self, user: Node) -> Optional[Dict]:
        """Cached attribute dict (copy), or ``None`` if not cached."""
        record = self._store.get((_RESP, user))
        return None if record is None else dict(record[2])

    def degree(self, user: Node) -> Optional[int]:
        """Cached degree of ``user`` — the Theorem 5 side channel.

        Returns ``None`` when the user has never been queried; never issues
        a query itself.
        """
        record = self._store.get((_RESP, user))
        return None if record is None else len(record[1])

    def known_users(self) -> frozenset:
        """All user ids with cached responses."""
        return frozenset(key[1] for key in self._store.keys() if isinstance(key, tuple) and key[0] == _RESP)

    def known_count(self) -> int:
        """Number of users with live cached responses (expired excluded)."""
        return sum(1 for key in self._store.keys() if isinstance(key, tuple) and key[0] == _RESP)

    def clear(self) -> None:
        """Drop everything."""
        self._store.clear()

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
