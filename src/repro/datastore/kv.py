"""In-memory key-value store (the Redis stand-in).

Supports the subset of semantics the sampler needs: get/set/delete,
optional per-key TTL against an injectable clock (the interface layer runs
on simulated time), and an optional LRU capacity bound so memory stays
bounded during very long crawls.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Hashable, Iterator, Optional

from repro.errors import DataStoreError


class KeyValueStore:
    """String/hashable-keyed value store with TTL and LRU eviction.

    Args:
        capacity: Maximum number of live keys; ``None`` for unbounded.  When
            full, the least-recently-used key is evicted (Redis
            ``allkeys-lru`` policy).
        clock: Zero-argument callable returning the current time in seconds;
            defaults to a logical clock that only advances via
            :meth:`advance`.  Injectable so TTL tests and the simulated
            interface control time explicitly.

    Example:
        >>> kv = KeyValueStore()
        >>> kv.set("user:1:neighbors", [2, 3])
        >>> kv.get("user:1:neighbors")
        [2, 3]
    """

    def __init__(
        self,
        capacity: Optional[int] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise DataStoreError("capacity must be positive or None")
        self._capacity = capacity
        self._data: "OrderedDict[Hashable, object]" = OrderedDict()
        self._expires: Dict[Hashable, float] = {}
        self._logical_now = 0.0
        self._clock = clock if clock is not None else self._logical_clock
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        # Bumped only by mutations that drop or replace a live value
        # (overwrite, delete, purge, eviction, clear, load_state): readers
        # that keep derived state across calls (a walk's replay cursor)
        # watch it through :attr:`retention_version`.
        self._dropped = 0

    def _logical_clock(self) -> float:
        return self._logical_now

    def advance(self, seconds: float) -> None:
        """Advance the built-in logical clock (no-op for injected clocks)."""
        if seconds < 0:
            raise DataStoreError("cannot advance time backwards")
        self._logical_now += seconds

    def _expired(self, key: Hashable) -> bool:
        deadline = self._expires.get(key)
        return deadline is not None and self._clock() >= deadline

    def _purge(self, key: Hashable) -> None:
        if key in self._data:
            del self._data[key]
            self._dropped += 1
        self._expires.pop(key, None)

    # ------------------------------------------------------------------
    def set(self, key: Hashable, value: object, ttl: Optional[float] = None) -> None:
        """Store ``value`` under ``key``.

        Args:
            key: Hashable key.
            value: Arbitrary value.
            ttl: Seconds until expiry (clock units); ``None`` for no expiry.

        Raises:
            DataStoreError: For non-positive TTLs.
        """
        if ttl is not None and ttl <= 0:
            raise DataStoreError("ttl must be positive or None")
        if key in self._data:
            self._data.move_to_end(key)
            self._dropped += 1
        self._data[key] = value
        if ttl is None:
            self._expires.pop(key, None)
        else:
            self._expires[key] = self._clock() + ttl
        if self._capacity is not None and len(self._data) > self._capacity:
            # Dead keys make room before any live key is sacrificed: an
            # expired entry still occupying a slot must not push a live
            # LRU entry out (and its purge is not billed as an eviction).
            # Only TTL'd keys can be dead, so scan _expires, not _data —
            # the common no-TTL workload keeps O(1) inserts.
            for stale in [k for k in self._expires if self._expired(k)]:
                self._purge(stale)
            while len(self._data) > self._capacity:
                evicted, _ = self._data.popitem(last=False)
                self._expires.pop(evicted, None)
                self._evictions += 1
                self._dropped += 1

    def get(self, key: Hashable, default: object = None) -> object:
        """Fetch the value for ``key`` or ``default`` if absent/expired."""
        if key in self._data and not self._expired(key):
            self._data.move_to_end(key)
            self._hits += 1
            return self._data[key]
        if key in self._data:  # present but expired
            self._purge(key)
        self._misses += 1
        return default

    def contains(self, key: Hashable) -> bool:
        """Whether ``key`` is live (present and unexpired). No LRU touch."""
        if key in self._data and not self._expired(key):
            return True
        if key in self._data:
            self._purge(key)
        return False

    def __contains__(self, key: Hashable) -> bool:
        return self.contains(key)

    def delete(self, key: Hashable) -> bool:
        """Remove ``key``; returns whether it was present (and unexpired)."""
        live = self.contains(key)
        self._purge(key)
        return live

    def keys(self) -> Iterator[Hashable]:
        """Iterate over live keys (expired keys are skipped, not purged)."""
        for key in list(self._data):
            if not self._expired(key):
                yield key

    def clear(self) -> None:
        """Drop all keys and reset hit/miss counters."""
        self._dropped += 1
        self._data.clear()
        self._expires.clear()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    # ------------------------------------------------------------------
    # snapshot support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serializable state: live entries (LRU order) + counters.

        TTLs are captured as *remaining* seconds relative to this store's
        clock, so a restore into a store whose clock reads differently
        (e.g. a fresh process starting at t=0) re-anchors every deadline
        correctly instead of comparing absolute times across clocks.
        Entries already expired at capture time are omitted — a snapshot
        can never carry a dead key forward.
        """
        now = self._clock()
        entries = []
        for key in self._data:  # OrderedDict: LRU order, oldest first
            deadline = self._expires.get(key)
            if deadline is not None and now >= deadline:
                continue  # expired: not part of the live state
            remaining = None if deadline is None else deadline - now
            entries.append((key, self._data[key], remaining))
        return {
            "entries": entries,
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
        }

    def load_state(self, state: dict) -> None:
        """Replace this store's contents with a captured state.

        Remaining TTLs are re-anchored to this store's *current* clock
        reading; entries whose remaining TTL is non-positive are dropped,
        so an expired key is never resurrected by a snapshot load (the
        capture already omits them, but a state held for a long time and
        restored late must not revive keys either).  The capacity bound of
        *this* store applies: if the state holds more live entries than
        fit, the least-recently-used prefix is discarded (counted as
        evictions, exactly as live inserts would be).

        Args:
            state: Output of :meth:`state_dict`.
        """
        self._dropped += 1
        self._data.clear()
        self._expires.clear()
        now = self._clock()
        for key, value, remaining in state["entries"]:
            if remaining is not None and remaining <= 0:
                continue
            self._data[key] = value
            if remaining is not None:
                self._expires[key] = now + remaining
        self._hits = int(state["hits"])
        self._misses = int(state["misses"])
        self._evictions = int(state["evictions"])
        if self._capacity is not None:
            while len(self._data) > self._capacity:
                evicted, _ = self._data.popitem(last=False)
                self._expires.pop(evicted, None)
                self._evictions += 1

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> Optional[int]:
        """The LRU capacity bound, or ``None`` when unbounded."""
        return self._capacity

    @property
    def retention_version(self) -> Optional[int]:
        """Counter of mutations that dropped or replaced a live value.

        While it reads the same, every value a reader saw is still stored
        unchanged.  ``None`` when that cannot be promised: a TTL'd key
        is present (it expires on the clock, with no mutation) or the
        store is capacity-bounded (any insert may evict).
        """
        if self._capacity is not None or self._expires:
            return None
        return self._dropped

    @property
    def hits(self) -> int:
        """Number of successful :meth:`get` calls."""
        return self._hits

    @property
    def misses(self) -> int:
        """Number of :meth:`get` calls that fell through to the default."""
        return self._misses

    @property
    def evictions(self) -> int:
        """Number of keys evicted by the LRU capacity bound."""
        return self._evictions
