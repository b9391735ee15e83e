"""Deterministic consistent-hash routing of users onto fleet shards.

Real OSN backends partition users across API shards; which shard owns a
user is sticky (it tracks the user id, not the request), and adding
capacity moves only a small fraction of users.  :class:`ShardRouter`
reproduces both properties with a classic consistent-hash ring:

* every shard owns a set of seeded virtual points on a 32-bit ring;
* a user maps to the shard owning the first point at or after the user's
  own hash (wrapping around);
* shard *weights* scale the number of virtual points, so a "hot" shard
  can own a configurable share of the key space — the skew axis the
  fleet experiments sweep.

Hashes are anchored on :func:`zlib.crc32` over the snapshot codec's
canonical encoding of the user id (never Python's per-process salted
``hash``), so the user→shard map is a pure function of
``(seed, num_shards, weights, points_per_shard)`` — identical across
processes, machines, and snapshot round-trips.
"""

from __future__ import annotations

import bisect
import zlib
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.datastore.snapshot import canonical_key
from repro.errors import SnapshotError

Node = Hashable

#: Default virtual points per unit of shard weight.  Enough that a ring of
#: a few shards balances to within a few percent of its weights.
DEFAULT_POINTS_PER_SHARD = 96


def _stable_hash(text: str) -> int:
    """Process-stable 32-bit hash of ``text``."""
    return zlib.crc32(text.encode("utf-8"))


class ShardRouter:
    """Seeded consistent-hash map from user ids to shard indices.

    Args:
        num_shards: Number of shards (>= 1).
        seed: Master seed; the entire ring derives from it.
        weights: Optional per-shard weights (positive).  A shard of weight
            ``w`` owns ``round(w * points_per_shard)`` ring points and
            therefore roughly ``w / sum(weights)`` of the key space.
            Defaults to uniform.
        points_per_shard: Virtual ring points per unit weight.

    Raises:
        ValueError: On non-positive shard counts, weights, or point counts,
            or a weights sequence of the wrong length.

    Example:
        >>> router = ShardRouter(4, seed=7)
        >>> router.shard_of("alice") == router.shard_of("alice")
        True
        >>> 0 <= router.shard_of(12345) < 4
        True
    """

    def __init__(
        self,
        num_shards: int,
        seed: int = 0,
        weights: Optional[Sequence[float]] = None,
        points_per_shard: int = DEFAULT_POINTS_PER_SHARD,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be positive")
        if points_per_shard < 1:
            raise ValueError("points_per_shard must be positive")
        if weights is None:
            weights = (1.0,) * num_shards
        else:
            weights = tuple(float(w) for w in weights)
            if len(weights) != num_shards:
                raise ValueError(f"got {len(weights)} weights for {num_shards} shards")
            if any(w <= 0 for w in weights):
                raise ValueError("shard weights must be positive")
        self._num_shards = int(num_shards)
        self._seed = int(seed)
        self._weights: Tuple[float, ...] = weights
        self._points_per_shard = int(points_per_shard)

        ring: List[Tuple[int, int]] = []
        for shard in range(self._num_shards):
            points = max(1, round(self._weights[shard] * self._points_per_shard))
            for v in range(points):
                ring.append((_stable_hash(f"{self._seed}:shard:{shard}:{v}"), shard))
        # Sorting on (point, shard) makes hash ties deterministic too.
        ring.sort()
        self._ring = ring
        self._points = [p for p, _ in ring]
        # user -> shard.  The ring never changes (``with_shards`` builds a
        # new router), so answers stay valid; derived, so not snapshotted.
        self._shard_memo: Dict[Node, int] = {}

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def shard_of(self, user: Node) -> int:
        """The shard index owning ``user`` (stable across processes).

        Memoized per user id: the canonical encoding and hash run once.
        Ids that compare equal (``1``, ``1.0``, ``True``) share an entry,
        as they share a cache entry and a graph node everywhere else.
        """
        shard = self._shard_memo.get(user)
        if shard is None:
            shard = self._shard_memo[user] = self._hash_shard(user)
        return shard

    def _hash_shard(self, user: Node) -> int:
        """Uncached :meth:`shard_of`: walk the ring from ``user``'s hash."""
        h = _stable_hash(f"{self._seed}:user:{canonical_key(user)}")
        idx = bisect.bisect_left(self._points, h)
        if idx == len(self._points):  # wrap past the last ring point
            idx = 0
        return self._ring[idx][1]

    @property
    def num_shards(self) -> int:
        """Number of shards the ring routes onto."""
        return self._num_shards

    @property
    def seed(self) -> int:
        """The master seed the ring derives from."""
        return self._seed

    @property
    def weights(self) -> Tuple[float, ...]:
        """Per-shard weights (uniform by default)."""
        return self._weights

    def with_shards(self, num_shards: int, weights: Optional[Sequence[float]] = None) -> "ShardRouter":
        """A rebalanced router: same seed and point density, new shard set.

        Consistent hashing keeps the surviving shards' ring points in
        place, so only keys whose owning point belongs to an added or
        removed shard move — roughly the added/removed share of the key
        space, never a full reshuffle.
        """
        return ShardRouter(
            num_shards,
            seed=self._seed,
            weights=weights,
            points_per_shard=self._points_per_shard,
        )

    def load_share(self, users: Sequence[Node]) -> List[float]:
        """Fraction of ``users`` routed to each shard (diagnostics)."""
        counts = [0] * self._num_shards
        for user in users:
            counts[self.shard_of(user)] += 1
        total = max(1, len(users))
        return [c / total for c in counts]

    # ------------------------------------------------------------------
    # snapshot support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """The ring's defining configuration (the map itself is derived).

        The router is a pure function of this configuration, so a snapshot
        carries the configuration rather than the expanded map; restoring
        verifies the resuming process rebuilt an identical ring.
        """
        return {
            "num_shards": self._num_shards,
            "seed": self._seed,
            "weights": self._weights,
            "points_per_shard": self._points_per_shard,
        }

    def load_state(self, state: dict) -> None:
        """Verify this router matches a captured configuration.

        Raises:
            SnapshotError: If any ring parameter differs — a resumed crawl
                over a differently routed fleet would silently re-route
                users mid-run.
        """
        mine = self.state_dict()
        theirs = {
            "num_shards": int(state["num_shards"]),
            "seed": int(state["seed"]),
            "weights": tuple(float(w) for w in state["weights"]),
            "points_per_shard": int(state["points_per_shard"]),
        }
        if mine != theirs:
            raise SnapshotError(
                f"snapshot was routed by {theirs}, but this fleet routes by {mine}; "
                "rebuild the fleet with the captured router configuration"
            )
