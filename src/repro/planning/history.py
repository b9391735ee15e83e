"""Step statistics over the crawl's history: how often chains walk for free.

The crawl's history lives in the shared
:class:`~repro.interface.cache.NeighborhoodCache`: every billed ``q(v)``
response is cached there, and §II-B makes re-reading it free.  What the
planning layer adds on top is the accounting that makes that reuse
visible — how often chains step through known territory instead of
fetching, and which fleet regions the known territory concentrates in.

:class:`HistoryIndex` holds no reference to the cache: membership is
always the cache's own ``has`` check, so LRU eviction and TTL expiry can
never leave a stale copy here.  What the index owns is plain counters,
safe to snapshot and resume independently of the cache's contents.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Optional

Node = Hashable


class HistoryIndex:
    """Cache-first versus fetched step counters, per fleet region.

    Args:
        shard_of: Optional user→region map (typically
            :meth:`~repro.fleet.provider.ShardedProvider.shard_of`), used
            to attribute step statistics to fleet regions.  ``None``
            books everything under region ``0``.
    """

    def __init__(self, shard_of: Optional[Callable[[Node], int]] = None) -> None:
        self._shard_of = shard_of
        self._known_steps = 0
        self._unknown_steps = 0
        self._region_known: Dict[int, int] = {}
        self._region_unknown: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # step accounting (fed by the scheduler's planning hooks)
    # ------------------------------------------------------------------
    def record_step(self, node: Node, known: bool) -> None:
        """Book one committed walk step onto ``node``.

        Args:
            node: The node the step landed on.
            known: Whether the step advanced through history (no provider
                dispatch — a cache-first step) or had to fetch.
        """
        region = self._shard_of(node) if self._shard_of is not None else 0
        if known:
            self._known_steps += 1
            self._region_known[region] = self._region_known.get(region, 0) + 1
        else:
            self._unknown_steps += 1
            self._region_unknown[region] = self._region_unknown.get(region, 0) + 1

    @property
    def known_steps(self) -> int:
        """Steps that advanced through already-known neighborhoods."""
        return self._known_steps

    @property
    def unknown_steps(self) -> int:
        """Steps that had to dispatch a provider fetch."""
        return self._unknown_steps

    def region_stats(self) -> Dict[int, Dict[str, int]]:
        """Per-region step breakdown: ``{region: {"known": n, "unknown": n}}``."""
        regions = sorted(set(self._region_known) | set(self._region_unknown))
        return {
            region: {
                "known": self._region_known.get(region, 0),
                "unknown": self._region_unknown.get(region, 0),
            }
            for region in regions
        }

    def hit_rate(self) -> float:
        """Fraction of recorded steps that were cache-first (0.0 when none)."""
        total = self._known_steps + self._unknown_steps
        return self._known_steps / total if total else 0.0

    # ------------------------------------------------------------------
    # snapshot support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serializable step statistics (the cache snapshots itself)."""
        return {
            "known_steps": self._known_steps,
            "unknown_steps": self._unknown_steps,
            "region_known": dict(self._region_known),
            "region_unknown": dict(self._region_unknown),
        }

    def load_state(self, state: dict) -> None:
        """Restore statistics captured by :meth:`state_dict`.

        Args:
            state: Output of :meth:`state_dict`.  The per-node visit
                counts older builds also stored are ignored.
        """
        self._known_steps = int(state["known_steps"])
        self._unknown_steps = int(state["unknown_steps"])
        self._region_known = {int(r): int(c) for r, c in state["region_known"].items()}
        self._region_unknown = {int(r): int(c) for r, c in state["region_unknown"].items()}
