"""Simple random walk — the paper's baseline sampler (Definition 1).

From the current node ``v``, hop to a uniformly random neighbor.  The
stationary distribution is ``π(v) = k_v / 2|E|``, so uniform-target
importance weights are ``1 / k_v``.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.walks.base import UNRESOLVED, RandomWalkSampler

Node = Hashable


class SimpleRandomWalk(RandomWalkSampler):
    """SRW sampler: one query per step, degree-proportional stationary.

    Example:
        >>> from repro.graph import Graph
        >>> from repro.interface import RestrictedSocialAPI
        >>> api = RestrictedSocialAPI(Graph([(0, 1), (1, 2), (2, 0)]))
        >>> walk = SimpleRandomWalk(api, start=0, seed=1)
        >>> walk.step() in (1, 2)
        True
    """

    def step(self) -> Node:
        """Hop to a uniform accessible neighbor of the current node.

        Private neighbors are redrawn around; when the entire
        neighborhood is private the walk holds in place (a
        self-transition) rather than dying.  On private-free networks the
        step is one ``randrange`` draw into the memoized neighbor tuple
        plus one :meth:`~repro.interface.api.RestrictedSocialAPI.
        fetch_seq`.
        """
        seq = self._current_neighbor_seq()
        drawn = self._draw_accessible(seq)
        if drawn is None:
            self._stay(len(seq))
            return self._current
        nxt, nxt_seq = drawn
        self._advance(nxt, len(nxt_seq), nxt_seq)
        return nxt

    def predict_next_fetch(self, max_steps: int = 64) -> Optional[Node]:
        """Replay the walk's RNG through cached territory to its next fetch.

        SRW consumes exactly one ``randrange`` per step on networks
        without private users, so decoding the chain's own future words
        walks the *actual* future path for free: follow the draws while
        every visited neighborhood is cached, and the first uncached node
        hit is precisely the neighborhood the walk will pay a provider
        round trip for.  The replay runs on the chain's persistent cursor
        (:meth:`~repro.walks.base.RandomWalkSampler._replay_fetch`), so
        asking again after a prefetch continues from the prefetched node
        instead of replaying the path from the live node.  No live draw
        is consumed and no queries are issued.

        Returns ``None`` when the future path cannot be simulated: the
        network has private users (the redraw loop consumes a
        data-dependent number of draws), the walk is parked on a dead end
        or an evicted neighborhood, or everything within ``max_steps``
        is already known (nothing to prefetch).
        """
        if self._api.may_have_private:
            return None
        return self._replay_fetch(max_steps)

    def _replay_step(self, cursor, cache):
        """One uniform draw; pauses on an uncached node."""
        target = cursor.pause
        if target is not None:
            if not cache.has(target):
                return target
            cursor.pause = None
            cursor.push(target)
            return None
        seq = self._replay_seq_of(cache, cursor.path[-1])
        if not seq:
            return UNRESOLVED
        nxt = seq[cursor.randrange(len(seq))]
        if not cache.has(nxt):
            cursor.pause = nxt
            return nxt
        cursor.push(nxt)
        return None

    def weight(self, node: Node) -> float:
        """``1 / k_node`` — corrects the degree-proportional stationary.

        The degree is read from the local cache (the node was just
        visited), so the weight is free.
        """
        degree = self._api.cached_degree(node)
        if degree is None:  # pragma: no cover - visited nodes are cached
            degree = self._api.query(node).degree
        return 1.0 / degree
