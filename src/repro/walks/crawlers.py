"""Graph-traversal crawlers: BFS, DFS, and snowball sampling.

The paper's related work (refs. [10], [15]) compares random walks against
"traditional Breadth First Search (BFS) and Depth First Search (DFS)"
crawling.  These are not Markov chains — their inclusion probabilities are
intractable, and BFS famously over-samples high-degree nodes — so they
carry **unknown bias**; they are provided as baselines that demonstrate
*why* the paper's walk-based estimators matter.  Their ``weight`` is 1.0
(no principled correction exists), and estimates built from them should be
read as what a naive crawler would report.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Hashable, Optional, Set

from repro.errors import DeadEndError, PrivateUserError
from repro.interface.api import RestrictedSocialAPI
from repro.utils.rng import RngLike
from repro.walks.base import RandomWalkSampler

Node = Hashable


class _CrawlerBase(RandomWalkSampler):
    """Shared frontier machinery for BFS/DFS/snowball crawlers."""

    #: Neighbors kept per visited user; ``None`` keeps them all.
    _k: Optional[int] = None

    def __init__(self, api: RestrictedSocialAPI, start: Node, seed: RngLike = None) -> None:
        super().__init__(api, start, seed=seed)
        self._visited: Set[Node] = {start}
        self._frontier: Deque[Node] = deque()
        self._push_neighbors(self._current_seq)

    def _push_neighbors(self, seq: tuple) -> None:
        """Queue the unvisited users of a visited node's (already read) neighbor tuple."""
        fresh = [v for v in seq if v not in self._visited]
        self._rng.shuffle(fresh)
        self._frontier.extend(fresh[: self._k])

    def _pop(self) -> Node:
        raise NotImplementedError

    def step(self) -> Node:
        """Visit the next frontier node (FIFO for BFS, LIFO for DFS).

        Raises:
            DeadEndError: When the frontier is exhausted (the whole
                reachable component has been crawled).
        """
        while self._frontier:
            nxt = self._pop()
            if nxt in self._visited:
                continue
            try:
                seq = self._api.fetch_seq(nxt)
            except PrivateUserError:
                self._visited.add(nxt)
                continue
            self._visited.add(nxt)
            self._advance(nxt, len(seq), seq)
            self._push_neighbors(seq)
            return nxt
        raise DeadEndError(self.current)

    def weight(self, node: Node) -> float:
        """1.0 — crawler inclusion probabilities are intractable."""
        return 1.0

    @property
    def visited(self) -> frozenset:
        """Nodes crawled so far."""
        return frozenset(self._visited)

    def state_dict(self) -> dict:
        """Base walk state plus the visited set and frontier order."""
        state = super().state_dict()
        state["visited"] = set(self._visited)
        state["frontier"] = tuple(self._frontier)
        return state

    def load_state(self, state: dict) -> None:
        """Restore base walk state plus the visited set and frontier."""
        super().load_state(state)
        self._visited = set(state["visited"])
        self._frontier = deque(state["frontier"])


class BFSCrawler(_CrawlerBase):
    """Breadth-first crawler (FIFO frontier) — over-samples hubs."""

    def _pop(self) -> Node:
        return self._frontier.popleft()


class DFSCrawler(_CrawlerBase):
    """Depth-first crawler (LIFO frontier)."""

    def _pop(self) -> Node:
        return self._frontier.pop()


class SnowballCrawler(_CrawlerBase):
    """Snowball sampling: BFS that keeps at most ``k`` neighbors per node.

    The classic sociology design (and the de-facto behaviour of many
    scraping scripts); ``k`` bounds the per-user fan-out.

    Args:
        api: Restrictive interface.
        start: Seed user.
        k: Neighbors retained per visited user (≥ 1).
        seed: Randomness (which ``k`` neighbors are kept).
    """

    def __init__(
        self,
        api: RestrictedSocialAPI,
        start: Node,
        k: int = 3,
        seed: RngLike = None,
    ) -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        self._k = k
        super().__init__(api, start, seed=seed)

    def _pop(self) -> Node:
        return self._frontier.popleft()
