"""Non-backtracking random walk (Lee, Xu & Eun — the paper's ref. [14]).

"Why you should not backtrack for unbiased graph sampling": from node
``v``, choose uniformly among the neighbors *excluding the one just came
from* (falling back to backtracking only at degree-1 nodes).  The chain on
directed edges is doubly stochastic, so the node-marginal stationary
distribution remains degree-proportional — SRW's ``1/k`` weights still
apply — while the diffusion is faster because immediate reversals are
eliminated.  The paper cites this line of work as motivation that walk
*dynamics* (not just topology) can be improved; MTO attacks the topology
instead, and the two compose.
"""

from __future__ import annotations

from typing import Hashable, Optional, Sequence

from repro.walks.base import UNRESOLVED, RandomWalkSampler

Node = Hashable


class NonBacktrackingWalk(RandomWalkSampler):
    """SRW variant that never immediately reverses an edge.

    Same constructor as :class:`~repro.walks.srw.SimpleRandomWalk`.
    """

    _previous: Optional[Node] = None

    def step(self) -> Node:
        """Hop to a uniform accessible neighbor other than the predecessor.

        When every neighbor but the predecessor is private, the walk
        backtracks rather than dying; when the whole neighborhood is
        private it holds in place.
        """
        seq = self._current_neighbor_seq()
        neighbors: Sequence[Node] = seq
        if self._previous is not None and len(neighbors) > 1:
            neighbors = [v for v in neighbors if v != self._previous]
        drawn = self._draw_accessible(neighbors) or self._draw_accessible(seq)
        if drawn is None:
            self._stay(len(seq))
            return self._current
        nxt, nxt_seq = drawn
        self._previous = self._current
        self._advance(nxt, len(nxt_seq), nxt_seq)
        return nxt

    def predict_next_fetch(self, max_steps: int = 64) -> Optional[Node]:
        """Replay the predecessor-exclusion draw to the next fetch.

        NBRW is SRW with the just-departed node filtered out of the draw
        (at degree > 1), so the replay threads a *simulated* predecessor
        alongside the chain's future draws: filter, ``randrange`` over
        what remains, advance, repeat — until the drawn node's
        neighborhood is not cached, which is the fetch the live walk will
        pay for.  The chain's persistent cursor records ``(node,
        predecessor)`` per step, so a live chain is on the replayed path
        only when both match (and its stream index does).

        Returns ``None`` on networks with private users (the exclusion
        fallback re-draws with data-dependent counts), at dead ends, or
        when the whole horizon is cached.
        """
        if self._api.may_have_private:
            return None
        return self._replay_fetch(max_steps)

    def _replay_position(self):
        return (self._current, self._previous)

    def _replay_step(self, cursor, cache):
        """One predecessor-excluding draw; pauses on an uncached node."""
        cur, prev = cursor.path[-1]
        nxt = cursor.pause
        if nxt is None:
            seq = cursor.seq
            if seq is None:
                seq = self._replay_seq_of(cache, cur)
            if not seq:
                return UNRESOLVED
            neighbors: Sequence[Node] = seq
            if prev is not None and len(neighbors) > 1:
                neighbors = [v for v in neighbors if v != prev]
            nxt = neighbors[cursor.randrange(len(neighbors))]
        nxt_seq = cache.neighbor_seq(nxt)
        if nxt_seq is None:
            cursor.pause = nxt
            return nxt
        cursor.pause = None
        cursor.seq = nxt_seq
        cursor.push((nxt, cur))
        return None

    def weight(self, node: Node) -> float:
        """``1/k_node`` — the node marginal stays degree-proportional."""
        degree = self._api.cached_degree(node)
        if degree is None:  # pragma: no cover - visited nodes are cached
            degree = self._api.query(node).degree
        return 1.0 / degree

    def state_dict(self) -> dict:
        """Base walk state plus the non-backtracking predecessor."""
        state = super().state_dict()
        state["previous"] = self._previous
        return state

    def load_state(self, state: dict) -> None:
        """Restore base walk state plus the predecessor."""
        super().load_state(state)
        self._previous = state["previous"]
