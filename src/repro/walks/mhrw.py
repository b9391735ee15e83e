"""Metropolis–Hastings random walk with a uniform target distribution.

The standard OSN-sampling MHRW (Gjoka et al.): from ``u``, propose a
uniform neighbor ``v`` and accept with probability ``min(1, k_u / k_v)``;
otherwise stay.  The stationary distribution is uniform, so samples need no
re-weighting — but evaluating the acceptance ratio requires querying the
*proposal*, so rejected proposals still cost queries, which is exactly why
the paper finds MHRW 1.5–8× slower than SRW in query cost.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.walks.base import UNRESOLVED, RandomWalkSampler

Node = Hashable


class MetropolisHastingsWalk(RandomWalkSampler):
    """Uniform-target MH walk sampler."""

    def step(self) -> Node:
        """Propose a uniform accessible neighbor; accept ``min(1, k_u/k_v)``.

        A private proposal counts as a rejection (the walk holds), which
        preserves the uniform stationary distribution on the accessible
        subgraph.  Each step draws one ``randrange`` and then one
        ``random`` for the accept coin.
        """
        seq = self._current_neighbor_seq()
        deg_u = len(seq)
        drawn = self._draw_accessible(seq)
        if drawn is None:
            self._stay(deg_u)
            return self._current
        proposal, prop_seq = drawn
        deg_v = len(prop_seq)
        if self._rng.random() < min(1.0, deg_u / deg_v):
            self._advance(proposal, deg_v, prop_seq)
        else:
            self._stay(deg_u)
        return self._current

    def predict_next_fetch(self, max_steps: int = 64) -> Optional[Node]:
        """Replay proposal draws *and* acceptance tests to the next fetch.

        MHRW queries every proposal before the accept coin lands, so the
        next fetch is simply the first *uncached* proposal the replayed
        ``randrange`` produces.  Walking past a cached proposal requires
        resolving the accept branch, which is exactly one ``random()``
        against ``min(1, k_u / k_v)`` — both degrees readable from the
        cache — so the replay continues through accepted moves and
        rejected holds alike, bit-for-bit with the live step.  The
        chain's persistent cursor pauses between an uncached proposal
        and its coin, and draws the coin once the proposal is cached.

        Returns ``None`` on networks with private users (the redraw loop
        has data-dependent draw counts), at dead ends, or when everything
        within ``max_steps`` proposals is already cached.
        """
        if self._api.may_have_private:
            return None
        return self._replay_fetch(max_steps)

    def _replay_step(self, cursor, cache):
        """One proposal and its accept coin; pauses on an uncached proposal."""
        cur = cursor.path[-1]
        cur_seq = cursor.seq
        if cur_seq is None:
            cur_seq = cursor.seq = self._replay_seq_of(cache, cur)
        proposal = cursor.pause
        if proposal is None:
            if not cur_seq:
                return UNRESOLVED
            proposal = cur_seq[cursor.randrange(len(cur_seq))]
        prop_seq = cache.neighbor_seq(proposal)
        if prop_seq is None:
            cursor.pause = proposal
            return proposal
        cursor.pause = None
        deg_v = len(prop_seq)
        if not deg_v:  # degree-0 proposal: the live accept would fault
            return UNRESOLVED
        if cursor.random() < min(1.0, len(cur_seq) / deg_v):
            cursor.push(proposal)
            cursor.seq = prop_seq
        else:  # rejected proposals hold in place: same node, same sequence
            cursor.push(cur)
        return None

    def weight(self, node: Node) -> float:
        """1.0 — the MH stationary distribution is already uniform."""
        return 1.0
