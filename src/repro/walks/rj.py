"""Random Jump: MHRW mixed with uniform jumps over a known id space.

The paper's fourth algorithm (§I-B, §V-A.3): with probability ``p_jump``
the walk teleports to a uniformly random vertex; otherwise it performs an
MHRW step.  Both components leave the uniform distribution invariant.  As
the paper notes (footnote 5), the jump needs the global id space — "thus
not viable for all online social networks" — so the id universe is an
explicit constructor argument the caller must supply.  The experiments use
``p_jump = 0.5``, matching §V-B.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.errors import PrivateUserError, WalkError
from repro.interface.api import RestrictedSocialAPI
from repro.utils.rng import RngLike
from repro.walks.mhrw import MetropolisHastingsWalk

Node = Hashable


class RandomJumpWalk(MetropolisHastingsWalk):
    """MHRW + uniform random jumps (uniform stationary).

    Args:
        api: Restrictive interface.
        start: Start node.
        id_space: The global user-id universe jumps draw from.  Must be
            non-empty; ids that do not resolve (deleted users) simply cost
            nothing because the jump is retried.
        jump_probability: Per-step teleport probability (paper: 0.5).
        seed: Randomness.

    Raises:
        WalkError: If ``id_space`` is empty.
        ValueError: If ``jump_probability`` is outside [0, 1].
    """

    def __init__(
        self,
        api: RestrictedSocialAPI,
        start: Node,
        id_space: Sequence[Node],
        jump_probability: float = 0.5,
        seed: RngLike = None,
    ) -> None:
        if not id_space:
            raise WalkError("random jump needs a non-empty id space")
        if not 0 <= jump_probability <= 1:
            raise ValueError("jump_probability must be in [0, 1]")
        super().__init__(api, start, seed=seed)
        self._id_space = tuple(id_space)  # immutable: O(1) indexed jumps
        self._jump_probability = jump_probability

    def step(self) -> Node:
        """Teleport with probability ``p_jump``; otherwise MHRW step.

        A jump landing on a private/deleted id (billed once, as on real
        interfaces) degrades into a hold — the behaviour that made RJ
        expensive on the paper's live crawl.
        """
        if self._rng.random() < self._jump_probability:
            target = self._id_space[self._rng.randrange(len(self._id_space))]
            try:
                seq = self._api.fetch_seq(target)
            except PrivateUserError:
                self._stay(len(self._current_neighbor_seq()))
                return self._current
            self._advance(target, len(seq), seq)
            return target
        return super().step()
