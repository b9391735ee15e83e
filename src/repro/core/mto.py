"""MTO-Sampler: the paper's Algorithm 1.

A simple random walk that, at every step, uses the local neighborhood
knowledge it has already paid for to *rewire its own view* of the network:

1. **Removal** — when the freshly drawn neighbor ``v`` forms an edge with
   the current node ``u`` that Theorem 3 (or Theorem 5, using degrees
   cached from earlier steps) certifies as non-cross-cutting, the edge is
   deleted from the overlay and the draw repeats.
2. **Replacement** — when ``v``'s overlay degree is exactly 3 (the one
   degree Theorem 4 proves safe), the walk may replace ``e_uv`` by
   ``e_uw`` for another neighbor ``w`` of ``v``, steering probability mass
   toward likely cross-cutting edges.
3. **Lazy transition** — the walk finally moves to the surviving candidate
   with probability 1/2, else redraws (Algorithm 1's ``rand(0,1) < 1/2``
   branch), guaranteeing aperiodicity.

The walk is exactly a (lazy) simple random walk on the final overlay G*,
whose stationary distribution is ``τ*(u) = k*_u / 2|E*|`` (eq. 10), so
uniform-target importance weights are ``1 / k*_u`` with the overlay degree
read from the sampler's own bookkeeping — no extra queries.

The hot path is draw-dominated: a draw is one O(1) tuple index and
reads each endpoint's overlay row once, and the removal test — mostly a
"no" — settles from the two degrees, then the common count, before it
counts cached degree-2/3 common neighbors for Theorem 5's integer closed
form (:func:`~repro.core.criteria.counts_criterion`).
Determinism under a fixed seed comes from the overlay's stable insertion
ordering, not from re-sorting per step.
"""

from __future__ import annotations

from typing import AbstractSet, Hashable

from repro.core.criteria import counts_criterion, replacement_allowed, replacement_target, undecided_common
from repro.core.overlay import OverlayGraph
from repro.errors import DeadEndError, PrivateUserError, WalkError
from repro.interface.api import RestrictedSocialAPI
from repro.utils.rng import RngLike
from repro.walks.base import UNRESOLVED, RandomWalkSampler

Node = Hashable


class MTOSampler(RandomWalkSampler):
    """Modified-TOpology sampler (Algorithm 1).

    Args:
        api: Restrictive interface.
        start: Start node.
        seed: Randomness.
        enable_removal: Apply the Theorem 3/5 removal rule (``MTO_RM`` and
            ``MTO_Both`` in Figure 10).
        enable_replacement: Apply the Theorem 4 replacement rule
            (``MTO_RP`` and ``MTO_Both``).
        use_degree_cache: Use Theorem 5 with degrees cached from earlier
            queries instead of plain Theorem 3 (§III-D extension).
        replacement_probability: Chance of performing an eligible
            replacement (Algorithm 1 leaves the choice free; 0.5 mirrors
            its coin-flip structure).
        lazy: Algorithm 1's 1/2-probability redraw coin.  Off by default:
            each redraw queries a freshly drawn neighbor, which under the
            unique-query cost model doubles the cost per committed move
            without changing the stationary distribution — the paper's
            reported savings are only attainable without it (DESIGN.md
            §3.3 discusses the deviation).
        max_redraws: Bound on removal/lazy redraws within one step — a
            pathological overlay cannot stall the walk silently.
        overlay: Existing overlay to share (parallel walks, §VI: rewirings
            discovered by one chain benefit every chain).  Must wrap the
            same ``api``; a private overlay is created when omitted.

    Example:
        >>> from repro.generators import paper_barbell
        >>> from repro.interface import RestrictedSocialAPI
        >>> api = RestrictedSocialAPI(paper_barbell())
        >>> mto = MTOSampler(api, start=0, seed=7)
        >>> run = mto.run(num_samples=50)
        >>> mto.overlay.removal_count > 0
        True
    """

    def __init__(
        self,
        api: RestrictedSocialAPI,
        start: Node,
        seed: RngLike = None,
        enable_removal: bool = True,
        enable_replacement: bool = True,
        use_degree_cache: bool = True,
        replacement_probability: float = 0.5,
        lazy: bool = False,
        max_redraws: int = 10_000,
        overlay: OverlayGraph | None = None,
    ) -> None:
        if not 0 <= replacement_probability <= 1:
            raise ValueError("replacement_probability must be in [0, 1]")
        if max_redraws < 1:
            raise ValueError("max_redraws must be positive")
        super().__init__(api, start, seed=seed)
        self._overlay = overlay if overlay is not None else OverlayGraph(api)
        self._overlay.ensure_known(start)
        self._enable_removal = enable_removal
        self._enable_replacement = enable_replacement
        self._use_degree_cache = use_degree_cache
        self._replacement_probability = replacement_probability
        self._lazy = lazy
        self._max_redraws = max_redraws

    @property
    def overlay(self) -> OverlayGraph:
        """The virtual topology built so far."""
        return self._overlay

    # ------------------------------------------------------------------
    def _removable(self, nu: AbstractSet[Node], nv: AbstractSet[Node]) -> bool:
        # Theorem 5 reads cached degrees "without issuing extra web requests":
        # the common neighbors' overlay rows, read in place.
        common, kmax = undecided_common(nu, nv)
        if common is None:
            return False
        rows = self._overlay._known if self._use_degree_cache else {}
        degrees = [len(rows[w]) for w in common if w in rows]
        return counts_criterion(len(common), degrees.count(2), degrees.count(3), kmax)

    def _choose_replacement(self, u: Node, nu: AbstractSet[Node], nv: AbstractSet[Node]) -> Node | None:
        """Pick and materialize a Theorem 4 target ``w``, or ``None``."""
        w = replacement_target(u, nu, nv, self._rng)
        if w is None:
            return None
        try:
            self._overlay.ensure_known(w)
        except PrivateUserError:
            return None
        return w

    def step(self) -> Node:
        """One Algorithm 1 step: draw, maybe remove/replace, maybe move.

        Raises:
            DeadEndError: If the overlay leaves the current node with no
                neighbors.
            WalkError: If ``max_redraws`` is exhausted (degenerate
                overlay).
        """
        u = self.current
        overlay = self._overlay
        rng = self._rng
        nu = overlay._row(u)
        if nu is None:
            overlay.ensure_known(u)
            nu = overlay._row(u)
        for _ in range(self._max_redraws):
            v = overlay.random_neighbor(u, rng)
            if v is None:
                raise DeadEndError(u)
            nv = overlay._row(v)
            if nv is None:
                try:
                    overlay.ensure_known(v)  # the step's (potential) query
                except PrivateUserError:
                    # Private neighbor: never traversable, so drop the overlay
                    # edge (the walk lives on the accessible subgraph) and
                    # redraw.  One billed refusal, cached afterwards.
                    if len(nu) > 1:
                        overlay.remove_edge(u, v)
                        continue
                    self._stay(len(self._current_neighbor_seq()))
                    return self._current
                nv = overlay._row(v)

            # --- removal branch (Theorem 3 / Theorem 5) -------------------
            if self._enable_removal and len(nu) > 1 and len(nv) > 1 and self._removable(nu, nv):
                overlay.remove_edge(u, v)
                continue  # redraw from the shrunken neighborhood

            # --- replacement branch (Theorem 4) ---------------------------
            if (
                self._enable_replacement
                and replacement_allowed(len(nv))
                and rng.random() < self._replacement_probability
            ):
                w = self._choose_replacement(u, nu, nv)
                if w is not None:
                    overlay.replace_edge(u, v, w)
                    v = w  # the walk's candidate follows the moved edge

            # --- lazy transition -------------------------------------------
            if not self._lazy or rng.random() < 0.5:
                # v was just materialized: its original degree is free
                # overlay knowledge.
                self._advance(v, overlay.original_degree(v))
                return v
            # lazy hold: redraw a neighbor without committing a move
        raise WalkError(f"step at {u!r} exceeded {self._max_redraws} redraws")

    def predict_next_fetch(self, max_steps: int = 64) -> Node | None:
        """Replay the overlay draw / rewiring branches to the next fetch.

        Algorithm 1's (potential) query is ``ensure_known`` on the drawn
        candidate — or on the Theorem-4 replacement target — so the
        replay decodes the chain's future draws against the *live*
        overlay rows and returns the first candidate G* has not
        materialized.  Branches that would **mutate** the overlay before
        the fetch resolves (a certified removal, a replacement whose
        target is already materialized) end the replay with ``None``:
        simulating them would require mutating shared state the
        prediction must not touch.  Lazy holds and committed moves
        through materialized territory replay exactly (the overlay is
        unchanged by them), so the horizon can span several steps.

        The replay reads the overlay as it stands *now*; drivers that
        interleave other chains writing the same shared G* between
        prediction and step must only predict for chains no earlier
        writer can invalidate (see ``ParallelWalkers``).  The chain's
        persistent cursor is keyed to :attr:`OverlayGraph.version
        <repro.core.overlay.OverlayGraph.version>`: any materialization
        or rewiring, by this chain or a sharer, restarts it at the live
        step, which costs no draw.

        Returns ``None`` on networks with private users, at dead ends,
        and when the horizon resolves entirely inside G*.
        """
        if self._api.may_have_private:
            return None
        if not self._overlay.is_known(self._current):
            return None
        return self._replay_fetch(max_steps)

    def _replay_token(self, cache):
        # The replay reads only G*, never the cache.
        return self._overlay.version

    def _replay_step(self, cursor, cache):
        """One Algorithm 1 step over the unchanged overlay."""
        if cursor.pause is not None:
            # The token pins G*, so the paused target is still unknown.
            return cursor.pause
        overlay = self._overlay
        u = cursor.path[-1]
        nu = overlay._row(u)  # path nodes are materialized: the token pins G*
        for _ in range(self._max_redraws):
            v = overlay.random_neighbor(u, cursor)
            if v is None:
                return UNRESOLVED  # live step dead-ends
            nv = overlay._row(v)
            if nv is None:
                cursor.pause = v  # ensure_known(v) is the step's query
                return v
            if self._enable_removal and len(nu) > 1 and len(nv) > 1 and self._removable(nu, nv):
                return UNRESOLVED  # removal mutates G*, then redraws
            if (
                self._enable_replacement
                and replacement_allowed(len(nv))
                and cursor.random() < self._replacement_probability
            ):
                w = replacement_target(u, nu, nv, cursor)
                if w is not None:
                    if not overlay.is_known(w):
                        cursor.pause = w  # _choose_replacement's query
                        return w
                    return UNRESOLVED  # replace_edge mutates G*
                # no candidates: no RNG spent, replacement skipped
            if not self._lazy or cursor.random() < 0.5:
                cursor.push(v)
                return None
            # lazy hold: redraw without committing
        return UNRESOLVED  # max_redraws exhausted — live step raises

    def weight(self, node: Node) -> float:
        """``1 / k*_node`` — corrects the overlay-degree stationary (eq. 10).

        The overlay degree comes from the sampler's own bookkeeping; for a
        just-visited node it is always materialized.
        """
        k_star = self._overlay.known_degree(node)
        if k_star is None or k_star == 0:
            raise WalkError(f"overlay degree unknown for {node!r}")
        return 1.0 / k_star
