"""Lock-step parallel random walks over one shared interface.

Section VI of the paper observes that MTO "can be applied to each parallel
random walk straightforwardly, since it is a parameter-free and online
algorithm".  This module makes the observation concrete:

* all walkers share one :class:`RestrictedSocialAPI`, so one walker's
  billed query is every walker's cache hit — exactly how a third party
  would run several chains from a single crawler budget;
* MTO walkers can additionally share one *overlay*: a rewiring discovered
  by any chain benefits all of them (pass a common
  :class:`~repro.core.overlay.OverlayGraph` via ``MTOSampler(overlay=…)``);
* convergence is judged across chains with the Gelman–Rubin R̂
  diagnostic, which single-chain monitors cannot do;
* with ``prefetch=True`` every burn-in and :meth:`ParallelWalkers.step_all`
  round first batch-fetches, through one ``query_many`` call, the nodes
  the chains are *predicted to actually fetch next* (RNG-replay
  ``predict_next_fetch``) — the "Walk, Not Wait" direction of fetching
  what the chains are about to need.  Because only predicted fetches are
  batched, per-user billing is unchanged and total query cost is
  equal-or-lower than prefetch-off.  Every engine predicts (SRW, MHRW,
  NBRW, and MTO's overlay replay); chains whose next draw cannot be
  replayed — private users, an unresolvable branch, or an MTO chain
  whose shared overlay an earlier chain of the round may rewire first —
  fall back to fetch-on-visit.

The rounds run on the scheduler's one event loop as its *barrier* case
(see :mod:`repro.walks.scheduler`); this module keeps only what is
specific to lock-step: the prefetch batch, its bookkeeping and the
group's snapshot layout.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence

from repro.convergence.gelman_rubin import GelmanRubinDiagnostic
from repro.interface.api import BatchQueryResult
from repro.walks.base import RandomWalkSampler
from repro.walks.results import ParallelRun
from repro.walks.scheduler import PHASE_COLLECT, PHASE_FRESH, EventDrivenWalkers

Node = Hashable


class ParallelWalkers(EventDrivenWalkers):
    """Drive several samplers over one shared interface in lock-step rounds.

    Every chain takes one step, then every chain takes the next; a round
    ends when its slowest response lands, so :attr:`simulated_elapsed`
    sums the rounds' maximum latencies.  Over a provider fleet the chains'
    fetches are not coalesced.

    Args:
        samplers: Two or more walkers constructed over the *same*
            ``RestrictedSocialAPI`` (checked), typically from different
            start nodes.
        prefetch: Before each burn-in or :meth:`step_all` round,
            batch-fetch through ``query_many`` the nodes the chains'
            RNG-replay predictions say they will fetch next, so those
            steps hit the shared cache.  Only actual future fetches are
            billed — query cost is equal-or-lower than with prefetch off,
            and unpredictable chains fall back to fetch-on-visit; off by
            default.

    Raises:
        WalkError: With fewer than two samplers or mismatched interfaces.

    Example:
        >>> from repro.datasets import load
        >>> from repro.walks import SimpleRandomWalk
        >>> net = load("epinions_like", seed=0, scale=0.1)
        >>> api = net.interface()
        >>> walkers = ParallelWalkers([
        ...     SimpleRandomWalk(api, start=net.seed_node(i), seed=i)
        ...     for i in range(3)
        ... ])
        >>> result = walkers.run(num_samples=30)
        >>> len(result.samples)
        30
    """

    _barrier = True

    def __init__(
        self,
        samplers: Sequence[RandomWalkSampler],
        prefetch: bool = False,
    ) -> None:
        super().__init__(samplers)
        self._prefetch = prefetch
        # The chains a draw-aware batch can include: their replay is safe
        # from the round's earlier steps (the scheduler's _predict_ok), and
        # their engine overrides predict_next_fetch.  Every registry
        # engine does; the check exists for custom engines that keep the
        # base no-op.
        self._predictors = [
            s
            for s, ok in zip(self._samplers, self._predict_ok)
            if ok and type(s).predict_next_fetch is not RandomWalkSampler.predict_next_fetch
        ]
        # Per-engine prediction accounting: how often a replay resolved
        # to a concrete fetch vs answered None (auditable via
        # planning_summary / SamplingSession.summary).
        self._predict_stats: dict = {}
        # Users already swept into a batch; the network is static, so a
        # once-prefetched user never needs to enter a batch again.
        self._prefetched: set = set()
        self._rounds = 0

    def step_all(self) -> List[Node]:
        """Advance every chain by one lock-step round; returns the new positions."""
        self._heap = []
        for i in range(len(self._samplers)):
            self._push(i, self._sim_time)
        self._tick(None)
        return [s.current for s in self._samplers]

    def _depart(self, group) -> float:
        """Issue the round's prefetch batch, outside collection, before the round departs.

        A batch is one request burst; its fetches are serialized by the
        provider model, so the round departs after the batch's full
        latency.
        """
        when = super()._depart(group)
        if not self._prefetch or not self._predictors or self._phase == PHASE_COLLECT:
            return when
        before = self._api.latency_spent
        self.prefetch_candidates()
        self._sim_time = when + (self._api.latency_spent - before)
        return self._sim_time

    def _tick_committed(self, events_in_tick: int) -> None:
        """Count a burn-in or :meth:`step_all` round; fire the hook every N.

        Collection rounds neither count nor checkpoint: the snapshot
        layout holds no collection state.
        """
        if self._watcher is not None:
            self._watcher.poll(self._sim_time)
        if self._phase == PHASE_COLLECT:
            return
        self._rounds += 1
        if self._checkpoint_fn is not None and self._rounds % self._checkpoint_every == 0:
            self._checkpoint_fn(self)

    # ------------------------------------------------------------------
    # snapshot support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serializable group state: every chain plus prefetch bookkeeping.

        Captured only between rounds, where the event loop holds nothing
        the chains, the round count and the clock do not determine.  The
        shared interface and any shared overlay are *not* captured here —
        :class:`~repro.interface.session.SamplingSession` snapshots those
        once for the whole group, keeping one authoritative copy of the
        §II-B billing state.
        """
        return {
            "chains": [s.state_dict() for s in self._samplers],
            "prefetched": set(self._prefetched),
            "rounds": self._rounds,
            "sim_elapsed": self._sim_time,
            "predict_stats": {k: dict(v) for k, v in self._predict_stats.items()},
        }

    def load_state(self, state: dict) -> None:
        """Restore all chains' states captured by :meth:`state_dict`.

        Args:
            state: Output of :meth:`state_dict`.

        Raises:
            SnapshotError: If the chain count differs from this group's.
        """
        self._load_chains(state["chains"])
        self._prefetched = set(state["prefetched"])
        self._rounds = int(state["rounds"])
        self._sim_time = float(state["sim_elapsed"])
        self._predict_stats = {k: dict(v) for k, v in state["predict_stats"].items()}

    def planning_summary(self) -> dict:
        """Prefetch/prediction accounting for this group.

        Mirrors the scheduler planner's summary shape where it overlaps
        so session-level reporting can treat both drivers uniformly.
        """
        return {
            "prefetch_users": len(self._prefetched),
            "prediction": {k: dict(v) for k, v in self._predict_stats.items()},
        }

    def prefetch_candidates(self) -> BatchQueryResult:
        """Batch-materialize each chain's *predicted* next fetch.

        Draw-aware prefetch: every chain is asked, via its RNG-replay
        :meth:`~repro.walks.base.RandomWalkSampler.predict_next_fetch`
        with a **one-step horizon**, whether its very next step will pay
        a provider round trip — and for which node.  Only those nodes
        enter the batch, and each is consumed by its chain's step in the
        same round, so the batch fetches exactly what the round's steps
        would have fetched anyway: prefetch-on query cost equals
        prefetch-off, never more.  (A deeper horizon replays the true
        future path too, but bills the walk's frontier rounds before the
        walk arrives — at any finite cutoff that is strictly *extra*
        cost, the regression this method used to cause at 2x scale by
        batching entire candidate neighborhoods.)  Chains whose next draw
        cannot be replayed — data-dependent branches, private users, or
        a chain kept out of the batch because an earlier chain of the
        round writes its overlay — contribute nothing and fall back to
        fetch-on-visit, exactly the prefetch-off semantics.

        Private members and budget exhaustion degrade gracefully
        (reported in the result, not raised) — a chain that then trips on
        them handles it exactly as in the unbatched path.
        """
        candidates: dict = {}
        stats = self._predict_stats
        for s in self._predictors:
            target = s.predict_next_fetch(max_steps=1)
            engine = type(s).__name__
            row = stats.get(engine)
            if row is None:
                row = stats[engine] = {"hits": 0, "misses": 0}
            if target is None:
                row["misses"] += 1
                continue
            row["hits"] += 1
            if target not in self._prefetched:
                candidates[target] = None
        if not candidates:
            return BatchQueryResult(responses={}, private=(), unknown=(), budget_exhausted=False)
        result = self._api.query_many(candidates)
        # Record the swept users only after the batch returns, and never
        # through a local alias of the live set: a checkpoint hook firing
        # mid-round must see either the pre-batch or the post-batch
        # bookkeeping, not a half-mutated set.
        self._prefetched.update(candidates)
        return result

    def run(
        self,
        num_samples: int,
        monitor: Optional[GelmanRubinDiagnostic] = None,
        thinning: int = 1,
        check_every: int = 25,
        max_steps: int = 250_000,
    ) -> ParallelRun:
        """Burn in until R̂ converges, then collect samples round-robin.

        Every call starts afresh from the group's current chains and
        clock: it burns in (given a monitor) and collects its own
        ``num_samples``.

        Args:
            num_samples: Total samples across all chains.
            monitor: Multi-chain diagnostic; ``None`` skips burn-in.
            thinning: Per-chain spacing between collected samples.
            check_every: Lock-step rounds between R̂ evaluations (grows
                geometrically like the single-chain driver).
            max_steps: Per-chain step budget for the burn-in phase.

        Raises:
            ValueError: On non-positive ``num_samples``/``thinning``.
        """
        self._phase = PHASE_FRESH
        self._heap = []
        self._ready = [self._sim_time] * len(self._samplers)
        self._r_hat = None
        self._merged = []
        self._merged_chain = []
        return super().run(num_samples, monitor, thinning, check_every, max_steps)
