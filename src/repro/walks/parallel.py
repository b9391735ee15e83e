"""Parallel random walks over one shared interface.

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
* with ``prefetch=True`` every lock-step round batch-fetches, through one
  ``query_many`` call, the nodes the chains are *predicted to actually
  fetch next* (RNG-replay ``predict_next_fetch``) — the "Walk, Not Wait"
  direction of fetching what the chains are about to need.  Because only
  predicted fetches are batched, per-user billing is unchanged and total
  query cost is equal-or-lower than prefetch-off.  Every engine now
  predicts (SRW, MHRW, NBRW, and MTO's overlay replay); chains whose
  next draw still cannot be replayed — private users, an unresolvable
  branch, or an MTO chain whose shared overlay an earlier-stepping
  chain may rewire first — fall back to fetch-on-visit.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence

from repro.convergence.gelman_rubin import GelmanRubinDiagnostic
from repro.core.overlay import shared_overlay_of
from repro.errors import SnapshotError, WalkError
from repro.interface.api import BatchQueryResult
from repro.interface.telemetry import collect_telemetry
from repro.walks.base import RandomWalkSampler, SamplingRun, WalkSample
from repro.walks.results import ParallelRun

Node = Hashable


class ParallelWalkers:
    """Drive several samplers over one shared interface in lock-step.

    Args:
        samplers: Two or more walkers constructed over the *same*
            ``RestrictedSocialAPI`` (checked), typically from different
            start nodes.
        prefetch: Before each lock-step round, batch-fetch through
            ``query_many`` the nodes the chains' RNG-replay predictions
            say they will fetch next, so those steps hit the shared
            cache.  Only actual future fetches are billed — query cost
            is equal-or-lower than with prefetch off, and unpredictable
            chains fall back to fetch-on-visit; off by default.

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

    def __init__(
        self,
        samplers: Sequence[RandomWalkSampler],
        prefetch: bool = False,
    ) -> None:
        if len(samplers) < 2:
            raise WalkError("parallel walking needs at least two samplers")
        api = samplers[0].api
        if any(s.api is not api for s in samplers):
            raise WalkError("all samplers must share one interface")
        self._samplers = list(samplers)
        self._api = api
        self._prefetch = prefetch
        # Chains whose engine overrides predict_next_fetch — the only
        # ones a draw-aware batch can ever include.  Every registry
        # engine now overrides it, so the check exists for custom
        # engines that keep the base no-op.  Overlay walkers get one
        # extra guard: a prediction replays the overlay *as it stands at
        # round start*, so an MTO chain is only enrolled when no
        # earlier-stepping chain writes the same overlay — otherwise a
        # rewire landing before its step could invalidate the replay and
        # turn the prefetched query into extra §II-B spend.  (The first
        # chain sharing an overlay always predicts: nothing steps
        # between the batch and its own step.)
        self._predictors = []
        written_overlays: set = set()
        for s in self._samplers:
            overlay = getattr(s, "overlay", None)
            overrides = (
                type(s).predict_next_fetch is not RandomWalkSampler.predict_next_fetch
            )
            if overrides and (overlay is None or id(overlay) not in written_overlays):
                self._predictors.append(s)
            if overlay is not None:
                written_overlays.add(id(overlay))
        # Per-engine prediction accounting: how often a replay resolved
        # to a concrete fetch vs answered None (auditable via
        # planning_summary / SamplingSession.summary).
        self._predict_stats: dict = {}
        # Users already swept into a batch; the network is static, so a
        # once-prefetched user never needs to enter a batch again.
        self._prefetched: set = set()
        self._rounds = 0
        self._sim_elapsed = 0.0
        self._overlay = shared_overlay_of(samplers)
        self._checkpoint_fn = None
        self._checkpoint_every = 0

    @property
    def chains(self) -> Sequence[RandomWalkSampler]:
        """The managed samplers."""
        return tuple(self._samplers)

    @property
    def query_cost(self) -> int:
        """Billed queries of the shared interface."""
        return self._api.query_cost

    @property
    def overlay(self):
        """The overlay all chains share, or ``None``.

        Auto-detected at construction (see
        :func:`~repro.core.overlay.shared_overlay_of`), so a
        :class:`~repro.interface.session.SamplingSession` over a
        shared-overlay MTO group snapshots the overlay without the caller
        passing it explicitly.
        """
        return self._overlay

    @property
    def simulated_elapsed(self) -> float:
        """Simulated seconds of provider latency under lock-step waiting.

        Chains in one round fetch concurrently, so each round contributes
        the *maximum* of its chains' response latencies; a single slow or
        throttled response stalls the whole round — the behavior the
        event-driven scheduler exists to fix.
        """
        return self._sim_elapsed

    def _timed_step(self, sampler: RandomWalkSampler) -> float:
        """Step one chain; returns the provider latency its step incurred."""
        before = self._api.latency_spent
        sampler.step()
        return self._api.latency_spent - before

    def step_all(self) -> List[Node]:
        """Advance every chain by one step; returns the new positions."""
        if self._prefetch and self._predictors:
            before = self._api.latency_spent
            self.prefetch_candidates()
            # A batch is one request burst; its fetches are serialized by
            # the provider model, so the batch contributes its full
            # latency to the round.
            self._sim_elapsed += self._api.latency_spent - before
        self._sim_elapsed += max([self._timed_step(s) for s in self._samplers])
        positions = [s.current for s in self._samplers]
        self._rounds += 1
        if self._checkpoint_fn is not None and self._rounds % self._checkpoint_every == 0:
            self._checkpoint_fn(self)
        return positions

    # ------------------------------------------------------------------
    # checkpoint hook + snapshot support
    # ------------------------------------------------------------------
    def set_checkpoint(self, fn, every: int) -> None:
        """Invoke ``fn(self)`` after every ``every``-th lock-step round.

        Fires on :meth:`step_all` boundaries — all chains are between
        steps, so the captured group state is a clean resumable cut.  Use
        this (not per-chain hooks) for parallel checkpointing: one save
        covers every chain plus the shared prefetch bookkeeping.

        Args:
            fn: Callback receiving this :class:`ParallelWalkers`.
            every: Positive round period.

        Raises:
            ValueError: If ``every`` is not positive.
        """
        if every < 1:
            raise ValueError("checkpoint period must be positive")
        self._checkpoint_fn = fn
        self._checkpoint_every = every

    def clear_checkpoint(self) -> None:
        """Remove any installed checkpoint hook."""
        self._checkpoint_fn = None
        self._checkpoint_every = 0

    def state_dict(self) -> dict:
        """Serializable group state: every chain plus prefetch bookkeeping.

        The shared interface and any shared overlay are *not* captured
        here — :class:`~repro.interface.session.SamplingSession` snapshots
        those once for the whole group, keeping one authoritative copy of
        the §II-B billing state.
        """
        return {
            "chains": [s.state_dict() for s in self._samplers],
            "prefetched": set(self._prefetched),
            "rounds": self._rounds,
            "sim_elapsed": self._sim_elapsed,
            "predict_stats": {k: dict(v) for k, v in self._predict_stats.items()},
        }

    def load_state(self, state: dict) -> None:
        """Restore all chains' states captured by :meth:`state_dict`.

        Args:
            state: Output of :meth:`state_dict`.

        Raises:
            SnapshotError: If the chain count differs from this group's.
        """
        chains = state["chains"]
        if len(chains) != len(self._samplers):
            raise SnapshotError(
                f"snapshot holds {len(chains)} chains; this group has {len(self._samplers)}"
            )
        for sampler, chain_state in zip(self._samplers, chains):
            sampler.load_state(chain_state)
        self._prefetched = set(state["prefetched"])
        self._rounds = int(state["rounds"])
        self._sim_elapsed = float(state["sim_elapsed"])
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
        cannot be replayed — data-dependent branches, private users,
        overlay walkers like MTO whose base prediction answers ``None``
        — contribute nothing and fall back to fetch-on-visit, exactly
        the prefetch-off semantics.

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
            return BatchQueryResult(
                responses={}, private=(), unknown=(), budget_exhausted=False
            )
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
        if num_samples <= 0:
            raise ValueError("num_samples must be positive")
        if thinning <= 0:
            raise ValueError("thinning must be positive")
        r_hat: Optional[float] = None
        if monitor is not None:
            next_check = 0
            rounds = 0
            while rounds < max_steps:
                if rounds >= next_check:
                    traces = [s.trace for s in self._samplers]
                    if monitor.converged(traces):
                        r_hat = monitor.r_hat(traces)
                        break
                    next_check = rounds + max(check_every, rounds // 5)
                self.step_all()
                rounds += 1
            if r_hat is None:
                r_hat = monitor.r_hat([s.trace for s in self._samplers])

        merged: List[WalkSample] = []
        per_chain_samples: List[List[WalkSample]] = [[] for _ in self._samplers]
        since = [thinning] * len(self._samplers)
        while len(merged) < num_samples:
            round_latencies: List[float] = []
            stepped_any = False
            for i, sampler in enumerate(self._samplers):
                if len(merged) >= num_samples:
                    break
                if since[i] >= thinning:
                    sample = WalkSample(
                        node=sampler.current,
                        weight=sampler.weight(sampler.current),
                        query_cost=self._api.query_cost,
                        step=sampler.steps,
                    )
                    merged.append(sample)
                    per_chain_samples[i].append(sample)
                    since[i] = 0
                else:
                    round_latencies.append(self._timed_step(sampler))
                    since[i] += 1
                    stepped_any = True
            if not stepped_any and len(merged) < num_samples:
                # Every chain sampled this round without filling the
                # quota: advance everyone once so the next round makes
                # progress.  (Guarded on the quota too: the old bare
                # for…else fired on every non-breaking round, stretching
                # per-chain sample spacing to thinning+1 and billing one
                # extra all-chain step after the final sample.)
                for i, sampler in enumerate(self._samplers):
                    round_latencies.append(self._timed_step(sampler))
                    since[i] += 1
            if round_latencies:
                self._sim_elapsed += max(round_latencies)
        per_chain = [
            SamplingRun(
                samples=per_chain_samples[i],
                burn_in_steps=0,
                total_steps=self._samplers[i].steps,
                query_cost=self._api.query_cost,
                converged=monitor is None or (r_hat is not None and r_hat <= monitor.threshold),
            )
            for i in range(len(self._samplers))
        ]
        telemetry = collect_telemetry(self._api)
        return ParallelRun(
            samples=merged,
            per_chain=per_chain,
            r_hat_at_convergence=r_hat,
            queries=self._api.query_cost,
            sim_elapsed=self._sim_elapsed,
            latency_spent=telemetry.latency_spent,
            chain_steps=tuple(s.steps for s in self._samplers),
            telemetry=telemetry,
        )
