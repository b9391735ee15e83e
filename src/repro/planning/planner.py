"""The dispatch planner: history-aware stepping, prefetch, chain lifecycle.

:class:`DispatchPlanner` is the one object the event-driven scheduler
talks to.  It composes the three planning parts:

* a :class:`~repro.planning.history.HistoryIndex` of step statistics
  (cache-first versus fetched steps, per fleet region);
* predictive prefetch — the planner *replays the chain's own RNG* through
  cached territory to learn which neighborhood the walk will fetch next,
  and the scheduler rides that fetch in an open burst's spare slot,
  accounted by a :class:`~repro.planning.prefetch.PrefetchLedger`.
  Because the prediction is the walk's actual next draw (not a guess),
  planning spends exactly the queries the walk would have spent — just
  earlier, where they share an admission slot;
* an optional :class:`~repro.planning.lifecycle.AdaptiveChainPolicy`
  that retires latency-tail chains and spawns warm reserves.

The planner is bound to one fleet by the scheduler that
owns it and must not be shared; all of its mutable state (step
statistics, ledger, counters) serializes through ``state_dict`` inside the
scheduler's snapshot, so an in-flight checkpoint with outstanding
prefetches resumes bit-for-bit.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

from repro.errors import PlanningError
from repro.obs.trace import TraceRecorder
from repro.planning.history import HistoryIndex
from repro.planning.lifecycle import AdaptiveChainPolicy
from repro.planning.prefetch import PrefetchLedger

Node = Hashable


class DispatchPlanner:
    """History-aware planning for :class:`~repro.walks.scheduler.EventDrivenWalkers`.

    Args:
        lookahead: Maximum *predicted* fetches to ride spare burst slots
            per chain per tick.  Predictions replay the chain's RNG, so
            each one is a fetch the walk will issue anyway; ``0`` turns
            predictive prefetch off.
        policy: Optional adaptive chain lifecycle policy.

    Raises:
        PlanningError: On a negative ``lookahead``.
    """

    def __init__(self, lookahead: int = 4, policy: Optional[AdaptiveChainPolicy] = None) -> None:
        if lookahead < 0:
            raise PlanningError("lookahead must be non-negative")
        self.lookahead = int(lookahead)
        self._policy = policy
        self._history: Optional[HistoryIndex] = None
        self._ledger = PrefetchLedger()
        # Per-engine prediction books: {engine: {"hits": n, "misses": n}}.
        # A hit is a replay that resolved a concrete future fetch; a miss
        # is a replay that answered None (engine guard, unresolvable
        # branch, or horizon exhausted).
        self._prediction: Dict[str, Dict[str, int]] = {}
        self._recorder: Optional[TraceRecorder] = None

    # ------------------------------------------------------------------
    # binding (done once, by the owning scheduler)
    # ------------------------------------------------------------------
    def bind(self, fleet) -> None:
        """Attach to the fleet the owning scheduler coalesces bursts against.

        Args:
            fleet: The :class:`~repro.fleet.provider.ShardedProvider` the
                batched dispatch loop coalesces bursts against; the
                history index books steps by its shards.

        Raises:
            PlanningError: If this planner is already bound — planners
                hold per-run state and must not be shared between
                scheduler instances.
        """
        if self._history is not None:
            raise PlanningError(
                "this DispatchPlanner is already bound to a scheduler; "
                "construct a fresh planner per EventDrivenWalkers group"
            )
        self._history = HistoryIndex(shard_of=fleet.shard_of)

    @property
    def bound(self) -> bool:
        """Whether :meth:`bind` has been called."""
        return self._history is not None

    def _require_bound(self) -> None:
        if self._history is None:
            raise PlanningError("DispatchPlanner is not bound to a scheduler yet")

    # ------------------------------------------------------------------
    # composed parts
    # ------------------------------------------------------------------
    @property
    def history(self) -> HistoryIndex:
        """The history index (available after binding)."""
        self._require_bound()
        return self._history

    @property
    def ledger(self) -> PrefetchLedger:
        """The prefetch ledger."""
        return self._ledger

    @property
    def policy(self) -> Optional[AdaptiveChainPolicy]:
        """The adaptive chain policy, or ``None``."""
        return self._policy

    # ------------------------------------------------------------------
    # observability (zero-cost when no recorder is attached)
    # ------------------------------------------------------------------
    @property
    def recorder(self) -> Optional[TraceRecorder]:
        """The attached trace recorder, or ``None``."""
        return self._recorder

    def set_recorder(self, recorder: Optional[TraceRecorder]) -> None:
        """Attach (or detach, with ``None``) a trace recorder.

        The planner streams prefetch-ledger balances into the recorder's
        metrics registry; the prefetch *events* are emitted by the owning
        scheduler, which knows the simulated dispatch times.
        """
        self._recorder = recorder

    def _publish_ledger(self) -> None:
        """Stream the ledger balance into the attached metrics registry."""
        metrics = self._recorder.metrics
        metrics.gauge("prefetch.outstanding").set(float(self._ledger.outstanding))
        metrics.gauge("prefetch.used").set(float(self._ledger.used))
        metrics.gauge("prefetch.wasted").set(float(self._ledger.wasted))
        metrics.gauge("prefetch.issued").set(float(self._ledger.issued))

    # ------------------------------------------------------------------
    # prediction (consulted by the scheduler's burst-settling hook)
    # ------------------------------------------------------------------
    #: Default step horizon for RNG-replay prediction: how far through
    #: cached territory a chain's future path is simulated.
    PREDICT_HORIZON = 64

    def predict_next_fetch(self, sampler, max_steps: Optional[int] = None) -> Optional[Node]:
        """The neighborhood ``sampler`` will fetch next, if predictable.

        Delegates to the sampler's own ``predict_next_fetch`` (walk
        engines that can replay their RNG through cached territory
        implement it; the base class answers ``None``).  Returns ``None``
        when the engine cannot predict or no fetch lies within
        ``max_steps`` future steps.

        Args:
            sampler: The chain to predict for (a
                :class:`~repro.walks.base.RandomWalkSampler`).
            max_steps: Step horizon; the scheduler passes the chain's
                *remaining* step budget during collection so a prefetch
                is never issued for a neighborhood the chain cannot
                reach before its quota fills.  Defaults to
                :data:`PREDICT_HORIZON`.
        """
        horizon = self.PREDICT_HORIZON if max_steps is None else min(max_steps, self.PREDICT_HORIZON)
        if horizon <= 0:
            return None
        target = sampler.predict_next_fetch(max_steps=horizon)
        name = type(sampler).__name__
        books = self._prediction.get(name)
        if books is None:
            books = self._prediction[name] = {"hits": 0, "misses": 0}
        books["misses" if target is None else "hits"] += 1
        return target

    def speculative_targets(self, sampler) -> Tuple[Node, ...]:
        # Caller-less: frontier speculation is deleted; kept only because the perfbench span table names it.
        return ()

    # ------------------------------------------------------------------
    # step accounting (called by the scheduler after every committed step)
    # ------------------------------------------------------------------
    def note_step(self, chain: int, node: Node, free: bool):
        """Book one committed step for planning statistics.

        Args:
            chain: The stepping chain's index.
            node: The node the step landed on.
            free: Whether the step dispatched nothing (advanced through
                history at zero simulated latency).

        Returns:
            When the step consumed a pending prefetch: the simulated
            time that prefetch's round trip landed (the scheduler delays
            the chain to it if the chain got there first).  ``None``
            otherwise.
        """
        self._history.record_step(node, known=free)
        landed = self._ledger.mark_used(node)
        if self._recorder is not None and landed is not None:
            self._publish_ledger()
        return landed

    def on_retire(self, chain: int) -> int:
        """Write off a retired chain's outstanding prefetches; returns count."""
        dropped = self._ledger.drop_chain(chain)
        if self._recorder is not None and dropped:
            self._publish_ledger()
        return dropped

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """JSON-safe accounting: prefetch ledger + history statistics."""
        self._require_bound()
        prefetch = self._ledger.summary()
        return {
            "lookahead": self.lookahead,
            "prefetch_issued": prefetch["issued"],
            "prefetch_used": prefetch["used"],
            "prefetch_wasted": prefetch["wasted"],
            "prefetch_outstanding": prefetch["outstanding"],
            "cache_first_steps": self._history.known_steps,
            "fetched_steps": self._history.unknown_steps,
            "cache_first_rate": round(self._history.hit_rate(), 6),
            "region_steps": self._history.region_stats(),
            "prediction": {k: dict(v) for k, v in sorted(self._prediction.items())},
        }

    # ------------------------------------------------------------------
    # snapshot support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serializable planner state (history stats + ledger)."""
        self._require_bound()
        return {
            "history": self._history.state_dict(),
            "ledger": self._ledger.state_dict(),
            "prediction": {k: dict(v) for k, v in self._prediction.items()},
        }

    def load_state(self, state: dict) -> None:
        """Restore planner state captured by :meth:`state_dict`.

        Args:
            state: Output of :meth:`state_dict`.  A warm-start visit
                prior and a per-engine count of frontier candidates,
                which older builds also stored, are ignored.
        """
        self._require_bound()
        self._history.load_state(state["history"])
        self._ledger.load_state(state["ledger"])
        self._prediction = {
            engine: {"hits": int(row["hits"]), "misses": int(row["misses"])}
            for engine, row in state["prediction"].items()
        }
