"""The dispatch planner: history-aware stepping, prefetch, chain lifecycle.

:class:`DispatchPlanner` is the one object the event-driven scheduler
talks to.  It composes the three planning parts:

* a :class:`~repro.planning.history.HistoryIndex` over the interface's
  shared neighborhood cache (O(1) known-region probes + hit statistics);
* predictive prefetch — the planner *replays the chain's own RNG* through
  cached territory to learn which neighborhood the walk will fetch next,
  and the scheduler rides that fetch in an open burst's spare slot,
  accounted by a :class:`~repro.planning.prefetch.PrefetchLedger`.
  Because the prediction is the walk's actual next draw (not a guess),
  default planning spends exactly the queries the walk would have spent —
  just earlier, where they share an admission slot.  A ``speculation``
  knob adds frontier-ranked *uncertain* candidates on top for workloads
  willing to trade unique queries for latency;
* an optional :class:`~repro.planning.lifecycle.AdaptiveChainPolicy`
  that retires latency-tail chains and spawns warm reserves.

The planner is bound to one interface/fleet pair by the scheduler that
owns it and must not be shared; all of its mutable state (visit counts,
ledger, counters) serializes through ``state_dict`` inside the
scheduler's snapshot, so an in-flight checkpoint with outstanding
prefetches resumes bit-for-bit.
"""

from __future__ import annotations

import zlib
from typing import Dict, Hashable, Optional, Tuple

from repro.datastore.snapshot import canonical_key
from repro.errors import PlanningError
from repro.obs.trace import TraceRecorder
from repro.planning.history import HistoryIndex
from repro.planning.lifecycle import AdaptiveChainPolicy
from repro.planning.prefetch import PrefetchLedger

Node = Hashable


def _stable_rank(seed: int, user: Node) -> int:
    """Process-stable 32-bit rank mixing ``seed`` with a user id.

    Python's ``hash`` is salted per process for strings, so speculative
    candidate ranking anchors on :func:`~repro.datastore.snapshot.canonical_key`
    instead — identical across runs and machines for any snapshotable id.
    """
    key = f"{seed}:{canonical_key(user)}"
    return zlib.crc32(key.encode("utf-8"))


class DispatchPlanner:
    """History-aware planning for :class:`~repro.walks.scheduler.EventDrivenWalkers`.

    Args:
        lookahead: Maximum *predicted* fetches to ride spare burst slots
            per chain per tick.  Predictions replay the chain's RNG, so
            each one is a fetch the walk will issue anyway; ``0`` turns
            predictive prefetch off.
        speculation: Maximum additional *speculative* candidates per
            chain per tick — unvisited neighbors of the chain's frontier,
            ranked by frontier visit weight with a seeded deterministic
            tie-break.  These may never be walked (extra §II-B spend);
            keep ``0`` for cost-neutral planning.
        policy: Optional adaptive chain lifecycle policy.
        seed: Seed for the speculative ranking (no effect when
            ``speculation`` is 0).

    Raises:
        PlanningError: On negative knobs.
    """

    def __init__(
        self,
        lookahead: int = 4,
        speculation: int = 0,
        policy: Optional[AdaptiveChainPolicy] = None,
        seed: int = 0,
    ) -> None:
        if lookahead < 0:
            raise PlanningError("lookahead must be non-negative")
        if speculation < 0:
            raise PlanningError("speculation must be non-negative")
        self.lookahead = int(lookahead)
        self.speculation = int(speculation)
        self._policy = policy
        self._seed = int(seed)
        self._api = None
        self._history: Optional[HistoryIndex] = None
        self._ledger = PrefetchLedger()
        # Per-engine prediction books: {engine: {"hits": n, "misses": n,
        # "speculative": n}}.  A hit is a replay that resolved a concrete
        # future fetch; a miss is a replay that answered None (engine
        # guard, unresolvable branch, or horizon exhausted); speculative
        # counts frontier candidates offered under the speculation knob.
        self._prediction: Dict[str, Dict[str, int]] = {}
        self._warm_visits: Dict[Node, int] = {}
        self._recorder: Optional[TraceRecorder] = None

    # ------------------------------------------------------------------
    # binding (done once, by the owning scheduler)
    # ------------------------------------------------------------------
    def bind(self, api, fleet) -> None:
        """Attach to the interface/fleet pair the owning scheduler drives.

        Args:
            api: The shared :class:`~repro.interface.api.RestrictedSocialAPI`.
            fleet: The :class:`~repro.fleet.provider.ShardedProvider` the
                batched dispatch loop coalesces bursts against.

        Raises:
            PlanningError: If this planner is already bound — planners
                hold per-run state and must not be shared between
                scheduler instances.
        """
        if self._api is not None:
            raise PlanningError(
                "this DispatchPlanner is already bound to a scheduler; "
                "construct a fresh planner per EventDrivenWalkers group"
            )
        self._api = api
        self._history = HistoryIndex(api.cache, shard_of=fleet.shard_of)

    @property
    def bound(self) -> bool:
        """Whether :meth:`bind` has been called."""
        return self._api is not None

    def _require_bound(self) -> None:
        if self._api is None:
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
            sampler: The chain to predict for.
            max_steps: Step horizon; the scheduler passes the chain's
                *remaining* step budget during collection so a prefetch
                is never issued for a neighborhood the chain cannot
                reach before its quota fills.  Defaults to
                :data:`PREDICT_HORIZON`.
        """
        self._require_bound()
        peek = getattr(sampler, "predict_next_fetch", None)
        if peek is None:
            return None
        horizon = self.PREDICT_HORIZON if max_steps is None else min(max_steps, self.PREDICT_HORIZON)
        if horizon <= 0:
            return None
        target = peek(max_steps=horizon)
        books = self._engine_books(sampler)
        if target is None:
            books["misses"] += 1
        else:
            books["hits"] += 1
        return target

    def _engine_books(self, sampler) -> Dict[str, int]:
        """The per-engine prediction counters row for ``sampler``'s type."""
        return self._prediction.setdefault(
            type(sampler).__name__, {"hits": 0, "misses": 0, "speculative": 0}
        )

    def speculative_targets(self, sampler) -> Tuple[Node, ...]:
        """Frontier-ranked uncertain prefetch candidates for one chain.

        Unknown neighbors of the chain's current position, ranked by the
        seeded stable hash (the frontier node's visit count already
        weights *which* chain positions are worth expanding — the
        scheduler calls this per stepping chain, so hot frontier nodes
        get proportionally more expansion opportunities).  A planner
        warm-started from a prior run's :meth:`warm_start` statistics
        promotes candidates that run visited often to the front of the
        ranking — history says the walk keeps coming back to them.
        Empty when ``speculation`` is 0.
        """
        self._require_bound()
        if self.speculation == 0:
            return ()
        seq = self._api.cache.neighbor_seq(sampler.current)
        if not seq:
            return ()
        unknown = [v for v in seq if not self._history.is_known(v)]
        warm = self._warm_visits
        if warm:
            unknown.sort(
                key=lambda v: (-warm.get(v, 0), _stable_rank(self._seed, v), repr(v))
            )
        else:
            unknown.sort(key=lambda v: (_stable_rank(self._seed, v), repr(v)))
        chosen = tuple(unknown[: self.speculation])
        if chosen:
            self._engine_books(sampler)["speculative"] += len(chosen)
        return chosen

    # ------------------------------------------------------------------
    # cross-run warm start
    # ------------------------------------------------------------------
    def warm_start(self, stats: dict) -> None:
        """Seed planning with a prior run's history statistics.

        Args:
            stats: A :meth:`HistoryIndex.state_dict` payload from an
                earlier run (as persisted by a
                :class:`~repro.datastore.history.HistoryStore`).  The
                prior visit counts become the speculative ranking's warm
                prior; the step counters are *not* merged into this run's
                own accounting — ``summary()`` keeps reporting what this
                run did, with the warm prior listed separately.

        Raises:
            PlanningError: If the planner is not bound yet.
        """
        self._require_bound()
        self._warm_visits = {
            node: int(count) for node, count in stats.get("visits", {}).items()
        }

    @property
    def warm_visit_count(self) -> int:
        """Nodes carrying a warm-start visit prior (0 when cold)."""
        return len(self._warm_visits)

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
        self._require_bound()
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
            "speculation": self.speculation,
            "prefetch_issued": prefetch["issued"],
            "prefetch_used": prefetch["used"],
            "prefetch_wasted": prefetch["wasted"],
            "prefetch_outstanding": prefetch["outstanding"],
            "cache_first_steps": self._history.known_steps,
            "fetched_steps": self._history.unknown_steps,
            "cache_first_rate": round(self._history.hit_rate(), 6),
            "region_steps": self._history.region_stats(),
            "prediction": {k: dict(v) for k, v in sorted(self._prediction.items())},
            "warm_visits": len(self._warm_visits),
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
            "warm_visits": dict(self._warm_visits),
        }

    def load_state(self, state: dict) -> None:
        """Restore planner state captured by :meth:`state_dict`.

        Args:
            state: Output of :meth:`state_dict`.
        """
        self._require_bound()
        self._history.load_state(state["history"])
        self._ledger.load_state(state["ledger"])
        self._prediction = {
            engine: {key: int(n) for key, n in row.items()} for engine, row in state["prediction"].items()
        }
        self._warm_visits = {node: int(count) for node, count in state["warm_visits"].items()}
