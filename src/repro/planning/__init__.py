"""History-aware dispatch planning for multi-chain crawls.

The paper's rewiring win (§I-C) comes from reusing what the crawler
already learned about the topology; the follow-up literature
("Leveraging History for Faster Sampling of Online Social Networks";
"Walk, Not Wait") shows the next multiplier is *planning around* that
history: stepping through known regions without waiting on the network,
and spending idle round-trip capacity on the queries the walk will need
next.  This package is that layer, sitting between the walk
engines/scheduler and the provider stack:

* :class:`~repro.planning.history.HistoryIndex` — cache-first versus
  fetched step counters, per fleet region;
* :class:`~repro.planning.prefetch.PrefetchLedger` — issued/used/wasted
  accounting for predictive prefetches (§II-B budget spent early);
* :class:`~repro.planning.lifecycle.AdaptiveChainPolicy` — deterministic
  spawn/retire decisions over observed per-chain latency tails, with
  warm reserves that burn in alongside the group;
* :class:`~repro.planning.planner.DispatchPlanner` — the facade
  :class:`~repro.walks.scheduler.EventDrivenWalkers` drives: RNG-replay
  prediction of each chain's next fetch, spare-slot prefetch into open
  bursts, cache-first step accounting, and snapshot support so an
  in-flight plan resumes bit-for-bit.

With no planner attached the scheduler's behaviour is bit-for-bit
identical to the planning-free code paths; the determinism suite pins
that down.
"""

from repro.planning.history import HistoryIndex
from repro.planning.lifecycle import (
    ROSTER_ACTIVE,
    ROSTER_RESERVE,
    ROSTER_RETIRED,
    AdaptiveChainPolicy,
    ChainObservation,
    RosterDecision,
)
from repro.planning.planner import DispatchPlanner
from repro.planning.prefetch import PrefetchLedger

__all__ = [
    "AdaptiveChainPolicy",
    "ChainObservation",
    "DispatchPlanner",
    "HistoryIndex",
    "PrefetchLedger",
    "RosterDecision",
    "ROSTER_ACTIVE",
    "ROSTER_RESERVE",
    "ROSTER_RETIRED",
]
