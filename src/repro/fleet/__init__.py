"""Sharded social-backend simulation: the provider *fleet* layer.

The paper's query model (§II-A/§II-B) treats the OSN as one endpoint with
one latency behaviour, and PR 3's :class:`~repro.interface.providers`
split kept that shape: a single provider stack answers every fetch.  Real
crawls talk to a *fleet* of API shards with independent latency tails,
rate limits, and outages — exactly the regime where the follow-up papers
("Walk, Not Wait"; "Leveraging History for Faster Sampling") get their
wins, because a scheduler that understands fleet structure can overlap
and coalesce work per shard instead of paying one latency draw per fetch.

Three pieces live here:

* :class:`~repro.fleet.router.ShardRouter` — a deterministic, seeded
  consistent-hash ring mapping user ids to shards.  The map is a pure
  function of (seed, shard count, weights), stable across processes and
  snapshot round-trips, and rebalancing to a different shard count moves
  only the expected fraction of keys;
* :class:`~repro.fleet.provider.ShardedProvider` — a
  :class:`~repro.interface.providers.SocialProvider` that routes each
  user's fetch to a per-shard provider stack (its own latency model /
  flaky retries, composed from the existing PR-3 providers), applies
  seeded per-shard outage/degradation schedules, and keeps per-shard
  accounting (queries, latency spent, retries, burst depth);
* :func:`~repro.fleet.provider.find_fleet` — locates the fleet inside a
  wrapped provider stack.

:func:`repro.compose.build_fleet` composes the standard in-memory →
latency → flaky stack for every shard.  Over a stack that contains a
fleet, :class:`~repro.walks.scheduler.EventDrivenWalkers` dispatches
batch-aware: same-tick dispatches headed to the same shard coalesce into
one ``query_many``-style burst billed as a single provider round-trip —
the max latency of the burst, bounded by the shard's batch cap — while
§II-B unique-query billing is the same as one fetch at a time.
"""

from repro.fleet.provider import (
    FetchDispatch,
    ShardStats,
    ShardedProvider,
    find_fleet,
)
from repro.fleet.router import ShardRouter
from repro.fleet.disruption import DisruptionSchedule

__all__ = [
    "DisruptionSchedule",
    "FetchDispatch",
    "ShardRouter",
    "ShardStats",
    "ShardedProvider",
    "find_fleet",
]
