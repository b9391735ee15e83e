"""Causal critical-path analysis: *why* a run took the wall-clock it did.

The trace (:mod:`repro.obs.trace`) records what happened and when; the
audit (:mod:`repro.obs.audit`) proves the record complete.  This module
answers the remaining question — which waits actually *bound* simulated
wall-clock — by reconstructing the run's causal chain backward from its
last committed action and tiling ``[0, wall]`` with exclusive,
gap-free, overlap-free segments:

* ``shard_latency`` — a shard round trip the run could not proceed
  without (attributed to its shard);
* ``retry_backoff`` — the share of a binding round trip burnt on failed
  attempts (split out of ``shard_latency`` when the flaky layer retried);
* ``admission_wait`` — a chain held for the shard's next admission slot
  after opening a burst;
* ``burst_hold`` — a chain riding a coalesced burst that departs later
  than the chain arrived (the price of batch packing);
* ``prefetch_wait`` — a chain that walked onto a planner-prefetched node
  before its round trip landed (planner parking);
* ``scheduler_hold`` — tick grouping: the chain was ready but its event
  group departed later (batch windows, re-queues, quantum boundaries).

Cache-hit steps and sample merges take zero simulated time; they appear
in ``counts`` (``free_steps`` / ``samples``), never as segments.

Exactness is structural, not summed: the scheduler annotates every
batched ``walk_step`` with the burst tuples and final ready time its own
settle loop computed (see ``EventDrivenWalkers._tick``), so the
profiler re-derives each boundary from the *same floats with the same
operations* and the tiling reconciles bit-for-bit against the run clock
— no float-summation slop, in the same spirit as
:func:`repro.obs.audit.reconcile_run`.  :func:`reconcile_attribution`
checks exactly that.

One approximation is documented rather than hidden: a binding burst's
latency is the *maximum* over its members, and a retry's backoff split
applies only when the retried fetch is provably that maximum (matched by
shard and billed latency among the acting chain's own fetches).  When
the binding member belongs to another chain the whole round trip stays
``shard_latency`` — still a perfect tiling, just a coarser label.

Like the audit, this module never imports layer modules: it is pure
event-stream arithmetic.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Tuple

from repro.obs.trace import (
    EVENT_BURST_DISPATCH,
    EVENT_FETCH,
    EVENT_PREFETCH_ISSUE,
    EVENT_PREFETCH_LAND,
    EVENT_QUERY,
    EVENT_RETRY,
    EVENT_SAMPLE,
    EVENT_TENANT_TICK,
    EVENT_WALK_STEP,
    Source,
    TraceEvent,
    _events_of,
    _matches_tenant,
)

__all__ = [
    "CATEGORY_SHARD_LATENCY",
    "CATEGORY_RETRY_BACKOFF",
    "CATEGORY_ADMISSION_WAIT",
    "CATEGORY_BURST_HOLD",
    "CATEGORY_PREFETCH_WAIT",
    "CATEGORY_SCHEDULER_HOLD",
    "CATEGORY_TENANT_QUANTUM",
    "Segment",
    "Attribution",
    "ServiceAttribution",
    "CausalDag",
    "attribute_run",
    "attribute_service",
    "reconcile_attribution",
    "reconcile_service",
    "build_dag",
]

CATEGORY_SHARD_LATENCY = "shard_latency"
CATEGORY_RETRY_BACKOFF = "retry_backoff"
CATEGORY_ADMISSION_WAIT = "admission_wait"
CATEGORY_BURST_HOLD = "burst_hold"
CATEGORY_PREFETCH_WAIT = "prefetch_wait"
CATEGORY_SCHEDULER_HOLD = "scheduler_hold"
CATEGORY_TENANT_QUANTUM = "tenant_quantum"

#: Events that advance a chain: the nodes the critical path runs through.
_ACTIONS = frozenset((EVENT_WALK_STEP, EVENT_SAMPLE))

def _ready_of(event: TraceEvent) -> float:
    """When the acting chain became ready again, bit-for-bit.

    Fleet steps carry the settle loop's own ``ready`` annotation; steps
    without a fleet re-derive it as ``ts + dur`` — the identical floats
    and operation the event loop used (``when + latency``).  Samples
    read local state and are free.
    """
    if event.name == EVENT_SAMPLE:
        return event.ts
    ready = event.attrs.get("ready")
    if ready is None:
        return event.ts + event.dur
    return ready


@dataclasses.dataclass(frozen=True)
class Segment:
    """One exclusive slice of the critical path's wall-clock tiling."""

    start: float
    end: float
    category: str
    chain: Optional[int] = None
    shard: Optional[int] = None
    tenant: Optional[str] = None

    @property
    def width(self) -> float:
        """Simulated seconds this slice covers."""
        return self.end - self.start


@dataclasses.dataclass
class Attribution:
    """100% of one run's simulated wall-clock, exclusively attributed.

    Attributes:
        wall_clock: The run clock the segments tile (``simulated_elapsed``).
        segments: The critical path, forward in time; a gap-free,
            overlap-free partition of ``[0, wall_clock]``.
        categories: Category -> total width (``math.fsum`` over segments).
        by_shard: Shard -> width of its binding round trips
            (``shard_latency`` + ``retry_backoff``).
        by_chain: Chain -> width of critical-path segments it owns.
        counts: Zero-cost and bookkeeping tallies (``samples``,
            ``free_steps``, ``steps``, ``actions``, ``prefetch_issued``,
            ``prefetch_landed``, ``path_segments``).
        latency_serial: Emission-order sum of billed query latencies —
            bit-identical to the interface's ``latency_spent``.
        latency_by_shard: Shard -> emission-order latency sum from fetch
            events — bit-identical to the per-shard books.
        tenant: The tenant filter this attribution was computed under.
    """

    wall_clock: float
    segments: List[Segment]
    categories: Dict[str, float]
    by_shard: Dict[int, float]
    by_chain: Dict[int, float]
    counts: Dict[str, int]
    latency_serial: float
    latency_by_shard: Dict[int, float]
    tenant: Optional[str] = None

    def total(self) -> float:
        """``math.fsum`` of all segment widths (reporting only — the
        exactness claim is the tiling, which :func:`reconcile_attribution`
        checks boundary by boundary)."""
        return math.fsum(segment.width for segment in self.segments)

    def to_dict(self) -> dict:
        """Plain-value summary for benchmark/report JSON."""
        return {
            "wall_clock": self.wall_clock,
            "total": self.total(),
            "categories": dict(self.categories),
            "by_shard": {str(k): v for k, v in self.by_shard.items()},
            "by_chain": {str(k): v for k, v in self.by_chain.items()},
            "counts": dict(self.counts),
            "latency_serial": self.latency_serial,
            "segments": len(self.segments),
        }


@dataclasses.dataclass
class ServiceAttribution:
    """A multi-tenant service run: the shared clock plus per-tenant paths.

    The service clock is serialized fleet occupancy, so its tiling is the
    quantum ledger itself: one ``tenant_quantum`` segment per tenant tick
    (zero-width ticks dropped), tiling ``[0, clock]`` exactly.  Inside
    each quantum the tenant's own scheduler clock ran; ``per_tenant``
    holds each tenant's inner critical-path attribution on that clock.
    """

    clock: float
    quanta: List[Segment]
    per_tenant: Dict[str, Attribution]
    by_tenant: Dict[str, float]

    def to_dict(self) -> dict:
        return {
            "clock": self.clock,
            "by_tenant": dict(self.by_tenant),
            "per_tenant": {t: a.to_dict() for t, a in self.per_tenant.items()},
            "quanta": len(self.quanta),
        }


def _decompose(
    event: TraceEvent, end: float, retries: Tuple[Tuple[int, float, float], ...]
) -> List[Segment]:
    """Tile ``[event.ts, end]`` for one critical action, zero-width free.

    ``end`` is the already-explained frontier (normally the action's own
    ready time); every boundary below is either a recorded float or the
    settle loop's exact arithmetic replayed, so consecutive segments meet
    bit-for-bit.
    """
    ts = event.ts
    chain = event.attrs.get("chain")
    tenant = event.attrs.get("tenant")
    if not end > ts:
        return []
    bursts = event.attrs.get("bursts")
    if not bursts:
        # A step with no dispatches that still left the chain waiting:
        # it walked onto a prefetched node whose round trip had not
        # landed yet (steps without a fleet land here too, with their
        # whole provider latency as the wait — there is no burst
        # structure to split, and no admission without a fleet).
        if event.attrs.get("ready") is None and event.dur > 0.0:
            return [
                Segment(ts, end, CATEGORY_SHARD_LATENCY, chain=chain, tenant=tenant)
            ]
        return [Segment(ts, end, CATEGORY_PREFETCH_WAIT, chain=chain, tenant=tenant)]
    # The binding burst: first entry achieving the settle loop's max —
    # identical iteration order, identical floats, identical ops.
    best = bursts[0]
    done = best[1] + best[2]
    for entry in bursts[1:]:
        candidate = entry[1] + entry[2]
        if candidate > done:
            done = candidate
            best = entry
    shard, start, lat, opened = best
    segments: List[Segment] = []
    wait_end = min(start, end)
    if wait_end > ts:
        category = CATEGORY_ADMISSION_WAIT if opened else CATEGORY_BURST_HOLD
        segments.append(Segment(ts, wait_end, category, chain=chain, shard=shard, tenant=tenant))
    trip_end = min(done, end)
    if trip_end > wait_end:
        backoff = 0.0
        for retry_shard, retry_latency, retry_backoff in retries:
            if retry_shard == shard and retry_latency == lat:
                backoff = min(retry_backoff, trip_end - wait_end)
                break
        split = trip_end - backoff
        if split > wait_end:
            segments.append(
                Segment(
                    wait_end,
                    split,
                    CATEGORY_SHARD_LATENCY,
                    chain=chain,
                    shard=shard,
                    tenant=tenant,
                )
            )
        if trip_end > split:
            segments.append(
                Segment(
                    split,
                    trip_end,
                    CATEGORY_RETRY_BACKOFF,
                    chain=chain,
                    shard=shard,
                    tenant=tenant,
                )
            )
    if end > trip_end:
        segments.append(
            Segment(trip_end, end, CATEGORY_PREFETCH_WAIT, chain=chain, tenant=tenant)
        )
    return segments


def _critical_path(
    actions: List[Tuple[TraceEvent, float, Tuple[Tuple[int, float, float], ...]]],
    wall: float,
) -> List[Segment]:
    """Walk backward from the wall clock, tiling as causes are found.

    At every frontier ``cursor`` the predecessor is the latest-emitted
    action whose ready time *equals* the frontier bit-for-bit (its
    completion is what allowed time to reach ``cursor``); when none
    matches exactly, the latest-ready earlier action bounds a
    ``scheduler_hold`` gap.  Emission order strictly decreases, so the
    walk terminates even through zero-width actions.
    """
    segments_rev: List[Segment] = []
    cursor = wall
    upper = len(actions)
    while cursor > 0.0:
        match = None
        hold = None
        for j in range(upper - 1, -1, -1):
            ready = actions[j][1]
            if ready == cursor:
                match = j
                break
            if ready < cursor and (hold is None or ready > actions[hold][1]):
                hold = j
        if match is None:
            if hold is None:
                segments_rev.append(Segment(0.0, cursor, CATEGORY_SCHEDULER_HOLD))
                cursor = 0.0
                break
            event, ready, _ = actions[hold]
            segments_rev.append(
                Segment(
                    ready,
                    cursor,
                    CATEGORY_SCHEDULER_HOLD,
                    chain=event.attrs.get("chain"),
                    tenant=event.attrs.get("tenant"),
                )
            )
            cursor = ready
            match = hold
        event, _ready, retries = actions[match]
        segments_rev.extend(reversed(_decompose(event, cursor, retries)))
        cursor = event.ts
        upper = match
    return list(reversed(segments_rev))


def attribute_run(
    source: Source,
    *,
    wall_clock: Optional[float] = None,
    tenant: Optional[str] = None,
) -> Attribution:
    """Attribute one run's simulated wall-clock to exclusive categories.

    Args:
        source: A recorder, or the event list a trace file read back.
        wall_clock: The run clock to tile.  Defaults to the latest
            action timestamp, which equals the scheduler's
            ``simulated_elapsed`` bit-for-bit (the clock only advances
            at recorded ticks).
        tenant: Restrict to one tenant's events — each tenant's
            scheduler owns its own event-time clock, so per-tenant
            attribution inside a shared service trace must slice first.

    Returns:
        The :class:`Attribution`; feed it to
        :func:`reconcile_attribution` to prove the tiling exact.
    """
    events = _events_of(source)
    actions: List[Tuple[TraceEvent, float, Tuple[Tuple[int, float, float], ...]]] = []
    pending_retries: List[Tuple[int, float, float]] = []
    last_fetch: Optional[Tuple[int, float]] = None
    latency_serial = 0.0
    latency_by_shard: Dict[int, float] = {}
    counts = {
        "actions": 0,
        "steps": 0,
        "samples": 0,
        "free_steps": 0,
        "prefetch_issued": 0,
        "prefetch_landed": 0,
    }
    for event in events:
        name = event.name
        if name == EVENT_FETCH:
            if not _matches_tenant(event, tenant):
                continue
            if not event.attrs.get("refused"):
                shard = event.attrs["shard"]
                latency = event.attrs["latency"]
                latency_by_shard[shard] = latency_by_shard.get(shard, 0.0) + latency
                last_fetch = (shard, latency)
        elif name == EVENT_RETRY:
            if not _matches_tenant(event, tenant) or last_fetch is None:
                continue
            pending_retries.append(
                (last_fetch[0], last_fetch[1], event.attrs.get("backoff", 0.0))
            )
        elif name == EVENT_QUERY:
            if _matches_tenant(event, tenant):
                latency_serial += event.attrs["latency"]
        elif name == EVENT_PREFETCH_ISSUE:
            # The prefetch consumed the pending fetches; they are not the
            # next step's own round trips.
            pending_retries.clear()
            if _matches_tenant(event, tenant):
                counts["prefetch_issued"] += 1
        elif name == EVENT_PREFETCH_LAND:
            if _matches_tenant(event, tenant):
                counts["prefetch_landed"] += 1
        elif name == EVENT_TENANT_TICK:
            pending_retries.clear()
        elif name in _ACTIONS:
            retries = tuple(pending_retries)
            pending_retries.clear()
            if not _matches_tenant(event, tenant):
                continue
            counts["actions"] += 1
            if name == EVENT_SAMPLE:
                counts["samples"] += 1
            else:
                counts["steps"] += 1
                if event.dur == 0.0 and not event.attrs.get("bursts"):
                    counts["free_steps"] += 1
            actions.append((event, _ready_of(event), retries))
    if wall_clock is None:
        wall_clock = max((a[0].ts for a in actions), default=0.0)
    segments = _critical_path(actions, wall_clock)
    counts["path_segments"] = len(segments)
    categories: Dict[str, float] = {}
    by_shard: Dict[int, float] = {}
    by_chain: Dict[int, float] = {}
    grouped: Dict[str, List[float]] = {}
    shard_grouped: Dict[int, List[float]] = {}
    chain_grouped: Dict[int, List[float]] = {}
    for segment in segments:
        grouped.setdefault(segment.category, []).append(segment.width)
        if segment.shard is not None:
            shard_grouped.setdefault(segment.shard, []).append(segment.width)
        if segment.chain is not None:
            chain_grouped.setdefault(segment.chain, []).append(segment.width)
    for category, widths in grouped.items():
        categories[category] = math.fsum(widths)
    for shard, widths in shard_grouped.items():
        by_shard[shard] = math.fsum(widths)
    for chain, widths in chain_grouped.items():
        by_chain[chain] = math.fsum(widths)
    return Attribution(
        wall_clock=wall_clock,
        segments=segments,
        categories=categories,
        by_shard=by_shard,
        by_chain=by_chain,
        counts=counts,
        latency_serial=latency_serial,
        latency_by_shard=latency_by_shard,
        tenant=tenant,
    )


def reconcile_attribution(
    attribution: Attribution,
    *,
    wall_clock: Optional[float] = None,
    telemetry=None,
) -> List[str]:
    """Prove an attribution exact; list every violation.

    Checks, all bit-for-bit:

    * the segments partition ``[0, wall_clock]`` — first starts at 0.0,
      every boundary meets its neighbour exactly, the last ends at the
      wall (no float-sum tolerance anywhere);
    * the category/shard/chain totals re-derive from the segments;
    * with ``telemetry``: the serial latency sum matches
      ``latency_spent`` and (unfiltered runs) the per-shard sums match
      the books — the same contract :func:`repro.obs.audit.reconcile_run`
      enforces for the bill.

    Returns:
        Problem descriptions; empty when the attribution reconciles.
    """
    problems: List[str] = []
    wall = attribution.wall_clock
    if wall_clock is not None and wall != wall_clock:
        problems.append(
            f"wall_clock: attribution tiles {wall!r}, run clock is {wall_clock!r}"
        )
    segments = attribution.segments
    if wall > 0.0:
        if not segments:
            problems.append(f"no segments tile the positive wall clock {wall!r}")
        else:
            if segments[0].start != 0.0:
                problems.append(
                    f"tiling starts at {segments[0].start!r}, not 0.0"
                )
            if segments[-1].end != wall:
                problems.append(
                    f"tiling ends at {segments[-1].end!r}, wall clock is {wall!r}"
                )
            previous = segments[0]
            if previous.end < previous.start:
                problems.append(f"segment 0 has negative width: {previous!r}")
            for index, segment in enumerate(segments[1:], start=1):
                if segment.start != previous.end:
                    problems.append(
                        f"segment {index} starts at {segment.start!r}, "
                        f"previous ended at {previous.end!r}"
                    )
                if segment.end < segment.start:
                    problems.append(f"segment {index} has negative width: {segment!r}")
                previous = segment
    elif segments:
        problems.append("segments present under a zero wall clock")
    derived: Dict[str, List[float]] = {}
    for segment in segments:
        derived.setdefault(segment.category, []).append(segment.width)
    recomputed = {c: math.fsum(widths) for c, widths in derived.items()}
    if recomputed != attribution.categories:
        problems.append(
            f"categories: segments re-derive {recomputed!r}, "
            f"attribution says {attribution.categories!r}"
        )
    if telemetry is not None:
        if attribution.latency_serial != telemetry.latency_spent:
            problems.append(
                f"latency_spent: events sum to {attribution.latency_serial!r}, "
                f"interface spent {telemetry.latency_spent!r}"
            )
        shards = getattr(telemetry, "shards", None)
        if shards is not None and attribution.tenant is None:
            for shard in sorted(shards):
                replayed = attribution.latency_by_shard.get(shard, 0.0)
                booked = shards[shard].latency_spent
                if replayed != booked:
                    problems.append(
                        f"shard {shard} latency: events replay {replayed!r}, "
                        f"books say {booked!r}"
                    )
    return problems


def attribute_service(source: Source, *, clock: Optional[float] = None) -> ServiceAttribution:
    """Attribute a multi-tenant service run: quantum ledger + inner paths.

    The outer tiling is exact by construction: each ``tenant_tick``
    records its pre-charge timestamp *and* the absolute post-charge
    clock, and consecutive ticks read the same clock variable — so the
    quanta meet bit-for-bit with no re-summation.  Inner attributions
    run per tenant on each tenant's own scheduler clock.
    """
    events = _events_of(source)
    quanta: List[Segment] = []
    tenants: List[str] = []
    last_clock = 0.0
    for event in events:
        if event.name != EVENT_TENANT_TICK:
            continue
        tenant = event.attrs.get("tenant")
        if tenant not in tenants:
            tenants.append(tenant)
        end = event.attrs.get("clock")
        if end is None:
            end = event.ts + event.dur
        last_clock = end
        if end > event.ts:
            quanta.append(
                Segment(event.ts, end, CATEGORY_TENANT_QUANTUM, tenant=tenant)
            )
    for event in events:
        tenant = event.attrs.get("tenant")
        if event.name in _ACTIONS and tenant is not None and tenant not in tenants:
            tenants.append(tenant)
    per_tenant = {t: attribute_run(events, tenant=t) for t in tenants}
    grouped: Dict[str, List[float]] = {}
    for segment in quanta:
        grouped.setdefault(segment.tenant, []).append(segment.width)
    by_tenant = {t: math.fsum(widths) for t, widths in grouped.items()}
    return ServiceAttribution(
        clock=clock if clock is not None else last_clock,
        quanta=quanta,
        per_tenant=per_tenant,
        by_tenant=by_tenant,
    )


def reconcile_service(
    attribution: ServiceAttribution, *, clock: Optional[float] = None
) -> List[str]:
    """Prove a service attribution exact at both levels.

    The quanta must partition ``[0, clock]`` bit-for-bit, and every
    tenant's inner attribution must itself reconcile (its problems are
    returned prefixed with the tenant label).
    """
    problems: List[str] = []
    target = clock if clock is not None else attribution.clock
    quanta = attribution.quanta
    if target > 0.0:
        if not quanta:
            problems.append(f"no quanta tile the positive service clock {target!r}")
        else:
            if quanta[0].start != 0.0:
                problems.append(f"quanta start at {quanta[0].start!r}, not 0.0")
            if quanta[-1].end != target:
                problems.append(
                    f"quanta end at {quanta[-1].end!r}, service clock is {target!r}"
                )
            previous = quanta[0]
            for index, segment in enumerate(quanta[1:], start=1):
                if segment.start != previous.end:
                    problems.append(
                        f"quantum {index} starts at {segment.start!r}, "
                        f"previous ended at {previous.end!r}"
                    )
                previous = segment
    elif quanta:
        problems.append("quanta present under a zero service clock")
    for tenant, inner in attribution.per_tenant.items():
        for problem in reconcile_attribution(inner):
            problems.append(f"tenant {tenant}: {problem}")
    return problems


@dataclasses.dataclass
class CausalDag:
    """The reconstructed dependency DAG over trace events.

    Attributes:
        nodes: Event sequence number -> event.
        edges: ``(from_seq, to_seq, kind)`` triples, where the *from*
            event causally precedes the *to* event.  Kinds:
            ``chain_order`` (an action follows its chain's previous
            action), ``fetch`` (a step/prefetch depends on the shard
            fetches it issued), ``admission`` (a burst follows the
            previous burst's admission slot on its shard), ``prefetch``
            (a landing follows its issue), ``quantum`` (an action
            committed inside a tenant's admission quantum).
    """

    nodes: Dict[int, TraceEvent]
    edges: List[Tuple[int, int, str]]

    def edges_of(self, kind: str) -> List[Tuple[int, int, str]]:
        """All edges of one kind, in construction order."""
        return [edge for edge in self.edges if edge[2] == kind]

    def parents_of(self, seq: int) -> List[int]:
        """Sequence numbers of the events ``seq`` causally depends on."""
        return [src for src, dst, _kind in self.edges if dst == seq]

    def summary(self) -> dict:
        """Node count plus edge counts by kind."""
        kinds: Dict[str, int] = {}
        for _src, _dst, kind in self.edges:
            kinds[kind] = kinds.get(kind, 0) + 1
        return {"nodes": len(self.nodes), "edges": kinds}


def build_dag(source: Source) -> CausalDag:
    """Reconstruct the causal DAG from an event stream.

    Emission order carries the correlation the events do not spell out:
    a step's fetches are recorded immediately before the step (likewise
    a prefetch's), bursts on one shard share its admission horizon in
    order, and a tenant tick closes over the actions since the previous
    tick.  The DAG is explanatory structure — attribution above never
    depends on it.
    """
    events = _events_of(source)
    nodes = {event.seq: event for event in events}
    edges: List[Tuple[int, int, str]] = []
    pending_fetches: List[int] = []
    last_action_of: Dict[Tuple[Optional[str], int], int] = {}
    last_burst_of: Dict[int, int] = {}
    open_issues: Dict[Tuple[Optional[int], object], int] = {}
    pending_actions: List[int] = []
    for event in events:
        name = event.name
        if name == EVENT_FETCH:
            pending_fetches.append(event.seq)
        elif name == EVENT_BURST_DISPATCH:
            shard = event.attrs.get("shard")
            previous = last_burst_of.get(shard)
            if previous is not None:
                edges.append((previous, event.seq, "admission"))
            last_burst_of[shard] = event.seq
        elif name == EVENT_PREFETCH_ISSUE:
            for fetch_seq in pending_fetches:
                edges.append((fetch_seq, event.seq, "fetch"))
            pending_fetches.clear()
            open_issues[(event.attrs.get("chain"), event.attrs.get("user"))] = event.seq
        elif name == EVENT_PREFETCH_LAND:
            issue = open_issues.pop(
                (event.attrs.get("chain"), event.attrs.get("user")), None
            )
            if issue is not None:
                edges.append((issue, event.seq, "prefetch"))
        elif name == EVENT_TENANT_TICK:
            tenant = event.attrs.get("tenant")
            for action_seq in pending_actions:
                action = nodes[action_seq]
                if action.attrs.get("tenant") == tenant:
                    edges.append((action_seq, event.seq, "quantum"))
            pending_actions.clear()
        elif name in _ACTIONS:
            for fetch_seq in pending_fetches:
                edges.append((fetch_seq, event.seq, "fetch"))
            pending_fetches.clear()
            key = (event.attrs.get("tenant"), event.attrs.get("chain"))
            previous = last_action_of.get(key)
            if previous is not None:
                edges.append((previous, event.seq, "chain_order"))
            last_action_of[key] = event.seq
            pending_actions.append(event.seq)
    return CausalDag(nodes=nodes, edges=edges)
