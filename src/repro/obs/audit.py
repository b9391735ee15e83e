"""Trace reconciliation: replay the event log against the §II-B bill.

A trace is only worth trusting if it is *complete*: every billed query,
every refusal, every shard round trip must appear, or the timeline lies
about what the run cost.  This module replays a recorded (or re-read)
event stream and re-derives the bill from events alone:

* ``query_cost`` — the §II-B measure — is the number of distinct users
  across ``query`` and ``refusal`` events (a refusal is billed once,
  exactly like a served query; cache hits emit no event and cost
  nothing);
* ``latency_spent`` is the sum of the ``latency`` attribute over
  ``query`` events, accumulated in emission order so the float total is
  bit-identical to the interface's own serial accumulation;
* cache hits/misses come from the recorder's counters (the hot cache
  lane is counter-only by design — see
  :meth:`~repro.obs.trace.TraceRecorder.count`);
* per-shard books re-derive from ``shard_fetch`` / ``retry`` /
  ``burst_dispatch`` / ``prefetch_issue`` events.

Every check compares against the live accounting
(:class:`~repro.interface.telemetry.InterfaceTelemetry` or any object
with the same fields — the module never imports the interface layer at
runtime, so ``repro.obs`` stays import-light) and returns a list of
human-readable mismatch strings.  An empty list *is* the audit passing.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    EVENT_BURST_DISPATCH,
    EVENT_FETCH,
    EVENT_PREFETCH_ISSUE,
    EVENT_QUERY,
    EVENT_REFUSAL,
    Source,
    TraceRecorder,
    _events_of,
    _matches_tenant,
)

__all__ = ["reconcile_interface", "reconcile_fleet", "reconcile_run"]


def reconcile_interface(
    source: Source,
    telemetry,
    *,
    metrics: Optional[MetricsRegistry] = None,
    tenant: Optional[str] = None,
) -> List[str]:
    """Re-derive one interface's bill from events; list every mismatch.

    Args:
        source: A recorder, or the event list a trace file read back.
        telemetry: The live accounting to check against — an
            :class:`~repro.interface.telemetry.InterfaceTelemetry` or
            any object with ``query_cost`` / ``latency_spent`` /
            ``cache_hits`` / ``cache_misses`` fields (duck-typed).
        metrics: The registry holding the cache counters.  Defaults to
            the recorder's own when ``source`` is a recorder; required
            when replaying a bare event list read from a file.
        tenant: Restrict the replay to one tenant's events and read the
            ``tenant.<label>.*`` counters instead of ``interface.*`` —
            how a shared service trace is audited per tenant.

    Returns:
        Mismatch descriptions; empty when the trace reproduces the bill.
    """
    events = _events_of(source)
    if metrics is None and isinstance(source, TraceRecorder):
        metrics = source.metrics
    if metrics is None:
        raise ValueError("replaying a bare event list needs the metrics registry")
    billed = set()
    latency = 0.0
    for event in events:
        if not _matches_tenant(event, tenant):
            continue
        if event.name == EVENT_QUERY:
            billed.add(event.attrs["user"])
            latency += event.attrs["latency"]
        elif event.name == EVENT_REFUSAL:
            billed.add(event.attrs["user"])
    problems: List[str] = []
    if len(billed) != telemetry.query_cost:
        problems.append(
            f"query_cost: events bill {len(billed)} unique users, "
            f"interface billed {telemetry.query_cost}"
        )
    if latency != telemetry.latency_spent:
        problems.append(
            f"latency_spent: events sum to {latency!r}, "
            f"interface spent {telemetry.latency_spent!r}"
        )
    prefix = "interface" if tenant is None else f"tenant.{tenant}"
    hits = metrics.counter_value(prefix + ".cache_hits")
    misses = metrics.counter_value(prefix + ".cache_misses")
    if hits != telemetry.cache_hits:
        problems.append(
            f"cache_hits: counter says {hits}, interface served {telemetry.cache_hits}"
        )
    if misses != telemetry.cache_misses:
        problems.append(
            f"cache_misses: counter says {misses}, "
            f"interface consulted the provider {telemetry.cache_misses} times"
        )
    return problems


def reconcile_fleet(
    source: Source,
    shards: Dict[int, object],
) -> List[str]:
    """Re-derive per-shard books from events; list every mismatch.

    Args:
        source: A recorder or event list covering the fleet's fetches.
        shards: The live per-shard breakdown —
            ``InterfaceTelemetry.shards`` or any mapping of shard index
            to an object with ``queries`` / ``latency_spent`` /
            ``retries`` / ``disrupted`` / ``bursts`` / ``prefetched``
            fields.  ``max_in_flight`` is deliberately not replayed:
            burst depth is a high-water mark of scheduler state, not a
            billing quantity.

    Returns:
        Mismatch descriptions; empty when the trace reproduces the books.
    """
    events = _events_of(source)
    queries: Dict[int, int] = {}
    latency: Dict[int, float] = {}
    retries: Dict[int, int] = {}
    disrupted: Dict[int, int] = {}
    bursts: Dict[int, int] = {}
    prefetched: Dict[int, int] = {}
    for event in events:
        if event.name == EVENT_FETCH:
            shard = event.attrs["shard"]
            queries[shard] = queries.get(shard, 0) + 1
            if not event.attrs.get("refused"):
                latency[shard] = latency.get(shard, 0.0) + event.attrs["latency"]
                extra = max(0, event.attrs["attempts"] - 1)
                if extra:
                    retries[shard] = retries.get(shard, 0) + extra
                if event.attrs.get("disrupted"):
                    disrupted[shard] = disrupted.get(shard, 0) + 1
        elif event.name == EVENT_BURST_DISPATCH:
            shard = event.attrs["shard"]
            bursts[shard] = bursts.get(shard, 0) + 1
        elif event.name == EVENT_PREFETCH_ISSUE:
            shard = event.attrs["shard"]
            prefetched[shard] = prefetched.get(shard, 0) + event.attrs.get("fetches", 1)
    problems: List[str] = []
    for shard in sorted(shards):
        row = shards[shard]
        checks = (
            ("queries", queries.get(shard, 0), row.queries),
            ("latency_spent", latency.get(shard, 0.0), row.latency_spent),
            ("retries", retries.get(shard, 0), row.retries),
            ("disrupted", disrupted.get(shard, 0), row.disrupted),
            ("bursts", bursts.get(shard, 0), row.bursts),
            ("prefetched", prefetched.get(shard, 0), row.prefetched),
        )
        for field, replayed, booked in checks:
            if replayed != booked:
                problems.append(
                    f"shard {shard} {field}: events replay to {replayed!r}, "
                    f"books say {booked!r}"
                )
    stray = set(queries) | set(bursts) | set(prefetched)
    for shard in sorted(stray - set(shards)):
        problems.append(f"shard {shard}: events mention a shard the books never saw")
    return problems


def reconcile_run(
    source: Source,
    telemetry,
    *,
    metrics: Optional[MetricsRegistry] = None,
    tenant: Optional[str] = None,
) -> List[str]:
    """Full audit: interface bill plus per-shard books in one call.

    The shard books are only replayed when ``telemetry.shards`` is set
    and no ``tenant`` filter is active (shard books belong to the shared
    fleet; per-tenant shard attribution lives in the books' ``tenants``
    column, audited by the service-level tests directly).
    """
    problems = reconcile_interface(source, telemetry, metrics=metrics, tenant=tenant)
    shards = getattr(telemetry, "shards", None)
    if shards is not None and tenant is None:
        problems.extend(reconcile_fleet(source, shards))
    return problems
