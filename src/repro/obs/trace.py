"""Deterministic structured event traces over the simulated clocks.

A :class:`TraceRecorder` is the collection point every instrumented layer
(:class:`~repro.interface.api.RestrictedSocialAPI`,
:class:`~repro.walks.scheduler.EventDrivenWalkers`,
:class:`~repro.planning.planner.DispatchPlanner`,
:class:`~repro.fleet.provider.ShardedProvider`,
:class:`~repro.service.service.SamplingService`) writes into when — and
only when — a recorder is attached.  The hooks are zero-allocation
no-ops otherwise: every instrumented hot path guards with
``if self._recorder is not None`` before constructing a single object,
exactly like the fleet's existing ``trace_dispatches`` flag.

Events are spans on *simulated* time: each carries the timestamp of the
clock owning its layer (the interface's :class:`SimulatedClock` for
``query``/``cache`` events, the scheduler's event time for
``walk_step``/``burst_dispatch``/``prefetch_*``, the service clock for
``tenant_tick``/``hibernate``/``wake``), a simulated duration, and
chain/tenant/shard/engine attributes.  Because every clock is
deterministic, two identical runs produce byte-identical traces — which
is what makes a trace a *checkable* artifact: replaying it must
reproduce the §II-B bill exactly (see :mod:`repro.obs.audit`).

The recorder rides snapshots: :class:`TraceEvent` registers with the
PR-2 codec, and ``RestrictedSocialAPI.state_dict`` embeds the attached
recorder's state, so a checkpointed in-flight trace resumes bit-for-bit
in a fresh process.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List, Optional, Union

from repro.datastore.snapshot import register_codec
from repro.obs.metrics import MetricsRegistry

#: Canonical event names the instrumented layers emit.
EVENT_QUERY = "query"
EVENT_REFUSAL = "refusal"
EVENT_LIMITER_WAIT = "limiter_wait"
EVENT_WALK_STEP = "walk_step"
EVENT_BURST_DISPATCH = "burst_dispatch"
EVENT_ADMISSION_WAIT = "admission_wait"
EVENT_PREFETCH_ISSUE = "prefetch_issue"
EVENT_PREFETCH_LAND = "prefetch_land"
EVENT_FETCH = "shard_fetch"
EVENT_RETRY = "retry"
EVENT_TENANT_TICK = "tenant_tick"
EVENT_HIBERNATE = "hibernate"
EVENT_WAKE = "wake"
EVENT_SAMPLE = "sample"
EVENT_SLO_BREACH = "slo_breach"


@dataclasses.dataclass
class TraceEvent:
    """One span on a simulated timeline.

    Deliberately *not* frozen: a frozen dataclass pays one
    ``object.__setattr__`` per field on construction, and events are
    built on the billed-fetch path — treat instances as immutable by
    convention instead.

    Attributes:
        seq: Recorder-assigned sequence number (total order of emission,
            which timestamps alone cannot give — layers run on distinct
            simulated clocks).
        name: Event kind (one of the ``EVENT_*`` constants).
        ts: Simulated start time on the emitting layer's clock.
        dur: Simulated duration (0.0 for instantaneous marks).
        attrs: Chain/tenant/shard/engine/user attributes.
    """

    seq: int
    name: str
    ts: float
    dur: float
    attrs: dict


class TraceRecorder:
    """Append-only event sink plus a live :class:`MetricsRegistry`.

    One recorder can serve a whole stack — interface, scheduler, planner,
    fleet, and service hooks all write into the same event list, so the
    exported timeline interleaves layers by emission order.

    Attributes:
        metrics: The registry instrumented layers stream counters,
            gauges, and simulated-time series into.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self._events: List[TraceEvent] = []
        self._seq = 0
        self._clock_hint = 0.0
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    @property
    def events(self) -> List[TraceEvent]:
        """All recorded events, in emission order."""
        return self._events

    def __len__(self) -> int:
        return len(self._events)

    def record(self, name: str, ts: float, dur: float = 0.0, **attrs) -> TraceEvent:
        """Append one event and return it."""
        event = TraceEvent(seq=self._seq, name=name, ts=ts, dur=dur, attrs=attrs)
        self._seq += 1
        self._events.append(event)
        return event

    def count(self, name: str, amount: float = 1) -> None:
        """Bump a metrics counter — the event-free cached-step hook.

        Cache hits on ``fetch_seq`` use this instead of :meth:`record`:
        a counter increment keeps the recorder-on overhead within the
        CI-gated 10% budget on the serial walk microbench, and the
        reconciliation audit only needs hit/miss *counts*, not spans.
        """
        self.metrics.counter(name).inc(amount)

    def hint_clock(self, ts: float) -> None:
        """Publish the current simulated time for clockless layers.

        :class:`~repro.fleet.provider.ShardedProvider` owns no clock —
        the interface stamps the time just before delegating a fetch, so
        the fleet's ``shard_fetch``/``retry`` events land at the exact
        simulated instant the interface issued them.
        """
        self._clock_hint = ts

    @property
    def hinted_clock(self) -> float:
        """The most recently hinted simulated time."""
        return self._clock_hint

    def events_named(self, *names: str) -> List[TraceEvent]:
        """All events whose name is in ``names``, in emission order."""
        wanted = frozenset(names)
        return [event for event in self._events if event.name in wanted]

    def summary(self) -> dict:
        """Event counts by name plus the metrics counters — a quick look."""
        by_name: dict = {}
        for event in self._events:
            by_name[event.name] = by_name.get(event.name, 0) + 1
        return {
            "events": len(self._events),
            "by_name": by_name,
            "counters": dict(self.metrics.snapshot()["counters"]),
        }

    def state_dict(self) -> dict:
        """Codec-safe full state: events, sequence, hint, metrics."""
        return {
            "seq": self._seq,
            "clock_hint": self._clock_hint,
            "events": tuple(self._events),
            "metrics": self.metrics.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` payload, replacing all state."""
        self._seq = state["seq"]
        self._clock_hint = state.get("clock_hint", 0.0)
        self._events = list(state["events"])
        self.metrics.load_state(state.get("metrics", {}))


#: What the analyses read: a live recorder or the event list of a trace file.
Source = Union[TraceRecorder, Iterable[TraceEvent]]


def _events_of(source: Source) -> List[TraceEvent]:
    if isinstance(source, TraceRecorder):
        return list(source.events)
    return list(source)


def _matches_tenant(event: TraceEvent, tenant: Optional[str]) -> bool:
    return tenant is None or event.attrs.get("tenant") == tenant


register_codec(
    "x:trace-event",
    TraceEvent,
    lambda event: {
        "seq": event.seq,
        "name": event.name,
        "ts": event.ts,
        "dur": event.dur,
        "attrs": dict(event.attrs),
    },
    lambda payload: TraceEvent(**payload),
)
