"""Trace exporters: JSONL event logs and Chrome ``trace_event`` timelines.

Two formats, two audiences:

* :func:`export_jsonl` / :func:`read_jsonl` — the machine-readable log.
  Every line goes through the PR-2 snapshot codec
  (:func:`~repro.datastore.snapshot.encode_value`), so arbitrary
  hashable user ids, exact floats, and the
  :class:`~repro.obs.trace.TraceEvent` records themselves round-trip
  type-faithfully; a read-back trace feeds the reconciliation audit
  (:mod:`repro.obs.audit`) byte-for-byte.
* :func:`export_chrome_trace` — the human-readable timeline.  The JSON
  it writes opens directly in Perfetto (https://ui.perfetto.dev) or
  ``chrome://tracing``: drag the file in and every chain, shard, and
  tenant gets its own named lane, with spans on the simulated clock
  (microsecond units, 1 simulated second = 1e6 µs).
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional, Tuple

from repro.datastore.snapshot import SnapshotError, decode_value, encode_value
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Source, TraceEvent, TraceRecorder, _events_of, _matches_tenant

#: Format marker written into every JSONL trace header.
TRACE_FORMAT = "repro-trace"

#: Version of the JSONL layout; bumped on incompatible changes.
TRACE_VERSION = 1


def filter_events(
    events: Iterable[TraceEvent],
    *,
    tenant: Optional[str] = None,
    shard: Optional[int] = None,
    chain: Optional[int] = None,
) -> List[TraceEvent]:
    """Slice a trace down to one tenant's / shard's / chain's events.

    Filters are conjunctive and strict: a filtered dimension keeps only
    events that *carry* the attribute with the requested value, so the
    slice is exactly the lane a Perfetto view would show.  ``None``
    leaves a dimension unfiltered.
    """
    kept = []
    for event in events:
        if not _matches_tenant(event, tenant):
            continue
        if shard is not None and event.attrs.get("shard") != shard:
            continue
        if chain is not None and event.attrs.get("chain") != chain:
            continue
        kept.append(event)
    return kept


def export_jsonl(
    recorder: TraceRecorder,
    path: "str | os.PathLike",
    *,
    tenant: Optional[str] = None,
    shard: Optional[int] = None,
    chain: Optional[int] = None,
) -> int:
    """Write a recorder's events + metrics as one atomic JSONL file.

    Layout: a header object, one codec-encoded line per event (JSON
    arrays — the codec's tagged form), and a footer object carrying the
    metrics registry state.  Returns the number of events written.

    ``tenant`` / ``shard`` / ``chain`` slice the event lines via
    :func:`filter_events`; the header's event count reflects the slice
    and the metrics footer stays complete (registry state is global —
    a slice of a histogram is not a histogram).
    """
    target = os.fspath(path)
    events = recorder.events
    if tenant is not None or shard is not None or chain is not None:
        events = filter_events(events, tenant=tenant, shard=shard, chain=chain)
    header = {"format": TRACE_FORMAT, "version": TRACE_VERSION, "events": len(events)}
    tmp = target + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for event in events:
            fh.write(json.dumps(encode_value(event), sort_keys=True) + "\n")
        footer = {"metrics": encode_value(recorder.metrics.state_dict())}
        fh.write(json.dumps(footer, sort_keys=True) + "\n")
    os.replace(tmp, target)
    return len(events)


def read_jsonl(path: "str | os.PathLike") -> Tuple[List[TraceEvent], MetricsRegistry]:
    """Load a :func:`export_jsonl` file back into events + metrics.

    Raises:
        SnapshotError: On a missing, truncated, or malformed trace file.
    """
    source = os.fspath(path)
    if not os.path.exists(source):
        raise SnapshotError(f"trace file {source} does not exist")
    with open(source) as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise SnapshotError(f"trace file {source} is empty")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"trace file {source} has a corrupt header") from exc
    if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
        raise SnapshotError(f"trace file {source} is not a {TRACE_FORMAT} file")
    if header.get("version") != TRACE_VERSION:
        raise SnapshotError(
            f"trace file {source} has version {header.get('version')!r}; "
            f"this build reads version {TRACE_VERSION}"
        )
    events: List[TraceEvent] = []
    metrics = MetricsRegistry()
    saw_footer = False
    for raw in lines[1:]:
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise SnapshotError(f"trace file {source} has a corrupt line") from exc
        if isinstance(record, dict):
            if "metrics" not in record:
                raise SnapshotError(f"trace file {source} has a malformed footer")
            metrics.load_state(decode_value(record["metrics"]))
            saw_footer = True
            continue
        decoded = decode_value(record)
        if not isinstance(decoded, TraceEvent):
            raise SnapshotError(f"trace file {source} holds a non-event line: {decoded!r}")
        events.append(decoded)
    if len(events) != header.get("events"):
        raise SnapshotError(
            f"trace file {source} is truncated: header promises "
            f"{header.get('events')} events, found {len(events)}"
        )
    if not saw_footer:
        raise SnapshotError(f"trace file {source} is truncated: missing metrics footer")
    return events, metrics


def _lane_of(event: TraceEvent) -> Tuple[str, str]:
    """Map an event to its timeline lane: chain, else shard, else tenant."""
    attrs = event.attrs
    if "chain" in attrs:
        return ("chain", str(attrs["chain"]))
    if "shard" in attrs:
        return ("shard", str(attrs["shard"]))
    if "tenant" in attrs:
        return ("tenant", str(attrs["tenant"]))
    return ("interface", "api")


def export_chrome_trace(
    source: Source,
    path: "Optional[str | os.PathLike]" = None,
    *,
    tenant: Optional[str] = None,
    shard: Optional[int] = None,
    chain: Optional[int] = None,
) -> dict:
    """Render events in Chrome ``trace_event`` JSON (Perfetto-ready).

    Spans become ``ph="X"`` complete events and instantaneous marks
    ``ph="i"`` instants; one thread lane per chain/shard/tenant (named
    via ``ph="M"`` metadata), timestamps in microseconds of simulated
    time.  Returns the document; also writes it to ``path`` when given.
    ``tenant`` / ``shard`` / ``chain`` slice the timeline to matching
    lanes via :func:`filter_events`.
    """
    events = _events_of(source)
    if tenant is not None or shard is not None or chain is not None:
        events = filter_events(events, tenant=tenant, shard=shard, chain=chain)
    lanes: Dict[Tuple[str, str], int] = {}
    rows: List[dict] = []
    for event in events:
        lane = _lane_of(event)
        tid = lanes.get(lane)
        if tid is None:
            tid = lanes[lane] = len(lanes) + 1
        row = {
            "name": event.name,
            "pid": 1,
            "tid": tid,
            "ts": event.ts * 1e6,
            "args": dict(event.attrs, seq=event.seq),
        }
        if event.dur > 0.0:
            row["ph"] = "X"
            row["dur"] = event.dur * 1e6
        else:
            row["ph"] = "i"
            row["s"] = "t"
        rows.append(row)
    meta = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "repro simulated run"},
        }
    ]
    for (kind, label), tid in lanes.items():
        meta.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": f"{kind} {label}"},
            }
        )
    document = {"traceEvents": meta + rows, "displayTimeUnit": "ms"}
    if path is not None:
        target = os.fspath(path)
        tmp = target + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(document, fh, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, target)
    return document
