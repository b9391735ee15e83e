"""Tests for the JSONL and Chrome ``trace_event`` exporters (ISSUE 9/10)."""

import json

import pytest

from repro.errors import SnapshotError
from repro.obs import (
    EVENT_FETCH,
    EVENT_QUERY,
    EVENT_TENANT_TICK,
    EVENT_WALK_STEP,
    TRACE_FORMAT,
    TRACE_VERSION,
    TraceRecorder,
    export_chrome_trace,
    export_jsonl,
    filter_events,
    read_jsonl,
)


def _sample_recorder():
    recorder = TraceRecorder()
    recorder.record(EVENT_QUERY, 0.5, 1.0, user=("node", 7), latency=0.5)
    recorder.record(EVENT_WALK_STEP, 1.5, 0.5, chain=0)
    recorder.record(EVENT_FETCH, 0.5, shard=1, latency=0.5, attempts=1, disrupted=False)
    recorder.record(EVENT_TENANT_TICK, 2.0, 1.0, tenant="alice")
    recorder.count("interface.cache_hits")
    recorder.metrics.series("walk.r_hat").observe(1.0, 1.2)
    return recorder


class TestJsonl:
    def test_round_trip_is_exact(self, tmp_path):
        recorder = _sample_recorder()
        path = tmp_path / "trace.jsonl"
        assert export_jsonl(recorder, path) == 4
        events, metrics = read_jsonl(path)
        assert events == recorder.events
        assert events[0].attrs["user"] == ("node", 7)  # codec keeps tuples
        assert metrics.state_dict() == recorder.metrics.state_dict()

    def test_list_runs_in_events_read_back_from_column_blocks(self, tmp_path):
        # The trace format keeps its version: its reader decodes a list
        # run's column block like the per-member form older files carry.
        recorder = _sample_recorder()
        users = [("u", i) for i in range(9)]
        recorder.record(EVENT_WALK_STEP, 3.0, 0.5, chain=1, path=list(range(10)), users=users)
        path = tmp_path / "trace.jsonl"
        export_jsonl(recorder, path)
        assert json.loads(path.read_text().splitlines()[0])["version"] == TRACE_VERSION == 1
        assert '["L", ["i", [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]]]' in path.read_text()
        events, _ = read_jsonl(path)
        assert events == recorder.events
        assert type(events[-1].attrs["users"]) is list and events[-1].attrs["users"][0] == ("u", 0)

    def test_header_declares_format_and_count(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        export_jsonl(_sample_recorder(), path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"format": TRACE_FORMAT, "version": TRACE_VERSION, "events": 4}

    def test_export_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        export_jsonl(_sample_recorder(), a)
        export_jsonl(_sample_recorder(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(SnapshotError, match="does not exist"):
            read_jsonl(tmp_path / "absent.jsonl")

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(SnapshotError, match="empty"):
            read_jsonl(path)

    def test_corrupt_header_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(SnapshotError, match="corrupt header"):
            read_jsonl(path)

    def test_foreign_format_raises(self, tmp_path):
        path = tmp_path / "foreign.jsonl"
        path.write_text(json.dumps({"format": "other"}) + "\n")
        with pytest.raises(SnapshotError, match="is not a"):
            read_jsonl(path)

    def test_future_version_raises(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps({"format": TRACE_FORMAT, "version": TRACE_VERSION + 1, "events": 0})
            + "\n"
        )
        with pytest.raises(SnapshotError, match="version"):
            read_jsonl(path)

    def test_truncated_events_raise(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        export_jsonl(_sample_recorder(), path)
        lines = path.read_text().splitlines()
        # Drop one event line but keep the footer: the header's promised
        # count no longer matches.
        path.write_text("\n".join(lines[:2] + lines[3:]) + "\n")
        with pytest.raises(SnapshotError, match="truncated"):
            read_jsonl(path)

    def test_missing_footer_raises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        export_jsonl(_sample_recorder(), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(SnapshotError, match="missing metrics footer"):
            read_jsonl(path)

    def test_corrupt_event_line_raises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        export_jsonl(_sample_recorder(), path)
        lines = path.read_text().splitlines()
        lines[1] = "{broken"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SnapshotError, match="corrupt line"):
            read_jsonl(path)

    def test_malformed_footer_raises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        export_jsonl(_sample_recorder(), path)
        lines = path.read_text().splitlines()
        # A dict line that is not a metrics footer: a truncated write
        # that cut the footer mid-object would decode like this.
        lines[-1] = json.dumps({"metrcs": {}})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SnapshotError, match="malformed footer"):
            read_jsonl(path)


class TestFilteredExports:
    def test_filter_events_is_conjunctive_and_strict(self):
        recorder = _sample_recorder()
        events = recorder.events
        assert filter_events(events) == list(events)
        chain0 = filter_events(events, chain=0)
        assert [e.name for e in chain0] == [EVENT_WALK_STEP]
        # Events that lack a filtered attr are dropped, not passed through.
        assert filter_events(events, tenant="alice", chain=0) == []
        assert filter_events(events, tenant="nobody") == []
        shard1 = filter_events(events, shard=1)
        assert [e.attrs["shard"] for e in shard1] == [1]

    def test_jsonl_slice_keeps_the_full_metrics_footer(self, tmp_path):
        recorder = _sample_recorder()
        path = tmp_path / "alice.jsonl"
        assert export_jsonl(recorder, path, tenant="alice") == 1
        header = json.loads(path.read_text().splitlines()[0])
        assert header["events"] == 1
        events, metrics = read_jsonl(path)
        assert [e.attrs["tenant"] for e in events] == ["alice"]
        # Registry state is global; the slice must not shrink it.
        assert metrics.state_dict() == recorder.metrics.state_dict()

    def test_chrome_trace_slices_to_matching_lanes(self):
        recorder = _sample_recorder()
        document = export_chrome_trace(recorder, chain=0)
        names = {
            row["args"]["name"]
            for row in document["traceEvents"]
            if row["ph"] == "M" and row["name"] == "thread_name"
        }
        assert names == {"chain 0"}
        data_rows = [r for r in document["traceEvents"] if r["ph"] in ("X", "i")]
        assert all(row["args"]["chain"] == 0 for row in data_rows)

    def test_chrome_trace_preserves_tuple_user_ids(self):
        recorder = TraceRecorder()
        recorder.record(EVENT_QUERY, 0.5, 1.0, user=("node", 7), latency=0.5)
        document = export_chrome_trace(recorder)
        (span,) = [r for r in document["traceEvents"] if r["ph"] == "X"]
        # The §II-B user id rides through to the timeline args untouched,
        # and the attr-less query event lands in the interface lane.
        assert span["args"]["user"] == ("node", 7)
        (lane,) = [
            r["args"]["name"]
            for r in document["traceEvents"]
            if r["ph"] == "M" and r["name"] == "thread_name"
        ]
        assert lane == "interface api"

    def test_tuple_user_ids_round_trip_through_jsonl(self, tmp_path):
        recorder = TraceRecorder()
        recorder.record(EVENT_QUERY, 0.5, 1.0, user=("node", 7), latency=0.5)
        recorder.record(EVENT_QUERY, 1.5, 1.0, user="plain", latency=0.5)
        path = tmp_path / "users.jsonl"
        export_jsonl(recorder, path)
        events, _ = read_jsonl(path)
        assert events[0].attrs["user"] == ("node", 7)
        assert type(events[0].attrs["user"]) is tuple
        assert events[1].attrs["user"] == "plain"


class TestChromeTrace:
    def test_lanes_per_chain_shard_tenant(self):
        document = export_chrome_trace(_sample_recorder())
        names = {
            row["args"]["name"]
            for row in document["traceEvents"]
            if row["ph"] == "M" and row["name"] == "thread_name"
        }
        assert names == {"interface api", "chain 0", "shard 1", "tenant alice"}

    def test_spans_and_instants(self):
        recorder = TraceRecorder()
        recorder.record(EVENT_QUERY, 1.5, 0.5, user="u")
        recorder.record(EVENT_FETCH, 1.5, shard=0)
        document = export_chrome_trace(recorder)
        rows = [r for r in document["traceEvents"] if r["ph"] in ("X", "i")]
        span, instant = rows
        assert span["ph"] == "X"
        assert span["ts"] == pytest.approx(1.5e6)  # simulated s -> us
        assert span["dur"] == pytest.approx(0.5e6)
        assert instant["ph"] == "i" and instant["s"] == "t"
        assert span["args"]["seq"] == 0

    def test_accepts_bare_event_lists(self, tmp_path):
        recorder = _sample_recorder()
        from_recorder = export_chrome_trace(recorder)
        from_list = export_chrome_trace(list(recorder.events))
        assert from_recorder == from_list

    def test_writes_valid_json_file(self, tmp_path):
        path = tmp_path / "trace.json"
        document = export_chrome_trace(_sample_recorder(), path)
        assert json.loads(path.read_text()) == json.loads(json.dumps(document))
        assert json.loads(path.read_text())["displayTimeUnit"] == "ms"
