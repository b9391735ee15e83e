"""An in-flight trace recorder survives checkpoint/resume (ISSUE 9).

The recorder rides the ``obs`` section of the interface snapshot, so a
resumed session keeps recording where it left off: event sequence
numbers continue, metrics registries revive, and the split *event*
trace — every billed query, in order — is bit-for-bit identical to an
uninterrupted run's.

One counter is deliberately exempt from exactness: a resumed walk
re-reads its current node once to rewarm the neighbor-tuple memo
(``_current_neighbor_seq``), a free cache hit the uninterrupted run never
performs.  Billing is untouched (§II-B hits cost nothing), so the
tests pin the hit counter at exactly reference + 1 rather than hiding
the rewarm behind a tolerance.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.datasets import load
from repro.datastore.snapshot import JsonLinesBackend, KeyValueBackend, encode_value
from repro.interface import SamplingSession
from repro.obs import EVENT_QUERY, TraceRecorder
from repro.walks.srw import SimpleRandomWalk

SRC = str(Path(__file__).resolve().parents[1] / "src")

CHECKPOINT = 30
CONTINUATION = 30


@pytest.fixture(scope="module")
def network():
    return load("epinions_like", seed=0, scale=0.15)


def _traced_sampler(network, recorder):
    """SRW whose interface records from the very first bootstrap query."""
    api = network.interface()
    if recorder is not None:
        api.set_recorder(recorder)
    return SimpleRandomWalk(api, start=network.seed_node(4), seed=13)


def _event_fingerprint(recorder):
    return json.dumps(encode_value(list(recorder.events)), sort_keys=True)


def _assert_trace_matches_reference(revived, reference):
    """Billed trace bit-for-bit; hit counter exactly one rewarm ahead."""
    assert _event_fingerprint(revived) == _event_fingerprint(reference)
    assert revived.metrics.counter_value(
        "interface.cache_misses"
    ) == reference.metrics.counter_value("interface.cache_misses")
    assert (
        revived.metrics.counter_value("interface.cache_hits")
        == reference.metrics.counter_value("interface.cache_hits") + 1
    )


class TestInProcessResume:
    def test_recorder_rides_the_snapshot(self, network):
        # uninterrupted reference trace
        reference = TraceRecorder()
        ref = _traced_sampler(network, reference)
        for _ in range(CHECKPOINT + CONTINUATION):
            ref.step()

        # phase 1: traced walk, checkpoint, abandon
        first_recorder = TraceRecorder()
        first = _traced_sampler(network, first_recorder)
        for _ in range(CHECKPOINT):
            first.step()
        backend = KeyValueBackend()
        SamplingSession(first.api, first, backend).save()

        # phase 2: fresh interface with NO recorder — resume revives one
        # from the snapshot's obs section, sequence numbers intact.
        resumed = _traced_sampler(network, None)
        assert resumed.api.recorder is None
        assert SamplingSession(resumed.api, resumed, backend).resume()
        revived = resumed.api.recorder
        assert isinstance(revived, TraceRecorder)
        assert revived.events == first_recorder.events
        for _ in range(CONTINUATION):
            resumed.step()

        _assert_trace_matches_reference(revived, reference)
        # the +1 hit above also proves the cached-step counters were re-bound
        # to the revived registry (a stale binding would leave it at the
        # checkpoint value)

    def test_untraced_snapshot_stays_untraced(self, network):
        first = _traced_sampler(network, None)
        for _ in range(10):
            first.step()
        backend = KeyValueBackend()
        SamplingSession(first.api, first, backend).save()
        resumed = _traced_sampler(network, None)
        assert SamplingSession(resumed.api, resumed, backend).resume()
        assert resumed.api.recorder is None


_CHILD_SCRIPT = """
import json, sys
from repro.datasets import load
from repro.datastore.snapshot import JsonLinesBackend, encode_value
from repro.interface import SamplingSession
from repro.walks.srw import SimpleRandomWalk

snapshot_path, steps = sys.argv[1], int(sys.argv[2])
net = load("epinions_like", seed=0, scale=0.15)     # same provider environment
api = net.interface()                               # deliberately no recorder
sampler = SimpleRandomWalk(api, start=net.seed_node(4), seed=13)
session = SamplingSession(api, sampler, JsonLinesBackend(snapshot_path))
assert session.resume()
recorder = api.recorder
assert recorder is not None                         # revived from the obs section
resumed_from_seq = len(recorder.events)

for _ in range(steps):
    sampler.step()
print(json.dumps({
    "resumed_from_seq": resumed_from_seq,
    "events": json.dumps(encode_value(list(recorder.events)), sort_keys=True),
    "hits": recorder.metrics.counter_value("interface.cache_hits"),
    "misses": recorder.metrics.counter_value("interface.cache_misses"),
}))
"""


class TestSubprocessResume:
    """ISSUE 9 acceptance: the in-flight recorder survives a
    checkpoint/resume into a *fresh process*."""

    def test_subprocess_resume_continues_the_trace(self, network, tmp_path):
        reference = TraceRecorder()
        ref = _traced_sampler(network, reference)
        for _ in range(CHECKPOINT + CONTINUATION):
            ref.step()

        first_recorder = TraceRecorder()
        first = _traced_sampler(network, first_recorder)
        for _ in range(CHECKPOINT):
            first.step()
        snapshot_path = tmp_path / "traced.snapshot.jsonl"
        SamplingSession(first.api, first, JsonLinesBackend(snapshot_path)).save()

        script = tmp_path / "resume_traced_child.py"
        script.write_text(_CHILD_SCRIPT)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(script), str(snapshot_path), str(CONTINUATION)],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        child = json.loads(proc.stdout)

        assert child["resumed_from_seq"] == len(first_recorder.events)
        assert child["events"] == _event_fingerprint(reference)
        assert child["misses"] == reference.metrics.counter_value(
            "interface.cache_misses"
        )
        assert child["hits"] == (
            reference.metrics.counter_value("interface.cache_hits") + 1
        )
        # sanity: the split actually interrupted a live trace
        assert 0 < len(first_recorder.events_named(EVENT_QUERY)) < len(
            reference.events_named(EVENT_QUERY)
        )
