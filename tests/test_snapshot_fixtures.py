"""Golden snapshot fixtures: files written by an older build still resume.

Two JSON-lines files under ``tests/fixtures/`` were written by commit
``6310e5c`` (snapshot layout version 2), each by a checkpoint hook in the
middle of a run:

* ``fleet_srw_planner.snapshot.jsonl``: a :func:`~repro.compose.build_stack`
  stack of four SRW chains on a skewed three-shard fleet with
  ``PlannerSpec(lookahead=4)``, saved mid-collection;
* ``parallel_mto_prefetch.snapshot.jsonl``: three MTO chains sharing one
  overlay under ``ParallelWalkers(prefetch=True)``, saved mid-burn-in.

Three more were written by commit ``6698fcc``:

* ``service_three_tenants.snapshot.jsonl``: a
  :meth:`~repro.service.SamplingService.save` of three tenants on a
  two-shard fleet, one hibernated and one mid-request;
* ``planner_run.history.jsonl``: a
  :class:`~repro.datastore.history.HistoryStore` artifact of a planner
  run, warm-started into a fresh stack;
* ``fleet_run.trace.jsonl``: an :func:`~repro.obs.export_jsonl` trace of
  a fleet run, attributed and reconciled after it is read back.

Each test loads its file into freshly built objects, continues the run and
compares the samples, the billed query log and the simulated clock with a
digest of the uninterrupted run, pinned from that same commit.  A file
with a key taken out of a section fails to load: a layout version-2
writer emits every key, so a missing one is never defaulted.  A chain's RNG is
stored as its Mersenne state at the live word, so these files also pin
that a resumed chain draws the words the writing build would have drawn.
They must never be regenerated by a build that changed how chains draw:
that would pin the change instead of checking it.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.compose import FleetSpec, PlannerSpec, ProviderSpec, StackConfig, WalkSpec, build_stack
from repro.core.mto import MTOSampler
from repro.datasets import load
from repro.datastore.history import HistoryStore
from repro.datastore.snapshot import JsonLinesBackend, encode_value
from repro.interface import SamplingSession, collect_telemetry
from repro.obs import TraceRecorder, attribute_run, export_jsonl, read_jsonl, reconcile_attribution
from repro.service import STATE_ACTIVE, STATE_HIBERNATED, SamplingService
from repro.walks.parallel import ParallelWalkers

FIXTURES = Path(__file__).resolve().parent / "fixtures"

FLEET_FIXTURE = FIXTURES / "fleet_srw_planner.snapshot.jsonl"
PARALLEL_FIXTURE = FIXTURES / "parallel_mto_prefetch.snapshot.jsonl"
SERVICE_FIXTURE = FIXTURES / "service_three_tenants.snapshot.jsonl"
HISTORY_FIXTURE = FIXTURES / "planner_run.history.jsonl"
TRACE_FIXTURE = FIXTURES / "fleet_run.trace.jsonl"

#: sha256 of :func:`_digest` over each uninterrupted run at ``6310e5c``.
FLEET_DIGEST = "92ee10cce0fd582a3e04b0da394e6436bff4b07c659424570f4ab72a424e5a38"
PARALLEL_DIGEST = "4b0905a36984789fc3e579247102f75ddb23d3aa5877c49c092540cdf103ac65"
#: sha256 of each continuation below at ``6698fcc``.
SERVICE_DIGEST = "01deaae0e2ac648f31b1d944dfca6a16cf32e6ddade0360b07241b09f0ac84e5"
HISTORY_DIGEST = "8f2f200066b3b8367d73ad83d7866eef4593a5610e28cef3c7316f41a48b1a5f"
TRACE_DIGEST = "d5f9bf08ae03a80f15be0351830f0fc98ae5eec509ab0e93fb01d8980a07e507"

FLEET_SAMPLES = 120
PARALLEL_ROUNDS = 60
PARALLEL_SAMPLES = 45


@pytest.fixture(scope="module")
def network():
    return load("epinions_like", seed=0, scale=0.1)


def _fleet_config() -> StackConfig:
    return StackConfig(
        fleet=FleetSpec(
            num_shards=3,
            seed=5,
            weights=(3.0, 1.0, 1.0),
            provider=ProviderSpec(latency_distribution="heavy_tailed", latency_scale=0.5),
            batch_cap=8,
            latency_quantum=0.25,
        ),
        walk=WalkSpec(engine="srw", chains=4, seed=3),
        planner=PlannerSpec(lookahead=4),
    )


def _parallel_group(network):
    api = network.interface()
    shared = None
    chains = []
    for i in range(3):
        chain = MTOSampler(api, start=network.seed_node(i), seed=20 + i, overlay=shared)
        shared = chain.overlay
        chains.append(chain)
    return api, shared, ParallelWalkers(chains, prefetch=True)


def _digest(samples, api, sim_elapsed: float) -> str:
    """sha256 over the samples, the billed query log and both simulated clocks.

    Unbilled log records (cache hits) are left out: a restored chain
    re-reads its current node once, a free hit the uninterrupted run
    answers from its response memo.
    """
    payload = {
        "samples": [encode_value((s.node, s.weight, s.query_cost, s.step)) for s in samples],
        "billed": [encode_value((r.user, r.timestamp)) for r in api.log if r.billed],
        "clock": api.clock.now().hex(),
        "sim_elapsed": float(sim_elapsed).hex(),
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def fleet_uninterrupted(network) -> str:
    stack = build_stack(_fleet_config(), network)
    run = stack.run(FLEET_SAMPLES)
    return _digest(run.samples, stack.api, run.sim_elapsed)


def parallel_uninterrupted(network) -> str:
    api, _, group = _parallel_group(network)
    for _ in range(PARALLEL_ROUNDS):
        group.step_all()
    run = group.run(PARALLEL_SAMPLES)
    return _digest(run.samples, api, run.sim_elapsed)


class _Stop(Exception):
    pass


def write_fixtures(network, directory: Path) -> None:
    """Write both fixtures by interrupting each run at its first checkpoint.

    Kept so the files' provenance is readable; running it with a build
    whose streams differ from ``6310e5c`` defeats the fixtures' purpose.
    """

    def stop_at_first_save(session):
        def hook(_sampler):
            session.save()
            raise _Stop()

        return hook

    stack = build_stack(_fleet_config(), network)
    session = SamplingSession(stack.api, stack.walkers, JsonLinesBackend(directory / FLEET_FIXTURE.name))
    stack.walkers.set_checkpoint(stop_at_first_save(session), 150)
    with pytest.raises(_Stop):
        stack.run(FLEET_SAMPLES)

    api, overlay, group = _parallel_group(network)
    session = SamplingSession(
        api, group, JsonLinesBackend(directory / PARALLEL_FIXTURE.name), overlay=overlay
    )
    group.set_checkpoint(stop_at_first_save(session), PARALLEL_ROUNDS // 2)
    with pytest.raises(_Stop):
        for _ in range(PARALLEL_ROUNDS):
            group.step_all()


class TestParentFixtures:
    def test_fleet_planner_session_resumes(self, network):
        sections = JsonLinesBackend(FLEET_FIXTURE).read()
        assert sections["meta"]["sampler_type"] == "EventDrivenWalkers"
        stack = build_stack(
            _fleet_config(), network, state={"api": sections["api"], "walkers": sections["sampler"]}
        )
        assert 0 < len(stack.walkers.state_dict()["merged"]) < FLEET_SAMPLES  # mid-collection
        run = stack.run(FLEET_SAMPLES)
        assert _digest(run.samples, stack.api, run.sim_elapsed) == FLEET_DIGEST

    def test_parallel_mto_session_resumes(self, network):
        api, overlay, group = _parallel_group(network)
        assert SamplingSession(api, group, JsonLinesBackend(PARALLEL_FIXTURE), overlay=overlay).resume()
        rounds = group.state_dict()["rounds"]
        assert 0 < rounds < PARALLEL_ROUNDS  # mid-burn-in
        for _ in range(PARALLEL_ROUNDS - rounds):
            group.step_all()
        run = group.run(PARALLEL_SAMPLES)
        assert _digest(run.samples, api, run.sim_elapsed) == PARALLEL_DIGEST

    def test_uninterrupted_runs_match_the_pinned_digests(self, network):
        assert fleet_uninterrupted(network) == FLEET_DIGEST
        assert parallel_uninterrupted(network) == PARALLEL_DIGEST

    @pytest.mark.parametrize(
        "fixture, section, key",
        [
            (FLEET_FIXTURE, "api", "latency_spent"),
            (FLEET_FIXTURE, "api", "warm_hits"),
            (FLEET_FIXTURE, "sampler", "next_free"),
            (FLEET_FIXTURE, "sampler", "next_review"),
            (PARALLEL_FIXTURE, "sampler", "sim_elapsed"),
            (PARALLEL_FIXTURE, "sampler", "predict_stats"),
        ],
    )
    def test_session_missing_a_key_fails_to_load(self, network, fixture, section, key):
        sections = JsonLinesBackend(fixture).read()
        del sections[section][key]
        with pytest.raises(KeyError, match=key):
            if fixture == FLEET_FIXTURE:
                state = {"api": sections["api"], "walkers": sections["sampler"]}
                build_stack(_fleet_config(), network, state=state)
            else:
                api, overlay, group = _parallel_group(network)
                api.load_state(sections["api"])
                overlay.load_state(sections["overlay"])
                group.load_state(sections["sampler"])


# ----------------------------------------------------------------------
# fixtures written at 6698fcc: a service, a history artifact, a trace
# ----------------------------------------------------------------------
SERVICE_FLEET = FleetSpec(
    num_shards=2,
    seed=3,
    provider=ProviderSpec(latency_distribution="heavy_tailed", latency_scale=0.5),
)


def _service_before_save(network) -> SamplingService:
    """Three tenants served once; ``bob`` hibernated, ``carol`` mid-request."""
    service = SamplingService(network, fleet=SERVICE_FLEET)
    service.register("alice", StackConfig(walk=WalkSpec(engine="srw", chains=2, seed=1)))
    service.register("bob", StackConfig(walk=WalkSpec(engine="mhrw", chains=2, seed=2)))
    service.register("carol", StackConfig(walk=WalkSpec(engine="nbrw", chains=3, seed=3)))
    for tid in service.tenant_ids:
        service.request(tid, 12)
    service.run_pending()
    service.hibernate("bob")
    service.request("carol", 24)
    service.run_pending(max_rounds=2)
    return service


def _service_continued(service: SamplingService) -> str:
    """Wake ``bob`` with a new request, serve everything, digest every tenant."""
    service.request("bob", 6)
    service.run_pending()
    payload = {"clock": service.clock.hex()}
    for tid in service.tenant_ids:
        stack = service.tenant(tid).stack
        run = stack.walkers.result()
        payload[tid] = _digest(run.samples, stack.api, run.sim_elapsed)
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _history_config(seed: int) -> StackConfig:
    return StackConfig(
        fleet=FleetSpec(
            num_shards=2,
            seed=5,
            provider=ProviderSpec(latency_distribution="constant", latency_scale=0.5),
        ),
        walk=WalkSpec(engine="srw", chains=3, seed=seed),
        planner=PlannerSpec(lookahead=2),
    )


def _warm_started_run(network, history: HistoryStore) -> str:
    """A fresh planner stack warm-started from ``history``, then run."""
    stack = build_stack(_history_config(8), network)
    assert history.warm(stack.api) > 0
    run = stack.run(40)
    return _digest(run.samples, stack.api, run.sim_elapsed)


def _traced_run(network):
    recorder = TraceRecorder()
    stack = build_stack(_fleet_config(), network, recorder=recorder)
    stack.run(24)
    return recorder, stack


def _attribution_digest(attribution) -> str:
    payload = {
        "wall_clock": attribution.wall_clock.hex(),
        "segments": [
            encode_value((seg.category, seg.start, seg.end, seg.shard, seg.chain))
            for seg in attribution.segments
        ],
        "counts": encode_value(attribution.counts),
        "latency_serial": attribution.latency_serial.hex(),
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def write_parent_fixtures(network, directory: Path) -> None:
    """Write the service, history and trace fixtures (kept for provenance)."""
    _service_before_save(network).save(JsonLinesBackend(directory / SERVICE_FIXTURE.name))
    stack = build_stack(_history_config(7), network)
    stack.run(40)
    HistoryStore(JsonLinesBackend(directory / HISTORY_FIXTURE.name)).save(stack.api)
    recorder, _stack = _traced_run(network)
    export_jsonl(recorder, directory / TRACE_FIXTURE.name)


class TestServiceHistoryTraceFixtures:
    def test_service_resumes_with_a_hibernated_and_a_mid_request_tenant(self, network):
        service = SamplingService.resume(JsonLinesBackend(SERVICE_FIXTURE), network)
        assert service.tenant_ids == ("alice", "bob", "carol")
        assert service.tenant("bob").state == STATE_HIBERNATED
        carol = service.tenant("carol")
        assert carol.state == STATE_ACTIVE and 0 < carol.pending < 24
        assert _service_continued(service) == SERVICE_DIGEST

    def test_history_artifact_warm_starts_a_fresh_stack(self, network):
        assert _warm_started_run(network, HistoryStore(JsonLinesBackend(HISTORY_FIXTURE))) == HISTORY_DIGEST

    def test_trace_reads_back_and_reconciles(self, network):
        events, metrics = read_jsonl(TRACE_FIXTURE)
        assert metrics.state_dict()
        attribution = attribute_run(events)
        assert reconcile_attribution(attribution) == []
        assert _attribution_digest(attribution) == TRACE_DIGEST

    def test_uninterrupted_runs_match_the_pinned_digests(self, network, tmp_path):
        assert _service_continued(_service_before_save(network)) == SERVICE_DIGEST
        stack = build_stack(_history_config(7), network)
        stack.run(40)
        history = HistoryStore(JsonLinesBackend(tmp_path / "run.history.jsonl"))
        history.save(stack.api)
        assert _warm_started_run(network, history) == HISTORY_DIGEST
        recorder, stack = _traced_run(network)
        attribution = attribute_run(recorder)
        assert attribution.wall_clock == stack.walkers.simulated_elapsed
        assert reconcile_attribution(attribution, telemetry=collect_telemetry(stack.api)) == []
        assert _attribution_digest(attribution) == TRACE_DIGEST
