"""Regression tests: checkpointed walks resume bit-for-bit.

The acceptance bar (ISSUE 2): a walk checkpointed mid-run and resumed in a
new process produces the identical node sequence, estimator values, and
unique-query count as the same walk run uninterrupted — and the resumed
process bills zero queries for users the first process already paid for
(§II-B unique-query accounting).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import AggregateQuery, MTOSampler, estimate
from repro.datasets import load
from repro.datastore.snapshot import JsonLinesBackend, KeyValueBackend
from repro.errors import SnapshotError
from repro.interface import SamplingSession
from repro.walks.base import WalkSample
from repro.walks.mhrw import MetropolisHastingsWalk
from repro.walks.nbrw import NonBacktrackingWalk
from repro.walks.parallel import ParallelWalkers
from repro.walks.srw import SimpleRandomWalk

SRC = str(Path(__file__).resolve().parents[1] / "src")

SAMPLERS = {
    "MTO": lambda api, start, seed: MTOSampler(api, start=start, seed=seed),
    "SRW": lambda api, start, seed: SimpleRandomWalk(api, start=start, seed=seed),
    "MHRW": lambda api, start, seed: MetropolisHastingsWalk(api, start=start, seed=seed),
    "NBRW": lambda api, start, seed: NonBacktrackingWalk(api, start=start, seed=seed),
}


@pytest.fixture(scope="module")
def network():
    return load("epinions_like", seed=0, scale=0.2)


def _walk(sampler, steps):
    """Drive ``steps`` steps; returns (nodes, samples) with exact weights."""
    nodes = []
    samples = []
    for _ in range(steps):
        node = sampler.step()
        nodes.append(node)
        samples.append(
            WalkSample(
                node=node,
                weight=sampler.weight(node),
                query_cost=sampler.api.query_cost,
                step=sampler.steps,
            )
        )
    return nodes, samples


class TestResumeMatchesUninterrupted:
    """MTO / SRW / MHRW / NBRW: in-process checkpoint → fresh objects → resume."""

    CHECKPOINT = 120
    CONTINUATION = 120

    @pytest.mark.parametrize("name", sorted(SAMPLERS))
    def test_resume_is_bit_for_bit(self, network, name):
        make = SAMPLERS[name]
        start = network.seed_node(5)

        # uninterrupted reference
        ref = make(network.interface(), start, 11)
        ref_nodes, ref_samples = _walk(ref, self.CHECKPOINT + self.CONTINUATION)
        ref_estimate = estimate(AggregateQuery.average_degree(), ref_samples, ref.api)

        # phase 1: walk, checkpoint, abandon
        backend = KeyValueBackend()
        first = make(network.interface(), start, 11)
        first_nodes, first_samples = _walk(first, self.CHECKPOINT)
        SamplingSession(first.api, first, backend).save()
        paid_for = first.api.log.queried_users()
        billed_before = first.api.query_cost

        # phase 2: fresh interface + sampler, restore, continue
        resumed = make(network.interface(), start, 11)
        session = SamplingSession(resumed.api, resumed, backend)
        assert session.resume()
        boundary = len(resumed.api.log)
        resumed_nodes, resumed_samples = _walk(resumed, self.CONTINUATION)

        # identical node sequence and identical billing
        assert first_nodes + resumed_nodes == ref_nodes
        assert resumed.api.query_cost == ref.api.query_cost
        assert resumed.steps == ref.steps
        assert tuple(resumed.trace) == tuple(ref.trace)

        # zero duplicate billed queries for already-known users
        continuation_records = list(resumed.api.log)[boundary:]
        duplicate_billed = [rec.user for rec in continuation_records if rec.billed and rec.user in paid_for]
        assert duplicate_billed == []
        assert resumed.api.query_cost - billed_before == len(
            {rec.user for rec in continuation_records if rec.billed}
        )

        # identical estimator output, exactly (same weights, same order)
        res_estimate = estimate(AggregateQuery.average_degree(), first_samples + resumed_samples, resumed.api)
        assert res_estimate.estimate == ref_estimate.estimate
        assert [s.weight for s in first_samples + resumed_samples] == [s.weight for s in ref_samples]
        assert [s.query_cost for s in first_samples + resumed_samples] == [s.query_cost for s in ref_samples]


_CHILD_SCRIPT = """
import json, sys
from repro.core.mto import MTOSampler
from repro.datasets import load
from repro.datastore.snapshot import JsonLinesBackend
from repro.interface import SamplingSession
from repro import AggregateQuery, estimate
from repro.walks.base import WalkSample

snapshot_path, steps = sys.argv[1], int(sys.argv[2])
net = load("epinions_like", seed=0, scale=0.2)      # same provider environment
api = net.interface()
sampler = MTOSampler(api, start=net.seed_node(5), seed=11)   # same constructor args
session = SamplingSession(api, sampler, JsonLinesBackend(snapshot_path))
assert session.resume()

nodes, samples = [], []
for _ in range(steps):
    node = sampler.step()
    nodes.append(node)
    samples.append(WalkSample(node=node, weight=sampler.weight(node),
                              query_cost=api.query_cost, step=sampler.steps))
result = estimate(AggregateQuery.average_degree(), samples, api)
print(json.dumps({
    "nodes": nodes,
    "query_cost": api.query_cost,
    "estimate_hex": result.estimate.hex(),
    "weights_hex": [s.weight.hex() for s in samples],
    "removal_count": sampler.overlay.removal_count,
    "replacement_count": sampler.overlay.replacement_count,
}))
"""


class TestResumeInFreshProcess:
    """The acceptance criterion, literally: resume in a *new process*."""

    CHECKPOINT = 150
    CONTINUATION = 150

    def test_subprocess_resume_is_bit_for_bit(self, network, tmp_path):
        start = network.seed_node(5)

        # uninterrupted reference, in this process
        ref = MTOSampler(network.interface(), start=start, seed=11)
        ref_nodes, ref_samples = _walk(ref, self.CHECKPOINT + self.CONTINUATION)
        # the child estimates over its continuation samples; compare the
        # reference's estimator output over the same sample window
        ref_estimate = estimate(AggregateQuery.average_degree(), ref_samples[self.CHECKPOINT :], ref.api)

        # phase 1: walk to the checkpoint and snapshot to disk
        first = MTOSampler(network.interface(), start=start, seed=11)
        first_nodes, _ = _walk(first, self.CHECKPOINT)
        snapshot_path = tmp_path / "walk.snapshot.jsonl"
        SamplingSession(first.api, first, JsonLinesBackend(snapshot_path)).save()

        # phase 2: a brand-new Python process resumes and continues
        script = tmp_path / "resume_child.py"
        script.write_text(_CHILD_SCRIPT)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(script), str(snapshot_path), str(self.CONTINUATION)],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        child = json.loads(proc.stdout)

        assert first_nodes + child["nodes"] == ref_nodes
        assert child["query_cost"] == ref.api.query_cost
        assert child["estimate_hex"] == ref_estimate.estimate.hex()
        assert child["weights_hex"] == [s.weight.hex() for s in ref_samples[self.CHECKPOINT :]]
        assert child["removal_count"] == ref.overlay.removal_count
        assert child["replacement_count"] == ref.overlay.replacement_count


class TestCrawlerResume:
    @pytest.mark.parametrize("crawler_cls", ["BFSCrawler", "DFSCrawler", "SnowballCrawler"])
    def test_crawler_resume_preserves_visited_and_frontier(self, network, crawler_cls):
        from repro.walks import crawlers

        make = getattr(crawlers, crawler_cls)
        start = network.seed_node(0)

        ref = make(network.interface(), start=start, seed=9)
        ref_nodes = [ref.step() for _ in range(60)]

        backend = KeyValueBackend()
        first = make(network.interface(), start=start, seed=9)
        first_nodes = [first.step() for _ in range(30)]
        SamplingSession(first.api, first, backend).save()

        resumed = make(network.interface(), start=start, seed=9)
        assert SamplingSession(resumed.api, resumed, backend).resume()
        resumed_nodes = [resumed.step() for _ in range(30)]

        assert first_nodes + resumed_nodes == ref_nodes
        assert resumed.visited == ref.visited
        assert resumed.api.query_cost == ref.api.query_cost


class TestRateLimitedResume:
    def test_resume_preserves_simulated_time_and_limiter_window(self, network):
        from repro.interface import FixedWindowRateLimiter

        def build():
            api = network.interface(rate_limiter=FixedWindowRateLimiter(10, 60.0))
            return api, SimpleRandomWalk(api, start=network.seed_node(2), seed=5)

        api_ref, ref = build()
        for _ in range(80):
            ref.step()

        backend = KeyValueBackend()
        api1, first = build()
        for _ in range(40):
            first.step()
        SamplingSession(api1, first, backend).save()

        api2, resumed = build()
        assert SamplingSession(api2, resumed, backend).resume()
        for _ in range(40):
            resumed.step()

        assert api2.clock.now() == api_ref.clock.now()
        assert api2.query_cost == api_ref.query_cost
        assert resumed.current == ref.current


class TestCheckpointHooks:
    def test_checkpoint_every_saves_periodically(self, network):
        backend = KeyValueBackend()
        api = network.interface()
        sampler = SimpleRandomWalk(api, start=network.seed_node(1), seed=3)
        session = SamplingSession(api, sampler, backend, checkpoint_every=10)
        for _ in range(35):
            sampler.step()
        assert session.saves == 3
        assert session.peek_meta()["steps"] == 30

    def test_hook_fires_inside_run_driver(self, network):
        backend = KeyValueBackend()
        api = network.interface()
        sampler = SimpleRandomWalk(api, start=network.seed_node(1), seed=3)
        session = SamplingSession(api, sampler, backend, checkpoint_every=25)
        sampler.run(num_samples=60, thinning=1)
        assert session.saves >= 1
        assert session.peek_meta()["steps"] % 25 == 0

    def test_clear_checkpoint_stops_saving(self, network):
        backend = KeyValueBackend()
        api = network.interface()
        sampler = SimpleRandomWalk(api, start=network.seed_node(1), seed=3)
        session = SamplingSession(api, sampler, backend, checkpoint_every=5)
        for _ in range(5):
            sampler.step()
        sampler.clear_checkpoint()
        for _ in range(20):
            sampler.step()
        assert session.saves == 1

    def test_invalid_period_rejected(self, network):
        api = network.interface()
        sampler = SimpleRandomWalk(api, start=network.seed_node(1), seed=3)
        with pytest.raises(ValueError):
            sampler.set_checkpoint(lambda s: None, 0)


class TestSessionValidation:
    def test_resume_without_snapshot_returns_false(self, network):
        api = network.interface()
        sampler = SimpleRandomWalk(api, start=network.seed_node(1), seed=3)
        session = SamplingSession(api, sampler, KeyValueBackend())
        assert session.resume() is False

    def test_sampler_type_mismatch_raises(self, network):
        backend = KeyValueBackend()
        api = network.interface()
        srw = SimpleRandomWalk(api, start=network.seed_node(1), seed=3)
        SamplingSession(api, srw, backend).save()

        api2 = network.interface()
        mhrw = MetropolisHastingsWalk(api2, start=network.seed_node(1), seed=3)
        with pytest.raises(SnapshotError):
            SamplingSession(api2, mhrw, backend).resume()

    def test_metadata_travels_in_meta_section(self, network):
        backend = KeyValueBackend()
        api = network.interface()
        sampler = SimpleRandomWalk(api, start=network.seed_node(1), seed=3)
        session = SamplingSession(api, sampler, backend, metadata={"experiment": "fig7", "scale": 0.2})
        session.save()
        meta = session.peek_meta()
        assert meta["experiment"] == "fig7"
        assert meta["sampler_type"] == "SimpleRandomWalk"


class TestParallelResume:
    def test_parallel_group_resumes_bit_for_bit(self, network):
        def build():
            api = network.interface()
            shared = None
            chains = []
            for i in range(3):
                mto = MTOSampler(api, start=network.seed_node(i), seed=i, overlay=shared)
                shared = mto.overlay
                chains.append(mto)
            return api, shared, ParallelWalkers(chains)

        # uninterrupted reference
        api_ref, _, ref = build()
        ref_positions = [ref.step_all() for _ in range(80)]

        # interrupted at round 40
        backend = KeyValueBackend()
        api1, overlay1, group1 = build()
        first_positions = [group1.step_all() for _ in range(40)]
        SamplingSession(api1, group1, backend, overlay=overlay1).save()

        api2, overlay2, group2 = build()
        session = SamplingSession(api2, group2, backend, overlay=overlay2)
        assert session.resume()
        resumed_positions = [group2.step_all() for _ in range(40)]

        assert first_positions + resumed_positions == ref_positions
        assert api2.query_cost == api_ref.query_cost

    def test_parallel_round_checkpoint_hook(self, network):
        api = network.interface()
        chains = [SimpleRandomWalk(api, start=network.seed_node(i), seed=i) for i in range(2)]
        group = ParallelWalkers(chains)
        backend = KeyValueBackend()
        session = SamplingSession(api, group, backend, checkpoint_every=7)
        for _ in range(20):
            group.step_all()
        assert session.saves == 2

    def test_chain_count_mismatch_raises(self, network):
        api = network.interface()
        chains = [SimpleRandomWalk(api, start=network.seed_node(i), seed=i) for i in range(2)]
        group = ParallelWalkers(chains)
        backend = KeyValueBackend()
        SamplingSession(api, group, backend).save()

        api2 = network.interface()
        chains3 = [SimpleRandomWalk(api2, start=network.seed_node(i), seed=i) for i in range(3)]
        group3 = ParallelWalkers(chains3)
        with pytest.raises(SnapshotError):
            SamplingSession(api2, group3, backend).resume()


_SCHED_CHILD_SCRIPT = """
import json, sys
from repro.datasets import load
from repro.datastore.snapshot import JsonLinesBackend
from repro.interface import SamplingSession
from repro.walks import EventDrivenWalkers, SimpleRandomWalk

snapshot_path, num_samples = sys.argv[1], int(sys.argv[2])
net = load("epinions_like", seed=0, scale=0.2)      # same provider environment
api = net.interface(latency_distribution="heavy_tailed", latency_seed=7)
chains = [SimpleRandomWalk(api, start=net.seed_node(i), seed=i) for i in range(4)]
scheduler = EventDrivenWalkers(chains)
session = SamplingSession(api, scheduler, JsonLinesBackend(snapshot_path))
assert session.resume()
assert scheduler.phase == "collect"          # restored mid-flight

result = scheduler.run(num_samples=num_samples)
print(json.dumps({
    "nodes": [s.node for s in result.samples],
    "weights_hex": [s.weight.hex() for s in result.samples],
    "sample_costs": [s.query_cost for s in result.samples],
    "query_cost": result.queries,
    "sim_elapsed_hex": result.sim_elapsed.hex(),
    "events": result.events_processed,
}))
"""


class TestSchedulerResumeInFreshProcess:
    """ISSUE 3 acceptance: a scheduler checkpointed mid-flight resumes
    bit-for-bit in a fresh process, in-flight event queue included."""

    NUM_SAMPLES = 80
    CHECKPOINT_EVERY = 90  # events: fires mid-collection, well before done

    def _build(self, network):
        from repro.walks import EventDrivenWalkers

        api = network.interface(latency_distribution="heavy_tailed", latency_seed=7)
        chains = [SimpleRandomWalk(api, start=network.seed_node(i), seed=i) for i in range(4)]
        return api, EventDrivenWalkers(chains)

    def test_subprocess_resume_is_bit_for_bit(self, network, tmp_path):
        # uninterrupted reference, in this process
        _, reference = self._build(network)
        ref_run = reference.run(num_samples=self.NUM_SAMPLES)

        # phase 1: run with a periodic checkpoint hook; the snapshot left
        # on disk is the *last periodic save*, i.e. a mid-flight cut with
        # a live event queue and a partially filled merged list.
        api1, first = self._build(network)
        snapshot_path = tmp_path / "scheduler.snapshot.jsonl"
        session = SamplingSession(
            api1, first, JsonLinesBackend(snapshot_path), checkpoint_every=self.CHECKPOINT_EVERY
        )
        first.run(num_samples=self.NUM_SAMPLES)
        assert session.saves >= 1
        saved_meta = session.peek_meta()
        assert saved_meta["sampler_type"] == "EventDrivenWalkers"

        # the stored snapshot must predate completion (mid-flight, not final)
        stored_events = saved_meta.get("steps")
        assert stored_events is None  # schedulers have no scalar .steps

        # phase 2: a brand-new Python process resumes and continues
        script = tmp_path / "resume_scheduler_child.py"
        script.write_text(_SCHED_CHILD_SCRIPT)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(script), str(snapshot_path), str(self.NUM_SAMPLES)],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        child = json.loads(proc.stdout)

        assert child["nodes"] == [s.node for s in ref_run.samples]
        assert child["weights_hex"] == [s.weight.hex() for s in ref_run.samples]
        assert child["sample_costs"] == [s.query_cost for s in ref_run.samples]
        assert child["query_cost"] == ref_run.queries
        assert child["sim_elapsed_hex"] == ref_run.sim_elapsed.hex()
        assert child["events"] == ref_run.events_processed


class TestWarmStartScenario:
    def test_reports_bit_for_bit_and_savings(self, network):
        from repro.experiments import run_warm_start

        result = run_warm_start(
            network, sampler_name="MTO", checkpoint_step=150, continuation_steps=150, seed=4
        )
        assert result.identical_sequence
        assert result.identical_cost
        assert result.savings == result.cost_at_checkpoint
        assert result.cost_at_checkpoint + result.resumed_continuation_cost == result.uninterrupted_cost
        assert "queries saved" in str(result)
