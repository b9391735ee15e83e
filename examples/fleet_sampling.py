"""Scenario: crawling a sharded provider fleet with batch coalescing.

Real OSN crawls hit a fleet of API shards, each with its own latency
tail, admission limits, and bad days.  This example builds a 4-shard
fleet with a hot shard (4x the routing weight), a degradation schedule,
and per-shard admission intervals, then collects the same samples three
ways over identical chains:

* event-driven, coalescing off (``batch_cap=1``): every fetch consumes
  its own admission slot at its shard — the hot shard backs up;
* event-driven, coalescing on (``batch_cap=8``): dispatches headed to a
  backlogged shard ride the next admission as one ``query_many``-style
  burst billed a single round trip;
* a mid-run checkpoint/resume of the coalescing run, proving the whole
  in-flight fleet state (router, per-shard stacks, open bursts) snapshots
  and resumes bit-for-bit.

Coalescing needs no switch: ``EventDrivenWalkers`` finds the fleet in
the interface's provider stack and dispatches batch-aware.  All runs
bill the identical §II-B query cost — coalescing changes *when*
responses land, never what they cost.

Run:
    python examples/fleet_sampling.py
"""

from repro import AggregateQuery, estimate, ground_truth
from repro.compose import FleetSpec, ProviderSpec, build_fleet
from repro.datasets import load
from repro.datastore.snapshot import KeyValueBackend
from repro.interface import RestrictedSocialAPI, SamplingSession
from repro.walks import EventDrivenWalkers, SimpleRandomWalk

CHAINS = 8
SAMPLES = 400
SHARDS = 4


def build_api(cap):
    net = load("epinions_like", seed=0, scale=0.5)
    spec = FleetSpec(
        num_shards=SHARDS,
        seed=7,
        weights=[4.0] + [1.0] * (SHARDS - 1),  # shard 0 is hot
        provider=ProviderSpec(latency_distribution="heavy_tailed", latency_scale=0.5),
        shard_latency_spread=1.0,  # later shards are slower replicas
        disruption={"window": 32, "degraded_rate": 0.3, "outage_rate": 0.05},
        admission_interval=1.0,  # each shard admits one round trip per second
        batch_cap=cap,
        latency_quantum=0.5,  # responses land on an RTT grid
    )
    fleet = build_fleet(spec, net.graph, profiles=net.profiles)
    return net, RestrictedSocialAPI(fleet)


def make_chains(net, api):
    return [
        SimpleRandomWalk(api, start=net.seed_node(i), seed=100 + i) for i in range(CHAINS)
    ]


def main() -> None:
    query = AggregateQuery.average_degree()
    results = {}
    for label, cap in (("coalescing off", 1), ("coalescing on", 8)):
        net, api = build_api(cap)
        run = EventDrivenWalkers(make_chains(net, api)).run(
            num_samples=SAMPLES
        )
        est = estimate(query, run.samples, api)
        results[label] = run
        truth = ground_truth(query, net.graph)
        print(
            f"{label:>15}: {run.queries} unique queries, "
            f"{run.sim_elapsed:7.1f}s wall ({run.sim_elapsed / SAMPLES:.3f} s/sample), "
            f"estimate {est.estimate:.2f} (truth {truth:.2f})"
        )
        for shard, row in sorted(run.shards.items()):
            print(
                f"            shard {shard}: {row.queries:>4} fetches, "
                f"{row.latency_spent:7.1f}s served, {row.disrupted:>3} disrupted, "
                f"{row.bursts:>4} round trips (depth <= {row.max_in_flight})"
            )

    off, on = results["coalescing off"], results["coalescing on"]
    assert off.queries == on.queries
    print(
        f"\nsame bill, {off.sim_elapsed / on.sim_elapsed:.2f}x less waiting: "
        "backlogged dispatches ride one admission slot instead of queueing for their own."
    )

    # ------------------------------------------------------------------
    # checkpoint the coalescing run mid-flight, resume in fresh objects
    # ------------------------------------------------------------------
    net, api = build_api(8)
    group = EventDrivenWalkers(make_chains(net, api))
    backend = KeyValueBackend()
    session = SamplingSession(api, group, backend, checkpoint_every=500)
    interrupted = group.run(num_samples=SAMPLES)

    net2, api2 = build_api(8)
    resumed_group = EventDrivenWalkers(make_chains(net2, api2))
    resume_session = SamplingSession(api2, resumed_group, backend)
    assert resume_session.resume()
    resumed = resumed_group.run(num_samples=SAMPLES)
    assert resumed.samples == interrupted.samples
    assert resumed.sim_elapsed == interrupted.sim_elapsed
    print(
        f"\ncheckpoint/resume: {session.saves} snapshots; resumed run reproduced "
        f"{len(resumed.samples)} samples and the {resumed.sim_elapsed:.1f}s makespan bit-for-bit."
    )
    summary = resume_session.summary()
    print(
        f"session summary: {summary['query_cost']} unique queries, "
        f"{summary['latency_spent']:.1f}s provider latency over "
        f"{len(summary['shards'])} shards"
    )


if __name__ == "__main__":
    main()
