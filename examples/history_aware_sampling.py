"""Scenario: planning around history — step through what you already know.

The crawler's cache holds every neighborhood it ever paid for; the
planning layer (``repro.planning``) turns that history into wall-clock:

* **cache-first stepping** — chains whose next neighborhood is already
  known advance at zero simulated latency, consuming no admission slot;
* **predictive prefetch** — the planner replays each chain's own RNG
  through cached territory, learns which neighborhood the walk will
  fetch next, and rides that fetch in an open burst's spare slots.  The
  §II-B bill is *identical* to the unplanned run (asserted below): the
  same unique queries, spent earlier, where they share admissions;
* **adaptive chain lifecycle** — a policy retires latency-tail chains
  and spawns warm reserves that burned in alongside the group.

The planner rides the fleet dispatch ``EventDrivenWalkers`` runs
whenever the interface's provider stack contains a fleet.  The example
runs the same chains over the same skewed fleet three ways
(no planner / prefetch planner / prefetch + adaptive policy), then
checkpoints a planning run mid-flight — outstanding prefetch ledger,
chain roster and all — and resumes it bit-for-bit in fresh objects.

Run:
    python examples/history_aware_sampling.py
"""

from repro.compose import FleetSpec, ProviderSpec, build_fleet
from repro.datasets import load
from repro.datastore.snapshot import KeyValueBackend
from repro.interface import RestrictedSocialAPI, SamplingSession
from repro.planning import AdaptiveChainPolicy, DispatchPlanner
from repro.walks import EventDrivenWalkers, SimpleRandomWalk

CHAINS = 8
SAMPLES = 400
SHARDS = 4


def build_api():
    net = load("epinions_like", seed=0, scale=0.5)
    spec = FleetSpec(
        num_shards=SHARDS,
        seed=7,
        weights=[8.0] + [1.0] * (SHARDS - 1),  # shard 0 is hot
        provider=ProviderSpec(latency_distribution="heavy_tailed", latency_scale=0.5),
        shard_latency_spread=1.0,
        admission_interval=2.0,
        batch_cap=16,
        latency_quantum=0.5,
    )
    fleet = build_fleet(spec, net.graph, profiles=net.profiles)
    return net, RestrictedSocialAPI(fleet)


def make_chains(net, api):
    return [
        SimpleRandomWalk(api, start=net.seed_node(i), seed=100 + i) for i in range(CHAINS)
    ]


def make_planner(adaptive: bool) -> DispatchPlanner:
    policy = None
    if adaptive:
        policy = AdaptiveChainPolicy(min_chains=4, tail_ratio=2.0, evaluate_every=8)
    return DispatchPlanner(lookahead=4, policy=policy)


def main() -> None:
    runs = {}
    for label, planner in (
        ("no planner", None),
        ("prefetch", make_planner(adaptive=False)),
        ("prefetch + adaptive", make_planner(adaptive=True)),
    ):
        net, api = build_api()
        group = EventDrivenWalkers(make_chains(net, api), planner=planner)
        run = group.run(num_samples=SAMPLES)
        runs[label] = run
        line = (
            f"{label:>20}: {run.queries} unique queries, "
            f"{run.sim_elapsed:7.1f}s wall ({run.sim_elapsed / SAMPLES:.3f} s/sample)"
        )
        if run.planning is not None:
            line += (
                f", prefetch {run.planning['prefetch_issued']} issued / "
                f"{run.planning['prefetch_used']} used, "
                f"{run.planning['cache_first_rate']:.0%} cache-first steps"
            )
            if run.planning["retired_chains"]:
                line += f", retired chains {run.planning['retired_chains']}"
        print(line)

    plain, planned = runs["no planner"], runs["prefetch"]
    assert planned.queries == plain.queries  # same §II-B bill, spent earlier
    print(
        f"\nsame bill, {plain.sim_elapsed / planned.sim_elapsed:.2f}x less waiting: "
        "the planner rode the walk's own future fetches in open bursts' spare slots."
    )
    print("per-chain steps (audit trail):", planned.chain_steps)

    # ------------------------------------------------------------------
    # checkpoint a planning run mid-flight, resume in fresh objects
    # ------------------------------------------------------------------
    net, api = build_api()
    group = EventDrivenWalkers(
        make_chains(net, api), planner=make_planner(adaptive=True)
    )
    backend = KeyValueBackend()
    session = SamplingSession(api, group, backend, checkpoint_every=500)
    interrupted = group.run(num_samples=SAMPLES)

    net2, api2 = build_api()
    resumed_group = EventDrivenWalkers(
        make_chains(net2, api2), planner=make_planner(adaptive=True)
    )
    resume_session = SamplingSession(api2, resumed_group, backend)
    assert resume_session.resume()
    resumed = resumed_group.run(num_samples=SAMPLES)
    assert resumed.samples == interrupted.samples
    assert resumed.sim_elapsed == interrupted.sim_elapsed
    assert resumed.planning == interrupted.planning
    print(
        f"\ncheckpoint/resume: {session.saves} snapshots; the resumed run reproduced "
        f"{len(resumed.samples)} samples, the {resumed.sim_elapsed:.1f}s makespan, and "
        "the prefetch ledger bit-for-bit."
    )
    summary = resume_session.summary()
    print(
        f"session summary: {summary['query_cost']} unique queries, "
        f"{summary['cache_hits']} cache hits / {summary['cache_misses']} misses, "
        f"{summary['prefetched']} prefetched over {len(summary['shards'])} shards"
    )


if __name__ == "__main__":
    main()
