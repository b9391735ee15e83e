"""Fleet sweep: shard count × routing skew × batch cap.

The latency sweep (PR 3) quantified the win of event-driven dispatch over
lock-step rounds against *one* provider.  This driver measures the next
layer: the same chains crawling a **sharded fleet** whose shards have
their own latency models and admission limits, under the batch-coalescing
scheduler at different per-shard batch caps.  ``batch_cap=1`` is the
no-coalescing baseline — every fetch consumes its own admission slot —
so the cap axis isolates exactly what coalescing buys: same walks, same
§II-B bill (asserted), different simulated wall-clock.

The skew axis weights the first shard's share of the key space, modelling
the hot shard every real fleet has; coalescing wins the most where the
backlog is deepest, so the speedup grows with skew.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

from repro.compose import FleetSpec, ProviderSpec, StackConfig, WalkSpec, build_stack
from repro.datasets.standins import SocialNetwork
from repro.errors import ExperimentError


@dataclasses.dataclass(frozen=True)
class FleetSweepRow:
    """One (shard count, skew, batch cap) cell of the sweep.

    Attributes:
        num_shards: Fleet size.
        skew: Routing weight of the hot shard (1.0 = uniform fleet).
        batch_cap: Per-shard burst size limit (1 = coalescing off).
        query_cost: Billed unique queries — identical across caps for one
            (shards, skew) pair, asserted by the driver.
        sim_wall: Simulated wall-clock makespan of the run.
        wall_per_sample: ``sim_wall`` per collected sample.
        speedup_vs_uncoalesced: Wall-clock of the ``batch_cap=1`` run over
            this run's (1.0 for the baseline row itself).
        hot_shard_share: Fraction of billed fetches the hot shard served.
        max_in_flight: Deepest burst any shard carried.
    """

    num_shards: int
    skew: float
    batch_cap: int
    query_cost: int
    sim_wall: float
    wall_per_sample: float
    speedup_vs_uncoalesced: float
    hot_shard_share: float
    max_in_flight: int


@dataclasses.dataclass
class FleetSweepResult:
    """Everything one fleet sweep produced.

    Attributes:
        dataset: Network label.
        chains: Parallel chains per run.
        num_samples: Samples collected per run (rounded to a multiple of
            ``chains`` so per-chain quotas — and therefore query costs —
            match exactly across caps).
        latency_scale: Base latency scale of the shard stacks.
        admission_interval: Per-shard seconds between round-trip
            admissions.
        rows: One :class:`FleetSweepRow` per swept cell.
    """

    dataset: str
    chains: int
    num_samples: int
    latency_scale: float
    admission_interval: float
    rows: List[FleetSweepRow]

    def __str__(self) -> str:
        lines = [
            f"fleet sweep — {self.chains} chains x {self.num_samples} samples "
            f"on {self.dataset} (scale {self.latency_scale:g}s, "
            f"admission every {self.admission_interval:g}s)",
            "  {:>6} {:>5} {:>4} {:>8} {:>13} {:>8} {:>9} {:>6}".format(
                "shards", "skew", "cap", "queries", "wall/sample", "speedup", "hot share", "depth"
            ),
        ]
        for row in self.rows:
            lines.append(
                "  {:>6} {:>5.1f} {:>4} {:>8} {:>13.4f} {:>7.2f}x {:>8.1%} {:>6}".format(
                    row.num_shards,
                    row.skew,
                    row.batch_cap,
                    row.query_cost,
                    row.wall_per_sample,
                    row.speedup_vs_uncoalesced,
                    row.hot_shard_share,
                    row.max_in_flight,
                )
            )
        return "\n".join(lines)


def run_fleet_sweep(
    network: SocialNetwork,
    shard_counts: Sequence[int] = (1, 2, 4, 8),
    skews: Sequence[float] = (1.0, 4.0),
    batch_caps: Sequence[int] = (1, 8),
    chains: int = 8,
    num_samples: int = 400,
    latency_scale: float = 0.5,
    admission_interval: float = 1.0,
    latency_quantum: float = 0.5,
    seed: int = 0,
    thinning: int = 1,
) -> FleetSweepResult:
    """Sweep fleet shapes under the batch-coalescing scheduler.

    For every (shard count, skew) pair the same chains (same seeds, same
    per-chain quotas) run once per batch cap over identically configured
    fleets, so the walks — and the billed §II-B query cost — agree
    exactly; only the simulated wall-clock differs.  Cap 1 in
    ``batch_caps`` anchors the speedup column (it is prepended when
    missing).

    Args:
        network: Dataset to sample.
        shard_counts: Fleet sizes to sweep.
        skews: Hot-shard routing weights (1.0 = uniform; ignored for
            single-shard fleets, which are always uniform).
        batch_caps: Per-shard burst size limits to sweep.
        chains: Parallel chains (>= 2).
        num_samples: Total samples per run; rounded down to a multiple of
            ``chains``.
        latency_scale: Heavy-tailed latency scale of every shard stack.
        admission_interval: Seconds between round-trip admissions at every
            shard — the contention coalescing relieves.
        latency_quantum: Response-latency grid of the fleet.
        seed: Master seed (routing, latency draws, and walk streams derive
            from it).
        thinning: Per-chain spacing between collected samples.

    Raises:
        ExperimentError: On fewer than two chains, an empty quota, or a
            query-cost mismatch between caps (which would mean the
            scheduler changed the walks, not just the timeline).
    """
    if chains < 2:
        raise ExperimentError("the scheduler needs at least two chains")
    num_samples = (num_samples // chains) * chains
    if num_samples <= 0:
        raise ExperimentError("num_samples must be at least the chain count")
    # The cap-1 run anchors every cell's speedup, so it must run first
    # regardless of where (or whether) the caller listed it.
    caps = [1] + [c for c in dict.fromkeys(batch_caps) if c != 1]
    walk = WalkSpec(
        engine="srw", chains=chains, seed=seed, starts=tuple(network.seed_node(i) for i in range(chains))
    )

    def run_cell(num_shards: int, skew: float, cap: int):
        weights = None
        if num_shards > 1 and skew != 1.0:
            weights = (skew,) + (1.0,) * (num_shards - 1)
        fleet = FleetSpec(
            num_shards=num_shards,
            seed=seed * 7 + 3,
            weights=weights,
            provider=ProviderSpec(latency_distribution="heavy_tailed", latency_scale=latency_scale),
            shard_latency_spread=1.0,
            admission_interval=admission_interval,
            batch_cap=cap,
            latency_quantum=latency_quantum,
        )
        stack = build_stack(StackConfig(fleet=fleet, walk=walk), network)
        return stack.run(num_samples=num_samples, thinning=thinning)

    rows: List[FleetSweepRow] = []
    for num_shards in shard_counts:
        for skew in skews if num_shards > 1 else (1.0,):
            baseline_wall = None
            baseline_cost = None
            for cap in caps:
                run = run_cell(num_shards, skew, cap)
                if cap == 1:
                    baseline_wall = run.sim_elapsed
                    baseline_cost = run.queries
                elif run.queries != baseline_cost:
                    raise ExperimentError(
                        f"batch cap {cap} changed the §II-B bill on "
                        f"{num_shards} shards (skew {skew}): "
                        f"{run.queries} vs {baseline_cost}"
                    )
                shard_rows = run.shards or {}
                total_fetches = sum(r.queries for r in shard_rows.values()) or 1
                rows.append(
                    FleetSweepRow(
                        num_shards=num_shards,
                        skew=skew,
                        batch_cap=cap,
                        query_cost=run.queries,
                        sim_wall=run.sim_elapsed,
                        wall_per_sample=run.sim_elapsed / num_samples,
                        speedup_vs_uncoalesced=(
                            baseline_wall / run.sim_elapsed if run.sim_elapsed > 0 else 1.0
                        ),
                        hot_shard_share=shard_rows[0].queries / total_fetches
                        if shard_rows
                        else 1.0,
                        max_in_flight=max(
                            (r.max_in_flight for r in shard_rows.values()), default=0
                        ),
                    )
                )
    return FleetSweepResult(
        dataset=network.name,
        chains=chains,
        num_samples=num_samples,
        latency_scale=latency_scale,
        admission_interval=admission_interval,
        rows=rows,
    )
