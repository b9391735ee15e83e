"""History sweep: prefetch budget × chain policy × shard skew.

The fleet sweep (PR 4) quantified what batch coalescing buys over a
sharded provider; this driver measures the layer above it: the same
chains crawling the same fleet under the **history-aware dispatch
planner** (:mod:`repro.planning`) at different prefetch lookaheads and
chain-lifecycle policies.  ``lookahead=0`` with the policy off is the
planner-free PR-4 coalescing baseline that anchors every speedup column.

Because predictive prefetch replays each chain's own RNG, a policy-off
planning run issues *exactly* the unique queries the baseline issues —
just earlier, where they ride open bursts' spare admission slots — so
the driver asserts §II-B cost equality for every policy-off cell (the
adaptive-policy cells redistribute work across a different chain roster
and are reported, not asserted).  What planning changes is the
simulated wall-clock: chains step through prefetched territory at zero
latency instead of paying an admission slot and a round trip per fetch.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from repro.compose import FleetSpec, PlannerSpec, PolicySpec, ProviderSpec, StackConfig, WalkSpec, build_stack
from repro.datasets.standins import SocialNetwork
from repro.errors import ExperimentError

#: Chain-policy axis values.
POLICY_OFF = "off"
POLICY_ADAPTIVE = "adaptive"


@dataclasses.dataclass(frozen=True)
class HistorySweepRow:
    """One (skew, lookahead, policy) cell of the sweep.

    Attributes:
        skew: Routing weight of the hot shard (1.0 = uniform fleet).
        lookahead: Predictive prefetches per chain per tick (0 = planner
            off when the policy is off too).
        policy: Chain-lifecycle policy (``off`` or ``adaptive``).
        query_cost: Billed unique queries — identical to the baseline for
            every policy-off row (asserted by the driver).
        sim_wall: Simulated wall-clock makespan of the run.
        wall_per_sample: ``sim_wall`` per collected sample.
        speedup_vs_plain: Baseline (planner-free) wall-clock over this
            run's (1.0 for the baseline row itself).
        prefetch_issued: Predictive fetches that rode open bursts.
        prefetch_used: Prefetches later consumed by a chain's step.
        prefetch_wasted: Prefetches orphaned by chain retirement, plus
            those still outstanding when the run ended.
        cache_first_rate: Fraction of steps that advanced through known
            neighborhoods at zero latency.
        retired_chains: Chains the adaptive policy retired (empty with
            the policy off).
    """

    skew: float
    lookahead: int
    policy: str
    query_cost: int
    sim_wall: float
    wall_per_sample: float
    speedup_vs_plain: float
    prefetch_issued: int
    prefetch_used: int
    prefetch_wasted: int
    cache_first_rate: float
    retired_chains: tuple


@dataclasses.dataclass
class HistorySweepResult:
    """Everything one history sweep produced.

    Attributes:
        dataset: Network label.
        chains: Parallel chains per run.
        num_samples: Samples collected per run (rounded to a multiple of
            ``chains`` so per-chain quotas — and therefore query costs —
            match exactly across cells).
        num_shards: Fleet size of every cell.
        batch_cap: Per-shard burst size limit.
        admission_interval: Per-shard seconds between round-trip
            admissions.
        rows: One :class:`HistorySweepRow` per swept cell.
    """

    dataset: str
    chains: int
    num_samples: int
    num_shards: int
    batch_cap: int
    admission_interval: float
    rows: List[HistorySweepRow]

    def __str__(self) -> str:
        lines = [
            f"history sweep — {self.chains} chains x {self.num_samples} samples "
            f"on {self.dataset} ({self.num_shards} shards, cap {self.batch_cap}, "
            f"admission every {self.admission_interval:g}s)",
            "  {:>5} {:>9} {:>8} {:>8} {:>13} {:>8} {:>16} {:>9} {:>8}".format(
                "skew",
                "lookahead",
                "policy",
                "queries",
                "wall/sample",
                "speedup",
                "prefetch i/u/w",
                "cache-1st",
                "retired",
            ),
        ]
        for row in self.rows:
            lines.append(
                "  {:>5.1f} {:>9} {:>8} {:>8} {:>13.4f} {:>7.2f}x {:>16} {:>8.1%} {:>8}".format(
                    row.skew,
                    row.lookahead,
                    row.policy,
                    row.query_cost,
                    row.wall_per_sample,
                    row.speedup_vs_plain,
                    f"{row.prefetch_issued}/{row.prefetch_used}/{row.prefetch_wasted}",
                    row.cache_first_rate,
                    len(row.retired_chains),
                )
            )
        return "\n".join(lines)


def run_history_sweep(
    network: SocialNetwork,
    skews: Sequence[float] = (1.0, 8.0),
    lookaheads: Sequence[int] = (0, 2, 4),
    policies: Sequence[str] = (POLICY_OFF, POLICY_ADAPTIVE),
    chains: int = 8,
    num_samples: int = 400,
    num_shards: int = 4,
    batch_cap: int = 16,
    latency_scale: float = 0.5,
    admission_interval: float = 2.0,
    latency_quantum: float = 0.5,
    seed: int = 0,
    thinning: int = 1,
) -> HistorySweepResult:
    """Sweep the planning layer over a skewed batch-coalescing fleet.

    For every skew the same chains (same seeds, same per-chain quotas)
    run once per (lookahead, policy) cell over identically configured
    fleets.  The ``(0, off)`` cell runs planner-free and anchors the
    speedup column; every further policy-off cell must bill the
    *identical* §II-B query cost (predictive prefetch spends the same
    queries earlier — the driver asserts it).  Adaptive-policy cells may
    shift cost (a different roster walks different nodes) and are
    reported unasserted.

    Args:
        network: Dataset to sample.
        skews: Hot-shard routing weights (1.0 = uniform).
        lookaheads: Prefetch budgets to sweep (0 included automatically
            as the baseline).
        policies: Chain policies to sweep (``"off"``/``"adaptive"``;
            ``"off"`` is prepended when missing — the planner-free cell
            anchors every speedup column).
        chains: Parallel chains (>= 2).
        num_samples: Total samples per run; rounded down to a multiple
            of ``chains``.
        num_shards: Fleet size of every cell.
        batch_cap: Per-shard burst size limit (headroom is what prefetch
            rides; small caps leave planning little room).
        latency_scale: Heavy-tailed latency scale of every shard stack.
        admission_interval: Seconds between round-trip admissions at
            every shard.
        latency_quantum: Response-latency grid of the fleet.
        seed: Master seed (routing, latency draws, and walk streams
            derive from it).
        thinning: Per-chain spacing between collected samples.

    Raises:
        ExperimentError: On fewer than two chains, an empty quota, an
            unknown policy name, or a policy-off cost mismatch (which
            would mean prediction issued queries the walk never spends).
    """
    if chains < 2:
        raise ExperimentError("the scheduler needs at least two chains")
    unknown = [p for p in policies if p not in (POLICY_OFF, POLICY_ADAPTIVE)]
    if unknown:
        raise ExperimentError(f"unknown chain policies: {unknown}")
    num_samples = (num_samples // chains) * chains
    if num_samples <= 0:
        raise ExperimentError("num_samples must be at least the chain count")
    # The planner-free (off, lookahead 0) cell anchors every speedup and
    # the cost-equality assertion, so it must run first regardless of how
    # (or whether) the caller listed its coordinates.
    lookahead_axis = [0] + [la for la in dict.fromkeys(lookaheads) if la != 0]
    policy_axis = [POLICY_OFF] + [p for p in dict.fromkeys(policies) if p != POLICY_OFF]
    walk = WalkSpec(
        engine="srw", chains=chains, seed=seed, starts=tuple(network.seed_node(i) for i in range(chains))
    )

    def run_cell(skew: float, lookahead: int, policy_name: str):
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
            batch_cap=batch_cap,
            latency_quantum=latency_quantum,
        )
        planner: Optional[PlannerSpec] = None
        if lookahead > 0 or policy_name == POLICY_ADAPTIVE:
            policy = None
            if policy_name == POLICY_ADAPTIVE:
                policy = PolicySpec(
                    min_chains=max(2, chains // 2),
                    tail_ratio=2.0,
                    evaluate_every=8,
                    min_observations=6,
                )
            planner = PlannerSpec(lookahead=lookahead, policy=policy)
        stack = build_stack(StackConfig(fleet=fleet, walk=walk, planner=planner), network)
        return stack.run(num_samples=num_samples, thinning=thinning)

    rows: List[HistorySweepRow] = []
    for skew in skews:
        baseline_wall = None
        baseline_cost = None
        for policy_name in policy_axis:
            for lookahead in lookahead_axis:
                run = run_cell(skew, lookahead, policy_name)
                if policy_name == POLICY_OFF and lookahead == 0:
                    baseline_wall = run.sim_elapsed
                    baseline_cost = run.queries
                elif policy_name == POLICY_OFF and run.queries != baseline_cost:
                    raise ExperimentError(
                        f"lookahead {lookahead} changed the §II-B bill at skew "
                        f"{skew}: {run.queries} vs {baseline_cost}"
                    )
                planning = run.planning or {}
                rows.append(
                    HistorySweepRow(
                        skew=skew,
                        lookahead=lookahead,
                        policy=policy_name,
                        query_cost=run.queries,
                        sim_wall=run.sim_elapsed,
                        wall_per_sample=run.sim_elapsed / num_samples,
                        speedup_vs_plain=(
                            baseline_wall / run.sim_elapsed if run.sim_elapsed > 0 else 1.0
                        ),
                        prefetch_issued=planning.get("prefetch_issued", 0),
                        prefetch_used=planning.get("prefetch_used", 0),
                        prefetch_wasted=planning.get("prefetch_wasted", 0)
                        + planning.get("prefetch_outstanding", 0),
                        cache_first_rate=planning.get("cache_first_rate", 0.0),
                        retired_chains=tuple(planning.get("retired_chains", ())),
                    )
                )
    return HistorySweepResult(
        dataset=network.name,
        chains=chains,
        num_samples=num_samples,
        num_shards=num_shards,
        batch_cap=batch_cap,
        admission_interval=admission_interval,
        rows=rows,
    )
