"""Warm history: per-engine predictive planning + cross-run warm starts.

Two measurements ride one driver, both downstream of ISSUE 8's tentpole
(universal prefetch prediction + persistent history):

1. **Per-engine planned speedup at equal cost.**  Every registered walk
   engine — SRW's single-draw replay, MHRW's acceptance-test replay,
   NBRW's predecessor-exclusion replay, MTO's overlay-branch replay —
   now implements ``predict_next_fetch``, so the dispatch planner's
   predictive prefetch works for all of them.  For each engine the
   driver runs the same chains over the same skewed batch-coalescing
   fleet twice: planner-free (the baseline) and with a planner
   (``lookahead`` > 0), which is cost-neutral.  Predictions are the
   walks' real future fetches, so the planned run must bill the
   *identical* §II-B unique-query set — asserted — while the simulated
   wall-clock drops (fetches ride open bursts' spare admission slots).

2. **Warm-started second runs.**  A first crawl records its paid-for
   knowledge into a :class:`~repro.datastore.history.HistoryStore`; a
   *different* crawl (new seeds) then runs twice — cold, and warm-started
   from that artifact.  The warm run must deliver the bit-for-bit
   identical per-chain samples (history is knowledge, not behaviour:
   the walk's RNG never sees whether a hit was pre-paid) while spending
   strictly fewer §II-B queries, with the savings attributed through the
   interface's ``warm_hits`` counter.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.compose import FleetSpec, ProviderSpec, build_fleet
from repro.core.mto import MTOSampler
from repro.datasets.standins import SocialNetwork
from repro.datastore.history import HistoryStore
from repro.datastore.kv import KeyValueStore
from repro.datastore.snapshot import KeyValueBackend
from repro.errors import ExperimentError
from repro.interface.api import RestrictedSocialAPI
from repro.planning import DispatchPlanner
from repro.walks.mhrw import MetropolisHastingsWalk
from repro.walks.nbrw import NonBacktrackingWalk
from repro.walks.scheduler import EventDrivenWalkers
from repro.walks.srw import SimpleRandomWalk

#: Engine axis: every walk engine with an RNG-replay fetch predictor.
ENGINES = {
    "srw": SimpleRandomWalk,
    "mhrw": MetropolisHastingsWalk,
    "nbrw": NonBacktrackingWalk,
    "mto": MTOSampler,
}


@dataclasses.dataclass(frozen=True)
class WarmHistoryEngineRow:
    """One engine's baseline-vs-planned cell.

    Attributes:
        engine: Registry name (``srw``/``mhrw``/``nbrw``/``mto``).
        query_cost: Billed unique queries — identical between the
            baseline and planned runs (asserted).
        baseline_wall: Planner-free simulated makespan.
        planned_wall: Cost-neutral planned simulated makespan.
        speedup: ``baseline_wall / planned_wall``.
        prefetch_issued: Predictive fetches that rode open bursts.
        prefetch_used: Prefetches later consumed by a chain's step.
        prediction_hits: Replays that resolved a concrete future fetch.
        prediction_misses: Replays that answered ``None``.
    """

    engine: str
    query_cost: int
    baseline_wall: float
    planned_wall: float
    speedup: float
    prefetch_issued: int
    prefetch_used: int
    prediction_hits: int
    prediction_misses: int


@dataclasses.dataclass(frozen=True)
class WarmStartReport:
    """The cold-vs-warm second-run comparison.

    Attributes:
        recorded_users: Neighborhoods the first crawl's artifact carries.
        cold_cost: §II-B queries of the second crawl run cold.
        warm_cost: The same crawl warm-started from the artifact.
        savings: ``cold_cost - warm_cost`` (strictly positive; asserted).
        warm_users: Users preloaded into the warm run's interface.
        warm_hits: Hits the warm run served from preloaded knowledge.
        bit_for_bit: Whether cold and warm delivered identical per-chain
            sample sequences (asserted ``True``).
    """

    recorded_users: int
    cold_cost: int
    warm_cost: int
    savings: int
    warm_users: int
    warm_hits: int
    bit_for_bit: bool


@dataclasses.dataclass
class WarmHistoryResult:
    """Everything one warm-history run produced.

    Attributes:
        dataset: Network label.
        chains: Parallel chains per run.
        num_samples: Samples collected per run.
        lookahead: Prefetch budget of the planned cells.
        rows: One :class:`WarmHistoryEngineRow` per engine.
        warm: The cross-run warm-start comparison.
    """

    dataset: str
    chains: int
    num_samples: int
    lookahead: int
    rows: List[WarmHistoryEngineRow]
    warm: WarmStartReport

    def __str__(self) -> str:
        lines = [
            f"warm history — {self.chains} chains x {self.num_samples} samples "
            f"on {self.dataset} (lookahead {self.lookahead}, cost-neutral prefetch)",
            "  {:>6} {:>8} {:>12} {:>12} {:>8} {:>13} {:>13}".format(
                "engine", "queries", "base wall", "plan wall", "speedup",
                "prefetch i/u", "predict h/m",
            ),
        ]
        for row in self.rows:
            lines.append(
                "  {:>6} {:>8} {:>12.1f} {:>12.1f} {:>7.2f}x {:>13} {:>13}".format(
                    row.engine,
                    row.query_cost,
                    row.baseline_wall,
                    row.planned_wall,
                    row.speedup,
                    f"{row.prefetch_issued}/{row.prefetch_used}",
                    f"{row.prediction_hits}/{row.prediction_misses}",
                )
            )
        w = self.warm
        lines.append(
            f"  warm start: {w.recorded_users} recorded users, "
            f"cold {w.cold_cost} vs warm {w.warm_cost} queries "
            f"(saved {w.savings}; {w.warm_hits} warm hits; "
            f"bit-for-bit={w.bit_for_bit})"
        )
        return "\n".join(lines)


def _chain_nodes(run) -> List[List]:
    """Per-chain sample node sequences (warm-start's bit-for-bit probe)."""
    return [[s.node for s in chain.samples] for chain in run.per_chain]


def run_warm_history(
    network: SocialNetwork,
    engines: Sequence[str] = ("srw", "mhrw", "nbrw", "mto"),
    chains: int = 8,
    num_samples: int = 400,
    lookahead: int = 4,
    num_shards: int = 4,
    skew: float = 8.0,
    batch_cap: int = 16,
    latency_scale: float = 0.5,
    admission_interval: float = 2.0,
    latency_quantum: float = 0.5,
    seed: int = 0,
    history_store: Optional[HistoryStore] = None,
) -> WarmHistoryResult:
    """Measure per-engine planned speedups and cross-run warm-start savings.

    Args:
        network: Dataset to sample.
        engines: Engine-axis members (subset of :data:`ENGINES`).
        chains: Parallel chains (>= 2).
        num_samples: Total samples per run; rounded down to a multiple
            of ``chains``.
        lookahead: Prefetch budget of the planned cells (> 0).
        num_shards: Fleet size of every cell.
        skew: Hot-shard routing weight (1.0 = uniform).
        batch_cap: Per-shard burst size limit.
        latency_scale: Heavy-tailed latency scale of every shard stack.
        admission_interval: Seconds between round-trip admissions.
        latency_quantum: Response-latency grid of the fleet.
        seed: Master seed.
        history_store: Optional store for the warm-start phase; an
            in-memory :class:`~repro.datastore.snapshot.KeyValueBackend`
            is used when omitted (the artifact still round-trips the
            snapshot codec either way).

    Raises:
        ExperimentError: On bad parameters, an unknown engine, a planned
            run whose §II-B bill deviates from its baseline, a warm run
            that saved nothing, or a warm run that diverged from cold.
    """
    if chains < 2:
        raise ExperimentError("the scheduler needs at least two chains")
    if lookahead <= 0:
        raise ExperimentError("lookahead must be positive (0 is the baseline itself)")
    unknown = [e for e in engines if e not in ENGINES]
    if unknown:
        raise ExperimentError(f"unknown walk engines: {unknown}")
    num_samples = (num_samples // chains) * chains
    if num_samples <= 0:
        raise ExperimentError("num_samples must be at least the chain count")

    def build_cell(engine_name: str, look: int, walk_seed: int):
        weights = None
        if num_shards > 1 and skew != 1.0:
            weights = [skew] + [1.0] * (num_shards - 1)
        fleet = build_fleet(
            FleetSpec(
                num_shards=num_shards,
                seed=seed * 7 + 3,
                weights=weights,
                provider=ProviderSpec(
                    latency_distribution="heavy_tailed",
                    latency_scale=latency_scale,
                ),
                shard_latency_spread=1.0,
                admission_interval=admission_interval,
                batch_cap=batch_cap,
                latency_quantum=latency_quantum,
            ),
            network.graph,
            profiles=network.profiles,
        )
        api = RestrictedSocialAPI(fleet)
        engine = ENGINES[engine_name]
        walkers = [
            engine(api, start=network.seed_node(i), seed=walk_seed * 100_003 + i)
            for i in range(chains)
        ]
        planner = DispatchPlanner(lookahead=look) if look > 0 else None
        return api, EventDrivenWalkers(walkers, planner=planner)

    rows: List[WarmHistoryEngineRow] = []
    for engine_name in engines:
        _, baseline = build_cell(engine_name, 0, seed)
        base_run = baseline.run(num_samples=num_samples)
        _, planned = build_cell(engine_name, lookahead, seed)
        plan_run = planned.run(num_samples=num_samples)
        if plan_run.queries != base_run.queries:
            raise ExperimentError(
                f"{engine_name}: planning changed the §II-B bill "
                f"({plan_run.queries} vs {base_run.queries})"
            )
        planning = plan_run.planning or {}
        books: Dict[str, int] = {"hits": 0, "misses": 0}
        for engine_books in planning.get("prediction", {}).values():
            books["hits"] += engine_books.get("hits", 0)
            books["misses"] += engine_books.get("misses", 0)
        rows.append(
            WarmHistoryEngineRow(
                engine=engine_name,
                query_cost=plan_run.queries,
                baseline_wall=base_run.sim_elapsed,
                planned_wall=plan_run.sim_elapsed,
                speedup=(
                    base_run.sim_elapsed / plan_run.sim_elapsed
                    if plan_run.sim_elapsed > 0
                    else 1.0
                ),
                prefetch_issued=planning.get("prefetch_issued", 0),
                prefetch_used=planning.get("prefetch_used", 0),
                prediction_hits=books["hits"],
                prediction_misses=books["misses"],
            )
        )

    # ------------------------------------------------------------------
    # cross-run warm start: record with one crawl, warm a different one
    # ------------------------------------------------------------------
    store = history_store
    if store is None:
        store = HistoryStore(KeyValueBackend(KeyValueStore(), namespace="warm-history"))
    recorder_api, recorder = build_cell("mhrw", lookahead, seed)
    recorder.run(num_samples=num_samples)
    sections = store.save(recorder_api)
    recorded_users = int(sections["history/meta"]["users"])

    second_seed = seed + 1  # a different crawl, not a resume
    _, cold = build_cell("mhrw", lookahead, second_seed)
    cold_run = cold.run(num_samples=num_samples)
    warm_api, warm = build_cell("mhrw", lookahead, second_seed)
    warmed = store.warm(warm_api)
    warm_run = warm.run(num_samples=num_samples)

    bit_for_bit = _chain_nodes(cold_run) == _chain_nodes(warm_run)
    if not bit_for_bit:
        raise ExperimentError(
            "warm start changed the walk: history must be knowledge, not behaviour"
        )
    savings = cold_run.queries - warm_run.queries
    if savings <= 0:
        raise ExperimentError(
            f"warm start saved nothing ({cold_run.queries} cold vs "
            f"{warm_run.queries} warm §II-B queries)"
        )
    warm_report = WarmStartReport(
        recorded_users=recorded_users,
        cold_cost=cold_run.queries,
        warm_cost=warm_run.queries,
        savings=savings,
        warm_users=warmed,
        warm_hits=warm_api.warm_hits,
        bit_for_bit=bit_for_bit,
    )
    return WarmHistoryResult(
        dataset=network.name,
        chains=chains,
        num_samples=num_samples,
        lookahead=lookahead,
        rows=rows,
        warm=warm_report,
    )
