"""The three benchmark workloads, each a closed loop over one stand-in.

Every workload samples the 26k-node ``epinions_like`` stand-in (scale 10,
the size of the paper's Table I Epinions) through a different slice of
the stack:

* ``mto-rewire`` -- the paper's sampler.  Four MTO chains share one
  overlay in lock-step ``ParallelWalkers`` with one-step prefetch over the
  plain zero-latency interface; a Gelman-Rubin burn-in of at least
  ``burn_in`` rounds runs through ``step_all`` (where the prefetch and
  the MTO predictor act) before the samples are collected.  Bypasses
  fleet, scheduler, planning and service, so gains there must read flat
  here.
* ``fleet-planned`` -- the planner-on fleet stack: ``build_stack`` with a
  4-shard heavy-tailed fleet weighted (8,1,1,1), 8 SRW chains and a
  lookahead-4 planner.  The scheduler, planner and router do most work.
  The Pareto shape is 2.5, not the library's 1.5: at 1.5 the latency
  variance is infinite and the few pathologically slow users a crawl
  happens to touch set its makespan, so the simulated clock per sample
  spread 13-23% from seed to seed (1.4% at 2.5).
* ``service-churn`` -- 32 tenants with mixed engines share one DRR
  ``SamplingService`` over a flaky 4-shard fleet and a TTL'd shared cache
  (so every hit takes the key-value store path).  Requests arrive in
  waves, every tenant hibernates after each wave and wakes on its next
  request, and one tenant in 32 runs into its tight query budget.

The dataset and the fleets' latency/failure seeds are fixed -- they are
the environment, like the paper's crawled datasets; ``--seed`` chooses
the walk seeds, start nodes and tenant mix.  A workload runs a fixed
list of *episodes* (distinct derived seeds); each episode builds a fresh
stack, so every crawl starts with a cold cache.
"""

from __future__ import annotations

import hashlib
import math
import random

from repro.aggregates.queries import AggregateQuery, ground_truth
from repro.compose import FleetSpec, PlannerSpec, ProviderSpec, StackConfig, WalkSpec, build_stack
from repro.convergence import GelmanRubinDiagnostic
from repro.core import estimators
from repro.core.mto import MTOSampler
from repro.core.overlay import OverlayGraph
from repro.datasets import load
from repro.datastore.kv import KeyValueStore
from repro.datastore.snapshot import decode_value
from repro.errors import ServiceError
from repro.interface.api import RestrictedSocialAPI
from repro.service import SamplingService
from repro.service.service import STATE_EXHAUSTED
from repro.walks.parallel import ParallelWalkers

DATASET = "epinions_like"
DATASET_SEED = 0
DATASET_SCALE = 10
FLEET_SEED = 0

AVERAGE_DEGREE = AggregateQuery.average_degree()

#: Names of the program counters each episode reports for reconciliation
#: against the span-derived counts (see ``spans.COUNTS``).
RECONCILED = (
    "logical_queries",
    "cache_lookups",
    "fleet_fetches",
    "prefetch_issued",
    "parallel_prefetch_users",
)


def load_network():
    """Generate the stand-in (part of every workload's set-up)."""
    return load(DATASET, seed=DATASET_SEED, scale=DATASET_SCALE)


def true_average_degree(network) -> float:
    return ground_truth(AVERAGE_DEGREE, network.graph)


def episode_seed(seed: int, episode: int) -> int:
    return seed * 1_000 + episode


class Outcome:
    """What one finished episode produced (read after the timed window)."""

    def __init__(self, **fields) -> None:
        self.samples = 0  # samples delivered
        self.queries = 0  # §II-B unique billed queries
        self.sim_s = 0.0  # simulated clock at the end of the episode
        self.estimates = []  # average-degree estimates (one per tenant)
        self.requests = []  # per-request simulated latency (inf = failed)
        self.pace_ratio = None  # service fairness max_ratio, if any
        self.digest = ""
        self.detached = True  # no trace recorder on any measured layer
        self.failures_documented = True  # only budget exhaustion refused requests
        self.__dict__.update(fields)


def _digest(samples, logs, clock: float) -> str:
    """sha256 over samples, every query log record and the simulated clock."""
    h = hashlib.sha256()
    h.update(repr([(s.node, s.weight, s.query_cost, s.step) for s in samples]).encode())
    for records in logs:
        h.update(repr(records).encode())
    h.update(repr(clock).encode())
    return h.hexdigest()


def _fleet_counters(fleet) -> dict:
    stats = fleet.stats if fleet is not None else ()
    attempts = fetches = 0
    for shard in fleet.shards if fleet is not None else ():
        retry = getattr(shard, "retry_stats", None)
        if retry is not None:
            attempts += retry.attempts
            fetches += retry.fetches
    return {
        "fleet_fetches": sum(s.queries for s in stats),
        "fleet_bursts": sum(s.bursts for s in stats),
        "flaky_attempts": attempts,
        "flaky_fetches": fetches,
    }


def _api_counters(apis) -> dict:
    return {
        "logical_queries": sum(a.total_queries for a in apis),
        "cache_hits": sum(a.cache_hits for a in apis),
        "cache_misses": sum(a.cache_misses for a in apis),
        "cache_lookups": sum(a.cache_hits + a.cache_misses for a in apis),
    }


def _detached(*owners) -> bool:
    """repro.obs stays detached: no recorder on any measured layer."""
    return all(getattr(o, "recorder", None) is None for o in owners)


# ----------------------------------------------------------------------
# mto-rewire
# ----------------------------------------------------------------------
class MtoRewire:
    name = "mto-rewire"
    episodes = 4
    samples = 10_000
    chains = 4
    burn_in = 1_500

    def build(self, network, seed: int, episode: int):
        return _MtoEpisode(self, network, episode_seed(seed, episode))


class _MtoEpisode:
    def __init__(self, spec: MtoRewire, network, base: int) -> None:
        self.api = network.interface()
        self.overlay = OverlayGraph(self.api)
        samplers = [
            MTOSampler(
                self.api,
                start=network.seed_node(base * 16 + i),
                seed=base * 16 + i,
                overlay=self.overlay,
            )
            for i in range(spec.chains)
        ]
        self.walkers = ParallelWalkers(samplers, prefetch=True)
        self.spec = spec
        self.result = None
        self.estimate = None

    def run(self) -> None:
        monitor = GelmanRubinDiagnostic(threshold=1.1, min_chain_length=self.spec.burn_in)
        self.result = self.walkers.run(self.spec.samples, monitor=monitor)
        self.estimate = estimators.estimate(AVERAGE_DEGREE, self.result.samples, self.api)

    def counters(self) -> dict:
        out = _api_counters([self.api])
        out.update(_fleet_counters(None))
        out["prefetch_issued"] = 0
        out["parallel_prefetch_users"] = self.walkers.planning_summary()["prefetch_users"]
        out["overlay_removals"] = self.overlay.removal_count
        out["overlay_replacements"] = self.overlay.replacement_count
        return out

    def outcome(self) -> Outcome:
        clock = self.api.clock.now()
        return Outcome(
            samples=len(self.result.samples),
            queries=self.api.query_cost,
            sim_s=clock,
            estimates=[self.estimate.estimate],
            requests=[clock],
            digest=_digest(self.result.samples, [self.api.log.state_dict()["records"]], clock),
            detached=_detached(self.api),
        )


# ----------------------------------------------------------------------
# fleet-planned
# ----------------------------------------------------------------------
class FleetPlanned:
    name = "fleet-planned"
    episodes = 4
    samples = 5_000

    def config(self, base: int) -> StackConfig:
        return StackConfig(
            fleet=FleetSpec(
                num_shards=4,
                seed=FLEET_SEED,
                weights=(8.0, 1.0, 1.0, 1.0),
                provider=ProviderSpec(
                    latency_distribution="heavy_tailed", latency_scale=0.5, latency_alpha=2.5
                ),
                batch_cap=16,
                admission_interval=2.0,
            ),
            walk=WalkSpec(engine="srw", chains=8, seed=base),
            planner=PlannerSpec(lookahead=4),
        )

    def build(self, network, seed: int, episode: int):
        return _StackEpisode(build_stack(self.config(episode_seed(seed, episode)), network), self.samples)


class _StackEpisode:
    def __init__(self, stack, samples: int) -> None:
        self.stack = stack
        self.num_samples = samples
        self.result = None
        self.estimate = None

    def run(self) -> None:
        self.result = self.stack.run(self.num_samples)
        self.estimate = estimators.estimate(AVERAGE_DEGREE, self.result.samples, self.stack.api)

    def counters(self) -> dict:
        out = _api_counters([self.stack.api])
        out.update(_fleet_counters(self.stack.fleet))
        ledger = self.stack.planner.ledger
        prediction = self.stack.planner.summary()["prediction"]
        out["prefetch_issued"] = ledger.issued
        out["prefetch_used"] = ledger.used
        out["prediction_hits"] = sum(row["hits"] for row in prediction.values())
        out["prediction_misses"] = sum(row["misses"] for row in prediction.values())
        out["parallel_prefetch_users"] = 0
        out["scheduler_events"] = self.stack.walkers.events_processed
        return out

    def outcome(self) -> Outcome:
        clock = self.stack.walkers.simulated_elapsed
        return Outcome(
            samples=len(self.result.samples),
            queries=self.stack.api.query_cost,
            sim_s=clock,
            estimates=[self.estimate.estimate],
            requests=[clock],
            digest=_digest(
                self.result.samples, [self.stack.api.log.state_dict()["records"]], clock
            ),
            detached=_detached(self.stack.api, self.stack.fleet, self.stack.walkers),
        )


# ----------------------------------------------------------------------
# service-churn
# ----------------------------------------------------------------------
class ServiceChurn:
    name = "service-churn"
    episodes = 4
    tenants = 32
    chains = 4
    waves = 4
    per_request = 25
    tight_budget = 20
    #: Long enough that nothing would expire if the store clock moved; the
    #: TTL is there to turn the cache's hot lane off.
    cache_ttl = 3600.0

    def build(self, network, seed: int, episode: int):
        return _ServiceEpisode(self, network, episode_seed(seed, episode))


class _ServiceEpisode:
    def __init__(self, spec: ServiceChurn, network, base: int) -> None:
        rng = random.Random(base)
        engines = (["srw", "mhrw", "nbrw"] * spec.tenants)[: spec.tenants]
        rng.shuffle(engines)
        tight = rng.randrange(spec.tenants)
        self.spec = spec
        self.spill = KeyValueStore()
        self.service = SamplingService(
            network,
            fleet=FleetSpec(
                num_shards=4,
                seed=FLEET_SEED,
                weights=(4.0, 2.0, 1.0, 1.0),
                provider=ProviderSpec(
                    latency_distribution="uniform", latency_scale=0.5, failure_rate=0.05
                ),
            ),
            cache_ttl=spec.cache_ttl,
            idle_hibernate_after=1,
            spill_store=self.spill,
        )
        self.tenant_ids = [f"t{i:02d}" for i in range(spec.tenants)]
        self.tight = self.tenant_ids[tight]
        for i, tid in enumerate(self.tenant_ids):
            self.service.register(
                tid,
                StackConfig(
                    walk=WalkSpec(engine=engines[i], chains=spec.chains, seed=base * 100 + i),
                    query_budget=spec.tight_budget if tid == self.tight else None,
                ),
            )
        self.requests = []  # (tenant, arrival clock, cumulative target)
        self.refused = []  # tenants whose request was refused
        self.report = None

    def run(self) -> None:
        service = self.service
        for _ in range(self.spec.waves):
            for tid in self.tenant_ids:
                try:
                    session = service.request(tid, self.spec.per_request)
                except ServiceError:
                    # The documented refusal: only an exhausted tenant may
                    # see one, which outcome() checks.
                    self.refused.append(tid)
                    continue
                self.requests.append((tid, service.clock, session.requested))
            service.run_pending()
        self.report = service.fairness_report()

    def _tenant_books(self, tid: str) -> dict:
        """A tenant's log, samples and counters, live or spilled."""
        session = self.service.tenant(tid)
        if session.stack is not None:
            api, walkers = session.stack.api, session.stack.walkers
            return {
                "records": api.log.state_dict()["records"],
                "samples": walkers.result().samples,
                "cache_hits": api.cache_hits,
                "cache_misses": api.cache_misses,
                "events": walkers.events_processed,
                "detached": _detached(api, walkers),
            }
        payload = decode_value(self.spill.get(("tenant", tid)))
        return {
            "records": payload["api"]["log"]["records"],
            "samples": list(payload["walkers"]["merged"]),
            "cache_hits": payload["api"]["cache_hits"],
            "cache_misses": payload["api"]["cache_misses"],
            "events": payload["walkers"]["events"],
            "detached": True,
        }

    def counters(self) -> dict:
        books = [self._tenant_books(tid) for tid in self.tenant_ids]
        hits = sum(b["cache_hits"] for b in books)
        misses = sum(b["cache_misses"] for b in books)
        out = {
            "logical_queries": sum(len(b["records"]) for b in books),
            "cache_hits": hits,
            "cache_misses": misses,
            "cache_lookups": hits + misses,
            "prefetch_issued": 0,
            "parallel_prefetch_users": 0,
            "scheduler_events": sum(b["events"] for b in books),
        }
        out.update(_fleet_counters(self.service.fleet))
        return out

    def outcome(self) -> Outcome:
        books = {tid: self._tenant_books(tid) for tid in self.tenant_ids}
        reader = RestrictedSocialAPI(self.service.fleet, cache=self.service.cache)
        estimates = [
            estimators.estimate(AVERAGE_DEGREE, b["samples"], reader).estimate
            for b in books.values()
            if b["samples"]
        ]
        latencies = []
        for tid, arrival, target in self.requests:
            clocks = self.service.tenant(tid).sample_clock
            latencies.append(clocks[target - 1] - arrival if len(clocks) >= target else math.inf)
        latencies.extend(math.inf for _ in self.refused)
        exhausted = {
            tid for tid in self.tenant_ids if self.service.tenant(tid).state == STATE_EXHAUSTED
        }
        samples = [s for b in books.values() for s in b["samples"]]
        clock = self.service.clock
        return Outcome(
            samples=self.report["total_samples"],
            queries=self.report["total_query_cost"],
            sim_s=clock,
            estimates=estimates,
            requests=latencies,
            pace_ratio=self.report["max_ratio"],
            digest=_digest(samples, [b["records"] for b in books.values()], clock),
            detached=self.service.recorder is None and all(b["detached"] for b in books.values()),
            # Only the tight-budget tenant may be refused or run dry.
            failures_documented=set(self.refused) <= {self.tight} and exhausted <= {self.tight},
        )


WORKLOADS = {w.name: w for w in (MtoRewire(), FleetPlanned(), ServiceChurn())}
