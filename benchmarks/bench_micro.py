"""Micro-benchmarks: per-operation costs of the hot paths.

These are classic pytest-benchmark timing runs (many iterations) for the
operations that dominate experiment wall-clock: walk steps, the removal
criterion, overlay materialization, conductance search, and SLEM.

``test_walk_engine_profile`` additionally emits a machine-readable
``BENCH_walk_engine.json`` (path overridable via the
``BENCH_WALK_ENGINE_OUT`` environment variable) with steps-per-second and
queries-per-sample for the walk engines — the perf trajectory CI tracks
across PRs.
"""

import gc
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager

import pytest

from repro.analysis.conductance import min_conductance_exact, sweep_conductance
from repro.analysis.spectral import slem
from repro.compose import (
    FleetSpec,
    PlannerSpec,
    ProviderSpec,
    StackConfig,
    WalkSpec,
    build_fleet,
    build_stack,
)
from repro.core.criteria import removal_criterion
from repro.core.mto import MTOSampler
from repro.datasets import load
from repro.datastore import KeyValueStore
from repro.datastore.snapshot import JsonLinesBackend, KeyValueBackend, encode_value
from repro.experiments import (
    run_fleet_sweep,
    run_history_sweep,
    run_latency_sweep,
    run_tenant_sweep,
    run_warm_history,
)
from repro.generators import barbell_graph, paper_barbell
from repro.interface import RestrictedSocialAPI, collect_telemetry
from repro.obs import (
    SLOWatcher,
    TraceRecorder,
    attribute_run,
    cache_hit_rate_slo,
    diff_traces,
    export_chrome_trace,
    reconcile_attribution,
    reconcile_run,
    retry_rate_slo,
    shard_in_flight_slo,
)
from repro.planning import DispatchPlanner
from repro.interface.session import SamplingSession
from repro.service import SamplingService
from repro.walks import (
    EventDrivenWalkers,
    MetropolisHastingsWalk,
    NonBacktrackingWalk,
    SimpleRandomWalk,
)
from repro.walks.parallel import ParallelWalkers


#: The dataset every test here runs on, as ``load`` takes it.
_DATASET = {"name": "epinions_like", "seed": 0, "scale": 0.3}


@pytest.fixture(scope="module")
def network():
    return load(**_DATASET)


def _write_profile(report):
    """Write ``report`` as ``BENCH_<benchmark>.json`` and return the path.

    The path is overridable via ``BENCH_<BENCHMARK>_OUT``; every profile
    also records the dataset and the Python version it was measured on.
    """
    name = report["benchmark"]
    out_path = os.environ.get(f"BENCH_{name.upper()}_OUT", f"BENCH_{name}.json")
    python = ".".join(str(p) for p in sys.version_info[:3])
    with open(out_path, "w") as fh:
        json.dump({"dataset": _DATASET, "python": python, **report}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out_path


def test_srw_step(benchmark, network):
    api = network.interface()
    walk = SimpleRandomWalk(api, start=network.seed_node(0), seed=1)
    benchmark(walk.step)


def test_mhrw_step(benchmark, network):
    api = network.interface()
    walk = MetropolisHastingsWalk(api, start=network.seed_node(0), seed=1)
    benchmark(walk.step)


def test_nbrw_step(benchmark, network):
    api = network.interface()
    walk = NonBacktrackingWalk(api, start=network.seed_node(0), seed=1)
    benchmark(walk.step)


def test_mto_step(benchmark, network):
    api = network.interface()
    mto = MTOSampler(api, start=network.seed_node(0), seed=1)
    benchmark(mto.step)


def test_removal_criterion(benchmark):
    benchmark(removal_criterion, 9, 10, 11)


def test_exact_conductance_barbell12(benchmark):
    g = barbell_graph(6)  # 12 nodes → 2^11 Gray-code states
    benchmark(min_conductance_exact, g)


def test_sweep_conductance_standin(benchmark, network):
    benchmark(sweep_conductance, network.graph)


def test_slem_barbell(benchmark):
    g = paper_barbell()
    benchmark(slem, g)


# ----------------------------------------------------------------------
# walk-engine throughput profile (machine-readable trajectory artifact)
# ----------------------------------------------------------------------

# Pre-refactor anchor (PR 1 dev container): the O(k log k) sorted-draw
# engine.  Kept in the artifact so the trajectory has an origin even when
# CI hardware differs.
_PRE_REFACTOR_STEPS_PER_SECOND = {"mto": 61837, "srw": 93390}

_WARMUP_STEPS = 200
_TIMED_STEPS = 8000
_COST_SAMPLES = 500
_PARALLEL_CHAINS = 4
_PARALLEL_ROUNDS = 150


@contextmanager
def _gc_quiesced():
    """Keep ambient GC out of a timed loop.

    Inside a pytest session the interpreter heap is large enough that a
    single gen-2 collection landing in a ~25ms timed window reads as a
    3x engine slowdown; collect up front and pause automatic collection
    so the artifact tracks engine cost, not heap size.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _steps_per_second(sampler, steps=_TIMED_STEPS):
    for _ in range(_WARMUP_STEPS):
        sampler.step()
    with _gc_quiesced():
        t0 = time.perf_counter()
        for _ in range(steps):
            sampler.step()
        return steps / (time.perf_counter() - t0)


def _engine_profile(network, make_sampler):
    throughput = _steps_per_second(make_sampler(network.interface()))
    cost_sampler = make_sampler(network.interface())
    run = cost_sampler.run(num_samples=_COST_SAMPLES)
    return {
        "steps_per_second": round(throughput),
        "us_per_step": round(1e6 / throughput, 2),
        "queries_per_sample": round(run.query_cost / len(run.samples), 4),
        "query_cost": run.query_cost,
    }


def _make_chains(network, name):
    """Chain factory per engine name: 4 chains over one fresh interface."""

    def chains(api):
        if name == "mto":
            shared = None
            built = []
            for i in range(_PARALLEL_CHAINS):
                mto = MTOSampler(api, start=network.seed_node(i), seed=i, overlay=shared)
                shared = mto.overlay
                built.append(mto)
            return built
        engine = {
            "srw": SimpleRandomWalk,
            "mhrw": MetropolisHastingsWalk,
            "nbrw": NonBacktrackingWalk,
        }[name]
        return [
            engine(api, start=network.seed_node(i), seed=i)
            for i in range(_PARALLEL_CHAINS)
        ]

    return chains


def _parallel_profile(network, make_chains, repeats=3):
    """Best-of-N lock-step throughput with prefetch off and on.

    The two sides alternate within each repeat, as in
    :func:`_obs_serial_sps`, so a slow stretch of a noisy runner hits
    both equally; the gate reads their ratio.  Cost is seeded-exact.
    """
    best = {False: 0.0, True: 0.0}
    query_cost = {}
    for _ in range(repeats):
        for prefetch in (False, True):
            api = network.interface()
            walkers = ParallelWalkers(make_chains(api), prefetch=prefetch)
            for _ in range(20):
                walkers.step_all()
            with _gc_quiesced():
                t0 = time.perf_counter()
                for _ in range(_PARALLEL_ROUNDS):
                    walkers.step_all()
                elapsed = time.perf_counter() - t0
            best[prefetch] = max(best[prefetch], _PARALLEL_ROUNDS * _PARALLEL_CHAINS / elapsed)
            query_cost[prefetch] = api.query_cost
    return {
        "prefetch_on" if prefetch else "prefetch_off": {
            "chain_steps_per_second": round(best[prefetch]),
            "query_cost": query_cost[prefetch],
        }
        for prefetch in (False, True)
    }


_ENGINE_FACTORIES = {
    "srw": lambda network, api: SimpleRandomWalk(api, start=network.seed_node(0), seed=1),
    "mhrw": lambda network, api: MetropolisHastingsWalk(api, start=network.seed_node(0), seed=1),
    "nbrw": lambda network, api: NonBacktrackingWalk(api, start=network.seed_node(0), seed=1),
    "mto": lambda network, api: MTOSampler(api, start=network.seed_node(0), seed=1),
}


def test_walk_engine_profile(network, figure_report):
    """Emit ``BENCH_walk_engine.json``: the walk engines' perf trajectory.

    Serial steps/s and queries/sample for every engine, plus per-engine
    lock-step parallel throughput with prefetch off and on — the gate
    asserts prefetch-on is equal-or-faster at equal-or-lower §II-B cost
    (the ISSUE 7 regression).
    """
    report = {
        "benchmark": "walk_engine",
        "timed_steps": _TIMED_STEPS,
        "engines": {
            name: _engine_profile(network, lambda api, f=factory: f(network, api))
            for name, factory in _ENGINE_FACTORIES.items()
        },
        "parallel": {
            "chains": _PARALLEL_CHAINS,
            "engines": {
                name: _parallel_profile(network, _make_chains(network, name))
                for name in _ENGINE_FACTORIES
            },
        },
        "reference": {
            "pre_refactor_steps_per_second": _PRE_REFACTOR_STEPS_PER_SECOND,
            "note": "sorted-draw engine measured on the PR 1 dev container",
        },
    }
    for engine in report["engines"].values():
        assert engine["steps_per_second"] > 0
        assert engine["queries_per_sample"] > 0
    for name, rows in report["parallel"]["engines"].items():
        # Draw-aware prefetch bills only nodes the chains fetch anyway.
        assert rows["prefetch_on"]["query_cost"] <= rows["prefetch_off"]["query_cost"], name

    out_path = _write_profile(report)

    lines = [f"walk engine profile  ->  {out_path}"]
    for name, engine in report["engines"].items():
        lines.append(
            "  {:>4}: {:>8} steps/s   {:.4f} queries/sample".format(
                name, engine["steps_per_second"], engine["queries_per_sample"]
            )
        )
    for name, rows in report["parallel"]["engines"].items():
        lines.append(
            "  parallel {:>4} x{}: {} chain-steps/s (prefetch off), {} (on)".format(
                name,
                report["parallel"]["chains"],
                rows["prefetch_off"]["chain_steps_per_second"],
                rows["prefetch_on"]["chain_steps_per_second"],
            )
        )
    figure_report("\n".join(lines))


# ----------------------------------------------------------------------
# event-driven scheduler profile (machine-readable artifact)
# ----------------------------------------------------------------------

_SCHED_CHAINS = 8
_SCHED_SAMPLES = 400
_SCHED_SEED = 3


def test_scheduler_profile(network, figure_report):
    """Emit ``BENCH_scheduler.json``: lock-step vs event-driven scheduling.

    The acceptance metric (ISSUE 3): under a seeded heavy-tailed latency
    model the event-driven scheduler collects the same samples at
    identical §II-B query cost for at least 2x less simulated wall-clock
    per sample than lock-step rounds.  Simulated numbers are seeded and
    hardware-independent, so CI gates on them tightly; the wall-time
    events/s figure tracks scheduler overhead loosely.
    """
    sweep = run_latency_sweep(
        network,
        chains=_SCHED_CHAINS,
        num_samples=_SCHED_SAMPLES,
        seed=_SCHED_SEED,
    )
    rows = {row.distribution: row for row in sweep.rows}
    heavy = rows["heavy_tailed"]
    assert heavy.speedup >= 2.0, f"scheduler speedup regressed: {heavy.speedup:.2f}x"

    # Zero-latency determinism probe: the event loop must degenerate to
    # the lock-step round-robin order, bit for bit.
    def chains(api):
        return [
            SimpleRandomWalk(api, start=network.seed_node(i), seed=i)
            for i in range(_SCHED_CHAINS)
        ]

    lock_run = ParallelWalkers(chains(network.interface())).run(num_samples=200)
    event_run = EventDrivenWalkers(chains(network.interface())).run(num_samples=200)
    bit_for_bit = (
        event_run.samples == lock_run.samples and event_run.queries == lock_run.queries
    )
    assert bit_for_bit

    # The run above warmed the interpreter and the dataset; one cold,
    # single-shot timing swung by 10x between back-to-back runs, so the
    # recorded rate is the median of five.
    rates = []
    for _ in range(5):
        walkers = EventDrivenWalkers(chains(network.interface()))
        t0 = time.perf_counter()
        timed_run = walkers.run(num_samples=200)
        rates.append(timed_run.events_processed / (time.perf_counter() - t0))

    report = {
        "benchmark": "scheduler",
        "chains": _SCHED_CHAINS,
        "num_samples": sweep.num_samples,
        "latency_seed": _SCHED_SEED,
        "zero_latency_bit_for_bit": bit_for_bit,
        "events_per_second": round(statistics.median(rates)),
        "distributions": {
            name: {
                "query_cost": row.query_cost,
                "lockstep_wall_per_sample": round(row.lockstep_wall_per_sample, 6),
                "event_wall_per_sample": round(row.event_wall_per_sample, 6),
                "speedup": round(row.speedup, 4),
            }
            for name, row in rows.items()
        },
    }

    out_path = _write_profile(report)

    lines = [f"scheduler profile  ->  {out_path}"]
    for name, row in rows.items():
        lines.append(
            "  {:>13}: {:.4f} s/sample lock-step, {:.4f} event-driven ({:.2f}x)".format(
                name,
                row.lockstep_wall_per_sample,
                row.event_wall_per_sample,
                row.speedup,
            )
        )
    lines.append(f"  zero-latency bit-for-bit: {bit_for_bit}")
    figure_report("\n".join(lines))


# ----------------------------------------------------------------------
# fleet batch-coalescing profile (machine-readable artifact)
# ----------------------------------------------------------------------

_FLEET_CHAINS = 8
_FLEET_SAMPLES = 400
_FLEET_SHARDS = 4
_FLEET_SKEW = 8.0
_FLEET_SEED = 0


def test_fleet_profile(network, figure_report):
    """Emit ``BENCH_fleet.json``: the sharded-fleet batch-coalescing profile.

    The acceptance metric (ISSUE 4): over a skewed 4-shard fleet with
    per-shard admission limits, batch coalescing collects the same samples
    at identical §II-B query cost for at least 1.5x less simulated
    wall-clock per sample than uncoalesced dispatch (``batch_cap=1``).
    Simulated numbers are seeded and hardware-independent, so CI gates on
    them tightly.
    """
    sweep = run_fleet_sweep(
        network,
        shard_counts=(_FLEET_SHARDS,),
        skews=(_FLEET_SKEW,),
        batch_caps=(1, 8),
        chains=_FLEET_CHAINS,
        num_samples=_FLEET_SAMPLES,
        seed=_FLEET_SEED,
    )
    by_cap = {row.batch_cap: row for row in sweep.rows}
    coalesced = by_cap[8]
    assert coalesced.query_cost == by_cap[1].query_cost
    assert coalesced.speedup_vs_uncoalesced >= 1.5, (
        f"fleet batch-coalescing speedup regressed: "
        f"{coalesced.speedup_vs_uncoalesced:.2f}x"
    )

    # Zero-latency single-shard determinism probe: the batch-coalescing
    # loop over a trivial fleet must reproduce lock-step rounds bit for
    # bit — the ISSUE 4 equivalence criterion.
    def chains(api):
        return [
            SimpleRandomWalk(api, start=network.seed_node(i), seed=i)
            for i in range(_FLEET_CHAINS)
        ]

    lock_run = ParallelWalkers(chains(network.interface())).run(num_samples=200)
    fleet_api = RestrictedSocialAPI(
        build_fleet(FleetSpec(num_shards=1, seed=0), network.graph, profiles=network.profiles)
    )
    batched_run = EventDrivenWalkers(chains(fleet_api)).run(num_samples=200)
    bit_for_bit = (
        batched_run.samples == lock_run.samples
        and batched_run.queries == lock_run.queries
        and batched_run.sim_elapsed == 0.0
    )
    assert bit_for_bit

    report = {
        "benchmark": "fleet",
        "chains": _FLEET_CHAINS,
        "num_samples": sweep.num_samples,
        "num_shards": _FLEET_SHARDS,
        "skew": _FLEET_SKEW,
        "seed": _FLEET_SEED,
        "zero_latency_bit_for_bit": bit_for_bit,
        "caps": {
            str(cap): {
                "query_cost": row.query_cost,
                "wall_per_sample": round(row.wall_per_sample, 6),
                "speedup_vs_uncoalesced": round(row.speedup_vs_uncoalesced, 4),
                "hot_shard_share": round(row.hot_shard_share, 4),
                "max_in_flight": row.max_in_flight,
            }
            for cap, row in by_cap.items()
        },
    }

    out_path = _write_profile(report)

    lines = [f"fleet profile  ->  {out_path}"]
    for cap, row in sorted(by_cap.items()):
        lines.append(
            "  cap {:>2}: {:.4f} s/sample at {} queries ({:.2f}x vs uncoalesced, "
            "burst depth <= {})".format(
                cap,
                row.wall_per_sample,
                row.query_cost,
                row.speedup_vs_uncoalesced,
                row.max_in_flight,
            )
        )
    lines.append(f"  zero-latency bit-for-bit: {bit_for_bit}")
    figure_report("\n".join(lines))


# ----------------------------------------------------------------------
# history-aware planning profile (machine-readable artifact)
# ----------------------------------------------------------------------

_PLAN_CHAINS = 8
_PLAN_SAMPLES = 400
_PLAN_SHARDS = 4
_PLAN_SKEW = 8.0
_PLAN_CAP = 16
_PLAN_ADMISSION = 2.0
_PLAN_LOOKAHEAD = 4
_PLAN_SEED = 0

def test_planning_profile(network, figure_report):
    """Emit ``BENCH_planning.json``: the history-aware planning profile.

    The acceptance metric (ISSUE 5): over the seeded skewed fleet the
    dispatch planner (RNG-replay prefetch into open bursts' spare slots
    plus cache-first stepping) collects the same samples at
    equal-or-lower §II-B query cost for at least 1.5x less simulated
    wall-clock than PR-4 batch coalescing alone.  Simulated numbers are
    seeded and hardware-independent, so CI gates on them tightly.
    """
    sweep = run_history_sweep(
        network,
        skews=(_PLAN_SKEW,),
        lookaheads=(0, _PLAN_LOOKAHEAD),
        policies=("off", "adaptive"),
        chains=_PLAN_CHAINS,
        num_samples=_PLAN_SAMPLES,
        num_shards=_PLAN_SHARDS,
        batch_cap=_PLAN_CAP,
        admission_interval=_PLAN_ADMISSION,
        seed=_PLAN_SEED,
    )
    cells = {f"lookahead_{row.lookahead}_{row.policy}": row for row in sweep.rows}
    baseline = cells["lookahead_0_off"]
    planned = cells[f"lookahead_{_PLAN_LOOKAHEAD}_off"]
    assert planned.query_cost <= baseline.query_cost
    assert planned.speedup_vs_plain >= 1.5, (
        f"planning speedup regressed: {planned.speedup_vs_plain:.2f}x"
    )

    # Zero-knob determinism probe: a planner with every knob at zero over
    # a trivial fleet must reproduce lock-step rounds bit for bit — the
    # ISSUE 5 planning-off equivalence criterion.
    def chains(api):
        return [
            SimpleRandomWalk(api, start=network.seed_node(i), seed=i)
            for i in range(_PLAN_CHAINS)
        ]

    lock_run = ParallelWalkers(chains(network.interface())).run(num_samples=200)
    fleet_api = RestrictedSocialAPI(
        build_fleet(FleetSpec(num_shards=1, seed=0), network.graph, profiles=network.profiles)
    )
    zero_knob_run = EventDrivenWalkers(
        chains(fleet_api),
        planner=DispatchPlanner(lookahead=0),
    ).run(num_samples=200)
    bit_for_bit = (
        zero_knob_run.samples == lock_run.samples
        and zero_knob_run.queries == lock_run.queries
        and zero_knob_run.sim_elapsed == 0.0
    )
    assert bit_for_bit

    report = {
        "benchmark": "planning",
        "chains": _PLAN_CHAINS,
        "num_samples": sweep.num_samples,
        "num_shards": _PLAN_SHARDS,
        "skew": _PLAN_SKEW,
        "batch_cap": _PLAN_CAP,
        "admission_interval": _PLAN_ADMISSION,
        "lookahead": _PLAN_LOOKAHEAD,
        "seed": _PLAN_SEED,
        "zero_knob_bit_for_bit": bit_for_bit,
        "cells": {
            name: {
                "query_cost": row.query_cost,
                "wall_per_sample": round(row.wall_per_sample, 6),
                "speedup_vs_plain": round(row.speedup_vs_plain, 4),
                "prefetch_issued": row.prefetch_issued,
                "prefetch_used": row.prefetch_used,
                "prefetch_wasted": row.prefetch_wasted,
                "cache_first_rate": round(row.cache_first_rate, 4),
                "retired_chains": len(row.retired_chains),
            }
            for name, row in cells.items()
        },
    }

    out_path = _write_profile(report)

    lines = [f"planning profile  ->  {out_path}"]
    for name, row in cells.items():
        lines.append(
            "  {:>16}: {:.4f} s/sample at {} queries ({:.2f}x vs plain, "
            "{:.0%} cache-first)".format(
                name,
                row.wall_per_sample,
                row.query_cost,
                row.speedup_vs_plain,
                row.cache_first_rate,
            )
        )
    lines.append(f"  zero-knob bit-for-bit: {bit_for_bit}")
    figure_report("\n".join(lines))


# ----------------------------------------------------------------------
# cross-run warm-start history profile (machine-readable artifact)
# ----------------------------------------------------------------------

_HIST_SEED = 2
_HIST_PROBE_SAMPLES = 200
_HIST_MIN_SPEEDUP = 1.5


def test_history_profile(network, figure_report):
    """Emit ``BENCH_history.json``: per-engine prediction + warm starts.

    The acceptance metrics (ISSUE 8): every walk engine's planned run
    bills the identical §II-B query set as its
    planner-free baseline (``run_warm_history`` raises otherwise), MHRW
    and NBRW gain at least 1.5x simulated wall-clock from predictive
    prefetch on the skewed fleet, and a second run warm-started from a
    recorded :class:`~repro.datastore.history.HistoryStore` artifact
    spends strictly fewer queries than the same run cold while staying
    per-chain bit-for-bit identical.  A per-engine zero-knob probe rides
    along: a planner with every knob at zero over a trivial fleet must
    reproduce lock-step rounds exactly for all four engines.
    """
    warm_history = run_warm_history(
        network,
        chains=_PLAN_CHAINS,
        num_samples=_PLAN_SAMPLES,
        lookahead=_PLAN_LOOKAHEAD,
        num_shards=_PLAN_SHARDS,
        skew=_PLAN_SKEW,
        batch_cap=_PLAN_CAP,
        admission_interval=_PLAN_ADMISSION,
        seed=_HIST_SEED,
    )
    rows = {row.engine: row for row in warm_history.rows}
    for name in ("mhrw", "nbrw"):
        assert rows[name].speedup >= _HIST_MIN_SPEEDUP, (
            f"{name} prediction speedup regressed: {rows[name].speedup:.2f}x"
        )
    warm = warm_history.warm
    assert warm.bit_for_bit
    assert warm.savings > 0
    assert warm.warm_hits > 0

    # Per-engine zero-knob probe: planner with every knob at zero over a
    # trivial fleet == lock-step rounds, bit for bit, for every engine.
    zero_knob = {}
    for name in _ENGINE_FACTORIES:
        lock_run = ParallelWalkers(
            _make_chains(network, name)(network.interface())
        ).run(num_samples=_HIST_PROBE_SAMPLES)
        fleet_api = RestrictedSocialAPI(
            build_fleet(
                FleetSpec(num_shards=1, seed=0), network.graph, profiles=network.profiles
            )
        )
        zero_knob_run = EventDrivenWalkers(
            _make_chains(network, name)(fleet_api),
            planner=DispatchPlanner(lookahead=0),
        ).run(num_samples=_HIST_PROBE_SAMPLES)
        zero_knob[name] = (
            zero_knob_run.samples == lock_run.samples
            and zero_knob_run.queries == lock_run.queries
            and zero_knob_run.sim_elapsed == 0.0
        )
        assert zero_knob[name], name

    report = {
        "benchmark": "history",
        "chains": _PLAN_CHAINS,
        "num_samples": warm_history.num_samples,
        "num_shards": _PLAN_SHARDS,
        "skew": _PLAN_SKEW,
        "batch_cap": _PLAN_CAP,
        "admission_interval": _PLAN_ADMISSION,
        "lookahead": _PLAN_LOOKAHEAD,
        "seed": _HIST_SEED,
        "zero_knob_bit_for_bit": zero_knob,
        "engines": {
            name: {
                "query_cost": row.query_cost,
                "baseline_wall": round(row.baseline_wall, 6),
                "planned_wall": round(row.planned_wall, 6),
                "speedup": round(row.speedup, 4),
                "prefetch_issued": row.prefetch_issued,
                "prefetch_used": row.prefetch_used,
                "prediction_hits": row.prediction_hits,
                "prediction_misses": row.prediction_misses,
                "cost_parity": True,  # run_warm_history raises on any mismatch
            }
            for name, row in rows.items()
        },
        "warm_start": {
            "recorded_users": warm.recorded_users,
            "cold_cost": warm.cold_cost,
            "warm_cost": warm.warm_cost,
            "savings": warm.savings,
            "warm_users": warm.warm_users,
            "warm_hits": warm.warm_hits,
            "bit_for_bit": warm.bit_for_bit,
        },
    }

    out_path = _write_profile(report)

    lines = [f"history profile  ->  {out_path}"]
    for name, cell in report["engines"].items():
        lines.append(
            "  {:>4}: {} queries, {:.1f}s -> {:.1f}s ({:.2f}x), "
            "predict {}/{}".format(
                name,
                cell["query_cost"],
                cell["baseline_wall"],
                cell["planned_wall"],
                cell["speedup"],
                cell["prediction_hits"],
                cell["prediction_misses"],
            )
        )
    lines.append(
        "  warm start: cold {} vs warm {} queries (saved {}, {} warm hits)".format(
            warm.cold_cost, warm.warm_cost, warm.savings, warm.warm_hits
        )
    )
    lines.append(f"  zero-knob bit-for-bit: {zero_knob}")
    figure_report("\n".join(lines))


# ----------------------------------------------------------------------
# snapshot/restore throughput profile (machine-readable artifact)
# ----------------------------------------------------------------------

_SNAPSHOT_WALK_STEPS = 4000
_SNAPSHOT_ITERS = 25


def _timed_ops_per_second(fn, iters=_SNAPSHOT_ITERS):
    fn()  # warm-up (first call may touch cold paths)
    t0 = time.perf_counter()
    for _ in range(iters):
        fn()
    return iters / (time.perf_counter() - t0)


def test_snapshot_profile(network, figure_report, tmp_path):
    """Emit ``BENCH_snapshot.json``: snapshot/restore throughput profile.

    Measures, on a walked-in MTO state (overlay + cache + log + RNG):
    capture into a payload, save through the JSON-lines and key-value
    backends, read+restore into a fresh interface/sampler, and the
    snapshot's on-disk footprint.
    """
    api = network.interface()
    mto = MTOSampler(api, start=network.seed_node(0), seed=1)
    for _ in range(_SNAPSHOT_WALK_STEPS):
        mto.step()

    jsonl_path = tmp_path / "bench.snapshot.jsonl"
    jsonl = JsonLinesBackend(jsonl_path)
    kv = KeyValueBackend()
    session = SamplingSession(api, mto, jsonl)

    capture_ops = _timed_ops_per_second(session.capture)
    save_jsonl_ops = _timed_ops_per_second(lambda: jsonl.write(session.capture()))
    save_kv_ops = _timed_ops_per_second(lambda: kv.write(session.capture()))

    restore_api = network.interface()
    restore_mto = MTOSampler(restore_api, start=network.seed_node(0), seed=1)
    restore_session = SamplingSession(restore_api, restore_mto, jsonl)
    restore_jsonl_ops = _timed_ops_per_second(restore_session.resume)
    restore_kv_session = SamplingSession(restore_api, restore_mto, kv)
    restore_kv_ops = _timed_ops_per_second(restore_kv_session.resume)
    assert restore_mto.steps == mto.steps

    snapshot_bytes = os.path.getsize(jsonl_path)
    report = {
        "benchmark": "snapshot",
        "walk_steps": _SNAPSHOT_WALK_STEPS,
        "state": {
            "known_nodes": sum(1 for _ in mto.overlay.known_nodes()),
            "query_cost": api.query_cost,
            "total_queries": api.total_queries,
            "snapshot_bytes": snapshot_bytes,
        },
        "ops_per_second": {
            "capture": round(capture_ops, 2),
            "save_jsonl": round(save_jsonl_ops, 2),
            "save_kv": round(save_kv_ops, 2),
            "restore_jsonl": round(restore_jsonl_ops, 2),
            "restore_kv": round(restore_kv_ops, 2),
        },
    }
    for ops in report["ops_per_second"].values():
        assert ops > 0

    out_path = _write_profile(report)

    lines = [f"snapshot profile  ->  {out_path}"]
    lines.append(
        "  state: {} known nodes, {} unique queries, {:.1f} KiB on disk".format(
            report["state"]["known_nodes"], api.query_cost, snapshot_bytes / 1024
        )
    )
    for op, rate in report["ops_per_second"].items():
        lines.append(f"  {op:>14}: {rate:>8.1f} ops/s")
    figure_report("\n".join(lines))


# ----------------------------------------------------------------------
# multi-tenant service profile (machine-readable artifact)
# ----------------------------------------------------------------------

_SERVICE_TENANTS = 8
_SERVICE_SKEW = 10.0
_SERVICE_SAMPLES = 40
_SERVICE_SEED = 0
_SERVICE_FAIR_RATIO_CEILING = 3.0


def test_service_profile(network, figure_report):
    """Emit ``BENCH_service.json``: the multi-tenant service profile.

    The acceptance metric (ISSUE 6): on an 8-tenant workload where one
    tenant requests 10x everyone else's samples, deficit-round-robin
    admission bounds every tenant's p95 simulated wall-clock per sample
    within 3x of its fair share, at equal-or-lower total §II-B cost than
    FCFS run-to-completion.  Two bit-for-bit probes ride along: a
    single-tenant service must reproduce the direct ``build_stack`` run
    exactly, and a hibernated session must resume indistinguishably from
    one that never hibernated.  A third probe checks that every spill of
    a hibernating churn equals its payload's full encoding.
    """
    sweep = run_tenant_sweep(
        network,
        tenant_counts=(_SERVICE_TENANTS,),
        skews=(_SERVICE_SKEW,),
        num_samples=_SERVICE_SAMPLES,
        seed=_SERVICE_SEED,
    )
    modes = {("drr" if row.fairness else "fcfs"): row for row in sweep.rows}
    fair, fcfs = modes["drr"], modes["fcfs"]
    assert fair.total_samples == fcfs.total_samples
    assert fair.total_query_cost <= fcfs.total_query_cost, (
        f"fair admission raised the §II-B bill: "
        f"{fair.total_query_cost} vs {fcfs.total_query_cost}"
    )
    assert fair.max_ratio <= _SERVICE_FAIR_RATIO_CEILING, (
        f"fairness bound regressed: worst tenant at {fair.max_ratio:.2f}x "
        f"fair share (ceiling {_SERVICE_FAIR_RATIO_CEILING}x)"
    )

    # Single-tenant equivalence probe: a service hosting one tenant with
    # the default admission policy must reproduce the direct
    # ``build_stack(...).run(...)`` result bit for bit.
    solo_config = StackConfig(
        fleet=FleetSpec(
            num_shards=4,
            seed=3,
            provider=ProviderSpec(
                latency_distribution="constant", latency_scale=0.5
            ),
        ),
        walk=WalkSpec(engine="srw", chains=4, seed=11),
    )
    direct = build_stack(solo_config, network).run(num_samples=120)
    solo_service = SamplingService(network, fleet=solo_config.fleet)
    solo_service.register("solo", solo_config)
    solo_service.request("solo", 120)
    solo_service.run_pending()
    solo = solo_service.tenant("solo").stack.walkers.result()
    single_tenant_bit_for_bit = (
        solo.samples == direct.samples
        and solo.queries == direct.queries
        and solo.sim_elapsed == direct.sim_elapsed
    )
    assert single_tenant_bit_for_bit

    # Hibernate/resume probe: spill mid-request, wake, finish — the
    # result must match a twin service that never hibernated.
    def _run_split(hibernate):
        service = SamplingService(network, fleet=solo_config.fleet)
        service.register("t", solo_config)
        service.request("t", 60)
        service.run_pending()
        if hibernate:
            service.hibernate("t")
        service.request("t", 60)
        service.run_pending()
        return service.tenant("t").stack.walkers.result()

    spilled, straight = _run_split(True), _run_split(False)
    hibernate_resume_bit_for_bit = (
        spilled.samples == straight.samples
        and spilled.queries == straight.queries
        and spilled.sim_elapsed == straight.sim_elapsed
    )
    assert hibernate_resume_bit_for_bit

    # Spill-splice probe: every tenant of a 4-wave churn hibernates after
    # each wave, so each spill after the first reuses the encoded runs of
    # the one before; each must still equal the full payload's encoding.
    churn_spill = KeyValueStore()
    churn = SamplingService(network, fleet=solo_config.fleet, spill_store=churn_spill)
    for i, engine in enumerate(("srw", "mhrw", "nbrw")):
        churn.register(f"c{i}", StackConfig(walk=WalkSpec(engine=engine, chains=3, seed=30 + i)))
    spill_splice_bit_for_bit = True
    for _ in range(4):
        for tid in churn.tenant_ids:
            churn.request(tid, 20)
        churn.run_pending()
        for tid in churn.tenant_ids:
            stack = churn.tenant(tid).stack
            full = encode_value(
                {"api": stack.api.state_dict(include_shared=False), "walkers": stack.walkers.state_dict()}
            )
            churn.hibernate(tid)
            spill_splice_bit_for_bit &= churn_spill.get(("tenant", tid)) == full
    assert spill_splice_bit_for_bit

    report = {
        "benchmark": "service",
        "tenants": _SERVICE_TENANTS,
        "skew": _SERVICE_SKEW,
        "num_samples": sweep.num_samples,
        "quantum": sweep.quantum,
        "seed": _SERVICE_SEED,
        "single_tenant_bit_for_bit": single_tenant_bit_for_bit,
        "hibernate_resume_bit_for_bit": hibernate_resume_bit_for_bit,
        "spill_splice_bit_for_bit": spill_splice_bit_for_bit,
        "modes": {
            label: {
                "total_samples": row.total_samples,
                "total_query_cost": row.total_query_cost,
                "clock": round(row.clock, 6),
                "fair_share": round(row.fair_share, 6),
                "max_ratio": round(row.max_ratio, 4),
                "hot_ratio": round(row.hot_ratio, 4),
                "shared_cache_hits": row.shared_cache_hits,
            }
            for label, row in modes.items()
        },
    }

    out_path = _write_profile(report)

    lines = [f"service profile  ->  {out_path}"]
    for label in ("drr", "fcfs"):
        row = modes[label]
        lines.append(
            "  {:>4}: {} queries, clock {:.1f}s, worst tenant {:.2f}x fair "
            "share (hot {:.2f}x)".format(
                label, row.total_query_cost, row.clock, row.max_ratio, row.hot_ratio
            )
        )
    lines.append(f"  single-tenant bit-for-bit: {single_tenant_bit_for_bit}")
    lines.append(f"  hibernate/resume bit-for-bit: {hibernate_resume_bit_for_bit}")
    lines.append(f"  spill splice bit-for-bit: {spill_splice_bit_for_bit}")
    figure_report("\n".join(lines))


# ----------------------------------------------------------------------
# observability profile (machine-readable trajectory artifact)
# ----------------------------------------------------------------------

_OBS_SAMPLES = 120
_OBS_OVERHEAD_REPEATS = 5
_OBS_OVERHEAD_CEILING = 1.10


def _obs_stack_config():
    """The traced reference stack: skewed 3-shard fleet, 4 SRW chains."""
    return StackConfig(
        fleet=FleetSpec(
            num_shards=3,
            seed=5,
            weights=(0.6, 0.3, 0.1),
            shard_latency_spread=1.0,
            provider=ProviderSpec(
                latency_distribution="constant", latency_scale=0.5
            ),
        ),
        walk=WalkSpec(engine="srw", chains=4, seed=11),
        planner=PlannerSpec(lookahead=2),
    )


def _obs_serial_sps(network):
    """Best-of-N serial SRW steps/s, recorder off vs on.

    The two configurations alternate within each repeat so frequency
    scaling or a noisy neighbour hits both sides equally — the ratio is
    what the gate reads, not the absolute numbers.
    """
    best = {"off": 0.0, "on": 0.0}
    for _ in range(_OBS_OVERHEAD_REPEATS):
        for label in ("off", "on"):
            api = network.interface()
            if label == "on":
                api.set_recorder(TraceRecorder())
            walk = SimpleRandomWalk(api, start=network.seed_node(0), seed=1)
            best[label] = max(best[label], _steps_per_second(walk, steps=2 * _TIMED_STEPS))
    return best["off"], best["on"]


def test_obs_profile(network, figure_report):
    """Emit ``BENCH_obs.json``: the observability subsystem's profile.

    Three gated properties (ISSUE 9): attaching a recorder must not
    change a seeded fleet run's results bit for bit, replaying the trace
    must reproduce the §II-B bill and the per-shard books exactly, and
    the recorder-on serial SRW microbench may cost at most 10% over
    recorder-off.  The traced fleet run's Perfetto timeline is exported
    as a CI artifact (``TRACE_FLEET_OUT``).
    """
    config = _obs_stack_config()
    plain = build_stack(config, network).run(num_samples=_OBS_SAMPLES)
    recorder = TraceRecorder()
    stack = build_stack(config, network, recorder=recorder)
    traced = stack.run(num_samples=_OBS_SAMPLES)
    recorder_on_bit_for_bit = (
        traced.samples == plain.samples
        and traced.queries == plain.queries
        and traced.sim_elapsed == plain.sim_elapsed
    )
    assert recorder_on_bit_for_bit, "attaching a recorder changed the run"

    problems = reconcile_run(recorder, collect_telemetry(stack.api))
    assert problems == [], f"trace failed reconciliation: {problems}"

    trace_path = os.environ.get("TRACE_FLEET_OUT", "TRACE_fleet.json")
    export_chrome_trace(recorder, trace_path)

    off_sps, on_sps = _obs_serial_sps(network)
    overhead_ratio = off_sps / on_sps
    assert overhead_ratio <= _OBS_OVERHEAD_CEILING, (
        f"recorder-on serial SRW costs {overhead_ratio:.2f}x recorder-off "
        f"(ceiling {_OBS_OVERHEAD_CEILING}x)"
    )

    report = {
        "benchmark": "obs",
        "num_samples": _OBS_SAMPLES,
        "recorder_on_bit_for_bit": recorder_on_bit_for_bit,
        "reconciled": not problems,
        "trace_events": len(recorder),
        "events_by_name": recorder.summary()["by_name"],
        "query_cost": traced.queries,
        "recorder_off_steps_per_second": round(off_sps),
        "recorder_on_steps_per_second": round(on_sps),
        "overhead_ratio": round(overhead_ratio, 4),
    }

    out_path = _write_profile(report)

    figure_report(
        "obs profile  ->  {}\n"
        "  recorder-on bit-for-bit: {}\n"
        "  trace: {} events reconciled against {} §II-B queries\n"
        "  serial SRW: {:.0f} steps/s off, {:.0f} steps/s on "
        "({:.2f}x overhead)\n"
        "  timeline: {}".format(
            out_path,
            recorder_on_bit_for_bit,
            len(recorder),
            traced.queries,
            off_sps,
            on_sps,
            overhead_ratio,
            trace_path,
        )
    )


# ----------------------------------------------------------------------
# causal profiler profile (machine-readable trajectory artifact)
# ----------------------------------------------------------------------

_CAUSALITY_WATCH_REPEATS = 5
_CAUSALITY_WATCH_CEILING = 1.10


def _causality_config(planner=True):
    """The obs reference stack, with the prefetch planner toggleable."""
    config = _obs_stack_config()
    return StackConfig(
        fleet=config.fleet,
        walk=config.walk,
        planner=PlannerSpec(lookahead=2) if planner else None,
    )


def _causality_watcher(recorder):
    """The reference SLO set the watched runs poll."""
    return SLOWatcher(
        recorder,
        [
            cache_hit_rate_slo(0.99, min_count=10),
            shard_in_flight_slo(0, 6.0),
            retry_rate_slo(0.5, min_count=10),
        ],
    )


def _causality_run(network, planner=True, watch=False):
    """One seeded traced run; returns (recorder, stack, result, watcher)."""
    recorder = TraceRecorder()
    stack = build_stack(_causality_config(planner), network, recorder=recorder)
    watcher = None
    if watch:
        watcher = _causality_watcher(recorder)
        stack.walkers.set_watcher(watcher)
    result = stack.run(num_samples=_OBS_SAMPLES)
    return recorder, stack, result, watcher


def _causality_watch_seconds(network):
    """Best-of-N wall seconds for the traced run, watcher off vs on.

    Alternating within each repeat so machine noise hits both sides
    equally; the gate reads the ratio of the two minima.
    """
    best = {"off": float("inf"), "on": float("inf")}
    for _ in range(_CAUSALITY_WATCH_REPEATS):
        for label in ("off", "on"):
            with _gc_quiesced():
                t0 = time.perf_counter()
                _causality_run(network, watch=(label == "on"))
                best[label] = min(best[label], time.perf_counter() - t0)
    return best["off"], best["on"]


def test_obs_causality_profile(network, figure_report):
    """Emit ``BENCH_obs_causality.json``: the causal profiler's profile.

    Three gated properties (ISSUE 10): the critical-path attribution
    must tile the run's simulated wall-clock bit-for-bit and reconcile
    against the telemetry books, the planner-on/off trace diff must name
    planner prefetching as the dominant causal driver, and attaching an
    SLO watcher must leave samples and billing bit-for-bit identical at
    no more than 10% real-time overhead.  The profiled trace is exported
    as a CI artifact (``TRACE_CAUSALITY_OUT``).
    """
    from repro.interface.telemetry import collect_telemetry as _telemetry
    from repro.obs import export_jsonl

    recorder_on, stack_on, result_on, _ = _causality_run(network, planner=True)
    attribution = attribute_run(recorder_on)
    attribution_reconciles = (
        attribution.wall_clock == stack_on.walkers.simulated_elapsed
        and reconcile_attribution(attribution, telemetry=_telemetry(stack_on.api)) == []
    )
    assert attribution_reconciles, "critical-path attribution failed to reconcile"

    recorder_off, _, result_off, _ = _causality_run(network, planner=False)
    diff = diff_traces(
        recorder_off, recorder_on, label_a="planner-off", label_b="planner-on"
    )
    assert diff.dominant_driver == "planner_prefetch", (
        f"trace diff blamed {diff.dominant_driver!r}, expected planner prefetch"
    )

    _, _, watched, watcher = _causality_run(network, planner=True, watch=True)
    watcher_bit_for_bit = (
        watched.samples == result_on.samples
        and watched.queries == result_on.queries
        and watched.sim_elapsed == result_on.sim_elapsed
    )
    assert watcher_bit_for_bit, "attaching an SLO watcher changed the run"

    off_seconds, on_seconds = _causality_watch_seconds(network)
    watcher_overhead_ratio = on_seconds / off_seconds
    assert watcher_overhead_ratio <= _CAUSALITY_WATCH_CEILING, (
        f"watcher-on run costs {watcher_overhead_ratio:.2f}x watcher-off "
        f"(ceiling {_CAUSALITY_WATCH_CEILING}x)"
    )

    trace_path = os.environ.get("TRACE_CAUSALITY_OUT", "TRACE_causality.jsonl")
    export_jsonl(recorder_on, trace_path)

    report = {
        "benchmark": "obs_causality",
        "num_samples": _OBS_SAMPLES,
        "attribution_reconciles": attribution_reconciles,
        "wall_clock": attribution.wall_clock,
        "categories": {k: round(v, 6) for k, v in attribution.categories.items()},
        "counts": dict(attribution.counts),
        "path_segments": attribution.counts["path_segments"],
        "diff": diff.to_dict(),
        "dominant_driver": diff.dominant_driver,
        "watcher_bit_for_bit": watcher_bit_for_bit,
        "watcher_breaches": len(watcher.breaches),
        "watcher_overhead_ratio": round(watcher_overhead_ratio, 4),
    }

    out_path = _write_profile(report)

    figure_report(
        "causality profile  ->  {}\n"
        "  attribution: {:.3f}s wall tiled into {} exclusive segments, "
        "reconciled {}\n"
        "  diff: planner-on {:+.3f}s vs planner-off, dominant driver {}\n"
        "  watcher: bit-for-bit {}, {} breaches, {:.2f}x overhead\n"
        "  trace: {}".format(
            out_path,
            attribution.wall_clock,
            attribution.counts["path_segments"],
            attribution_reconciles,
            diff.wall_delta,
            diff.dominant_driver,
            watcher_bit_for_bit,
            len(watcher.breaches),
            watcher_overhead_ratio,
            trace_path,
        )
    )
