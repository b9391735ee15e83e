"""Benchmark-regression gate: fresh ``BENCH_*.json`` vs committed baselines.

CI regenerates the machine-readable benchmark profiles on every run; this
script compares each against its baseline under ``benchmarks/baselines/``
and exits non-zero on any failure, so a PR that slows a hot path or erodes
one of the measured claims fails its build.

Each ``check_*`` function is a short list of five kinds of check:

* **drift** (:func:`_drift`, the one comparison): a metric fails when it
  moves past ``tolerance * |baseline|``.  Wall-time metrics (steps/s)
  vary with CI hardware and get ``throughput_tolerance`` (default 50%);
  seeded simulated metrics (§II-B cost, simulated wall-clock, speedups)
  are hardware-independent and get ``simulated_tolerance`` (default 2%).
  A metric with a better direction fails only when it moves the worse
  way ("regressed"); a count with none fails either way ("drifted").
  The per-profile drift tables (``_SCHEDULER_DRIFT`` ...) name each
  row metric's worse direction.
* **rows** (:func:`_rows`): every row the baseline records must be in the
  fresh profile.
* **probes** (:func:`_probes`): the bit-for-bit equivalence booleans hold.
* **floors and ceilings** (:func:`_floor`, :func:`_ceiling`): hard bounds
  from the measured claims, independent of the baseline.
* **bill** (:func:`_bill`): a same-run §II-B comparison; the faster
  configuration bills no more than (fleet: exactly) its reference.

The hard bounds and bills, per profile:

* ``walk_engine``: parallel prefetch-on bills no more than prefetch-off;
  MTO prefetch-on keeps 0.7x of the same run's prefetch-off throughput.
* ``scheduler``: heavy-tailed event-driven speedup of at least 2x.
* ``fleet``: coalescing bills exactly the uncoalesced cost, at a speedup
  of at least 1.5x.
* ``planning``: prefetch bills no more than plain dispatch, its ledger
  balances, and the speedup is at least 1.5x.
* ``history``: every engine keeps §II-B cost parity, MHRW and NBRW
  predict for at least 1.5x, and a warm start saves queries.
* ``service``: deficit round robin bills no more than FCFS and keeps the
  worst tenant's p95 pace within 3x of fair share.
* ``obs``: the trace recorder costs at most 1.10x.
* ``obs_causality``: the SLO watcher costs at most 1.10x, and planner
  prefetch is the planner-on/off diff's dominant driver.

When a planning/service/obs check fails with both causality traces on
disk, the gate appends a one-paragraph critical-path diff explaining
which category moved.

Usage::

    python benchmarks/regression_gate.py --baseline-dir benchmarks/baselines
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

#: Hard floor on the heavy-tailed scheduler speedup (ISSUE 3 acceptance).
MIN_SCHEDULER_SPEEDUP = 2.0

#: Hard floor on the fleet batch-coalescing speedup (ISSUE 4 acceptance).
MIN_FLEET_BATCH_SPEEDUP = 1.5

#: Hard floor on the history-aware planning speedup (ISSUE 5 acceptance).
MIN_PLANNING_SPEEDUP = 1.5

#: Hard floor on the data-dependent engines' prediction speedup over the
#: skewed fleet (ISSUE 8 acceptance).  SRW already clears it; MHRW and
#: NBRW are the engines whose §II-B fetches only became predictable with
#: auxiliary-state replay, so they are the gated pair.
MIN_HISTORY_ENGINE_SPEEDUP = 1.5

#: Engines gated on the history-profile speedup floor.
HISTORY_SPEEDUP_ENGINES = ("mhrw", "nbrw")

#: Hard ceiling on the worst tenant's p95 pace over fair share under
#: deficit-round-robin admission (ISSUE 6 acceptance).
MAX_SERVICE_FAIR_RATIO = 3.0

#: Hard ceiling on the recorder-on / recorder-off serial SRW throughput
#: ratio (ISSUE 9 acceptance).  Both runs execute back to back on one
#: runner, so — like the prefetch parity floor — the ratio gates real
#: instrumentation cost, not CI hardware.
MAX_OBS_OVERHEAD_RATIO = 1.10

#: Hard ceiling on the watcher-on / watcher-off traced-run wall-time
#: ratio (ISSUE 10 acceptance).  Interleaved best-of-N on one runner, so
#: the ratio gates real SLO-poll cost, not CI hardware.
MAX_WATCHER_OVERHEAD_RATIO = 1.10

#: The causal driver the planner-on/off reference diff must name
#: (ISSUE 10 acceptance): planner prefetching converts provider round
#: trips into free cache-hit steps, and the diff must say so.
EXPECTED_DIFF_DRIVER = "planner_prefetch"

#: Same-process prefetch-on/prefetch-off throughput parity floor (ISSUE 7
#: acceptance).  Both runs execute back to back on one runner, so the
#: band only needs to absorb genuine prediction work: since ISSUE 8 every
#: engine replays its own RNG (MTO replays overlay branches) per round,
#: which on the zero-latency bench fixture is measurable overhead traded
#: against round trips that cost nothing here.  The floor still catches
#: the 2x-slower over-fetching pathology the gate was built for.
MIN_PREFETCH_THROUGHPUT_PARITY = 0.7

#: Engines whose parallel rows are gated on throughput parity.  Every
#: engine now carries a real replay predictor (ISSUE 8), so prediction
#: work per round is genuine overhead traded against round trips that
#: cost nothing on the zero-latency bench fixture; parallel MTO — the
#: ISSUE 7 headline regression — stays gated as the canary while the
#: other engines are gated on §II-B cost parity only.
PREFETCH_PARITY_ENGINES = ("mto",)


#: Which way a seeded metric may not move: cost and wall-clock may not
#: rise, speedups and savings may not fall, coverage counts may not move.
RISE, FALL, EITHER = 1, -1, 0

_ZERO_LATENCY_BROKEN = "zero-latency bit-for-bit equivalence no longer holds"

_SCHEDULER_DRIFT = {"event_wall_per_sample": RISE, "speedup": FALL, "query_cost": RISE}
_FLEET_DRIFT = {"wall_per_sample": RISE, "speedup_vs_uncoalesced": FALL, "query_cost": RISE}
_PLANNING_DRIFT = {"wall_per_sample": RISE, "speedup_vs_plain": FALL, "query_cost": RISE}
_ENGINE_DRIFT = {"query_cost": RISE, "speedup": FALL}
_SERVICE_DRIFT = {"total_query_cost": RISE, "clock": RISE}


def _load(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _drift(
    label: str, fresh: float, base: float, tolerance: float, worse: int = EITHER, kind: str = "simulated"
) -> List[str]:
    """``label`` fails when ``fresh`` moves the ``worse`` way past ``tolerance * |base|``."""
    moved = abs(fresh - base) if worse == EITHER else worse * (fresh - base)
    if moved <= tolerance * abs(base):
        return []
    verb = "drifted" if worse == EITHER else "regressed"
    return [f"{label} {verb}: {fresh} vs baseline {base} ({kind} metric, tolerance {tolerance:.0%})"]


def _drifts(label: str, row: dict, base: dict, table: Dict[str, int], tolerance: float) -> List[str]:
    """:func:`_drift` for every ``{metric: worse}`` entry of a drift table."""
    failures: List[str] = []
    for metric, worse in table.items():
        failures += _drift(f"{label} {metric}", row[metric], base[metric], tolerance, worse)
    return failures


def _rows(failures: List[str], name: str, fresh: dict, baseline: dict) -> Iterator[Tuple[str, dict, dict]]:
    """``(key, fresh_row, base_row)`` per baseline row, in baseline order.

    A row the fresh profile lacks is appended to ``failures`` as
    ``name.format(key)`` missing from the fresh profile.
    """
    for key, base_row in baseline.items():
        fresh_row = fresh.get(key)
        if fresh_row is None:
            failures.append(f"{name.format(key)} missing from fresh profile")
        else:
            yield key, fresh_row, base_row


def _scalars(
    profile: str, fresh: dict, baseline: dict, metrics: Tuple[str, ...], tolerance: float
) -> List[str]:
    """Two-sided drift of the seeded top-level ``metrics`` the baseline records."""
    failures: List[str] = []
    recorded = {metric: baseline[metric] for metric in metrics if baseline.get(metric) is not None}
    for metric, value, base in _rows(failures, profile + ": {}", fresh, recorded):
        failures += _drift(f"{profile}: {metric}", value, base, tolerance)
    return failures


def _probes(profile: str, fresh: dict, probes: Dict[str, str]) -> List[str]:
    """One failure per ``{key: what broke}`` probe that is not true in ``fresh``."""
    return [f"{profile}: {broke}" for key, broke in probes.items() if not fresh.get(key, False)]


def _floor(profile: str, what: str, value: float, floor: float) -> List[str]:
    """A hard floor on ``value``, independent of the baseline."""
    return [f"{profile}: {what} {value:.2f}x below the {floor:.1f}x floor"] if value < floor else []


def _ceiling(profile: str, what: str, row: dict, key: str, ceiling: float) -> List[str]:
    """A hard ceiling on ``row[key]``, independent of the baseline; a missing key fails."""
    value = row.get(key)
    if value is None:
        return [f"{profile}: {key} missing from fresh profile"]
    return [f"{profile}: {what} {value:.2f}x, above the {ceiling:.2f}x ceiling"] if value > ceiling else []


def _bill(who: str, cost: int, reference: int, than: str, exact: bool = False) -> List[str]:
    """``who`` may bill no more §II-B queries than (``exact``: exactly) ``reference``."""
    if cost > reference or (exact and cost != reference):
        return [f"{who} {'changed' if exact else 'raised'} the §II-B bill: {cost} vs {reference} {than}"]
    return []


def check_walk_engine(
    fresh: dict,
    baseline: dict,
    throughput_tolerance: float = 0.5,
    simulated_tolerance: float = 0.02,
) -> List[str]:
    """Failures for the walk-engine profile (empty list = gate passes)."""
    failures: List[str] = []
    engines = _rows(
        failures, "walk_engine: engine {!r}", fresh.get("engines", {}), baseline.get("engines", {})
    )
    wall_time = {"tolerance": throughput_tolerance, "worse": FALL, "kind": "wall-time"}
    for name, row, base in engines:
        failures += _drift(
            f"walk_engine: {name} throughput", row["steps_per_second"], base["steps_per_second"], **wall_time
        )
        failures += _drift(
            f"walk_engine: {name} queries/sample",
            row["queries_per_sample"],
            base["queries_per_sample"],
            simulated_tolerance,
        )
    # Per-engine parallel rows: prefetch-on must be equal-or-faster at
    # equal-or-lower §II-B cost, and each engine's prefetch-off row must
    # hold its baseline.
    parallel = _rows(
        failures,
        "walk_engine: parallel engine {!r}",
        fresh.get("parallel", {}).get("engines", {}),
        baseline.get("parallel", {}).get("engines", {}),
    )
    for name, rows, base_rows in parallel:
        off, on, base = rows["prefetch_off"], rows["prefetch_on"], base_rows["prefetch_off"]
        label = f"walk_engine: parallel {name}"
        failures += _bill(f"{label} prefetch", on["query_cost"], off["query_cost"], "with prefetch off")
        parity_floor = MIN_PREFETCH_THROUGHPUT_PARITY * off["chain_steps_per_second"]
        if name in PREFETCH_PARITY_ENGINES and on["chain_steps_per_second"] < parity_floor:
            failures.append(
                f"{label} prefetch-on throughput {on['chain_steps_per_second']} chain-steps/s below "
                f"{parity_floor:.0f} ({MIN_PREFETCH_THROUGHPUT_PARITY:.0%} of same-run prefetch-off "
                f"{off['chain_steps_per_second']})"
            )
        failures += _drift(
            f"{label} throughput", off["chain_steps_per_second"], base["chain_steps_per_second"], **wall_time
        )
        failures += _drift(f"{label} query cost", off["query_cost"], base["query_cost"], simulated_tolerance)
    return failures


def check_scheduler(
    fresh: dict,
    baseline: dict,
    simulated_tolerance: float = 0.02,
    min_speedup: float = MIN_SCHEDULER_SPEEDUP,
) -> List[str]:
    """Failures for the scheduler profile (empty list = gate passes)."""
    failures = _probes("scheduler", fresh, {"zero_latency_bit_for_bit": _ZERO_LATENCY_BROKEN})
    heavy = fresh.get("distributions", {}).get("heavy_tailed")
    if heavy is None:
        return failures + ["scheduler: heavy_tailed distribution missing from fresh profile"]
    failures += _floor("scheduler", "heavy-tailed speedup", heavy["speedup"], min_speedup)
    rows = _rows(
        failures, "scheduler: distribution {!r}", fresh["distributions"], baseline.get("distributions", {})
    )
    for name, row, base in rows:
        failures += _drifts(f"scheduler: {name}", row, base, _SCHEDULER_DRIFT, simulated_tolerance)
    return failures


def check_fleet(
    fresh: dict,
    baseline: dict,
    simulated_tolerance: float = 0.02,
    min_speedup: float = MIN_FLEET_BATCH_SPEEDUP,
) -> List[str]:
    """Failures for the fleet profile (empty list = gate passes)."""
    failures = _probes("fleet", fresh, {"zero_latency_bit_for_bit": _ZERO_LATENCY_BROKEN})
    coalesced = fresh.get("caps", {}).get("8")
    uncoalesced = fresh.get("caps", {}).get("1")
    if coalesced is None or uncoalesced is None:
        return failures + ["fleet: cap rows missing from fresh profile"]
    failures += _bill(
        "fleet: coalescing", coalesced["query_cost"], uncoalesced["query_cost"], "uncoalesced", exact=True
    )
    failures += _floor("fleet", "batch-coalescing speedup", coalesced["speedup_vs_uncoalesced"], min_speedup)
    for cap, row, base in _rows(failures, "fleet: cap {!r}", fresh["caps"], baseline.get("caps", {})):
        failures += _drifts(f"fleet: cap {cap}", row, base, _FLEET_DRIFT, simulated_tolerance)
    return failures


def check_planning(
    fresh: dict,
    baseline: dict,
    simulated_tolerance: float = 0.02,
    min_speedup: float = MIN_PLANNING_SPEEDUP,
) -> List[str]:
    """Failures for the planning profile (empty list = gate passes)."""
    failures = _probes(
        "planning", fresh, {"zero_knob_bit_for_bit": "zero-knob bit-for-bit equivalence no longer holds"}
    )
    plain = fresh.get("cells", {}).get("lookahead_0_off")
    planned = fresh.get("cells", {}).get(f"lookahead_{fresh.get('lookahead')}_off")
    if plain is None or planned is None:
        return failures + ["planning: baseline/planned cells missing from fresh profile"]
    failures += _bill("planning: prefetch", planned["query_cost"], plain["query_cost"], "without prefetch")
    if planned["prefetch_issued"] != planned["prefetch_used"] + planned["prefetch_wasted"]:
        failures.append(
            "planning: prefetch ledger does not balance: {} issued vs {} used + {} wasted".format(
                planned["prefetch_issued"], planned["prefetch_used"], planned["prefetch_wasted"]
            )
        )
    failures += _floor("planning", "speedup", planned["speedup_vs_plain"], min_speedup)
    for cell, row, base in _rows(failures, "planning: cell {!r}", fresh["cells"], baseline.get("cells", {})):
        failures += _drifts(f"planning: cell {cell}", row, base, _PLANNING_DRIFT, simulated_tolerance)
    return failures


def check_history(
    fresh: dict,
    baseline: dict,
    simulated_tolerance: float = 0.02,
    min_engine_speedup: float = MIN_HISTORY_ENGINE_SPEEDUP,
) -> List[str]:
    """Failures for the warm-history profile (empty list = gate passes)."""
    zero_knob = fresh.get("zero_knob_bit_for_bit", {})
    failures = _probes(
        "history",
        zero_knob,
        {name: f"{name} zero-knob bit-for-bit equivalence no longer holds" for name in sorted(zero_knob)},
    )
    # Per-engine prediction rows: cost-neutral planning must hold §II-B
    # cost parity for every engine.
    engines = _rows(failures, "history: engine {!r}", fresh.get("engines", {}), baseline.get("engines", {}))
    for name, cell, base in engines:
        parity = {"cost_parity": f"engine {name} lost §II-B cost parity under planning"}
        failures += _probes("history", cell, parity)
        if zero_knob and name not in zero_knob:
            failures.append(f"history: engine {name} has no zero-knob probe result")
        if name in HISTORY_SPEEDUP_ENGINES:
            failures += _floor("history", f"{name} prediction speedup", cell["speedup"], min_engine_speedup)
        failures += _drifts(f"history: engine {name}", cell, base, _ENGINE_DRIFT, simulated_tolerance)
    warm = fresh.get("warm_start")
    if warm is None:
        return failures + ["history: warm_start section missing from fresh profile"]
    failures += _probes(
        "history", warm, {"bit_for_bit": "warm-started run diverged from cold (per-chain bit-for-bit)"}
    )
    if warm.get("warm_cost", 0) >= warm.get("cold_cost", 0):
        failures.append(
            "history: warm start saved nothing: {} warm vs {} cold §II-B queries".format(
                warm.get("warm_cost"), warm.get("cold_cost")
            )
        )
    base_warm = baseline.get("warm_start", {})
    if base_warm:
        failures += _drift(
            "history: warm-start savings",
            warm.get("savings", 0),
            base_warm.get("savings", 0),
            simulated_tolerance,
            FALL,
        )
    return failures


def check_service(
    fresh: dict,
    baseline: dict,
    simulated_tolerance: float = 0.02,
    max_fair_ratio: float = MAX_SERVICE_FAIR_RATIO,
) -> List[str]:
    """Failures for the multi-tenant service profile (empty list = pass)."""
    failures = _probes(
        "service",
        fresh,
        {
            "single_tenant_bit_for_bit": "single-tenant bit-for-bit equivalence no longer holds",
            "hibernate_resume_bit_for_bit": "hibernate/resume bit-for-bit equivalence no longer holds",
            "spill_splice_bit_for_bit": "spill splice bit-for-bit equivalence no longer holds",
        },
    )
    fair = fresh.get("modes", {}).get("drr")
    fcfs = fresh.get("modes", {}).get("fcfs")
    if fair is None or fcfs is None:
        return failures + ["service: drr/fcfs mode rows missing from fresh profile"]
    worst = "fair admission leaves the worst tenant's p95 pace over fair share at"
    failures += _ceiling("service", worst, fair, "max_ratio", max_fair_ratio)
    failures += _bill(
        "service: fair admission", fair["total_query_cost"], fcfs["total_query_cost"], "under FCFS"
    )
    for mode, row, base in _rows(failures, "service: mode {!r}", fresh["modes"], baseline.get("modes", {})):
        # The FCFS ratio is the (deliberately bad) contrast point, not a
        # gated quantity: only the fair row's ratio may not creep up.
        table = dict(_SERVICE_DRIFT, max_ratio=RISE) if mode == "drr" else _SERVICE_DRIFT
        failures += _drifts(f"service: {mode}", row, base, table, simulated_tolerance)
    return failures


def check_obs(
    fresh: dict,
    baseline: dict,
    simulated_tolerance: float = 0.02,
    max_overhead: float = MAX_OBS_OVERHEAD_RATIO,
) -> List[str]:
    """Failures for the observability profile (empty list = gate passes)."""
    failures = _probes(
        "obs",
        fresh,
        {
            "recorder_on_bit_for_bit": "attaching a recorder changed the seeded fleet run "
            "(recorder-on bit-for-bit equivalence no longer holds)",
            "reconciled": "trace replay no longer reproduces the §II-B bill and per-shard books exactly",
        },
    )
    failures += _ceiling(
        "obs", "recorder-on / recorder-off serial SRW time", fresh, "overhead_ratio", max_overhead
    )
    # Event count and §II-B cost of the traced reference run are seeded:
    # drift means the instrumentation coverage (or the run itself) changed.
    return failures + _scalars("obs", fresh, baseline, ("trace_events", "query_cost"), simulated_tolerance)


def check_obs_causality(
    fresh: dict,
    baseline: dict,
    simulated_tolerance: float = 0.02,
    max_overhead: float = MAX_WATCHER_OVERHEAD_RATIO,
) -> List[str]:
    """Failures for the causal-profiler profile (empty list = pass)."""
    failures = _probes(
        "obs_causality",
        fresh,
        {
            "attribution_reconciles": "critical-path attribution no longer tiles the "
            "simulated wall-clock bit-for-bit against the telemetry books",
            "watcher_bit_for_bit": "attaching an SLO watcher changed the seeded run "
            "(watcher bit-for-bit equivalence no longer holds)",
        },
    )
    failures += _ceiling(
        "obs_causality", "watcher-on / watcher-off run time", fresh, "watcher_overhead_ratio", max_overhead
    )
    driver = fresh.get("dominant_driver")
    if driver != EXPECTED_DIFF_DRIVER:
        failures.append(
            f"obs_causality: planner-on/off diff blamed {driver!r}, expected {EXPECTED_DIFF_DRIVER!r}"
        )
    # The profiled run is seeded: its wall-clock and critical-path shape
    # are simulated metrics; drift means the causal account changed.
    return failures + _scalars(
        "obs_causality", fresh, baseline, ("wall_clock", "path_segments"), simulated_tolerance
    )


#: Gate sections whose failures are worth a causal second opinion.
_HINTED_PREFIXES = ("planning:", "service:", "obs:", "obs_causality:")


def critical_path_hint(
    fresh_dir: Path, baseline_dir: Path, trace_name: str = "TRACE_causality.jsonl"
) -> "str | None":
    """One-paragraph causal diff of the baseline vs fresh reference trace.

    When a planning/service/obs check fails and both the committed and
    the freshly generated causality traces are on disk, this diffs them
    (:func:`repro.obs.diff.diff_traces`) so the failure report says
    *which critical-path category moved* instead of just which number.
    Returns ``None`` when either trace (or the ``repro`` package) is
    unavailable — the hint is best-effort, never a gate failure of its
    own.
    """
    baseline_trace = baseline_dir / trace_name
    fresh_trace = fresh_dir / trace_name
    if not baseline_trace.exists() or not fresh_trace.exists():
        return None
    try:
        # CI invokes this script without PYTHONPATH=src; reach the
        # in-repo package relative to this file before giving up.
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
        from repro.obs import diff_traces, read_jsonl

        events_base, _ = read_jsonl(baseline_trace)
        events_fresh, _ = read_jsonl(fresh_trace)
        return diff_traces(
            events_base, events_fresh, label_a="baseline", label_b="fresh"
        ).explain()
    except Exception:
        return None


def run_gate(
    fresh_dir: Path,
    baseline_dir: Path,
    throughput_tolerance: float = 0.5,
    simulated_tolerance: float = 0.02,
) -> List[str]:
    """Compare every gated profile; returns the list of failures."""
    failures = []
    pairs = [
        ("BENCH_walk_engine.json", check_walk_engine, {"throughput_tolerance": throughput_tolerance}),
        ("BENCH_scheduler.json", check_scheduler, {}),
        ("BENCH_fleet.json", check_fleet, {}),
        ("BENCH_planning.json", check_planning, {}),
        ("BENCH_history.json", check_history, {}),
        ("BENCH_service.json", check_service, {}),
        ("BENCH_obs.json", check_obs, {}),
        ("BENCH_obs_causality.json", check_obs_causality, {}),
    ]
    for filename, check, extra in pairs:
        baseline_path = baseline_dir / filename
        fresh_path = fresh_dir / filename
        if not baseline_path.exists():
            failures.append(f"gate: committed baseline {baseline_path} is missing")
            continue
        if not fresh_path.exists():
            failures.append(f"gate: fresh profile {fresh_path} was not generated")
            continue
        failures.extend(
            check(
                _load(fresh_path),
                _load(baseline_path),
                simulated_tolerance=simulated_tolerance,
                **extra,
            )
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fresh-dir", type=Path, default=Path("."), help="directory with fresh BENCH_*.json"
    )
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=Path("benchmarks/baselines"),
        help="directory with committed baselines",
    )
    parser.add_argument(
        "--throughput-tolerance",
        type=float,
        default=0.5,
        help="allowed fractional drop for wall-time metrics (CI hardware varies)",
    )
    parser.add_argument(
        "--simulated-tolerance",
        type=float,
        default=0.02,
        help="allowed fractional drift for seeded simulated metrics",
    )
    args = parser.parse_args(argv)
    failures = run_gate(
        args.fresh_dir,
        args.baseline_dir,
        throughput_tolerance=args.throughput_tolerance,
        simulated_tolerance=args.simulated_tolerance,
    )
    if failures:
        print("benchmark regression gate: FAIL")
        for failure in failures:
            print(f"  - {failure}")
        if any(f.startswith(_HINTED_PREFIXES) for f in failures):
            hint = critical_path_hint(args.fresh_dir, args.baseline_dir)
            if hint:
                print(f"  critical-path hint: {hint}")
        return 1
    print("benchmark regression gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
