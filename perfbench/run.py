#!/usr/bin/env python3
"""End-to-end benchmark of the sampling stack, with a traced per-layer split.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fleet-planned --seed 1 --seconds 15 --trace 0

``--trace 0`` times set-up (stand-in generation plus the first stack,
median of several), runs every episode of the workload once, then
repeats the episodes in turn until ``--seconds`` have gone by, and
prints the end-to-end metrics.
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics (``spans.py``); the traced pass must reproduce the
untraced digests bit for bit, its layer self times must add up to its
wall time, and its span counts must match the program's own counters.

Every episode's digest covers its samples, every query-log record and
its simulated clock; all passes must agree, and for the seeds listed in
``expected.json`` they must equal the committed digests.  The last line
of stdout is the JSON result; the line before it carries informational
fields (digests, raw estimate error and failure share, ``src/`` size).

End-to-end metrics (``BENCHMARK.json``); all but the first come from the
first pass:

* ``samples_per_s`` -- the workload's samples over the sum of its
  episodes' median times (gc quiesced in the timed window, caches cold;
  the run is single-threaded and CPU-bound).  Times are in seconds of a
  nominal host (``hostspeed.py``): on a shared 2-core VM the time of
  identical episodes varied up to 3x within a run and drifted 35-45%
  between runs, and the reference kernel timed inside each episode
  divides the host's speed out.  The same figure from the raw times is
  reported as information.
* ``queries_per_sample`` -- §II-B unique billed queries per sample.
* ``sim_s_per_sample`` -- simulated clock per sample: the interface clock
  (``mto-rewire``), the scheduler makespan (``fleet-planned``) or the
  service clock (``service-churn``).
* ``estimate_err_factor`` -- ``1 + |estimate - truth| / truth`` for the
  average degree; the error itself is random at these sample sizes, so
  the factor (never 0) is what a run-to-run bound can hold.
* ``served_share`` -- requests served over requests made (the complement
  of the failure share, so it is never 0).  In the single-stack
  workloads each episode is one request.  ``attempted`` and ``failed``
  in the result count requests and episodes that raised; the documented
  budget refusals of ``service-churn`` show in ``served_share`` instead.
* ``request_sim_p50_s`` / ``request_sim_p95_s`` -- simulated time from a
  request to its last sample (a refused request counts as infinite).
* ``pace_ratio_max`` -- ``service-churn``: the service's fairness
  ``max_ratio``, averaged over episodes; single stacks: the slowest
  request's simulated time over the mean request's.
* ``setup_s`` -- seconds (of the nominal host, as above) to generate the
  stand-in and build the first episode's stack (or service with every
  registration), median of ``SETUPS``; ``peak_rss_mib`` -- the process's
  peak resident set.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up repetitions per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: A run fails when the pooled average-degree estimate misses by more.
ESTIMATE_REL_ERR_MAX = 0.10
#: Allowed relative gap between self times + residual and the wall time.
TIME_RECONCILE_TOLERANCE = 0.005


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Put this checkout's ``src/`` first on the path and import from it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def percentile(values, q):
    """Nearest-rank percentile (``inf`` entries sort last)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def src_line_count() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines()) for path in SRC.rglob("*.py")
    )


class Pass:
    """One run of some of a workload's episodes, in order."""

    def __init__(self) -> None:
        self.indices = []  # episode index of each outcome
        self.outcomes = []
        self.cpu = []  # process CPU seconds per episode
        self.own = []  # with a HostClock: seconds per episode, kernel runs excluded
        self.nominal = []  # ... and the same in seconds of the nominal host
        self.deltas = {}  # program-counter deltas summed over episodes
        self.totals = None  # span totals when traced
        self.failed = 0

    @property
    def digests(self):
        return [o.digest for o in self.outcomes]


def run_episode(workload, network, seed, index, instrumentation, clock, current):
    """Build one episode, time its run, and read its outcome."""
    tracer = instrumentation.tracer if instrumentation is not None else None
    with instrumentation if instrumentation is not None else contextlib.nullcontext():
        episode = workload.build(network, seed, index)
        before = episode.counters()
        gc.collect()
        gc.disable()
        try:
            if tracer is not None:
                tracer.reset()
            with clock if clock is not None else contextlib.nullcontext():
                cpu_started = time.process_time_ns()
                started = time.perf_counter_ns()
                episode.run()
                wall_ns = time.perf_counter_ns() - started
                cpu_ns = time.process_time_ns() - cpu_started
        finally:
            gc.enable()
        if tracer is not None:
            current.totals.add(tracer, wall_ns)
    after = episode.counters()
    for key, value in after.items():
        current.deltas[key] = current.deltas.get(key, 0) + value - before.get(key, 0)
    current.cpu.append(cpu_ns / 1e9)
    if clock is not None:
        current.own.append(clock.own_s)
        current.nominal.append(clock.nominal_s)
    current.indices.append(index)
    current.outcomes.append(episode.outcome())


def run_pass(workload, network, seed, indices=None, instrumentation=None, clock=None) -> Pass:
    import spans

    current = Pass()
    if instrumentation is not None:
        current.totals = spans.Totals()
    for index in range(workload.episodes) if indices is None else indices:
        try:
            run_episode(workload, network, seed, index, instrumentation, clock, current)
        except Exception:  # an episode that raises counts as failed
            traceback.print_exc(file=sys.stderr)
            current.failed += 1
    return current


def request_metrics(canonical: Pass) -> dict:
    latencies = [t for o in canonical.outcomes for t in o.requests]
    paces = [o.pace_ratio for o in canonical.outcomes if o.pace_ratio is not None]
    if paces:
        pace = statistics.fmean(paces)
    else:  # one request per episode: slowest over mean
        pace = max(latencies) / statistics.fmean(latencies)
    p95 = percentile(latencies, 0.95)
    return {
        "request_sim_p50_s": percentile(latencies, 0.50),
        "request_sim_p95_s": p95,
        "pace_ratio_max": pace,
        "requests": len(latencies),
        "served": sum(1 for t in latencies if math.isfinite(t)),
        "beyond_p95": sum(1 for t in latencies if t > p95),
    }


def attempts(passes):
    """Requests made (one per episode in the single-stack workloads) and
    episodes that raised.  Documented budget refusals are not failures of
    the benchmark: they count against ``served_share``."""
    failed = sum(p.failed for p in passes)
    return sum(len(o.requests) for p in passes for o in p.outcomes) + failed, failed


def check_passes(passes, expected_digests, problems):
    """Every repetition must reproduce the first pass's episode digests."""
    canonical = passes[0]
    first = dict(zip(canonical.indices, canonical.digests))
    for other in passes[1:]:
        for index, digest in zip(other.indices, other.digests):
            if digest != first.get(index):
                problems.append(f"a repetition of episode {index} changed its digest")
    if expected_digests is not None and canonical.digests != expected_digests:
        problems.append("digests differ from the committed digests for this seed")
    for o in canonical.outcomes:
        if not o.detached:
            problems.append("a trace recorder is attached to a measured layer")
        if not o.failures_documented:
            problems.append("a request failed outside the documented budget exhaustion")


def load_expected(workload_name, seed):
    data = json.loads((HERE / "expected.json").read_text())
    return data["digests"].get(str(seed), {}).get(workload_name)


def median_times(passes, field):
    """Per episode index, the median of ``field`` over its repetitions."""
    by_index = {}
    for p in passes:
        for index, value in zip(p.indices, getattr(p, field)):
            by_index.setdefault(index, []).append(value)
    return {index: statistics.median(values) for index, values in by_index.items()}


def untraced_run(workload, args, problems):
    import hostspeed
    import workloads

    clock = hostspeed.HostClock()
    setups, setups_own, kernels = [], [], []
    for _ in range(SETUPS):
        network = None
        gc.collect()
        with clock:
            network = workloads.load_network()
            workload.build(network, args.seed, 0)
        setups.append(clock.nominal_s)
        setups_own.append(clock.own_s)
        kernels.append(clock.kernel_s)
    truth = workloads.true_average_degree(network)

    # The first pass gives every output metric; after it the episodes repeat
    # in turn (one crawl at a time, so the window overshoots by at most one)
    # until the window closes, and each episode's median sets its time.
    started = time.perf_counter()
    passes = [run_pass(workload, network, args.seed, clock=clock)]
    repeat = 0
    while time.perf_counter() - started < args.seconds:
        index = repeat % workload.episodes
        passes.append(run_pass(workload, network, args.seed, [index], clock=clock))
        repeat += 1
    check_passes(passes, load_expected(workload.name, args.seed), problems)

    canonical = passes[0]
    outcomes = canonical.outcomes
    samples = sum(o.samples for o in outcomes)
    nominal = median_times(passes, "nominal")
    own = median_times(passes, "own")
    if not nominal or sorted(nominal) != sorted(canonical.indices):
        raise SystemExit("perfbench: an episode never completed")
    estimates = [e for o in outcomes for e in o.estimates]
    rel_err = abs(statistics.fmean(estimates) - truth) / truth
    if rel_err > ESTIMATE_REL_ERR_MAX:
        problems.append(f"estimate_rel_err {rel_err:.4f} > {ESTIMATE_REL_ERR_MAX}")
    req = request_metrics(canonical)
    if not math.isfinite(req["request_sim_p95_s"]):
        problems.append("more than 5% of requests failed")
    metrics = {
        "samples_per_s": (samples / sum(nominal.values()), "1/s"),
        "queries_per_sample": (sum(o.queries for o in outcomes) / samples, "queries/sample"),
        "sim_s_per_sample": (sum(o.sim_s for o in outcomes) / samples, "s"),
        "estimate_err_factor": (1.0 + rel_err, "ratio"),
        "served_share": (req["served"] / req["requests"], "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "request_sim_p50_s": (req["request_sim_p50_s"], "s"),
        "request_sim_p95_s": (req["request_sim_p95_s"], "s"),
        "pace_ratio_max": (req["pace_ratio_max"], "ratio"),
    }
    info = {
        "repetitions": len(passes) - 1,
        "episodes": len(outcomes),
        "samples": samples,
        "samples_per_s_unnormalised": samples / sum(own.values()),
        "episode_median_s": [nominal[i] for i in sorted(nominal)],
        "episode_median_unnormalised_s": [own[i] for i in sorted(own)],
        "setup_runs_s": setups,
        "setup_runs_unnormalised_s": setups_own,
        "setup_kernel_s": kernels,
        "nominal_kernel_s": hostspeed.NOMINAL_KERNEL_S,
        "estimate_rel_err": rel_err,
        "failed_share": 1.0 - req["served"] / req["requests"],
        "requests": req["requests"],
        "requests_beyond_p95": req["beyond_p95"],
        "digests": canonical.digests,
    }
    attempted, failed = attempts(passes)
    return metrics, info, attempted, failed


def traced_run(workload, args, problems):
    import spans
    import workloads

    network = workloads.load_network()
    tracer = spans.Tracer()
    instrumentation = spans.Instrumentation(tracer)
    started = time.perf_counter()
    untraced, traced = [], []
    while True:
        untraced.append(run_pass(workload, network, args.seed))
        traced.append(run_pass(workload, network, args.seed, instrumentation=instrumentation))
        if time.perf_counter() - started >= args.seconds:
            break
    check_passes(untraced + traced, load_expected(workload.name, args.seed), problems)

    rows = []
    reconciliations = []
    for p in traced:
        timing = spans.reconcile_time(p.totals, TIME_RECONCILE_TOLERANCE)
        counts = {
            name: {"spans": p.totals.counts.get(name, 0), "program": p.deltas.get(name, 0)}
            for name in workloads.RECONCILED
        }
        reconciliations.append({"time": timing, "counts": counts})
        if not timing["ok"]:
            problems.append(f"layer self times do not reconcile: {timing}")
        for name, pair in counts.items():
            if pair["spans"] != pair["program"]:
                problems.append(f"span count {name} {pair['spans']} != program {pair['program']}")
        rows.append(layer_row(p))
    untraced_cpu = statistics.median(sum(p.cpu) for p in untraced)
    traced_cpu = statistics.median(sum(p.cpu) for p in traced)
    metrics = {}
    for name, unit in per_layer_units():
        if name == "trace.overhead_ratio":
            value = traced_cpu / untraced_cpu
        else:
            value = statistics.median(row[name] for row in rows)
        metrics[name] = (value, unit)
    info = {
        "passes": len(traced),
        "untraced_cpu_s": untraced_cpu,
        "traced_cpu_s": traced_cpu,
        "reconciliation": reconciliations[0],
        "digests": traced[0].digests,
    }
    attempted, failed = attempts(untraced + traced)
    return metrics, info, attempted, failed


def per_layer_units():
    import spans

    for layer in spans.LAYERS:
        yield f"{layer}.calls", "count"
        yield f"{layer}.self_s", "s"
    for name in spans.SUBSPANS:
        yield name, "s"
    yield from (
        ("core.overlay.removals", "count"),
        ("core.overlay.replacements", "count"),
        ("walks.scheduler.events", "count"),
        ("planning.prediction_hit_ratio", "ratio"),
        ("planning.prefetch_used_ratio", "ratio"),
        ("interface.cache_hit_ratio", "ratio"),
        ("fleet.burst_depth_mean", "queries/burst"),
        ("providers.retry_ratio", "ratio"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.unattributed_share", "ratio"),
    )


def _ratio(num, den, empty=0.0):
    return num / den if den else empty


def layer_row(p: Pass) -> dict:
    """Per-layer metrics of one traced pass (spans plus program counters)."""
    import spans

    d = p.deltas
    row = spans.layer_metrics(p.totals)
    row.update(
        {
            "core.overlay.removals": d.get("overlay_removals", 0),
            "core.overlay.replacements": d.get("overlay_replacements", 0),
            "walks.scheduler.events": d.get("scheduler_events", 0),
            "planning.prediction_hit_ratio": _ratio(
                d.get("prediction_hits", 0),
                d.get("prediction_hits", 0) + d.get("prediction_misses", 0),
            ),
            "planning.prefetch_used_ratio": _ratio(
                d.get("prefetch_used", 0), d.get("prefetch_issued", 0)
            ),
            "interface.cache_hit_ratio": _ratio(
                d.get("cache_hits", 0), d.get("cache_hits", 0) + d.get("cache_misses", 0)
            ),
            "fleet.burst_depth_mean": _ratio(d.get("fleet_fetches", 0), d.get("fleet_bursts", 0)),
            # Without a flaky layer every fetch is a single attempt.
            "providers.retry_ratio": _ratio(
                d.get("flaky_attempts", 0), d.get("flaky_fetches", 0), empty=1.0
            ),
        }
    )
    return row


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(
            f"perfbench: unknown workload {args.workload!r} "
            f"(expected one of {sorted(workloads.WORKLOADS)})"
        )
    problems = []
    run = traced_run if args.trace else untraced_run
    metrics, info, attempted, failed = run(workload, args, problems)
    info.update(
        {"workload": workload.name, "seed": args.seed, "trace": args.trace,
         "src_lines": src_line_count(), "problems": problems}
    )
    print(json.dumps({"info": info}, default=str))
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
