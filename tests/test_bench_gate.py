"""Unit tests for the benchmark-regression gate (CI tooling)."""

import importlib.util
import json
from pathlib import Path

_GATE_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "regression_gate.py"
_spec = importlib.util.spec_from_file_location("regression_gate", _GATE_PATH)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def _walk_engine_profile(
    mto_sps=100_000, mto_qps=0.54, on_sps=48_000, on_cost=360, off_sps=47_000, off_cost=360
):
    return {
        "engines": {
            "mto": {"steps_per_second": mto_sps, "queries_per_sample": mto_qps},
            "srw": {"steps_per_second": 90_000, "queries_per_sample": 0.54},
        },
        "parallel": {
            "chains": 4,
            "engines": {
                "mto": {
                    "prefetch_off": {
                        "chain_steps_per_second": off_sps,
                        "query_cost": off_cost,
                    },
                    "prefetch_on": {
                        "chain_steps_per_second": on_sps,
                        "query_cost": on_cost,
                    },
                }
            },
        },
    }


def _scheduler_profile(speedup=3.0, wall=0.3, cost=227, bit_for_bit=True):
    return {
        "zero_latency_bit_for_bit": bit_for_bit,
        "distributions": {
            "heavy_tailed": {
                "speedup": speedup,
                "event_wall_per_sample": wall,
                "lockstep_wall_per_sample": wall * speedup,
                "query_cost": cost,
            }
        },
    }


def _fleet_profile(speedup=2.0, wall=0.2, cost=245, coalesced_cost=None, bit_for_bit=True):
    coalesced_cost = cost if coalesced_cost is None else coalesced_cost
    return {
        "zero_latency_bit_for_bit": bit_for_bit,
        "caps": {
            "1": {
                "query_cost": cost,
                "wall_per_sample": wall * speedup,
                "speedup_vs_uncoalesced": 1.0,
            },
            "8": {
                "query_cost": coalesced_cost,
                "wall_per_sample": wall,
                "speedup_vs_uncoalesced": speedup,
            },
        },
    }


def _planning_profile(
    speedup=2.1,
    wall=0.12,
    cost=245,
    planned_cost=None,
    issued=180,
    used=180,
    wasted=0,
    bit_for_bit=True,
):
    planned_cost = cost if planned_cost is None else planned_cost
    return {
        "zero_knob_bit_for_bit": bit_for_bit,
        "lookahead": 4,
        "cells": {
            "lookahead_0_off": {
                "query_cost": cost,
                "wall_per_sample": wall * speedup,
                "speedup_vs_plain": 1.0,
                "prefetch_issued": 0,
                "prefetch_used": 0,
                "prefetch_wasted": 0,
            },
            "lookahead_4_off": {
                "query_cost": planned_cost,
                "wall_per_sample": wall,
                "speedup_vs_plain": speedup,
                "prefetch_issued": issued,
                "prefetch_used": used,
                "prefetch_wasted": wasted,
            },
        },
    }


def _history_profile(
    mhrw_speedup=1.8,
    nbrw_speedup=1.9,
    mhrw_cost=184,
    cost_parity=True,
    zero_knob=True,
    cold_cost=198,
    warm_cost=142,
    bit_for_bit=True,
):
    return {
        "zero_knob_bit_for_bit": {
            "srw": zero_knob,
            "mhrw": zero_knob,
            "nbrw": zero_knob,
            "mto": zero_knob,
        },
        "engines": {
            "mhrw": {
                "query_cost": mhrw_cost,
                "speedup": mhrw_speedup,
                "cost_parity": cost_parity,
                "prediction_hits": 419,
                "prediction_misses": 74,
            },
            "nbrw": {
                "query_cost": 263,
                "speedup": nbrw_speedup,
                "cost_parity": True,
                "prediction_hits": 475,
                "prediction_misses": 66,
            },
        },
        "warm_start": {
            "cold_cost": cold_cost,
            "warm_cost": warm_cost,
            "savings": cold_cost - warm_cost,
            "warm_hits": 127,
            "bit_for_bit": bit_for_bit,
        },
    }


def _service_profile(
    max_ratio=2.1,
    fcfs_ratio=26.5,
    cost=359,
    fcfs_cost=None,
    clock=69.5,
    single_tenant=True,
    hibernate=True,
    splice=True,
):
    fcfs_cost = cost if fcfs_cost is None else fcfs_cost
    return {
        "single_tenant_bit_for_bit": single_tenant,
        "hibernate_resume_bit_for_bit": hibernate,
        "spill_splice_bit_for_bit": splice,
        "modes": {
            "drr": {
                "total_samples": 680,
                "total_query_cost": cost,
                "clock": clock,
                "fair_share": 0.82,
                "max_ratio": max_ratio,
                "shared_cache_hits": 321,
            },
            "fcfs": {
                "total_samples": 680,
                "total_query_cost": fcfs_cost,
                "clock": clock - 1.5,
                "fair_share": 0.80,
                "max_ratio": fcfs_ratio,
                "shared_cache_hits": 321,
            },
        },
    }


class TestWalkEngineGate:
    def test_identical_profiles_pass(self):
        base = _walk_engine_profile()
        assert gate.check_walk_engine(base, base) == []

    def test_hardware_jitter_tolerated(self):
        fresh = _walk_engine_profile(mto_sps=60_000)  # 40% slower: within band
        assert gate.check_walk_engine(fresh, _walk_engine_profile()) == []

    def test_big_throughput_drop_fails(self):
        fresh = _walk_engine_profile(mto_sps=40_000)  # 60% slower
        failures = gate.check_walk_engine(fresh, _walk_engine_profile())
        assert any("throughput regressed" in f for f in failures)

    def test_simulated_queries_per_sample_is_tight(self):
        fresh = _walk_engine_profile(mto_qps=0.60)  # ~11% drift
        failures = gate.check_walk_engine(fresh, _walk_engine_profile())
        assert any("queries/sample drifted" in f for f in failures)

    def test_missing_engine_fails(self):
        fresh = {"engines": {"srw": _walk_engine_profile()["engines"]["srw"]}}
        failures = gate.check_walk_engine(fresh, _walk_engine_profile())
        assert any("missing" in f for f in failures)

    def test_prefetch_cost_above_off_fails(self):
        fresh = _walk_engine_profile(on_cost=737)  # the old 2x over-fetch
        failures = gate.check_walk_engine(fresh, _walk_engine_profile())
        assert any("raised the §II-B bill" in f for f in failures)

    def test_prefetch_throughput_parity_enforced(self):
        fresh = _walk_engine_profile(on_sps=30_000)  # far below same-run off
        failures = gate.check_walk_engine(fresh, _walk_engine_profile())
        assert any("prefetch-on throughput" in f for f in failures)

    def test_prefetch_jitter_tolerated(self):
        fresh = _walk_engine_profile(on_sps=42_000)  # ~11% under off: jitter band
        assert gate.check_walk_engine(fresh, _walk_engine_profile()) == []

    def test_parallel_baseline_floor_enforced(self):
        fresh = _walk_engine_profile(off_sps=20_000, on_sps=20_000)  # >50% drop
        failures = gate.check_walk_engine(fresh, _walk_engine_profile())
        assert any("parallel mto throughput regressed" in f for f in failures)

    def test_missing_parallel_engine_fails(self):
        fresh = _walk_engine_profile()
        fresh["parallel"]["engines"] = {}
        failures = gate.check_walk_engine(fresh, _walk_engine_profile())
        assert any("parallel engine 'mto' missing" in f for f in failures)


class TestSchedulerGate:
    def test_identical_profiles_pass(self):
        base = _scheduler_profile()
        assert gate.check_scheduler(base, base) == []

    def test_speedup_floor_enforced(self):
        fresh = _scheduler_profile(speedup=1.6, wall=0.3)
        failures = gate.check_scheduler(fresh, _scheduler_profile(speedup=1.6, wall=0.3))
        assert any("below the 2.0x floor" in f for f in failures)

    def test_lost_determinism_fails(self):
        fresh = _scheduler_profile(bit_for_bit=False)
        failures = gate.check_scheduler(fresh, _scheduler_profile())
        assert any("bit-for-bit" in f for f in failures)

    def test_wall_clock_regression_fails(self):
        fresh = _scheduler_profile(wall=0.4)
        failures = gate.check_scheduler(fresh, _scheduler_profile(wall=0.3))
        assert any("event_wall_per_sample regressed" in f for f in failures)

    def test_faster_wall_clock_passes(self):
        fresh = _scheduler_profile(wall=0.2, speedup=4.0)
        assert gate.check_scheduler(fresh, _scheduler_profile(wall=0.3, speedup=3.0)) == []

    def test_query_cost_increase_fails(self):
        fresh = _scheduler_profile(cost=260)
        failures = gate.check_scheduler(fresh, _scheduler_profile(cost=227))
        assert any("query_cost regressed" in f for f in failures)


class TestFleetGate:
    def test_identical_profiles_pass(self):
        base = _fleet_profile()
        assert gate.check_fleet(base, base) == []

    def test_speedup_floor_enforced(self):
        fresh = _fleet_profile(speedup=1.2)
        failures = gate.check_fleet(fresh, _fleet_profile(speedup=1.2))
        assert any("below the 1.5x floor" in f for f in failures)

    def test_lost_determinism_fails(self):
        fresh = _fleet_profile(bit_for_bit=False)
        failures = gate.check_fleet(fresh, _fleet_profile())
        assert any("bit-for-bit" in f for f in failures)

    def test_bill_change_between_caps_fails(self):
        fresh = _fleet_profile(coalesced_cost=260)
        failures = gate.check_fleet(fresh, _fleet_profile())
        assert any("changed the" in f for f in failures)

    def test_wall_clock_regression_fails(self):
        fresh = _fleet_profile(wall=0.3)
        failures = gate.check_fleet(fresh, _fleet_profile(wall=0.2))
        assert any("wall_per_sample regressed" in f for f in failures)

    def test_faster_wall_clock_passes(self):
        fresh = _fleet_profile(wall=0.1, speedup=3.0)
        assert gate.check_fleet(fresh, _fleet_profile(wall=0.2, speedup=2.0)) == []

    def test_missing_cap_rows_fail(self):
        failures = gate.check_fleet({"zero_latency_bit_for_bit": True}, _fleet_profile())
        assert any("cap rows missing" in f for f in failures)


class TestPlanningGate:
    def test_identical_profiles_pass(self):
        base = _planning_profile()
        assert gate.check_planning(base, base) == []

    def test_speedup_floor_enforced(self):
        fresh = _planning_profile(speedup=1.2)
        failures = gate.check_planning(fresh, _planning_profile(speedup=1.2))
        assert any("below the 1.5x floor" in f for f in failures)

    def test_lost_determinism_fails(self):
        fresh = _planning_profile(bit_for_bit=False)
        failures = gate.check_planning(fresh, _planning_profile())
        assert any("bit-for-bit" in f for f in failures)

    def test_cost_increase_fails(self):
        fresh = _planning_profile(planned_cost=260)
        failures = gate.check_planning(fresh, _planning_profile())
        assert any("raised the" in f for f in failures)

    def test_unbalanced_ledger_fails(self):
        fresh = _planning_profile(issued=180, used=170, wasted=0)
        failures = gate.check_planning(fresh, _planning_profile())
        assert any("ledger" in f for f in failures)

    def test_wall_clock_regression_fails(self):
        fresh = _planning_profile(wall=0.2)
        failures = gate.check_planning(fresh, _planning_profile(wall=0.12))
        assert any("wall_per_sample regressed" in f for f in failures)

    def test_faster_wall_clock_passes(self):
        fresh = _planning_profile(wall=0.08, speedup=3.0)
        assert gate.check_planning(fresh, _planning_profile(wall=0.12, speedup=2.1)) == []

    def test_missing_cells_fail(self):
        failures = gate.check_planning({"zero_knob_bit_for_bit": True}, _planning_profile())
        assert any("cells missing" in f for f in failures)


class TestHistoryGate:
    def test_identical_profiles_pass(self):
        base = _history_profile()
        assert gate.check_history(base, base) == []

    def test_engine_speedup_floor_enforced(self):
        fresh = _history_profile(mhrw_speedup=1.2)
        failures = gate.check_history(fresh, _history_profile(mhrw_speedup=1.2))
        assert any("below the 1.5x floor" in f for f in failures)

    def test_lost_cost_parity_fails(self):
        fresh = _history_profile(cost_parity=False)
        failures = gate.check_history(fresh, _history_profile())
        assert any("cost parity" in f for f in failures)

    def test_lost_zero_knob_equivalence_fails(self):
        fresh = _history_profile(zero_knob=False)
        failures = gate.check_history(fresh, _history_profile())
        assert any("zero-knob bit-for-bit" in f for f in failures)

    def test_query_cost_drift_fails(self):
        fresh = _history_profile(mhrw_cost=210)
        failures = gate.check_history(fresh, _history_profile())
        assert any("query_cost regressed" in f for f in failures)

    def test_speedup_drift_fails(self):
        fresh = _history_profile(mhrw_speedup=1.6)
        failures = gate.check_history(fresh, _history_profile(mhrw_speedup=1.8))
        assert any("speedup regressed" in f for f in failures)

    def test_missing_engine_fails(self):
        fresh = _history_profile()
        del fresh["engines"]["nbrw"]
        failures = gate.check_history(fresh, _history_profile())
        assert any("missing" in f for f in failures)

    def test_warm_run_divergence_fails(self):
        fresh = _history_profile(bit_for_bit=False)
        failures = gate.check_history(fresh, _history_profile())
        assert any("diverged" in f for f in failures)

    def test_warm_saving_nothing_fails(self):
        fresh = _history_profile(warm_cost=198)
        failures = gate.check_history(fresh, _history_profile())
        assert any("saved nothing" in f for f in failures)

    def test_warm_savings_regression_fails(self):
        fresh = _history_profile(warm_cost=190)
        failures = gate.check_history(fresh, _history_profile())
        assert any("savings regressed" in f for f in failures)

    def test_missing_warm_section_fails(self):
        fresh = _history_profile()
        del fresh["warm_start"]
        failures = gate.check_history(fresh, _history_profile())
        assert any("warm_start section missing" in f for f in failures)


class TestServiceGate:
    def test_identical_profiles_pass(self):
        base = _service_profile()
        assert gate.check_service(base, base) == []

    def test_fair_ratio_ceiling_enforced(self):
        fresh = _service_profile(max_ratio=3.4)
        failures = gate.check_service(fresh, _service_profile(max_ratio=3.4))
        assert any("ceiling" in f for f in failures)

    def test_fair_bill_increase_fails(self):
        fresh = _service_profile(cost=380, fcfs_cost=359)
        failures = gate.check_service(fresh, _service_profile())
        assert any("raised the" in f for f in failures)

    def test_lost_equivalences_fail(self):
        for probe in ("single_tenant", "hibernate", "splice"):
            fresh = _service_profile(**{probe: False})
            failures = gate.check_service(fresh, _service_profile())
            assert len(failures) == 1 and "equivalence no longer holds" in failures[0]

    def test_drr_ratio_drift_gated_but_fcfs_is_not(self):
        fresh = _service_profile(max_ratio=2.5, fcfs_ratio=40.0)
        failures = gate.check_service(fresh, _service_profile())
        assert any("drr max_ratio regressed" in f for f in failures)
        assert not any("fcfs max_ratio" in f for f in failures)

    def test_missing_modes_fail(self):
        fresh = {
            "single_tenant_bit_for_bit": True,
            "hibernate_resume_bit_for_bit": True,
            "spill_splice_bit_for_bit": True,
        }
        failures = gate.check_service(fresh, _service_profile())
        assert any("mode rows missing" in f for f in failures)


def _obs_profile(
    bit_for_bit=True,
    reconciled=True,
    overhead=1.03,
    trace_events=404,
    query_cost=83,
):
    return {
        "recorder_on_bit_for_bit": bit_for_bit,
        "reconciled": reconciled,
        "overhead_ratio": overhead,
        "trace_events": trace_events,
        "query_cost": query_cost,
        "recorder_off_steps_per_second": 50_000,
        "recorder_on_steps_per_second": 48_500,
    }


class TestObsGate:
    def test_identical_profiles_pass(self):
        base = _obs_profile()
        assert gate.check_obs(base, base) == []

    def test_lost_bit_for_bit_fails(self):
        fresh = _obs_profile(bit_for_bit=False)
        failures = gate.check_obs(fresh, _obs_profile())
        assert any("bit-for-bit" in f for f in failures)

    def test_lost_reconciliation_fails(self):
        fresh = _obs_profile(reconciled=False)
        failures = gate.check_obs(fresh, _obs_profile())
        assert any("§II-B bill" in f for f in failures)

    def test_overhead_above_ceiling_fails(self):
        fresh = _obs_profile(overhead=1.25)
        failures = gate.check_obs(fresh, _obs_profile())
        assert any("ceiling" in f for f in failures)

    def test_overhead_jitter_under_ceiling_passes(self):
        fresh = _obs_profile(overhead=1.09)
        assert gate.check_obs(fresh, _obs_profile()) == []

    def test_missing_overhead_fails(self):
        fresh = _obs_profile()
        del fresh["overhead_ratio"]
        failures = gate.check_obs(fresh, _obs_profile())
        assert any("overhead_ratio missing" in f for f in failures)

    def test_simulated_drift_fails(self):
        fresh = _obs_profile(trace_events=380)  # ~6% event-coverage drift
        failures = gate.check_obs(fresh, _obs_profile())
        assert any("trace_events drifted" in f for f in failures)

        fresh = _obs_profile(query_cost=90)
        failures = gate.check_obs(fresh, _obs_profile())
        assert any("query_cost drifted" in f for f in failures)

    def test_missing_simulated_metric_fails(self):
        fresh = _obs_profile()
        del fresh["query_cost"]
        failures = gate.check_obs(fresh, _obs_profile())
        assert any("query_cost missing" in f for f in failures)


def _obs_causality_profile(
    reconciles=True,
    bit_for_bit=True,
    overhead=0.98,
    driver="planner_prefetch",
    wall_clock=8.5,
    path_segments=15,
):
    return {
        "attribution_reconciles": reconciles,
        "watcher_bit_for_bit": bit_for_bit,
        "watcher_overhead_ratio": overhead,
        "dominant_driver": driver,
        "wall_clock": wall_clock,
        "path_segments": path_segments,
    }


class TestObsCausalityGate:
    def test_identical_profiles_pass(self):
        base = _obs_causality_profile()
        assert gate.check_obs_causality(base, base) == []

    def test_broken_attribution_fails(self):
        failures = gate.check_obs_causality(
            _obs_causality_profile(reconciles=False), _obs_causality_profile()
        )
        assert any("attribution" in f for f in failures)

    def test_perturbing_watcher_fails(self):
        failures = gate.check_obs_causality(
            _obs_causality_profile(bit_for_bit=False), _obs_causality_profile()
        )
        assert any("watcher" in f for f in failures)

    def test_watcher_overhead_ceiling(self):
        failures = gate.check_obs_causality(
            _obs_causality_profile(overhead=1.2), _obs_causality_profile()
        )
        assert any("ceiling" in f for f in failures)
        fresh = _obs_causality_profile()
        del fresh["watcher_overhead_ratio"]
        failures = gate.check_obs_causality(fresh, _obs_causality_profile())
        assert any("watcher_overhead_ratio missing" in f for f in failures)

    def test_wrong_dominant_driver_fails(self):
        failures = gate.check_obs_causality(
            _obs_causality_profile(driver="shard_latency"), _obs_causality_profile()
        )
        assert any("blamed" in f for f in failures)

    def test_simulated_drift_fails(self):
        failures = gate.check_obs_causality(
            _obs_causality_profile(wall_clock=9.5), _obs_causality_profile()
        )
        assert any("wall_clock drifted" in f for f in failures)
        failures = gate.check_obs_causality(
            _obs_causality_profile(path_segments=20), _obs_causality_profile()
        )
        assert any("path_segments drifted" in f for f in failures)


class TestCriticalPathHint:
    def test_hint_is_none_when_traces_are_absent(self, tmp_path):
        assert gate.critical_path_hint(tmp_path, tmp_path) is None

    def test_hint_diffs_the_committed_trace_against_itself(self, tmp_path):
        baseline_dir = _GATE_PATH.parent / "baselines"
        hint = gate.critical_path_hint(baseline_dir, baseline_dir)
        assert hint is not None
        assert "equivalent" in hint


class TestRunGate:
    def _write(self, directory, name, payload):
        with open(directory / name, "w") as fh:
            json.dump(payload, fh)

    def test_end_to_end_pass_and_fail(self, tmp_path):
        baseline_dir = tmp_path / "baselines"
        fresh_dir = tmp_path / "fresh"
        baseline_dir.mkdir()
        fresh_dir.mkdir()
        self._write(baseline_dir, "BENCH_walk_engine.json", _walk_engine_profile())
        self._write(baseline_dir, "BENCH_scheduler.json", _scheduler_profile())
        self._write(baseline_dir, "BENCH_fleet.json", _fleet_profile())
        self._write(baseline_dir, "BENCH_planning.json", _planning_profile())
        self._write(baseline_dir, "BENCH_history.json", _history_profile())
        self._write(baseline_dir, "BENCH_service.json", _service_profile())
        self._write(baseline_dir, "BENCH_obs.json", _obs_profile())
        self._write(baseline_dir, "BENCH_obs_causality.json", _obs_causality_profile())
        self._write(fresh_dir, "BENCH_walk_engine.json", _walk_engine_profile())
        self._write(fresh_dir, "BENCH_scheduler.json", _scheduler_profile())
        self._write(fresh_dir, "BENCH_fleet.json", _fleet_profile())
        self._write(fresh_dir, "BENCH_planning.json", _planning_profile())
        self._write(fresh_dir, "BENCH_history.json", _history_profile())
        self._write(fresh_dir, "BENCH_service.json", _service_profile())
        self._write(fresh_dir, "BENCH_obs.json", _obs_profile())
        self._write(fresh_dir, "BENCH_obs_causality.json", _obs_causality_profile())
        assert gate.run_gate(fresh_dir, baseline_dir) == []
        assert gate.main(["--fresh-dir", str(fresh_dir), "--baseline-dir", str(baseline_dir)]) == 0

        self._write(fresh_dir, "BENCH_scheduler.json", _scheduler_profile(speedup=1.0))
        assert gate.run_gate(fresh_dir, baseline_dir) != []
        assert gate.main(["--fresh-dir", str(fresh_dir), "--baseline-dir", str(baseline_dir)]) == 1

    def test_missing_files_reported(self, tmp_path):
        baseline_dir = tmp_path / "baselines"
        fresh_dir = tmp_path / "fresh"
        baseline_dir.mkdir()
        fresh_dir.mkdir()
        failures = gate.run_gate(fresh_dir, baseline_dir)
        assert any("baseline" in f for f in failures)

    def test_committed_baselines_gate_the_committed_shape(self):
        # The repo's own baselines must stay loadable and self-consistent:
        # a baseline compared against itself always passes.
        baseline_dir = _GATE_PATH.parent / "baselines"
        assert gate.run_gate(baseline_dir, baseline_dir) == []


class TestEveryFailureBranch:
    """One test per failure branch the per-profile tests above leave unreached."""

    def test_parallel_query_cost_drift_fails_both_ways(self):
        for cost in (380, 340):  # ~6% above and below the 360 baseline
            fresh = _walk_engine_profile(on_cost=cost, off_cost=cost)
            failures = gate.check_walk_engine(fresh, _walk_engine_profile())
            assert failures == [
                "walk_engine: parallel mto query cost drifted: {} vs baseline 360 "
                "(simulated metric, tolerance 2%)".format(cost)
            ]

    def test_missing_scheduler_distribution_fails(self):
        base = _scheduler_profile()
        base["distributions"]["uniform"] = dict(base["distributions"]["heavy_tailed"])
        failures = gate.check_scheduler(_scheduler_profile(), base)
        assert failures == ["scheduler: distribution 'uniform' missing from fresh profile"]

    def test_missing_fleet_cap_fails(self):
        base = _fleet_profile()
        base["caps"]["4"] = dict(base["caps"]["8"])
        failures = gate.check_fleet(_fleet_profile(), base)
        assert failures == ["fleet: cap '4' missing from fresh profile"]

    def test_missing_planning_cell_fails(self):
        base = _planning_profile()
        base["cells"]["lookahead_4_adaptive"] = dict(base["cells"]["lookahead_4_off"])
        failures = gate.check_planning(_planning_profile(), base)
        assert failures == ["planning: cell 'lookahead_4_adaptive' missing from fresh profile"]

    def test_missing_service_mode_fails(self):
        base = _service_profile()
        base["modes"]["wfq"] = dict(base["modes"]["fcfs"])
        failures = gate.check_service(_service_profile(), base)
        assert failures == ["service: mode 'wfq' missing from fresh profile"]

    def test_history_engine_without_zero_knob_probe_fails(self):
        fresh = _history_profile()
        del fresh["zero_knob_bit_for_bit"]["nbrw"]
        failures = gate.check_history(fresh, _history_profile())
        assert failures == ["history: engine nbrw has no zero-knob probe result"]

    def test_missing_obs_causality_scalar_fails(self):
        for metric in ("wall_clock", "path_segments"):
            fresh = _obs_causality_profile()
            del fresh[metric]
            failures = gate.check_obs_causality(fresh, _obs_causality_profile())
            assert failures == [f"obs_causality: {metric} missing from fresh profile"]

    def test_baseline_without_fresh_profile_fails(self, tmp_path):
        baseline_dir = tmp_path / "baselines"
        fresh_dir = tmp_path / "fresh"
        baseline_dir.mkdir()
        fresh_dir.mkdir()
        with open(baseline_dir / "BENCH_obs.json", "w") as fh:
            json.dump(_obs_profile(), fh)
        failures = gate.run_gate(fresh_dir, baseline_dir)
        expected = f"gate: fresh profile {fresh_dir / 'BENCH_obs.json'} was not generated"
        assert expected in failures
        assert sum("was not generated" in f for f in failures) == 1
        assert sum("is missing" in f for f in failures) == 7
