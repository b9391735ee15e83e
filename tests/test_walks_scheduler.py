"""Tests for the event-driven, latency-aware walk scheduler.

Two acceptance bars (ISSUE 3):

* on a zero-latency provider, :class:`EventDrivenWalkers` reproduces
  :class:`ParallelWalkers` bit-for-bit — same merged sample sequence,
  same query cost, same R̂;
* under a seeded heavy-tailed latency model it collects the same samples
  at identical query cost while spending far less simulated wall-clock.
"""

import hashlib

import pytest

from repro.compose import (
    FleetSpec,
    PlannerSpec,
    ProviderSpec,
    StackConfig,
    WalkSpec,
    build_fleet,
    build_stack,
)
from repro.convergence.gelman_rubin import GelmanRubinDiagnostic
from repro.core import MTOSampler
from repro.core.overlay import OverlayGraph, shared_overlay_of
from repro.datasets import load
from repro.datastore.snapshot import KeyValueBackend
from repro.errors import SnapshotError, WalkError
from repro.interface import RestrictedSocialAPI, SamplingSession
from repro.generators import complete_graph
from repro.obs.trace import TraceRecorder
from repro.planning import AdaptiveChainPolicy, DispatchPlanner
from repro.walks import EventDrivenWalkers, ParallelWalkers, SimpleRandomWalk


@pytest.fixture(scope="module")
def network():
    return load("epinions_like", seed=0, scale=0.15)


def _srw_chains(network, api, k=4):
    return [SimpleRandomWalk(api, start=network.seed_node(i), seed=i) for i in range(k)]


def _mto_chains(network, api, k=3):
    overlay = OverlayGraph(api)
    return [MTOSampler(api, start=network.seed_node(i), seed=i, overlay=overlay) for i in range(k)]


class TestValidation:
    def test_requires_two_samplers(self):
        api = RestrictedSocialAPI(complete_graph(4))
        with pytest.raises(WalkError):
            EventDrivenWalkers([SimpleRandomWalk(api, start=0, seed=0)])

    def test_requires_shared_interface(self):
        g = complete_graph(4)
        a = SimpleRandomWalk(RestrictedSocialAPI(g), start=0, seed=0)
        b = SimpleRandomWalk(RestrictedSocialAPI(g), start=1, seed=1)
        with pytest.raises(WalkError):
            EventDrivenWalkers([a, b])

    def test_invalid_run_params(self, network):
        walkers = EventDrivenWalkers(_srw_chains(network, network.interface()))
        with pytest.raises(ValueError):
            walkers.run(num_samples=0)
        with pytest.raises(ValueError):
            walkers.run(num_samples=1, thinning=0)

    def test_invalid_max_lead(self, network):
        with pytest.raises(WalkError):
            EventDrivenWalkers(_srw_chains(network, network.interface()), max_lead=0)


class TestZeroLatencyEquivalence:
    """The determinism acceptance criterion, across run configurations."""

    CONFIGS = [
        dict(num_samples=48),
        dict(num_samples=50, thinning=3),
        dict(num_samples=40, monitor=GelmanRubinDiagnostic(threshold=1.2)),
        dict(
            num_samples=37,
            thinning=2,
            monitor=GelmanRubinDiagnostic(threshold=1.3),
        ),
        dict(num_samples=6),  # fewer samples than a full round
    ]

    @pytest.mark.parametrize("config", CONFIGS, ids=[str(i) for i in range(len(CONFIGS))])
    def test_srw_bit_for_bit(self, network, config):
        lock = ParallelWalkers(_srw_chains(network, network.interface()))
        lock_run = lock.run(**config)
        event = EventDrivenWalkers(_srw_chains(network, network.interface()))
        event_run = event.run(**config)

        assert event_run.samples == lock_run.samples
        assert event_run.queries == lock_run.queries
        assert event_run.r_hat_at_convergence == lock_run.r_hat_at_convergence
        assert [c.steps for c in event.chains] == [c.steps for c in lock.chains]
        assert [tuple(c.trace) for c in event.chains] == [tuple(c.trace) for c in lock.chains]
        assert event_run.sim_elapsed == 0.0
        assert lock_run.sim_elapsed == 0.0

    def test_shared_overlay_mto_bit_for_bit(self, network):
        api_lock = network.interface()
        lock_chains = _mto_chains(network, api_lock)
        lock_run = ParallelWalkers(lock_chains).run(
            num_samples=45, monitor=GelmanRubinDiagnostic(threshold=1.3)
        )
        api_event = network.interface()
        event_chains = _mto_chains(network, api_event)
        event = EventDrivenWalkers(event_chains)
        event_run = event.run(num_samples=45, monitor=GelmanRubinDiagnostic(threshold=1.3))

        assert event_run.samples == lock_run.samples
        assert event_run.queries == lock_run.queries
        assert event_run.r_hat_at_convergence == lock_run.r_hat_at_convergence
        # The shared overlay evolved identically under both schedules.
        lock_overlay = lock_chains[0].overlay
        event_overlay = event_chains[0].overlay
        assert event.overlay is event_overlay
        assert event_overlay.removal_count == lock_overlay.removal_count
        assert event_overlay.replacement_count == lock_overlay.replacement_count
        assert event_overlay.state_dict() == lock_overlay.state_dict()

    def test_per_chain_runs_match(self, network):
        lock_run = ParallelWalkers(_srw_chains(network, network.interface())).run(num_samples=30)
        event_run = EventDrivenWalkers(_srw_chains(network, network.interface())).run(num_samples=30)
        for a, b in zip(event_run.per_chain, lock_run.per_chain):
            assert a.samples == b.samples
            assert a.total_steps == b.total_steps
            assert a.converged == b.converged


class TestLatencyAwareScheduling:
    def test_identical_cost_lower_wall_clock(self, network):
        k, n = 8, 240
        api_lock = network.interface(latency_distribution="heavy_tailed", latency_seed=3)
        lock_run = ParallelWalkers(_srw_chains(network, api_lock, k)).run(num_samples=n)
        api_event = network.interface(latency_distribution="heavy_tailed", latency_seed=3)
        event_run = EventDrivenWalkers(_srw_chains(network, api_event, k)).run(num_samples=n)

        # Balanced per-chain quotas: the same walk work, the same bill.
        assert event_run.queries == lock_run.queries
        assert sorted(s.node for s in event_run.samples) == sorted(s.node for s in lock_run.samples)
        # Lock-step pays each round's maximum latency; event-driven chains
        # never wait for each other.
        assert event_run.sim_elapsed < lock_run.sim_elapsed
        assert lock_run.sim_elapsed / event_run.sim_elapsed >= 2.0

    @pytest.mark.parametrize("thinning", [1, 2])
    def test_tick_driving_without_a_fleet_matches_run(self, network, thinning):
        """begin_collect + collect_tick is run()'s collection loop, fleet or not."""
        k, n = 8, 400
        api_run = network.interface(latency_distribution="heavy_tailed", latency_seed=3)
        ran = EventDrivenWalkers(_srw_chains(network, api_run, k)).run(num_samples=n, thinning=thinning)
        api_tick = network.interface(latency_distribution="heavy_tailed", latency_seed=3)
        walkers = EventDrivenWalkers(_srw_chains(network, api_tick, k))
        assert walkers.fleet is None
        walkers.begin_collect(n, thinning)
        while not walkers.collect_tick(n):
            pass
        ticked = walkers.result()
        assert ticked.samples == ran.samples
        assert ticked.queries == ran.queries
        assert ticked.sim_elapsed == ran.sim_elapsed > 0
        assert ticked.events_processed == ran.events_processed

    def test_merged_interleaves_by_completion(self, network):
        api = network.interface(latency_distribution="heavy_tailed", latency_seed=3)
        chains = _srw_chains(network, api, 4)
        run = EventDrivenWalkers(chains).run(num_samples=40)
        order = _chain_attribution(run)
        # Every chain contributed exactly its fair share...
        assert sorted(order) == sorted(list(range(4)) * 10)
        # ...but under heterogeneous latency the completion order differs
        # from strict round-robin (coincidence probability ~ 0).
        assert order != [0, 1, 2, 3] * 10

    def test_lockstep_wall_clock_is_sum_of_round_maxima(self, network):
        api = network.interface(latency_distribution="constant", latency_scale=2.0)
        walkers = ParallelWalkers(_srw_chains(network, api, 3))
        for _ in range(10):
            walkers.step_all()
        # Constant latency: every round costs exactly one response time
        # (cache hits are free, so rounds where every chain revisits
        # known users may cost 0 — bounded above by 2s per round).
        assert walkers.simulated_elapsed <= 10 * 2.0
        assert walkers.simulated_elapsed > 0.0


def _chain_attribution(run):
    """Recover per-sample chain indices from the per_chain partition."""
    remaining = [list(c.samples) for c in run.per_chain]
    attribution = []
    for sample in run.samples:
        for idx, queue in enumerate(remaining):
            if queue and queue[0] == sample:
                attribution.append(idx)
                queue.pop(0)
                break
    return attribution


class TestBurnInLead:
    def test_burnin_step_budget_exhaustion_matches_lockstep(self, network):
        # A threshold of 1.0 + tiny budget: neither driver converges; both
        # must report the same (finite or inf) R̂ and keep collecting.
        monitor = GelmanRubinDiagnostic(threshold=1.0, min_chain_length=4)
        lock = ParallelWalkers(_srw_chains(network, network.interface()))
        lock_run = lock.run(num_samples=9, monitor=monitor, max_steps=30)
        event = EventDrivenWalkers(_srw_chains(network, network.interface()))
        event_run = event.run(num_samples=9, monitor=monitor, max_steps=30)
        assert event_run.samples == lock_run.samples
        assert event_run.r_hat_at_convergence == lock_run.r_hat_at_convergence
        assert not event_run.per_chain[0].converged
        assert not lock_run.per_chain[0].converged

    def test_rerun_after_done_is_idempotent(self, network):
        walkers = EventDrivenWalkers(_srw_chains(network, network.interface()))
        first = walkers.run(num_samples=12)
        assert walkers.phase == "done"
        again = walkers.run(num_samples=12)
        assert again.samples == first.samples
        assert again.events_processed == first.events_processed

    def test_max_lead_bounds_runahead(self, network):
        api = network.interface(latency_distribution="heavy_tailed", latency_seed=11)
        chains = _srw_chains(network, api, 3)
        walkers = EventDrivenWalkers(chains, max_lead=4)
        walkers.run(num_samples=12, monitor=GelmanRubinDiagnostic(threshold=1.5))
        rounds = walkers.state_dict()["burn_rounds"]
        assert max(rounds) - min(rounds) <= 4


class TestSchedulerCheckpointing:
    def test_state_roundtrip_mid_flight(self, network):
        def build():
            api = network.interface(latency_distribution="heavy_tailed", latency_seed=5)
            return api, EventDrivenWalkers(_srw_chains(network, api, 4))

        api_ref, reference = build()
        ref_run = reference.run(num_samples=60)

        api_a, first = build()
        backend = KeyValueBackend()
        session = SamplingSession(api_a, first, backend, checkpoint_every=37)
        first.run(num_samples=60)
        assert session.saves >= 1

        api_b, resumed = build()
        resume_session = SamplingSession(api_b, resumed, backend)
        assert resume_session.resume()
        resumed_run = resumed.run(num_samples=60)

        assert resumed_run.samples == ref_run.samples
        assert resumed_run.queries == ref_run.queries
        assert resumed_run.sim_elapsed == ref_run.sim_elapsed
        assert api_b.query_cost == api_ref.query_cost

    def test_checkpoint_during_burnin_resumes(self, network):
        monitor = GelmanRubinDiagnostic(threshold=1.25)

        def build():
            api = network.interface(latency_distribution="uniform", latency_seed=2)
            return api, EventDrivenWalkers(_srw_chains(network, api, 3))

        _, reference = build()
        ref_run = reference.run(num_samples=21, monitor=monitor)

        api_a, first = build()
        backend = KeyValueBackend()
        SamplingSession(api_a, first, backend, checkpoint_every=40)
        with pytest.raises(_StopAfterSaves):
            _run_until_saves(first, backend, num_samples=21, monitor=monitor, saves=1)

        api_b, resumed = build()
        assert SamplingSession(api_b, resumed, backend).resume()
        assert resumed.phase in ("burnin", "collect")
        resumed_run = resumed.run(num_samples=21, monitor=monitor)

        assert resumed_run.samples == ref_run.samples
        assert resumed_run.queries == ref_run.queries
        assert resumed_run.r_hat_at_convergence == ref_run.r_hat_at_convergence

    def test_resumed_burnin_without_monitor_raises(self, network):
        api = network.interface()
        group = EventDrivenWalkers(_srw_chains(network, api, 3))
        group._phase = "burnin"  # as a restored mid-burn-in checkpoint would set
        with pytest.raises(WalkError):
            group.run(num_samples=10)

    def test_chain_count_mismatch_raises(self, network):
        api = network.interface()
        group = EventDrivenWalkers(_srw_chains(network, api, 3))
        backend = KeyValueBackend()
        SamplingSession(api, group, backend).save()

        api2 = network.interface()
        group2 = EventDrivenWalkers(_srw_chains(network, api2, 4))
        with pytest.raises(SnapshotError):
            SamplingSession(api2, group2, backend).resume()

    def test_invalid_checkpoint_period(self, network):
        group = EventDrivenWalkers(_srw_chains(network, network.interface(), 3))
        with pytest.raises(ValueError):
            group.set_checkpoint(lambda g: None, 0)

    def test_clear_checkpoint(self, network):
        api = network.interface()
        group = EventDrivenWalkers(_srw_chains(network, api, 3))
        backend = KeyValueBackend()
        session = SamplingSession(api, group, backend, checkpoint_every=10)
        group.run(num_samples=9)
        saves = session.saves
        assert saves >= 1
        group.clear_checkpoint()
        group._phase = "fresh"  # force another pass without hooks
        group.run(num_samples=18)
        assert session.saves == saves


class _StopAfterSaves(Exception):
    pass


def _run_until_saves(walkers, backend, num_samples, monitor, saves):
    """Drive ``run`` but abort (via the checkpoint hook) after N saves."""
    state = {"count": 0}
    original_fn = walkers._checkpoint_fn

    def hook(group):
        if original_fn is not None:
            original_fn(group)
        state["count"] += 1
        if state["count"] >= saves:
            raise _StopAfterSaves()

    walkers._checkpoint_fn = hook
    walkers.run(num_samples=num_samples, monitor=monitor)


class TestSharedOverlayHelper:
    def test_detects_shared(self, network):
        api = network.interface()
        chains = _mto_chains(network, api)
        assert shared_overlay_of(chains) is chains[0].overlay

    def test_none_for_private_overlays(self, network):
        api = network.interface()
        chains = [MTOSampler(api, start=network.seed_node(i), seed=i) for i in range(2)]
        assert shared_overlay_of(chains) is None

    def test_none_for_overlay_less_chains(self, network):
        api = network.interface()
        assert shared_overlay_of(_srw_chains(network, api, 2)) is None

    def test_parallel_walkers_expose_shared_overlay(self, network):
        api = network.interface()
        chains = _mto_chains(network, api)
        assert ParallelWalkers(chains).overlay is chains[0].overlay


def _pin_digest(*parts):
    return hashlib.sha256(repr(parts).encode()).hexdigest()


class TestEventDrivenPins:
    """Event-driven runs under latency, pinned bit for bit.

    The zero-latency suites compare the scheduler with lock-step and the
    adaptive lifecycle with itself; these pins fix what a latency-bearing
    run actually produces, so a restructured tick loop must reproduce the
    samples, the whole query log, both clocks, the event count and (over
    a fleet) every trace event exactly.
    """

    NO_FLEET_DIGEST = "cdf6bf780fdbb0d3d7bf3411331a1c3a74f6072d2c489044df234e6ae694b23b"
    ADAPTIVE_FLEET_DIGEST = "3e65ff4a1f4195d8fcb9eb1bebd9aa17bffdab37f1206d099dfede5c1eb1b62a"
    PLANNED_FLEET_DIGEST = "b00a079e2f8b21d7adf2362611490bd1e5cf0bf74f3c200173fcbef800e8f11d"

    def test_no_fleet_parked_burn_in_thinned_collection_and_checkpoints(self, network):
        # max_lead=3 under heavy-tailed latency parks fast chains during
        # burn-in; the 37-event checkpoint period crosses tick boundaries
        # in both phases.
        api = network.interface(latency_distribution="heavy_tailed", latency_seed=3)
        walkers = EventDrivenWalkers(_srw_chains(network, api), max_lead=3)
        calls = []
        walkers.set_checkpoint(
            lambda w: calls.append((w.events_processed, w.simulated_elapsed, api.query_cost)), 37
        )
        run = walkers.run(103, thinning=2, monitor=GelmanRubinDiagnostic(threshold=1.3))
        assert walkers.fleet is None
        assert len(run.samples) == 103
        assert run.events_processed == walkers.events_processed
        assert [events // 37 for events, _, _ in calls] == list(range(1, len(calls) + 1))
        digest = _pin_digest(
            [(s.node, s.weight, s.query_cost, s.step) for s in run.samples],
            list(api.log.state_dict()["records"]),
            api.clock.now(),
            run.sim_elapsed,
            run.events_processed,
            calls,
        )
        assert digest == self.NO_FLEET_DIGEST

    def test_adaptive_fleet_trace(self, network):
        spec = FleetSpec(
            num_shards=3,
            seed=11,
            provider=ProviderSpec(latency_distribution="heavy_tailed", latency_scale=0.5),
            shard_latency_spread=4.0,
            admission_interval=1.0,
            latency_quantum=0.5,
            batch_cap=16,
        )
        api = RestrictedSocialAPI(build_fleet(spec, network.graph, profiles=network.profiles))
        policy = AdaptiveChainPolicy(
            start_chains=6, min_chains=3, evaluate_every=8, min_observations=4, spawn_r_hat_above=1.0
        )
        walkers = EventDrivenWalkers(
            _srw_chains(network, api, 8), planner=DispatchPlanner(lookahead=3, policy=policy)
        )
        recorder = TraceRecorder()
        walkers.set_recorder(recorder, tenant="t0")
        run = walkers.run(160, monitor=GelmanRubinDiagnostic(threshold=1.3))
        assert len(run.samples) == 160
        assert walkers.roster[7] == "retired"
        assert all(event.attrs["tenant"] == "t0" for event in recorder.events)
        digest = _pin_digest(
            [(s.node, s.weight, s.query_cost, s.step) for s in run.samples],
            walkers.roster,
            run.chain_steps,
            run.sim_elapsed,
            list(api.log.state_dict()["records"]),
            [(e.name, e.ts, e.dur, e.attrs) for e in recorder.events],
        )
        assert digest == self.ADAPTIVE_FLEET_DIGEST

    @staticmethod
    def _planned_fleet_stack(network, recorder=None):
        """The benchmark's planned-fleet shape at a small scale.

        A lookahead-4 planner over a heavy-tailed 4-shard SRW fleet with
        skewed shard weights: most prefetch attempts find no open burst
        on their target's shard, and about half the ticks only sample.
        """
        config = StackConfig(
            fleet=FleetSpec(
                num_shards=4,
                seed=2,
                weights=(8.0, 1.0, 1.0, 1.0),
                provider=ProviderSpec(
                    latency_distribution="heavy_tailed", latency_scale=0.5, latency_alpha=2.5
                ),
                batch_cap=16,
                admission_interval=2.0,
            ),
            walk=WalkSpec(engine="srw", chains=8, seed=5),
            planner=PlannerSpec(lookahead=4),
        )
        return build_stack(config, network, recorder=recorder)

    @staticmethod
    def _planned_books(stack):
        """The prediction books, prefetch ledger, shard books and burst state."""
        walkers = stack.walkers
        state = walkers.state_dict()
        return (
            stack.planner.summary()["prediction"],
            stack.planner.ledger.summary(),
            [stats.state_dict() for stats in stack.fleet.stats],
            state["next_free"],
            state["open_bursts"],
            walkers.events_processed,
        )

    def test_planned_fleet_books(self, network):
        stack = self._planned_fleet_stack(network)
        run = stack.run(400)
        assert len(run.samples) == 400
        prediction, ledger, shards, next_free, open_bursts, events = self._planned_books(stack)
        assert prediction == {"SimpleRandomWalk": {"hits": 356, "misses": 134}}
        assert ledger == {"issued": 127, "used": 127, "wasted": 0, "outstanding": 0}
        assert [s["bursts"] for s in shards] == [11, 8, 7, 6]
        assert [s["prefetched"] for s in shards] == [106, 11, 5, 5]
        assert [s["queries"] for s in shards] == [134, 21, 13, 14]
        assert [s["max_in_flight"] for s in shards] == [16, 6, 4, 5]
        assert next_free == (22.0, 18.94574221901609, 22.744536437465523, 17.648268217196897)
        assert open_bursts == (
            (20.0, 0.7618547305199074, 2.0),
            (16.94574221901609, 0.5558086609574642, 1.0),
            (20.744536437465523, 0.7547996349096128, 1.0),
            (15.648268217196897, 0.9437557401528383, 3.0),
        )
        assert events == 792
        digest = _pin_digest(
            [(s.node, s.weight, s.query_cost, s.step) for s in run.samples],
            list(stack.api.log.state_dict()["records"]),
            stack.api.clock.now(),
            run.sim_elapsed,
            shards,
        )
        assert digest == self.PLANNED_FLEET_DIGEST

    def test_planned_fleet_books_recorder_neutral(self, network):
        # The same run with and without a recorder, tick by tick: every
        # book the untraced tick may skip must match after each tick.
        plain = self._planned_fleet_stack(network)
        traced = self._planned_fleet_stack(network, recorder=TraceRecorder())
        for stack in (plain, traced):
            stack.walkers.begin_collect(240)
        done = False
        while not done:
            done = plain.walkers.collect_tick(240)
            assert traced.walkers.collect_tick(240) == done
            assert self._planned_books(plain) == self._planned_books(traced)
        assert plain.walkers.result().samples == traced.walkers.result().samples
