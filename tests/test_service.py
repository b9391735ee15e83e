"""The multi-tenant sampling service: isolation, sharing, hibernation.

ISSUE 6 tentpole coverage (in-process half; the fresh-process half lives
in ``tests/test_service_resume.py``):

* a single-tenant service with default admission reproduces the direct
  ``build_stack(...).run(...)`` result bit-for-bit;
* the shared neighborhood cache makes one tenant's paid fetches free for
  every other tenant, §II-B-billed to nobody;
* per-tenant books: each tenant's spend lands in its own query log and
  is attributed to it in the shard telemetry;
* one tenant's exhausted budget freezes that tenant, not the service;
* hibernate → wake rebuilds the session bit-for-bit;
* each spill splices in the last spill's encoded append-only runs, is
  still exactly the payload's full encoding, and encodes a run whole
  once its live list has been replaced.
"""

import json

import pytest

from repro.compose import FleetSpec, ProviderSpec, StackConfig, WalkSpec, build_stack
from repro.datasets import load
from repro.datastore import KeyValueStore
from repro.datastore.snapshot import KeyValueBackend, decode_value, encode_value
from repro.errors import ServiceError
from repro.service import (
    STATE_ACTIVE,
    STATE_EXHAUSTED,
    STATE_HIBERNATED,
    STATE_IDLE,
    SamplingService,
)

FLEET = FleetSpec(
    num_shards=2,
    seed=3,
    provider=ProviderSpec(latency_distribution="constant", latency_scale=0.5),
)


@pytest.fixture(scope="module")
def network():
    return load("epinions_like", seed=0, scale=0.2)


def _config(seed, chains=2, engine="srw"):
    return StackConfig(fleet=FLEET, walk=WalkSpec(engine=engine, chains=chains, seed=seed))


class TestSingleTenantEquivalence:
    def test_matches_direct_stack_run(self, network):
        config = _config(seed=11, chains=3)
        direct = build_stack(config, network).run(num_samples=90)

        service = SamplingService(network, fleet=FLEET)
        service.register("solo", config)
        service.request("solo", 90)
        service.run_pending()
        run = service.tenant("solo").stack.walkers.result()

        assert run.samples == direct.samples
        assert run.queries == direct.queries
        assert run.sim_elapsed == direct.sim_elapsed
        assert service.clock == direct.sim_elapsed

    def test_split_requests_walk_the_same_trajectory(self, network):
        config = _config(seed=4)
        direct = build_stack(config, network).run(num_samples=60)

        service = SamplingService(network, fleet=FLEET)
        service.register("solo", config)
        for chunk in (20, 20, 20):
            service.request("solo", chunk)
            service.run_pending()
        run = service.tenant("solo").stack.walkers.result()
        # chains park at each interim target instead of running ahead, so
        # the cross-chain collection interleaving may differ — each
        # chain's own trajectory and the final bill may not
        assert len(run.samples) == len(direct.samples) == 60
        for ours, theirs in zip(run.per_chain, direct.per_chain):
            assert [s.node for s in ours.samples] == [s.node for s in theirs.samples]
        assert run.queries == direct.queries


class TestSharedCache:
    def test_second_tenant_rides_free(self, network):
        service = SamplingService(network, fleet=FLEET)
        service.register("payer", _config(seed=2))
        paid = service.tenant("payer").query_cost
        assert paid > 0  # bootstrap fetches are real spend

        # same walk spec => same start nodes, already cached by "payer"
        service.register("rider", _config(seed=2))
        rider = service.tenant("rider")
        assert rider.query_cost == 0
        assert rider.cache_hits >= 1

    def test_cross_tenant_hits_are_billed_to_nobody(self, network):
        service = SamplingService(network, fleet=FLEET)
        service.register("a", _config(seed=5))
        service.request("a", 30)
        service.run_pending()
        total_before = service.tenant("a").query_cost

        service.register("b", _config(seed=5))
        service.request("b", 30)
        service.run_pending()
        a, b = service.tenant("a"), service.tenant("b")
        # b re-walks a's trajectory through the shared cache: its own
        # spend only covers neighborhoods a never touched, and a's bill
        # did not move.
        assert a.query_cost == total_before
        assert b.query_cost < a.query_cost
        assert b.cache_hits > 0


class TestPerTenantBooks:
    def test_shard_telemetry_attributes_tenants(self, network):
        service = SamplingService(network, fleet=FLEET)
        service.register("t0", _config(seed=1))
        service.register("t1", _config(seed=8))
        service.request("t0", 20)
        service.request("t1", 20)
        service.run_pending()
        booked = set()
        for shard in service.fleet.stats:
            booked.update(shard.tenants)
        assert booked == {"t0", "t1"}

    def test_summaries_expose_per_tenant_spend(self, network):
        service = SamplingService(network, fleet=FLEET)
        service.register("t0", _config(seed=1))
        service.request("t0", 20)
        service.run_pending()
        summary = service.tenant_summary("t0")
        assert summary["samples"] == 20
        assert summary["query_cost"] == service.tenant("t0").stack.api.query_cost
        assert summary["state"] == STATE_IDLE


class TestBudgetIsolation:
    def test_one_exhausted_tenant_does_not_stall_the_rest(self, network):
        service = SamplingService(network, fleet=FLEET)
        tiny = StackConfig(fleet=FLEET, walk=WalkSpec(chains=2, seed=3), query_budget=4)
        service.register("broke", tiny)
        service.register("solvent", _config(seed=6))
        service.request("broke", 200)
        service.request("solvent", 30)
        service.run_pending()

        broke, solvent = service.tenant("broke"), service.tenant("solvent")
        assert broke.state == STATE_EXHAUSTED
        assert broke.query_cost <= 4
        assert solvent.state == STATE_IDLE
        assert solvent.samples == 30
        with pytest.raises(ServiceError):
            service.request("broke", 1)

    def _exhausted(self, network):
        service = SamplingService(network, fleet=FLEET)
        service.register("broke", StackConfig(fleet=FLEET, walk=WalkSpec(chains=2, seed=3), query_budget=5))
        service.register("solvent", _config(seed=6))
        service.request("broke", 200)
        service.run_pending()
        assert service.tenant("broke").state == STATE_EXHAUSTED
        return service

    def _assert_stays_exhausted(self, service, summary):
        with pytest.raises(ServiceError):
            service.request("broke", 1)
        service.request("solvent", 10)
        report = service.run_pending()
        assert report["served"] == {"broke": 0, "solvent": 10}
        broke = service.tenant("broke")
        assert broke.state == STATE_EXHAUSTED and broke.stack is None
        assert service.tenant_summary("broke") == summary

    def test_an_exhausted_tenant_stays_exhausted_across_hibernate(self, network):
        service = self._exhausted(network)
        summary = service.tenant_summary("broke")
        service.hibernate("broke")
        service.hibernate("broke")  # already spilled: a no-op
        assert service.tenant("broke").stack is None
        self._assert_stays_exhausted(service, summary)

    def test_an_exhausted_tenant_stays_exhausted_across_save_and_resume(self, network):
        service = self._exhausted(network)
        summary = service.tenant_summary("broke")
        service.hibernate("broke")
        backend = KeyValueBackend()
        service.save(backend)
        resumed = SamplingService.resume(backend, network)
        self._assert_stays_exhausted(resumed, summary)
        # The spill went back to the spill store, unbuilt and unchanged.
        assert resumed._spill.get(("tenant", "broke")) == service._spill.get(("tenant", "broke"))


class TestLifecycleErrors:
    def test_duplicate_registration_rejected(self, network):
        service = SamplingService(network, fleet=FLEET)
        service.register("t", _config(seed=1))
        with pytest.raises(ServiceError):
            service.register("t", _config(seed=2))

    def test_unknown_tenant_rejected(self, network):
        service = SamplingService(network, fleet=FLEET)
        with pytest.raises(ServiceError):
            service.request("ghost", 10)

    def test_non_positive_request_rejected(self, network):
        service = SamplingService(network, fleet=FLEET)
        service.register("t", _config(seed=1))
        with pytest.raises(ServiceError):
            service.request("t", 0)

    def test_bad_quantum_rejected(self, network):
        with pytest.raises(ServiceError):
            SamplingService(network, quantum=0.0)


class TestHibernation:
    def test_wake_is_bit_for_bit(self, network):
        def run(hibernate):
            service = SamplingService(network, fleet=FLEET)
            service.register("t", _config(seed=7))
            service.request("t", 40)
            service.run_pending()
            if hibernate:
                service.hibernate("t")
                assert service.tenant("t").state == STATE_HIBERNATED
                assert service.tenant("t").stack is None
            service.request("t", 40)
            service.run_pending()
            return service.tenant("t").stack.walkers.result()

        spilled, straight = run(True), run(False)
        assert spilled.samples == straight.samples
        assert spilled.queries == straight.queries
        assert spilled.sim_elapsed == straight.sim_elapsed

    @pytest.mark.parametrize("engine", ["srw", "mhrw", "nbrw"])
    def test_spill_contract(self, network, engine):
        """A spill is ``decode_value``-readable with the tenant's books, and
        every chain's RNG entry is the packed ``(version, bytes, gauss)``."""
        fleet = FleetSpec(
            num_shards=2,
            seed=3,
            provider=ProviderSpec(latency_distribution="constant", latency_scale=0.5, failure_rate=0.2),
        )

        def run(hibernate):
            spill = KeyValueStore()
            service = SamplingService(network, fleet=fleet, spill_store=spill)
            service.register("t", _config(seed=7, chains=3, engine=engine))
            service.request("t", 40)
            service.run_pending()
            stack = service.tenant("t").stack
            books = {
                "records": stack.api.log.state_dict()["records"],
                "cache_hits": stack.api.cache_hits,
                "cache_misses": stack.api.cache_misses,
                "merged": list(stack.walkers.result().samples),
                "events": stack.walkers.events_processed,
            }
            payload = None
            if hibernate:
                service.hibernate("t")
                payload = decode_value(spill.get(("tenant", "t")))
            service.request("t", 40)
            service.run_pending()
            return books, payload, service.tenant("t").stack

        books, payload, woken = run(True)
        api, walkers = payload["api"], payload["walkers"]
        assert api["log"]["records"] == books["records"]
        assert (api["cache_hits"], api["cache_misses"]) == (books["cache_hits"], books["cache_misses"])
        assert list(walkers["merged"]) == books["merged"]
        assert walkers["events"] == books["events"] > 0
        assert len(walkers["chains"]) == 3
        for chain in walkers["chains"]:
            version, words, _ = chain["rng"]
            assert (version, type(words), len(words)) == (3, bytes, 2500)
        _, _, straight = run(False)
        assert woken.walkers.result().samples == straight.walkers.result().samples
        assert woken.walkers.result().queries == straight.walkers.result().queries
        assert woken.walkers.result().sim_elapsed == straight.walkers.result().sim_elapsed
        billed = [[r for r in stack.api.log.state_dict()["records"] if r[1]] for stack in (woken, straight)]
        assert billed[0] == billed[1]

    @pytest.mark.parametrize("engine", ["srw", "mhrw", "nbrw"])
    def test_wake_bills_no_bootstrap_queries(self, network, engine):
        service = SamplingService(network, fleet=FLEET)
        service.register("t", _config(seed=7, engine=engine))
        service.request("t", 40)
        service.run_pending()
        books = service.tenant("t").stack.api.log.state_dict()
        cost = service.tenant("t").query_cost
        service.hibernate("t")
        assert service.tenant("t").query_cost == cost  # frozen books
        service.request("t", 1)
        # waking restored the stack without re-querying any chain's start
        # node: no new spend and not even a free re-read in the log
        assert service.tenant("t").query_cost == cost
        assert service.tenant("t").stack.api.log.state_dict() == books

    def test_wake_leaves_shared_layers_untouched(self, network):
        fleet = FleetSpec(
            num_shards=3,
            seed=5,
            provider=ProviderSpec(latency_distribution="uniform", latency_scale=0.5, failure_rate=0.2),
        )
        service = SamplingService(network, fleet=fleet, cache_ttl=100.0)
        for i, engine in enumerate(("srw", "mhrw", "nbrw")):
            service.register(
                f"t{i}",
                StackConfig(walk=WalkSpec(engine=engine, chains=3, seed=20 + i)),
            )
            service.request(f"t{i}", 30)
        service.run_pending()
        for i in range(3):
            service.hibernate(f"t{i}")
        shared = (service.fleet.state_dict(), service.cache.state_dict())
        for i in range(3):
            service.request(f"t{i}", 10)  # wakes before anything runs
            assert service.tenant(f"t{i}").state == STATE_ACTIVE
        fleet_state, cache_state = service.fleet.state_dict(), service.cache.state_dict()
        # per-shard books and the flaky layers' RNG positions
        assert fleet_state == shared[0]
        # store entries in LRU order, then the hit/miss counters
        assert cache_state["store"]["entries"] == shared[1]["store"]["entries"]
        assert cache_state["store"]["hits"] == shared[1]["store"]["hits"]
        assert cache_state["store"]["misses"] == shared[1]["store"]["misses"]
        service.run_pending()
        assert all(service.tenant(f"t{i}").samples == 40 for i in range(3))

    def test_idle_tenants_auto_hibernate(self, network):
        service = SamplingService(network, fleet=FLEET, idle_hibernate_after=2)
        service.register("quick", _config(seed=1))
        service.register("slow", _config(seed=8, chains=4))
        service.request("quick", 10)
        service.request("slow", 200)
        service.run_pending()
        # "quick" finished many admission rounds before "slow" and sat
        # idle past the threshold; "slow" idled only in the final sweep
        assert service.tenant("quick").state == STATE_HIBERNATED
        assert service.tenant("slow").state == STATE_IDLE

    def test_hibernated_is_idempotent_and_accounted(self, network):
        service = SamplingService(network, fleet=FLEET)
        service.register("t", _config(seed=7))
        service.request("t", 20)
        service.run_pending()
        before = service.tenant_summary("t")
        service.hibernate("t")
        service.hibernate("t")  # no-op
        after = service.tenant_summary("t")
        assert after["samples"] == before["samples"]
        assert after["query_cost"] == before["query_cost"]
        assert after["state"] == STATE_HIBERNATED

    def test_request_wakes_and_continues(self, network):
        service = SamplingService(network, fleet=FLEET)
        service.register("t", _config(seed=7))
        service.request("t", 20)
        service.run_pending()
        service.hibernate("t")
        session = service.request("t", 5)
        assert session.state == STATE_ACTIVE
        service.run_pending()
        assert service.tenant("t").samples == 25


def _full_spill(service, tid):
    """The encoding a spill of ``tid``'s live stack must equal, member for member."""
    stack = service.tenant(tid).stack
    return encode_value(
        {"api": stack.api.state_dict(include_shared=False), "walkers": stack.walkers.state_dict()}
    )


def _hibernate_checked(service, spill, tid):
    """Hibernate ``tid``, assert its spill is the full encoding, return the spliced runs.

    A spliced run's members start with the very objects of the last
    spill's; a run encoded whole is built afresh.
    """
    memo = service._spill_memo.get(tid)
    last = {} if memo is None else memo.items
    full = _full_spill(service, tid)
    service.hibernate(tid)
    assert spill.get(("tenant", tid)) == full
    items = service._spill_memo[tid].items
    return {path for path, members in last.items() if members and items[path][0] is members[0]}


_LOG = ("api", "log", "records")
_WALKER_RUNS = {("walkers", "merged"), ("walkers", "merged_chain")} | {
    ("walkers", "chains", i, "trace") for i in range(3)
}


class TestSpillSplice:
    """A spill encodes only what the tenant's append-only runs appended
    since the last one, and still equals ``encode_value`` of the payload."""

    def test_churn_spills_equal_their_full_encoding(self, network):
        fleet = FleetSpec(
            num_shards=3,
            seed=5,
            provider=ProviderSpec(latency_distribution="uniform", latency_scale=0.5, failure_rate=0.2),
        )
        spill = KeyValueStore()
        service = SamplingService(network, fleet=fleet, quantum=0.2, cache_ttl=100.0, spill_store=spill)
        for i, engine in enumerate(("srw", "mhrw", "nbrw", "srw", "mhrw", "nbrw")):
            service.register(f"t{i}", StackConfig(walk=WalkSpec(engine=engine, chains=3, seed=40 + i)))
        service.register("tight", StackConfig(walk=WalkSpec(engine="srw", chains=3, seed=9), query_budget=12))
        spliced, exhausted = set(), set()
        for _ in range(4):
            for tid in service.tenant_ids:
                if tid not in exhausted:
                    service.request(tid, 15)
            service.run_pending(max_rounds=1)
            assert service.tenant("t1").state == STATE_ACTIVE
            spliced |= _hibernate_checked(service, spill, "t1")  # mid-request
            service.request("t1", 1)
            service.run_pending()
            for tid in service.tenant_ids:
                if service.tenant(tid).state == STATE_EXHAUSTED:
                    exhausted.add(tid)
                if tid in exhausted and service.tenant(tid).stack is None:
                    continue
                spliced |= _hibernate_checked(service, spill, tid)
        assert exhausted == {"tight"}
        assert spliced == {_LOG} | _WALKER_RUNS
        for tid in service.tenant_ids:
            if tid not in exhausted:
                service.request(tid, 1)
        service.run_pending()
        for tid in set(service.tenant_ids) - exhausted:
            assert service.tenant(tid).samples == service.tenant(tid).requested

    @pytest.mark.parametrize("replace", ["reset_accounting", "load_state", "external_spill"])
    def test_a_replaced_run_is_encoded_whole(self, network, replace):
        spill = KeyValueStore()
        service = SamplingService(network, fleet=FLEET, spill_store=spill)
        service.register("t", _config(seed=7, chains=3, engine="nbrw"))
        service.request("t", 30)
        service.run_pending()
        _hibernate_checked(service, spill, "t")
        if replace == "external_spill":
            # An equal spill the service did not write: its memo no longer applies.
            spill.set(("tenant", "t"), json.loads(json.dumps(spill.get(("tenant", "t")))))
        service.request("t", 30)
        stack = service.tenant("t").stack
        refused = {_LOG} | _WALKER_RUNS
        if replace == "reset_accounting":
            stack.api.reset_accounting()
            refused = {_LOG}
        elif replace == "load_state":
            # As long as before, other contents: only identity tells them apart.
            state = stack.walkers.state_dict()
            state["merged"] = state["merged"][::-1]
            stack.walkers.load_state(state)
            refused = _WALKER_RUNS
        service.run_pending()
        assert _hibernate_checked(service, spill, "t") == ({_LOG} | _WALKER_RUNS) - refused
