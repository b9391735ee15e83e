"""Cross-run history artifacts: record, round-trip, warm-start (ISSUE 8).

The acceptance bar: a run warm-started from a ``HistoryStore`` artifact
spends *strictly fewer* §II-B queries than the same run cold while
producing the bit-for-bit identical node sequence — including through a
brand-new Python process reading the artifact off disk — and every hit
served from preloaded knowledge is attributed to the ``warm_hits``
counter rather than billed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.compose import FleetSpec, PlannerSpec, StackConfig, WalkSpec, build_fleet
from repro.datasets import load
from repro.datastore.history import (
    HISTORY_VERSION,
    SECTION_META,
    SECTION_NEIGHBORHOODS,
    SECTION_STATS,
    HistoryStore,
)
from repro.datastore.snapshot import JsonLinesBackend, KeyValueBackend
from repro.errors import ServiceError, SnapshotError
from repro.interface import SamplingSession
from repro.interface.api import RestrictedSocialAPI
from repro.planning import DispatchPlanner
from repro.service import SamplingService
from repro.walks.mhrw import MetropolisHastingsWalk
from repro.walks.scheduler import EventDrivenWalkers
from repro.walks.srw import SimpleRandomWalk

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="module")
def network():
    return load("epinions_like", seed=0, scale=0.2)


def _recorded_store(network, backend=None, steps=400):
    """Walk a recorder run and persist its knowledge; returns the store."""
    api = network.interface()
    walk = SimpleRandomWalk(api, start=network.seed_node(0), seed=5)
    for _ in range(steps):
        walk.step()
    store = HistoryStore(backend if backend is not None else KeyValueBackend())
    store.save(api)
    return store, api


class TestArtifactRoundTrip:
    def test_record_round_trips_through_backend(self, network):
        store, api = _recorded_store(network)
        record = store.load()
        assert record.meta["version"] == HISTORY_VERSION
        assert record.meta["query_cost"] == api.query_cost
        assert record.known_count == api.cache.known_count()
        assert record.billed_users == api.log.queried_users()
        assert record.private == frozenset()
        for user, (seq, attrs) in record.neighborhoods.items():
            assert seq == api.cache.neighbor_seq(user)

    def test_empty_backend_loads_none_and_warms_nothing(self, network):
        store = HistoryStore(KeyValueBackend())
        assert store.load() is None
        api = network.interface()
        assert store.warm(api) == 0
        assert api.warm_user_count == 0

    def test_unsupported_version_raises(self, network):
        store, _ = _recorded_store(network, steps=50)
        sections = store.backend.read()
        sections[SECTION_META]["version"] = HISTORY_VERSION + 1
        store.backend.write(sections)
        with pytest.raises(SnapshotError):
            store.load()

    def test_missing_sections_raise(self, network):
        store, _ = _recorded_store(network, steps=50)
        sections = store.backend.read()
        del sections[SECTION_NEIGHBORHOODS]
        store.backend.write(sections)
        with pytest.raises(SnapshotError):
            store.load()

    def test_older_artifact_with_index_stats_loads(self, network):
        """The planner statistics older builds stored under ``index`` are ignored."""
        store, api = _recorded_store(network, steps=50)
        sections = store.backend.read()
        sections[SECTION_STATS]["index"] = {"visits": {network.seed_node(0): 3}, "known_steps": 1}
        store.backend.write(sections)
        record = store.load()
        assert record.billed_users == api.log.queried_users()
        assert record.known_count == api.cache.known_count()
        warm_api = network.interface()
        assert store.warm(warm_api) == record.known_count


class TestWarmAccounting:
    def test_warm_entries_are_never_billed(self, network):
        store, recorder_api = _recorded_store(network)
        api = network.interface()
        warmed = store.warm(api)
        assert warmed == recorder_api.cache.known_count()
        assert api.warm_user_count == warmed
        assert api.query_cost == 0  # preloading billed nothing
        assert api.total_queries == 0  # ...and logged nothing
        assert api.latency_spent == 0.0  # ...and moved no clock

    def test_warm_hits_attributed_not_billed(self, network):
        store, _ = _recorded_store(network)
        cold_api = network.interface()
        cold = MetropolisHastingsWalk(cold_api, start=network.seed_node(3), seed=77)
        cold_nodes = [cold.step() for _ in range(300)]

        warm_api = network.interface()
        store.warm(warm_api)
        warm = MetropolisHastingsWalk(warm_api, start=network.seed_node(3), seed=77)
        warm_nodes = [warm.step() for _ in range(300)]

        # knowledge, not behaviour: identical walk at strictly lower cost
        assert warm_nodes == cold_nodes
        assert warm_api.query_cost < cold_api.query_cost
        assert warm_api.warm_hits > 0

    def test_warm_fields_survive_state_round_trip(self, network):
        store, _ = _recorded_store(network, steps=100)
        api = network.interface()
        store.warm(api)
        walk = SimpleRandomWalk(api, start=network.seed_node(1), seed=9)
        for _ in range(50):
            walk.step()
        restored = network.interface()
        restored.load_state(api.state_dict())
        assert restored.warm_user_count == api.warm_user_count
        assert restored.warm_hits == api.warm_hits


class TestPlannerBooks:
    def _planned(self, network):
        fleet = build_fleet(FleetSpec(num_shards=2, seed=0), network.graph,
                            profiles=network.profiles)
        api = RestrictedSocialAPI(fleet)
        chains = [
            SimpleRandomWalk(api, start=network.seed_node(i), seed=i)
            for i in range(2)
        ]
        planner = DispatchPlanner(lookahead=2)
        EventDrivenWalkers(chains, planner=planner).run(num_samples=40)
        return planner

    def _twin(self, network):
        twin_api = RestrictedSocialAPI(
            build_fleet(FleetSpec(num_shards=2, seed=0), network.graph,
                        profiles=network.profiles)
        )
        twin = DispatchPlanner(lookahead=2)
        twin.bind(twin_api, twin_api.provider)
        return twin

    def test_prediction_books_round_trip(self, network):
        planner = self._planned(network)
        books = planner.summary()["prediction"]
        assert books["SimpleRandomWalk"]["hits"] + books["SimpleRandomWalk"]["misses"] > 0
        twin = self._twin(network)
        twin.load_state(planner.state_dict())
        assert twin.summary()["prediction"] == books

    def test_older_state_with_warm_prior_loads(self, network):
        """The warm-start visit prior and per-engine frontier count older builds stored are ignored."""
        planner = self._planned(network)
        older = planner.state_dict()
        older["warm_visits"] = {network.seed_node(0): 7}
        older["prediction"] = {
            engine: dict(row, speculative=3) for engine, row in older["prediction"].items()
        }
        twin = self._twin(network)
        twin.load_state(older)
        assert twin.state_dict() == planner.state_dict()
        assert twin.summary() == planner.summary()


class TestSessionWarmStart:
    def test_session_history_kwarg_warms_and_saves_back(self, network, tmp_path):
        backend = JsonLinesBackend(tmp_path / "crawl.history.jsonl")
        store, _ = _recorded_store(network, backend=backend)

        cold_api = network.interface()
        cold = MetropolisHastingsWalk(cold_api, start=network.seed_node(3), seed=77)
        cold_nodes = [cold.step() for _ in range(200)]

        warm_api = network.interface()
        warm = MetropolisHastingsWalk(warm_api, start=network.seed_node(3), seed=77)
        session = SamplingSession(warm_api, warm, KeyValueBackend(), history=store)
        assert session.warmed_users > 0
        warm_nodes = [warm.step() for _ in range(200)]
        assert warm_nodes == cold_nodes
        assert warm_api.query_cost < cold_api.query_cost
        summary = session.summary()
        assert summary["warm_users"] == session.warmed_users
        assert summary["warm_hits"] == warm_api.warm_hits > 0

        # this run's knowledge (a superset) writes back through the store
        sections = session.save_history()
        assert sections[SECTION_META]["users"] >= session.warmed_users

    def test_save_history_without_store_raises(self, network):
        api = network.interface()
        walk = SimpleRandomWalk(api, start=network.seed_node(0), seed=1)
        session = SamplingSession(api, walk, KeyValueBackend())
        with pytest.raises(SnapshotError):
            session.save_history()


class TestServiceWarmStart:
    CONFIG = dict(chains=2, seed=11)

    def _service(self, network, history=None):
        fleet = FleetSpec(num_shards=2, seed=3)
        service = SamplingService(network, fleet=fleet, history=history)
        service.register(
            "t",
            StackConfig(
                fleet=fleet,
                walk=WalkSpec(engine="mhrw", **self.CONFIG),
                planner=PlannerSpec(lookahead=2),
            ),
        )
        service.request("t", 60)
        service.run_pending()
        return service

    def test_service_history_warms_shared_cache(self, network, tmp_path):
        backend = JsonLinesBackend(tmp_path / "service.history.jsonl")
        store, _ = _recorded_store(network, backend=backend)

        cold = self._service(network)
        warm = self._service(network, history=store)
        assert warm.warm_user_count > 0

        cold_run = cold.tenant("t").stack.walkers.result()
        warm_run = warm.tenant("t").stack.walkers.result()
        assert [s.node for s in warm_run.samples] == [s.node for s in cold_run.samples]
        assert warm_run.queries < cold_run.queries
        assert warm.tenant("t").warm_hits > 0
        assert warm.tenant_summary("t")["warm_hits"] > 0

    def test_service_saves_history_back(self, network, tmp_path):
        store = HistoryStore(JsonLinesBackend(tmp_path / "out.history.jsonl"))
        service = self._service(network, history=store)
        sections = service.save_history()
        assert sections[SECTION_META]["users"] > 0
        # a fresh service warm-starts from what this one saved
        twin = self._service(network, history=store)
        assert twin.warm_user_count == sections[SECTION_META]["users"]

    def test_save_history_without_store_raises(self, network):
        service = self._service(network)
        with pytest.raises(ServiceError):
            service.save_history()


_CHILD_SCRIPT = """\
import json, sys
from repro.datasets import load
from repro.datastore.history import HistoryStore
from repro.datastore.snapshot import JsonLinesBackend
from repro.walks.mhrw import MetropolisHastingsWalk

artifact, steps = sys.argv[1], int(sys.argv[2])
network = load("epinions_like", seed=0, scale=0.2)
api = network.interface()
warmed = HistoryStore(JsonLinesBackend(artifact)).warm(api)
walk = MetropolisHastingsWalk(api, start=network.seed_node(3), seed=77)
nodes = [walk.step() for _ in range(steps)]
print(json.dumps({
    "nodes": nodes,
    "query_cost": api.query_cost,
    "warmed": warmed,
    "warm_hits": api.warm_hits,
}))
"""


class TestWarmStartInFreshProcess:
    """The acceptance criterion, literally: warm-start a *new process*."""

    STEPS = 300

    def test_subprocess_warm_run_saves_queries_bit_for_bit(self, network, tmp_path):
        artifact = tmp_path / "crawl.history.jsonl"
        _recorded_store(network, backend=JsonLinesBackend(artifact))

        cold_api = network.interface()
        cold = MetropolisHastingsWalk(cold_api, start=network.seed_node(3), seed=77)
        cold_nodes = [cold.step() for _ in range(self.STEPS)]

        script = tmp_path / "warm_child.py"
        script.write_text(_CHILD_SCRIPT)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(script), str(artifact), str(self.STEPS)],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        child = json.loads(proc.stdout)

        assert child["nodes"] == cold_nodes
        assert child["query_cost"] < cold_api.query_cost
        assert child["warmed"] > 0
        assert child["warm_hits"] > 0
