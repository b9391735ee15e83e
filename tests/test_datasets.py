"""Unit tests for dataset stand-ins and the registry."""

import random

import pytest

from repro.datasets import (
    DATASET_NAMES,
    SocialNetwork,
    load,
    table1_rows,
)
from repro.datasets.registry import PAPER_TABLE1, load_snap_file
from repro.errors import ExperimentError
from repro.graph import is_connected
from repro.graph.metrics import average_degree


class TestRegistry:
    def test_all_names_load(self):
        for name in DATASET_NAMES:
            net = load(name, seed=0, scale=0.2)
            assert isinstance(net, SocialNetwork)
            assert net.name == name
            assert net.graph.num_nodes > 50

    def test_unknown_name(self):
        with pytest.raises(ExperimentError):
            load("facebook")

    def test_deterministic_given_seed(self):
        a = load("epinions_like", seed=5, scale=0.2)
        b = load("epinions_like", seed=5, scale=0.2)
        assert a.graph == b.graph

    def test_paper_table_constant(self):
        assert PAPER_TABLE1["epinions_like"]["nodes"] == 26588


class TestStandinTopology:
    @pytest.fixture(scope="class")
    def net(self):
        return load("epinions_like", seed=0, scale=0.3)

    def test_connected(self, net):
        assert is_connected(net.graph)

    def test_heavy_tailed_degrees(self, net):
        degrees = sorted((net.graph.degree(v) for v in net.graph.nodes()), reverse=True)
        avg = average_degree(net.graph)
        assert degrees[0] > 3 * avg  # hubs

    def test_reasonable_density(self, net):
        avg = average_degree(net.graph)
        assert 2.0 < avg < 40.0

    def test_profiles_cover_all_nodes(self, net):
        for node in net.graph.nodes():
            assert node in net.profiles

    def test_seed_node_member(self, net):
        assert net.seed_node(seed=1) in net.graph

    def test_seed_node_memo_matches_sort_per_call(self, net):
        nodes = sorted(net.graph.nodes())
        for seed in range(51):
            assert net.seed_node(seed) == random.Random(seed).choice(nodes)

    def test_seed_node_memo_follows_graph_changes(self):
        net = load("epinions_like", seed=1, scale=0.2)
        net.seed_node(0)
        net.graph.add_node(-1)  # sorts first: shifts every draw's index
        nodes = sorted(net.graph.nodes())
        assert [net.seed_node(s) for s in range(10)] == [
            random.Random(s).choice(nodes) for s in range(10)
        ]
        net.graph = net.graph.subgraph(nodes[:50])
        assert net.seed_node(3) == random.Random(3).choice(nodes[:50])


class TestGooglePlusAttributes:
    def test_self_description_present(self):
        net = load("google_plus_like", seed=0, scale=0.15)
        docs = [net.profiles.get(n) for n in list(net.graph.nodes())[:50]]
        assert all("self_description" in d for d in docs)
        assert any(len(d["self_description"]) > 0 for d in docs)

    def test_interface_serves_attributes(self):
        net = load("google_plus_like", seed=0, scale=0.15)
        api = net.interface()
        node = net.seed_node()
        resp = api.query(node)
        assert "self_description" in resp.attributes


class TestTable1:
    def test_rows_for_every_dataset(self):
        rows = table1_rows(seed=0, scale=0.15)
        assert [r.name for r in rows] == list(DATASET_NAMES)
        for row in rows:
            assert row.num_nodes > 0
            assert row.num_edges > 0
            assert row.effective_diameter_90 > 1.0


class TestSnapLoader:
    def test_mutual_conversion_and_lcc(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text(
            "# FromNodeId ToNodeId\n"
            "1 2\n2 1\n"
            "2 3\n3 2\n"
            "3 1\n"  # one-way: dropped
            "7 8\n8 7\n"  # separate component: dropped by LCC
        )
        net = load_snap_file(path, name="tiny")
        assert net.name == "tiny"
        assert set(net.graph.nodes()) == {1, 2, 3}
        assert net.graph.num_edges == 2


class TestInterfaceProviderOptions:
    def test_latency_options_conflict_with_custom_provider(self):
        import pytest

        from repro.datasets import load
        from repro.interface import InMemoryGraphProvider

        net = load("epinions_like", seed=0, scale=0.1)
        provider = InMemoryGraphProvider(net.graph)
        # A custom provider carries its own configuration: any latency_*
        # option alongside it is a silent-misconfiguration hazard.
        with pytest.raises(ValueError):
            net.interface(provider=provider, latency_distribution="constant")
        with pytest.raises(ValueError):
            net.interface(provider=provider, latency_seed=5)
        with pytest.raises(ValueError):
            net.interface(provider=provider, latency_scale=2.0)
        api = net.interface(provider=provider)
        assert api.provider is provider
