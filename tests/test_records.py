"""The hot-path records keep their frozen-dataclass behavior.

``WalkSample``, ``ProviderFetch``, ``FetchDispatch`` and ``QueryResponse``
fill their instance dict in a hand-written ``__init__``; everything a
frozen dataclass offers (fields, ``replace``, ``asdict``, pickling,
equality, hashing, repr, refusing assignment) must behave as the
generated one did.
"""

import dataclasses
import pickle

import pytest

from repro.fleet.provider import FetchDispatch
from repro.generators import star_graph
from repro.interface.api import QueryResponse
from repro.interface.providers import FlakyProvider, LatencyModelProvider, ProviderFetch
from repro.walks.base import WalkSample

#: (record, its fields in order, its repr) — the reprs the generated code printed.
RECORDS = [
    (
        WalkSample(("u", 5), 0.25, 3, 9),
        {"node": ("u", 5), "weight": 0.25, "query_cost": 3, "step": 9},
        "WalkSample(node=('u', 5), weight=0.25, query_cost=3, step=9)",
    ),
    (
        ProviderFetch(1, (2, 3), {"a": 1}),
        {
            "user": 1,
            "neighbor_seq": (2, 3),
            "attributes": {"a": 1},
            "latency": 0.0,
            "attempts": 1,
            "wasted_latency": 0.0,
        },
        "ProviderFetch(user=1, neighbor_seq=(2, 3), attributes={'a': 1}, latency=0.0, attempts=1, "
        "wasted_latency=0.0)",
    ),
    (
        FetchDispatch(2, 7, 0.5),
        {"shard": 2, "user": 7, "latency": 0.5},
        "FetchDispatch(shard=2, user=7, latency=0.5)",
    ),
    (
        QueryResponse(1, frozenset({2}), {}, True, (2,), 0.5),
        {
            "user": 1,
            "neighbors": frozenset({2}),
            "attributes": {},
            "from_cache": True,
            "neighbor_seq": (2,),
            "latency": 0.5,
        },
        "QueryResponse(user=1, neighbors=frozenset({2}), attributes={}, from_cache=True, neighbor_seq=(2,), "
        "latency=0.5)",
    ),
]
IDS = ["WalkSample", "ProviderFetch", "FetchDispatch", "QueryResponse"]


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
class TestFrozenRecords:
    def test_fields_asdict_and_repr(self, record, fields, text):
        assert [f.name for f in dataclasses.fields(record)] == list(fields)
        assert dataclasses.asdict(record) == fields
        assert vars(record) == fields
        assert repr(record) == text

    def test_keyword_construction_and_equality(self, record, fields, text):
        twin = type(record)(**fields)
        assert twin == record and twin is not record
        first = next(iter(fields))
        assert dataclasses.replace(record, **{first: "other"}) != record

    def test_replace_keeps_the_other_fields(self, record, fields, text):
        first = next(iter(fields))
        changed = dataclasses.replace(record, **{first: "other"})
        assert type(changed) is type(record)
        assert vars(changed) == {**fields, first: "other"}
        assert vars(record) == fields

    def test_pickle_round_trips(self, record, fields, text):
        assert pickle.loads(pickle.dumps(record)) == record

    def test_hash_follows_the_fields(self, record, fields, text):
        if any(isinstance(v, dict) for v in fields.values()):
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == hash(type(record)(**fields))

    def test_assignment_is_refused(self, record, fields, text):
        for name in fields:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, name)
        assert vars(record) == fields


class TestQueryResponseDefaults:
    def test_neighbor_seq_defaults_to_the_neighbors(self):
        response = QueryResponse(1, frozenset({2, 3}), {}, False)
        assert response.neighbor_seq == tuple(frozenset({2, 3}))
        assert response.latency == 0.0
        assert response.degree == 2

    def test_a_given_neighbor_seq_is_kept(self):
        response = QueryResponse(
            user=1, neighbors=frozenset({2, 3}), attributes={}, from_cache=True, neighbor_seq=(3, 2)
        )
        assert response.neighbor_seq == (3, 2)


class TestProviderLayers:
    def test_flaky_over_latency_fetch_is_pinned(self):
        # Pinned from the dataclasses.replace implementation of both layers.
        provider = FlakyProvider(
            LatencyModelProvider(star_graph(6), distribution="uniform", scale=0.5, seed=3),
            failure_rate=0.5,
            seed=4,
            timeout_latency=2.0,
        )
        fetched = [provider.fetch(user) for user in (0, 1, 2, 3)]
        # (user, neighbor_seq, latency, attempts, wasted_latency); attributes stay {}.
        assert [(f.user, f.neighbor_seq, f.latency, f.attempts, f.wasted_latency) for f in fetched] == [
            (0, (1, 2, 3, 4, 5, 6), 12.633824600844926, 7, 12.0),
            (1, (0,), 0.5773367701844847, 1, 0.0),
            (2, (0,), 0.028980988113841755, 1, 0.0),
            (3, (0,), 2.703977807828052, 2, 2.0),
        ]
        assert [f.attributes for f in fetched] == [{}] * 4
        assert all(type(f) is ProviderFetch for f in fetched)
