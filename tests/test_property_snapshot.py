"""Property-based tests for snapshot round-trip invariants.

The overlay's determinism contract is its insertion ordering: every seeded
``random_neighbor`` stream is a function of ``neighbors_seq``, so a
snapshot→restore cycle must reproduce that ordering *exactly* — not just
the neighbor sets — together with the removal/replacement accounting and
the original-degree side channel (Theorem 5's free knowledge).
"""

import collections
import enum
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.overlay import OverlayGraph
from repro.datastore import KeyValueStore, QueryLog, snapshot
from repro.datastore.snapshot import (
    JsonLinesBackend,
    KeyValueBackend,
    canonical_key,
    decode_value,
    encode_value,
)
from repro.errors import EdgeNotFoundError, SelfLoopError, SnapshotError
from repro.generators import complete_graph
from repro.interface import RestrictedSocialAPI
from repro.obs.trace import TraceEvent
from repro.walks.base import WalkSample


@st.composite
def overlay_scripts(draw):
    """Random interleavings of materialize/remove/add/replace on K7."""
    ops = st.one_of(
        st.tuples(st.just("materialize"), st.integers(0, 6), st.just(0), st.just(0)),
        st.tuples(st.just("remove"), st.integers(0, 6), st.integers(0, 6), st.just(0)),
        st.tuples(st.just("add"), st.integers(0, 6), st.integers(0, 6), st.just(0)),
        st.tuples(
            st.just("replace"), st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)
        ),
    )
    return draw(st.lists(ops, max_size=30))


def _apply_script(overlay, script):
    for op, u, v, w in script:
        try:
            if op == "materialize":
                overlay.ensure_known(u)
            elif op == "remove":
                overlay.remove_edge(u, v)
            elif op == "add":
                overlay.add_edge(u, v)
            else:
                overlay.replace_edge(u, v, w)
        except (EdgeNotFoundError, SelfLoopError):
            pass


def _round_trip(state):
    """Push a state dict through the full codec, as any backend does."""
    return decode_value(encode_value(state))


class TestOverlaySnapshotProperties:
    @settings(max_examples=60, deadline=None)
    @given(overlay_scripts())
    def test_round_trip_preserves_neighbors_seq_and_counts(self, script):
        api = RestrictedSocialAPI(complete_graph(7))
        overlay = OverlayGraph(api)
        _apply_script(overlay, script)

        restored = OverlayGraph(RestrictedSocialAPI(complete_graph(7)))
        restored.load_state(_round_trip(overlay.state_dict()))

        assert list(restored.known_nodes()) == list(overlay.known_nodes())
        for node in overlay.known_nodes():
            assert restored.neighbors_seq(node) == overlay.neighbors_seq(node)
            assert restored.original_degree(node) == overlay.original_degree(node)
        assert restored.removal_count == overlay.removal_count
        assert restored.replacement_count == overlay.replacement_count

    @settings(max_examples=60, deadline=None)
    @given(overlay_scripts(), st.integers(0, 2**32 - 1))
    def test_round_trip_preserves_seeded_draw_sequences(self, script, seed):
        api = RestrictedSocialAPI(complete_graph(7))
        overlay = OverlayGraph(api)
        _apply_script(overlay, script)

        restored = OverlayGraph(RestrictedSocialAPI(complete_graph(7)))
        restored.load_state(_round_trip(overlay.state_dict()))

        for node in overlay.known_nodes():
            a, b = random.Random(seed), random.Random(seed)
            draws_orig = [overlay.random_neighbor(node, a) for _ in range(20)]
            draws_rest = [restored.random_neighbor(node, b) for _ in range(20)]
            assert draws_orig == draws_rest

    @settings(max_examples=40, deadline=None)
    @given(overlay_scripts())
    def test_lazy_deltas_apply_identically_after_restore(self, script):
        # Modifications recorded against *unmaterialized* nodes must fire
        # the same way when those nodes are first seen after a restore.
        api = RestrictedSocialAPI(complete_graph(7))
        overlay = OverlayGraph(api)
        _apply_script(overlay, script)

        restored = OverlayGraph(RestrictedSocialAPI(complete_graph(7)))
        restored.load_state(_round_trip(overlay.state_dict()))
        for node in range(7):
            overlay.ensure_known(node)
            restored.ensure_known(node)
        for node in range(7):
            assert restored.neighbors_seq(node) == overlay.neighbors_seq(node)


@st.composite
def kv_scripts(draw):
    """Random set/get/delete/advance sequences with small key space."""
    keys = st.one_of(st.integers(0, 5), st.tuples(st.just("k"), st.integers(0, 3)))
    ops = st.one_of(
        st.tuples(st.just("set"), keys, st.integers(), st.none() | st.floats(0.5, 20.0)),
        st.tuples(st.just("get"), keys, st.just(0), st.just(None)),
        st.tuples(st.just("delete"), keys, st.just(0), st.just(None)),
        st.tuples(st.just("advance"), st.just(0), st.just(0), st.floats(0.0, 5.0)),
    )
    return draw(st.lists(ops, max_size=25))


class TestKeyValueSnapshotProperties:
    @settings(max_examples=60, deadline=None)
    @given(kv_scripts())
    def test_round_trip_preserves_live_entries_and_lru_order(self, script):
        kv = KeyValueStore()
        for op, key, value, arg in script:
            if op == "set":
                kv.set(key, value, ttl=arg)
            elif op == "get":
                kv.get(key)
            elif op == "delete":
                kv.delete(key)
            else:
                kv.advance(arg)

        restored = KeyValueStore()
        restored.load_state(_round_trip(kv.state_dict()))
        live = [k for k in kv.keys() if kv.contains(k)]
        assert sorted(map(repr, restored.keys())) == sorted(map(repr, live))
        for k in live:
            assert restored.get(k) == kv.get(k)


@st.composite
def log_users(draw):
    """User-id zoo: ints, strings, tuples, None — all hashable."""
    ids = st.one_of(
        st.integers(-3, 3),
        st.sampled_from(["alice", "bob", ""]),
        st.tuples(st.integers(0, 2), st.sampled_from(["x", "y"])),
        st.none(),
    )
    return draw(st.lists(ids, max_size=40))


class TestQueryLogSnapshotProperties:
    @settings(max_examples=60, deadline=None)
    @given(log_users())
    def test_round_trip_preserves_records_and_unique_accounting(self, users):
        log = QueryLog()
        for i, user in enumerate(users):
            log.record(user, timestamp=float(i))

        restored = QueryLog()
        restored.load_state(_round_trip(log.state_dict()))
        assert restored.total_queries == log.total_queries
        assert restored.unique_queries == log.unique_queries
        assert [(r.index, r.user, r.billed, r.timestamp) for r in restored] == [
            (r.index, r.user, r.billed, r.timestamp) for r in log
        ]
        # billing must *continue* correctly: every known user is a cache hit
        for user in users:
            assert restored.was_queried(user)
            assert not restored.record(user).billed


class TestBackendsAgree:
    @settings(max_examples=25, deadline=None)
    @given(overlay_scripts())
    def test_jsonl_and_kv_backends_restore_identically(self, tmp_path_factory, script):
        api = RestrictedSocialAPI(complete_graph(7))
        overlay = OverlayGraph(api)
        _apply_script(overlay, script)
        sections = {"overlay": overlay.state_dict()}

        jsonl = JsonLinesBackend(tmp_path_factory.mktemp("snap") / "s.jsonl")
        kv = KeyValueBackend()
        jsonl.write(sections)
        kv.write(sections)
        assert jsonl.read() == kv.read()


# ----------------------------------------------------------------------
# the codec's bulk run paths against a per-member reference
# ----------------------------------------------------------------------
class _Kind(enum.IntEnum):
    LOW = 1
    HIGH = 2


_Pair = collections.namedtuple("_Pair", "user flag")

_BASE_TYPES = (int, float, str, bytes, tuple, list, set, frozenset, dict)


def _reference_encode(value):
    """The tagged format one member at a time, with no run paths: what
    every bulk path of :func:`encode_value` must reproduce exactly."""
    if value is None:
        return ["z"]
    extension = snapshot._EXTENSION_ENCODERS.get(type(value))
    if extension is not None and not isinstance(value, _BASE_TYPES):
        tag, to_primitives = extension
        return [tag, _reference_encode(to_primitives(value))]
    if isinstance(value, bool):
        return ["b", value]
    if isinstance(value, int):
        return ["i", value]
    if isinstance(value, float):
        return ["f", value.hex()]
    if isinstance(value, str):
        return ["s", value]
    if isinstance(value, tuple):
        return ["t", [_reference_encode(v) for v in value]]
    if isinstance(value, list):
        return ["l", [_reference_encode(v) for v in value]]
    if isinstance(value, dict):
        return ["d", [[_reference_encode(k), _reference_encode(v)] for k, v in value.items()]]
    raise TypeError(f"no reference encoding for {type(value).__name__}")


def _plain(value):
    """What a round trip gives back: subclasses of base types come back as the base type."""
    if isinstance(value, bool) or value is None or type(value) in (float, str):
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, list):
        return [_plain(v) for v in value]
    if isinstance(value, tuple):
        return tuple(_plain(v) for v in value)
    return value


def _same(a, b) -> bool:
    """Equal with identical types all the way down (and floats equal to the bit)."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return a.hex() == b.hex()
    if type(a) in (tuple, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if type(a) is dict:
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if type(a) in (WalkSample, TraceEvent):
        return _same(list(vars(a).values()), list(vars(b).values()))
    return a == b


_scalars = st.one_of(
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.floats(allow_nan=False),
    st.text(max_size=4),
)
_users = st.one_of(st.integers(-5, 5), st.text(max_size=3), st.tuples(st.integers(0, 3), st.text(max_size=2)))
_samples = st.builds(
    WalkSample,
    node=_users,
    weight=st.floats(allow_nan=False),
    query_cost=st.integers(0, 10**6),
    step=st.integers(0, 10**6),
)
_events = st.builds(
    TraceEvent,
    seq=st.integers(0, 10**6),
    name=st.sampled_from(["query", "walk_step"]),
    ts=st.floats(allow_nan=False),
    dur=st.floats(0.0, 5.0),
    attrs=st.dictionaries(st.text(max_size=3), _scalars, max_size=2),
)
#: Runs of every kind the bulk paths take, on both sides of ``_RUN_MIN``.
_runs = st.one_of(
    st.lists(_scalars, max_size=20),
    st.lists(st.tuples(_scalars, _scalars, _scalars), max_size=20),
    st.lists(st.tuples(_users, st.booleans(), st.floats(allow_nan=False)), max_size=20),
    st.lists(st.tuples(st.integers(), st.tuples(st.integers(), st.text(max_size=2))), max_size=20),
    st.lists(st.lists(st.integers(), max_size=3).map(tuple), max_size=20),
    st.lists(st.sampled_from(_Kind), max_size=20),
    st.lists(st.builds(_Pair, _scalars, st.booleans()), max_size=20),
    st.lists(_samples, max_size=20),
    st.lists(_events, max_size=20),
    st.lists(st.one_of(_samples, st.tuples(st.integers(), st.booleans())), max_size=20),
)


class TestBulkCodecProperties:
    @settings(max_examples=150, deadline=None)
    @given(_runs)
    def test_bulk_encoding_matches_the_per_member_reference(self, run):
        for value in (run, tuple(run), {"run": run}):
            assert encode_value(value) == _reference_encode(value)

    @settings(max_examples=150, deadline=None)
    @given(_runs)
    def test_round_trip_is_type_faithful(self, run):
        for value in (run, tuple(run)):
            through_json = json.loads(json.dumps(encode_value(value)))
            for encoded in (encode_value(value), through_json):
                assert _same(decode_value(encoded), _plain(value))

    def test_a_malformed_member_of_a_tuple_run_still_raises(self):
        rows = [["t", [["i", 1], ["b", True]]]] * 9 + [["t", [["i", 1], ["?", 0]]]]
        with pytest.raises(SnapshotError):
            decode_value(["l", rows])

    @pytest.mark.parametrize(
        "user, key",
        [
            (7, '["i",7]'),
            (-3, '["i",-3]'),
            ("alice", '["s","alice"]'),
            (True, '["b",true]'),
            (False, '["b",false]'),
            ((1, "x", 2.5), '["t",[["i",1],["s","x"],["f","0x1.4000000000000p+1"]]]'),
            (
                (0, 1, 2, "a", True, 0.5, None, (2, 3), -1),
                '["t",[["i",0],["i",1],["i",2],["s","a"],["b",true],["f","0x1.0000000000000p-1"],'
                '["z"],["t",[["i",2],["i",3]]],["i",-1]]]',
            ),
            (tuple(range(9)), '["t",[' + ",".join(f'["i",{i}]' for i in range(9)) + "]]"),
            (tuple("abcdefgh"), '["t",[' + ",".join(f'["s","{c}"]' for c in "abcdefgh") + "]]"),
            (
                tuple((i, "u") for i in range(8)),
                '["t",[' + ",".join(f'["t",[["i",{i}],["s","u"]]]' for i in range(8)) + "]]",
            ),
        ],
        ids=[
            "int",
            "negative",
            "str",
            "true",
            "false",
            "short-tuple",
            "mixed-long-tuple",
            "int-run",
            "str-run",
            "row-run",
        ],
    )
    def test_canonical_key_is_pinned(self, user, key):
        # Shard routing and per-user latency streams hash this text; the
        # long tuples take the run paths, the short ones do not.
        assert canonical_key(user) == key
