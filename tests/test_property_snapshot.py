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
import math
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
        block = _reference_column(value) if len(value) >= snapshot._RUN_MIN else None
        if block is not None:
            return ["L", block]
        return ["l", [_reference_encode(v) for v in value]]
    if isinstance(value, dict):
        return ["d", [[_reference_encode(k), _reference_encode(v)] for k, v in value.items()]]
    raise TypeError(f"no reference encoding for {type(value).__name__}")


_SCALAR_KINDS = {int: "i", bool: "b", str: "s"}


def _reference_column(values):
    """The column block of a list run, built field by field in plain loops,
    or ``None`` when the members are no run of one kind."""
    kind = type(values[0])
    for v in values:
        if type(v) is not kind:
            return None
    if kind in _SCALAR_KINDS:
        data = []
        for v in values:
            data.append(v)
        return [_SCALAR_KINDS[kind], data]
    if kind is float:
        data = []
        for v in values:
            data.append(v.hex())
        return ["f", data]
    if kind is tuple:
        width = len(values[0])
        for v in values:
            if len(v) != width:
                return None
        if width == 0:
            return None
        fields = []
        for i in range(width):
            fields.append(_reference_field([row[i] for row in values]))
        return ["t", fields]
    extension = snapshot._EXTENSION_ENCODERS.get(kind)
    if extension is not None and not issubclass(kind, _BASE_TYPES):
        tag, to_primitives = extension
        return [tag, _reference_field([to_primitives(v) for v in values])]
    return None


def _reference_field(values):
    """One field of a row or extension run: its column block, else its members."""
    block = _reference_column(values)
    if block is None:
        return ["e", [_reference_encode(v) for v in values]]
    return block


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


# ----------------------------------------------------------------------
# list runs as column blocks
# ----------------------------------------------------------------------
_RUN_MIN = snapshot._RUN_MIN


def _sample(i):
    return WalkSample(node=i, weight=1.0 / (i + 1), query_cost=i, step=2 * i)


def _event(i):
    return TraceEvent(seq=i, name="query", ts=0.5 * i, dur=0.25, attrs={"user": i})


#: member(i) builders for the column kinds, and what they are a run of.
_MEMBERS = {
    "int": lambda i: i - 3,
    "bool": lambda i: i % 3 == 0,
    "float": lambda i: (math.nan, -0.0, math.inf, -math.inf, 0.1, 5e-324)[i % 6],
    "str": lambda i: "u" * (i % 4),
    "rows": lambda i: (i, i % 2 == 0, 0.5 * i),
    "mixed-column": lambda i: (i, "x" if i % 2 else 3, None),
    "nested-rows": lambda i: ((i, "a"), [i]),
    "int-enum": lambda i: (_Kind.LOW, _Kind.HIGH)[i % 2],
    "namedtuple": lambda i: _Pair(i, i % 2 == 0),
    "walk-sample": _sample,
    "trace-event": _event,
    "ragged": lambda i: tuple(range(i % 3)),
}
#: Kinds that are no column run: subclasses of a base type, rows of unequal width.
_PER_MEMBER = {"int-enum", "namedtuple", "ragged"}


class TestListColumns:
    @pytest.mark.parametrize("size", [0, 1, _RUN_MIN - 1, _RUN_MIN, 3 * _RUN_MIN + 1])
    @pytest.mark.parametrize("kind", sorted(_MEMBERS))
    def test_round_trip_through_json(self, kind, size):
        run = [_MEMBERS[kind](i) for i in range(size)]
        encoded = encode_value(run)
        assert encoded[0] == ("L" if size >= _RUN_MIN and kind not in _PER_MEMBER else "l")
        assert encoded == _reference_encode(run)
        through_json = json.loads(json.dumps(encoded))
        for value in (decode_value(encoded), decode_value(through_json)):
            assert _same(value, _plain(run))

    def test_a_decoded_run_shares_no_list_with_its_encoding(self):
        run = list(range(2 * _RUN_MIN))
        encoded = encode_value(run)
        decoded = decode_value(encoded)
        decoded.append(-1)
        assert encoded == ["L", ["i", run]]

    @settings(max_examples=150, deadline=None)
    @given(_runs, st.data())
    def test_a_spliced_run_equals_its_whole_encoding(self, run, data):
        cut = data.draw(st.integers(0, len(run)))
        first, blocks = snapshot.encode_run(run[:cut])
        assert first == encode_value(run[:cut])
        assert blocks == ([first[1]] if first[0] == "L" else [])
        frozen = json.dumps(blocks)
        encoded, joined = snapshot.encode_run(run, blocks)
        assert encoded == encode_value(run)
        assert json.dumps(blocks) == frozen  # the given blocks are never edited
        if blocks and encoded[0] == "L" and joined[0] is blocks[0]:
            assert len(joined) == len(blocks) + (len(run) > cut)

    def test_a_tail_of_another_shape_is_encoded_whole(self):
        rows = [(i, True, 0.5) for i in range(_RUN_MIN)]
        _, blocks = snapshot.encode_run(rows)
        for tail in [("u", True, 0.5)], [(1, True)], [(1, 1, 0.5)]:
            encoded, joined = snapshot.encode_run(rows + tail, blocks)
            assert encoded == encode_value(rows + tail)
            assert joined == ([encoded[1]] if encoded[0] == "L" else [])  # ragged rows: per member
        encoded, joined = snapshot.encode_run(rows + [(9, False, 2.0)], blocks)
        assert encoded == encode_value(rows + [(9, False, 2.0)])
        assert joined[0] is blocks[0] and len(joined) == 2
