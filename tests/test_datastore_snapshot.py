"""Unit tests for the snapshot codec and backends."""

import json
import math
import random

import pytest

from repro.datastore import KeyValueStore
from repro.datastore.snapshot import (
    JsonLinesBackend,
    KeyValueBackend,
    _canonical,
    canonical_key,
    decode_value,
    encode_value,
)
from repro.errors import SnapshotError
from repro.walks.base import WalkSample


class TestCodecRoundTrip:
    ZOO = [
        None,
        True,
        False,
        0,
        -17,
        2**70,  # beyond 64-bit: JSON ints are arbitrary precision in Python
        0.0,
        -2.5,
        1e-300,
        float("inf"),
        float("-inf"),
        "",
        "héllo\nworld",
        b"\x00\xffbytes",
        (),
        (1, "two", (3.0, None)),
        [],
        [1, [2, [3]]],
        set(),
        # A set's repr follows its elements' hashes, and str hashes change
        # from process to process (PYTHONHASHSEED): pin this case's id.
        pytest.param({1, "a", (2, 3)}, id="{'a', 1, (2, 3)}"),
        frozenset({frozenset({1}), frozenset()}),
        {},
        {"k": 1},
        {(1, 2): {"nested": frozenset({9})}, None: "null-key"},
    ]

    @pytest.mark.parametrize("value", ZOO, ids=lambda v: repr(v)[:40])
    def test_round_trip_value_and_type(self, value):
        decoded = decode_value(encode_value(value))
        assert decoded == value
        assert type(decoded) is type(value)

    def test_nan_round_trips(self):
        decoded = decode_value(encode_value(float("nan")))
        assert isinstance(decoded, float) and decoded != decoded

    def test_bool_and_int_stay_distinct(self):
        assert decode_value(encode_value(True)) is True
        assert decode_value(encode_value(1)) == 1
        assert type(decode_value(encode_value(1))) is int

    def test_float_exactness(self):
        for x in (0.1, 1 / 3, 1e17 + 1.0):
            assert decode_value(encode_value(x)) == x

    def test_dict_insertion_order_preserved(self):
        d = {("b",): 1, ("a",): 2, ("c",): 3}
        assert list(decode_value(encode_value(d))) == list(d)

    def test_set_encoding_is_canonical(self):
        a = encode_value({1, 2, 3})
        b = encode_value({3, 1, 2})
        assert json.dumps(a) == json.dumps(b)

    def test_unsupported_type_raises(self):
        with pytest.raises(SnapshotError):
            encode_value(object())

    def test_malformed_decode_raises(self):
        for bad in (["?", 1], [], "raw", {"t": 1}):
            with pytest.raises(SnapshotError):
                decode_value(bad)


class TestCanonicalKey:
    """Shard routing and per-user latency seeds hash this text, and the
    committed benchmark digests pin both, so it must equal the codec's
    canonical encoding on every id type (the ``int`` fast path included)."""

    @pytest.mark.parametrize(
        "user",
        [0, -5, 2**70, True, False, 'say "hi" \\ caf\u00e9 \u65e5\u672c', ("u", 5, (1, "x"))],
        ids=["zero", "negative", "big", "true", "false", "str", "tuple"],
    )
    def test_equals_the_canonical_encoding(self, user):
        assert canonical_key(user) == _canonical(encode_value(user))


class TestGoldenFormat:
    """The encoded bytes are a storage format: spilled sessions, ``save()``
    files and anything else that persisted an encoding decode against them,
    so every tag's exact shape is pinned here."""

    RNG_STATE = random.Random(2024).getstate()
    PAYLOAD = {
        "none": None,
        "ints": (0, 1, True, -2, False, 2**70, 6, 7),
        "trace": (1.0, 0.1, math.inf, -math.inf, math.nan, -0.0, 5e-324, 2.5),
        "bytes": b"\x00\xff",
        "nested": (1, [2.5, ("three", [])]),
        "sets": ({3, 1, 2}, frozenset({"b", "a"})),
        (1, "k"): {"inner": 4},
        "sample": WalkSample(node=("u", 5), weight=0.25, query_cost=3, step=9),
        "rng": RNG_STATE,
    }
    GOLDEN = (
        '["d", [[["s", "none"], ["z"]], '
        '[["s", "ints"], ["t", [["i", 0], ["i", 1], ["b", true], ["i", -2], ["b", false], '
        '["i", 1180591620717411303424], ["i", 6], ["i", 7]]]], '
        '[["s", "trace"], ["t", [["f", "0x1.0000000000000p+0"], ["f", "0x1.999999999999ap-4"], '
        '["f", "inf"], ["f", "-inf"], ["f", "nan"], ["f", "-0x0.0p+0"], '
        '["f", "0x0.0000000000001p-1022"], ["f", "0x1.4000000000000p+1"]]]], '
        '[["s", "bytes"], ["y", "00ff"]], '
        '[["s", "nested"], ["t", [["i", 1], ["l", [["f", "0x1.4000000000000p+1"], '
        '["t", [["s", "three"], ["l", []]]]]]]]], '
        '[["s", "sets"], ["t", [["S", [["i", 1], ["i", 2], ["i", 3]]], ["F", [["s", "a"], ["s", "b"]]]]]], '
        '[["t", [["i", 1], ["s", "k"]]], ["d", [[["s", "inner"], ["i", 4]]]]], '
        '[["s", "sample"], ["x:walk-sample", '
        '["t", [["t", [["s", "u"], ["i", 5]]], ["f", "0x1.0000000000000p-2"], ["i", 3], ["i", 9]]]]], '
        '[["s", "rng"], <rng>]]]'
    )

    def test_bytes_match_the_committed_literal(self):
        version, words, gauss = self.RNG_STATE
        assert (version, len(words), gauss) == (3, 625, None)
        # A Mersenne state: ("t", [version, ("t", [625 words]), None]).
        rng = '["t", [["i", 3], ["t", [' + ", ".join(f'["i", {w}]' for w in words) + ']], ["z"]]]'
        encoded = json.dumps(encode_value(self.PAYLOAD), sort_keys=True)
        assert encoded == self.GOLDEN.replace("<rng>", rng)

    def test_round_trips(self):
        decoded = decode_value(json.loads(json.dumps(encode_value(self.PAYLOAD))))
        nan_free = {k: v for k, v in self.PAYLOAD.items() if k != "trace"}
        assert {k: v for k, v in decoded.items() if k != "trace"} == nan_free
        assert list(decoded) == list(self.PAYLOAD)
        assert [type(x) for x in decoded["ints"]] == [int, int, bool, int, bool, int, int, int]
        trace = decoded["trace"]
        assert type(trace) is tuple and math.isnan(trace[4])
        assert [x.hex() for x in trace] == [x.hex() for x in self.PAYLOAD["trace"]]
        assert type(decoded["sets"][0]) is set and type(decoded["sets"][1]) is frozenset
        assert type(decoded["sample"]) is WalkSample
        state = random.Random()
        state.setstate(decoded["rng"])
        assert state.random() == random.Random(2024).random()


class TestGoldenFormatV3:
    """Version 3 writes a list run as one column block, ``["L", block]``:
    one array per field, every other value as in version 2."""

    PAYLOAD = {
        "log": [(i % 3, i % 2 == 0, 0.5 * i) for i in range(8)],
        "trace": [1.0, 0.1, math.inf, -math.inf, math.nan, -0.0, 5e-324, 2.5],
        "merged": [WalkSample(node=("u", i), weight=0.25, query_cost=i, step=9) for i in range(8)],
        "flags": [True] * 8,
        "users": list("abcdefgh"),
        "ids": [(i, "x" if i % 2 else 3) for i in range(8)],
        "short": [1, 2],
        "mixed": [1, "a", 2, "b", 3, "c", 4, None],
    }
    GOLDEN = (
        '["d", [[["s", "log"], ["L", ["t", [["i", [0, 1, 2, 0, 1, 2, 0, 1]], '
        '["b", [true, false, true, false, true, false, true, false]], '
        '["f", ["0x0.0p+0", "0x1.0000000000000p-1", "0x1.0000000000000p+0", '
        '"0x1.8000000000000p+0", "0x1.0000000000000p+1", "0x1.4000000000000p+1", '
        '"0x1.8000000000000p+1", "0x1.c000000000000p+1"]]]]]], '
        '[["s", "trace"], ["L", ["f", ["0x1.0000000000000p+0", "0x1.999999999999ap-4", "inf", "-inf", "nan", '
        '"-0x0.0p+0", "0x0.0000000000001p-1022", "0x1.4000000000000p+1"]]]], '
        '[["s", "merged"], ["L", ["x:walk-sample", ["t", [["t", '
        '[["s", ["u", "u", "u", "u", "u", "u", "u", "u"]], '
        '["i", [0, 1, 2, 3, 4, 5, 6, 7]]]], ["f", ["0x1.0000000000000p-2", "0x1.0000000000000p-2", '
        '"0x1.0000000000000p-2", "0x1.0000000000000p-2", "0x1.0000000000000p-2", "0x1.0000000000000p-2", '
        '"0x1.0000000000000p-2", "0x1.0000000000000p-2"]], '
        '["i", [0, 1, 2, 3, 4, 5, 6, 7]], ["i", [9, 9, 9, 9, 9, 9, 9, 9]]]]]]], '
        '[["s", "flags"], ["L", ["b", [true, true, true, true, true, true, true, true]]]], '
        '[["s", "users"], ["L", ["s", ["a", "b", "c", "d", "e", "f", "g", "h"]]]], '
        '[["s", "ids"], ["L", ["t", [["i", [0, 1, 2, 3, 4, 5, 6, 7]], '
        '["e", [["i", 3], ["s", "x"], ["i", 3], ["s", "x"], '
        '["i", 3], ["s", "x"], ["i", 3], ["s", "x"]]]]]]], '
        '[["s", "short"], ["l", [["i", 1], ["i", 2]]]], '
        '[["s", "mixed"], ["l", [["i", 1], ["s", "a"], ["i", 2], ["s", "b"], '
        '["i", 3], ["s", "c"], ["i", 4], ["z"]]]]]]'
    )

    def test_bytes_match_the_committed_literal(self):
        assert json.dumps(encode_value(self.PAYLOAD), sort_keys=True) == self.GOLDEN

    def test_round_trips(self):
        decoded = decode_value(json.loads(self.GOLDEN))
        assert list(decoded) == list(self.PAYLOAD)
        for key, run in self.PAYLOAD.items():
            assert type(decoded[key]) is list
            assert repr(decoded[key]) == repr(run)
            assert [type(v) for v in decoded[key]] == [type(v) for v in run]
        assert [x.hex() for x in decoded["trace"]] == [x.hex() for x in self.PAYLOAD["trace"]]


class TestColumnBlockErrors:
    @pytest.mark.parametrize(
        "encoded",
        [
            ["L", ["t", [["i", [1, 2]], ["i", [1]]]]],
            ["L", ["t", []]],
            ["L", ["q", [1, 2]]],
            ["L", ["x:never-registered", ["i", [1, 2]]]],
            ["L", ["i", [1, "2"]]],
            ["L", ["b", [True, 1]]],
            ["L", ["f", ["not hex"]]],
            ["L", ["f", [1.5]]],
            ["L", ["i", 5]],
            ["L", ["i"]],
            ["L", [7, [1]]],
            ["L"],
        ],
        ids=[
            "ragged-columns",
            "no-columns",
            "unknown-kind",
            "unknown-extension",
            "wrong-int",
            "wrong-bool",
            "bad-hex",
            "float-payload",
            "no-array",
            "no-data",
            "non-string-kind",
            "no-block",
        ],
    )
    def test_malformed_block_raises(self, encoded):
        with pytest.raises(SnapshotError):
            decode_value(encoded)


SECTIONS = {
    "meta": {"sampler_type": "MTOSampler", "steps": 12},
    "state": {
        "known": {1: [2, 3], (2, "x"): [1]},
        "removed": {1: {9}},
        "trace": (1.0, 2.5),
    },
}


class TestJsonLinesBackend:
    def test_round_trip(self, tmp_path):
        backend = JsonLinesBackend(tmp_path / "snap.jsonl")
        assert backend.read() is None
        assert not backend.exists()
        backend.write(SECTIONS)
        assert backend.exists()
        assert backend.read() == SECTIONS

    def test_overwrite_replaces_previous(self, tmp_path):
        backend = JsonLinesBackend(tmp_path / "snap.jsonl")
        backend.write(SECTIONS)
        backend.write({"meta": {"steps": 99}})
        assert backend.read() == {"meta": {"steps": 99}}

    def test_no_temp_file_left_behind(self, tmp_path):
        backend = JsonLinesBackend(tmp_path / "snap.jsonl")
        backend.write(SECTIONS)
        assert [p.name for p in tmp_path.iterdir()] == ["snap.jsonl"]

    def test_corrupt_header_raises(self, tmp_path):
        path = tmp_path / "snap.jsonl"
        path.write_text("not json\n")
        with pytest.raises(SnapshotError):
            JsonLinesBackend(path).read()

    def test_wrong_format_raises(self, tmp_path):
        path = tmp_path / "snap.jsonl"
        path.write_text(json.dumps({"format": "something-else", "version": 1}) + "\n")
        with pytest.raises(SnapshotError):
            JsonLinesBackend(path).read()

    def test_future_version_raises(self, tmp_path):
        path = tmp_path / "snap.jsonl"
        path.write_text(json.dumps({"format": "repro-snapshot", "version": 999, "sections": []}) + "\n")
        with pytest.raises(SnapshotError):
            JsonLinesBackend(path).read()

    def test_version_one_snapshot_raises_naming_both_versions(self, tmp_path):
        # Version 1 stored a cached response as three keys; loading it into
        # the one-record cache would read as empty, so it must fail loudly.
        path = tmp_path / "snap.jsonl"
        path.write_text(json.dumps({"format": "repro-snapshot", "version": 1, "sections": []}) + "\n")
        with pytest.raises(SnapshotError, match=r"version 1;.*version 2"):
            JsonLinesBackend(path).read()

    def test_version_one_header_names_every_version_this_build_reads(self, tmp_path):
        path = tmp_path / "snap.jsonl"
        path.write_text(json.dumps({"format": "repro-snapshot", "version": 1, "sections": []}) + "\n")
        with pytest.raises(SnapshotError, match=r"has version 1; this build reads version 2 or 3$"):
            JsonLinesBackend(path).read()

    def test_version_two_snapshot_still_reads(self, tmp_path):
        # Version 2 wrote every list member by member.
        path = tmp_path / "snap.jsonl"
        header = {"format": "repro-snapshot", "version": 2, "sections": ["s"]}
        section = {"section": "s", "data": ["l", [["i", i] for i in range(9)]]}
        path.write_text(json.dumps(header) + "\n" + json.dumps(section) + "\n")
        assert JsonLinesBackend(path).read() == {"s": list(range(9))}

    def test_truncated_sections_raise(self, tmp_path):
        path = tmp_path / "snap.jsonl"
        backend = JsonLinesBackend(path)
        backend.write(SECTIONS)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop the last section
        with pytest.raises(SnapshotError):
            backend.read()


class TestKeyValueBackend:
    def test_round_trip(self):
        backend = KeyValueBackend()
        assert backend.read() is None
        assert not backend.exists()
        backend.write(SECTIONS)
        assert backend.exists()
        assert backend.read() == SECTIONS

    def test_snapshot_isolated_from_source_mutation(self):
        backend = KeyValueBackend()
        state = {"state": {"known": {1: [2, 3]}}}
        backend.write(state)
        state["state"]["known"][1].append(99)  # mutate the live object
        assert backend.read() == {"state": {"known": {1: [2, 3]}}}

    def test_namespaces_are_independent(self):
        store = KeyValueStore()
        a = KeyValueBackend(store, namespace="a")
        b = KeyValueBackend(store, namespace="b")
        a.write({"meta": {"who": "a"}})
        b.write({"meta": {"who": "b"}})
        assert a.read() == {"meta": {"who": "a"}}
        assert b.read() == {"meta": {"who": "b"}}

    def test_overwrite_drops_stale_sections(self):
        backend = KeyValueBackend()
        backend.write(SECTIONS)
        backend.write({"meta": {"steps": 1}})
        assert backend.read() == {"meta": {"steps": 1}}
        # the stale "state" section is gone from the store, not orphaned
        assert backend.store.get(("snapshot", "default", "section", "state")) is None

    def test_version_one_snapshot_raises_naming_both_versions(self):
        backend = KeyValueBackend()
        backend.store.set(("snapshot", "default", "header"), {"version": 1, "sections": ()})
        with pytest.raises(SnapshotError, match=r"version 1;.*version 2"):
            backend.read()

    def test_version_one_header_names_every_version_this_build_reads(self):
        backend = KeyValueBackend()
        backend.store.set(("snapshot", "default", "header"), {"version": 1, "sections": ()})
        with pytest.raises(SnapshotError, match=r"has version 1; this build reads version 2 or 3$"):
            backend.read()

    def test_version_two_snapshot_still_reads(self):
        backend = KeyValueBackend()
        backend.store.set(("snapshot", "default", "header"), {"version": 2, "sections": ("s",)})
        backend.store.set(("snapshot", "default", "section", "s"), ["l", [["i", i] for i in range(9)]])
        assert backend.read() == {"s": list(range(9))}

    def test_evicted_section_raises(self):
        backend = KeyValueBackend()
        backend.write(SECTIONS)
        backend.store.delete(("snapshot", "default", "section", "state"))
        with pytest.raises(SnapshotError):
            backend.read()


class TestExtensionCodecs:
    def test_walk_sample_roundtrip(self):
        from repro.datastore.snapshot import decode_value, encode_value
        from repro.walks.base import WalkSample

        sample = WalkSample(node=("u", 7), weight=0.125, query_cost=42, step=9)
        encoded = encode_value((sample, sample))
        decoded = decode_value(encoded)
        assert decoded == (sample, sample)
        assert isinstance(decoded[0], WalkSample)

    def test_registration_validation(self):
        import pytest

        from repro.datastore.snapshot import register_codec
        from repro.errors import SnapshotError
        from repro.walks.base import WalkSample

        class Unregistered:
            pass

        with pytest.raises(SnapshotError):
            register_codec("no-prefix", Unregistered, lambda v: v, lambda v: v)
        # A different tag for an already-registered type conflicts...
        with pytest.raises(SnapshotError):
            register_codec("x:other", WalkSample, lambda v: v, lambda v: v)
        # ...as does an already-claimed tag for a different type.
        with pytest.raises(SnapshotError):
            register_codec("x:walk-sample", Unregistered, lambda v: v, lambda v: v)
        # Re-registering the identical pair (repeated imports) is fine.
        register_codec(
            "x:walk-sample",
            WalkSample,
            lambda s: (s.node, s.weight, s.query_cost, s.step),
            lambda fields: WalkSample(*fields),
        )

    def test_unregistered_type_still_rejected(self):
        import pytest

        from repro.datastore.snapshot import encode_value
        from repro.errors import SnapshotError

        class Opaque:
            pass

        with pytest.raises(SnapshotError):
            encode_value(Opaque())

    def test_unknown_tag_decode_fails_clearly(self):
        import pytest

        from repro.datastore.snapshot import decode_value
        from repro.errors import SnapshotError

        with pytest.raises(SnapshotError, match="unknown snapshot tag"):
            decode_value(["x:never-registered", ["i", 1]])
        # Non-string garbage in the tag slot is malformed, not a lookup.
        with pytest.raises(SnapshotError):
            decode_value([42, ["i", 1]])

    def test_unregister_and_override_hooks(self):
        import pytest

        from repro.datastore.snapshot import (
            codec_registered,
            decode_value,
            encode_value,
            register_codec,
            unregister_codec,
        )
        from repro.errors import SnapshotError

        class Probe:
            def __init__(self, value):
                self.value = value

        try:
            register_codec("x:probe", Probe, lambda p: p.value, lambda v: Probe(v))
            assert codec_registered("x:probe")
            payload = encode_value(Probe(7))
            assert decode_value(payload).value == 7

            # Re-registration without override keeps the first codec...
            register_codec("x:probe", Probe, lambda p: ("new", p.value), lambda v: Probe(v))
            assert encode_value(Probe(7)) == payload
            # ...override (the for-tests hook) replaces it.
            register_codec(
                "x:probe",
                Probe,
                lambda p: p.value * 10,
                lambda v: Probe(v // 10),
                override=True,
            )
            assert decode_value(encode_value(Probe(7))).value == 7
            assert encode_value(Probe(7)) != payload
        finally:
            assert unregister_codec("x:probe") is True
        assert not codec_registered("x:probe")
        assert unregister_codec("x:probe") is False
        # A payload written under the removed tag now fails to decode —
        # the unknown-tag safety the tagged format exists for.
        with pytest.raises(SnapshotError, match="unknown snapshot tag"):
            decode_value(payload)
        with pytest.raises(SnapshotError):
            encode_value(Probe(7))
        # The tag is free again for a different type.
        try:
            register_codec("x:probe", Probe, lambda p: p.value, lambda v: Probe(v))
            assert codec_registered("x:probe")
        finally:
            unregister_codec("x:probe")
