"""Unit tests for shared utilities (rng, stats, tables)."""

import json
import random
import struct

import pytest

from repro.datastore.snapshot import decode_value, encode_value
from repro.errors import SnapshotError
from repro.utils import (
    OnlineMeanVar,
    confidence_interval,
    ensure_rng,
    format_series,
    format_table,
    mean,
    relative_error,
    spawn_rng,
    variance,
)
from repro.utils.rng import StreamCursor, WordStream, pack_state, unpack_state


class TestRng:
    def test_ensure_rng_from_none(self):
        assert isinstance(ensure_rng(None), random.Random)

    def test_ensure_rng_from_int_deterministic(self):
        assert ensure_rng(7).random() == ensure_rng(7).random()

    def test_ensure_rng_passthrough(self):
        rng = random.Random(1)
        assert ensure_rng(rng) is rng

    def test_spawn_rng_streams_differ(self):
        parent = random.Random(0)
        a = spawn_rng(parent, 0)
        parent2 = random.Random(0)
        b = spawn_rng(parent2, 1)
        assert a.random() != b.random()

    def test_spawn_rng_reproducible(self):
        a = spawn_rng(random.Random(5), 3)
        b = spawn_rng(random.Random(5), 3)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def _mixed_draws(rng, pick, count=3000):
    """``count`` draws of every :class:`random.Random` kind, chosen by ``pick``."""
    sizes = [1, 3, 7, 1000, 2**31 + 5, 2**32 - 1, 2**32 + 1, 2**70 + 9] + [2**e for e in range(33)]
    out = []
    for _ in range(count):
        kind = pick.randrange(9)
        if kind == 0:
            out.append(rng.randrange(pick.choice(sizes)))
        elif kind == 1:
            out.append(rng.random())
        elif kind == 2:
            out.append(rng.getrandbits(pick.randrange(1, 101)))
        elif kind == 3:
            out.append(rng.choice("abcdefghij"))
        elif kind == 4:
            items = list(range(pick.randrange(1, 12)))
            rng.shuffle(items)
            out.append(tuple(items))
        elif kind == 5:
            out.append(tuple(rng.sample(range(50), pick.randrange(0, 10))))
        elif kind == 6:
            out.append(rng.gauss(0.0, 1.0))
        elif kind == 7:
            out.append(rng.randrange(3, 300, 7))
        else:
            out.append(rng.uniform(-1.0, 1.0))
    return out


class TestWordStream:
    """A :class:`WordStream` is a :class:`random.Random`, draw for draw."""

    def test_randrange_sizes_match_random(self):
        for n in [1, 2**32 + 1, 5, 1000, 2**31 + 1] + [2**e for e in range(34)]:
            plain, stream = random.Random(n), WordStream(n)
            assert [plain.randrange(n) for _ in range(700)] == [stream.randrange(n) for _ in range(700)]

    def test_random_and_getrandbits_match_random(self):
        plain, stream = random.Random(3), WordStream(3)
        for k in range(1, 101):
            assert plain.getrandbits(k) == stream.getrandbits(k)
            assert plain.random() == stream.random()
        assert plain.getrandbits(0) == stream.getrandbits(0) == 0

    def test_mixed_draws_match_random_across_refills(self):
        for seed in range(8):
            expected = _mixed_draws(random.Random(seed), random.Random(seed + 100))
            assert _mixed_draws(WordStream(seed), random.Random(seed + 100)) == expected

    def test_outstanding_read_ahead_changes_no_draw(self):
        for seed in range(4):
            plain, stream = random.Random(seed), WordStream(seed)
            cursor = StreamCursor(stream)
            ahead = [cursor.randrange(10) for _ in range(1500)]  # spans several fills
            assert [stream.randrange(10) for _ in range(1500)] == ahead
            assert [plain.randrange(10) for _ in range(1500)] == ahead
            cursor.index = stream.index
            for _ in range(40):
                cursor.random()
            expected = _mixed_draws(plain, random.Random(seed), count=500)
            assert _mixed_draws(stream, random.Random(seed), count=500) == expected

    def test_cursor_reads_the_next_live_draws(self):
        stream = WordStream(11)
        cursor = StreamCursor(stream)
        ahead = [(cursor.randrange(37), cursor.random()) for _ in range(800)]
        assert cursor.index > stream.index
        assert [(stream.randrange(37), stream.random()) for _ in range(800)] == ahead
        assert cursor.index == stream.index

    def test_mid_buffer_getstate_equals_random(self):
        plain, stream = random.Random(5), WordStream(5)
        cursor = StreamCursor(stream)
        for _ in range(300):
            cursor.randrange(7)
        for draws in (1, 57, 800):
            for _ in range(draws):
                for rng in (plain, stream):
                    rng.randrange(13)
                    rng.random()
            assert stream.getstate() == plain.getstate()
        plain.gauss(0.0, 1.0)
        stream.gauss(0.0, 1.0)
        assert stream.getstate() == plain.getstate()  # gauss_next included
        assert stream.random() == plain.random()

    def test_setstate_drops_the_read_ahead(self):
        stream = WordStream(1)
        cursor = StreamCursor(stream)
        for _ in range(600):
            cursor.randrange(9)
        state = random.Random(2).getstate()
        stream.setstate(state)
        assert stream.index > cursor.index  # no old index names a new word
        cursor.index = stream.index
        ahead = [cursor.randrange(9) for _ in range(600)]
        plain = random.Random()
        plain.setstate(state)
        assert [stream.randrange(9) for _ in range(600)] == ahead == [plain.randrange(9) for _ in range(600)]

    def test_seed_restarts_the_stream(self):
        stream = WordStream(1)
        before = stream.index
        stream.random()
        stream.seed(9)
        assert stream.index > before + 2
        assert stream.getstate() == random.Random(9).getstate()

    def test_state_dict_layout_unchanged(self):
        stream = WordStream(4)
        stream.randrange(100)
        version, internal, gauss_next = stream.getstate()
        assert (version, len(internal), gauss_next) == (random.Random.VERSION, 625, None)


def _through_codec(value):
    """``value`` after a spill: encoded, JSON text, decoded."""
    return decode_value(json.loads(json.dumps(encode_value(value))))


class TestPackedState:
    """A snapshot carries a Mersenne state as one packed ``bytes`` value."""

    def test_packed_mid_read_ahead_resumes_like_random(self):
        plain, stream = random.Random(6), WordStream(6)
        cursor = StreamCursor(stream)
        for _ in range(700):  # buffered words the live draws have not reached
            cursor.randrange(11)
        for rng in (plain, stream):
            for _ in range(150):
                rng.randrange(11)
        resumed = WordStream()
        resumed.setstate(unpack_state(_through_codec(pack_state(stream.getstate()))))
        expected = _mixed_draws(plain, random.Random(1), count=500)
        assert _mixed_draws(resumed, random.Random(1), count=500) == expected
        assert _mixed_draws(stream, random.Random(1), count=500) == expected

    def test_float_gauss_next_survives(self):
        plain = random.Random(8)
        plain.gauss(0.0, 1.0)
        packed = _through_codec(pack_state(plain.getstate()))
        assert type(packed[2]) is float
        resumed = WordStream()
        resumed.setstate(unpack_state(packed))
        assert resumed.gauss(0.0, 1.0) == plain.gauss(0.0, 1.0)
        assert resumed.random() == plain.random()

    def test_words_are_little_endian_uint32(self):
        state = random.Random(3).getstate()
        version, words, gauss_next = pack_state(state)
        assert (version, gauss_next) == (state[0], state[2])
        assert words == struct.pack("<625I", *state[1])
        assert words[:4] == state[1][0].to_bytes(4, "little")
        assert unpack_state((version, words, gauss_next)) == state

    def test_tuple_layout_loads_unchanged(self):
        plain = random.Random(12)
        plain.random()
        state = plain.getstate()
        assert unpack_state(state) == state
        resumed = WordStream()
        resumed.setstate(unpack_state(_through_codec(state)))
        assert [resumed.randrange(97) for _ in range(600)] == [plain.randrange(97) for _ in range(600)]

    @pytest.mark.parametrize("size", [0, 2496, 2504])
    def test_wrong_length_fails_loudly(self, size):
        with pytest.raises(SnapshotError, match=f"has {size} bytes, expected 2500"):
            unpack_state((3, bytes(size), None))


class TestStats:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        with pytest.raises(ValueError):
            mean([])

    def test_variance(self):
        assert variance([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0], ddof=0) == 4.0
        with pytest.raises(ValueError):
            variance([1.0])

    def test_relative_error(self):
        assert relative_error(11.0, 10.0) == pytest.approx(0.1)
        with pytest.raises(ValueError):
            relative_error(1.0, 0.0)

    def test_confidence_interval_contains_mean(self):
        lo, hi = confidence_interval([1.0, 2.0, 3.0, 4.0])
        assert lo < 2.5 < hi

    def test_confidence_interval_single_point(self):
        assert confidence_interval([5.0]) == (5.0, 5.0)

    def test_online_meanvar_matches_batch(self):
        rng = random.Random(2)
        xs = [rng.gauss(3, 2) for _ in range(500)]
        acc = OnlineMeanVar()
        acc.extend(xs)
        assert acc.count == 500
        assert acc.mean == pytest.approx(mean(xs))
        assert acc.sample_variance == pytest.approx(variance(xs), rel=1e-9)

    def test_online_meanvar_degenerate(self):
        acc = OnlineMeanVar()
        assert acc.mean == 0.0
        assert acc.variance == 0.0
        acc.add(1.0)
        assert acc.variance == 0.0


class TestTables:
    def test_format_table_aligns(self):
        text = format_table(["a", "bb"], [[1, 2.34567], [10, 3.0]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "2.346" in text  # 4 significant digits
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all rows same width

    def test_format_series_shape(self):
        text = format_series({"s1": [1.0, 2.0]}, "x", [10, 20])
        assert "s1" in text and "10" in text and "20" in text

    def test_format_series_length_mismatch(self):
        with pytest.raises(ValueError):
            format_series({"s1": [1.0]}, "x", [10, 20])
