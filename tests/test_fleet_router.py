"""Property tests for ShardRouter determinism (ISSUE 4 satellite).

The router's whole value is being a *pure function* of its configuration:
same seed ⇒ same user→shard map, in this process, in a fresh process, and
after a snapshot round-trip; rebalancing to a different shard count moves
only the expected fraction of keys, never a full reshuffle.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datastore.snapshot import decode_value, encode_value
from repro.errors import SnapshotError
from repro.fleet import ShardRouter

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: A spread of realistic id shapes: ints, strings, tuples.
USER_IDS = st.one_of(
    st.integers(-(2**40), 2**40),
    st.text(max_size=24),
    st.tuples(st.text(max_size=8), st.integers(0, 2**20)),
)


class TestValidation:
    def test_bad_shard_count(self):
        with pytest.raises(ValueError):
            ShardRouter(0)

    def test_bad_weights(self):
        with pytest.raises(ValueError):
            ShardRouter(2, weights=[1.0])
        with pytest.raises(ValueError):
            ShardRouter(2, weights=[1.0, 0.0])

    def test_bad_points(self):
        with pytest.raises(ValueError):
            ShardRouter(2, points_per_shard=0)


class TestDeterminism:
    @given(seed=st.integers(0, 2**31), users=st.lists(USER_IDS, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_same_seed_same_map(self, seed, users):
        a = ShardRouter(5, seed=seed)
        b = ShardRouter(5, seed=seed)
        assert [a.shard_of(u) for u in users] == [b.shard_of(u) for u in users]

    @given(users=st.lists(USER_IDS, min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_all_assignments_in_range(self, users):
        router = ShardRouter(4, seed=9, weights=[3.0, 1.0, 1.0, 1.0])
        assert all(0 <= router.shard_of(u) < 4 for u in users)

    def test_map_is_fetch_order_independent(self):
        router = ShardRouter(3, seed=1)
        users = list(range(500))
        forward = {u: router.shard_of(u) for u in users}
        backward = {u: router.shard_of(u) for u in reversed(users)}
        assert forward == backward

    def test_weights_skew_the_key_space(self):
        router = ShardRouter(4, seed=2, weights=[6.0, 1.0, 1.0, 1.0])
        share = router.load_share(list(range(4000)))
        # The hot shard owns ~6/9 of the ring; allow vnode-sampling slack.
        assert share[0] > 0.5
        assert share[0] > 3 * max(share[1:])

    def test_cross_process_map_is_identical(self, tmp_path):
        """The acceptance wording, literally: same map across processes."""
        users = [17, "alice", ("eu", 42), -3, "租户"]
        parent = [ShardRouter(7, seed=123).shard_of(u) for u in users]
        script = tmp_path / "router_child.py"
        script.write_text(
            "import json, sys\n"
            "from repro.fleet import ShardRouter\n"
            "users = [17, 'alice', ('eu', 42), -3, '租户']\n"
            "print(json.dumps([ShardRouter(7, seed=123).shard_of(u) for u in users]))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert json.loads(proc.stdout) == parent


class TestSnapshotRoundTrip:
    def test_state_survives_codec_round_trip(self):
        router = ShardRouter(4, seed=11, weights=[2.0, 1.0, 1.0, 1.0])
        restored_state = decode_value(encode_value(router.state_dict()))
        rebuilt = ShardRouter(4, seed=11, weights=[2.0, 1.0, 1.0, 1.0])
        rebuilt.load_state(restored_state)  # verifies, no raise
        users = list(range(800))
        assert [rebuilt.shard_of(u) for u in users] == [router.shard_of(u) for u in users]

    @pytest.mark.parametrize(
        "other",
        [
            dict(num_shards=5, seed=11, weights=None),
            dict(num_shards=4, seed=12, weights=None),
            dict(num_shards=4, seed=11, weights=[3.0, 1.0, 1.0, 1.0]),
        ],
    )
    def test_mismatched_configuration_rejected(self, other):
        captured = ShardRouter(4, seed=11).state_dict()
        with pytest.raises(SnapshotError):
            ShardRouter(**other).load_state(captured)


class TestRebalancing:
    @pytest.mark.parametrize("num_shards", [2, 4, 8])
    def test_growing_moves_only_the_new_share(self, num_shards):
        users = list(range(5000))
        before = ShardRouter(num_shards, seed=5)
        after = before.with_shards(num_shards + 1)
        moved = sum(1 for u in users if before.shard_of(u) != after.shard_of(u))
        expected = 1 / (num_shards + 1)
        # Consistent hashing: moved fraction ~ the new shard's share, far
        # below the (1 - 1/n) a modulo rehash would shuffle.
        assert moved / len(users) < 2 * expected

    def test_moved_keys_land_on_the_new_shard(self):
        users = list(range(3000))
        before = ShardRouter(3, seed=8)
        after = before.with_shards(4)
        for u in users:
            if before.shard_of(u) != after.shard_of(u):
                assert after.shard_of(u) == 3

    def test_shrinking_only_reroutes_the_lost_shard(self):
        users = list(range(3000))
        before = ShardRouter(4, seed=8)
        after = before.with_shards(3)
        for u in users:
            if before.shard_of(u) < 3:
                assert after.shard_of(u) == before.shard_of(u)


class TestShardMemo:
    """``shard_of`` memoizes per user id without changing any answer."""

    @settings(max_examples=50, deadline=None)
    @given(users=st.lists(USER_IDS, max_size=40))
    def test_memo_equals_uncached_hash(self, users):
        router = ShardRouter(5, seed=3, weights=[3.0, 1.0, 1.0, 2.0, 1.0])
        for user in users + users:  # the second pass is served by the memo
            assert router.shard_of(user) == router._hash_shard(user)

    @pytest.mark.parametrize("user", [0, 12345, -7, "alice", "", ("bob", 3), (1, (2, "x"))])
    def test_memo_equals_uncached_hash_per_id_shape(self, user):
        router = ShardRouter(4, seed=11)
        first = router.shard_of(user)
        assert router.shard_of(user) == first == router._hash_shard(user)

    def test_with_shards_keeps_a_separate_memo(self):
        users = list(range(2000)) + [f"u{i}" for i in range(200)]
        before = ShardRouter(3, seed=8)
        routed = [before.shard_of(u) for u in users]
        after = before.with_shards(4)
        assert after._shard_memo is not before._shard_memo
        assert not after._shard_memo
        assert [after.shard_of(u) for u in users] == [after._hash_shard(u) for u in users]
        assert [before.shard_of(u) for u in users] == routed
        assert sum(a != b for a, b in zip(routed, (after.shard_of(u) for u in users))) > 0

    def test_memo_is_not_snapshotted(self):
        router = ShardRouter(4, seed=2)
        captured = router.state_dict()
        for user in range(100):
            router.shard_of(user)
        assert router.state_dict() == captured
        assert "_shard_memo" not in json.dumps(encode_value(router.state_dict()))
