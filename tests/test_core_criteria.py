"""Unit tests for Theorems 3, 4, 5 (removal / replacement criteria)."""

import pytest

from repro.core import (
    extension_criterion,
    is_removable,
    removal_criterion,
    replacement_allowed,
)
from repro.core.criteria import counts_criterion, neighborhoods_removable
from repro.generators import complete_graph, paper_barbell
from repro.graph import Graph


class TestRemovalCriterion:
    def test_paper_fig3_example(self):
        # Fig 3: u, v share 5 common neighbors and have one other edge
        # each → ku = kv = 7; the edge is provably non-cross-cutting.
        assert removal_criterion(5, 7, 7) is True

    def test_clique_edge_removable(self):
        # In K11 + bridge, an intra-clique edge has 9 common neighbors,
        # degrees 10/10 (or 11 at the bridge endpoint).
        assert removal_criterion(9, 10, 10) is True
        assert removal_criterion(9, 11, 10) is True

    def test_bridge_edge_not_removable(self):
        # The barbell bridge: no common neighbors, degrees 11/11.
        assert removal_criterion(0, 11, 11) is False

    def test_tightness_boundary(self):
        # Corollary 1: when the inequality fails, a cross-cutting
        # construction exists — so the criterion must answer False.
        # Even max degree m: removable iff common >= m - 1.
        assert removal_criterion(9, 10, 10) is True
        assert removal_criterion(8, 10, 10) is False
        # Odd max degree m: removable iff common >= m - 2.
        assert removal_criterion(9, 11, 10) is True
        assert removal_criterion(8, 11, 10) is False

    def test_no_common_neighbors_small_degree(self):
        # Two degree-1 endpoints: ceil(0/2)+1 = 1 > 0.5.
        assert removal_criterion(0, 1, 1) is True
        assert removal_criterion(0, 2, 2) is False

    def test_invalid(self):
        with pytest.raises(ValueError):
            removal_criterion(-1, 3, 3)
        with pytest.raises(ValueError):
            removal_criterion(0, 0, 3)


class TestExtensionCriterion:
    def test_reduces_to_theorem3_with_empty_cache(self):
        for common, ku, kv in [(5, 7, 7), (0, 11, 11), (9, 10, 10), (3, 8, 9)]:
            assert extension_criterion(common, ku, kv, {}) == removal_criterion(common, ku, kv)

    def test_fig5_style_unlock(self):
        # §III-D: extra degree knowledge about common neighbors certifies
        # edges Theorem 3 alone cannot.  With ku = kv = 5 and two common
        # neighbors of known degree 2: Thm 3 gives ceil(2/2)+1 = 2 ≯ 2.5,
        # Thm 5 gives ceil(0/2)+1+½(2+2) = 3 > 2.5.
        assert removal_criterion(2, 5, 5) is False
        assert extension_criterion(2, 5, 5, {"w1": 2, "w2": 2}) is True

    def test_degree_cache_outside_2_3_ignored(self):
        # A known degree of 4+ contributes nothing (N* excludes it).
        assert extension_criterion(1, 4, 4, {"w": 4}) == removal_criterion(1, 4, 4)
        assert extension_criterion(1, 4, 4, {"w": 10}) is False

    def test_degree2_contributes_more_than_degree3(self):
        # (4 - k_w)/2 bonus: degree 2 adds 1.0, degree 3 adds 0.5.
        # ku=kv=5: Thm 3 needs ceil(n/2)+1 > 2.5.
        assert extension_criterion(2, 5, 5, {"a": 3}) is False
        assert extension_criterion(2, 5, 5, {"a": 2}) is True

    def test_invalid(self):
        with pytest.raises(ValueError):
            extension_criterion(-1, 3, 3, {})
        with pytest.raises(ValueError):
            extension_criterion(0, 0, 3, {})
        with pytest.raises(ValueError):
            extension_criterion(1, 5, 5, {"a": 2, "b": 3})  # |N*| > common


class TestCountsCriterion:
    def test_matches_the_reference_exhaustively(self):
        # Every c ≤ 16, k_u, k_v ≤ 17 and (c2, c3) with c2 + c3 ≤ c; the
        # reference is Theorem 3 itself when nothing is cached.
        checked = 0
        for c in range(17):
            for c2 in range(c + 1):
                for c3 in range(c - c2 + 1):
                    cache = {("deg2", i): 2 for i in range(c2)}
                    cache.update({("deg3", i): 3 for i in range(c3)})
                    for ku in range(1, 18):
                        for kv in range(1, 18):
                            if cache:
                                expected = extension_criterion(c, ku, kv, cache)
                            else:
                                expected = removal_criterion(c, ku, kv)
                            got = counts_criterion(c, c2, c3, max(ku, kv))
                            assert got == expected, (c, c2, c3, ku, kv)
                            checked += 1
        assert checked == 280_041


class _RecordingSet(set):
    """A neighborhood that notes whether the criterion intersected it."""

    intersected = False

    def __and__(self, other):
        self.intersected = True
        return set.__and__(self, other)


class TestNeighborhoodsRemovable:
    def test_matches_the_reference_and_bounds_fire_exactly_where_no_cache_can_certify(self):
        # Every k_u, k_v ≤ 17, every common count the degrees allow and
        # every split of the common neighbors into cached degree 2, cached
        # degree 3 and the rest (cached at 4, or unknown).  The degree
        # bound must skip the intersection, and the count bound the degree
        # lookups, exactly when even an all-degree-2 cache could not
        # certify the edge.
        for ku in range(1, 18):
            for kv in range(1, 18):
                kmin, kmax = min(ku, kv), max(ku, kv)
                for c in range(kmin):
                    common = [("w", i) for i in range(c)]
                    counted = 2 * kmin > kmax and 2 * (c + 1) > kmax
                    for c2 in range(c + 1):
                        for c3 in range(c - c2 + 1):
                            degrees = [2] * c2 + [3] * c3 + [4, None] * c
                            cache = dict(zip(common, degrees))
                            nu = _RecordingSet(["v", *common, *(("u-only", i) for i in range(ku - 1 - c))])
                            nv = _RecordingSet(["u", *common, *(("v-only", i) for i in range(kv - 1 - c))])
                            looked_up = []

                            def degree_of(w):
                                looked_up.append(w)
                                return cache[w]

                            got = neighborhoods_removable(nu, nv, degree_of)
                            known = {w: k for w, k in cache.items() if k is not None}
                            assert got == extension_criterion(c, ku, kv, known), (ku, kv, c, c2, c3)
                            assert nu.intersected == (2 * kmin > kmax), (ku, kv, c)
                            assert len(looked_up) == (c if counted else 0), (ku, kv, c)
                            if c2 == c:
                                assert got == counted

    def test_uncached_degrees_count_for_nothing(self):
        nu = {"v", "a", "b", "x"}
        nv = {"u", "a", "b", "y"}
        # k = 4 / 4, common {a, b}: Theorem 3 says no; one degree-2 or
        # degree-3 member says yes; other degrees count for nothing.
        assert neighborhoods_removable(nu, nv) is False
        assert neighborhoods_removable(nu, nv, {"a": 2}.get) is True
        assert neighborhoods_removable(nu, nv, {"a": 3}.get) is True
        assert neighborhoods_removable(nu, nv, {"a": 4, "b": 1}.get) is False


class TestIsRemovable:
    def test_on_barbell_clique_edge(self):
        g = paper_barbell()
        assert is_removable(g, 1, 2) is True  # intra-clique
        assert is_removable(g, 0, 11) is False  # the bridge

    def test_not_an_edge(self):
        g = complete_graph(3)
        g.add_node(99)
        with pytest.raises(ValueError):
            is_removable(g, 0, 99)

    def test_cached_degrees_enable_removal(self):
        # Square with one diagonal pair connected through two paths:
        # u-a-v, u-b-v, edge (u,v); all degrees small.
        g = Graph([("u", "v"), ("u", "a"), ("a", "v"), ("u", "b"), ("b", "v"), ("u", "c"), ("v", "d")])
        # ku = kv = 4, common = {a, b}: Thm 3: ceil(2/2)+1 = 2 > 2 → False.
        assert is_removable(g, "u", "v") is False
        # With cached degrees k_a = k_b = 2: bonus 2.0 → 1+1+2 = 4 > 2.
        assert is_removable(g, "u", "v", cached_degrees={"a": 2, "b": 2}) is True


class TestReplacementAllowed:
    def test_only_degree_three(self):
        assert replacement_allowed(3) is True
        for k in (1, 2, 4, 5, 10):
            assert replacement_allowed(k) is False

    def test_invalid(self):
        with pytest.raises(ValueError):
            replacement_allowed(0)
