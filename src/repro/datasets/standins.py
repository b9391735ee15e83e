"""Synthetic stand-ins for Epinions, Slashdot, and Google Plus.

Each builder produces a :class:`SocialNetwork`: an undirected topology plus
a profile document per user, wrapped behind the restrictive ``q(v)``
interface on demand.  The topology generator layers Chung–Lu power-law
degrees *within* planted communities and sparse cross-community edges, then
keeps the largest connected component — reproducing the OSN signatures the
paper's technique depends on (many removable intra-community edges, few
cross-cutting ones, low conductance).

Scaling: the stand-ins are ~1/10 the node count of the SNAP originals so a
full figure sweep runs in seconds; the *shape* of every experiment is
preserved (see DESIGN.md §2).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Hashable, Optional

from repro.datastore.documents import DocumentStore
from repro.generators.communities import chung_lu_graph, power_law_degrees
from repro.graph.adjacency import Graph
from repro.graph.traversal import largest_connected_component
from repro.interface.api import RestrictedSocialAPI
from repro.interface.providers import (
    InMemoryGraphProvider,
    LatencyModelProvider,
    SocialProvider,
)
from repro.interface.ratelimit import RateLimiter
from repro.utils.rng import RngLike, ensure_rng

Node = Hashable

_WORDS = (
    "coffee code music travel books photography hiking running cooking art "
    "movies games startups science history soccer chess poetry gardening "
    "painting cycling fishing writing teaching parenting investing yoga"
).split()


@dataclasses.dataclass
class SocialNetwork:
    """A named attributed social network ready to be sampled.

    Attributes:
        name: Dataset label (Table I row name).
        graph: Undirected topology (largest connected component).
        profiles: Per-user attribute documents (may be empty for
            topology-only datasets, matching the paper's local datasets).
    """

    name: str
    graph: Graph
    profiles: DocumentStore
    # seed_node's memo: (graph it was taken of, node count, sorted nodes).
    _node_order: Optional[tuple] = dataclasses.field(
        default=None, init=False, repr=False, compare=False
    )

    def interface(
        self,
        rate_limiter: Optional[RateLimiter] = None,
        query_budget: Optional[int] = None,
        latency_distribution: Optional[str] = None,
        latency_scale: float = 1.0,
        latency_seed: int = 0,
        provider: Optional[SocialProvider] = None,
    ) -> RestrictedSocialAPI:
        """A fresh restrictive ``q(v)`` interface over this network.

        Args:
            rate_limiter: Provider throttle; default unlimited.
            query_budget: Optional hard unique-query cap.
            latency_distribution: When given (one of
                :data:`~repro.interface.providers.LATENCY_DISTRIBUTIONS`),
                serve responses through a seeded
                :class:`~repro.interface.providers.LatencyModelProvider`
                instead of the zero-latency default.
            latency_scale: Latency scale in simulated seconds.
            latency_seed: Seed for the per-user latency draws.
            provider: Fully custom provider stack over this network
                (e.g. a :class:`~repro.interface.providers.FlakyProvider`
                chain); mutually exclusive with ``latency_distribution``.
        """
        if provider is None:
            provider = InMemoryGraphProvider(self.graph, profiles=self.profiles)
            if latency_distribution is not None:
                provider = LatencyModelProvider(
                    provider,
                    distribution=latency_distribution,
                    scale=latency_scale,
                    seed=latency_seed,
                )
        elif latency_distribution is not None or latency_scale != 1.0 or latency_seed != 0:
            raise ValueError(
                "pass either a custom provider or latency_* options, not both "
                "(a custom provider carries its own latency configuration)"
            )
        return RestrictedSocialAPI(
            provider,
            rate_limiter=rate_limiter,
            query_budget=query_budget,
        )

    def seed_node(self, seed: RngLike = 0) -> Node:
        """A uniformly chosen start node for walks (reproducible).

        Draws from the sorted node list, which is memoized on first use
        and re-sorted only if ``graph`` is replaced or its node count
        changes — so repeated calls cost one draw, not one sort.
        """
        memo = self._node_order
        if memo is None or memo[0] is not self.graph or memo[1] != len(self.graph):
            memo = (self.graph, len(self.graph), sorted(self.graph.nodes()))
            self._node_order = memo
        return ensure_rng(seed).choice(memo[2])


def _community_power_law_graph(
    num_nodes: int,
    num_communities: int,
    exponent: float,
    min_degree: int,
    cross_fraction: float,
    seed: RngLike,
    clique_lo: int = 4,
    clique_hi: int = 9,
) -> Graph:
    """OSN-signature topology: dense micro-cliques + power-law overlay +
    sparse cross-community edges; largest connected component kept.

    Each community is a patchwork of micro-cliques (friend circles of
    ``clique_lo..clique_hi`` users, the source of real OSNs' high
    clustering — and of the near-complete neighborhoods Theorem 3's
    removal criterion certifies), overlaid with Chung–Lu power-law edges
    (hubs), chained for intra-community connectivity.  Communities connect
    through a ring plus a small fraction of random cross edges, producing
    the low-conductance regime the paper targets.

    Args:
        num_nodes: Total nodes before LCC restriction.
        num_communities: Number of equal-size communities.
        exponent: Power-law exponent of the hub overlay degrees.
        min_degree: Minimum expected overlay degree.
        cross_fraction: Cross-community edges as a fraction of
            intra-community edges (small: OSNs have few cross-cutting
            edges).
        seed: Randomness.
        clique_lo: Smallest micro-clique size (≥ 3).
        clique_hi: Largest micro-clique size.
    """
    rng = ensure_rng(seed)
    size = num_nodes // num_communities
    graph = Graph()
    offset = 0
    for _ in range(num_communities):
        members = list(range(offset, offset + size))
        graph.add_nodes(members)
        # Heterogeneous communities: each has its own micro-clique size
        # band (real OSN communities differ in density, which is what
        # makes trace-based convergence diagnostics track mixing — a walk
        # stuck in one community sees a locally-stationary but globally
        # wrong attribute stream).
        c_lo = rng.randint(clique_lo, max(clique_lo, clique_hi - 2))
        c_hi = c_lo + rng.randint(1, 3)
        # 1. Micro-cliques: consecutive chunks of the community.
        start = 0
        prev_rep = None
        while start < size:
            q = min(rng.randint(c_lo, c_hi), size - start)
            clique = members[start : start + q]
            for i in range(q):
                for j in range(i + 1, q):
                    graph.add_edge(clique[i], clique[j])
            # Chain cliques so the community is connected even before the
            # hub overlay lands.
            if prev_rep is not None:
                graph.add_edge(prev_rep, clique[0])
            prev_rep = clique[rng.randrange(q)]
            start += q
        # 2. Power-law hub overlay within the community (sparse); the
        # exponent jitter adds another axis of community heterogeneity.
        degs = power_law_degrees(
            size,
            exponent=exponent + rng.uniform(-0.2, 0.4),
            min_degree=1,
            max_degree=max(min_degree, size // 3),
            seed=rng,
        )
        extra = chung_lu_graph(degs, seed=rng)
        for u, v in extra.edges():
            graph.add_edge(offset + u, offset + v)
        offset += size
    intra_edges = graph.num_edges
    num_cross = max(num_communities - 1, int(intra_edges * cross_fraction))
    # Ring of communities guarantees inter-community connectivity; the rest
    # of the cross edges land between uniform random communities.
    for c in range(num_communities):
        u = c * size + rng.randrange(size)
        v = ((c + 1) % num_communities) * size + rng.randrange(size)
        if u != v:
            graph.add_edge(u, v)
    for _ in range(num_cross):
        cu, cv = rng.sample(range(num_communities), 2)
        u = cu * size + rng.randrange(size)
        v = cv * size + rng.randrange(size)
        if u != v:
            graph.add_edge(u, v)
    return largest_connected_component(graph)


def _attach_profiles(
    graph: Graph, seed: RngLike, with_description: bool
) -> DocumentStore:
    """Profile documents per node: age, activity, optional self-description."""
    rng = ensure_rng(seed)
    store = DocumentStore()
    for node in graph.nodes():
        doc = {
            "user_id": node,
            "age": max(13, int(rng.gauss(31, 10))),
            "posts": max(0, int(rng.expovariate(1 / 40.0))),
        }
        if with_description:
            # Length loosely increases with degree: active users write more.
            k = graph.degree(node)
            n_words = max(0, int(rng.gauss(4 + 1.5 * math.log1p(k), 3)))
            doc["self_description"] = " ".join(
                rng.choice(_WORDS) for _ in range(n_words)
            )
        store.insert(node, doc)
    return store


def epinions_like(seed: RngLike = 0, scale: float = 1.0) -> SocialNetwork:
    """Epinions stand-in (paper original: 26,588 nodes / 100,120 edges).

    Scaled to ~2,600 nodes by default; pass ``scale`` to grow/shrink.
    """
    n = max(200, int(2600 * scale))
    graph = _community_power_law_graph(
        num_nodes=n,
        num_communities=max(4, n // 260),
        exponent=2.2,
        min_degree=3,
        cross_fraction=0.02,
        seed=seed,
    )
    return SocialNetwork(
        name="epinions_like", graph=graph, profiles=_attach_profiles(graph, seed, False)
    )


def slashdot_a_like(seed: RngLike = 1, scale: float = 1.0) -> SocialNetwork:
    """Slashdot-A stand-in (paper original: 70,068 nodes / 428,714 edges).

    Scaled to ~3,500 nodes by default with a denser degree profile than the
    Epinions stand-in, mirroring the originals' ratio.
    """
    n = max(300, int(3500 * scale))
    graph = _community_power_law_graph(
        num_nodes=n,
        num_communities=max(5, n // 350),
        exponent=2.0,
        min_degree=4,
        cross_fraction=0.025,
        seed=seed,
    )
    return SocialNetwork(
        name="slashdot_a_like", graph=graph, profiles=_attach_profiles(graph, seed, False)
    )


def slashdot_b_like(seed: RngLike = 2, scale: float = 1.0) -> SocialNetwork:
    """Slashdot-B stand-in (paper original: 70,999 nodes / 436,453 edges).

    Same family as Slashdot-A with a different seed — the originals are two
    snapshots of the same site months apart.
    """
    n = max(300, int(3500 * scale))
    graph = _community_power_law_graph(
        num_nodes=n,
        num_communities=max(5, n // 350),
        exponent=2.0,
        min_degree=4,
        cross_fraction=0.025,
        seed=seed,
    )
    return SocialNetwork(
        name="slashdot_b_like", graph=graph, profiles=_attach_profiles(graph, seed, False)
    )


def google_plus_like(seed: RngLike = 3, scale: float = 1.0) -> SocialNetwork:
    """Google Plus stand-in: attributed network with self-descriptions.

    The paper crawled 240,276 users of the live network; the stand-in is a
    ~4,000-node attributed graph whose profile documents carry the
    ``self_description`` field that Figure 11(c) aggregates over.
    """
    n = max(300, int(4000 * scale))
    graph = _community_power_law_graph(
        num_nodes=n,
        num_communities=max(6, n // 330),
        exponent=2.4,
        min_degree=3,
        cross_fraction=0.015,
        seed=seed,
    )
    return SocialNetwork(
        name="google_plus_like",
        graph=graph,
        profiles=_attach_profiles(graph, seed, True),
    )
