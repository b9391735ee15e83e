"""Conductance per the paper's Definition 3, and cross-cutting edges.

The paper defines the conductance of a cut ``(S, S̄)`` as::

    φ(S) = |cut(S, S̄)| / min(|edges incident to S|, |edges incident to S̄|)

Note the denominator counts *edges with at least one endpoint* in the side
(each internal edge once), not the degree-sum volume — the running example
pins this down: the barbell's Φ = 1/(C(11,2) + 1) = 1/56, i.e. 55 internal
edges + 1 bridge in the denominator.

A cross-cutting edge (Definition 4) is an edge crossing *some* cut that
attains the minimum conductance.  Finding the minimum is NP-hard in general
(Theorem 1), so:

* :func:`min_conductance_exact` enumerates all cuts with a Gray-code walk
  (O(2^n) cuts, one neighbor-bitmask popcount per step) — practical to
  ~22 nodes, which covers the running example and the Figure 10 graphs'
  components;
* :func:`sweep_conductance` runs the standard Fiedler-vector sweep for an
  upper bound on larger graphs.
"""

from __future__ import annotations

import dataclasses
import math
from typing import AbstractSet, FrozenSet, Hashable, Set, Tuple

import numpy as np

from repro.graph.adjacency import Graph, normalize_edge

Node = Hashable
Edge = Tuple[Node, Node]


@dataclasses.dataclass(frozen=True)
class CutResult:
    """A cut and its conductance.

    Attributes:
        conductance: φ(S) under the paper's definition.
        side: The smaller-incidence side ``S`` as a frozenset of nodes.
        cut_edges: The edges crossing the cut.
    """

    conductance: float
    side: FrozenSet[Node]
    cut_edges: FrozenSet[Edge]


def cut_conductance(graph: Graph, side: AbstractSet[Node]) -> float:
    """φ(S) for an explicit side ``S`` (Definition 3/4's ratio).

    Args:
        graph: Graph with at least one edge.
        side: Non-empty proper subset of the nodes.

    Raises:
        ValueError: If ``side`` is empty, covers all nodes, or contains
            unknown nodes.
    """
    s = set(side)
    if not s:
        raise ValueError("side must be non-empty")
    for node in s:
        if not graph.has_node(node):
            raise ValueError(f"node {node!r} not in graph")
    if len(s) >= graph.num_nodes:
        raise ValueError("side must be a proper subset of the nodes")
    cut = 0
    incident_s = 0
    for u, v in graph.edges():
        u_in = u in s
        v_in = v in s
        if u_in or v_in:
            incident_s += 1
        if u_in != v_in:
            cut += 1
    incident_sbar = graph.num_edges - incident_s + cut  # edges touching S̄
    denom = min(incident_s, incident_sbar)
    if denom == 0:
        return math.inf
    return cut / denom


def cut_conductance_volume(graph: Graph, side: AbstractSet[Node]) -> float:
    """Standard (degree-volume) conductance of a cut.

    ``|cut| / min(vol(S), vol(S̄))`` with ``vol(S) = Σ_{v∈S} k_v`` — the
    textbook definition the mixing-time inequality (eq. 3, Alon/Sinclair)
    is stated for.  The paper's Definition 3 counts *edges incident* to a
    side instead; the two differ by at most a factor 2 (internal edges
    count twice in the volume).

    Raises:
        ValueError: Same conditions as :func:`cut_conductance`.
    """
    s = set(side)
    if not s:
        raise ValueError("side must be non-empty")
    for node in s:
        if not graph.has_node(node):
            raise ValueError(f"node {node!r} not in graph")
    if len(s) >= graph.num_nodes:
        raise ValueError("side must be a proper subset of the nodes")
    cut = 0
    vol_s = sum(graph.degree(v) for v in s)
    for u, v in graph.edges():
        if (u in s) != (v in s):
            cut += 1
    vol_sbar = graph.total_degree() - vol_s
    denom = min(vol_s, vol_sbar)
    if denom == 0:
        return math.inf
    return cut / denom


def min_conductance_volume_exact(graph: Graph, max_nodes: int = 18) -> CutResult:
    """Minimum *volume* conductance by subset enumeration (small graphs).

    Used to validate the eq. (3) sandwich, which is stated for the
    textbook conductance.  Plain subset loop (not Gray-coded), so keep
    ``max_nodes`` modest.

    Raises:
        ValueError: If the graph is too large/small or edgeless.
    """
    n = graph.num_nodes
    if n < 2:
        raise ValueError("need at least two nodes")
    if n > max_nodes:
        raise ValueError(f"exact volume enumeration limited to {max_nodes} nodes")
    if graph.num_edges == 0:
        raise ValueError("conductance undefined without edges")
    nodes = list(graph.nodes())
    best = math.inf
    best_side: FrozenSet[Node] = frozenset()
    for mask in range(1, 1 << (n - 1)):
        side = {nodes[i + 1] for i in range(n - 1) if (mask >> i) & 1}
        if not side:
            continue
        phi = cut_conductance_volume(graph, side)
        if phi < best:
            best = phi
            best_side = frozenset(side)
    return CutResult(conductance=best, side=best_side, cut_edges=_cut_edges(graph, best_side))


def _cut_edges(graph: Graph, side: AbstractSet[Node]) -> FrozenSet[Edge]:
    s = set(side)
    return frozenset(normalize_edge(u, v) for u, v in graph.edges() if (u in s) != (v in s))


def min_conductance_exact(graph: Graph, max_nodes: int = 22) -> CutResult:
    """Minimum-conductance cut by Gray-code enumeration of all 2^(n-1) cuts.

    Each Gray-code step flips one node between sides; one popcount of the
    node's neighbor bitmask against S's bitmask gives its neighbors in S,
    from which the cut size and S's internal edge count update.  The total
    cost is O(2^n) popcounts — seconds at n = 22 (the running example),
    and instant below n = 16 where the tests live.

    Args:
        graph: Connected graph with 2..``max_nodes`` nodes and ≥ 1 edge.
        max_nodes: Safety bound; raise instead of looping for minutes.

    Returns:
        The minimizing cut (ties broken by the first Gray-code hit).

    Raises:
        ValueError: If the graph is too large, too small, or edgeless.
    """
    n = graph.num_nodes
    if n < 2:
        raise ValueError("need at least two nodes")
    if n > max_nodes:
        raise ValueError(
            f"exact enumeration limited to {max_nodes} nodes (got {n}); "
            "use sweep_conductance for larger graphs"
        )
    if graph.num_edges == 0:
        raise ValueError("conductance undefined without edges")
    nodes = list(graph.nodes())
    index = {v: i for i, v in enumerate(nodes)}
    adj_mask = [0] * n
    for i, v in enumerate(nodes):
        for w in graph.neighbors_view(v):
            adj_mask[i] |= 1 << index[w]
    degree = [bin(mask).count("1") for mask in adj_mask]
    m = graph.num_edges

    # Fix node 0 in S̄ (cuts are symmetric), enumerate memberships of the
    # remaining n-1 nodes by Gray code: S's bitmask is the code shifted
    # past node 0, and step ``code`` flips the node of its lowest set bit.
    # Gray codes past 0 are never 0, so S is never empty.  bin().count
    # keeps Python 3.9 (no int.bit_count).
    s_mask = 0
    cut = 0  # edges between S and S̄
    edges_in_s = 0  # edges entirely inside S
    best_phi = math.inf
    best_mask = 0
    for code in range(1, 1 << (n - 1)):
        bit = (code & -code) << 1
        x = bit.bit_length() - 1
        nbrs_in_s = bin(adj_mask[x] & s_mask).count("1")
        if s_mask & bit:
            # x leaves S: its S-edges become cut, its S̄-edges stop being cut.
            cut += 2 * nbrs_in_s - degree[x]
            edges_in_s -= nbrs_in_s
        else:
            cut += degree[x] - 2 * nbrs_in_s
            edges_in_s += nbrs_in_s
        s_mask ^= bit
        # Edges incident to S: inside S or cut; to S̄: all the others.
        denom = min(edges_in_s + cut, m - edges_in_s)
        phi = cut / denom if denom > 0 else math.inf
        if phi < best_phi:
            best_phi = phi
            best_mask = s_mask

    side = frozenset(nodes[i] for i in range(1, n) if (best_mask >> i) & 1)
    return CutResult(conductance=best_phi, side=side, cut_edges=_cut_edges(graph, side))


def cross_cutting_edges(graph: Graph, max_nodes: int = 18, tol: float = 1e-12) -> FrozenSet[Edge]:
    """All cross-cutting edges per Definition 4 (exact, small graphs only).

    An edge is cross-cutting iff it crosses *some* cut attaining the
    minimum conductance, so all minimizing cuts are collected and their cut
    edges unioned.

    Args:
        graph: Connected graph with 2..``max_nodes`` nodes.
        max_nodes: Safety bound (the second enumeration pass stores cut
            sets, so the bound is tighter than for
            :func:`min_conductance_exact`).
        tol: Ties within ``tol`` of the minimum count as minimizing.

    Returns:
        The set of cross-cutting edges (canonical order).

    Raises:
        ValueError: If the graph is too large/small or edgeless.
    """
    best = min_conductance_exact(graph, max_nodes=max_nodes)
    n = graph.num_nodes
    nodes = list(graph.nodes())
    crossing: Set[Edge] = set()
    # Second pass: re-enumerate, collect every side attaining the minimum.
    # Simple subset loop is fine here given max_nodes <= 18.
    for mask in range(1, 1 << (n - 1)):
        side = {nodes[i + 1] for i in range(n - 1) if (mask >> i) & 1}
        if not side:
            continue
        if abs(cut_conductance(graph, side) - best.conductance) <= tol:
            crossing |= _cut_edges(graph, side)
    return frozenset(crossing)


def sweep_conductance(graph: Graph) -> CutResult:
    """Fiedler-vector sweep cut: an upper bound on the minimum conductance.

    Sorts nodes by the second eigenvector of the normalized Laplacian and
    evaluates every prefix cut, returning the best.  By Cheeger's
    inequality the result is within ``sqrt(2 Φ)`` of optimal — good enough
    to characterize the dataset stand-ins and large overlays.

    Args:
        graph: Connected graph with ≥ 3 nodes.

    Raises:
        ValueError: For graphs where the spectrum is undefined.
    """
    nodes = list(graph.nodes())
    n = len(nodes)
    if n < 3:
        raise ValueError("sweep needs at least 3 nodes")
    index = {v: i for i, v in enumerate(nodes)}
    degrees = np.array([graph.degree(v) for v in nodes], dtype=float)
    if np.any(degrees == 0):
        raise ValueError("graph has isolated nodes")
    inv_sqrt = 1.0 / np.sqrt(degrees)
    S = np.zeros((n, n))
    for i, u in enumerate(nodes):
        for v in graph.neighbors_view(u):
            S[i, index[v]] = inv_sqrt[i] * inv_sqrt[index[v]]
    eigvals, eigvecs = np.linalg.eigh(S)
    fiedler = eigvecs[:, -2] * inv_sqrt  # second-largest of S ↔ Fiedler of L
    order = np.argsort(fiedler)

    best_phi = math.inf
    best_k = 1
    side: Set[Node] = set()
    cut = 0
    edges_in_s = 0
    m = graph.num_edges
    for k in range(n - 1):
        x = nodes[order[k]]
        nbrs_in_s = sum(1 for y in graph.neighbors_view(x) if y in side)
        cut += graph.degree(x) - 2 * nbrs_in_s
        edges_in_s += nbrs_in_s
        side.add(x)
        incident_s = edges_in_s + cut
        edges_in_sbar = m - edges_in_s - cut
        denom = min(incident_s, edges_in_sbar + cut)
        if denom > 0:
            phi = cut / denom
            if phi < best_phi:
                best_phi = phi
                best_k = k + 1
    best_side = frozenset(nodes[order[i]] for i in range(best_k))
    return CutResult(
        conductance=best_phi,
        side=best_side,
        cut_edges=_cut_edges(graph, best_side),
    )


def cheeger_bounds(graph: Graph) -> Tuple[float, float]:
    """Spectral bounds ``(gap/2, sqrt(2·gap))`` sandwiching Φ(G).

    Uses the normalized-Laplacian gap ``1 − λ2``; by Cheeger's inequality
    ``gap/2 ≤ Φ ≤ sqrt(2·gap)`` (for the standard volume-based conductance;
    the paper's incidence-count variant is within a factor 2 of it, which
    these bounds absorb in practice and tests assert only directionally).

    Raises:
        ValueError: For graphs where the spectrum is undefined.
    """
    from repro.analysis.spectral import _symmetric_spectrum

    eigs = _symmetric_spectrum(graph)
    if len(eigs) < 2:
        raise ValueError("need at least two nodes")
    gap = 1.0 - float(eigs[1])
    return (gap / 2.0, math.sqrt(max(0.0, 2.0 * gap)))
