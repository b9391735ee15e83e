"""Undirected simple graph stored as indexed adjacency maps.

This is the substrate every other subsystem builds on: the simulated social
network serves ``q(v)`` queries from it, the walk engines traverse it, and
the spectral/conductance analyses read it.  Design points:

* **Simple and undirected.**  The paper studies undirected relationships
  (its footnote 1) and the overlay construction needs simple-graph
  semantics, so self-loops are rejected and parallel edges collapse.
* **Indexed neighborhoods.**  Each node keeps its neighbors in an
  insertion-ordered mapping, which gives O(1) membership tests (the hot
  operation in the MTO removal criterion) *and* a stable deterministic
  ordering.  That dict row is the only adjacency store.
* **Tuple cache.**  ``neighbors_seq`` and the seeded draws index a
  per-node neighbor tuple built lazily from the row and dropped whenever
  the row changes, so a draw is one ``randrange(degree)`` over insertion
  order with no per-step copy.
* **Hashable node ids.**  Nodes can be ints, strings, or any hashable;
  generators use dense ints, dataset stand-ins use opaque user ids.
"""

from __future__ import annotations

import random
from typing import AbstractSet, Dict, FrozenSet, Hashable, Iterable, Iterator, Optional, Set, Tuple

from repro.errors import NodeNotFoundError, SelfLoopError

Node = Hashable
Edge = Tuple[Node, Node]


def normalize_edge(u: Node, v: Node) -> Edge:
    """Return a canonical (order-independent) key for the edge ``{u, v}``.

    Node ids of mixed types are ordered by ``(type name, repr)`` so the
    canonical form is deterministic even when ids are not mutually
    comparable.
    """
    try:
        return (u, v) if u <= v else (v, u)  # type: ignore[operator]
    except TypeError:
        ku = (type(u).__name__, repr(u))
        kv = (type(v).__name__, repr(v))
        return (u, v) if ku <= kv else (v, u)


class Graph:
    """Mutable undirected simple graph with indexed neighborhoods.

    Example:
        >>> g = Graph()
        >>> g.add_edge(1, 2)
        True
        >>> g.add_edge(2, 3)
        True
        >>> sorted(g.neighbors(2))
        [1, 3]
        >>> g.degree(2)
        2
    """

    def __init__(self, edges: Iterable[Edge] | None = None) -> None:
        """Create a graph, optionally from an iterable of ``(u, v)`` pairs."""
        # Per-node insertion-ordered neighbor index (dict keys double as an
        # ordered set: O(1) membership, deterministic iteration).
        self._adj: Dict[Node, Dict[Node, None]] = {}
        # node -> its row as a tuple (what seeded draws index); filled
        # lazily, dropped by every change to that node's row.
        self._seq: Dict[Node, Tuple[Node, ...]] = {}
        self._num_edges = 0
        if edges is not None:
            self.add_edges(edges)

    # ------------------------------------------------------------------
    # construction / mutation
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        """Insert an isolated node (no-op if it already exists)."""
        self._adj.setdefault(node, {})

    def add_nodes(self, nodes: Iterable[Node]) -> None:
        """Insert many nodes."""
        for node in nodes:
            self.add_node(node)

    def add_edge(self, u: Node, v: Node) -> bool:
        """Insert the undirected edge ``{u, v}``, creating endpoints as needed.

        Returns:
            ``True`` if the edge was new, ``False`` if it already existed.

        Raises:
            SelfLoopError: If ``u == v``.
        """
        if u == v:
            raise SelfLoopError(u)
        nu = self._adj.setdefault(u, {})
        if v in nu:
            return False
        nu[v] = None
        self._adj.setdefault(v, {})[u] = None
        self._seq.pop(u, None)
        self._seq.pop(v, None)
        self._num_edges += 1
        return True

    def add_edges(self, edges: Iterable[Edge]) -> int:
        """Insert many edges; returns how many were new."""
        added = 0
        for u, v in edges:
            if self.add_edge(u, v):
                added += 1
        return added

    def remove_edge(self, u: Node, v: Node) -> bool:
        """Delete the edge ``{u, v}`` if present.

        Returns:
            ``True`` if an edge was removed, ``False`` if it did not exist.

        Raises:
            NodeNotFoundError: If either endpoint is not a node.
        """
        if u not in self._adj:
            raise NodeNotFoundError(u)
        if v not in self._adj:
            raise NodeNotFoundError(v)
        if v not in self._adj[u]:
            return False
        del self._adj[u][v]
        del self._adj[v][u]
        self._seq.pop(u, None)
        self._seq.pop(v, None)
        self._num_edges -= 1
        return True

    def remove_node(self, node: Node) -> None:
        """Delete a node and all incident edges.

        Raises:
            NodeNotFoundError: If the node does not exist.
        """
        if node not in self._adj:
            raise NodeNotFoundError(node)
        for nbr in list(self._adj[node]):
            self.remove_edge(node, nbr)
        del self._adj[node]
        self._seq.pop(node, None)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._adj)

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``|V|``."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``|E|``."""
        return self._num_edges

    def nodes(self) -> Iterator[Node]:
        """Iterate over all node ids."""
        return iter(self._adj)

    def edges(self) -> Iterator[Edge]:
        """Iterate over each undirected edge exactly once (canonical order)."""
        seen: Set[Edge] = set()
        for u, nbrs in self._adj.items():
            for v in nbrs:
                key = normalize_edge(u, v)
                if key not in seen:
                    seen.add(key)
                    yield key

    def has_node(self, node: Node) -> bool:
        """Whether ``node`` is in the graph."""
        return node in self._adj

    def has_edge(self, u: Node, v: Node) -> bool:
        """Whether the undirected edge ``{u, v}`` is present."""
        nbrs = self._adj.get(u)
        return nbrs is not None and v in nbrs

    def neighbors(self, node: Node) -> FrozenSet[Node]:
        """The neighborhood ``N(node)`` as an immutable set.

        This is exactly what the paper's ``q(v)`` interface returns for a
        user, which is why it is frozen: callers must not mutate the graph
        through a query result.

        Raises:
            NodeNotFoundError: If the node does not exist.
        """
        try:
            return frozenset(self._adj[node])
        except KeyError:
            raise NodeNotFoundError(node) from None

    def neighbors_view(self, node: Node) -> AbstractSet[Node]:
        """Internal set-like neighborhood view — for hot loops only.

        Callers must not mutate the graph while holding the view; use
        :meth:`add_edge` / :meth:`remove_edge`.  Exposed because copying
        neighborhoods on every random-walk step dominates runtime on large
        graphs.

        Raises:
            NodeNotFoundError: If the node does not exist.
        """
        try:
            return self._adj[node].keys()
        except KeyError:
            raise NodeNotFoundError(node) from None

    def neighbors_seq(self, node: Node) -> Tuple[Node, ...]:
        """The neighborhood as a stable insertion-ordered tuple.

        The tuple is cached per node and rebuilt lazily after mutations, so
        repeated calls between mutations are O(1).  Ordering follows edge
        insertion order, which is deterministic for deterministically built
        graphs — the property the seeded walk engines rely on for
        reproducible uniform draws without sorting.

        Raises:
            NodeNotFoundError: If the node does not exist.
        """
        seq = self._seq.get(node)
        if seq is None:
            try:
                seq = self._seq[node] = tuple(self._adj[node])
            except KeyError:
                raise NodeNotFoundError(node) from None
        return seq

    def random_neighbor(self, node: Node, rng: random.Random) -> Optional[Node]:
        """Uniformly draw one neighbor of ``node`` in O(1).

        Returns ``None`` for isolated nodes.  Deterministic for a fixed
        ``rng`` state because draws index the stable neighbor tuple.

        Raises:
            NodeNotFoundError: If the node does not exist.
        """
        seq = self.neighbors_seq(node)
        return seq[rng.randrange(len(seq))] if seq else None

    def degree(self, node: Node) -> int:
        """``k_node = |N(node)|``.

        Raises:
            NodeNotFoundError: If the node does not exist.
        """
        try:
            return len(self._adj[node])
        except KeyError:
            raise NodeNotFoundError(node) from None

    def common_neighbors(self, u: Node, v: Node) -> FrozenSet[Node]:
        """``N(u) ∩ N(v)`` — the quantity at the heart of Theorem 3.

        Raises:
            NodeNotFoundError: If either node does not exist.
        """
        if u not in self._adj:
            raise NodeNotFoundError(u)
        if v not in self._adj:
            raise NodeNotFoundError(v)
        a, b = self._adj[u], self._adj[v]
        if len(b) < len(a):
            a, b = b, a
        return frozenset(x for x in a if x in b)

    def total_degree(self) -> int:
        """Sum of all degrees, i.e. ``2|E|`` — the SRW stationary normalizer."""
        return 2 * self._num_edges

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        """Deep copy of the topology (node ids are shared, rows are not).

        Rows keep their insertion order, so the copy's seeded draws equal
        the original's; its neighbor tuples are rebuilt lazily.
        """
        g = Graph()
        g._adj = {node: dict(nbrs) for node, nbrs in self._adj.items()}
        g._num_edges = self._num_edges
        return g

    def subgraph(self, nodes: Iterable[Node]) -> "Graph":
        """Induced subgraph on ``nodes`` (missing ids are ignored)."""
        keep = {n for n in nodes if n in self._adj}
        g = Graph()
        for n in keep:
            g.add_node(n)
        for n in keep:
            for m in self._adj[n]:
                if m in keep:
                    g.add_edge(n, m)
        return g

    def relabeled(self) -> tuple["Graph", Dict[Node, int]]:
        """Copy with nodes relabeled to ``0..n-1`` in iteration order.

        Returns:
            ``(graph, mapping)`` where ``mapping[original_id] = new_int_id``.
            Used by the spectral analysis to index matrices.
        """
        mapping = {node: i for i, node in enumerate(self._adj)}
        g = Graph()
        for node in self._adj:
            g.add_node(mapping[node])
        for u, v in self.edges():
            g.add_edge(mapping[u], mapping[v])
        return g, mapping

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Graph(n={self.num_nodes}, m={self.num_edges})"
