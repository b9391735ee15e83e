"""The virtual overlay topology MTO-Sampler walks on.

The sampler cannot modify the real social network; what it modifies is its
*own view* — the overlay graph G* (§I-C).  :class:`OverlayGraph` keeps, per
node, the set of edge modifications recorded so far (removals and
additions), and materializes a node's overlay neighborhood the first time
the walk needs it by combining the interface's query answer with those
modifications.  All bookkeeping is symmetric: removing ``(u, v)`` at ``u``
is visible from ``v`` whenever ``v`` is materialized, so the overlay is a
well-defined undirected graph at every instant.

Materialized neighborhoods are *indexed*: an insertion-ordered mapping for
O(1) membership plus a lazily cached neighbor tuple (dropped whenever the
row changes), so the walk's uniform draw is O(1) and deterministic under a
fixed seed without any sorting.
The ordering follows the interface's stable ``neighbor_seq`` (removal
filters preserve it; replacements append), which is itself deterministic
for deterministically built networks.  The sampler reads a row once per
draw through the private ``_row`` view, which iterates in that order too.

:func:`build_overlay_fixpoint` is the offline analogue used by the running
example (Fig. 1): apply Theorem 3 removals to a fully known graph until no
edge qualifies, optionally followed by Theorem 4 replacement passes —
producing the G* / G** whose conductances §II-D and §III report.
"""

from __future__ import annotations

import random
from typing import AbstractSet, Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.criteria import is_removable, replacement_allowed, replacement_target
from repro.errors import EdgeNotFoundError, SelfLoopError, WalkError
from repro.graph.adjacency import Graph
from repro.interface.api import BatchQueryResult, QueryResponse, RestrictedSocialAPI
from repro.utils.rng import RngLike, ensure_rng

Node = Hashable
Edge = Tuple[Node, Node]


def shared_overlay_of(samplers) -> Optional["OverlayGraph"]:
    """The one overlay every sampler in a group shares, or ``None``.

    Parallel MTO chains may walk a common :class:`OverlayGraph` so any
    chain's rewiring benefits all of them (§VI); group drivers and
    :class:`~repro.interface.session.SamplingSession` need to know whether
    that is the case to snapshot the overlay exactly once.  Returns the
    shared instance when every sampler exposes the *same* overlay object,
    and ``None`` when no sampler has one or the overlays differ (per-chain
    private overlays cannot be captured by one group snapshot).

    Args:
        samplers: Any iterable of walk samplers (overlay-less ones count
            as "no overlay" and are compatible only with an all-``None``
            group).
    """
    overlays = [getattr(s, "overlay", None) for s in samplers]
    shared = next((o for o in overlays if o is not None), None)
    if shared is None:
        return None
    return shared if all(o is shared for o in overlays) else None


class OverlayGraph:
    """Sampler-side virtual topology over a restrictive interface.

    Args:
        api: The interface supplying original neighborhoods (each
            materialization costs one billed query unless cached).

    Notes:
        Only *materialized* nodes (those the walk has queried) have overlay
        neighborhoods; modifications touching un-materialized nodes are
        recorded and applied lazily when those nodes are first seen.
    """

    def __init__(self, api: RestrictedSocialAPI) -> None:
        self._api = api
        # node -> insertion-ordered neighbor index (dict keys as ordered set)
        self._known: Dict[Node, Dict[Node, None]] = {}
        # node -> its row as a tuple (what seeded draws index); filled
        # lazily, dropped by every change to a materialized row.  A node
        # gets an entry only once materialized, so materializing a row
        # never leaves a stale tuple behind.
        self._seqs: Dict[Node, Tuple[Node, ...]] = {}
        self._removed: Dict[Node, Set[Node]] = {}
        # insertion-ordered so lazy application preserves determinism
        self._added: Dict[Node, Dict[Node, None]] = {}
        # original-graph degrees captured at materialization (free trace /
        # Theorem 5 knowledge without rebuilding cached responses)
        self._orig_degree: Dict[Node, int] = {}
        self._removal_count = 0
        self._replacement_count = 0
        # Bumped by every materialization, edge removal/addition and
        # load_state: a reader holding a replay of G* compares it to know
        # the overlay it replayed against is still the one in place.
        self._version = 0

    # ------------------------------------------------------------------
    # materialization
    # ------------------------------------------------------------------
    def _materialize(self, node: Node, resp: QueryResponse) -> None:
        removed = self._removed.get(node, ())
        nbrs = {v: None for v in resp.neighbor_seq if v != node and v not in removed}
        for v in self._added.get(node, ()):
            if v != node:
                nbrs[v] = None
        self._known[node] = nbrs
        self._orig_degree[node] = resp.degree
        self._version += 1

    def ensure_known(self, node: Node) -> None:
        """Materialize ``node``'s overlay neighborhood (queries if needed)."""
        if node in self._known:
            return
        self._materialize(node, self._api.query(node))

    def ensure_known_many(self, nodes: Iterable[Node]) -> BatchQueryResult:
        """Materialize several nodes through one batched interface call.

        Billing is identical to calling :meth:`ensure_known` per node, but
        the fetches share one rate-limiter pass and failures degrade
        gracefully: private or unknown members are reported in the result
        instead of raising, and budget exhaustion materializes the prefix
        that was still affordable.

        Args:
            nodes: Node ids to materialize; already-known ids are skipped.

        Returns:
            The underlying :class:`~repro.interface.api.BatchQueryResult`,
            so callers can see which members failed.
        """
        known = self._known
        missing = [n for n in dict.fromkeys(nodes) if n not in known]
        result = self._api.query_many(missing)
        for node, resp in result.responses.items():
            if node not in self._known:
                self._materialize(node, resp)
        return result

    def is_known(self, node: Node) -> bool:
        """Whether ``node`` has been materialized."""
        return node in self._known

    def known_nodes(self) -> Iterator[Node]:
        """Iterate over materialized nodes."""
        return iter(self._known)

    # ------------------------------------------------------------------
    # overlay queries (require materialization)
    # ------------------------------------------------------------------
    def neighbors(self, node: Node) -> FrozenSet[Node]:
        """Overlay neighborhood of a materialized node (an immutable copy).

        Raises:
            WalkError: If the node has not been materialized.
        """
        return frozenset(self._materialized(node))

    def neighbors_view(self, node: Node) -> AbstractSet[Node]:
        """Set-like view of a materialized neighborhood — no copy.

        For hot loops (the offline removal criterion's intersections).
        Callers must not mutate the overlay while holding the view.

        Raises:
            WalkError: If the node has not been materialized.
        """
        return self._materialized(node).keys()

    def _materialized(self, node: Node) -> Dict[Node, None]:
        row = self._known.get(node)
        if row is None:
            raise WalkError(f"node {node!r} not materialized in overlay")
        return row

    def _row(self, node: Node) -> Optional[AbstractSet[Node]]:
        # The sampler's per-draw read: degree, membership and draw order
        # from one lookup; ``None`` before materialization (never queries).
        row = self._known.get(node)
        return None if row is None else row.keys()

    def _seq(self, node: Node) -> Tuple[Node, ...]:
        # The cached row tuple; the overlay's own hot paths call this
        # rather than the public ``neighbors_seq``.
        seq = self._seqs.get(node)
        if seq is None:
            seq = self._seqs[node] = tuple(self._materialized(node))
        return seq

    def neighbors_seq(self, node: Node) -> Tuple[Node, ...]:
        """Stable neighbor tuple of a materialized node (cached, O(1)).

        Raises:
            WalkError: If the node has not been materialized.
        """
        return self._seq(node)

    def random_neighbor(self, node: Node, rng: random.Random) -> Optional[Node]:
        """Uniform O(1) draw from a materialized neighborhood.

        Consumes exactly one ``rng.randrange(degree)``; returns ``None``
        without drawing when the overlay leaves ``node`` isolated.

        Raises:
            WalkError: If the node has not been materialized.
        """
        seq = self._seq(node)
        return seq[rng.randrange(len(seq))] if seq else None

    def draw_many(self, nodes: Iterable[Node], rngs: Iterable[random.Random]) -> List[Optional[Node]]:
        """One :meth:`random_neighbor` draw per ``(node, rng)`` pair, in list order.

        Raises:
            WalkError: If a node has not been materialized.
        """
        return [self.random_neighbor(node, rng) for node, rng in zip(nodes, rngs)]

    def known_mask(self, nodes: Iterable[Node]) -> List[bool]:
        """Whether each node has been materialized."""
        known = self._known
        return [node in known for node in nodes]

    def known_degrees_many(self, nodes: Iterable[Node]) -> List[int]:
        """Overlay degree of each node; ``-1`` marks unmaterialized ids."""
        known = self._known
        return [len(known[node]) if node in known else -1 for node in nodes]

    def degree(self, node: Node) -> int:
        """Overlay degree ``k*_node`` of a materialized node.

        Raises:
            WalkError: If the node has not been materialized.
        """
        return len(self._materialized(node))

    def known_degree(self, node: Node) -> Optional[int]:
        """Overlay degree if materialized, else ``None`` (never queries)."""
        nbrs = self._known.get(node)
        return len(nbrs) if nbrs is not None else None

    def original_degree(self, node: Node) -> Optional[int]:
        """Original-graph degree captured at materialization, else ``None``.

        This is knowledge the walk already paid for with the ``q(node)``
        query; serving it from overlay bookkeeping keeps the hot path off
        the response cache entirely.
        """
        return self._orig_degree.get(node)

    def has_edge(self, u: Node, v: Node) -> bool:
        """Edge test from ``u``'s side (``u`` must be materialized).

        Raises:
            WalkError: If ``u`` has not been materialized.
        """
        return v in self._materialized(u)

    # ------------------------------------------------------------------
    # modifications
    # ------------------------------------------------------------------
    def _note_removed(self, u: Node, v: Node) -> None:
        self._removed.setdefault(u, set()).add(v)
        self._removed.setdefault(v, set()).add(u)
        self._added.get(u, {}).pop(v, None)
        self._added.get(v, {}).pop(u, None)

    def _note_added(self, u: Node, v: Node) -> None:
        self._added.setdefault(u, {})[v] = None
        self._added.setdefault(v, {})[u] = None
        self._removed.get(u, set()).discard(v)
        self._removed.get(v, set()).discard(u)

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove overlay edge ``(u, v)`` (both endpoints materialized or not).

        Raises:
            EdgeNotFoundError: If a materialized endpoint does not carry
                the edge.
        """
        for a, b in ((u, v), (v, u)):
            if a in self._known:
                if b not in self._known[a]:
                    raise EdgeNotFoundError(u, v)
        self._note_removed(u, v)
        for a, b in ((u, v), (v, u)):
            if a in self._known:
                self._known[a].pop(b, None)
                self._seqs.pop(a, None)
        self._removal_count += 1
        self._version += 1

    def add_edge(self, u: Node, v: Node) -> None:
        """Insert overlay edge ``(u, v)``.

        Raises:
            SelfLoopError: If ``u == v``.
        """
        if u == v:
            raise SelfLoopError(u)
        self._note_added(u, v)
        for a, b in ((u, v), (v, u)):
            if a in self._known:
                self._known[a][b] = None
                self._seqs.pop(a, None)
        self._version += 1

    def replace_edge(self, u: Node, v: Node, w: Node) -> None:
        """Theorem 4's operation: replace ``e_uv`` by ``e_uw``.

        Args:
            u: The pivot endpoint that keeps its edge.
            v: The degree-3 node losing the edge.
            w: The new far endpoint (must differ from ``u``).

        Raises:
            SelfLoopError: If ``w == u``.
            EdgeNotFoundError: If ``(u, v)`` is absent.
        """
        if w == u:
            raise SelfLoopError(u)
        self.remove_edge(u, v)
        self._removal_count -= 1  # counted as a replacement, not a removal
        self.add_edge(u, w)
        self._replacement_count += 1

    # ------------------------------------------------------------------
    # accounting / export
    # ------------------------------------------------------------------
    @property
    def removal_count(self) -> int:
        """Number of pure removals performed."""
        return self._removal_count

    @property
    def replacement_count(self) -> int:
        """Number of replacements performed."""
        return self._replacement_count

    @property
    def version(self) -> int:
        """Counter bumped by every change to G* (not part of the state)."""
        return self._version

    def state_dict(self) -> dict:
        """Serializable overlay state: G* minus anything re-derivable.

        Captures the insertion-ordered materialized neighborhoods (the
        ordering *is* the draw determinism — ``neighbors_seq`` and every
        seeded ``random_neighbor`` stream depend on it), the lazy
        removal/addition deltas for not-yet-materialized nodes, the
        original-graph degrees already paid for (§II-B: knowledge from
        billed queries that must never be re-billed), and the
        removal/replacement counters.  The ``neighbors_seq`` tuple cache
        is derived state and deliberately excluded.
        """
        return {
            "known": {node: list(nbrs) for node, nbrs in self._known.items()},
            "removed": {node: set(peers) for node, peers in self._removed.items() if peers},
            "added": {node: list(peers) for node, peers in self._added.items() if peers},
            "orig_degree": dict(self._orig_degree),
            "removal_count": self._removal_count,
            "replacement_count": self._replacement_count,
        }

    def load_state(self, state: dict) -> None:
        """Replace this overlay's bookkeeping with a captured state.

        The interface binding is untouched — restore into an overlay
        wrapping a fresh :class:`RestrictedSocialAPI` over the same
        network and the walk continues without re-querying any
        materialized node.

        Args:
            state: Output of :meth:`state_dict`.
        """
        self._known = {node: dict.fromkeys(nbrs) for node, nbrs in state["known"].items()}
        self._removed = {node: set(peers) for node, peers in state["removed"].items()}
        self._added = {node: dict.fromkeys(peers) for node, peers in state["added"].items()}
        self._orig_degree = dict(state["orig_degree"])
        self._removal_count = int(state["removal_count"])
        self._replacement_count = int(state["replacement_count"])
        self._seqs = {}
        self._version += 1

    def known_subgraph(self) -> Graph:
        """The overlay restricted to materialized nodes, as a plain graph.

        Used by experiments that measure the overlay's conductance/SLEM
        after the walk visited everything (§V-A.3's theoretical measure).
        """
        g = Graph()
        for node in self._known:
            g.add_node(node)
        for u, nbrs in self._known.items():
            for v in nbrs:
                if v in self._known:
                    g.add_edge(u, v)
        return g


def build_overlay_fixpoint(
    graph: Graph,
    use_replacement: bool = False,
    seed: RngLike = 0,
    max_passes: int = 100,
) -> Graph:
    """Offline overlay construction: apply Theorem 3 (and optionally
    Theorem 4) to a fully known graph until fixpoint.

    The criterion is evaluated against the *current* overlay state — the
    progressive semantics Algorithm 1 has on-the-fly (see DESIGN.md §3.1;
    a single simultaneous pass would disconnect dense graphs).  Edges are
    visited in random order each pass (seeded shuffles over the graph's
    stable insertion order — no sorting); passes repeat until a pass makes
    no change.

    Args:
        graph: Original topology (not modified).
        use_replacement: After removals reach fixpoint, run one Theorem 4
            replacement pass (each degree-3 node ``v`` donates one edge
            ``e_uv → e_uw``), then re-run removal passes — producing G**.
        seed: Randomness for edge visit order and replacement choices.
        max_passes: Safety bound on total passes.

    Returns:
        The overlay graph (a new :class:`Graph`).

    Raises:
        WalkError: If ``max_passes`` is exhausted (should not happen:
            removals strictly decrease the edge count).
    """
    rng = ensure_rng(seed)
    overlay = graph.copy()

    def removal_pass() -> bool:
        changed = False
        edges = list(overlay.edges())
        rng.shuffle(edges)
        for u, v in edges:
            if not overlay.has_edge(u, v):
                continue
            if overlay.degree(u) <= 1 or overlay.degree(v) <= 1:
                continue  # never disconnect a pendant node
            if is_removable(overlay, u, v):
                overlay.remove_edge(u, v)
                changed = True
        return changed

    passes = 0
    while removal_pass():
        passes += 1
        if passes > max_passes:
            raise WalkError("removal fixpoint did not converge")

    if use_replacement:
        nodes = list(overlay.nodes())
        rng.shuffle(nodes)
        for v in nodes:
            if overlay.degree(v) < 1 or not replacement_allowed(overlay.degree(v)):
                continue
            nbrs = overlay.neighbors_seq(v)
            u = nbrs[rng.randrange(len(nbrs))]
            w = replacement_target(u, overlay.neighbors_view(u), nbrs, rng)
            if w is None:
                continue
            overlay.remove_edge(u, v)
            overlay.add_edge(u, w)
        while removal_pass():
            passes += 1
            if passes > max_passes:
                raise WalkError("post-replacement fixpoint did not converge")

    return overlay
