"""Numpy-backed compact adjacency: the walk engines' array substrate.

The dict-of-dicts adjacency in :mod:`repro.graph.adjacency` is the right
*authority* — O(1) membership, insertion-ordered iteration, cheap set-view
intersections for the MTO removal criterion — but every per-step structure
the walk engines touch through it is a Python object: neighbor tuples of
hashable ids, per-id hashing on every draw, one attribute chase per
degree.  This module provides the flat mirror that the hot paths index
instead:

* **Id interning** (:class:`NodeInterner`): every node id maps to a dense
  ``int32`` index in first-seen order; all adjacency structure below the
  interner is integer arrays.
* **Arena rows** (:class:`CompactAdjacency`): each node's neighbor row
  lives in one shared ``int32`` buffer with capacity-doubling relocation,
  so appends are amortized O(1) and *every* row is addressable by
  ``(start, degree)`` — which is what makes one-call batched operations
  possible.  Insertion order is preserved exactly, removals shift-left —
  bit-for-bit the ordering semantics of the insertion-ordered dict rows,
  because **the ordering is the draw determinism**: a seeded walk draws
  ``seq[rng.randrange(len(seq))]`` and any reordering changes every
  subsequent sample.
* **Batched draws** (:meth:`CompactAdjacency.draw_many`): one neighbor per
  chain in a single numpy gather.  The per-chain ``random.Random``
  draws themselves are *not* vectorized — that is the compatibility shim:
  each chain's ``randrange(degree)`` consumes exactly the Mersenne values
  the scalar code consumed, so replays are bit-for-bit identical; what
  the batch removes is the per-draw dict/tuple/hash traffic, replaced by
  one fancy-index into the arena.
* **Batched lookups**: :meth:`degrees_many` / :meth:`row_mask` answer
  degree and membership for a whole frontier in one call — what
  ``OverlayGraph.ensure_known_many`` runs on.
* **CSR export** (:meth:`csr`): offsets + column-index arrays over live
  rows for the spectral/conductance analyses.

The store deliberately has no removal-of-identity: interned ids stay
interned (other rows may reference them); a node's *row* can be dropped
and later recreated.  ``degree == -1`` is the "no row" sentinel.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

Node = Hashable

_NO_ROW = -1


class NodeInterner:
    """Dense first-seen ``id -> int32 index`` interning.

    Example:
        >>> interner = NodeInterner()
        >>> interner.intern("alice"), interner.intern("bob"), interner.intern("alice")
        (0, 1, 0)
        >>> interner.node(1)
        'bob'
    """

    def __init__(self) -> None:
        self._index: Dict[Node, int] = {}
        self._nodes: List[Node] = []

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: Node) -> bool:
        return node in self._index

    def intern(self, node: Node) -> int:
        """The index for ``node``, assigning the next dense one if new."""
        idx = self._index.get(node)
        if idx is None:
            idx = len(self._nodes)
            self._index[node] = idx
            self._nodes.append(node)
        return idx

    def index(self, node: Node) -> Optional[int]:
        """The index for ``node``, or ``None`` if never interned."""
        return self._index.get(node)

    def node(self, idx: int) -> Node:
        """The node id at ``idx`` (inverse of :meth:`intern`)."""
        return self._nodes[idx]

    def nodes(self) -> Tuple[Node, ...]:
        """All interned ids, in index order."""
        return tuple(self._nodes)


class CompactAdjacency:
    """Arena-backed int32 adjacency rows with dict-identical ordering.

    Rows grow by relocation: when a node's row overflows its slot, the row
    is copied to the end of the arena with doubled capacity and the old
    slot becomes dead space (bounded at ~half the arena; :meth:`csr`
    exports compacted).  All per-node bookkeeping — row start, live
    degree, slot capacity — is flat int64 arrays, so batched degree and
    membership lookups are single fancy-index reads.

    Not thread-safe; mirrors exactly one authoritative dict structure
    (``Graph._adj`` or ``OverlayGraph._known``) and must be mutated in
    lockstep with it.
    """

    def __init__(self) -> None:
        self._interner = NodeInterner()
        self._flat = np.empty(1024, dtype=np.int32)
        self._used = 0  # arena high-water mark
        n0 = 16
        self._start = np.zeros(n0, dtype=np.int64)
        self._deg = np.full(n0, _NO_ROW, dtype=np.int64)
        self._cap = np.zeros(n0, dtype=np.int64)
        # node index -> cached id-tuple of its row (the ``neighbors_seq``
        # the engines hand to ``randrange`` draws); dropped on mutation.
        self._seq_cache: Dict[int, Tuple[Node, ...]] = {}

    # ------------------------------------------------------------------
    # growth plumbing
    # ------------------------------------------------------------------
    def _grow_meta(self, need: int) -> None:
        size = len(self._deg)
        if need <= size:
            return
        new = max(need, size * 2)
        self._start = np.resize(self._start, new)
        self._start[size:] = 0
        self._deg = np.resize(self._deg, new)
        self._deg[size:] = _NO_ROW
        self._cap = np.resize(self._cap, new)
        self._cap[size:] = 0

    def _grow_flat(self, need: int) -> None:
        if need <= len(self._flat):
            return
        new = np.empty(max(need, len(self._flat) * 2), dtype=np.int32)
        new[: self._used] = self._flat[: self._used]
        self._flat = new

    def _alloc_slot(self, capacity: int) -> int:
        start = self._used
        self._grow_flat(start + capacity)
        self._used = start + capacity
        return start

    def _intern(self, node: Node) -> int:
        idx = self._interner.intern(node)
        self._grow_meta(idx + 1)
        return idx

    # ------------------------------------------------------------------
    # mutation (lockstep with the authoritative dict)
    # ------------------------------------------------------------------
    def ensure_row(self, node: Node) -> int:
        """Intern ``node`` and give it an (empty) row if it has none."""
        idx = self._intern(node)
        if self._deg[idx] == _NO_ROW:
            self._deg[idx] = 0
        return idx

    def append(self, u: Node, v: Node) -> None:
        """Append ``v`` to ``u``'s row (caller guarantees ``v`` is new).

        Mirrors ``adj[u][v] = None`` on a key known absent: insertion
        order is append order.  ``u`` gains a row if it had none; ``v``
        is interned but gains no row.
        """
        ui = self.ensure_row(u)
        vi = self._intern(v)
        deg = self._deg[ui]
        if deg == self._cap[ui]:
            new_cap = int(max(4, deg * 2))
            start = self._alloc_slot(new_cap)
            if deg:
                old = self._start[ui]
                self._flat[start : start + deg] = self._flat[old : old + deg]
            self._start[ui] = start
            self._cap[ui] = new_cap
        self._flat[self._start[ui] + deg] = vi
        self._deg[ui] = deg + 1
        self._seq_cache.pop(ui, None)

    def remove(self, u: Node, v: Node) -> None:
        """Remove ``v`` from ``u``'s row, shifting survivors left.

        Mirrors ``del adj[u][v]``: remaining insertion order is
        preserved.  No-op if ``v`` is not in the row.
        """
        ui = self._interner.index(u)
        vi = self._interner.index(v)
        if ui is None or vi is None or self._deg[ui] <= 0:
            return
        start, deg = int(self._start[ui]), int(self._deg[ui])
        row = self._flat[start : start + deg]
        hits = np.nonzero(row == vi)[0]
        if not len(hits):
            return
        pos = int(hits[0])
        row[pos : deg - 1] = row[pos + 1 : deg]
        self._deg[ui] = deg - 1
        self._seq_cache.pop(ui, None)

    def set_row(self, node: Node, neighbors: Iterable[Node]) -> None:
        """Replace ``node``'s row with ``neighbors`` in the given order."""
        idx = self._intern(node)
        ids = [self._intern(v) for v in neighbors]
        deg = len(ids)
        if deg > self._cap[idx]:
            new_cap = int(max(4, deg * 2))
            self._start[idx] = self._alloc_slot(new_cap)
            self._cap[idx] = new_cap
        start = self._start[idx]
        self._flat[start : start + deg] = np.asarray(ids, dtype=np.int32)
        self._deg[idx] = deg
        self._seq_cache.pop(idx, None)

    def drop_row(self, node: Node) -> None:
        """Forget ``node``'s row (the id stays interned)."""
        idx = self._interner.index(node)
        if idx is None:
            return
        self._deg[idx] = _NO_ROW
        self._seq_cache.pop(idx, None)

    def clear(self) -> None:
        """Drop every row and all interned ids."""
        self.__init__()

    # ------------------------------------------------------------------
    # scalar reads
    # ------------------------------------------------------------------
    def has_row(self, node: Node) -> bool:
        """Whether ``node`` has a live row (isolated-with-row counts)."""
        idx = self._interner.index(node)
        return idx is not None and self._deg[idx] != _NO_ROW

    def degree(self, node: Node) -> Optional[int]:
        """Row length, or ``None`` when ``node`` has no live row."""
        idx = self._interner.index(node)
        if idx is None:
            return None
        deg = int(self._deg[idx])
        return None if deg == _NO_ROW else deg

    def seq(self, node: Node) -> Tuple[Node, ...]:
        """The row as a stable id-tuple (cached until the row mutates).

        Raises:
            KeyError: If ``node`` has no live row.
        """
        idx = self._interner.index(node)
        if idx is None or self._deg[idx] == _NO_ROW:
            raise KeyError(node)
        seq = self._seq_cache.get(idx)
        if seq is None:
            start, deg = int(self._start[idx]), int(self._deg[idx])
            node_of = self._interner.node
            seq = tuple(node_of(int(i)) for i in self._flat[start : start + deg])
            self._seq_cache[idx] = seq
        return seq

    def draw(self, node: Node, rng: random.Random) -> Optional[Node]:
        """Uniform draw from ``node``'s row — dict-draw compatible.

        Consumes exactly one ``rng.randrange(degree)`` and indexes the
        arena directly; ``None`` for an empty row *without* consuming
        RNG, matching ``Graph.random_neighbor``.

        Raises:
            KeyError: If ``node`` has no live row.
        """
        idx = self._interner.index(node)
        if idx is None or self._deg[idx] == _NO_ROW:
            raise KeyError(node)
        deg = int(self._deg[idx])
        if not deg:
            return None
        j = rng.randrange(deg)
        return self._interner.node(int(self._flat[self._start[idx] + j]))

    # ------------------------------------------------------------------
    # batched reads
    # ------------------------------------------------------------------
    def _indexes(self, nodes: Sequence[Node]) -> np.ndarray:
        index = self._interner.index
        return np.fromiter(
            ((i if (i := index(n)) is not None else -1) for n in nodes),
            dtype=np.int64,
            count=len(nodes),
        )

    def row_mask(self, nodes: Sequence[Node]) -> np.ndarray:
        """Boolean live-row membership for a whole batch, one call."""
        idxs = self._indexes(nodes)
        mask = idxs >= 0
        mask[mask] = self._deg[idxs[mask]] != _NO_ROW
        return mask

    def degrees_many(self, nodes: Sequence[Node]) -> np.ndarray:
        """Row lengths for a batch; ``-1`` marks a missing row."""
        idxs = self._indexes(nodes)
        out = np.full(len(idxs), _NO_ROW, dtype=np.int64)
        known = idxs >= 0
        out[known] = self._deg[idxs[known]]
        return out

    def draw_many(
        self, nodes: Sequence[Node], rngs: Sequence[random.Random]
    ) -> List[Optional[Node]]:
        """One uniform neighbor draw per ``(node, rng)`` pair.

        The compatibility shim: chain ``i``'s pick index is
        ``rngs[i].randrange(degree_i)`` — the *same* Mersenne consumption
        as ``len(rngs)`` scalar draws, in list order, so serial replays
        are bit-for-bit identical.  The picks then resolve through a
        single numpy gather instead of per-chain tuple indexing and
        hashing.  Empty rows yield ``None`` and consume no RNG.

        Raises:
            KeyError: If any node has no live row.
        """
        idxs = self._indexes(nodes)
        if len(idxs) == 0:
            return []
        if (idxs < 0).any() or (self._deg[idxs] == _NO_ROW).any():
            bad = next(n for n in nodes if not self.has_row(n))
            raise KeyError(bad)
        degs = self._deg[idxs]
        offs = np.fromiter(
            ((rng.randrange(int(k)) if k else 0) for rng, k in zip(rngs, degs)),
            dtype=np.int64,
            count=len(idxs),
        )
        picked = self._flat[self._start[idxs] + offs]  # the one gather
        node_of = self._interner.node
        return [
            node_of(int(p)) if k else None for p, k in zip(picked, degs)
        ]

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def nodes_with_rows(self) -> Tuple[Node, ...]:
        """Ids with live rows, in intern (first-seen) order."""
        node_of = self._interner.node
        live = np.nonzero(self._deg[: len(self._interner)] != _NO_ROW)[0]
        return tuple(node_of(int(i)) for i in live)

    def csr(self) -> Tuple[Tuple[Node, ...], np.ndarray, np.ndarray]:
        """Compacted CSR view over live rows.

        Returns:
            ``(nodes, offsets, columns)``: ``nodes`` are the live-row ids
            in intern order; ``offsets`` is ``int64`` of length
            ``len(nodes) + 1``; ``columns`` is ``int32`` of summed row
            lengths, where column values are *intern indexes* (positions
            in the full interner, resolvable via the interner even for
            neighbors that have no row of their own).
        """
        n = len(self._interner)
        live = np.nonzero(self._deg[:n] != _NO_ROW)[0]
        degs = self._deg[live]
        offsets = np.zeros(len(live) + 1, dtype=np.int64)
        np.cumsum(degs, out=offsets[1:])
        columns = np.empty(int(offsets[-1]), dtype=np.int32)
        for out_pos, idx in enumerate(live):
            start, deg = int(self._start[idx]), int(self._deg[idx])
            columns[offsets[out_pos] : offsets[out_pos + 1]] = self._flat[start : start + deg]
        node_of = self._interner.node
        return tuple(node_of(int(i)) for i in live), offsets, columns

    @property
    def interner(self) -> NodeInterner:
        """The id interner (shared vocabulary for csr column values)."""
        return self._interner
