"""Edge-manipulation criteria: Theorems 3, 4, and 5.

These are the paper's theoretical core.  All three operate on *local*
knowledge only — the neighborhoods of the edge's endpoints (already paid
for by the walk) plus, for Theorem 5, degrees of common neighbors cached
from earlier steps.

**Theorem 3 (removal).**  For an edge ``e_uv``, if

    ceil(|N(u) ∩ N(v)| / 2) + 1  >  max(k_u, k_v) / 2

then ``e_uv`` is provably *not* cross-cutting and can be removed from the
overlay without lowering conductance.  Corollary 1 shows the bound is
tight.

**Theorem 5 (extension).**  With cached degrees, let
``N* ⊆ {w ∈ N(u) ∩ N(v) : k_w known and 2 ≤ k_w ≤ 3}``.  If

    ceil((|N(u) ∩ N(v)| − |N*|) / 2) + 1 + ½ Σ_{w∈N*} (4 − k_w)
        >  max(k_u, k_v) / 2

then ``e_uv`` is not cross-cutting.  Any subset of the qualifying cached
common neighbors is a valid ``N*`` (each choice is its own sound
certificate), so the implementation evaluates the inequality at the most
favorable subset; with ``N* = ∅`` it reduces to Theorem 3, which is why
extra cached knowledge can never certify *less* than Theorem 3 — taking
the full qualifying set blindly would lose that dominance for odd common
counts, where dropping a degree-3 member costs a full ceil increment but
only refunds ½.

**Theorem 5 from two integers, then two counts.**  Each term ``½(4 − k_w)``
is at most 1 and ``ceil(x/2) ≤ x``, so the left-hand side is at most
``c + 1`` for ``c = |N(u) ∩ N(v)|``, and ``c ≤ min(k_u, k_v) − 1``.  So
no ``N*`` certifies the edge when ``2·min(k_u, k_v) ≤ max(k_u, k_v)`` or
``2·(c + 1) ≤ max(k_u, k_v)``.  Otherwise only the counts ``c2``, ``c3``
of cached common neighbors of degree 2 and 3 matter: a degree-2 member
gains 1 for a ceil cost of at most 1, so the best ``N*`` takes them all,
and one degree-3 member then gains ½ at no ceil cost exactly when
``c − c2`` is even (more net nothing).  Doubled, the best left-hand side
is the integer

    2·ceil((c − c2)/2) + 2 + 2·c2 + [c3 > 0 and c − c2 even].

**Theorem 4 (replacement).**  If ``k_v = 3`` and ``u, w ∈ N(v)``, then
replacing ``e_uv`` by ``e_uw`` never decreases conductance (and may
increase it).  Corollary 2 shows ``k_v = 3`` is the *only* safe degree.
"""

from __future__ import annotations

import math
from typing import AbstractSet, Callable, Hashable, Iterable, Mapping, Optional, Tuple

Node = Hashable


def removal_criterion(common_neighbors: int, ku: int, kv: int) -> bool:
    """Theorem 3's inequality: is the edge provably non-cross-cutting?

    Args:
        common_neighbors: ``|N(u) ∩ N(v)|``.
        ku: Degree of ``u`` (including the edge to ``v``).
        kv: Degree of ``v`` (including the edge to ``u``).

    Returns:
        ``True`` iff ``ceil(n/2) + 1 > max(ku, kv)/2``.

    Raises:
        ValueError: On negative counts or degrees below 1 (the edge itself
            guarantees degree ≥ 1 at both ends).
    """
    if common_neighbors < 0:
        raise ValueError("common neighbor count cannot be negative")
    if ku < 1 or kv < 1:
        raise ValueError("endpoint degrees must be at least 1")
    return math.ceil(common_neighbors / 2) + 1 > max(ku, kv) / 2


def extension_criterion(
    common_neighbors: int,
    ku: int,
    kv: int,
    known_common_degrees: Mapping[Node, int],
) -> bool:
    """Theorem 5's inequality, using cached common-neighbor degrees.

    This is the reference form, subset scan and all; the samplers decide
    the same inequality with :func:`counts_criterion`.

    Only cached degrees in {2, 3} qualify (the paper's ``N*``); larger
    cached degrees are ignored, exactly as the theorem prescribes.  The
    inequality is evaluated at the most favorable *subset* of the
    qualifying neighbors: every subset is a valid ``N*``, and the full set
    is not always the strongest choice (for an odd common count, moving a
    degree-3 neighbor into ``N*`` trades a whole ceil increment for a ½
    bonus).  The empty subset recovers Theorem 3, so this criterion
    dominates it by construction.

    Args:
        common_neighbors: ``|N(u) ∩ N(v)|``.
        ku: Degree of ``u``.
        kv: Degree of ``v``.
        known_common_degrees: Mapping ``w -> k_w`` for those common
            neighbors whose degree the sampler already knows (from its
            local cache; never queried for this test).

    Returns:
        ``True`` iff the extended inequality holds for some valid ``N*``.

    Raises:
        ValueError: On invalid counts, or if more qualifying degrees are
            supplied than there are common neighbors.
    """
    if common_neighbors < 0:
        raise ValueError("common neighbor count cannot be negative")
    if ku < 1 or kv < 1:
        raise ValueError("endpoint degrees must be at least 1")
    qualifying = sorted(k for k in known_common_degrees.values() if 2 <= k <= 3)
    if len(qualifying) > common_neighbors:
        raise ValueError("N* cannot exceed the common neighborhood")
    # For a fixed |N*| = m the ceil term is constant, so the best m-subset
    # takes the m largest bonuses — i.e. the m smallest degrees.  Scanning
    # m over the sorted prefix therefore visits every optimal subset.
    best = math.ceil(common_neighbors / 2) + 1.0  # m = 0: Theorem 3
    bonus = 0.0
    for m, k in enumerate(qualifying, start=1):
        bonus += 0.5 * (4 - k)
        lhs = math.ceil((common_neighbors - m) / 2) + 1 + bonus
        if lhs > best:
            best = lhs
    return best > max(ku, kv) / 2


def counts_criterion(common_neighbors: int, c2: int, c3: int, kmax: int) -> bool:
    """Theorem 5 at its best ``N*``, in integers (see the module docstring).

    Equals :func:`extension_criterion` (:func:`removal_criterion` at
    ``c2 = c3 = 0``) whenever ``c2 + c3 ≤ common_neighbors``, with ``kmax =
    max(k_u, k_v)``.  Inputs are not validated: it runs on every draw.
    """
    rest = common_neighbors - c2
    return 2 * ((rest + 1) // 2) + 2 + 2 * c2 + (c3 > 0 and rest % 2 == 0) > kmax


def neighborhoods_removable(
    nu: AbstractSet[Node], nv: AbstractSet[Node], degree_of: Optional[Callable[[Node], Optional[int]]] = None
) -> bool:
    """Theorem 3 / Theorem 5 for edge ``(u, v)`` from ``N(u)`` and ``N(v)``.

    Settles from the two degrees when it can, then from the common count,
    and only then counts the common neighbors ``degree_of`` (a cached
    degree or ``None``; omitted for Theorem 3) puts at degree 2 and 3.
    """
    common, kmax = undecided_common(nu, nv)
    if common is None:
        return False
    degrees = [degree_of(w) for w in common] if degree_of is not None else []
    return counts_criterion(len(common), degrees.count(2), degrees.count(3), kmax)


def undecided_common(nu: AbstractSet[Node], nv: AbstractSet[Node]) -> Tuple[Optional[AbstractSet[Node]], int]:
    """``(N(u) ∩ N(v), max(k_u, k_v))``; the set is ``None`` when the two bounds already say "no"."""
    ku, kv = len(nu), len(nv)
    kmin, kmax = (ku, kv) if ku < kv else (kv, ku)
    if 2 * kmin <= kmax:
        return None, kmax
    common = nu & nv
    return (common if 2 * (len(common) + 1) > kmax else None), kmax


def is_removable(
    view,
    u: Node,
    v: Node,
    cached_degrees: Optional[Mapping[Node, int]] = None,
) -> bool:
    """Whether edge ``(u, v)`` is removable under Theorem 3 / Theorem 5.

    Args:
        view: Any object whose ``neighbors_view(node)`` or
            ``neighbors(node)`` returns a set — the overlay during a walk,
            or a plain graph offline.
        u: One endpoint.
        v: The other endpoint.
        cached_degrees: Optional ``w -> k_w`` cache enabling the Theorem 5
            extension; ``None`` (or an empty mapping) falls back to
            Theorem 3.

    Returns:
        ``True`` iff the applicable criterion certifies the edge
        non-cross-cutting.

    Raises:
        ValueError: If ``(u, v)`` is not an edge of ``view``.
    """
    # Prefer copy-free views when the substrate offers them (Graph and
    # OverlayGraph both do).
    neighbors = getattr(view, "neighbors_view", None) or view.neighbors
    nu = neighbors(u)
    if v not in nu:
        raise ValueError(f"({u!r}, {v!r}) is not an edge")
    return neighborhoods_removable(nu, neighbors(v), cached_degrees.get if cached_degrees else None)


def replacement_allowed(kv: int) -> bool:
    """Theorem 4 / Corollary 2: replacement is safe exactly when k_v = 3.

    Raises:
        ValueError: For non-positive degrees.
    """
    if kv < 1:
        raise ValueError("degree must be positive")
    return kv == 3


def replacement_target(u: Node, nu: AbstractSet[Node], nv: Iterable[Node], rng) -> Optional[Node]:
    """Theorem 4's draw: a uniform ``w ∈ N(v)`` with ``w ≠ u`` and ``w ∉ N(u)``.

    Consumes one ``rng.randrange`` over the candidates in ``nv``'s order;
    returns ``None`` without drawing when there are none.
    """
    others = [w for w in nv if w != u and w not in nu]
    return others[rng.randrange(len(others))] if others else None
