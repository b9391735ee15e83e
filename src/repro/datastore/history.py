"""Persistent cross-run crawl history: save paid-for knowledge, warm-start later runs.

§II-B's cost model makes the first ``q(v)`` on each user the only one
that ever bills — "any duplicate query can be answered from local cache
without consuming the query limit".  The snapshot layer already lets one
*interrupted* crawl resume bit-for-bit; what it cannot do is let a
**different** crawl (new seeds, new engine, new tenant, next week's
process) reuse the neighborhoods an earlier crawl already paid for.

:class:`HistoryStore` is that artifact.  It persists, through the same
pluggable :class:`~repro.datastore.snapshot.SnapshotBackend` codec the
session snapshots use:

* the **known-neighborhood summary** — every cached ``(user,
  neighbor_seq, attributes)`` response plus the refusals billed so far,
  derived from the interface's cache and :class:`~repro.datastore.querylog.QueryLog`;
* the **planning statistics** — a
  :class:`~repro.planning.history.HistoryIndex` ``state_dict`` (visit
  counts, cache-first/fetched step counters, per-region books) that a
  warm planner turns into a speculative-ranking prior.

Warm-starting applies the record *without billing*: neighborhoods enter
the new interface via ``cache.put`` (never ``query``), refusals rejoin
the known-private set, and the interface's ``warm_hits`` counter
attributes every hit served from that preloaded knowledge.  A
warm-started second run therefore spends strictly fewer §II-B queries
than the same run cold, while remaining deterministic — the walk's RNG
stream never sees the difference between a warm hit and a hit it paid
for itself.

Example::

    store = HistoryStore(JsonLinesBackend("crawl.history.jsonl"))
    store.save(api, planner=stack.planner)      # after the first run

    # ... later, any process, any walk configuration ...
    warmed = store.warm(fresh_api, planner=new_stack.planner)
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Hashable, Iterable, Optional, Tuple

from repro.datastore.snapshot import SnapshotBackend
from repro.errors import SnapshotError

Node = Hashable

#: Section names used in history artifacts.
SECTION_META = "history/meta"
SECTION_NEIGHBORHOODS = "history/neighborhoods"
SECTION_STATS = "history/stats"

#: Format version written into every artifact's meta section.
HISTORY_VERSION = 1


@dataclasses.dataclass(frozen=True)
class HistoryRecord:
    """One decoded history artifact.

    Attributes:
        meta: Version, capture-time accounting, and any caller metadata.
        neighborhoods: ``{user: (neighbor_seq, attributes)}`` — the
            knowledge a prior run paid §II-B cost for.
        private: Users whose billed refusals the prior run cached.
        billed_users: The prior run's §II-B unique-query set (the
            :meth:`~repro.datastore.querylog.QueryLog.queried_users`
            summary; a superset of ``neighborhoods``' keys only when the
            prior cache evicted entries it had billed).
        stats: A :class:`~repro.planning.history.HistoryIndex`
            ``state_dict`` payload (empty dicts/zeros when the prior run
            had no planner).
    """

    meta: dict
    neighborhoods: Dict[Node, Tuple[Tuple[Node, ...], dict]]
    private: frozenset
    billed_users: frozenset
    stats: dict

    @property
    def known_count(self) -> int:
        """Number of neighborhoods the record carries."""
        return len(self.neighborhoods)


def _cached_neighborhoods(cache) -> Dict[Node, dict]:
    """Every live cached response of ``cache`` as a neighborhood row."""
    neighborhoods: Dict[Node, dict] = {}
    for user in cache.known_users():
        seq = cache.neighbor_seq(user)
        attrs = cache.attributes(user)
        if seq is None or attrs is None:  # raced expiry between known_users() and the read
            continue
        neighborhoods[user] = {"seq": seq, "attrs": attrs}
    return neighborhoods


def _sections(neighborhoods, index, billed, private, metadata, **accounting) -> Dict[str, dict]:
    """The three artifact sections; ``accounting`` extends the meta section."""
    meta = dict(metadata or {})
    meta.update(version=HISTORY_VERSION, users=len(neighborhoods), **accounting)
    return {
        SECTION_META: meta,
        SECTION_NEIGHBORHOODS: neighborhoods,
        SECTION_STATS: {"index": index, "billed": billed, "private": private},
    }


def capture_history(
    api,
    planner=None,
    metadata: Optional[dict] = None,
) -> Dict[str, dict]:
    """Assemble history sections from a live interface (no persistence).

    Args:
        api: The :class:`~repro.interface.api.RestrictedSocialAPI` whose
            cache/log hold the knowledge to persist.
        planner: Optional bound
            :class:`~repro.planning.planner.DispatchPlanner` whose
            history-index statistics ride along as the warm prior.
        metadata: Extra JSON-safe entries merged into the meta section.
    """
    billed = api.log.queried_users()
    stats: dict = {}
    if planner is not None and getattr(planner, "bound", False):
        stats = planner.history.state_dict()
    return _sections(
        _cached_neighborhoods(api.cache),
        stats,
        billed,
        frozenset(user for user in billed if api.is_known_private(user)),
        metadata,
        query_cost=api.query_cost,
        total_queries=api.total_queries,
    )


class HistoryStore:
    """Round-trip crawl history through a snapshot backend.

    Args:
        backend: Any :class:`~repro.datastore.snapshot.SnapshotBackend`
            (:class:`~repro.datastore.snapshot.JsonLinesBackend` for a
            file artifact that survives the process,
            :class:`~repro.datastore.snapshot.KeyValueBackend` for an
            in-datastore copy).
    """

    def __init__(self, backend: SnapshotBackend) -> None:
        self._backend = backend

    @property
    def backend(self) -> SnapshotBackend:
        """The snapshot backend."""
        return self._backend

    # ------------------------------------------------------------------
    # write side
    # ------------------------------------------------------------------
    def save(self, api, planner=None, metadata: Optional[dict] = None) -> Dict[str, dict]:
        """Capture ``api``'s paid-for knowledge and persist it.

        Returns the sections written (see :func:`capture_history`).
        """
        sections = capture_history(api, planner=planner, metadata=metadata)
        self._backend.write(sections)
        return sections

    def save_cache(
        self,
        cache,
        private: Iterable[Node] = (),
        stats: Optional[dict] = None,
        metadata: Optional[dict] = None,
    ) -> Dict[str, dict]:
        """Persist a bare shared cache (the service layer's write path).

        A multi-tenant service owns one cross-tenant cache but no single
        interface; this captures every cached neighborhood directly,
        with optional refusal and planning-statistics payloads.
        """
        neighborhoods = _cached_neighborhoods(cache)
        sections = _sections(
            neighborhoods, dict(stats or {}), frozenset(neighborhoods), frozenset(private), metadata
        )
        self._backend.write(sections)
        return sections

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------
    def load(self) -> Optional[HistoryRecord]:
        """Decode the stored artifact, or ``None`` when the backend is empty.

        Raises:
            SnapshotError: On a missing section or unsupported version.
        """
        sections = self._backend.read()
        if sections is None:
            return None
        meta = sections.get(SECTION_META)
        if meta is None or SECTION_NEIGHBORHOODS not in sections:
            raise SnapshotError("history artifact is missing its meta/neighborhood sections")
        if int(meta.get("version", -1)) != HISTORY_VERSION:
            raise SnapshotError(
                f"unsupported history version {meta.get('version')!r} "
                f"(this build reads version {HISTORY_VERSION})"
            )
        stats = sections.get(SECTION_STATS, {})
        neighborhoods = {
            user: (tuple(row["seq"]), dict(row["attrs"]))
            for user, row in sections[SECTION_NEIGHBORHOODS].items()
        }
        return HistoryRecord(
            meta=dict(meta),
            neighborhoods=neighborhoods,
            private=frozenset(stats.get("private", frozenset())),
            billed_users=frozenset(stats.get("billed", frozenset())),
            stats=dict(stats.get("index", {})),
        )

    def warm(self, api, planner=None) -> int:
        """Load the artifact and warm-start ``api`` (and ``planner``) from it.

        Neighborhoods preload through
        :meth:`~repro.interface.api.RestrictedSocialAPI.warm_start`
        (cache writes, never billed queries); a bound planner receives
        the record's history-index statistics as its speculative prior.

        Returns:
            Number of neighborhoods preloaded (0 when the backend holds
            no artifact).
        """
        record = self.load()
        if record is None:
            return 0
        count = api.warm_start(record.neighborhoods, private=record.private)
        if planner is not None and getattr(planner, "bound", False) and record.stats:
            planner.warm_start(record.stats)
        return count
