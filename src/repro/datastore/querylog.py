"""Append-only query log with the paper's unique-query cost accounting.

Section II-B: *"we consider the number of unique queries one has to issue
for the sampling process, as any duplicate query can be answered from local
cache without consuming the query limit."*  The log records every logical
query, distinguishes cache hits from billed (unique) queries, and exposes
the running unique-query count that all experiment drivers report as
"query cost".
"""

from __future__ import annotations

import dataclasses
from typing import Hashable, Iterator, List, Optional, Set


@dataclasses.dataclass(frozen=True)
class QueryRecord:
    """One logical interface query.

    Attributes:
        index: 0-based position in the log.
        user: Queried user id.
        billed: Whether this query consumed the provider's limit (first
            time the user was queried) or was served from local cache.
        timestamp: Simulated time the query was issued at.
    """

    index: int
    user: Hashable
    billed: bool
    timestamp: float


class QueryLog:
    """Record of all queries issued through a restricted interface.

    Records are held internally as plain ``(user, billed, timestamp)``
    tuples — one append per logical query is on the walk engines' hot
    path, and a frozen-dataclass construction per step costs more than
    the draw itself.  Iteration and :meth:`tail` materialize
    :class:`QueryRecord` views lazily, so readers see the same shape as
    before.
    """

    def __init__(self) -> None:
        self._records: List[tuple] = []
        self._unique: Set[Hashable] = set()

    def note(self, user: Hashable, billed: bool, timestamp: float) -> None:
        """Hot-path append with an explicit billing decision.

        Identical accounting to :meth:`record` minus the derived-billing
        branch and the record-object construction;
        :class:`~repro.interface.api.RestrictedSocialAPI` appends every
        logical query through it (a billed fetch or refusal passes
        ``not was_queried(user)``, the rule :meth:`record` derives).
        """
        if billed:
            self._unique.add(user)
        self._records.append((user, billed, timestamp))

    def record(self, user: Hashable, timestamp: float = 0.0, billed: Optional[bool] = None) -> QueryRecord:
        """Append a query for ``user``; returns the created record.

        Args:
            user: The queried user.
            timestamp: Simulated time of the query.
            billed: ``None`` (default) derives the §II-B billing rule —
                first query per user is billed, repeats are free.  An
                explicit ``False`` logs a free read of knowledge this
                crawler never paid for (a shared-cache hit in the service
                layer: another tenant's spend must not enter this log's
                unique set, or a later eviction re-fetch would be billed
                wrongly free).  An explicit ``True`` force-bills.
        """
        if billed is None:
            billed = user not in self._unique
        self.note(user, billed, timestamp)
        return QueryRecord(index=len(self._records) - 1, user=user, billed=billed, timestamp=timestamp)

    @property
    def total_queries(self) -> int:
        """All logical queries, including cache hits."""
        return len(self._records)

    @property
    def unique_queries(self) -> int:
        """Billed queries — the paper's *query cost* measure."""
        return len(self._unique)

    def was_queried(self, user: Hashable) -> bool:
        """Whether ``user`` was ever queried (i.e. is locally cached)."""
        return user in self._unique

    def queried_users(self) -> frozenset:
        """Set of all users queried so far."""
        return frozenset(self._unique)

    def __iter__(self) -> Iterator[QueryRecord]:
        for i, (user, billed, ts) in enumerate(self._records):
            yield QueryRecord(index=i, user=user, billed=billed, timestamp=ts)

    def __len__(self) -> int:
        return len(self._records)

    def tail(self, n: int) -> List[QueryRecord]:
        """The most recent ``n`` records."""
        if n <= 0:
            return []
        start = max(0, len(self._records) - n)
        return [
            QueryRecord(index=start + i, user=user, billed=billed, timestamp=ts)
            for i, (user, billed, ts) in enumerate(self._records[start:])
        ]

    # ------------------------------------------------------------------
    # snapshot support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serializable state: the full record list.

        Billed flags are part of the history (§II-B unique-query
        accounting): a restored log must keep charging repeat queries to
        the cache, so the set of already-billed users travels with the
        records themselves (it is recomputed from the billed flags on
        load, not stored separately).  The records are immutable
        tuples, so the list is copied, not the records.
        """
        return {"records": list(self._records)}

    def load_state(self, state: dict) -> None:
        """Replace this log's contents with a captured state.

        Args:
            state: Output of :meth:`state_dict`.
        """
        self._records = [(user, bool(billed), float(ts)) for user, billed, ts in state["records"]]
        self._unique = {user for user, billed, _ in self._records if billed}

    def billed_between(self, start: Optional[float] = None, end: Optional[float] = None) -> int:
        """Billed queries with ``start <= timestamp < end`` (for rate audits)."""
        count = 0
        for _, billed, timestamp in self._records:
            if not billed:
                continue
            if start is not None and timestamp < start:
                continue
            if end is not None and timestamp >= end:
                continue
            count += 1
        return count
