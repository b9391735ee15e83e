"""Persistent sampling sessions: checkpoint a walk, resume it bit-for-bit.

§II-B makes unique queries the cost of sampling — "any duplicate query can
be answered from local cache without consuming the query limit" — yet a
cache that dies with the process forces every experiment to re-pay the
full budget.  A :class:`SamplingSession` binds a sampler, its interface,
and (for MTO) its overlay to a snapshot backend so the paid-for state
survives:

* ``save()`` captures interface state (cache, query log, clock, rate
  limiter), overlay rewirings, and walker position/RNG into one snapshot;
* ``resume()`` loads that snapshot into freshly constructed objects in a
  new process, after which the walk produces the *identical* node
  sequence, estimator values, and unique-query count as an uninterrupted
  run — resumed steps over already-known nodes bill nothing;
* ``checkpoint_every=N`` installs a step hook so long crawls persist
  themselves periodically without driver cooperation.

Resuming requires reconstructing the provider side first (the hidden
graph, budget, and limiter *configuration* are not snapshotted — they are
the environment, not the sampler's knowledge), then building the same
sampler type with the same constructor arguments, then calling
``resume()``.  Construction costs one start-node query against the fresh
interface; ``resume()`` replaces the interface state wholesale, so that
bootstrap query leaves no trace in the restored accounting.

Example::

    backend = JsonLinesBackend("crawl.snapshot.jsonl")
    session = SamplingSession(api, sampler, backend, checkpoint_every=500)
    sampler.run(num_samples=2_000)          # checkpoints every 500 steps

    # ... later, in a fresh process ...
    api = network.interface()               # same provider configuration
    sampler = MTOSampler(api, start=s, seed=seed)   # same constructor args
    session = SamplingSession(api, sampler, JsonLinesBackend("crawl.snapshot.jsonl"))
    session.resume()                        # walk continues mid-stride
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.datastore.snapshot import SnapshotBackend
from repro.errors import SnapshotError
from repro.interface.api import RestrictedSocialAPI
from repro.interface.telemetry import collect_telemetry

#: Section names used in session snapshots.
SECTION_META = "meta"
SECTION_API = "api"
SECTION_OVERLAY = "overlay"
SECTION_SAMPLER = "sampler"


class SamplingSession:
    """Checkpoint/resume orchestration for one sampler over one interface.

    Args:
        api: The restrictive interface the sampler spends queries through.
        sampler: Any object exposing ``state_dict()``/``load_state()`` —
            a :class:`~repro.walks.base.RandomWalkSampler` subclass or a
            :class:`~repro.walks.parallel.ParallelWalkers` group.
        backend: Snapshot persistence
            (:class:`~repro.datastore.snapshot.JsonLinesBackend`,
            :class:`~repro.datastore.snapshot.KeyValueBackend`, or any
            :class:`~repro.datastore.snapshot.SnapshotBackend`).
        overlay: Overlay to snapshot alongside; auto-detected from
            ``sampler.overlay`` when omitted (MTO).  For parallel MTO
            chains pass the *shared* overlay explicitly — per-chain
            private overlays are not supported by one session.
        checkpoint_every: When given, installs ``sampler.set_checkpoint``
            so ``save()`` runs automatically every N committed steps
            (walk samplers) or lock-step rounds (parallel groups).
        metadata: Extra JSON-safe entries merged into the snapshot's meta
            section (experiment labels, dataset seeds, ...).
        history: Optional :class:`~repro.datastore.history.HistoryStore`
            to warm-start from: any artifact it holds preloads the
            interface's cache (never billed — §II-B was charged by the
            run that recorded it) and, when the sampler carries a bound
            dispatch planner, its history statistics.  Unlike
            ``resume()``, a warm start does not constrain the sampler
            type or seeds — history is knowledge, not position.  Call
            :meth:`save_history` after the run to write this run's
            (strictly larger) knowledge back.

    Raises:
        ValueError: If ``checkpoint_every`` is requested but the sampler
            has no ``set_checkpoint`` hook.
    """

    def __init__(
        self,
        api: RestrictedSocialAPI,
        sampler,
        backend: SnapshotBackend,
        overlay=None,
        checkpoint_every: Optional[int] = None,
        metadata: Optional[dict] = None,
        history=None,
    ) -> None:
        self._api = api
        self._sampler = sampler
        self._backend = backend
        self._overlay = overlay if overlay is not None else getattr(sampler, "overlay", None)
        self._metadata = dict(metadata or {})
        self._saves = 0
        self._history = history
        self._warmed_users = 0
        if history is not None:
            self._warmed_users = history.warm(api, planner=getattr(sampler, "planner", None))
        if checkpoint_every is not None:
            set_hook = getattr(sampler, "set_checkpoint", None)
            if set_hook is None:
                raise ValueError(
                    f"{type(sampler).__name__} has no set_checkpoint hook; "
                    "call save() explicitly instead"
                )
            set_hook(self._on_checkpoint, checkpoint_every)

    # ------------------------------------------------------------------
    @property
    def backend(self) -> SnapshotBackend:
        """The snapshot backend."""
        return self._backend

    @property
    def saves(self) -> int:
        """Number of snapshots written by this session."""
        return self._saves

    @property
    def warmed_users(self) -> int:
        """Neighborhoods the ``history`` store preloaded (0 when cold)."""
        return self._warmed_users

    def save_history(self, metadata: Optional[dict] = None) -> Dict[str, dict]:
        """Write this run's paid-for knowledge to the attached history store.

        Raises:
            SnapshotError: When the session was constructed without a
                ``history`` store.
        """
        if self._history is None:
            raise SnapshotError("this session has no history store; pass history=... at construction")
        return self._history.save(
            self._api,
            planner=getattr(self._sampler, "planner", None),
            metadata=metadata,
        )

    def _on_checkpoint(self, _sampler) -> None:
        self.save()

    # ------------------------------------------------------------------
    def capture(self) -> Dict[str, dict]:
        """Assemble the full snapshot payload (without persisting it)."""
        steps = getattr(self._sampler, "steps", None)
        meta = dict(self._metadata)
        meta.update(
            {
                "sampler_type": type(self._sampler).__name__,
                "steps": steps,
                "query_cost": self._api.query_cost,
                "total_queries": self._api.total_queries,
            }
        )
        sections: Dict[str, dict] = {
            SECTION_META: meta,
            SECTION_API: self._api.state_dict(),
            SECTION_SAMPLER: self._sampler.state_dict(),
        }
        if self._overlay is not None:
            sections[SECTION_OVERLAY] = self._overlay.state_dict()
        return sections

    def save(self) -> Dict[str, dict]:
        """Capture and persist a snapshot; returns the payload written."""
        sections = self.capture()
        self._backend.write(sections)
        self._saves += 1
        return sections

    def resume(self) -> bool:
        """Load the backend's snapshot into the attached objects.

        Restore order matters: interface first (so the cache/log/clock are
        authoritative before anything reads them), then overlay, then
        sampler.  Returns ``False`` when the backend holds no snapshot —
        callers can use one code path for cold and warm starts.

        Returns:
            Whether a snapshot was found and applied.

        Raises:
            SnapshotError: If the snapshot is corrupt, was captured from a
                different sampler type, or carries an overlay this session
                has nowhere to restore to.
        """
        sections = self._backend.read()
        if sections is None:
            return False
        meta = sections.get(SECTION_META, {})
        expected = type(self._sampler).__name__
        found = meta.get("sampler_type")
        if found != expected:
            raise SnapshotError(f"snapshot was captured from {found!r}, not {expected!r}")
        if SECTION_API not in sections or SECTION_SAMPLER not in sections:
            raise SnapshotError("snapshot is missing the api/sampler sections")
        if SECTION_OVERLAY in sections and self._overlay is None:
            raise SnapshotError("snapshot carries an overlay but this session has none to restore into")
        self._api.load_state(sections[SECTION_API])
        if SECTION_OVERLAY in sections:
            self._overlay.load_state(sections[SECTION_OVERLAY])
        self._sampler.load_state(sections[SECTION_SAMPLER])
        return True

    def peek_meta(self) -> Optional[dict]:
        """The stored snapshot's meta section, or ``None`` when absent."""
        sections = self._backend.read()
        if sections is None:
            return None
        return dict(sections.get(SECTION_META, {}))

    def summary(self) -> Dict[str, object]:
        """Everything this run has spent, in one JSON-safe record.

        Callers used to poke ``api``/provider internals for latency and
        retry accounting; this gathers the whole picture — §II-B cost,
        simulated clock, provider latency, retry counts, cache hit/miss
        counts, and (over a fleet) per-shard breakdowns — via
        :func:`~repro.interface.telemetry.collect_telemetry` and its
        record's canonical ``to_dict()`` layout, plus the
        sampler's step count and this session's save count.  Samplers
        that plan (an :class:`~repro.walks.scheduler.EventDrivenWalkers`
        with a dispatch planner) additionally contribute per-chain step
        counts and the planning/prefetch accounting.
        """
        telemetry = collect_telemetry(self._api)
        summary: Dict[str, object] = telemetry.to_dict()
        summary.update(
            {
                "sampler_type": type(self._sampler).__name__,
                "steps": getattr(self._sampler, "steps", None),
                "saves": self._saves,
            }
        )
        chain_steps = getattr(self._sampler, "chain_steps", None)
        if chain_steps is not None:
            summary["chain_steps"] = tuple(chain_steps)
        planning_summary = getattr(self._sampler, "planning_summary", None)
        if callable(planning_summary):
            summary["planning"] = planning_summary()
        return summary
