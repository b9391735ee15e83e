"""Base machinery shared by all walk-based samplers.

A sampler advances node-by-node through the restrictive interface,
maintains the degree trace the convergence monitor watches, and collects
weighted samples once converged.  Each collected :class:`WalkSample`
records the billed query cost at collection time, so experiment drivers
can compute estimate-vs-cost curves from a single run (the paper's
Figures 7 and 11).
"""

from __future__ import annotations

import abc
import dataclasses
import random
from typing import Callable, Hashable, List, Optional, Sequence

from repro.convergence.monitors import ConvergenceMonitor
from repro.datastore.snapshot import register_codec
from repro.errors import PrivateUserError
from repro.interface.api import RestrictedSocialAPI
from repro.utils.rng import RngLike, StreamCursor, WordStream, pack_state, unpack_state

Node = Hashable

#: Returned by :meth:`RandomWalkSampler._replay_step` when a step cannot be
#: replayed (dead end, degenerate overlay, a branch that mutates G*).
UNRESOLVED = object()


class _ReplayCursor(StreamCursor):
    """One chain's replay: an index into its own word stream, plus a path.

    A replay step draws with the cursor's ``randrange``/``random``.
    ``path[i]`` is the position (see
    :meth:`RandomWalkSampler._replay_position`) after ``base + i`` live
    steps, and ``marks[i]`` the stream index the live chain has reached
    there.  ``index`` is where ``path[-1]``'s step starts, or where it
    continues when ``pause`` holds the uncached node the step waits on.
    ``seq`` carries ``path[-1]``'s neighbor tuple for engines that reuse
    it across steps; ``token`` is the replay token the path was replayed
    under.
    """

    __slots__ = ("token", "base", "path", "marks", "pause", "seq")

    def push(self, position) -> None:
        """Record a completed replay step that ends at ``position``."""
        self.path.append(position)
        self.marks.append(self.index)


@dataclasses.dataclass(frozen=True, init=False)
class WalkSample:
    """One collected sample.

    A frozen dataclass whose ``__init__`` fills the instance dict in
    place: every collected sample and every decoded one is built here,
    and the generated frozen ``__init__`` pays one ``object.__setattr__``
    per field.

    Attributes:
        node: Sampled user id.
        weight: Importance weight ∝ target(π) / walk-stationary(τ) at the
            node; multiplying by it re-targets estimates to the uniform
            distribution over users.
        query_cost: Billed queries spent up to (and including) collecting
            this sample.
        step: Walk step index at collection.
    """

    node: Node
    weight: float
    query_cost: int
    step: int

    def __init__(self, node: Node, weight: float, query_cost: int, step: int) -> None:
        fields = self.__dict__
        fields["node"] = node
        fields["weight"] = weight
        fields["query_cost"] = query_cost
        fields["step"] = step


# Snapshot codec so collected samples can live inside checkpointed state
# (the event-driven scheduler persists its partially filled merged list).
register_codec(
    "x:walk-sample",
    WalkSample,
    lambda s: (s.node, s.weight, s.query_cost, s.step),
    lambda fields: WalkSample(*fields),
)


@dataclasses.dataclass
class SamplingRun:
    """Everything one sampling run produced.

    Attributes:
        samples: Collected samples, in collection order.
        burn_in_steps: Steps spent before the monitor declared convergence.
        total_steps: All walk steps taken.
        query_cost: Final billed query count.
        converged: Whether the monitor fired (``False`` if the step budget
            ran out first).
    """

    samples: List[WalkSample]
    burn_in_steps: int
    total_steps: int
    query_cost: int
    converged: bool

    def nodes(self) -> List[Node]:
        """Sampled node ids, in order."""
        return [s.node for s in self.samples]


class RandomWalkSampler(abc.ABC):
    """Abstract walk-based sampler over a restrictive interface.

    Subclasses implement one :meth:`step` (and the stationary-correcting
    :meth:`weight`); burn-in, convergence monitoring, thinning, and sample
    collection are shared here.

    Args:
        api: The restrictive interface to sample through.
        start: Start node.  The interface exposes no node list, so callers
            must supply one (the paper starts "from an arbitrary user").
        seed: Randomness.
        bootstrap: Query ``start`` now (billed like any first visit) and
            record its degree as the trace's first entry.  The trace holds
            each visited node's original-graph degree: the attribute the
            paper's convergence monitors watch, because it exists in every
            network.  ``False`` only sets the fields up: the caller must
            :meth:`load_state` a captured session on top before stepping —
            rebuilding a session that already paid for its start node must
            not query it again.
    """

    def __init__(
        self,
        api: RestrictedSocialAPI,
        start: Node,
        seed: RngLike = None,
        *,
        bootstrap: bool = True,
    ) -> None:
        self._api = api
        # A caller-supplied Random may be shared with other consumers, so
        # only a chain that owns its stream can read its future draws.
        if isinstance(seed, random.Random):
            self._rng = seed
            self._stream: Optional[WordStream] = None
        else:
            self._rng = self._stream = WordStream(seed)
        self._current = start
        self._steps = 0
        self._trace: List[float] = []
        self._checkpoint_fn: Optional[Callable[["RandomWalkSampler"], None]] = None
        self._checkpoint_every = 0
        # The current node's stable neighbor tuple, or None when it must be
        # re-read through the interface (after load_state, or a commit that
        # didn't carry it).
        self._current_seq: Optional[tuple] = None
        if bootstrap:
            self._bootstrap()

    def _bootstrap(self) -> None:
        """Query the start node and record its degree as the trace's first entry."""
        seq = self._current_seq = self._api.fetch_seq(self._current)
        self._trace.append(float(len(seq)))

    # ------------------------------------------------------------------
    # subclass contract
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def step(self) -> Node:
        """Advance one step; returns the new current node.

        Implementations must go through ``self._api`` for all topology
        knowledge and commit with ``self._advance(node, degree, seq)`` or
        ``self._stay(degree)``.
        """

    @abc.abstractmethod
    def weight(self, node: Node) -> float:
        """Importance weight for ``node`` targeting the uniform distribution.

        Must only use knowledge already paid for (the node was just
        visited).
        """

    # ------------------------------------------------------------------
    # shared walk state
    # ------------------------------------------------------------------
    @property
    def current(self) -> Node:
        """The node the walk is at."""
        return self._current

    @property
    def steps(self) -> int:
        """Number of committed steps."""
        return self._steps

    @property
    def trace(self) -> Sequence[float]:
        """Degree trace (one entry per visited node incl. the start)."""
        return tuple(self._trace)

    @property
    def api(self) -> RestrictedSocialAPI:
        """The interface this sampler spends queries through."""
        return self._api

    @property
    def query_cost(self) -> int:
        """Billed queries so far."""
        return self._api.query_cost

    @property
    def rng(self):
        """The sampler's random stream (shared with subclasses)."""
        return self._rng

    def _advance(self, node: Node, degree: int, seq: Optional[tuple] = None) -> None:
        """Commit a move using already-paid-for degree knowledge.

        Args:
            node: The node moved to.
            degree: Its (already paid for) degree, recorded in the trace.
            seq: Its stable neighbor tuple, when the caller already holds
                it; keeps the memo warm so the next step is draw-only.
                Omitted → memo invalidated.
        """
        self._current = node
        self._current_seq = seq
        self._steps += 1
        self._trace.append(float(degree))
        self._after_commit()

    def _stay(self, degree: int) -> None:
        """Commit a self-transition (MH rejection / hold) at ``degree``.

        ``degree`` is the current node's degree, recorded in the trace.
        """
        self._steps += 1
        self._trace.append(float(degree))
        self._after_commit()

    # ------------------------------------------------------------------
    # checkpoint hook
    # ------------------------------------------------------------------
    def set_checkpoint(self, fn: Callable[["RandomWalkSampler"], None], every: int) -> None:
        """Invoke ``fn(self)`` after every ``every``-th committed step.

        The hook fires at *commit points* — after a move or a
        self-transition lands — which in every walk engine is the last
        RNG-consuming action of a step.  Capturing state there (e.g.
        ``SamplingSession.save``) therefore snapshots a resumable
        boundary: the next step replays identically from the stored RNG
        state.  Firing is driver-agnostic: ``run``, ``run_to_coverage``,
        parallel lock-stepping, and hand-rolled ``step()`` loops all hit
        it.

        Args:
            fn: Callback receiving this sampler.
            every: Positive step period.

        Raises:
            ValueError: If ``every`` is not positive.
        """
        if every < 1:
            raise ValueError("checkpoint period must be positive")
        self._checkpoint_fn = fn
        self._checkpoint_every = every

    def clear_checkpoint(self) -> None:
        """Remove any installed checkpoint hook."""
        self._checkpoint_fn = None
        self._checkpoint_every = 0

    def _after_commit(self) -> None:
        if self._checkpoint_fn is not None and self._steps % self._checkpoint_every == 0:
            self._checkpoint_fn(self)

    # ------------------------------------------------------------------
    # snapshot support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serializable mutable walk state.

        Position, step count, attribute trace, and the full Mersenne
        Twister state — everything needed for a fresh process to continue
        with the *same draws* (and, with the interface state restored
        alongside, the same §II-B billing).  The RNG entry is packed
        (:func:`~repro.utils.rng.pack_state`): ``(version, words,
        gauss_next)`` with the 625 Mersenne words as one ``bytes`` value,
        so a hibernate encodes one value per chain instead of 625 tagged
        ints.  :meth:`load_state` also accepts Random's tuple layout,
        which older snapshots carry.  Constructor configuration (engine
        options) is not captured: the restoring process rebuilds the
        sampler with the same arguments and loads this state on top.  Subclasses with extra per-step state override
        and extend this dict.
        """
        return {
            "current": self._current,
            "steps": self._steps,
            "trace": list(self._trace),
            "rng": pack_state(self._rng.getstate()),
        }

    def load_state(self, state: dict) -> None:
        """Restore position/steps/trace/RNG captured by :meth:`state_dict`.

        The neighbor-tuple memo is invalidated; the next ``step()``
        re-reads the current node from the (restored) cache, which is
        free.  The replay cursor restarts at its next prediction: the
        restored stream's words carry indices it never recorded.

        Args:
            state: Output of :meth:`state_dict`.
        """
        self._current = state["current"]
        self._steps = int(state["steps"])
        self._trace = [float(x) for x in state["trace"]]
        self._rng.setstate(unpack_state(state["rng"]))
        self._current_seq = None

    # ------------------------------------------------------------------
    # planning support
    # ------------------------------------------------------------------

    #: This chain's replay cursor (lazily created, never serialized).
    _cursor: Optional["_ReplayCursor"] = None

    def _replay_seq_of(self, cache, node: Node) -> Optional[tuple]:
        """``node``'s stable neighbor tuple as a replay would see it.

        Reads the shared cache, falling back to the step memo when the
        walk's own current node has been evicted from a bounded cache —
        the memo is what the real step will draw from.  Returns ``None``
        for genuinely unknown neighborhoods.
        """
        seq = cache.neighbor_seq(node)
        if seq is None and node == self._current:
            return self._current_seq
        return seq

    def predict_next_fetch(self, max_steps: int = 64):
        """The node this walk will *fetch* next, or ``None`` if unknown.

        Engines whose per-step randomness can be replayed against cached
        neighborhoods (all four walk engines) override this and delegate
        to :meth:`_replay_fetch`, supplying only their one-step replay
        rule (:meth:`_replay_step`).  The replay walks forward from the
        live node, decoding the chain's own future draws from its word
        stream, through known territory until the first uncached node —
        the fetch a history-aware planner can issue early, into an open
        burst's spare slot.  The prediction consumes **no** live draw and
        issues **no** queries.  The default answers ``None``:
        unpredictable engines simply get no prefetch.

        Args:
            max_steps: Simulation horizon — how far through cached
                territory to look before giving up.
        """
        return None

    def _replay_fetch(self, max_steps: int):
        """The next fetch within ``max_steps`` steps, via this chain's cursor.

        A call first checks that the live chain stands on the cursor's
        path, at both the recorded position and the recorded stream
        index, trims the path to start there, and continues the replay
        where it stopped; a still-pending uncached target is answered
        without replaying.  Every future draw is thus replayed once,
        however often a planner asks, and the answer is the one a fresh
        replay gives.  Otherwise — the replay token
        (:meth:`_replay_token`) changed or reads ``None``, or the live
        chain is off the path or past its end, which also catches a
        restored RNG and a step that drew, then raised — the cursor
        restarts at the live position and index, at no cost.  A chain
        whose RNG the caller handed in has no stream and answers
        ``None``: another holder of that RNG may draw between calls.

        Returns:
            The predicted fetch, or ``None`` when a replay step cannot
            be resolved or no fetch lies within ``max_steps`` steps.
        """
        stream = self._stream
        if stream is None:
            return None
        cache = self._api.cache
        token = self._replay_token(cache)
        cursor = self._cursor
        if cursor is None or token is None or cursor.token != token:
            cursor = self._cursor_restart(token)
        else:
            # Trim the cursor to start at the live step; off its path (or
            # past its end), it restarts.
            offset = self._steps - cursor.base
            if (
                not 0 <= offset < len(cursor.path)
                or cursor.marks[offset] != stream.index
                or cursor.path[offset] != self._replay_position()
            ):
                cursor = self._cursor_restart(token)
            elif offset:
                del cursor.path[:offset]
                del cursor.marks[:offset]
                cursor.base = self._steps
        path = cursor.path
        step = self._replay_step
        while len(path) <= max_steps:
            target = step(cursor, cache)
            if target is None:
                continue
            if target is UNRESOLVED:
                cursor.token = None
                return None
            return target
        return None

    def _cursor_restart(self, token) -> "_ReplayCursor":
        """Restart this chain's cursor at the live position and stream index."""
        cursor = self._cursor
        if cursor is None:
            cursor = self._cursor = _ReplayCursor(self._stream)
        cursor.index = self._stream.index
        cursor.token = token
        cursor.base = self._steps
        cursor.path = [self._replay_position()]
        cursor.marks = [cursor.index]
        cursor.pause = None
        cursor.seq = None
        return cursor

    def _replay_token(self, cache):
        """What must not change while a cursor is kept, or ``None``.

        The replay reads cached neighborhoods, so the default token is
        ``cache``'s :attr:`~repro.interface.cache.NeighborhoodCache.
        retention_version`: newly cached users are picked up by
        re-checking the paused target, but a dropped or replaced one
        could change a step already replayed.

        Args:
            cache: The interface's cache, as the replay already read it.
        """
        return cache.retention_version

    def _replay_position(self):
        """The live chain state a replayed path records per step."""
        return self._current

    def _replay_step(self, cursor: "_ReplayCursor", cache):
        """Replay one step of this engine from ``cursor.path[-1]``.

        Draws from ``cursor`` exactly as the live step would.  On a
        completed step, records the new position with
        :meth:`_ReplayCursor.push` and returns ``None``.  When the step
        needs an uncached neighborhood, records that node in
        ``cursor.pause`` and returns it; a later call resumes the paused
        step once the node is cached.  Returns :data:`UNRESOLVED` when
        the step cannot be replayed.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # sampling loop
    # ------------------------------------------------------------------
    def run(
        self,
        num_samples: int,
        monitor: Optional[ConvergenceMonitor] = None,
        thinning: int = 1,
        check_every: int = 25,
        max_steps: int = 1_000_000,
    ) -> SamplingRun:
        """Burn in until ``monitor`` fires, then collect weighted samples.

        Args:
            num_samples: Samples to collect after convergence.
            monitor: Convergence monitor; ``None`` skips burn-in entirely
                (samples start immediately — useful for cost-curve
                experiments where the estimate itself reveals convergence).
            thinning: Keep every ``thinning``-th post-burn-in node.
            check_every: Base interval between monitor evaluations; the
                interval grows geometrically with the trace (a check scans
                the whole trace, so fixed-interval checking would cost
                O(steps²) on slow-mixing chains).
            max_steps: Hard step budget; the run returns unconverged
                rather than looping forever.

        Returns:
            The :class:`SamplingRun`.

        Raises:
            ValueError: On non-positive ``num_samples``/``thinning``.
            WalkError: If the walk dead-ends.
        """
        if num_samples <= 0:
            raise ValueError("num_samples must be positive")
        if thinning <= 0:
            raise ValueError("thinning must be positive")
        converged = monitor is None
        burn_in_steps = 0
        if monitor is not None:
            monitor.reset()
            next_check = self._steps
            while self._steps < max_steps:
                if self._steps >= next_check:
                    if monitor.converged(self._trace):
                        converged = True
                        break
                    # Geometric back-off keeps total check cost O(n log n).
                    next_check = self._steps + max(check_every, self._steps // 5)
                self.step()
            burn_in_steps = self._steps

        samples: List[WalkSample] = []
        since_last = thinning  # collect the first post-burn-in node
        while len(samples) < num_samples and self._steps < max_steps + num_samples * thinning:
            if since_last >= thinning:
                samples.append(
                    WalkSample(
                        node=self._current,
                        weight=self.weight(self._current),
                        query_cost=self._api.query_cost,
                        step=self._steps,
                    )
                )
                since_last = 0
                if len(samples) >= num_samples:
                    break
            self.step()
            since_last += 1
        return SamplingRun(
            samples=samples,
            burn_in_steps=burn_in_steps,
            total_steps=self._steps,
            query_cost=self._api.query_cost,
            converged=converged,
        )

    # ------------------------------------------------------------------
    # helpers for subclasses
    # ------------------------------------------------------------------
    def _current_neighbor_seq(self) -> tuple:
        """The current node's stable neighbor tuple, memoized.

        Every step opens with this read: a field access when the memo is
        warm (every commit that carries a tuple re-warms it), otherwise
        one free re-read through :meth:`~repro.interface.api.
        RestrictedSocialAPI.fetch_seq`.
        """
        seq = self._current_seq
        if seq is None:
            seq = self._current_seq = self._api.fetch_seq(self._current)
        return seq

    def _draw_accessible(self, neighbors: Sequence[Node]) -> Optional[tuple]:
        """Uniformly draw an accessible neighbor and its neighbor tuple.

        On networks without private users (``api.may_have_private`` is
        false) this is a single O(1) index into the stable neighbor
        sequence.  Otherwise private users (our failure-injection
        surface — real crawls hit them constantly) are redrawn around;
        the first refusal per user is billed by the interface, later ones
        are cached.

        Returns:
            ``(node, neighbor_seq)`` or ``None`` when every neighbor is
            private.
        """
        if not neighbors:
            return None
        api = self._api
        if not api.may_have_private:
            candidate = neighbors[self._rng.randrange(len(neighbors))]
            return candidate, api.fetch_seq(candidate)
        pool = [v for v in neighbors if not api.is_known_private(v)]
        while pool:
            candidate = pool.pop(self._rng.randrange(len(pool)))
            try:
                return candidate, api.fetch_seq(candidate)
            except PrivateUserError:
                continue
        return None
