"""The one dispatch loop for many parallel chains, on simulated time.

The follow-up paper "Walk, Not Wait: Faster Sampling Over Online Social
Networks" observes that a crawler should keep queries from many chains
in flight and react to whichever response lands first, instead of
advancing chains in lock-step rounds where one slow or throttled query
stalls *every* chain and the group pays the per-round **maximum**
latency.

:class:`EventDrivenWalkers` is that scheduler.  Each chain is an event
source in one ``(ready_time, seq, chain)`` queue: when its previous
response lands (an event at simulated time ``t``), its next step is
dispatched immediately and its following event is scheduled at ``t``
plus the provider latency that step incurred.  Chains interleave by
*completion time* instead of round index, so the group's makespan
approaches the fastest chains' aggregate rate rather than the slowest
chain's.

Lock-step is the *barrier* case of the same loop
(:class:`~repro.walks.parallel.ParallelWalkers`): a tick is the whole
round, every queued chain in FIFO order, and every chain of the round
becomes ready at the round's latest ready time.  That is the per-round
maximum exactly, since ``max(t + l_i) == t + max(l_i)`` in floating
point.  Equivalence guarantee: on a zero-latency provider every event
carries the same timestamp, so without the barrier the queue degenerates
to the same FIFO round-robin and reproduces a lock-step run bit-for-bit
(same merged sample sequence, same §II-B billing, same R̂).  The
determinism suite asserts this.

Two clocks, deliberately distinct:

* the interface's :class:`~repro.interface.ratelimit.SimulatedClock` stays
  the *serial crawler clock* (rate limiting and billing semantics are
  unchanged over any provider);
* the scheduler's event time redistributes the per-response latencies
  (diffed from :attr:`~repro.interface.api.RestrictedSocialAPI.latency_spent`
  around each step) onto concurrent per-chain timelines;
  :attr:`EventDrivenWalkers.simulated_elapsed` is the resulting makespan.

The loop advances one *tick* at a time, and one tick body serves
burn-in and collection, with or without a fleet, barrier or not.
Without a provider fleet a tick is the single earliest event and the
stepped chain is ready at the event time plus the latency its step
incurred.  When the interface's
provider stack contains a :class:`~repro.fleet.provider.ShardedProvider`
dispatch is batch-aware: a tick is exactly the set of events tied at the
earliest timestamp, and dispatches of one tick that head to the same
shard coalesce into one ``query_many``-style burst, billed as a
*single* provider round trip — the maximum latency of the burst, bounded
by the shard's batch cap — and each burst consumes one admission slot of
the shard's rate limit instead of one per fetch.  §II-B unique-query
billing is untouched (every fetch is still billed individually by the
interface); only the concurrent timeline changes.  With a single
zero-latency shard every burst completes instantly, so the equivalence
guarantee above carries over to fleets.

History-aware planning (``planner=DispatchPlanner(...)``) adds the
:mod:`repro.planning` layer on top of fleet dispatch:

* **cache-first stepping** — a chain whose next neighborhood is already
  in history advances at zero simulated latency without occupying an
  admission slot (its step dispatches nothing, so it joins no burst);
* **predictive prefetch** — after a tick's real fetches are settled, the
  planner replays each stepping chain's RNG through cached territory to
  find the neighborhood it will fetch next, and rides that fetch in an
  open burst's spare slots (same admission, §II-B budget spent early);
  a chain that reaches a prefetched node before its round trip landed
  waits out the difference — walk, not wait, but never time travel;
* **adaptive chain lifecycle** — an optional policy retires latency-tail
  chains at collection round floors and spawns warm reserves that burned
  in alongside the group; quotas rebalance deterministically and retired
  chains' merged samples stay where completion order put them.

With no planner none of the above runs.

A tick pays for what its events do: per-tick values are read once per
tick, a tick whose chains all took samples skips settling and planning
(untraced; a recorder still gets every gauge), and a prefetch attempt
that finds no open burst on its target's shard costs its prediction and
one routing call.

The full in-flight state — event queue, per-chain ready times, per-shard
admission horizons, phase, chain roster, planner ledger, and the
partially filled merged sample list — serializes through
``state_dict``/``load_state``, so a
:class:`~repro.interface.session.SamplingSession` can checkpoint a run
mid-flight and a fresh process resumes it bit-for-bit.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.convergence.gelman_rubin import GelmanRubinDiagnostic
from repro.core.overlay import shared_overlay_of
from repro.errors import SnapshotError, WalkError
from repro.fleet.provider import FetchDispatch, find_fleet
from repro.interface.telemetry import collect_telemetry
from repro.obs.trace import (
    EVENT_ADMISSION_WAIT,
    EVENT_BURST_DISPATCH,
    EVENT_PREFETCH_ISSUE,
    EVENT_PREFETCH_LAND,
    EVENT_SAMPLE,
    EVENT_WALK_STEP,
    TraceEvent,
    TraceRecorder,
)
from repro.planning.lifecycle import (
    ROSTER_ACTIVE,
    ROSTER_RESERVE,
    ROSTER_RETIRED,
    ChainObservation,
)
from repro.planning.planner import DispatchPlanner
from repro.walks.base import RandomWalkSampler, SamplingRun, WalkSample
from repro.walks.results import EventDrivenRun, ParallelRun, RunResult

#: Scheduler lifecycle phases (persisted in snapshots).
PHASE_FRESH = "fresh"
PHASE_BURNIN = "burnin"
PHASE_COLLECT = "collect"
PHASE_DONE = "done"


class EventDrivenWalkers:
    """Drive several samplers over one interface by response-completion time.

    Args:
        samplers: Two or more walkers constructed over the *same*
            ``RestrictedSocialAPI`` (checked), typically from different
            start nodes.  Shared-overlay MTO chains are supported: the
            common overlay is auto-detected and exposed via
            :attr:`overlay` so one session snapshot covers the group.
        max_lead: During burn-in, the most rounds any chain may run ahead
            of the slowest one.  Burn-in needs loosely comparable trace
            lengths for R̂ (a chain arbitrarily far ahead wastes budget if
            convergence fires early); collection has no such bound —
            interleaving by completion is the point.
        planner: Optional :class:`~repro.planning.DispatchPlanner`
            enabling history-aware dispatch: cache-first stepping
            accounting, predictive prefetch into open bursts' spare
            slots, and (when the planner carries a policy) adaptive
            chain spawn/retire.  Requires a fleet — prefetch rides
            coalesced round trips.  The planner must be freshly
            constructed (it holds per-run state).

    Dispatch coalesces exactly when the shared interface's provider
    stack contains a :class:`~repro.fleet.provider.ShardedProvider`
    (found by :func:`~repro.fleet.provider.find_fleet`); there is no
    switch.

    Raises:
        WalkError: With fewer than two samplers, mismatched interfaces,
            a non-positive ``max_lead``, or a ``planner`` over an
            interface whose provider stack has no fleet.

    Example:
        >>> from repro.datasets import load
        >>> from repro.walks import SimpleRandomWalk
        >>> net = load("epinions_like", seed=0, scale=0.1)
        >>> api = net.interface(latency_distribution="heavy_tailed")
        >>> walkers = EventDrivenWalkers([
        ...     SimpleRandomWalk(api, start=net.seed_node(i), seed=i)
        ...     for i in range(3)
        ... ])
        >>> result = walkers.run(num_samples=30)
        >>> len(result.samples)
        30
    """

    #: Lock-step rounds (see the module docstring); fixed per class, set
    #: only by :class:`~repro.walks.parallel.ParallelWalkers`.
    _barrier = False

    def __init__(
        self,
        samplers: Sequence[RandomWalkSampler],
        max_lead: int = 64,
        planner: Optional[DispatchPlanner] = None,
    ) -> None:
        if len(samplers) < 2:
            raise WalkError("parallel walking needs at least two samplers")
        api = samplers[0].api
        if any(s.api is not api for s in samplers):
            raise WalkError("all samplers must share one interface")
        if max_lead < 1:
            raise WalkError("max_lead must be positive")
        self._samplers = list(samplers)
        self._api = api
        self._max_lead = int(max_lead)
        self._overlay = shared_overlay_of(samplers)
        # A chain may predict only when no other writer of its overlay can
        # step between its prediction and its own step: a rewire landing
        # there can invalidate the replay (see
        # MTOSampler.predict_next_fetch).  Under the barrier those are the
        # sharers earlier in the round; otherwise completion order
        # interleaves every sharer.  A private overlay is written only by
        # its own chain, whose steps are exactly what the replay simulates.
        overlays = [getattr(s, "overlay", None) for s in self._samplers]
        self._predict_ok = []
        for i, ov in enumerate(overlays):
            rivals = overlays[:i] if self._barrier else overlays[:i] + overlays[i + 1 :]
            self._predict_ok.append(ov is None or all(r is not ov for r in rivals))
        # Lock-step waits on each chain's own response; it never coalesces.
        self._fleet = None if self._barrier else find_fleet(api.provider)
        num_shards = self._fleet.num_shards if self._fleet else 0
        self._next_free = [0.0] * num_shards
        # Per shard: the open (not yet departed) burst as [start, max
        # member latency, member count], or None — the in-flight batch
        # state later dispatches coalesce into.
        self._open_bursts: List[Optional[List[float]]] = [None] * num_shards

        k = len(self._samplers)
        self._planner = planner
        if planner is not None:
            if self._fleet is None:
                raise WalkError(
                    "a dispatch planner needs a ShardedProvider in the "
                    "interface's provider stack (see repro.planning)"
                )
            planner.bind(self._fleet)
        # Chain roster and per-chain observation books.  Without a policy
        # every chain is active for the whole run and the books are pure
        # bookkeeping; with one, the roster drives collection scheduling.
        self._policy = policy = planner.policy if planner is not None else None
        self._roster: List[str] = policy.initial_roster(k) if policy is not None else [ROSTER_ACTIVE] * k
        self._collect_steps = [0] * k
        self._timed_steps = [0] * k
        self._chain_latency = [0.0] * k
        self._next_review = 0
        self._collected = [0] * k
        self._quota = 0
        self._thinning = 1
        self._phase = PHASE_FRESH
        # (ready_time, seq, chain): seq is a global dispatch counter so
        # equal-time events pop FIFO — at zero latency that *is* the
        # lock-step round-robin order.
        self._heap: List[Tuple[float, int, int]] = []
        self._seq = 0
        self._ready = [0.0] * k
        self._sim_time = 0.0
        self._since = [0] * k
        self._burn_rounds = [0] * k
        self._parked: Set[int] = set()
        self._next_check = 0
        self._r_hat: Optional[float] = None
        self._merged: List[WalkSample] = []
        self._merged_chain: List[int] = []
        self._events = 0
        self._checkpoint_fn = None
        self._checkpoint_every = 0
        self._recorder: Optional[TraceRecorder] = None
        self._obs_tenant: Optional[str] = None
        self._watcher = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def chains(self) -> Sequence[RandomWalkSampler]:
        """The managed samplers."""
        return tuple(self._samplers)

    @property
    def query_cost(self) -> int:
        """Billed queries of the shared interface."""
        return self._api.query_cost

    @property
    def overlay(self):
        """The overlay all chains share, or ``None`` (auto-detected)."""
        return self._overlay

    @property
    def simulated_elapsed(self) -> float:
        """Event-time makespan so far (concurrent, not serial, latency).

        Under the lock-step barrier this is the sum of the rounds'
        maximum latencies: one slow or throttled response stalls its
        whole round.
        """
        return self._sim_time

    @property
    def events_processed(self) -> int:
        """Dispatched chain actions so far."""
        return self._events

    @property
    def phase(self) -> str:
        """Current lifecycle phase (``fresh``/``burnin``/``collect``/``done``)."""
        return self._phase

    @property
    def fleet(self):
        """The fleet dispatch coalesces over, or ``None``."""
        return self._fleet

    @property
    def planner(self):
        """The attached dispatch planner, or ``None``."""
        return self._planner

    @property
    def chain_steps(self) -> Tuple[int, ...]:
        """Per-chain committed step counts, in chain order."""
        return tuple(s.steps for s in self._samplers)

    @property
    def roster(self) -> Tuple[str, ...]:
        """Per-chain roster states (all ``active`` without a policy)."""
        return tuple(self._roster)

    def planning_summary(self) -> Optional[dict]:
        """Planner accounting + roster, or ``None`` without a planner."""
        if self._planner is None:
            return None
        summary = self._planner.summary()
        summary.update(
            {
                "roster": tuple(self._roster),
                "active_chains": sum(1 for r in self._roster if r == ROSTER_ACTIVE),
                "retired_chains": tuple(i for i, r in enumerate(self._roster) if r == ROSTER_RETIRED),
                "reserve_chains": tuple(i for i, r in enumerate(self._roster) if r == ROSTER_RESERVE),
                "chain_collect_steps": tuple(self._collect_steps),
            }
        )
        return summary

    # ------------------------------------------------------------------
    # observability (zero-cost when no recorder is attached)
    # ------------------------------------------------------------------
    @property
    def recorder(self) -> Optional[TraceRecorder]:
        """The attached trace recorder, or ``None`` (the default)."""
        return self._recorder

    def set_recorder(self, recorder: Optional[TraceRecorder], tenant=None) -> None:
        """Attach (or with ``None`` detach) a trace recorder.

        The scheduler stamps its ``walk_step``/``sample``/
        ``burst_dispatch``/``prefetch_*``/``admission_wait`` spans on
        *event time* (the concurrent makespan clock), streams R̂ and
        per-shard in-flight depth into the recorder's metrics, and never
        perturbs the run: every hook is a guarded no-op branch when
        detached, and a pure observation when attached.

        Args:
            recorder: The sink, or ``None`` to detach.
            tenant: Optional tenant label stamped on every event this
                scheduler emits.  Multi-tenant services share one
                recorder across schedulers whose chains are all numbered
                ``0..k-1``; the label is what keeps their causal
                timelines separable.
        """
        self._recorder = recorder
        self._obs_tenant = None if tenant is None else str(tenant)

    def set_watcher(self, watcher) -> None:
        """Attach (or with ``None`` detach) a live SLO watcher.

        The watcher is polled at every commit point (event/tick), on the
        simulated clock — after the tick's state has fully settled, so a
        breach event's timestamp is the first commit at which the
        condition held.  Polling reads metrics and appends breach events
        only; it never touches walk state, so watched runs stay
        bit-for-bit identical in samples and billing.
        """
        self._watcher = watcher

    def _emit(self, name: str, when: float, dur: float = 0.0, **attrs) -> TraceEvent:
        """Record one event, tenant label last (caller guards the recorder)."""
        if self._obs_tenant is not None:
            attrs["tenant"] = self._obs_tenant
        return self._recorder.record(name, when, dur, **attrs)

    # ------------------------------------------------------------------
    # event-queue plumbing
    # ------------------------------------------------------------------
    def _push(self, chain: int, when: float) -> None:
        heappush(self._heap, (when, self._seq, chain))
        self._seq += 1

    def _tick_committed(self, events_in_tick: int) -> None:
        """Commit a whole tick; checkpoints fire only at tick boundaries.

        Mid-tick the popped-but-unsettled dispatches are not yet back in
        the queue, so a snapshot there would not be a resumable cut; the
        period is therefore honoured at the first boundary that crosses
        it.
        """
        before = self._events
        self._events += events_in_tick
        if self._watcher is not None:
            self._watcher.poll(self._sim_time)
        if (
            self._checkpoint_fn is not None
            and self._events // self._checkpoint_every > before // self._checkpoint_every
        ):
            self._checkpoint_fn(self)

    # ------------------------------------------------------------------
    # checkpoint hook
    # ------------------------------------------------------------------
    def set_checkpoint(self, fn, every: int) -> None:
        """Invoke ``fn(self)`` after every ``every``-th commit point.

        The scheduler's commit points are processed events: the
        dispatched action has landed and the queue already holds the
        chain's next event, so the captured state (including the
        in-flight queue) resumes bit-for-bit.  Lock-step's are rounds
        (see :class:`~repro.walks.parallel.ParallelWalkers`).

        Args:
            fn: Callback receiving this group.
            every: Positive period.

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

    # ------------------------------------------------------------------
    # snapshot support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serializable scheduler state, in-flight event queue included.

        Captures every chain's walk state plus the event-loop bookkeeping:
        queue entries and the dispatch counter (the FIFO tie-break *is*
        the determinism), per-chain ready times and thinning counters,
        phase, burn-in progress, R̂, and the partially filled merged
        sample list (via the registered ``WalkSample`` codec; it and its
        chain indices are lists, so the codec writes them as column
        blocks and a hibernation spill can splice their tails).  The shared
        interface and overlay are snapshotted once by
        :class:`~repro.interface.session.SamplingSession`, not here.
        """
        return {
            "chains": [s.state_dict() for s in self._samplers],
            "phase": self._phase,
            "heap": [tuple(entry) for entry in self._heap],
            "next_seq": self._seq,
            "ready": tuple(self._ready),
            "sim_time": self._sim_time,
            "since": tuple(self._since),
            "burn_rounds": tuple(self._burn_rounds),
            "parked": tuple(sorted(self._parked)),
            "next_check": self._next_check,
            "r_hat": self._r_hat,
            "merged": list(self._merged),
            "merged_chain": list(self._merged_chain),
            "events": self._events,
            "next_free": tuple(self._next_free),
            "open_bursts": tuple(None if burst is None else tuple(burst) for burst in self._open_bursts),
            "roster": tuple(self._roster),
            "collect_steps": tuple(self._collect_steps),
            "timed_steps": tuple(self._timed_steps),
            "chain_latency": tuple(self._chain_latency),
            "next_review": self._next_review,
            "planner": None if self._planner is None else self._planner.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        """Restore a captured scheduler state.

        Args:
            state: Output of :meth:`state_dict`.

        Raises:
            SnapshotError: If the chain count differs from this group's.
        """
        self._load_chains(state["chains"])
        self._phase = str(state["phase"])
        self._heap = [tuple(entry) for entry in state["heap"]]
        heapify(self._heap)
        self._seq = int(state["next_seq"])
        self._ready = [float(t) for t in state["ready"]]
        self._sim_time = float(state["sim_time"])
        self._since = [int(c) for c in state["since"]]
        self._burn_rounds = [int(r) for r in state["burn_rounds"]]
        self._parked = set(state["parked"])
        self._next_check = int(state["next_check"])
        self._r_hat = None if state["r_hat"] is None else float(state["r_hat"])
        self._merged = list(state["merged"])
        self._merged_chain = [int(i) for i in state["merged_chain"]]
        self._events = int(state["events"])
        self._next_free = [float(t) for t in state["next_free"]]
        if self._fleet is not None and len(self._next_free) != self._fleet.num_shards:
            raise SnapshotError(
                f"snapshot tracks {len(self._next_free)} shard admission horizons; "
                f"this fleet has {self._fleet.num_shards} shards"
            )
        self._open_bursts = [
            None if burst is None else [float(x) for x in burst] for burst in state["open_bursts"]
        ]
        if self._fleet is not None and len(self._open_bursts) != self._fleet.num_shards:
            raise SnapshotError(
                f"snapshot tracks {len(self._open_bursts)} open bursts; "
                f"this fleet has {self._fleet.num_shards} shards"
            )
        k = len(self._samplers)
        self._roster = list(state["roster"])
        if len(self._roster) != k:
            raise SnapshotError(
                f"snapshot tracks a roster of {len(self._roster)} chains; " f"this group has {k}"
            )
        self._collect_steps = [int(c) for c in state["collect_steps"]]
        self._timed_steps = [int(c) for c in state["timed_steps"]]
        self._chain_latency = [float(x) for x in state["chain_latency"]]
        self._next_review = int(state["next_review"])
        planner_state = state["planner"]
        if self._planner is not None:
            if planner_state is None:
                raise SnapshotError(
                    "snapshot was captured without a dispatch planner; "
                    "resume with an identically configured scheduler"
                )
            self._planner.load_state(planner_state)
        elif planner_state is not None:
            raise SnapshotError(
                "snapshot carries dispatch-planner state; attach the same "
                "planner configuration before resuming"
            )

    def _load_chains(self, chains: Sequence[dict]) -> None:
        """Restore every chain's walk state, in chain order."""
        if len(chains) != len(self._samplers):
            raise SnapshotError(f"snapshot holds {len(chains)} chains; this group has {len(self._samplers)}")
        for sampler, chain_state in zip(self._samplers, chains):
            sampler.load_state(chain_state)

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------
    # Both phases run one tick body, _tick (see the module docstring):
    # every popped chain acts — steps, or during collection takes its
    # sample — and only then are the tick's fetches settled (over a
    # fleet) and the chains re-queued.  On a fleet whose every latency is
    # zero a tick is one lock-step round and the dispatch order reduces
    # to FIFO round-robin — the equivalence the determinism suite asserts.

    def run(
        self,
        num_samples: int,
        monitor: Optional[GelmanRubinDiagnostic] = None,
        thinning: int = 1,
        check_every: int = 25,
        max_steps: int = 250_000,
    ) -> EventDrivenRun:
        """Burn in until R̂ converges, then collect by completion time.

        Collection runs the same tick loop as :meth:`begin_collect` +
        :meth:`collect_tick`.  Re-entrant: a scheduler whose state was
        loaded mid-flight continues from the restored phase when ``run``
        is called again with the same arguments, and a finished one
        called with a larger ``num_samples`` re-opens collection the way
        :meth:`begin_collect` does, keeping its samples so far first.

        Args:
            num_samples: Total samples across all chains.
            monitor: Multi-chain diagnostic; ``None`` skips burn-in.
            thinning: Per-chain spacing between collected samples.
            check_every: Burn-in rounds between R̂ evaluations (grows
                geometrically, like the lock-step driver).
            max_steps: Per-chain step budget for the burn-in phase.

        Raises:
            ValueError: On non-positive ``num_samples``/``thinning``.
        """
        if num_samples <= 0:
            raise ValueError("num_samples must be positive")
        if thinning <= 0:
            raise ValueError("thinning must be positive")
        fleet = self._fleet
        if fleet is not None:
            # Tracing is scoped to the run so an api outliving this
            # scheduler never accumulates an undrained dispatch log.
            fleet.trace_dispatches(True)
        if self._phase == PHASE_FRESH and monitor is not None:
            self._phase = PHASE_BURNIN
            # Every burn-in counts from round zero (lock-step runs restart fresh).
            self._burn_rounds = [0] * len(self._samplers)
            self._next_check = 0
            for i in range(len(self._samplers)):
                self._push(i, self._ready[i])
        if self._phase == PHASE_BURNIN:
            if monitor is None:
                raise WalkError(
                    "this scheduler is mid-burn-in (e.g. restored from a checkpoint); "
                    "run() needs the same monitor the original run used"
                )
            self._run_burnin(monitor, check_every, max_steps)
        self._open_collect(num_samples, thinning)
        if self._phase == PHASE_COLLECT:
            if fleet is not None:
                fleet.drain_dispatches()
            while len(self._merged) < num_samples:
                self._tick(num_samples)
            self._phase = PHASE_DONE
        if fleet is not None:
            fleet.trace_dispatches(False)
        return self._result(monitor)

    def _run_burnin(self, monitor: GelmanRubinDiagnostic, check_every: int, max_steps: int) -> None:
        if self._fleet is not None:
            self._fleet.drain_dispatches()  # drop anything traced outside the loop
        burn_rounds = self._burn_rounds
        while True:
            rounds = min(burn_rounds)
            if rounds >= max_steps:
                self._r_hat = monitor.r_hat([s.trace for s in self._samplers])
                return
            if rounds >= self._next_check:
                traces = [s.trace for s in self._samplers]
                if monitor.converged(traces):
                    self._r_hat = monitor.r_hat(traces)
                    if self._recorder is not None:
                        self._recorder.metrics.series("walk.r_hat").observe(self._sim_time, self._r_hat)
                    return
                if self._recorder is not None:
                    self._recorder.metrics.series("walk.r_hat").observe(self._sim_time, monitor.r_hat(traces))
                self._next_check = rounds + max(check_every, rounds // 5)
            self._tick(None)

    def _open_collect(self, num_samples: int, thinning: int) -> None:
        """Enter, re-derive or re-open collection toward ``num_samples``.

        A fresh or burned-in scheduler seeds its queue, a restored
        mid-collection one re-derives its quota bookkeeping, and a
        ``done`` one re-opens when the target exceeds what it already
        collected: its samples so far stay first.
        """
        if self._phase in (PHASE_FRESH, PHASE_BURNIN):
            self._begin_collect(thinning)
        elif self._phase == PHASE_DONE and len(self._merged) < num_samples:
            self._phase = PHASE_COLLECT
        if self._phase == PHASE_COLLECT:
            self._init_collect(num_samples, thinning)
            # A re-opened scheduler's chains left the queue at the old
            # quota; under-quota active chains resume at the current time.
            self._requeue_missing(self._sim_time)

    def _begin_collect(self, thinning: int) -> None:
        """Switch to collection: discard burn-in events, re-seed the queue.

        With an adaptive policy only active-roster chains are queued;
        reserves stay warm (burned in, positioned, not scheduled) until
        a review spawns them.  The policy's R̂ trigger may activate
        reserves right here — an unconverged burn-in means more chains
        to average over.
        """
        self._phase = PHASE_COLLECT
        self._heap = []
        self._parked = set()
        self._since = [thinning] * len(self._samplers)
        policy = self._policy
        if policy is not None:
            reserves = [i for i, r in enumerate(self._roster) if r == ROSTER_RESERVE]
            for chain in reserves[: policy.collect_spawn_count(len(reserves), self._r_hat)]:
                self._roster[chain] = ROSTER_ACTIVE
        for i in range(len(self._samplers)):
            if self._roster[i] == ROSTER_ACTIVE:
                self._push(i, self._ready[i])

    def _init_collect(self, num_samples: int, thinning: int) -> None:
        """(Re-)derive collection bookkeeping: thinning, per-chain tallies, quota.

        The per-chain quota means no chain contributes more than its fair
        share.  At zero latency it binds exactly when the global count
        does (round-robin fills all chains evenly), so lock-step
        equivalence is untouched; under heterogeneous latency it stops
        fast chains from crowding out slow ones — every chain does the
        same work as in a lock-step run, which is what makes query cost
        comparable at equal sample counts.
        """
        self._thinning = thinning
        self._collected = [0] * len(self._samplers)
        for chain in self._merged_chain:
            self._collected[chain] += 1
        if self._policy is not None:
            self._recompute_quota(num_samples)
        else:
            self._quota = -(-num_samples // len(self._samplers))  # ceil division

    def _tick(self, num_samples: Optional[int]) -> None:
        """Advance one tick: burn-in when ``num_samples`` is ``None``, else collection.

        Every chain of the tick acts at its dispatch time: in collection it
        takes its sample when due and steps otherwise; in burn-in it steps
        and is parked once it leads the slowest chain by ``max_lead``
        rounds.  Over a fleet the tick's fetches then settle into bursts
        and the planner fills their spare slots (untraced, a tick that
        stepped no chain skips both).  Last, the barrier's round maximum
        applies and the chains that stay queued are pushed.
        """
        group = self._pop_tick(num_samples)
        when = self._depart(group)
        fleet, recorder, ready, samplers = self._fleet, self._recorder, self._ready, self._samplers
        burnin = num_samples is None
        if burnin:
            burn_rounds, parked, max_lead = self._burn_rounds, self._parked, self._max_lead
            floor = min(burn_rounds)
        else:
            since = self._since
        if fleet is not None:
            # (chain, dispatches) per stepped chain, in FIFO order, and
            # (chain, land time) per consumed prefetch.
            fetches: List[Tuple[int, Tuple[FetchDispatch, ...]]] = []
            waits: List[Tuple[int, float]] = []
            planner, timed_steps, chain_latency = self._planner, self._timed_steps, self._chain_latency
            collect_steps = self._collect_steps
        if recorder is not None:
            step_events: Dict[int, TraceEvent] = {}
        pushes: List[int] = []
        events = 0
        for _when, _seq, chain in group:
            if not burnin:
                if len(self._merged) >= num_samples:
                    # The quota filled mid-tick: requeue the unprocessed
                    # dispatches so the heap stays a faithful state cut.
                    self._push(chain, ready[chain])
                    continue
                if since[chain] >= self._thinning:
                    events += 1
                    if self._sample(chain, when):
                        pushes.append(chain)
                    continue
            events += 1
            sampler = samplers[chain]
            if fleet is None:
                api = self._api
                before = api.latency_spent
                sampler.step()
                latency = api.latency_spent - before
                ready[chain] = when + latency
            else:
                sampler.step()
                dispatches = fleet.drain_dispatches()
                fetches.append((chain, dispatches))
                latency = (
                    dispatches[0].latency if len(dispatches) == 1 else sum(d.latency for d in dispatches)
                )
                timed_steps[chain] += 1
                if not burnin:
                    collect_steps[chain] += 1
                chain_latency[chain] += latency
                if planner is not None:
                    lands_at = planner.note_step(chain, sampler.current, free=not dispatches)
                    if lands_at is not None:
                        waits.append((chain, lands_at))
            if recorder is not None:
                step_events[chain] = self._emit(
                    EVENT_WALK_STEP,
                    when,
                    latency,
                    chain=chain,
                    engine=type(sampler).__name__,
                    node=sampler.current,
                )
            if not burnin:
                since[chain] += 1
                pushes.append(chain)
                continue
            burn_rounds[chain] += 1
            floor_before, floor = floor, min(burn_rounds)
            if burn_rounds[chain] - floor >= max_lead:
                parked.add(chain)
            else:
                pushes.append(chain)
            if floor > floor_before and parked:
                # The slowest chain advanced: release parked chains
                # whose lead dropped back under the bound (index order
                # keeps the queue deterministic).
                for idx in sorted(parked):
                    if burn_rounds[idx] - floor < max_lead:
                        parked.discard(idx)
                        pushes.append(idx)
        if fleet is not None and (fetches or recorder is not None):
            joined = self._settle_tick(when, fetches)
            # Settling reset the ready times: a chain that reached a
            # prefetched node before its round trip landed waits for it
            # (prefetch responses are not available before they land).
            for chain, lands_at in waits:
                if lands_at > ready[chain]:
                    ready[chain] = lands_at
            if recorder is not None:
                # Stamp the settle outcome on each step event before
                # prefetch planning mutates the open bursts in place: the
                # captured (shard, start, latency, opened) tuples and the
                # ready time are exactly the operands of the ready-time
                # computation, so the causal profiler can replay the
                # attribution from the trace.
                for chain, event in step_events.items():
                    entries = joined.get(chain)
                    if entries:
                        event.attrs["bursts"] = tuple(
                            (shard, burst[0], burst[1], opened) for shard, burst, opened in entries
                        )
                    event.attrs["ready"] = ready[chain]
            if planner is not None and fetches:
                self._plan_prefetches(when, fetches)
        if self._barrier:
            # The round ends when its slowest response lands, and every
            # chain waits for it: the lock-step per-round maximum.
            end = max([ready[chain] for chain in pushes], default=when)
            for chain in pushes:
                ready[chain] = end
            self._sim_time = end
        seq = self._seq
        for chain in pushes:
            heappush(self._heap, (ready[chain], seq, chain))
            seq += 1
        self._seq = seq
        self._tick_committed(events)
        if self._policy is not None and not burnin:
            self._maybe_review_roster(num_samples, when)

    def _sample(self, chain: int, when: float) -> bool:
        """Merge ``chain``'s current node; returns whether the chain stays queued.

        A chain leaves the queue once it has delivered its fair share
        (the quota).  Samples read local chain state — they cost no
        queries and no simulated time — but they are *actions* on the
        causal timeline: the critical path of a run ends at its last
        committed action, which is usually a sample, not a step.
        """
        sampler = self._samplers[chain]
        node = sampler.current
        self._merged.append(WalkSample(node, sampler.weight(node), self._api.query_cost, sampler.steps))
        self._merged_chain.append(chain)
        collected = self._collected
        collected[chain] += 1
        self._since[chain] = 0
        self._ready[chain] = when
        if self._recorder is not None:
            self._emit(EVENT_SAMPLE, when, chain=chain, node=node)
        return collected[chain] < self._quota

    def _depart(self, group: List[Tuple[float, int, int]]) -> float:
        """The tick's dispatch time: its latest member's ready time (a barrier round's slowest)."""
        when = group[-1][0]
        if when > self._sim_time:
            self._sim_time = when
        return when

    # ------------------------------------------------------------------
    # fleet dispatch: ticks and bursts
    # ------------------------------------------------------------------
    def _pop_tick(self, num_samples: Optional[int]) -> List[Tuple[float, int, int]]:
        """Pop one tick of events.

        Under the barrier a tick is the whole round: every queued chain,
        in FIFO order, dispatched at the latest member's ready time
        (``group[-1][0]``).  Otherwise, without a fleet a tick is the
        earliest event alone, and over a fleet it is exactly the set of
        events tied at the earliest timestamp, in FIFO order.

        Under an adaptive policy retirement deschedules lazily: a retired
        chain's queued event stays in the heap and collection drops it
        here.  When the heap drains with the global count short (the
        roster shrank below what the old quotas could deliver), quotas are
        raised and the under-quota active chains re-queued at the current
        simulated time.
        """
        heap = self._heap
        while True:
            while heap:
                if self._barrier:
                    group = sorted(heap)
                    heap.clear()
                else:
                    group = [heappop(heap)]
                    if self._fleet is not None:
                        while heap and heap[0][0] == group[0][0]:
                            group.append(heappop(heap))
                if self._policy is None or num_samples is None:
                    return group
                group = [entry for entry in group if self._roster[entry[2]] == ROSTER_ACTIVE]
                if group:
                    return group
            self._recompute_quota(num_samples)
            self._requeue_missing(self._sim_time)
            if not heap:
                raise WalkError(
                    "no active chain can make progress toward the sample count; "
                    "the adaptive policy retired too much of the group"
                )

    def _settle_tick(
        self, when: float, fetches: List[Tuple[int, Tuple[FetchDispatch, ...]]]
    ) -> Dict[int, List[Tuple[int, List[float], bool]]]:
        """Coalesce one tick's dispatches into bursts; set chain ready times.

        Every shard keeps at most one *open* burst: a round trip that has
        claimed an admission slot (``start = max(dispatch time, shard
        admission horizon)``) but whose admission time has not yet passed.
        A dispatch joins the open burst while there is room under the
        shard's batch cap — this is what packs a backlogged shard: chains
        arriving over many ticks all ride the next admission instead of
        each consuming a slot — and otherwise opens the next burst, pushing
        the admission horizon by the shard's interval.  A chain becomes
        ready when its burst's round trip lands: the burst's admission
        time plus the largest member latency as of this tick (later
        joiners may stretch the round trip further, but never retroactively
        delay chains already committed).  A chain whose step issued several
        fetches (e.g. a redraw around a refusal) fires them concurrently
        and becomes ready when the last of its bursts lands.

        Returns:
            Chain -> ``(shard, burst, opened)`` entries for every burst
            the chain rides this tick (live burst references — later
            joiners and prefetches mutate them).  The causal profiler's
            step annotation reads the references *before* prefetch
            planning, so the captured latencies are exactly the ones the
            ready times were computed from.
        """
        fleet, recorder = self._fleet, self._recorder
        ready, next_free, open_bursts = self._ready, self._next_free, self._open_bursts
        # chain -> (shard, burst ref, opened-by-this-chain) joins
        joined: Dict[int, List[Tuple[int, List[float], bool]]] = {}
        for chain, dispatches in fetches:
            ready[chain] = when
            for dispatch in dispatches:
                shard = dispatch.shard
                burst = self._burst_open(shard, when)
                opened = burst is None
                if opened:
                    start = max(when, next_free[shard])
                    next_free[shard] = start + fleet.admission_interval(shard)
                    burst = [start, dispatch.latency, 1.0]
                    open_bursts[shard] = burst
                    fleet.record_burst(shard, 1)
                    if recorder is not None:
                        if start > when:
                            self._emit(EVENT_ADMISSION_WAIT, when, start - when, chain=chain, shard=shard)
                        self._emit(EVENT_BURST_DISPATCH, start, dispatch.latency, shard=shard, chain=chain)
                else:
                    self._join_burst(shard, burst, dispatch.latency)
                if recorder is not None:
                    recorder.metrics.series(f"shard.{shard}.in_flight").observe(when, burst[2])
                joined.setdefault(chain, []).append((shard, burst, opened))
        if recorder is not None:
            recorder.metrics.gauge("walk.queue_depth").set(float(len(self._heap)))
        for chain, entries in joined.items():  # insertion order: deterministic
            done = max(burst[0] + burst[1] for _shard, burst, _opened in entries)
            if done > ready[chain]:
                ready[chain] = done
        return joined

    def _burst_open(self, shard: int, when: float) -> Optional[List[float]]:
        """The shard's burst a dispatch at ``when`` may join, or ``None``.

        A burst admits members until it departs (its admission time
        passes) or fills the shard's batch cap.
        """
        burst = self._open_bursts[shard]
        if burst is None or burst[0] < when or burst[2] >= self._fleet.batch_cap(shard):
            return None
        return burst

    def _join_burst(self, shard: int, burst: List[float], latency: float) -> None:
        """Add one member to ``burst``; its round trip is its slowest member's."""
        burst[1] = max(burst[1], latency)
        burst[2] += 1.0
        self._fleet.record_burst_depth(shard, int(burst[2]))

    # ------------------------------------------------------------------
    # the planning hooks (all of them no-ops without a planner)
    # ------------------------------------------------------------------
    def _plan_prefetches(self, when: float, fetches: List[Tuple[int, Tuple[FetchDispatch, ...]]]) -> None:
        """Fill open bursts' spare slots with the chains' predicted fetches.

        For every chain that stepped this tick (FIFO order — the
        determinism), the planner replays the chain's RNG through cached
        territory to the neighborhood it will fetch next; if that user's
        shard has an open (not yet departed) round trip with headroom
        under its batch cap (:meth:`_burst_open`'s rule, tested in place),
        the fetch is issued *now* and rides the existing admission slot —
        prefetch never claims a slot of its own.  Each success extends
        the simulated walk-ahead (the fetched response joins history, so
        the next replay walks through it), up to the planner's lookahead
        and — during collection — the chain's remaining step budget.  The
        issuing chain does not wait here; it pays only if it reaches a
        prefetched node before that node's round trip landed (the
        consumption hook applies the land time), so the plan stays honest
        about when responses become available.
        """
        planner, fleet, api, recorder = self._planner, self._fleet, self._api, self._recorder
        predict, lookahead, ledger = planner.predict_next_fetch, planner.lookahead, planner.ledger
        roster, predict_ok, samplers = self._roster, self._predict_ok, self._samplers
        open_bursts, shard_of, batch_cap = self._open_bursts, fleet.router.shard_of, fleet.batch_cap
        collecting = self._phase == PHASE_COLLECT
        if collecting:
            quota, collected, since, thinning = self._quota, self._collected, self._since, self._thinning
        budgeted = api.query_budget is not None
        horizon = None
        for chain, _dispatches in fetches:
            # Reserves may stop stepping before consuming; shared-overlay
            # chains fall back to fetch-on-visit (a sharer's rewire can
            # invalidate their replays before the step).
            if roster[chain] != ROSTER_ACTIVE or not predict_ok[chain]:
                continue
            if collecting:
                # The steps the chain will still take before its quota
                # fills: a prediction past them would fetch a neighborhood
                # the chain never walks to, budget wasted, not spent early.
                need = quota - collected[chain]
                horizon = thinning - since[chain] + (need - 1) * thinning if need > 0 else 0
            sampler = samplers[chain]
            for _ in range(lookahead):
                if budgeted and api.remaining_budget() <= 0:
                    return  # never let planning exhaust the §II-B budget
                target = predict(sampler, horizon)
                if target is None:
                    break
                shard = shard_of(target)
                burst = open_bursts[shard]
                if burst is None or burst[0] < when or burst[2] >= batch_cap(shard):
                    break
                # Billed now; cached for the walk.  Never a refusal: every
                # engine's prediction is off on networks that may refuse.
                response = api.query(target)
                assert response.user == target
                dispatched = fleet.drain_dispatches()
                if not dispatched:  # pragma: no cover - target raced into the cache
                    continue
                for dispatch in dispatched:
                    self._join_burst(shard, burst, dispatch.latency)
                    fleet.record_prefetch(shard)
                lands_at = burst[0] + burst[1]
                ledger.record_issue(target, chain, lands_at)
                if recorder is not None:
                    attrs = dict(chain=chain, user=target, shard=shard)
                    self._emit(
                        EVENT_PREFETCH_ISSUE, when, **attrs, lands_at=lands_at, fetches=len(dispatched)
                    )
                    self._emit(EVENT_PREFETCH_LAND, lands_at, **attrs)
                    recorder.metrics.gauge("prefetch.outstanding").set(float(ledger.outstanding))

    def _recompute_quota(self, num_samples: int) -> None:
        """Smallest per-chain quota the active roster can fill the run with."""
        active = [i for i, r in enumerate(self._roster) if r == ROSTER_ACTIVE]
        if not active:
            raise WalkError("the adaptive policy left no active chains")
        need = num_samples - len(self._merged)
        quota = -(-num_samples // len(active))  # ceil division
        while sum(max(0, quota - self._collected[i]) for i in active) < need:
            quota += 1
        self._quota = quota

    def _requeue_missing(self, when: float) -> None:
        """Re-queue active under-quota chains that left at an older quota."""
        queued = {entry[2] for entry in self._heap}
        for chain in range(len(self._samplers)):
            if (
                self._roster[chain] == ROSTER_ACTIVE
                and self._collected[chain] < self._quota
                and chain not in queued
            ):
                self._push(chain, when)

    def _maybe_review_roster(self, num_samples: int, when: float) -> None:
        """Run a policy review when the collection round floor crosses it.

        The floor is the minimum collection-step count over working
        (active, under-quota) chains — the batched analogue of the
        burn-in round floor — so reviews happen when *every* working
        chain has contributed fresh observations since the last one.
        """
        policy = self._policy
        working = [
            i for i, r in enumerate(self._roster) if r == ROSTER_ACTIVE and self._collected[i] < self._quota
        ]
        if not working:
            return
        floor = min(self._collect_steps[i] for i in working)
        if floor < self._next_review:
            return
        self._next_review = floor + policy.evaluate_every
        observations = [
            ChainObservation(
                chain=i,
                roster=self._roster[i],
                timed_steps=self._timed_steps[i],
                latency=self._chain_latency[i],
                collect_steps=self._collect_steps[i],
                collected=self._collected[i],
            )
            for i in range(len(self._samplers))
        ]
        decision = policy.review(observations)
        if not decision:
            return
        for chain in decision.retire:
            self._roster[chain] = ROSTER_RETIRED
            self._planner.on_retire(chain)
        for chain in decision.spawn:
            self._roster[chain] = ROSTER_ACTIVE
            self._push(chain, when)
        self._recompute_quota(num_samples)
        self._requeue_missing(when)

    # ------------------------------------------------------------------
    # incremental collection (service-driven, one tick at a time)
    # ------------------------------------------------------------------
    # The service layer interleaves many tenants' schedulers over one
    # shared fleet: instead of run()'s closed loop, each tenant advances
    # tick by tick under the service's admission policy.  collect_tick
    # runs the same _tick that run() loops over, with or without a fleet
    # — the single-tenant equivalence suite pins the two byte for byte.

    @property
    def samples_collected(self) -> int:
        """Samples merged so far (all phases)."""
        return len(self._merged)

    def begin_collect(self, num_samples: int, thinning: int = 1) -> None:
        """Prepare monitor-less collection for tick-at-a-time driving.

        Re-entrant in every state ``run`` supports: a fresh scheduler
        seeds its queue, a restored mid-collection one re-derives its
        quota bookkeeping, and a ``done`` scheduler re-opens when the new
        target exceeds what it already collected (the service's
        incremental-request path).

        Args:
            num_samples: Total sample target across all chains.
            thinning: Per-chain spacing between collected samples.

        Raises:
            ValueError: On non-positive ``num_samples``/``thinning``.
            WalkError: Mid-burn-in.
        """
        if num_samples <= 0:
            raise ValueError("num_samples must be positive")
        if thinning <= 0:
            raise ValueError("thinning must be positive")
        if self._phase == PHASE_BURNIN:
            raise WalkError(
                "this scheduler is mid-burn-in; finish run() with its monitor "
                "before driving it incrementally"
            )
        if self._fleet is not None:
            self._fleet.trace_dispatches(True)
            self._fleet.drain_dispatches()
        self._open_collect(num_samples, thinning)

    def collect_tick(self, num_samples: int) -> bool:
        """Advance one tick toward ``num_samples``; ``True`` when reached.

        Args:
            num_samples: The same target ``begin_collect`` planned for.

        Raises:
            WalkError: When called without :meth:`begin_collect`.
        """
        if self._phase == PHASE_DONE:
            return True
        if self._phase != PHASE_COLLECT:
            raise WalkError("begin_collect must run before collect_tick")
        if len(self._merged) < num_samples:
            self._tick(num_samples)
        if len(self._merged) >= num_samples:
            self._phase = PHASE_DONE
            return True
        return False

    def result(self) -> EventDrivenRun:
        """Build the run result from the current state (incremental driving)."""
        return self._result(None)

    def _result(self, monitor: Optional[GelmanRubinDiagnostic]) -> RunResult:
        per_chain_samples: List[List[WalkSample]] = [[] for _ in self._samplers]
        for sample, chain in zip(self._merged, self._merged_chain):
            per_chain_samples[chain].append(sample)
        per_chain = [
            SamplingRun(
                samples=per_chain_samples[i],
                burn_in_steps=0,
                total_steps=self._samplers[i].steps,
                query_cost=self._api.query_cost,
                converged=monitor is None
                or (self._r_hat is not None and self._r_hat <= monitor.threshold),
            )
            for i in range(len(self._samplers))
        ]
        telemetry = collect_telemetry(self._api)
        common = dict(
            samples=list(self._merged),
            per_chain=per_chain,
            r_hat_at_convergence=self._r_hat,
            queries=self._api.query_cost,
            sim_elapsed=self._sim_time,
            latency_spent=telemetry.latency_spent,
            chain_steps=self.chain_steps,
            telemetry=telemetry,
        )
        if self._barrier:
            return ParallelRun(**common)
        return EventDrivenRun(
            **common,
            events_processed=self._events,
            retries=telemetry.retries,
            shards=telemetry.shards,
            planning=self.planning_summary(),
        )
