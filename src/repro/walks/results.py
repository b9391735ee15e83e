"""One result shape for every walk engine.

:class:`RunResult` is the shared protocol both multi-chain drivers
return, so code consuming a run — telemetry reporting, experiments, the
service layer — never special-cases which driver produced it:

* ``samples`` — all chains' samples interleaved in collection order
  (completion order under the event-driven scheduler; at zero latency the
  two coincide);
* ``queries`` — final billed §II-B cost of the shared interface;
* ``latency_spent`` — serial sum of billed provider response latency;
* ``sim_elapsed`` — the engine's simulated wall-clock (lock-step round
  maxima, or the event-time makespan);
* ``chain_steps`` — per-chain committed step counts;
* ``telemetry`` — the full
  :class:`~repro.interface.telemetry.InterfaceTelemetry` capture.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.interface.telemetry import InterfaceTelemetry, ShardTelemetry
from repro.walks.base import SamplingRun, WalkSample

__all__ = ["RunResult", "ParallelRun", "EventDrivenRun"]


@dataclasses.dataclass
class RunResult:
    """Common result of a multi-chain sampling run (any engine).

    Attributes:
        samples: All chains' samples interleaved in collection order.
        per_chain: The individual chains' runs.
        r_hat_at_convergence: The R̂ value when burn-in ended (``None``
            when no monitor was used).
        queries: Final billed §II-B cost of the shared interface.
        sim_elapsed: Simulated wall-clock the run occupied (engine
            semantics: lock-step per-round maxima, or the event-time
            makespan).
        latency_spent: Total provider response latency billed — the
            serial sum over billed fetches; ``sim_elapsed`` is how the
            engine redistributed it.
        chain_steps: Per-chain committed step counts, in chain order, or
            ``None`` when the engine did not track them.
        telemetry: Full interface/fleet telemetry captured at the end of
            the run, or ``None``.
    """

    samples: List[WalkSample]
    per_chain: List[SamplingRun]
    r_hat_at_convergence: Optional[float]
    queries: int
    sim_elapsed: float = 0.0
    latency_spent: float = 0.0
    chain_steps: Optional[Tuple[int, ...]] = None
    telemetry: Optional[InterfaceTelemetry] = None


@dataclasses.dataclass
class ParallelRun(RunResult):
    """Result of a lock-step :class:`~repro.walks.parallel.ParallelWalkers` run."""


@dataclasses.dataclass
class EventDrivenRun(RunResult):
    """Result of an event-driven run, with the scheduler's extra books.

    Attributes:
        events_processed: Dispatched chain actions (steps + collections).
        retries: Flaky-layer retry attempts beyond the first, summed over
            the whole provider stack (0 without flaky layers).
        shards: Per-shard telemetry breakdown keyed by shard index, or
            ``None`` when the interface has no provider fleet.
        planning: Planner accounting (prefetch issued/used/wasted,
            cache-first step counts, roster) when a dispatch planner was
            attached, else ``None``.
    """

    events_processed: int = 0
    retries: int = 0
    shards: Optional[Dict[int, ShardTelemetry]] = None
    planning: Optional[dict] = None
