"""Trace-diff regression attribution: turn a red gate into a diagnosis.

Two runs of the same spec — different knobs, seeds, or baselines —
produce two deterministic traces; :func:`diff_traces` aligns them and
explains the wall-clock and §II-B cost delta in causal terms: which
critical-path categories moved, by how much, and which single driver
dominates.  The regression gate prints :meth:`TraceDiff.explain` when a
planning/service/obs check fails with both traces at hand, so a failure
reads "planner prefetch stopped converting steps to cache hits", not
"2.31 != 1.87".

Alignment is by category, not by event: two runs of one spec need not
have comparable event sequences (a knob change reshuffles every tick),
but their wall-clock tilings share a vocabulary —
:mod:`repro.obs.causality`'s exclusive categories — and §II-B cost is a
set size, so both deltas decompose cleanly.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from repro.obs.causality import Attribution, attribute_run
from repro.obs.trace import EVENT_QUERY, EVENT_REFUSAL, Source, _events_of

__all__ = ["TraceDiff", "diff_traces"]

#: Synthetic driver label: the delta is explained by planner prefetching
#: (one side converted provider round trips into free cache-hit steps).
DRIVER_PLANNER_PREFETCH = "planner_prefetch"


def _query_cost(events) -> int:
    """The §II-B bill replayed from events: distinct billed users."""
    billed = set()
    for event in events:
        if event.name in (EVENT_QUERY, EVENT_REFUSAL):
            billed.add(event.attrs["user"])
    return len(billed)


@dataclasses.dataclass
class TraceDiff:
    """A structured two-run comparison, most-moved categories first.

    Attributes:
        label_a: Name of the baseline run.
        label_b: Name of the candidate run.
        attribution_a: Run ``a``'s critical-path attribution.
        attribution_b: Run ``b``'s critical-path attribution.
        wall_delta: ``b`` minus ``a`` simulated wall-clock.
        cost_delta: ``b`` minus ``a`` §II-B query cost.
        drivers: ``(category, delta)`` pairs, ``b`` minus ``a`` per
            critical-path category, ranked by magnitude.
        dominant_driver: The single best causal explanation — a category
            name, ``"planner_prefetch"`` when a prefetching disparity
            explains the direction of the delta, or ``"none"`` for
            identical runs.
    """

    label_a: str
    label_b: str
    attribution_a: Attribution
    attribution_b: Attribution
    cost_a: int
    cost_b: int
    drivers: List[Tuple[str, float]]
    dominant_driver: str

    @property
    def wall_delta(self) -> float:
        return self.attribution_b.wall_clock - self.attribution_a.wall_clock

    @property
    def cost_delta(self) -> int:
        return self.cost_b - self.cost_a

    def to_dict(self) -> dict:
        """Plain-value summary for report/benchmark JSON."""
        return {
            "labels": [self.label_a, self.label_b],
            "wall_clock": [
                self.attribution_a.wall_clock,
                self.attribution_b.wall_clock,
            ],
            "wall_delta": self.wall_delta,
            "query_cost": [self.cost_a, self.cost_b],
            "cost_delta": self.cost_delta,
            "drivers": [[category, delta] for category, delta in self.drivers],
            "dominant_driver": self.dominant_driver,
        }

    def explain(self) -> str:
        """One human paragraph: the delta, its movers, its driver."""
        a, b = self.attribution_a, self.attribution_b
        if b.wall_clock == a.wall_clock and self.cost_delta == 0 and not any(
            delta for _c, delta in self.drivers
        ):
            return (
                f"Runs {self.label_a!r} and {self.label_b!r} are equivalent: "
                f"identical simulated wall-clock ({a.wall_clock:.3f}s), identical "
                f"§II-B query cost ({self.cost_a}), and no critical-path category "
                f"moved."
            )
        ratio = (b.wall_clock / a.wall_clock) if a.wall_clock else float("inf")
        parts = [
            f"Run {self.label_b!r} spent {b.wall_clock:.3f}s simulated against "
            f"{a.wall_clock:.3f}s for {self.label_a!r} "
            f"({self.wall_delta:+.3f}s, {ratio:.2f}x), with §II-B query cost "
            f"{self.cost_b} vs {self.cost_a} ({self.cost_delta:+d})."
        ]
        movers = [(c, d) for c, d in self.drivers if d][:3]
        if movers:
            listed = ", ".join(f"{category} {delta:+.3f}s" for category, delta in movers)
            parts.append(f"Critical-path movers: {listed}.")
        if self.dominant_driver == DRIVER_PLANNER_PREFETCH:
            fast_label, fast, slow = (
                (self.label_b, b, a)
                if b.counts.get("prefetch_issued", 0) > a.counts.get("prefetch_issued", 0)
                else (self.label_a, a, b)
            )
            parts.append(
                f"Dominant driver: planner prefetch — {fast_label!r} issued "
                f"{fast.counts.get('prefetch_issued', 0)} prefetches (other side "
                f"{slow.counts.get('prefetch_issued', 0)}), converting provider "
                f"round trips into {fast.counts.get('free_steps', 0)} free cache-hit "
                f"steps (other side {slow.counts.get('free_steps', 0)})."
            )
        else:
            parts.append(f"Dominant driver: {self.dominant_driver}.")
        return " ".join(parts)


def diff_traces(
    a: Source,
    b: Source,
    *,
    label_a: str = "a",
    label_b: str = "b",
    tenant: Optional[str] = None,
) -> TraceDiff:
    """Align two runs' traces and attribute their deltas causally.

    Args:
        a: Baseline trace (recorder or event list).
        b: Candidate trace.
        label_a: Baseline name used in the explanation.
        label_b: Candidate name.
        tenant: Compare a single tenant's slice of two service traces.

    Returns:
        The :class:`TraceDiff`, drivers ranked by magnitude.
    """
    events_a = _events_of(a)
    events_b = _events_of(b)
    attribution_a = attribute_run(events_a, tenant=tenant)
    attribution_b = attribute_run(events_b, tenant=tenant)
    categories = list(attribution_a.categories)
    for category in attribution_b.categories:
        if category not in categories:
            categories.append(category)
    deltas = {
        category: attribution_b.categories.get(category, 0.0)
        - attribution_a.categories.get(category, 0.0)
        for category in categories
    }
    drivers = sorted(deltas.items(), key=lambda item: (-abs(item[1]), item[0]))
    issued_a = attribution_a.counts.get("prefetch_issued", 0)
    issued_b = attribution_b.counts.get("prefetch_issued", 0)
    wall_delta = attribution_b.wall_clock - attribution_a.wall_clock
    if issued_a != issued_b and wall_delta != 0.0 and (
        (issued_b - issued_a > 0) == (wall_delta < 0.0)
    ):
        # One side prefetched more and finished sooner: the disparity,
        # not any single wait category, is the causal story.
        dominant = DRIVER_PLANNER_PREFETCH
    elif drivers and drivers[0][1] != 0.0:
        dominant = drivers[0][0]
    else:
        dominant = "none"
    return TraceDiff(
        label_a=label_a,
        label_b=label_b,
        attribution_a=attribution_a,
        attribution_b=attribution_b,
        cost_a=_query_cost(events_a),
        cost_b=_query_cost(events_b),
        drivers=drivers,
        dominant_driver=dominant,
    )
