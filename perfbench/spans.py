"""Layer spans for the traced benchmark pass, recorded from outside ``src/``.

:class:`Instrumentation` swaps each listed public method of the program's
classes for a wrapper that times the call with ``perf_counter_ns`` and
keeps a stack of open spans, so a span's *self* time is its duration
minus the part its child spans cover.  The swap is class-level and is
undone by :meth:`Instrumentation.restore`: ``service-churn`` rebuilds
every tenant's interface, samplers and scheduler on each wake, and
wrapping only the objects alive at the start would miss them.

Wrappers also derive counts from what they observe (a cache read that
answered, a fleet fetch, a prefetch issued by the scheduler).  The
benchmark checks those span-derived counts against the program's own
counters; a call path that reaches a layer without passing its wrapper
(a method bound before instrumentation, say) shows up as a mismatch.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

#: Layers reported as ``<layer>.calls`` / ``<layer>.self_s``.  A span key
#: belongs to a layer when it equals the layer name or extends it with a
#: dotted suffix (``fleet.route`` is part of ``fleet``).
LAYERS = (
    "service",
    "walks.scheduler",
    "walks.parallel",
    "walks.engine",
    "core.mto",
    "core.overlay",
    "planning",
    "interface.api",
    "interface.cache",
    "fleet",
    "providers",
    "datastore.kv",
    "datastore.documents",
    "core.estimators",
)

#: Sub-layer span keys reported on their own as ``<name>`` (self seconds).
SUBSPANS = {
    "fleet.route.self_s": "fleet.route",
    "fleet.fetch.self_s": "fleet.fetch",
    "walks.engine.predict_self_s": "walks.engine.predict",
    "core.mto.step_self_s": "core.mto.step",
    "core.mto.predict_self_s": "core.mto.predict",
    "service.hibernate_self_s": "service.hibernate",
    "service.wake_self_s": "service.wake",
}


class Tracer:
    """Span stack plus per-key self time, call counts and derived counts."""

    def __init__(self) -> None:
        self.stack = []  # open spans: [key, nanoseconds covered by children]
        self.reset()

    def reset(self) -> None:
        """Zero every accumulator; only valid with no span open."""
        if self.stack:
            raise RuntimeError("tracer reset while spans are open")
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.top_ns = 0  # time inside outermost spans
        # Depth of open spans whose effects the program discards (a wake
        # rebuilds a stack, then loads the saved books over it).
        self.discarded = 0

    def wrap(self, key, fn, count=None, discards=False):
        """A wrapper timing ``fn`` as span ``key``.

        ``count(tracer, args, result, failed, parent_key)`` runs after the
        span closes unless a discarding span is open.
        """
        tracer = self
        stack = self.stack
        clock = time.perf_counter_ns

        # Accumulators are read through ``tracer``: reset() replaces them.
        def close(frame, started, args, result, failed):
            elapsed = clock() - started
            stack.pop()
            if discards:
                tracer.discarded -= 1
            tracer.self_ns[key] += elapsed - frame[1]
            tracer.calls[key] += 1
            if stack:
                stack[-1][1] += elapsed
            else:
                tracer.top_ns += elapsed
            if count is not None and not tracer.discarded:
                count(tracer, args, result, failed, stack[-1][0] if stack else None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [key, 0]
            stack.append(frame)
            if discards:
                tracer.discarded += 1
            started = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close(frame, started, args, None, True)
                raise
            close(frame, started, args, result, False)
            return result

        return wrapper


class Totals:
    """Span accumulators summed over the timed windows of a traced pass."""

    def __init__(self) -> None:
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.top_ns = 0
        self.wall_ns = 0

    def add(self, tracer: Tracer, wall_ns: int) -> None:
        for key, ns in tracer.self_ns.items():
            self.self_ns[key] += ns
        for key, n in tracer.calls.items():
            self.calls[key] += n
        for key, n in tracer.counts.items():
            self.counts[key] += n
        self.top_ns += tracer.top_ns
        self.wall_ns += wall_ns

    def layer_self_s(self, layer: str) -> float:
        return sum(ns for key, ns in self.self_ns.items() if _in_layer(key, layer)) / 1e9

    def layer_calls(self, layer: str) -> int:
        return sum(n for key, n in self.calls.items() if _in_layer(key, layer))


def _in_layer(key: str, layer: str) -> bool:
    return key == layer or key.startswith(layer + ".")


# ----------------------------------------------------------------------
# span-derived counts (compared against program counters after the pass)
# ----------------------------------------------------------------------
def _count_query(tracer, args, result, failed, parent):
    # A query nested in fetch_seq is that call's miss path: the outer
    # span already counts the logical query.
    if failed or parent == "interface.api":
        return
    tracer.counts["logical_queries"] += 1
    if parent == "walks.scheduler":
        # The scheduler calls the interface directly only to prefetch.
        tracer.counts["prefetch_issued"] += 1


def _count_fetch_seq(tracer, args, result, failed, parent):
    if not failed:
        tracer.counts["logical_queries"] += 1


def _count_query_many(tracer, args, result, failed, parent):
    if failed:
        return
    tracer.counts["logical_queries"] += len(result.responses) + len(result.private)
    if parent == "walks.parallel":
        tracer.counts["parallel_prefetch_users"] += len(args[1])


def _count_cache_read(tracer, args, result, failed, parent):
    # The interface consults the cache once per logical lookup: a hot-lane
    # or store read that answers is a hit, a put after a provider fetch
    # is a miss.
    if parent == "interface.api" and result is not None and not failed:
        tracer.counts["cache_lookups"] += 1


def _count_cache_put(tracer, args, result, failed, parent):
    if parent == "interface.api" and not failed:
        tracer.counts["cache_lookups"] += 1


def _count_fleet_fetch(tracer, args, result, failed, parent):
    # ShardStats.queries is booked before the shard answers, so refusals
    # and abandoned fetches count too.
    tracer.counts["fleet_fetches"] += 1


# (module, class or None for module functions, {method: span key})
TARGETS = (
    ("repro.service.service", "SamplingService",
     {"request": "service", "run_pending": "service", "fairness_report": "service",
      "tenant_summary": "service", "hibernate": "service.hibernate",
      "_wake": "service.wake"}),
    ("repro.walks.scheduler", "EventDrivenWalkers",
     {"run": "walks.scheduler", "begin_collect": "walks.scheduler",
      "collect_tick": "walks.scheduler", "result": "walks.scheduler",
      "planning_summary": "walks.scheduler", "state_dict": "walks.scheduler",
      "load_state": "walks.scheduler"}),
    ("repro.walks.parallel", "ParallelWalkers",
     {"run": "walks.parallel", "step_all": "walks.parallel",
      "prefetch_candidates": "walks.parallel", "planning_summary": "walks.parallel"}),
    ("repro.walks.base", "RandomWalkSampler",
     {"state_dict": "walks.engine", "load_state": "walks.engine"}),
    ("repro.walks.srw", "SimpleRandomWalk",
     {"step": "walks.engine", "weight": "walks.engine",
      "predict_next_fetch": "walks.engine.predict"}),
    ("repro.walks.mhrw", "MetropolisHastingsWalk",
     {"step": "walks.engine", "weight": "walks.engine",
      "predict_next_fetch": "walks.engine.predict"}),
    ("repro.walks.nbrw", "NonBacktrackingWalk",
     {"step": "walks.engine", "weight": "walks.engine",
      "predict_next_fetch": "walks.engine.predict",
      "state_dict": "walks.engine", "load_state": "walks.engine"}),
    ("repro.core.mto", "MTOSampler",
     {"step": "core.mto.step", "weight": "core.mto",
      "predict_next_fetch": "core.mto.predict"}),
    ("repro.core.overlay", "OverlayGraph",
     {name: "core.overlay" for name in (
         "ensure_known", "ensure_known_many", "is_known", "neighbors",
         "neighbors_view", "neighbors_seq", "random_neighbor", "draw_many",
         "known_mask", "known_degrees_many", "degree", "known_degree",
         "original_degree", "has_edge", "remove_edge", "add_edge",
         "replace_edge", "state_dict", "load_state")}),
    ("repro.planning.planner", "DispatchPlanner",
     {name: "planning" for name in (
         "predict_next_fetch", "speculative_targets", "note_step",
         "on_retire", "summary", "state_dict", "load_state")}),
    ("repro.planning.prefetch", "PrefetchLedger",
     {"record_issue": "planning", "mark_used": "planning"}),
    ("repro.interface.api", "RestrictedSocialAPI",
     {name: "interface.api" for name in (
         "query", "fetch_seq", "query_many", "cached_degree",
         "remaining_budget", "state_dict", "load_state")}),
    ("repro.interface.cache", "NeighborhoodCache",
     {name: "interface.cache" for name in (
         "put", "hot_seq", "has", "neighbors", "neighbor_seq", "attributes",
         "degree", "known_count", "state_dict", "load_state")}),
    ("repro.fleet.provider", "ShardedProvider",
     {"fetch": "fleet.fetch", "has_user": "fleet", "shard_of": "fleet",
      "drain_dispatches": "fleet", "trace_dispatches": "fleet",
      "record_burst": "fleet", "record_burst_depth": "fleet",
      "record_prefetch": "fleet", "set_active_tenant": "fleet",
      "state_dict": "fleet", "load_state": "fleet"}),
    ("repro.fleet.router", "ShardRouter",
     {"shard_of": "fleet.route", "state_dict": "fleet.route",
      "load_state": "fleet.route"}),
    ("repro.interface.providers", "InMemoryGraphProvider",
     {"fetch": "providers", "has_user": "providers"}),
    ("repro.interface.providers", "LatencyModelProvider",
     {"fetch": "providers", "has_user": "providers", "latency_of": "providers",
      "state_dict": "providers", "load_state": "providers"}),
    ("repro.interface.providers", "FlakyProvider",
     {"fetch": "providers", "has_user": "providers",
      "state_dict": "providers", "load_state": "providers"}),
    ("repro.datastore.kv", "KeyValueStore",
     {name: "datastore.kv" for name in (
         "set", "get", "contains", "delete", "keys", "clear",
         "state_dict", "load_state")}),
    ("repro.datastore.documents", "DocumentStore",
     {"get": "datastore.documents", "get_or_none": "datastore.documents"}),
    ("repro.core.estimators", "Estimator",
     {"add": "core.estimators"}),
    ("repro.core.estimators", None,
     {"estimate": "core.estimators"}),
)

COUNTS = {
    ("RestrictedSocialAPI", "query"): _count_query,
    ("RestrictedSocialAPI", "fetch_seq"): _count_fetch_seq,
    ("RestrictedSocialAPI", "query_many"): _count_query_many,
    ("NeighborhoodCache", "hot_seq"): _count_cache_read,
    ("NeighborhoodCache", "neighbors"): _count_cache_read,
    ("NeighborhoodCache", "put"): _count_cache_put,
    ("ShardedProvider", "fetch"): _count_fleet_fetch,
}

#: Spans whose side effects the program overwrites before returning.
DISCARDING = {("SamplingService", "_wake")}


class Instrumentation:
    """The installed wrappers; :meth:`restore` puts the originals back."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved = []

    def install(self) -> "Instrumentation":
        for module_name, class_name, methods in TARGETS:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module, class_name)
            for method, key in methods.items():
                # Only the defining class is patched: a subclass that does
                # not override the method inherits the parent's wrapper.
                if class_name is not None and method not in owner.__dict__:
                    raise RuntimeError(f"{class_name}.{method} is not defined there")
                original = owner.__dict__[method] if class_name else getattr(owner, method)
                wrapper = self.tracer.wrap(
                    key,
                    original,
                    count=COUNTS.get((class_name, method)),
                    discards=(class_name, method) in DISCARDING,
                )
                setattr(owner, method, wrapper)
                self._saved.append((owner, method, original))
        return self

    def restore(self) -> None:
        for owner, method, original in reversed(self._saved):
            setattr(owner, method, original)
        self._saved.clear()

    def __enter__(self) -> "Instrumentation":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()


def layer_metrics(totals: Totals) -> dict:
    """Per-layer calls and self seconds plus the harness residual share."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = totals.layer_calls(layer)
        out[f"{layer}.self_s"] = totals.layer_self_s(layer)
    for name, key in SUBSPANS.items():
        out[name] = totals.self_ns.get(key, 0) / 1e9
    wall_ns = totals.wall_ns
    residual_ns = wall_ns - totals.top_ns
    out["trace.unattributed_share"] = residual_ns / wall_ns if wall_ns else 0.0
    return out


def reconcile_time(totals: Totals, tolerance: float) -> dict:
    """Check that layer self times plus the residual add up to the wall.

    The residual is the wall time spent outside every span (the
    benchmark's own driver code).  Self times are accumulated span by
    span, the outermost durations separately, so a span that loses or
    double-books its children breaks the sum.
    """
    wall_ns = totals.wall_ns
    attributed = sum(totals.self_ns.values())
    residual = wall_ns - totals.top_ns
    mismatch = abs(attributed + residual - wall_ns) / wall_ns if wall_ns else 0.0
    negative = sorted(key for key, ns in totals.self_ns.items() if ns < 0)
    return {
        "wall_s": wall_ns / 1e9,
        "attributed_s": attributed / 1e9,
        "residual_s": residual / 1e9,
        "mismatch": mismatch,
        "tolerance": tolerance,
        "negative_self": negative,
        "ok": mismatch <= tolerance and residual >= 0 and not negative,
    }
