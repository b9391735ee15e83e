"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class to handle any library failure.  The
sub-hierarchy mirrors the subsystem layout described in ``DESIGN.md``:
graph substrate, restrictive-interface simulation, data stores, random
walks, and experiment drivers.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GraphError(ReproError):
    """Base class for graph-substrate errors."""


class NodeNotFoundError(GraphError, KeyError):
    """A node id was referenced that does not exist in the graph."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} is not in the graph")
        self.node = node


class EdgeNotFoundError(GraphError, KeyError):
    """An edge was referenced that does not exist in the graph."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is not in the graph")
        self.u = u
        self.v = v


class SelfLoopError(GraphError, ValueError):
    """A self-loop was supplied where simple-graph semantics are required."""

    def __init__(self, node: object) -> None:
        super().__init__(f"self-loop on node {node!r} is not allowed")
        self.node = node


class GraphFormatError(GraphError, ValueError):
    """A serialized graph (edge list / JSON) could not be parsed."""


class InterfaceError(ReproError):
    """Base class for restrictive web-interface errors."""


class RateLimitExceededError(InterfaceError):
    """The simulated provider refused a query because the rate limit is hit.

    Attributes:
        retry_after: Seconds (simulated time) until the next query would be
            admitted.
    """

    def __init__(self, retry_after: float) -> None:
        super().__init__(
            f"rate limit exceeded; retry after {retry_after:.3f} simulated seconds"
        )
        self.retry_after = retry_after


class UnknownUserError(InterfaceError, KeyError):
    """The interface was queried for a user id that does not exist."""

    def __init__(self, user: object) -> None:
        super().__init__(f"user {user!r} does not exist in the social network")
        self.user = user


class PrivateUserError(InterfaceError):
    """The user exists but refuses individual-user queries.

    Real crawls hit these constantly (private profiles, deleted accounts
    still present in neighbor lists); samplers must skip them without
    spending further budget.
    """

    def __init__(self, user: object) -> None:
        super().__init__(f"user {user!r} is private/inaccessible")
        self.user = user


class QueryBudgetExhaustedError(InterfaceError):
    """A hard budget on unique queries was configured and has been spent."""

    def __init__(self, budget: int) -> None:
        super().__init__(f"unique-query budget of {budget} exhausted")
        self.budget = budget


class ProviderError(InterfaceError):
    """Base class for failures inside a :class:`SocialProvider` backend."""


class ProviderTimeoutError(ProviderError):
    """Every fetch attempt against a flaky provider timed out.

    An abandoned fetch never completes, so the interface bills neither
    query cost nor simulated time for it; the time the retries *would*
    have consumed is reported here for callers that catch and keep
    crawling on their own accounting.

    Attributes:
        user: The user whose fetch was abandoned.
        attempts: How many attempts were made before giving up.
        wasted_latency: Simulated seconds the timed-out attempts consumed.
    """

    def __init__(self, user: object, attempts: int, wasted_latency: float = 0.0) -> None:
        super().__init__(f"fetch of user {user!r} timed out after {attempts} attempts")
        self.user = user
        self.attempts = attempts
        self.wasted_latency = wasted_latency


class DataStoreError(ReproError):
    """Base class for key-value / document store errors."""


class SnapshotError(DataStoreError):
    """A sampling-state snapshot could not be written, read, or applied.

    Raised for corrupt/truncated snapshot payloads, unsupported value
    types, version mismatches, and attempts to restore a snapshot into an
    object of the wrong shape (e.g. a different sampler type).
    """


class DocumentNotFoundError(DataStoreError, KeyError):
    """Lookup of a missing document id in a :class:`DocumentStore`."""

    def __init__(self, doc_id: object) -> None:
        super().__init__(f"document {doc_id!r} not found")
        self.doc_id = doc_id


class WalkError(ReproError):
    """Base class for random-walk errors."""


class DeadEndError(WalkError):
    """The walk reached a node with no available neighbors in its view."""

    def __init__(self, node: object) -> None:
        super().__init__(f"walk reached dead end at node {node!r}")
        self.node = node


class PlanningError(ReproError):
    """Dispatch-planner configuration or wiring failures.

    Raised when a :class:`~repro.planning.DispatchPlanner` is constructed
    with invalid knobs, bound twice, or consulted before being bound to an
    interface/fleet pair.
    """


class ComposeError(ReproError):
    """Stack-composition failures.

    Raised by :mod:`repro.compose` when a spec holds invalid knobs or the
    requested combination cannot be assembled (e.g. a planner without a
    fleet to plan over).
    """


class ServiceError(ReproError):
    """Multi-tenant sampling-service failures.

    Raised by :mod:`repro.service` on unknown or duplicate tenants,
    malformed requests, and service-snapshot mismatches.
    """


class EstimationError(ReproError):
    """Importance-sampling / aggregate estimation failures."""


class ExperimentError(ReproError):
    """Experiment-driver configuration or execution failures."""
