"""Reader-side stack: wire format, middleware, supervision, back-end logic."""

from .backend import (
    ObjectRegistry,
    RegistryError,
    TrackedObject,
    TrackingBackend,
    TrackingDecision,
)
from .middleware import (
    DuplicateEliminator,
    LocationFilter,
    MiddlewarePipeline,
    PresenceInterval,
    SlidingWindowSmoother,
)
from .wire import (
    PolledInterface,
    PollOrderError,
    ReaderUnreachable,
    TransportError,
    TransportTimeout,
    WireFormatError,
    parse_tag_list,
    render_tag_list,
)

from .supervisor import (
    HealthTransition,
    PollStats,
    Promotion,
    ReaderFailoverGroup,
    ReaderHealth,
    RetryPolicy,
    SupervisedReader,
    SupervisorError,
)

from .site import Checkpoint, Journey, SiteError, SiteTracker

__all__ = [
    "Checkpoint",
    "Journey",
    "SiteError",
    "SiteTracker",

    "HealthTransition",
    "PollStats",
    "Promotion",
    "ReaderFailoverGroup",
    "ReaderHealth",
    "RetryPolicy",
    "SupervisedReader",
    "SupervisorError",

    "ObjectRegistry",
    "RegistryError",
    "TrackedObject",
    "TrackingBackend",
    "TrackingDecision",
    "DuplicateEliminator",
    "LocationFilter",
    "MiddlewarePipeline",
    "PresenceInterval",
    "SlidingWindowSmoother",
    "PolledInterface",
    "PollOrderError",
    "ReaderUnreachable",
    "TransportError",
    "TransportTimeout",
    "WireFormatError",
    "parse_tag_list",
    "render_tag_list",
]
