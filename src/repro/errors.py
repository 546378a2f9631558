"""Exception hierarchy shared by all :mod:`repro` subpackages.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphConstructionError",
    "GraphFormatError",
    "VertexSideError",
    "DecompositionError",
    "DatasetError",
    "ArtifactError",
    "ArtifactMismatchError",
    "StreamingError",
    "ServiceError",
    "ServiceOverloadedError",
    "ReplicationError",
    "FaultInjectedError",
    "CircuitOpenError",
    "DeadlineExceededError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class GraphConstructionError(ReproError):
    """Raised when a bipartite graph cannot be built from the given input.

    Typical causes: negative vertex identifiers, edges referencing vertices
    outside the declared vertex-set sizes, or duplicate edges when the caller
    requested strict construction.
    """


class GraphFormatError(ReproError):
    """Raised when an on-disk graph file cannot be parsed."""


class VertexSideError(ReproError):
    """Raised when a vertex side argument is not ``"U"`` or ``"V"``."""


class DecompositionError(ReproError):
    """Raised when a decomposition routine reaches an inconsistent state.

    This signals a bug in the library (an invariant of the peeling process
    was violated) rather than bad user input, and is surfaced prominently in
    tests.
    """


class DatasetError(ReproError):
    """Raised when a named dataset is unknown or cannot be generated."""


class ArtifactError(ReproError):
    """Raised when a decomposition artifact cannot be written or read.

    Typical causes: the target path already holds an artifact and
    ``overwrite`` was not requested, a manifest is missing / corrupt, or the
    artifact was produced by an unsupported format version.
    """


class ArtifactMismatchError(ArtifactError):
    """Raised when an artifact does not match what the caller expected.

    The serving layer refuses to answer queries from an index whose manifest
    fingerprint (or recorded graph fingerprint) disagrees with the graph or
    artifact the caller asked for — silently serving stale tip numbers would
    be worse than failing loudly.
    """


class StreamingError(ReproError):
    """Raised when an edge-update batch cannot be applied to a graph.

    Typical causes: inserting an edge that already exists, deleting one that
    does not, out-of-range vertex ids, or the same edge appearing twice in
    one batch.  Validation happens before any state is touched, so a failed
    batch leaves the graph and the served index unchanged.
    """


class ReplicationError(ReproError):
    """Raised when the leader/follower replication chain cannot advance.

    Typical causes: the leader is unreachable, the on-disk replication log
    is corrupt or no longer matches the artifact it chains over, or a
    replica's state fingerprint disagrees with the log (divergence).  A
    diverged follower stops applying records — serving a stale prefix is
    acceptable, silently serving *wrong* tip numbers is not.
    """


class ServiceError(ReproError):
    """Raised for invalid queries against the tip-index serving layer.

    Carries the HTTP status code the JSON API should answer with so the
    offline ``repro query`` path and the HTTP server surface identical
    errors.
    """

    def __init__(self, message: str, *, status: int = 400):
        super().__init__(message)
        self.status = int(status)


class ServiceOverloadedError(ServiceError):
    """Raised when the write path's bounded admission queue is full.

    The async front end admission-controls ``POST /update`` behind the
    coalesced read pipeline: a single writer task drains a bounded queue,
    and batches arriving while it is full are rejected immediately with
    HTTP 503 plus a ``Retry-After`` hint instead of piling up behind the
    writer lock and starving readers.
    """

    def __init__(self, message: str, *, retry_after: float = 1.0):
        super().__init__(message, status=503)
        self.retry_after = float(retry_after)


class FaultInjectedError(ServiceError):
    """Raised by the deterministic fault-injection harness (never in prod).

    An armed :class:`~repro.service.faults.FaultPlan` raises this at a
    named fault site to simulate a crash, an I/O error or a failed remote
    call.  It maps to HTTP 503 so an injected fault is always a *failed*
    request, never a wrong answer — the chaos property tests rely on
    exactly that distinction.
    """

    def __init__(self, message: str, *, site: str = ""):
        super().__init__(message, status=503)
        self.site = str(site)


class CircuitOpenError(ServiceError):
    """Raised when a circuit breaker short-circuits a call to a sick target.

    Carries a ``Retry-After`` hint equal to the breaker's remaining reset
    timeout: callers (and HTTP clients) should not retry before the
    breaker is willing to probe the target again.
    """

    def __init__(self, message: str, *, retry_after: float = 1.0):
        super().__init__(message, status=503)
        self.retry_after = float(retry_after)


class DeadlineExceededError(ServiceError):
    """Raised when a request's deadline expires before an answer exists.

    The scatter/gather read path propagates per-request deadlines
    (``deadline_ms``); when not even a partial (degraded) answer could be
    assembled in time, the request fails with HTTP 503 plus a
    ``Retry-After`` hint instead of hanging on a slow shard.
    """

    def __init__(self, message: str, *, retry_after: float = 0.1):
        super().__init__(message, status=503)
        self.retry_after = float(retry_after)
