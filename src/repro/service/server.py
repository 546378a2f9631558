"""Transport-free request handling for served tip-index artifacts.

:class:`TipService` is route + params in, JSON-able dict out,
:class:`~repro.errors.ServiceError` (with an HTTP status) on bad input.
The HTTP front end (:mod:`repro.service.aserver`) and the offline
``repro query`` command both call it, which is what keeps their answers
byte-identical.  Indexes are immutable and the cache is thread-safe, so
the executor threads the front end hands blocking routes to need no
further locking.

Endpoints (all JSON)::

    GET  /healthz                          liveness + served artifact names
    GET  /metrics                          Prometheus text exposition (0.0.4)
    GET  /stats[?histogram=1]              cache metrics, per-artifact summaries
    GET  /theta?vertex=V                   point θ lookup
    GET  /theta/batch?vertices=1,2,3       batched θ lookup
    POST /theta/batch   {"vertices": [..]} batched θ lookup (large batches)
    GET  /top-k?k=K                        K highest-θ vertices
    GET  /k-tip?k=K[&limit=L]              members of the union of k-tips
    GET  /community?k=K[&vertex=V]         butterfly-connected k-tips (Sec. 6)
    POST /update {"insert": [[u,v],..],    apply an edge-update batch: CSR
                  "delete": [[u,v],..]}    patch + incremental tip repair

Diagnostic (operator) routes — ``GET /slo``, ``GET /debug/memory``,
``GET /debug/profile`` — and, when replication is attached, the
replication plane (``GET /replication/status``, ``GET /replication/log``,
``POST /replication/apply``, ``GET /replication/snapshot``) ride the same
dispatch; see :data:`DIAGNOSTIC_ENDPOINTS`.

Every route is one :class:`Route` row of :data:`ROUTES`: its path, the
handler method, whether it is a diagnostic, and how the HTTP front end
runs it.  :meth:`TipService.handle`, :data:`ENDPOINTS`,
:data:`DIAGNOSTIC_ENDPOINTS` and the request-metric labels all read that
table.  Each scrape-time gauge mirrors the dict its subsystem serves (the
``/stats`` blocks, the fault plan, memory residency) through
:meth:`~repro.obs.metrics.MetricRegistry.gauges_from`, one callback per
source, so a failing source freezes only its own gauges.

The service can also answer from **θ-range shards** instead of one
monolithic index: pass ``shards=N`` to scatter/gather over an in-memory
:class:`~repro.service.sharding.ShardRouter`, or serve a persisted shard
plan directory (``repro shard-plan``) directly — answers stay
bit-identical to the unsharded index either way.

``/update`` is the one write path: it routes the batch through the
streaming engine (:mod:`repro.streaming`), persists the refreshed artifact
with the usual atomic directory swap, and puts the repaired index straight
into the cache under its new fingerprint — readers keep answering from the
previous snapshot until that swap and are never blocked by a writer
(updates themselves serialize on a per-service lock).  ``/stats`` reports
the artifact's schema version, fingerprints and streaming staleness
counters so monitoring can watch the update stream.

Every endpoint takes an optional ``artifact=NAME`` parameter; it may be
omitted when a single artifact is being served.
"""

from __future__ import annotations

import json
import math
import threading
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import (
    DeadlineExceededError,
    ReproError,
    ServiceError,
    StreamingError,
)
from ..kernels.workspace import live_workspace_stats
from ..obs.log import get_logger, log_request
from ..obs.memory import memory_snapshot, rss_bytes
from ..obs.metrics import BATCH_SIZE_BUCKETS, MetricRegistry
from ..obs.profile import (
    DEFAULT_INTERVAL_SECONDS,
    ProfileBusyError,
    collect_profile,
)
from ..obs.slo import DEFAULT_OBJECTIVES, SloMonitor, breaker_open_objective
from . import faults
from .artifacts import ARRAYS_FILENAME, save_artifact
from .cache import IndexCache
from .index import TipIndex
from .resilience import CircuitBreakerRegistry, Deadline
from .sharding import ShardRouter, is_shard_plan, read_shard_plan

__all__ = [
    "TipService",
    "Route",
    "ROUTES",
    "ROUTE_TABLE",
    "ENDPOINTS",
    "DIAGNOSTIC_ENDPOINTS",
    "DOCUMENTED_METRICS",
    "METRICS_CONTENT_TYPE",
    "error_payload",
    "parse_post_body",
]

_LOG = get_logger("repro.service.server")


@dataclass(frozen=True)
class Route:
    """One row of the route table.

    ``handler`` names the :class:`TipService` method that answers the
    route; it takes ``(artifact, params, body)``.  ``diagnostic`` rows are
    operator surfaces, kept out of :data:`ENDPOINTS`.  ``execution`` tells
    the HTTP front end how to run the handler: ``inline`` on the event
    loop; ``executor`` on a worker thread, because it blocks; ``coalesced``
    through the point-θ batcher (GET only); ``admitted`` through update
    admission control (POST only; other methods run inline).
    """

    path: str
    handler: str
    diagnostic: bool = False
    execution: str = "inline"


#: Every route :meth:`TipService.handle` answers.  The ``executor`` rows
#: block: a profile samples for up to ``MAX_PROFILE_SECONDS``, replaying a
#: replicated record runs a streaming repair, and a snapshot reads and
#: encodes the whole artifact (sleeping while an update holds the
#: mutation seqlock odd).
ROUTES = (
    Route("/healthz", "_healthz"),
    Route("/stats", "_stats"),
    Route("/theta", "_theta", execution="coalesced"),
    Route("/theta/batch", "_theta_batch"),
    Route("/top-k", "_top_k"),
    Route("/k-tip", "_k_tip"),
    Route("/community", "_community"),
    Route("/update", "_apply_update", execution="admitted"),
    Route("/slo", "_slo", diagnostic=True),
    Route("/debug/memory", "_debug_memory", diagnostic=True),
    Route("/debug/profile", "_debug_profile", diagnostic=True, execution="executor"),
    Route("/replication/status", "_replication_status", diagnostic=True),
    Route("/replication/log", "_replication_log", diagnostic=True),
    Route("/replication/apply", "_replication_apply", diagnostic=True, execution="executor"),
    Route("/replication/snapshot", "_replication_snapshot", diagnostic=True, execution="executor"),
)

#: Route rows by path.
ROUTE_TABLE = {route.path: route for route in ROUTES}

#: The eight routes of the JSON API.
ENDPOINTS = tuple(route.path for route in ROUTES if not route.diagnostic)

#: Deep-diagnostics routes.  Kept out of :data:`ENDPOINTS` on purpose:
#: that tuple is the *JSON API contract* the serving benchmarks compare
#: against the offline path and across versions, while these are operator
#: surfaces that may grow or change shape between PRs.
DIAGNOSTIC_ENDPOINTS = tuple(route.path for route in ROUTES if route.diagnostic)

#: ``Content-Type`` of the Prometheus text exposition format 0.0.4.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Every metric family ``GET /metrics`` exposes.  The observability smoke
#: benchmark asserts each of these names appears in a scrape; keep this
#: list in sync with :meth:`TipService._init_metrics` and the
#: ARCHITECTURE.md observability section.
DOCUMENTED_METRICS = (
    "repro_http_requests_total",
    "repro_http_request_seconds",
    "repro_coalesce_batch_size",
    "repro_coalesce_wait_seconds",
    "repro_admission_queue_depth",
    "repro_admission_rejections_total",
    "repro_cache_hits_total",
    "repro_cache_misses_total",
    "repro_cache_evictions_total",
    "repro_cache_entries",
    "repro_cache_hit_ratio",
    "repro_service_requests_total",
    "repro_server_start_time_seconds",
    "repro_server_uptime_seconds",
    "repro_updates_applied_total",
    "repro_artifact_staleness_seconds",
    "repro_memory_rss_bytes",
    "repro_memory_tracemalloc_bytes",
    "repro_memory_workspace_bytes",
    "repro_memory_artifact_bytes",
    "repro_slo_burn_rate",
    "repro_slo_ok",
    "repro_replication_offset",
    "repro_replication_lag",
    "repro_replication_staleness_seconds",
    "repro_resilience_retries_total",
    "repro_resilience_breakers_open",
    "repro_resilience_breaker_open_seconds",
    "repro_resilience_resyncs_total",
    "repro_resilience_degraded_total",
    "repro_resilience_deadline_exceeded_total",
    "repro_faults_armed",
    "repro_faults_injected_total",
)


def metric_route(route: str) -> str:
    """Normalise a request path into a bounded metric label value."""
    return route if route in ROUTE_TABLE or route == "/metrics" else "<unknown>"


#: Hard cap on one response's vertex payload; override per-request with a
#: smaller ``limit``.
MAX_RESPONSE_VERTICES = 100_000

#: Hard cap on the wedge work of a ``/community`` query, in wedge endpoints:
#: the sum over the level's centres of their degree within the level,
#: squared (:func:`repro.analysis.hierarchy.level_wedge_work`).  Component
#: extraction takes time in proportion to it (tr x2's level k=5: 9,918
#: vertices, 68.6M endpoints, about 0.8 s on one core), and the route runs
#: inline on the event loop, so a low ``k`` on a dense graph would otherwise
#: stall every connection for minutes.
MAX_COMMUNITY_WEDGES = 2**27

#: Hard cap on a POST body; generous headroom over the largest JSON
#: encoding of a MAX_RESPONSE_VERTICES-sized batch.
MAX_REQUEST_BODY_BYTES = 8 * 1024 * 1024

#: Range of an integer query parameter: indexes hold int64 arrays.
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def _flag_param(params: dict, key: str) -> bool:
    """Boolean query parameter: absent/empty/``0``/``false`` mean off."""
    value = str(params.get(key, "")).strip().lower()
    return value not in ("", "0", "false", "no")


def _stats_block(source) -> dict:
    """One ``/stats`` block; a source that raises gives its error instead.

    So one broken subsystem degrades its own block, not the whole answer
    (as its gauges freeze alone on ``/metrics``).
    """
    try:
        return source()
    except Exception as error:  # a broken subsystem must not take down /stats
        _LOG.warning("/stats block source failed", exc_info=True)
        return {"error": f"{type(error).__name__}: {error}"}


def error_payload(error: Exception, *, status: int | None = None) -> dict:
    """Structured error body shared by every transport.

    Carries the message and the HTTP status; a :class:`ServiceOverloadedError`
    additionally surfaces its ``Retry-After`` hint so clients can back off
    without parsing headers.
    """
    resolved = int(status if status is not None else getattr(error, "status", 500))
    payload = {"error": str(error), "status": resolved}
    retry_after = getattr(error, "retry_after", None)
    if retry_after is not None:
        payload["retry_after_seconds"] = float(retry_after)
    return payload


def _reject_constant(literal: str):
    raise ServiceError(f"request body is not valid JSON: {literal} is not a JSON number")


def parse_post_body(raw: bytes) -> dict:
    """Decode a POST body into the JSON object :meth:`TipService.handle` takes.

    Malformed JSON and non-object bodies answer a structured 400
    (:class:`ServiceError`), never a 500.  So do the non-standard literals
    ``NaN``, ``Infinity`` and ``-Infinity``, which ``json.loads`` would
    otherwise accept.
    """
    if not raw:
        return {}
    try:
        body = json.loads(raw.decode("utf-8"), parse_constant=_reject_constant)
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise ServiceError("request body is not valid JSON") from None
    if not isinstance(body, dict):
        raise ServiceError("request body must be a JSON object")
    return body


def to_jsonable(value):
    """Recursively convert numpy scalars/arrays into plain JSON types."""
    if isinstance(value, np.ndarray):
        if value.dtype != object:
            return value.tolist()  # one C-level call on the hot path
        return [to_jsonable(item) for item in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, dict):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    return value


class TipService:
    """Transport-free request dispatch over one or more served artifacts.

    ``handle(route, params, body)`` is the whole contract: route + query
    params + optional JSON body in, JSON-able payload out, ``ServiceError``
    (carrying an HTTP status) on bad input.  The HTTP front end and the
    offline ``repro query`` command call it, which is what keeps their
    answers byte-identical.  Serves plain ``*.tipidx`` artifacts, persisted
    shard plans, or in-memory θ-range shard views (``shards=N``), and
    optionally participates in leader/follower replication
    (:meth:`attach_replication`).
    """

    def __init__(
        self,
        artifact_paths,
        *,
        cache_capacity: int = 8,
        mmap: bool = True,
        shards: int | None = None,
    ):
        self.cache = IndexCache(cache_capacity)
        self.mmap = mmap
        if shards is not None and int(shards) < 1:
            raise ServiceError(f"shard count must be >= 1, got {shards}")
        self.shard_count = int(shards) if shards is not None else None
        # Persisted shard plans served directly: name -> loaded router.
        self._routers: dict[str, ShardRouter] = {}
        # In-memory shard views (shards=N): name -> (fingerprint, router),
        # rebuilt lazily whenever the underlying artifact's fingerprint
        # moves (i.e. after every applied /update).
        self._shard_views: dict[str, tuple[str, ShardRouter]] = {}
        # Replication coordinator, attached after construction (if at all).
        self.replication = None
        self.requests: Counter = Counter()
        self.update_modes: Counter = Counter()
        # The HTTP front end registers zero-argument metric providers here;
        # /stats folds them in under a "transport" key.
        self.transport_metrics: dict = {}
        self.started_unix = time.time()
        self._started_monotonic = time.monotonic()
        self.registry = MetricRegistry()
        # Per-target circuit breakers (replication push/poll, shard gather)
        # and the degradation counters the resilience gauges read.
        self.breakers = CircuitBreakerRegistry()
        self.degraded_total = 0
        self.deadline_exceeded_total = 0
        # SLO monitoring reads the cumulative request instruments; it must
        # exist before _init_metrics so the per-objective gauges can be
        # instantiated eagerly (zero-valued from the first scrape).
        self.slo = SloMonitor(
            latency_source=self._latency_counts,
            availability_source=self._availability_counts,
            staleness_source=self._worst_staleness,
            objectives=DEFAULT_OBJECTIVES,
        )
        # Breaker-open objective: burns while any breaker stays open, fed by
        # the registry's oldest-open clock (a staleness-shaped signal).
        self.slo.add_objective(
            breaker_open_objective(),
            staleness_source=self.breakers.oldest_open_seconds)
        # Last stored deep-diagnostic payloads: ``?cached=1`` / ``?last=1``
        # return these verbatim, which is how the observability benchmark
        # asserts byte-identity of volatile payloads against offline handle().
        self._last_profile: dict | None = None
        self._last_memory: dict | None = None
        self._requests_lock = threading.Lock()
        self._init_metrics()
        # The route table, bound once: dispatch is one dict lookup.
        self._handlers = {route.path: getattr(self, route.handler) for route in ROUTES}
        # One writer at a time: /update batches serialize here while readers
        # keep answering from the previous snapshot.
        self._update_lock = threading.Lock()
        # Seqlock over artifact mutation: odd while an update is in flight.
        # The replication snapshot endpoint reads it to capture a consistent
        # artifact copy without ever taking the update lock (lock-free, so a
        # follower resync can never deadlock against a pushing leader).
        self._mutation_seq = 0
        self._artifacts: dict[str, Path] = {}
        for raw_path in artifact_paths:
            path = Path(raw_path)
            if is_shard_plan(path):
                # Shard plans load eagerly: fail at startup, and the
                # router's arrays are memmapped so this stays cheap.
                router = ShardRouter.load(path, mmap=self.mmap)
                name = router.name or path.name
            else:
                manifest = self.cache.manifest(path)  # validates eagerly: fail at startup
                name = manifest.name
                router = None
            if name in self._artifacts:
                name = f"{name}#{len(self._artifacts)}"
            self._artifacts[name] = path
            if router is not None:
                self._routers[name] = router
        if not self._artifacts:
            raise ServiceError("no artifacts to serve", status=500)

    # ------------------------------------------------------------------
    # Artifact resolution
    # ------------------------------------------------------------------
    @property
    def artifact_names(self) -> list[str]:
        """Names of everything served (artifacts and shard plans alike)."""
        return list(self._artifacts)

    def artifact_path(self, name: str) -> Path:
        """Filesystem path of a served artifact or shard plan, by name."""
        return self._resolve(name)[1]

    def _resolve(self, name: str | None) -> tuple[str, Path]:
        """``(name, path)`` of a served artifact; ``None`` names the only one."""
        if name is None:
            if len(self._artifacts) != 1:
                raise ServiceError(
                    "multiple artifacts served; pass artifact=NAME "
                    f"(one of: {', '.join(self._artifacts)})"
                )
            name = next(iter(self._artifacts))
        path = self._artifacts.get(name)
        if path is None:
            raise ServiceError(
                f"unknown artifact {name!r} (serving: {', '.join(self._artifacts)})",
                status=404,
            )
        return name, path

    def attach_replication(self, coordinator) -> None:
        """Join a replication topology (called by the coordinator).

        Installs the coordinator for the ``/replication/*`` routes, the
        ``/update`` follower guard, the ``repro_replication_*`` gauges and
        the ``/stats`` section; on a follower, also registers the
        ``replication-staleness`` SLO objective backed by the
        coordinator's staleness signal.
        """
        self.replication = coordinator
        objective = coordinator.objective()
        if objective is not None:
            self.slo.add_objective(
                objective, staleness_source=coordinator.staleness_seconds)
            self._slo_burn_rate.labels(objective=objective.name).set(0.0)
            self._slo_ok.labels(objective=objective.name).set(1.0)

    def apply_replicated(self, artifact: str, body: dict) -> dict:
        """Apply one replicated record's batch, bypassing the follower guard.

        Only the replication coordinator calls this; ordering and
        fingerprint-chain checks happen there, the actual CSR patch + tip
        repair is the exact ``/update`` code path.
        """
        return self._apply_update(artifact, {}, body, replicated=True)

    def count_requests(self, route: str, n: int = 1) -> None:
        """Advance the per-route request counter (fast paths bypass handle)."""
        with self._requests_lock:
            self.requests[metric_route(route)] += n

    def count_degraded(self) -> None:
        """Note one request answered with a partial (``degraded: true``) payload."""
        with self._requests_lock:
            self.degraded_total += 1

    def count_deadline_exceeded(self) -> None:
        """Note one request failed outright on its ``deadline_ms`` budget."""
        with self._requests_lock:
            self.deadline_exceeded_total += 1

    def mutation_seq(self) -> int:
        """Artifact-mutation seqlock value (odd = an update is in flight)."""
        return self._mutation_seq

    @contextmanager
    def _mutating(self):
        """Hold the mutation seqlock odd for the duration of an update."""
        self._mutation_seq += 1
        try:
            yield
        finally:
            self._mutation_seq += 1

    def reload_artifact(self, name: str) -> None:
        """Drop every cached view of an artifact replaced on disk.

        The replication coordinator calls this after installing a leader
        snapshot over the artifact directory (a follower re-bootstrap):
        the cache entry, any in-memory shard view and the displaced index
        all described the *old* bytes.  The next read reloads and
        re-shards lazily from the new manifest.
        """
        self.artifact_path(name)  # 404 on unknown names
        self._shard_views.pop(name, None)
        self.cache.clear()

    # ------------------------------------------------------------------
    # Metrics (see DOCUMENTED_METRICS)
    # ------------------------------------------------------------------
    def _init_metrics(self) -> None:
        """Create every documented instrument up front.

        Instantiating them here — rather than lazily on first use — is what
        guarantees a scrape renders the complete documented set (with zero
        values) from the very first request.  Each source of scrape-time
        gauges gets its own callback, so one that fails leaves the others
        refreshing.
        """
        registry = self.registry
        self.http_requests_total = registry.counter(
            "repro_http_requests_total",
            "HTTP requests served, by transport, route and status.",
            labelnames=("transport", "route", "status"),
        )
        self.http_request_seconds = registry.histogram(
            "repro_http_request_seconds",
            "End-to-end request latency in seconds, by transport and route.",
            labelnames=("transport", "route"),
        )
        # (transport, route label, status) -> (counter child, histogram child)
        self._request_children: dict[tuple[str, str, int], tuple] = {}
        self.coalesce_batch_size = registry.histogram(
            "repro_coalesce_batch_size",
            "Point-theta requests coalesced into one vectorized gather.",
            buckets=BATCH_SIZE_BUCKETS,
        )
        self.coalesce_wait_seconds = registry.histogram(
            "repro_coalesce_wait_seconds",
            "Seconds a point-theta request waited in the coalescer queue.",
        )
        # Admission control lives in the HTTP front end; an offline service
        # has no admission queue, so its gauges stay 0.
        registry.gauges_from(lambda: self.transport_metrics.get("updates", dict)(), (
            ("pending", "repro_admission_queue_depth",
             "Updates admitted but not yet completed (async transport)."),
            ("admission_rejections", "repro_admission_rejections_total",
             "Update batches rejected with 503 by admission control."),
        ))
        registry.gauges_from(self.cache.stats, (
            ("hits", "repro_cache_hits_total", "Index cache hits since startup."),
            ("misses", "repro_cache_misses_total", "Index cache misses since startup."),
            ("evictions", "repro_cache_evictions_total", "Index cache LRU evictions since startup."),
            ("entries", "repro_cache_entries", "Indexes currently resident in the cache."),
            ("hit_rate", "repro_cache_hit_ratio", "Index cache hit ratio in [0, 1]."),
        ))
        service_requests = registry.gauge(
            "repro_service_requests_total",
            "Requests dispatched by the shared service, by route.",
            labelnames=("route",),
        )
        registry.gauges_from(self._server_stats, (
            ("started_unix", "repro_server_start_time_seconds", "Unix time the service was constructed."),
            ("uptime_seconds", "repro_server_uptime_seconds", "Seconds since service construction."),
        ))
        updates_applied = registry.gauge(
            "repro_updates_applied_total",
            "Edge-update batches applied to the artifact, by artifact.",
            labelnames=("artifact",),
        )
        staleness = registry.gauge(
            "repro_artifact_staleness_seconds",
            "Seconds since the artifact was last built or updated, by artifact.",
            labelnames=("artifact",),
        )
        registry.gauges_from(self._memory_stats, (
            ("rss_bytes", "repro_memory_rss_bytes", "Resident set size of the serving process."),
            ("tracemalloc_bytes", "repro_memory_tracemalloc_bytes",
             "Python heap bytes currently traced by tracemalloc (0 when off)."),
            ("workspace_bytes", "repro_memory_workspace_bytes",
             "Bytes currently held by live wedge-workspace scratch arenas."),
            ("artifact_bytes", "repro_memory_artifact_bytes",
             "On-disk bytes of served artifact arrays (memmapped when loaded)."),
        ))
        self._slo_burn_rate = registry.gauge(
            "repro_slo_burn_rate",
            "Error-budget burn rate per objective (>1 means breached).",
            labelnames=("objective",),
        )
        self._slo_ok = registry.gauge(
            "repro_slo_ok",
            "1 while the objective holds (or has no data), 0 while breached.",
            labelnames=("objective",),
        )
        for objective in self.slo.objectives:
            self._slo_burn_rate.labels(objective=objective.name).set(0.0)
            self._slo_ok.labels(objective=objective.name).set(1.0)
        registry.gauges_from(
            lambda: self.replication.status() if self.replication is not None else {}, (
                ("offset", "repro_replication_offset",
                 "Newest replication-log offset this replica has applied "
                 "(on the leader: appended)."),
                ("lag", "repro_replication_lag",
                 "Log records this follower (on the leader: its laggiest "
                 "follower) is behind the leader's head."),
                ("staleness_seconds", "repro_replication_staleness_seconds",
                 "Seconds since this follower last verified it matched the "
                 "leader's log head (0 on the leader)."),
            ))
        registry.gauges_from(self._resilience_stats, (
            ("retries_total", "repro_resilience_retries_total",
             "Replication push/poll attempts retried after a retryable failure."),
            ("breakers_open", "repro_resilience_breakers_open",
             "Circuit breakers currently in the open state."),
            ("breaker_open_seconds", "repro_resilience_breaker_open_seconds",
             "Longest time any circuit breaker has currently been open."),
            ("resyncs", "repro_resilience_resyncs_total",
             "Follower snapshot re-bootstraps performed after divergence "
             "or log compaction (0 on the leader)."),
            ("degraded_total", "repro_resilience_degraded_total",
             "Requests answered with a partial (degraded: true) payload "
             "because a deadline expired mid-gather."),
            ("deadline_exceeded_total", "repro_resilience_deadline_exceeded_total",
             "Requests failed with 503 because their deadline_ms budget "
             "expired before any answer existed."),
        ))
        registry.gauges_from(faults.metrics, (
            ("armed", "repro_faults_armed", "1 while a deterministic fault-injection plan is armed."),
            ("injected_total", "repro_faults_injected_total",
             "Faults injected by the armed plan since it was installed."),
        ))

        def refresh_labelled() -> None:
            for route, count in self._server_stats()["requests_total"].items():
                service_requests.labels(route=route).set(count)
            for name, (applied, stale) in self._artifact_freshness().items():
                updates_applied.labels(artifact=name).set(applied)
                staleness.labels(artifact=name).set(stale)
            # The scrape drives periodic SLO evaluation (one snapshot per
            # scrape feeds the rolling windows).
            self.slo.evaluate()
            for objective, (burn, ok) in self.slo.burn_rates().items():
                self._slo_burn_rate.labels(objective=objective).set(burn)
                self._slo_ok.labels(objective=objective).set(1.0 if ok else 0.0)

        registry.register_callback(refresh_labelled)

    def _server_stats(self) -> dict:
        """The ``/stats`` ``server`` block."""
        with self._requests_lock:
            requests = dict(self.requests)
        # Uptime from the monotonic clock so an NTP step can never produce
        # a negative or jumping value mid-poll.
        return {
            "started_unix": self.started_unix,
            "uptime_seconds": time.monotonic() - self._started_monotonic,
            "requests_total": requests,
        }

    def _resilience_stats(self) -> dict:
        """The ``/stats`` ``resilience`` block."""
        resilience: dict = {
            "breakers": self.breakers.snapshot(),
            "faults": faults.metrics(),
        }
        with self._requests_lock:
            resilience["degraded_total"] = self.degraded_total
            resilience["deadline_exceeded_total"] = self.deadline_exceeded_total
        if self.replication is not None:
            resilience["retry"] = self.replication.retry_policy.stats()
            resilience["resyncs"] = self.replication.resyncs
            resilience["retries_total"] = resilience["retry"]["retries_total"]
        resilience["breakers_open"] = self.breakers.open_count()
        resilience["breaker_open_seconds"] = self.breakers.oldest_open_seconds()
        return resilience

    def _memory_stats(self) -> dict:
        """Residency behind the ``repro_memory_*`` gauges, from cheap reads.

        No tracemalloc snapshot (``/debug/memory`` takes one): one per
        scrape would cost more than the signal is worth.
        """
        return {
            "rss_bytes": rss_bytes(),
            "tracemalloc_bytes":
                tracemalloc.get_traced_memory()[0] if tracemalloc.is_tracing() else 0,
            "workspace_bytes": live_workspace_stats()["current_bytes"],
            "artifact_bytes": sum(map(self._array_bytes, self._artifacts.values())),
        }

    def metrics_text(self) -> str:
        """Render the registry in Prometheus text format (``GET /metrics``)."""
        return self.registry.render()

    # ------------------------------------------------------------------
    # SLO sources (cumulative reads over the request instruments)
    # ------------------------------------------------------------------
    def _latency_counts(self, threshold_seconds: float) -> tuple[int, int]:
        """(requests at or under the threshold, total) across all series.

        Diagnostic routes are excluded: the SLO promises cover the serving
        API, and ``/debug/profile?seconds=N`` blocks for N seconds *by
        design* — profiling a healthy instance must not degrade it.
        """
        good = 0
        total = 0
        for labels, child in self.http_request_seconds.children():
            if labels.get("route") in DIAGNOSTIC_ENDPOINTS:
                continue
            under, n = child.count_le(threshold_seconds)
            good += under
            total += n
        return good, total

    def _availability_counts(self) -> tuple[int, int]:
        """(5xx requests, total requests) across transports and routes.

        Diagnostic routes are excluded for the same reason as latency:
        objectives measure the serving API, not the operator plane.
        """
        errors = 0
        total = 0
        for labels, child in self.http_requests_total.children():
            if labels.get("route") in DIAGNOSTIC_ENDPOINTS:
                continue
            value = int(child.value())
            total += value
            if str(labels.get("status", "")).startswith("5"):
                errors += value
        return errors, total

    def _worst_staleness(self) -> float | None:
        """Largest current staleness across served artifacts, in seconds."""
        return max((stale for _, stale in self._artifact_freshness().values()),
                   default=None)

    def _artifact_freshness(self) -> dict[str, tuple[int, float]]:
        """``{name: (updates applied, staleness seconds)}`` per readable manifest."""
        now = time.time()
        freshness = {}
        for name, path in self._artifacts.items():
            try:
                manifest = self.cache.manifest(path)
            except ReproError:
                continue  # mid-swap or corrupt; skip this artifact, not the scrape
            streaming = manifest.streaming
            freshest = streaming.get("last_update_unix") or manifest.created_unix
            freshness[name] = (int(streaming.get("updates_applied", 0)),
                               max(0.0, now - float(freshest)))
        return freshness

    # ------------------------------------------------------------------
    # Memory telemetry (GET /debug/memory)
    # ------------------------------------------------------------------
    def _artifact_memory(self) -> dict:
        """Per-artifact array bytes (memmapped when loaded) + scratch peaks."""
        artifacts: dict = {}
        for name, path in self._artifacts.items():
            entry: dict = {"array_bytes": self._array_bytes(path), "loaded": False,
                           "peak_scratch_bytes": None}
            try:
                manifest = self.cache.manifest(path)
            except ReproError:
                pass
            else:
                entry["loaded"] = self.cache.peek(manifest.fingerprint)
                entry["peak_scratch_bytes"] = manifest.counters.get("peak_scratch_bytes")
            artifacts[name] = entry
        return artifacts

    @staticmethod
    def _array_bytes(path: Path) -> int:
        try:
            return (path / ARRAYS_FILENAME).stat().st_size
        except OSError:
            return 0

    def _debug_memory(self, artifact, params: dict, body) -> dict:
        if _flag_param(params, "cached"):
            if self._last_memory is None:
                raise ServiceError("no memory snapshot collected yet", status=404)
            return self._last_memory
        try:
            top = int(params.get("top", 10))
        except (TypeError, ValueError):
            raise ServiceError("parameter 'top' must be an integer") from None
        payload = memory_snapshot(
            top=top, extra={"artifacts": self._artifact_memory()})
        self._last_memory = payload
        return payload

    def _debug_profile(self, artifact, params: dict, body) -> dict:
        if _flag_param(params, "last"):
            if self._last_profile is None:
                raise ServiceError("no profile collected yet", status=404)
            return self._last_profile
        try:
            seconds = float(params.get("seconds", 1.0))
            interval_ms = float(params.get("interval_ms",
                                           DEFAULT_INTERVAL_SECONDS * 1000.0))
            top = int(params.get("top", 25))
        except (TypeError, ValueError):
            raise ServiceError(
                "parameters 'seconds'/'interval_ms'/'top' must be numbers"
            ) from None
        try:
            payload = collect_profile(
                seconds, interval=interval_ms / 1000.0, top=top)
        except ProfileBusyError as error:
            raise ServiceError(str(error), status=409) from None
        except ValueError as error:
            raise ServiceError(str(error)) from None
        self._last_profile = payload
        return payload

    def observe_request(self, transport: str, route: str, status: int,
                        seconds: float) -> None:
        """Record one served request: counter, latency histogram, log line.

        The counter and histogram children are bound once per (transport,
        route label, status).  :func:`log_request` writes the line at DEBUG,
        or at WARNING for a slow or 5xx request.
        """
        status = int(status)
        label = metric_route(route)
        key = (transport, label, status)
        children = self._request_children.get(key)
        if children is None:
            children = self._request_children[key] = (
                self.http_requests_total.labels(
                    transport=transport, route=label, status=str(status)),
                self.http_request_seconds.labels(transport=transport, route=label),
            )
        counter, latency = children
        counter.inc()
        latency.observe(seconds)
        log_request(transport, route, status, seconds)

    def _plan_summary(self, name: str, path: Path) -> dict:
        """Per-shard-plan /stats summary (parallel to `_manifest_summary`)."""
        router = self._routers[name]
        plan = read_shard_plan(path)
        return {
            "kind": str(plan.get("kind")),
            "side": router.side,
            "algorithm": router.algorithm,
            "n_vertices": router.n_vertices,
            "max_tip_number": router.max_tip_number,
            "n_levels": router.n_levels,
            "format_version": int(plan.get("format_version", 1)),
            "fingerprint": router.fingerprint,
            # Unified lineage field (see _manifest_summary): the manifest
            # fingerprint of the artifact lineage this plan was cut from.
            "base_fingerprint": router.base_fingerprint,
            "source_fingerprint": str(plan.get("source_fingerprint", "")),
            "has_graph": False,
            "loaded": True,
            "sharding": {
                "mode": "plan",
                "n_shards": router.n_shards,
                "requested_shards": router.requested_shards,
                "shards": [shard.summary() for shard in router.shards],
            },
        }

    def _manifest_summary(self, name: str | None) -> dict:
        """Per-artifact /stats summary from the manifest alone (no load)."""
        name, path = self._resolve(name)
        if name in self._routers:
            return self._plan_summary(name, path)
        manifest = self.cache.manifest(path)
        streaming = manifest.streaming
        summary = {
            "side": manifest.decomposition.get("side"),
            "algorithm": str(manifest.decomposition.get("algorithm", "")),
            "n_vertices": manifest.summary.get("n_vertices"),
            "max_tip_number": manifest.summary.get("max_tip_number"),
            "n_levels": manifest.summary.get("n_levels"),
            "format_version": manifest.format_version,
            "fingerprint": manifest.fingerprint,
            # The unified lineage field (also what `repro bench-history`
            # reports): the fingerprint the artifact's update stream
            # started from — equal to ``fingerprint`` until a first
            # ``/update`` moves the manifest fingerprint past it.
            "base_fingerprint": str(
                streaming.get("base_fingerprint") or manifest.fingerprint),
            "graph_fingerprint": str(manifest.graph.get("fingerprint", "")),
            "n_edges": manifest.graph.get("n_edges"),
            "has_graph": "u_offsets" in manifest.arrays,
            "loaded": self.cache.peek(manifest.fingerprint),
            # Memory observability of the wedge pipeline: the configured
            # per-chunk budget (None = library default at build time) and
            # the scratch high-water mark of the run that produced the
            # artifact's current decomposition (build or streaming repair).
            "wedge_budget": manifest.decomposition.get("wedge_budget"),
            "peak_scratch_bytes": manifest.counters.get("peak_scratch_bytes"),
            # Staleness bookkeeping: zeroed for a freshly built artifact,
            # advanced by every applied /update batch.
            "streaming": {
                "updates_applied": int(streaming.get("updates_applied", 0)),
                "edges_inserted": int(streaming.get("edges_inserted", 0)),
                "edges_deleted": int(streaming.get("edges_deleted", 0)),
                "last_update_unix": streaming.get("last_update_unix"),
                "base_fingerprint": streaming.get("base_fingerprint"),
                "modes": dict(streaming.get("modes", {})),
            },
        }
        if self.shard_count:
            view = self._shard_views.get(name)
            summary["sharding"] = {
                "mode": "in-memory",
                "n_shards": view[1].n_shards if view else self.shard_count,
                "requested_shards": self.shard_count,
            }
        return summary

    def index_for(self, name: str | None = None) -> TipIndex | ShardRouter:
        """The query engine for an artifact name: index, plan, or shard view."""
        name, path = self._resolve(name)
        if name in self._routers:
            return self._routers[name]
        index = self.cache.get_or_load(path, mmap=self.mmap)
        if not self.shard_count:
            return index
        # In-memory sharded serving: the router slices the cached index's
        # arrays zero-copy, and is rebuilt whenever the fingerprint moves
        # (a concurrent rebuild is benign — both routers are exact).
        view = self._shard_views.get(name)
        if view is not None and view[0] == index.fingerprint:
            return view[1]
        router = ShardRouter.from_index(index, self.shard_count, name=name)
        self._shard_views[name] = (index.fingerprint, router)
        return router

    def base_index_for(self, name: str | None = None) -> TipIndex:
        """The unsharded :class:`TipIndex` behind an artifact name.

        Replication fingerprints and repairs this base index even when the
        service answers queries through a θ-range shard view; persisted
        shard plans carry no base index (they are read-only) and refuse.
        """
        engine = self.index_for(name)
        if isinstance(engine, ShardRouter):
            name, path = self._resolve(name)
            if name in self._routers:
                raise ServiceError(
                    f"{name!r} is a persisted shard plan; replication "
                    "needs the source *.tipidx artifact", status=409)
            return self.cache.get_or_load(path, mmap=self.mmap)
        return engine

    # ------------------------------------------------------------------
    # Streaming updates (the one write path)
    # ------------------------------------------------------------------
    @staticmethod
    def _edge_list(body: dict, key: str):
        raw = body.get(key)
        if raw is None:
            return None
        if not isinstance(raw, list):
            raise ServiceError(f'body field "{key}" must be a JSON array of [u, v] pairs')
        for pair in raw:
            if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                    or any(isinstance(value, bool) or not isinstance(value, int)
                           for value in pair)):
                raise ServiceError(f'body field "{key}" must contain [u, v] integer pairs')
            # JSON integers are unbounded; anything outside int64 would blow
            # up inside numpy instead of answering 400.
            if any(not (-2**63 <= value < 2**63) for value in pair):
                raise ServiceError(f'body field "{key}" contains an id outside int64 range')
        return raw

    def _apply_update(self, artifact: str | None, params: dict, body: dict | None,
                      *, replicated: bool = False) -> dict:
        """Apply one edge-update batch (the ``/update`` body).

        ``replicated=True`` marks a batch the replication coordinator is
        replaying from the leader's log: it bypasses the follower
        write guard and skips the leader fan-out hook (the record already
        exists), but runs the identical patch + repair + persist path.
        """
        if body is None:
            raise ServiceError(
                "update requires a POST body with insert/delete edge lists", status=405
            )
        from ..streaming import StreamingConfig

        inserts = self._edge_list(body, "insert")
        deletes = self._edge_list(body, "delete")
        if not inserts and not deletes:
            raise ServiceError('update body must carry "insert" and/or "delete" edges')
        config_kwargs: dict = {}
        if "damage_threshold" in body:
            threshold = body["damage_threshold"]
            # NaN and the infinities would raise deep inside the repair, and a
            # negative value would silently force a full rebuild; a bool is
            # not a number here.
            if (isinstance(threshold, bool) or not isinstance(threshold, (int, float))
                    or not 0 <= threshold < math.inf):
                raise ServiceError('"damage_threshold" must be a finite number >= 0')
            config_kwargs["damage_threshold"] = threshold

        name, path = self._resolve(artifact)
        if name in self._routers:
            raise ServiceError(
                "shard plans are read-only; apply updates to the source "
                "artifact (or through the replication leader) and re-plan",
                status=409,
            )
        if self.replication is not None and not replicated:
            self.replication.check_writable()

        with self._update_lock, self._mutating():
            # The "artifact.save" fault site fires before any state is
            # touched, so a simulated persistence failure rejects the batch
            # atomically (503) instead of leaving memory and disk torn.
            faults.fire("artifact.save")
            # The cache resolves the path (one stat; a re-read only when the
            # manifest file changed), so the index and the manifest this
            # update rewrites come from the same on-disk version.
            index, manifest = self.cache.get_or_load_with_manifest(path, mmap=self.mmap)
            decomposition = dict(manifest.decomposition)
            algorithm = str(decomposition.get("algorithm") or "receipt").lower()
            config_kwargs["full_algorithm"] = algorithm
            if algorithm.startswith("receipt"):
                full_kwargs = {}
                if decomposition.get("n_partitions") is not None:
                    full_kwargs["n_partitions"] = int(decomposition["n_partitions"])
                config_kwargs["full_kwargs"] = full_kwargs

            try:
                repaired, update = index.apply_delta(
                    inserts, deletes, config=StreamingConfig(**config_kwargs)
                )
            except StreamingError as error:
                # The batch conflicts with the current graph state (missing
                # delete, duplicate insert, out-of-range id); nothing was
                # modified.
                raise ServiceError(str(error), status=409) from None

            from ..peeling.base import TipDecompositionResult

            result = TipDecompositionResult(
                tip_numbers=update.tip_numbers,
                side=update.side,
                initial_butterflies=update.butterflies,
                algorithm=str(decomposition.get("algorithm", "")),
                counters=update.counters,
            )
            previous = manifest.streaming
            modes = Counter({str(key): int(value)
                             for key, value in dict(previous.get("modes", {})).items()})
            modes[update.mode] += 1
            streaming = {
                "updates_applied": int(previous.get("updates_applied", 0)) + 1,
                "edges_inserted": int(previous.get("edges_inserted", 0)) + update.inserted,
                "edges_deleted": int(previous.get("edges_deleted", 0)) + update.deleted,
                "last_update_unix": time.time(),
                "base_fingerprint": previous.get("base_fingerprint") or manifest.fingerprint,
                "modes": dict(modes),
            }
            # Write-ahead: the batch is fsync'd into the replication log
            # *before* the artifact swap.  A crash mid-append leaves a
            # torn log tail (truncated at next open; the batch was never
            # acknowledged, so that is a clean reject), and a crash
            # between append and swap is replayed from the log at the
            # next leader startup.
            record = None
            if (self.replication is not None and not replicated
                    and self.replication.role == "leader"):
                record = self.replication.record_applied(
                    name, body, update.mode, repaired)
            new_manifest = save_artifact(
                path,
                update.graph,
                result,
                config=decomposition,
                overwrite=True,
                streaming=streaming,
                center_butterflies=update.center_butterflies,
                index=repaired,
            )
            # Atomic swap: the repaired index goes straight into the cache
            # under its new fingerprint, the displaced snapshot is dropped.
            repaired.fingerprint = new_manifest.fingerprint
            self.cache.invalidate(manifest.fingerprint)
            self.cache.put(new_manifest.fingerprint, repaired)
            # The in-memory shard view (if any) sliced the displaced
            # snapshot's arrays; drop it so the next read re-shards the
            # repaired index.
            self._shard_views.pop(name, None)
            with self._requests_lock:
                self.update_modes[update.mode] += 1
            # Leader fan-out after the local commit, still under the
            # update lock so followers see records in apply order.
            if record:
                self.replication.push_applied(record)

        payload = update.summary()
        payload.update({
            "artifact": name,
            "fingerprint": new_manifest.fingerprint,
            "previous_fingerprint": manifest.fingerprint,
            "n_edges": update.graph.n_edges,
            "streaming": streaming,
        })
        if record:
            payload["replication"] = {
                "offset": record["offset"],
                "state": record["state"],
            }
        return payload

    # ------------------------------------------------------------------
    # Parameter parsing
    # ------------------------------------------------------------------
    @staticmethod
    def _int_param(params: dict, key: str) -> int:
        raw = params.get(key)
        if raw is None:
            raise ServiceError(f"missing required parameter {key!r}")
        try:
            value = int(raw)
        except (TypeError, ValueError):
            raise ServiceError(f"parameter {key!r} must be an integer, got {raw!r}") from None
        if not _INT64_MIN <= value <= _INT64_MAX:
            # Would overflow every int64 array it meets downstream.
            raise ServiceError(f"parameter {key!r} must fit in 64 bits, got {raw!r}")
        return value

    @staticmethod
    def _vertices_param(params: dict, body: dict | None) -> np.ndarray:
        if body is not None and "vertices" in body:
            raw = body["vertices"]
            if not isinstance(raw, list):
                raise ServiceError('body field "vertices" must be a JSON array')
            values = raw
        else:
            raw = params.get("vertices")
            if raw is None:
                raise ServiceError(
                    'missing vertices: pass ?vertices=1,2,3 or a JSON body {"vertices": [...]}'
                )
            values = [piece for piece in str(raw).split(",") if piece != ""]
        if len(values) > MAX_RESPONSE_VERTICES:
            raise ServiceError(
                f"batch of {len(values)} vertices exceeds the per-request cap "
                f"of {MAX_RESPONSE_VERTICES}"
            )
        vertices = []
        for value in values:
            # int(str(x)) rejects floats ("3.7" raises) instead of silently
            # truncating them; bool must be excluded (int(True) would be 1).
            if isinstance(value, bool):
                raise ServiceError("vertices must all be integers")
            try:
                vertices.append(int(str(value)))
            except (TypeError, ValueError):
                raise ServiceError("vertices must all be integers") from None
        try:
            return np.asarray(vertices, dtype=np.int64)
        except OverflowError:
            raise ServiceError("vertices must all fit in 64 bits") from None

    # ------------------------------------------------------------------
    # Coalesced point lookups (the async front end's hot path)
    # ------------------------------------------------------------------
    def theta_payloads(self, artifact: str | None, vertices: list) -> list:
        """Answer many point-θ requests with one vectorized gather.

        Equivalent to ``len(vertices)`` sequential ``handle("/theta", ...)``
        calls — same payloads, same :class:`ServiceError` per bad request,
        same request accounting — but the artifact resolution (one manifest
        read) and the tip-number gather are paid once per batch.  Failures
        come back in-band as :class:`ServiceError` entries so one bad vertex
        never poisons its batch-mates.
        """
        self.count_requests("/theta", len(vertices))
        try:
            index = self.index_for(artifact)
        except ServiceError as error:
            return [error] * len(vertices)
        ids = np.asarray(vertices, dtype=np.int64)
        if ids.size and 0 <= int(ids.min()) and int(ids.max()) < index.n_vertices:
            # A TipIndex exposes the dense per-vertex array; a ShardRouter
            # answers the same gather by shard-scatter (still vectorized).
            dense = getattr(index, "tip_numbers", None)
            thetas = dense[ids] if dense is not None else index.gather_thetas(ids)
            return [
                {"vertex": int(vertex), "theta": int(theta)}
                for vertex, theta in zip(vertices, thetas)
            ]
        # Slow path (some vertex out of range): fall back to the point
        # query per request so error messages stay byte-identical.
        results: list = []
        for vertex in vertices:
            try:
                results.append({"vertex": int(vertex), "theta": index.theta(int(vertex))})
            except ServiceError as error:
                results.append(error)
        return results

    def _theta_batch_deadline(self, index, vertices, deadline: Deadline) -> dict:
        """Deadline-bounded ``/theta/batch``.

        Byte-identical to the undeadlined answer whenever everything
        resolves in time; a structured ``degraded: true`` partial answer
        (``None`` thetas for unresolved shards) when some shards miss the
        budget; 503 + ``Retry-After`` when no shard resolved at all.
        """
        if deadline.expired():
            self.count_deadline_exceeded()
            deadline.raise_if_expired("/theta/batch")
        if not isinstance(index, ShardRouter):
            # A single index gathers atomically: either it answers in time
            # or the deadline check above already failed the request.
            return {"vertices": vertices, "thetas": index.theta_batch(vertices)}
        thetas, unresolved = index.theta_batch_degraded(vertices, deadline=deadline)
        if not unresolved:
            return {"vertices": vertices, "thetas": thetas}
        resolved = sum(1 for theta in thetas if theta is not None)
        if resolved == 0 and len(thetas) > 0:
            self.count_deadline_exceeded()
            raise DeadlineExceededError(
                f"no shard resolved within the {deadline.seconds * 1000.0:.0f}ms "
                "deadline", retry_after=max(0.05, deadline.seconds))
        self.count_degraded()
        return {
            "vertices": vertices,
            "thetas": thetas,
            "degraded": True,
            "resolved": resolved,
            "unresolved_shards": unresolved,
        }

    # ------------------------------------------------------------------
    # Dispatch (see ROUTES)
    # ------------------------------------------------------------------
    def handle(self, route: str, params: dict | None = None, body: dict | None = None) -> dict:
        """Serve one request; returns a JSON-able payload or raises ServiceError."""
        params = params or {}
        route = route.rstrip("/") or "/"
        # Only known routes get their own counter entry; arbitrary scanner
        # paths would otherwise grow the Counter (and /stats) without bound.
        self.count_requests(route)
        handler = self._handlers.get(route)
        if handler is None:
            raise ServiceError(
                f"unknown route {route!r}; endpoints: {', '.join(ENDPOINTS)}; "
                f"diagnostics: {', '.join(DIAGNOSTIC_ENDPOINTS)}", status=404
            )
        return handler(params.get("artifact"), params, body)

    def _healthz(self, artifact, params: dict, body) -> dict:
        # Liveness always answers 200; SLO breaches surface as a
        # ``degraded`` status so orchestrators can alarm without
        # restarting a server that is up but slow.
        return {"status": self.slo.evaluate()["status"], "artifacts": self.artifact_names}

    def _slo(self, artifact, params: dict, body) -> dict:
        if _flag_param(params, "cached"):
            cached = self.slo.last_payload
            if cached is None:
                raise ServiceError("no SLO evaluation recorded yet", status=404)
            return cached
        return self.slo.evaluate()

    def _coordinator(self):
        """The attached replication coordinator; 404 without one."""
        if self.replication is None:
            raise ServiceError(
                "replication is not configured on this server "
                "(start with --role leader or --role follower)", status=404)
        return self.replication

    def _replication_status(self, artifact, params: dict, body) -> dict:
        return self._coordinator().status()

    def _replication_log(self, artifact, params: dict, body) -> dict:
        return self._coordinator().log_payload(params)

    def _replication_apply(self, artifact, params: dict, body) -> dict:
        return self._coordinator().handle_push(body)

    def _replication_snapshot(self, artifact, params: dict, body) -> dict:
        return self._coordinator().snapshot_payload()

    def _stats(self, artifact, params: dict, body) -> dict:
        payload: dict = {"artifacts": {}}
        names = [artifact] if artifact else self.artifact_names
        want_histogram = _flag_param(params, "histogram")
        for name in names:
            summary = self._manifest_summary(name)
            if want_histogram:
                # The histogram needs the index; everything else comes
                # from the manifest so a monitoring poll of /stats never
                # cold-loads (and LRU-thrashes) unqueried artifacts.
                index = self.index_for(name)
                summary["histogram"] = {
                    str(level): count for level, count in index.histogram().items()
                }
            payload["artifacts"][name] = summary
        # Cache metrics are read after the summaries so the loads they
        # triggered are reflected in the numbers.
        payload["cache"] = _stats_block(self.cache.stats)
        server = self._server_stats()
        payload["requests"] = dict(server["requests_total"])
        with self._requests_lock:
            payload["updates"] = dict(self.update_modes)
        payload["server"] = server
        if self.transport_metrics:
            payload["transport"] = {
                name: _stats_block(provider)
                for name, provider in self.transport_metrics.items()
            }
        if self.replication is not None:
            payload["replication"] = _stats_block(self.replication.status)
        payload["resilience"] = _stats_block(self._resilience_stats)
        return payload

    def _theta(self, artifact, params: dict, body) -> dict:
        deadline = Deadline.from_params(params)
        index = self.index_for(artifact)
        vertex = self._int_param(params, "vertex")
        if deadline is not None and deadline.expired():
            self.count_deadline_exceeded()
            deadline.raise_if_expired("/theta")
        return {"vertex": vertex, "theta": index.theta(vertex)}

    def _theta_batch(self, artifact, params: dict, body) -> dict:
        if body is not None and "deadline_ms" in body:
            deadline = Deadline.from_params(body)
        else:
            deadline = Deadline.from_params(params)
        index = self.index_for(artifact)
        vertices = self._vertices_param(params, body)
        if deadline is None:
            thetas = index.theta_batch(vertices)
            return {"vertices": vertices, "thetas": thetas}
        return self._theta_batch_deadline(index, vertices, deadline)

    def _top_k(self, artifact, params: dict, body) -> dict:
        index = self.index_for(artifact)
        k = self._int_param(params, "k")
        if k > MAX_RESPONSE_VERTICES:
            raise ServiceError(
                f"top-k is capped at {MAX_RESPONSE_VERTICES} vertices per "
                f"response, got k={k}"
            )
        vertices, thetas = index.top_k(k)
        return {"k": k, "vertices": vertices, "thetas": thetas}

    def _k_tip(self, artifact, params: dict, body) -> dict:
        index = self.index_for(artifact)
        k = self._int_param(params, "k")
        limit = (
            self._int_param(params, "limit")
            if "limit" in params else MAX_RESPONSE_VERTICES
        )
        if limit < 0:
            raise ServiceError(f"limit must be non-negative, got {limit}")
        limit = min(limit, MAX_RESPONSE_VERTICES)
        size = index.k_tip_size(k)
        members = index.k_tip_members(k, limit=limit)
        return {
            "k": k,
            "size": size,
            "truncated": bool(size > limit),
            "vertices": members,
        }

    def _community(self, artifact, params: dict, body) -> dict:
        index = self.index_for(artifact)
        k = self._int_param(params, "k")
        vertex = self._int_param(params, "vertex") if "vertex" in params else None
        # The vertex is checked first: out of range answers 400, and below
        # level k the answer is [] (or the 404 of an index without graph
        # arrays) with no level work.
        if vertex is None or index.theta(vertex) >= k:
            candidates = index.k_tip_size(k)
            if candidates > MAX_RESPONSE_VERTICES:
                raise ServiceError(
                    f"level {k} has {candidates} vertices; a community response "
                    f"is capped at {MAX_RESPONSE_VERTICES} — query a higher k"
                )
            work = index.community_wedge_work(k)
            if work > MAX_COMMUNITY_WEDGES:
                raise ServiceError(
                    f"level {k} has {work} wedge endpoints; community extraction "
                    f"is capped at {MAX_COMMUNITY_WEDGES} — query a higher k"
                )
        components = index.communities(k, vertex=vertex)
        return {
            "k": k,
            "vertex": vertex,
            "n_communities": len(components),
            "communities": components,
        }
