"""Observability substrate: tracing, metrics, logs, profiling, SLOs.

The package is intentionally dependency-free (stdlib only) so that every
layer of the repro -- kernels, core phases, the execution engine, the
streaming updater and both serving transports -- can be instrumented
without adding imports the container does not carry.

Modules
-------
``trace``
    ``Span``/``Tracer`` context managers with monotonic timing, nested
    phase attribution and cross-process span merging over the engine's
    pickle channel.  A process-wide no-op tracer is installed by default
    so instrumentation costs nothing unless a recording tracer is active.
``metrics``
    Counters, gauges and fixed-bucket histograms collected through
    per-thread shards (no lock on the hot increment path) and rendered
    in the Prometheus text exposition format.
``log``
    A shared ``repro.*`` logger hierarchy with a JSON-lines formatter,
    request logging with latency + status, and a slow-query threshold.
``report``
    Chrome ``chrome://tracing`` export of a span tree plus the
    phase-time breakdown table behind ``repro trace-summary``.
``profile``
    Zero-dependency sampling profiler: a background thread snapshots
    every live thread's stack and folds the samples into flamegraph
    input and a top-N self-time table (``--profile-out``,
    ``GET /debug/profile``).
``memory``
    Unified memory telemetry joining RSS, tracemalloc, wedge-workspace
    arenas and artifact memmaps into one snapshot (``GET /debug/memory``,
    ``repro_memory_*`` gauges).
``slo``
    Declarative latency/availability/staleness objectives evaluated by
    rolling burn rate over the existing metrics (``GET /slo``, the
    ``degraded`` health state, WARNING escalation).
``history``
    Append-only ``BENCH_history.jsonl`` of benchmark headline metrics
    with rolling-median baselines and a regression gate
    (``repro bench-history``).
"""

from .trace import NOOP_TRACER, Span, Tracer, current_tracer, use_tracer

__all__ = [
    "NOOP_TRACER",
    "Span",
    "Tracer",
    "current_tracer",
    "use_tracer",
]
