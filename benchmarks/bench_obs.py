"""Observability benchmark: tracer overhead, trace fidelity, /metrics coverage.

A plain script (no pytest harness) so CI can run it directly:

    PYTHONPATH=src python benchmarks/bench_obs.py [--quick]

Three checks, all hard-failing:

1. **Disabled-tracer overhead <= 3%** on the batched CD kernel.  Every
   hot-loop instrumentation site costs one ``tracer.span()`` call that
   returns a shared no-op singleton; the benchmark measures that
   primitive's per-call cost directly (best of several million-iteration
   rounds), multiplies by the number of span sites a CD run actually
   executes, and gates the product against the measured CD wall time.
   This is deterministic where an A/B wall-clock diff would gate on
   scheduler noise; the A/B numbers (no-op re-run jitter and recording
   overhead) are reported alongside for context.

2. **Trace fidelity <= 5%**: in a traced RECEIPT decomposition the
   pvBcnt + CD + FD phase spans must account for at least 95% of the
   root span's wall-clock — the phase breakdown the paper's evaluation
   tables are built on cannot silently lose time.

3. **/metrics coverage**: the server is started on a freshly built
   artifact, driven with point/batch/top-k load, and scraped.  Every
   metric family in ``DOCUMENTED_METRICS`` must be present in the scrape,
   every sample line must be well-formed exposition text, and the
   request-latency and coalescer histograms must actually be populated.

4. **Sampling-profiler overhead <= 5%** on the batched CD kernel.  Same
   deterministic style as check 1: the per-sample cost (one
   ``sys._current_frames`` snapshot + stack walk, the only work the
   profiled process's GIL ever pays for) is timed directly on the real
   ``SamplingProfiler._sample_once`` code path and gated against the
   sampling interval — the duty cycle IS the steady-state overhead.  An
   A/B CD wall-clock pair (profiler attached vs not) is reported for
   context but not gated.

5. **Diagnostics byte-identity**: after priming ``/slo``,
   ``/debug/memory`` and ``/debug/profile`` once over HTTP, the cached
   variants (``?cached=1`` / ``?last=1``) must answer byte-identical JSON
   served and through the same service's offline ``handle()``.

Results land in ``BENCH_obs.json`` at the repository root; CI follows up
with ``repro bench-history check`` so a slow drift in any headline metric
fails the build even while every absolute ceiling still passes.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

from repro.butterfly.counting import count_per_vertex_priority
from repro.core.cd import coarse_grained_decomposition
from repro.core.receipt import receipt_decomposition
from repro.datasets.registry import load_dataset
from repro.obs.profile import DEFAULT_INTERVAL_SECONDS, SamplingProfiler
from repro.obs.trace import NOOP_TRACER, Tracer, use_tracer
from repro.service.aserver import start_server_thread
from repro.service.build import build_index_artifact
from repro.service.server import DOCUMENTED_METRICS, TipService, to_jsonable

REPO_ROOT = Path(__file__).resolve().parent.parent
NOOP_OVERHEAD_CEILING_PCT = 3.0
PHASE_FIDELITY_CEILING_PCT = 5.0
PROFILER_OVERHEAD_CEILING_PCT = 5.0

_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (NaN|[+-]Inf|[-+0-9.e]+)$"
)


# ----------------------------------------------------------------------
# 1. Disabled-tracer overhead on the batched CD kernel
# ----------------------------------------------------------------------
def time_noop_span(iterations: int = 1_000_000, rounds: int = 3) -> float:
    """Best-of-N seconds per ``span()`` + enter/exit on a no-op tracer."""
    tracer = NOOP_TRACER
    best = None
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(iterations):
            with tracer.span("cd.peel_iteration"):
                pass
        lap = time.perf_counter() - start
        best = lap if best is None else min(best, lap)
    return best / iterations


def run_cd(graph, supports, n_partitions: int, *, tracer=None, rounds: int = 3):
    best, result = None, None
    for _ in range(rounds):
        start = time.perf_counter()
        if tracer is None:
            result = coarse_grained_decomposition(graph, supports, n_partitions)
        else:
            tracer.clear()
            with use_tracer(tracer):
                result = coarse_grained_decomposition(graph, supports, n_partitions)
        lap = time.perf_counter() - start
        best = lap if best is None else min(best, lap)
    return best, result


def bench_tracer_overhead(scale: float, n_partitions: int, rounds: int) -> dict:
    graph = load_dataset("it", scale=scale)
    counts = count_per_vertex_priority(graph)

    noop_a, result = run_cd(graph, counts.u_counts, n_partitions, rounds=rounds)
    noop_b, _ = run_cd(graph, counts.u_counts, n_partitions, rounds=rounds)
    recording, _ = run_cd(graph, counts.u_counts, n_partitions,
                          tracer=Tracer(), rounds=rounds)

    # Span sites one CD run executes under the no-op tracer: the cd/
    # pvBcnt-style timed() phase spans are O(1); the per-iteration span
    # is the hot one.
    span_calls = int(result.counters.synchronization_rounds) + 2
    per_call = time_noop_span()
    noop_overhead_pct = 100.0 * (span_calls * per_call) / max(noop_a, 1e-9)
    return {
        "dataset": "it",
        "scale": scale,
        "cd_noop_seconds": round(noop_a, 4),
        "cd_noop_rerun_seconds": round(noop_b, 4),
        "cd_recording_seconds": round(recording, 4),
        "recording_overhead_pct": round(100.0 * (recording / noop_a - 1.0), 2),
        "noop_span_ns": round(per_call * 1e9, 1),
        "span_calls_per_run": span_calls,
        "noop_overhead_pct": round(noop_overhead_pct, 4),
    }


# ----------------------------------------------------------------------
# 4. Sampling-profiler overhead on the batched CD kernel
# ----------------------------------------------------------------------
def time_profile_sample(samples: int = 500, rounds: int = 3) -> float:
    """Best-of-N seconds per profiler sample on the live thread census.

    Times the actual ``SamplingProfiler._sample_once`` body — the GIL
    hand-off of ``sys._current_frames`` plus the per-thread stack walk
    and fold — which is the only cost the profiled code ever pays.
    """
    import threading

    profiler = SamplingProfiler()
    own_ident = threading.get_ident()
    names: dict = {}
    best = None
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(samples):
            profiler._sample_once(own_ident, names)
        lap = time.perf_counter() - start
        best = lap if best is None else min(best, lap)
    return best / samples


def bench_profiler_overhead(scale: float, n_partitions: int, rounds: int) -> dict:
    graph = load_dataset("it", scale=scale)
    counts = count_per_vertex_priority(graph)

    # A/B context: the same CD run bare and with an attached profiler.
    bare, _ = run_cd(graph, counts.u_counts, n_partitions, rounds=rounds)
    profiler = SamplingProfiler(interval=DEFAULT_INTERVAL_SECONDS)
    profiler.start()
    try:
        profiled, _ = run_cd(graph, counts.u_counts, n_partitions, rounds=rounds)
    finally:
        profiler.stop()
    payload = profiler.payload(top=5)

    # Deterministic gate: per-sample cost over the sampling interval is
    # the profiler's steady-state duty cycle on the profiled process.
    per_sample = time_profile_sample()
    duty_cycle_pct = 100.0 * per_sample / DEFAULT_INTERVAL_SECONDS
    return {
        "dataset": "it",
        "scale": scale,
        "interval_seconds": DEFAULT_INTERVAL_SECONDS,
        "sample_cost_us": round(per_sample * 1e6, 2),
        "profiler_overhead_pct": round(duty_cycle_pct, 4),
        "cd_bare_seconds": round(bare, 4),
        "cd_profiled_seconds": round(profiled, 4),
        "ab_overhead_pct": round(100.0 * (profiled / bare - 1.0), 2),
        "profile_samples": payload["samples"],
        "profile_stack_samples": payload["stack_samples"],
    }


# ----------------------------------------------------------------------
# 2. Trace fidelity: phase spans vs wall clock
# ----------------------------------------------------------------------
def bench_trace_fidelity(scale: float, n_partitions: int) -> dict:
    graph = load_dataset("it", scale=scale)
    tracer = Tracer()
    with use_tracer(tracer):
        result = receipt_decomposition(graph, "U", n_partitions=n_partitions)
    spans = tracer.export()
    root = next(span for span in spans if span["name"] == "receipt")
    phases = {
        span["name"]: span["dur"]
        for span in spans
        if span["parent"] == root["id"] and span["name"] in ("pvBcnt", "cd", "fd")
    }
    phase_sum = sum(phases.values())
    gap_pct = 100.0 * abs(root["dur"] - phase_sum) / max(root["dur"], 1e-9)
    return {
        "dataset": "it",
        "scale": scale,
        "n_spans": len(spans),
        "wall_seconds": round(root["dur"], 4),
        "phase_seconds": {name: round(dur, 4) for name, dur in phases.items()},
        "phase_sum_seconds": round(phase_sum, 4),
        "counters_elapsed_seconds": round(result.counters.elapsed_seconds, 4),
        "phase_gap_pct": round(gap_pct, 3),
    }


# ----------------------------------------------------------------------
# 3. /metrics coverage under load
# ----------------------------------------------------------------------
def _drive_and_scrape(base_url: str, n_requests: int) -> str:
    for vertex in range(n_requests):
        urllib.request.urlopen(f"{base_url}/theta?vertex={vertex % 20}",
                               timeout=10).read()
    urllib.request.urlopen(f"{base_url}/theta/batch?vertices=0,1,2,3",
                           timeout=10).read()
    urllib.request.urlopen(f"{base_url}/top-k?k=5", timeout=10).read()
    urllib.request.urlopen(f"{base_url}/stats", timeout=10).read()
    with urllib.request.urlopen(f"{base_url}/metrics", timeout=10) as response:
        content_type = response.headers["Content-Type"]
        if not content_type.startswith("text/plain"):
            raise AssertionError(f"/metrics Content-Type is {content_type!r}")
        return response.read().decode("utf-8")


def _check_scrape(transport: str, text: str, n_requests: int) -> dict:
    missing = [name for name in DOCUMENTED_METRICS
               if f"# TYPE {name} " not in text]
    if missing:
        raise AssertionError(f"{transport}: metrics missing from scrape: {missing}")
    samples = {}
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        if not _SAMPLE_RE.match(line):
            raise AssertionError(f"{transport}: malformed exposition line {line!r}")
        key, value = line.rsplit(" ", 1)
        samples[key] = value
    count_key = (f'repro_http_request_seconds_count'
                 f'{{transport="{transport}",route="/theta"}}')
    observed = int(float(samples.get(count_key, "0")))
    if observed < n_requests:
        raise AssertionError(
            f"{transport}: latency histogram saw {observed} /theta requests, "
            f"expected >= {n_requests}"
        )
    return {
        "transport": transport,
        "families": sum(1 for line in text.splitlines()
                        if line.startswith("# TYPE ")),
        "sample_lines": len(samples),
        "theta_latency_observations": observed,
    }


def bench_metrics_endpoints(artifact_dir: Path, n_requests: int) -> list:
    rows = []
    handle = start_server_thread([artifact_dir])
    try:
        text = _drive_and_scrape(handle.base_url, n_requests)
        row = _check_scrape("async", text, n_requests)
        coalesced = int(float(
            dict(line.rsplit(" ", 1) for line in text.splitlines()
                 if line.startswith("repro_coalesce_batch_size_count"))
            ["repro_coalesce_batch_size_count"]))
        if coalesced < n_requests:
            raise AssertionError(
                f"async: coalescer histogram saw {coalesced} requests, "
                f"expected >= {n_requests}")
        row["coalesced_requests"] = coalesced
        rows.append(row)
    finally:
        handle.stop()
    return rows


# ----------------------------------------------------------------------
# 5. Diagnostics byte-identity, served vs offline
# ----------------------------------------------------------------------
def _get_bytes(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.read()


def bench_diagnostics_parity(artifact_dir: Path) -> dict:
    """Cached diagnostics (``/slo?cached=1``, ``/debug/memory?cached=1``,
    ``/debug/profile?last=1``) must answer byte-identical JSON over HTTP
    and through the served service's offline ``handle()``."""
    service = TipService([artifact_dir])
    handle = start_server_thread(service=service)
    try:
        # Prime each diagnostic once; the stored payloads then answer both
        # the HTTP request and the offline call.
        _get_bytes(f"{handle.base_url}/slo")
        _get_bytes(f"{handle.base_url}/debug/memory")
        _get_bytes(f"{handle.base_url}/debug/profile?seconds=0.2&interval_ms=2")
        rows = {}
        for route, flag in (("/slo", "cached"), ("/debug/memory", "cached"),
                            ("/debug/profile", "last")):
            served = _get_bytes(f"{handle.base_url}{route}?{flag}=1")
            offline = json.dumps(to_jsonable(
                service.handle(route, {flag: "1"}))).encode("utf-8")
            if served != offline:
                raise AssertionError(
                    f"diagnostic {route}?{flag}=1 differs served and offline "
                    f"({len(served)} vs {len(offline)} bytes)")
            rows[f"{route}?{flag}=1"] = {"bytes": len(served), "identical": True}
        return rows
    finally:
        handle.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller scale + fewer rounds (CI smoke mode)")
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_obs.json"))
    args = parser.parse_args(argv)

    scale = 0.15 if args.quick else 0.5
    rounds = 2 if args.quick else 5
    n_requests = 50 if args.quick else 200

    overhead = bench_tracer_overhead(scale, n_partitions=12, rounds=rounds)
    print(
        f"tracer overhead: cd={overhead['cd_noop_seconds']}s "
        f"(rerun {overhead['cd_noop_rerun_seconds']}s, "
        f"recording {overhead['cd_recording_seconds']}s), "
        f"noop span {overhead['noop_span_ns']}ns x "
        f"{overhead['span_calls_per_run']} sites = "
        f"{overhead['noop_overhead_pct']}% of CD wall time"
    )

    profiler = bench_profiler_overhead(scale, n_partitions=12, rounds=rounds)
    print(
        f"profiler overhead: sample={profiler['sample_cost_us']}us / "
        f"{profiler['interval_seconds'] * 1000:.0f}ms interval = "
        f"{profiler['profiler_overhead_pct']}% duty cycle "
        f"(A/B: bare {profiler['cd_bare_seconds']}s vs profiled "
        f"{profiler['cd_profiled_seconds']}s, "
        f"{profiler['profile_stack_samples']} stack samples)"
    )

    fidelity = bench_trace_fidelity(scale, n_partitions=12)
    print(
        f"trace fidelity: wall={fidelity['wall_seconds']}s "
        f"phases={fidelity['phase_sum_seconds']}s "
        f"gap={fidelity['phase_gap_pct']}% ({fidelity['n_spans']} spans)"
    )

    graph = load_dataset("de", scale=scale)
    with tempfile.TemporaryDirectory(prefix="obs_bench_") as scratch:
        artifact_dir = Path(scratch) / "obs_bench.tipidx"
        build_index_artifact(graph, artifact_dir, n_partitions=8, overwrite=True)
        endpoints = bench_metrics_endpoints(artifact_dir, n_requests)
        diagnostics = bench_diagnostics_parity(artifact_dir)
    for row in endpoints:
        print(
            f"{row['transport']}: {row['families']} families, "
            f"{row['sample_lines']} samples, "
            f"{row['theta_latency_observations']} /theta latencies observed"
        )
    for route, row in diagnostics.items():
        print(f"diagnostics parity: {route} identical served and offline "
              f"({row['bytes']} bytes)")

    report = {
        "benchmark": "observability",
        "mode": "quick" if args.quick else "full",
        "gates": {
            "noop_overhead_ceiling_pct": NOOP_OVERHEAD_CEILING_PCT,
            "phase_fidelity_ceiling_pct": PHASE_FIDELITY_CEILING_PCT,
            "profiler_overhead_ceiling_pct": PROFILER_OVERHEAD_CEILING_PCT,
            "documented_metrics": len(DOCUMENTED_METRICS),
        },
        "tracer_overhead": overhead,
        "profiler_overhead": profiler,
        "trace_fidelity": fidelity,
        "metrics_endpoints": endpoints,
        "diagnostics_identity": diagnostics,
    }
    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")

    failures = []
    if overhead["noop_overhead_pct"] > NOOP_OVERHEAD_CEILING_PCT:
        failures.append(
            f"disabled-tracer overhead is {overhead['noop_overhead_pct']}% of CD "
            f"wall time, above the {NOOP_OVERHEAD_CEILING_PCT}% ceiling"
        )
    if profiler["profiler_overhead_pct"] > PROFILER_OVERHEAD_CEILING_PCT:
        failures.append(
            f"sampling-profiler duty cycle is "
            f"{profiler['profiler_overhead_pct']}%, above the "
            f"{PROFILER_OVERHEAD_CEILING_PCT}% ceiling"
        )
    if fidelity["phase_gap_pct"] > PHASE_FIDELITY_CEILING_PCT:
        failures.append(
            f"phase spans account for all but {fidelity['phase_gap_pct']}% of the "
            f"traced wall-clock, above the {PHASE_FIDELITY_CEILING_PCT}% ceiling"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"OK: disabled tracer costs {overhead['noop_overhead_pct']}% of CD, "
        f"the sampling profiler's duty cycle is "
        f"{profiler['profiler_overhead_pct']}%, phase spans cover "
        f"{round(100 - fidelity['phase_gap_pct'], 2)}% of the traced run, the "
        f"server exposes all {len(DOCUMENTED_METRICS)} documented metrics, "
        f"and cached diagnostics are byte-identical served and offline"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
