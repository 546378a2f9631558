"""Serving + CLI observability: /metrics over HTTP, trace CLI."""

from __future__ import annotations

import io
import json
import logging
import re
import shutil
import socket
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.core.receipt import tip_decomposition
from repro.datasets.generators import planted_blocks
from repro.obs.log import configure_logging
from repro.service.aserver import start_server_thread
from repro.service.artifacts import save_artifact
from repro.service.server import (
    DIAGNOSTIC_ENDPOINTS,
    DOCUMENTED_METRICS,
    ENDPOINTS,
    METRICS_CONTENT_TYPE,
    TipService,
    metric_route,
)

_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (NaN|[+-]Inf|[-+0-9.e]+)$"
)


@pytest.fixture(autouse=True)
def _reset_repro_logging():
    """Drop any handler the CLI installs so tests stay order-independent."""
    yield
    logger = logging.getLogger("repro")
    for handler in list(logger.handlers):
        if getattr(handler, "_repro_obs", False):
            logger.removeHandler(handler)
    logger.setLevel(logging.NOTSET)
    logger.propagate = True


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    graph = planted_blocks(40, 25, [(8, 6), (6, 4)], background_edges=50, seed=3)
    result = tip_decomposition(graph, "U", algorithm="receipt", n_partitions=4)
    path = tmp_path_factory.mktemp("obs") / "blocks.tipidx"
    save_artifact(path, graph, result)
    return path


def _get_text(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.headers["Content-Type"], response.read().decode()


def _parse_samples(text):
    samples = {}
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        assert _SAMPLE_RE.match(line), f"invalid exposition line: {line!r}"
        name_labels, value = line.rsplit(" ", 1)
        samples[name_labels] = value
    return samples


class TestAsyncMetrics:
    @pytest.fixture(scope="class")
    def handle(self, artifact):
        handle = start_server_thread([artifact])
        yield handle
        handle.stop()

    def test_scrape_is_valid_and_complete(self, handle):
        for vertex in range(4):
            urllib.request.urlopen(
                f"{handle.base_url}/theta?vertex={vertex}", timeout=10).read()
        status, content_type, text = _get_text(f"{handle.base_url}/metrics")
        assert status == 200
        assert content_type == METRICS_CONTENT_TYPE
        samples = _parse_samples(text)
        for name in DOCUMENTED_METRICS:
            assert f"# TYPE {name} " in text, name
        # The latency histogram is populated for the route we hit.
        bucket = ('repro_http_request_seconds_bucket'
                  '{transport="async",route="/theta",le="+Inf"}')
        assert int(float(samples[bucket])) >= 4
        counted = ('repro_http_requests_total'
                   '{transport="async",route="/theta",status="200"}')
        assert int(float(samples[counted])) >= 4

    def test_scrape_includes_coalescer_histograms(self, handle):
        for vertex in range(6):
            urllib.request.urlopen(
                f"{handle.base_url}/theta?vertex={vertex}", timeout=10).read()
        status, content_type, text = _get_text(f"{handle.base_url}/metrics")
        assert status == 200
        assert content_type == METRICS_CONTENT_TYPE
        samples = _parse_samples(text)
        for name in DOCUMENTED_METRICS:
            assert f"# TYPE {name} " in text, name
        assert int(float(samples["repro_coalesce_batch_size_count"])) >= 6
        assert int(float(samples["repro_coalesce_wait_seconds_count"])) >= 6
        counted = ('repro_http_requests_total'
                   '{transport="async",route="/theta",status="200"}')
        assert int(float(samples[counted])) >= 6

    def test_latency_includes_coalescer_wait(self, handle):
        # The deferred theta response is observed when its future resolves;
        # the histogram count equals the requests actually answered.
        urllib.request.urlopen(f"{handle.base_url}/theta?vertex=1", timeout=10).read()
        _, _, text = _get_text(f"{handle.base_url}/metrics")
        samples = _parse_samples(text)
        count = ('repro_http_request_seconds_count'
                 '{transport="async",route="/theta"}')
        total = ('repro_http_request_seconds_sum'
                 '{transport="async",route="/theta"}')
        assert int(float(samples[count])) >= 1
        assert float(samples[total]) > 0.0

    def test_scrape_time_gauges_refresh(self, handle):
        _, _, first = _get_text(f"{handle.base_url}/metrics")
        uptime1 = float(_parse_samples(first)["repro_server_uptime_seconds"])
        _, _, second = _get_text(f"{handle.base_url}/metrics")
        uptime2 = float(_parse_samples(second)["repro_server_uptime_seconds"])
        assert uptime2 > uptime1 > 0.0
        samples = _parse_samples(second)
        assert float(samples["repro_server_start_time_seconds"]) > 0
        staleness = [key for key in samples
                     if key.startswith("repro_artifact_staleness_seconds")]
        assert staleness and float(samples[staleness[0]]) >= 0.0

    def test_stats_server_block(self, handle):
        # ?fresh=1 bypasses the front end's short-lived bare-/stats cache.
        url = f"{handle.base_url}/stats?fresh=1"
        with urllib.request.urlopen(url, timeout=10) as response:
            payload = json.loads(response.read())
        server = payload["server"]
        assert server["started_unix"] > 0
        assert server["uptime_seconds"] >= 0
        first = server["requests_total"].get("/stats", 0)
        assert first >= 1
        with urllib.request.urlopen(url, timeout=10) as response:
            payload = json.loads(response.read())
        assert payload["server"]["requests_total"]["/stats"] > first

    def test_unknown_routes_collapse_into_one_label(self, handle):
        for path in ("/nope", "/admin", "/x/y/z"):
            try:
                urllib.request.urlopen(handle.base_url + path, timeout=10)
            except urllib.error.HTTPError as error:
                assert error.code == 404
        _, _, text = _get_text(f"{handle.base_url}/metrics")
        samples = _parse_samples(text)
        unknown = ('repro_http_requests_total'
                   '{transport="async",route="<unknown>",status="404"}')
        assert int(float(samples[unknown])) >= 3
        assert not any('route="/nope"' in key for key in samples)

    @pytest.mark.parametrize("raw, route, status", [
        (b"POST /theta/batch HTTP/1.1\r\nHost: x\r\n"
         b"Content-Length: 67108864\r\n\r\n", "/theta/batch", "413"),
        (b"NOT A REQUEST\r\n\r\n", "<unknown>", "400"),
        (b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 32 * 1024 + b"\r\n",
         "/healthz", "431"),
    ], ids=["oversized-body", "malformed-request-line", "oversized-header-block"])
    def test_protocol_rejections_are_counted(self, handle, raw, route, status):
        key = ('repro_http_requests_total'
               f'{{transport="async",route="{route}",status="{status}"}}')

        def count():
            samples = _parse_samples(_get_text(f"{handle.base_url}/metrics")[2])
            return int(float(samples.get(key, "0")))

        before = count()
        with socket.create_connection(handle.address, timeout=10) as sock:
            sock.sendall(raw)
            reply = b""
            while chunk := sock.recv(65536):  # the server closes after answering
                reply += chunk
        assert reply.startswith(f"HTTP/1.1 {status} ".encode())
        assert count() == before + 1


def _request_counts(text: str) -> tuple[dict, dict]:
    """From a scrape: async requests per (route, status) and latency
    observations per route."""
    counted, timed = {}, {}
    for key, value in _parse_samples(text).items():
        labels = dict(re.findall(r'(\w+)="([^"]*)"', key))
        if labels.get("transport") != "async":
            continue
        if key.startswith("repro_http_requests_total{"):
            counted[labels["route"], labels["status"]] = int(float(value))
        elif key.startswith("repro_http_request_seconds_count{"):
            timed[labels["route"]] = int(float(value))
    return counted, timed


def _expected_counts(observed) -> tuple[dict, dict]:
    """What ``_request_counts`` must read after ``observed`` (route label,
    status) requests."""
    counted, timed = {}, {}
    for route, status in observed:
        counted[route, str(status)] = counted.get((route, str(status)), 0) + 1
        timed[route] = timed.get(route, 0) + 1
    return counted, timed


#: Log levels the request counts must not depend on.
_LEVELS = ["DEBUG", "INFO", "WARNING", "ERROR"]


class TestRequestMetricChildren:
    """observe_request binds its counter and histogram children once per
    (transport, route label, status): every request still lands on its
    own series, whatever the log level."""

    @pytest.mark.parametrize("level", _LEVELS)
    def test_served_requests_count_exactly(self, artifact, level):
        configure_logging("json", level=level, stream=io.StringIO())
        handle = start_server_thread([artifact])
        observed = []
        try:
            # /theta answers 200, then a status first seen mid-run, then 200
            # again; two unknown paths share the <unknown> label.
            for target in ("/theta?vertex=1", "/theta?vertex=2", "/theta?vertex=-1",
                           "/theta?vertex=3", "/nope", "/healthz", "/x/y/z",
                           "/theta?vertex=1"):
                try:
                    with urllib.request.urlopen(handle.base_url + target,
                                                timeout=10) as response:
                        status = response.status
                except urllib.error.HTTPError as error:
                    status = error.code
                observed.append((metric_route(target.split("?")[0]), status))
            text = _get_text(f"{handle.base_url}/metrics")[2]
        finally:
            handle.stop()
        statuses = [status for route, status in observed if route == "/theta"]
        assert statuses[:2] == [200, 200] and statuses[2] != 200
        assert ("<unknown>", 404) in observed
        assert _request_counts(text) == _expected_counts(observed)

    @pytest.mark.parametrize("level", _LEVELS)
    def test_slow_and_5xx_requests_count_exactly(self, artifact, level, monkeypatch):
        monkeypatch.setenv("REPRO_SLOW_QUERY_MS", "100")
        configure_logging("text", level=level, stream=io.StringIO())
        service = TipService([artifact])
        requests = [("/theta", 200, 0.001), ("/theta", 503, 0.001),
                    ("/theta", 200, 0.5), ("/nope", 500, 0.5), ("/theta", 503, 0.001),
                    ("/top-k", 200, 0.001), ("/admin", 404, 0.001)]
        for route, status, seconds in requests:
            service.observe_request("async", route, status, seconds)
        text = service.metrics_text()
        assert _request_counts(text) == _expected_counts(
            (metric_route(route), status) for route, status, _ in requests)
        total = 'repro_http_request_seconds_sum{transport="async",route="/theta"}'
        assert float(_parse_samples(text)[total]) == pytest.approx(0.503)

    def test_concurrent_observers_count_exactly(self, artifact):
        # More threads than cores and a short switch interval, each thread
        # meeting every (route, status) key for the first time together.
        service = TipService([artifact])
        keys = [(route, status) for route in ("/theta", "/top-k", "/nope")
                for status in (200, 400, 404, 503)]
        rounds = 200

        def observe():
            for _ in range(rounds):
                for route, status in keys:
                    service.observe_request("async", route, status, 0.001)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=observe) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert _request_counts(service.metrics_text()) == _expected_counts(
            [(metric_route(route), status) for route, status in keys] * rounds * 4)


class TestOfflineService:
    def test_metrics_text_needs_no_transport(self, artifact):
        service = TipService([artifact])
        service.observe_request("async", "/theta", 200, 0.001)
        text = service.metrics_text()
        _parse_samples(text)  # every sample line is well-formed
        for name in DOCUMENTED_METRICS:
            assert f"# TYPE {name} " in text, name

    def test_metric_route_normalisation(self):
        for route in ENDPOINTS + DIAGNOSTIC_ENDPOINTS:
            assert metric_route(route) == route
        assert metric_route("/metrics") == "/metrics"
        assert metric_route("/etc/passwd") == "<unknown>"
        assert metric_route("/replication/other") == "<unknown>"

    def test_metrics_is_not_a_json_endpoint(self):
        # /metrics is a transport concern; the JSON API surface (and the
        # byte-identical transport comparison built on it) is unchanged.
        assert "/metrics" not in ENDPOINTS


#: Label names of every labelled documented family (``le`` aside); every
#: other documented family is unlabelled.
_FAMILY_LABELS = {
    "repro_http_requests_total": {"transport", "route", "status"},
    "repro_http_request_seconds": {"transport", "route"},
    "repro_service_requests_total": {"route"},
    "repro_updates_applied_total": {"artifact"},
    "repro_artifact_staleness_seconds": {"artifact"},
    "repro_slo_burn_rate": {"objective"},
    "repro_slo_ok": {"objective"},
}
_FAMILY_TYPES = {
    "repro_http_requests_total": "counter",
    "repro_http_request_seconds": "histogram",
    "repro_coalesce_batch_size": "histogram",
    "repro_coalesce_wait_seconds": "histogram",
}

#: Keys ``/stats`` carries, block by block; monitoring and tipbench read
#: them.  A block may gain keys, never lose one.
_STATS_KEYS = {
    (): {"artifacts", "cache", "requests", "resilience", "server", "updates"},
    ("cache",): {"capacity", "entries", "evictions", "hit_rate", "hits", "misses"},
    ("server",): {"requests_total", "started_unix", "uptime_seconds"},
    ("resilience",): {"breakers", "deadline_exceeded_total", "degraded_total", "faults"},
    ("transport", "coalescer"): {
        "batches_flushed", "coalesce_wait_p50_ms", "coalesce_wait_p99_ms",
        "largest_batch", "max_batch", "max_delay_ms", "mean_batch_size",
        "peak_queue_depth", "queue_depth", "requests_coalesced",
        "size_triggered_flushes"},
    ("transport", "updates"): {
        "admission_rejections", "admitted", "completed", "max_pending",
        "peak_pending", "pending", "retry_after_seconds"},
}


def _families(text):
    """``{family: (TYPE, label names seen on its samples)}`` of a scrape."""
    kinds = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split()
            kinds[name] = kind
    labels = {name: set() for name in kinds}
    for key in _parse_samples(text):
        name, _, rest = key.partition("{")
        if name not in kinds:
            name = re.sub(r"_(bucket|sum|count)$", "", name)
        labels[name] |= set(re.findall(r'([a-zA-Z_]+)="', rest)) - {"le"}
    return {name: (kind, labels[name]) for name, kind in kinds.items()}


class TestTelemetrySurface:
    """Every documented family keeps its TYPE and labels; /stats keeps its keys."""

    def _check_families(self, text):
        families = _families(text)
        for name in DOCUMENTED_METRICS:
            kind, labels = families[name]
            assert kind == _FAMILY_TYPES.get(name, "gauge"), name
            assert labels == _FAMILY_LABELS.get(name, set()), name

    def _check_stats(self, payload, *, served):
        for path, keys in _STATS_KEYS.items():
            if path and path[0] == "transport" and not served:
                continue
            block = payload
            for part in path:
                block = block[part]
            assert keys <= set(block), (path, keys - set(block))
        assert ("transport" in payload) is served

    def test_offline_service(self, artifact):
        service = TipService([artifact])
        service.handle("/theta", {"vertex": "1"})
        service.observe_request("async", "/theta", 200, 0.001)
        self._check_families(service.metrics_text())
        self._check_stats(service.handle("/stats"), served=False)

    def test_served(self, artifact):
        handle = start_server_thread([artifact])
        try:
            for target in ("/theta?vertex=1", "/healthz", "/top-k?k=2"):
                urllib.request.urlopen(handle.base_url + target, timeout=10).read()
            text = _get_text(f"{handle.base_url}/metrics")[2]
            self._check_families(text)
            assert 'repro_http_requests_total{transport="async",' in text
            with urllib.request.urlopen(
                    f"{handle.base_url}/stats?fresh=1", timeout=10) as response:
                self._check_stats(json.loads(response.read()), served=True)
        finally:
            handle.stop()

    def test_a_failing_source_leaves_the_other_gauges_refreshing(
            self, artifact, tmp_path):
        """One scrape callback per source: replication raising freezes only
        the replication gauges."""
        from repro.service import faults
        from repro.service.replication import ReplicationCoordinator

        copy = tmp_path / "leader.tipidx"
        shutil.copytree(artifact, copy)
        service = TipService([copy])
        coordinator = ReplicationCoordinator(service, role="leader")

        def broken():
            raise RuntimeError("replication status unavailable")

        coordinator.status = broken
        coordinator.gauge_values = broken
        service.handle("/theta", {"vertex": "1"})  # one cache miss
        service.count_degraded()
        service.observe_request("async", "/theta", 500, 0.001)
        with faults.armed(faults.FaultPlan.parse("shard.gather:error:count=1", seed=1)):
            samples = _parse_samples(service.metrics_text())
        assert samples["repro_cache_misses_total"] == "1"
        assert samples["repro_resilience_degraded_total"] == "1"
        assert samples["repro_faults_armed"] == "1"
        assert float(samples['repro_slo_burn_rate{objective="availability"}']) > 1.0
        assert samples['repro_slo_ok{objective="availability"}'] == "0"

    def test_a_failing_source_fails_only_its_stats_block(self, artifact, tmp_path):
        """/stats answers with the error in the failing block's place, offline
        and over HTTP, and serves every other block."""
        from repro.service.replication import ReplicationCoordinator

        copy = tmp_path / "leader.tipidx"
        shutil.copytree(artifact, copy)
        service = TipService([copy])
        coordinator = ReplicationCoordinator(service, role="leader")

        def broken():
            raise RuntimeError("replication status unavailable")

        coordinator.status = broken
        failed = {"error": "RuntimeError: replication status unavailable"}
        offline = service.handle("/stats")
        assert offline["replication"] == failed
        self._check_stats(offline, served=False)

        service.transport_metrics["broken"] = broken
        assert service.handle("/stats")["transport"]["broken"] == failed
        del service.transport_metrics["broken"]

        handle = start_server_thread(service=service)
        try:
            with urllib.request.urlopen(
                    f"{handle.base_url}/stats?fresh=1", timeout=10) as response:
                assert response.status == 200
                served = json.loads(response.read())
        finally:
            handle.stop()
        assert served["replication"] == failed
        self._check_stats(served, served=True)


class TestCli:
    def test_decompose_trace_out_and_summary(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        code = main(["decompose", "--dataset", "it", "--scale", "0.05",
                     "--seed", "1", "--trace-out", str(trace_path)])
        assert code == 0
        captured = capsys.readouterr()
        summary = json.loads(captured.out)
        assert summary["algorithm"] == "RECEIPT"
        payload = json.loads(trace_path.read_text())
        assert payload["traceEvents"] and payload["spans"]
        names = {span["name"] for span in payload["spans"]}
        assert {"receipt", "pvBcnt", "cd", "fd"} <= names
        # Phase totals within 5% of the root wall-clock.
        root = next(s for s in payload["spans"] if s["name"] == "receipt")
        phases = [s for s in payload["spans"]
                  if s["parent"] == root["id"] and s["name"] in ("pvBcnt", "cd", "fd")]
        assert sum(s["dur"] for s in phases) <= root["dur"] * 1.001

        code = main(["trace-summary", str(trace_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "phase breakdown" in out
        assert "cd" in out and "fd" in out

    def test_trace_summary_rejects_missing_file(self, tmp_path, capsys):
        code = main(["trace-summary", str(tmp_path / "absent.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_json_log_format_emits_json_lines(self, capsys):
        code = main(["--log-format", "json", "decompose", "--dataset", "it",
                     "--scale", "0.05", "--seed", "1"])
        assert code == 0
        err = capsys.readouterr().err
        phase_lines = [json.loads(line) for line in err.splitlines()
                       if line.startswith("{")]
        assert any(line.get("event") == "phase" for line in phase_lines)

    def test_build_index_trace_out(self, tmp_path, capsys):
        trace_path = tmp_path / "build.json"
        out_path = tmp_path / "small.tipidx"
        code = main(["build-index", "--dataset", "it", "--scale", "0.05",
                     "--seed", "1", "--output", str(out_path),
                     "--trace-out", str(trace_path)])
        assert code == 0
        capsys.readouterr()
        payload = json.loads(trace_path.read_text())
        assert any(span["name"] == "receipt" for span in payload["spans"])

    def test_decompose_profile_out_writes_a_profile(self, tmp_path, capsys):
        profile_path = tmp_path / "decompose.json"
        code = main(["decompose", "--dataset", "it", "--scale", "0.1",
                     "--seed", "1", "--profile-out", str(profile_path),
                     "--profile-interval-ms", "1"])
        assert code == 0
        captured = capsys.readouterr()
        summary = json.loads(captured.out)
        assert summary["algorithm"] == "RECEIPT"
        assert "profile written to" in captured.err
        payload = json.loads(profile_path.read_text())
        assert payload["profile"] == "sampling"
        assert payload["interval_seconds"] == pytest.approx(0.001)

    def test_decompose_profile_out_folded_text(self, tmp_path, capsys):
        profile_path = tmp_path / "decompose.folded"
        code = main(["decompose", "--dataset", "it", "--scale", "0.1",
                     "--seed", "1", "--profile-out", str(profile_path),
                     "--profile-interval-ms", "1"])
        assert code == 0
        capsys.readouterr()
        text = profile_path.read_text()
        for line in text.strip().splitlines():
            _stack, count = line.rsplit(" ", 1)
            assert int(count) >= 1

    def test_compare_trace_out_covers_both_runs(self, tmp_path, capsys):
        trace_path = tmp_path / "compare.json"
        code = main(["compare", "--dataset", "it", "--scale", "0.05",
                     "--seed", "1", "--first", "receipt", "--second", "bup",
                     "--trace-out", str(trace_path)])
        assert code == 0
        capsys.readouterr()
        payload = json.loads(trace_path.read_text())
        roots = [span["name"] for span in payload["spans"]
                 if span["parent"] is None]
        # One trace, two algorithm roots: the comparison itself is traced.
        assert "receipt" in roots and "bup" in roots

    def test_update_trace_out_records_streaming_phases(self, tmp_path, capsys):
        artifact = tmp_path / "upd.tipidx"
        assert main(["build-index", "--dataset", "it", "--scale", "0.05",
                     "--seed", "1", "--output", str(artifact)]) == 0
        trace_path = tmp_path / "update.json"
        code = main(["update", str(artifact), "--delete", "0:1",
                     "--trace-out", str(trace_path)])
        assert code == 0
        capsys.readouterr()
        payload = json.loads(trace_path.read_text())
        names = {span["name"] for span in payload["spans"]}
        assert "streaming.update" in names

        # trace-summary surfaces the streaming repair phases, not just the
        # decomposition's CD/FD split.
        code = main(["trace-summary", str(trace_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "streaming.update" in out
        assert "phase breakdown" in out

    def test_trace_summary_dedupes_repeated_roots(self, tmp_path, capsys):
        # A serve-session trace holds one root per applied batch; the
        # summary folds them into "name ×N" instead of an endless list.
        from repro.obs.report import write_trace
        from repro.obs.trace import Tracer

        tracer = Tracer()
        for _ in range(3):
            with tracer.span("streaming.update"):
                with tracer.span("streaming.support_delta"):
                    pass
        path = tmp_path / "serve.json"
        write_trace(tracer, str(path))
        assert main(["trace-summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "streaming.update ×3" in out
        assert "streaming.support_delta" in out
