"""Deep diagnostics, offline and served: /slo, /debug/memory, /debug/profile."""

from __future__ import annotations

import json
import logging
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.receipt import tip_decomposition
from repro.datasets.generators import planted_blocks
from repro.errors import ServiceError
from repro.service.aserver import start_server_thread
from repro.service.artifacts import save_artifact
from repro.service.server import (
    DIAGNOSTIC_ENDPOINTS,
    DOCUMENTED_METRICS,
    ENDPOINTS,
    TipService,
    to_jsonable,
)


@pytest.fixture(autouse=True)
def _reset_repro_logging():
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
    path = tmp_path_factory.mktemp("diag") / "blocks.tipidx"
    save_artifact(path, graph, result)
    return path


@pytest.fixture()
def service(artifact):
    return TipService([artifact])


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.read()


class TestSloEndpoint:
    def test_payload_shape(self, service):
        payload = service.handle("/slo")
        assert payload["status"] in ("ok", "degraded")
        names = [entry["name"] for entry in payload["objectives"]]
        assert names == ["request-latency", "availability",
                         "artifact-staleness", "breaker-open"]
        for entry in payload["objectives"]:
            assert entry["state"] in ("ok", "breached", "no_data")
            assert entry["burn_rate"] >= 0.0

    def test_fresh_artifact_is_not_degraded(self, service):
        payload = service.handle("/slo")
        assert payload["status"] == "ok"
        staleness = next(entry for entry in payload["objectives"]
                         if entry["kind"] == "staleness")
        # The artifact was just built: staleness is seconds, not hours.
        assert staleness["state"] == "ok"
        assert staleness["staleness_seconds"] < 3600

    def test_cached_requires_a_prior_evaluation(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.handle("/slo", {"cached": "1"})
        assert excinfo.value.status == 404
        live = service.handle("/slo")
        assert service.handle("/slo", {"cached": "1"}) is live

    def test_healthz_carries_slo_status(self, service):
        payload = service.handle("/healthz")
        assert payload == {"status": "ok", "artifacts": service.artifact_names}

    def test_healthz_degrades_on_breach(self, artifact):
        from repro.obs.slo import Objective, SloMonitor

        service = TipService([artifact])
        # Replace the staleness promise with an impossible one: any
        # artifact older than a millisecond is in breach.
        service.slo = SloMonitor(
            latency_source=service._latency_counts,
            availability_source=service._availability_counts,
            staleness_source=service._worst_staleness,
            objectives=(Objective(name="instant", kind="staleness",
                                  description="impossibly fresh",
                                  threshold_seconds=0.001),),
        )
        assert service.handle("/healthz")["status"] == "degraded"
        assert service.handle("/slo")["status"] == "degraded"


class TestSloScope:
    """SLO objectives cover the serving API, not the operator plane."""

    def test_slow_profile_request_does_not_burn_the_latency_slo(self, service):
        # /debug/profile?seconds=N blocks for N seconds by design;
        # profiling a healthy instance must not degrade it.
        service.observe_request("async", "/theta", 200, 0.01)
        service.observe_request("async", "/debug/profile", 200, 5.0)
        payload = service.handle("/slo")
        latency = next(entry for entry in payload["objectives"]
                       if entry["kind"] == "latency")
        assert latency["state"] == "ok"
        assert latency["burn_rate"] == 0.0
        assert service.handle("/healthz")["status"] == "ok"

    def test_diagnostic_5xx_does_not_burn_availability(self, service):
        service.observe_request("async", "/theta", 200, 0.01)
        service.observe_request("async", "/debug/memory", 500, 0.01)
        payload = service.handle("/slo")
        availability = next(entry for entry in payload["objectives"]
                            if entry["kind"] == "availability")
        assert availability["state"] == "ok"
        assert availability["burn_rate"] == 0.0


class TestMemoryEndpoint:
    def test_payload_joins_sources_and_artifacts(self, service):
        payload = service.handle("/debug/memory")
        assert set(payload) == {"process", "tracemalloc", "workspaces",
                                "shm", "artifacts"}
        assert payload["process"]["rss_bytes"] > 0
        entry = payload["artifacts"][service.artifact_names[0]]
        assert entry["array_bytes"] > 0
        assert entry["loaded"] is False  # nothing queried yet: no index load
        assert entry["peak_scratch_bytes"] > 0  # from the build counters

    def test_loaded_flag_follows_the_cache(self, service):
        service.handle("/theta", {"vertex": "0"})
        payload = service.handle("/debug/memory")
        name = service.artifact_names[0]
        assert payload["artifacts"][name]["loaded"] is True

    def test_cached_returns_stored_snapshot(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.handle("/debug/memory", {"cached": "1"})
        assert excinfo.value.status == 404
        live = service.handle("/debug/memory")
        assert service.handle("/debug/memory", {"cached": "1"}) is live

    def test_top_param_validated(self, service):
        with pytest.raises(ServiceError):
            service.handle("/debug/memory", {"top": "many"})


class TestProfileEndpoint:
    def test_on_demand_profile(self, service):
        payload = service.handle("/debug/profile",
                                 {"seconds": "0.05", "interval_ms": "1"})
        assert payload["profile"] == "sampling"
        assert payload["duration_seconds"] >= 0.05
        assert payload["samples"] >= 1

    def test_last_returns_stored_profile(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.handle("/debug/profile", {"last": "1"})
        assert excinfo.value.status == 404
        live = service.handle("/debug/profile", {"seconds": "0.02"})
        assert service.handle("/debug/profile", {"last": "1"}) is live

    def test_duration_cap_is_a_400(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.handle("/debug/profile", {"seconds": "3600"})
        assert excinfo.value.status == 400

    def test_bad_params_are_a_400(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.handle("/debug/profile", {"seconds": "soon"})
        assert excinfo.value.status == 400

    def test_busy_slot_is_a_409(self, service):
        from repro.obs.profile import acquire_profile_slot

        with acquire_profile_slot():
            with pytest.raises(ServiceError) as excinfo:
                service.handle("/debug/profile", {"seconds": "0.01"})
        assert excinfo.value.status == 409


class TestRouting:
    def test_diagnostics_are_not_json_api_endpoints(self):
        # bench_serving's byte-identity harness and the 404 contract both
        # enumerate ENDPOINTS; diagnostics live in their own tuple.
        assert not set(DIAGNOSTIC_ENDPOINTS) & set(ENDPOINTS)
        assert DIAGNOSTIC_ENDPOINTS == (
            "/slo", "/debug/memory", "/debug/profile",
            "/replication/status", "/replication/log", "/replication/apply",
            "/replication/snapshot")

    def test_slo_and_memory_metric_families_documented(self):
        for name in ("repro_slo_burn_rate", "repro_slo_ok",
                     "repro_memory_rss_bytes", "repro_memory_workspace_bytes",
                     "repro_memory_shm_bytes", "repro_memory_artifact_bytes",
                     "repro_memory_tracemalloc_bytes"):
            assert name in DOCUMENTED_METRICS, name

    def test_metrics_scrape_carries_slo_and_memory_gauges(self, service):
        text = service.metrics_text()
        assert 'repro_slo_burn_rate{objective="availability"}' in text
        assert 'repro_slo_ok{objective="request-latency"}' in text
        assert "repro_memory_rss_bytes" in text
        for line in text.splitlines():
            if line.startswith("repro_memory_rss_bytes"):
                assert float(line.rsplit(" ", 1)[1]) > 0


class TestTransportParity:
    """Served diagnostics answer byte-identically to offline ``handle()``."""

    @pytest.fixture()
    def both(self, artifact):
        service = TipService([artifact])
        handle = start_server_thread(service=service)
        yield service, handle.base_url
        handle.stop()

    def test_diagnostics_byte_identical_across_transports(self, both):
        service, base = both
        # Prime each diagnostic once; the cached/last variants then return
        # the same stored object over HTTP and through handle().
        _get(f"{base}/slo")
        _get(f"{base}/debug/memory")
        _get(f"{base}/debug/profile?seconds=0.05&interval_ms=1")
        for route, params in (("/slo", {"cached": "1"}),
                              ("/debug/memory", {"cached": "1"}),
                              ("/debug/profile", {"last": "1"})):
            query = "&".join(f"{key}={value}" for key, value in params.items())
            status, body = _get(f"{base}{route}?{query}")
            assert status == 200
            offline = json.dumps(to_jsonable(service.handle(route, params)))
            assert body == offline.encode(), route

    def test_healthz_bodies_match(self, both):
        service, base = both
        offline = json.dumps(to_jsonable(service.handle("/healthz")))
        assert _get(f"{base}/healthz")[1] == offline.encode()

    def test_profile_runs_off_the_event_loop(self, both):
        # A profile request must not freeze the event loop: point queries
        # issued while it samples still answer promptly.
        _, asynchronous = both
        result = {}

        def profile():
            result["profile"] = _get(
                f"{asynchronous}/debug/profile?seconds=0.5&interval_ms=2")

        worker = threading.Thread(target=profile)
        worker.start()
        status, body = _get(f"{asynchronous}/theta?vertex=0")
        assert status == 200 and json.loads(body)["vertex"] == 0
        worker.join(timeout=10.0)
        assert result["profile"][0] == 200
        payload = json.loads(result["profile"][1])
        assert payload["duration_seconds"] >= 0.5

    def test_unknown_route_names_the_diagnostics(self, both):
        _, base = both
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{base}/debug/nope", timeout=10)
        assert excinfo.value.code == 404
        message = json.loads(excinfo.value.read())["error"]
        for route in DIAGNOSTIC_ENDPOINTS:
            assert route in message
