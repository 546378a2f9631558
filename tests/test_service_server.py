"""HTTP serving tests: every endpoint, error surfaces, offline parity."""

from __future__ import annotations

import json
import os
import re
import select
import signal
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.core.receipt import tip_decomposition
from repro.datasets.generators import planted_blocks
from repro.errors import ServiceError
from repro.service.artifacts import load_artifact, save_artifact
from repro.service.index import TipIndex
from repro.service.aserver import start_server_thread
from repro.service.server import ENDPOINTS, TipService


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    graph = planted_blocks(40, 25, [(8, 6), (6, 4)], background_edges=50, seed=3)
    result = tip_decomposition(graph, "U", algorithm="receipt", n_partitions=4)
    path = tmp_path_factory.mktemp("serve") / "blocks.tipidx"
    save_artifact(path, graph, result)
    return path, result


@pytest.fixture(scope="module")
def base_url(artifact):
    path, _ = artifact
    handle = start_server_thread([path])
    yield handle.base_url
    handle.stop()


def _get(base_url, path):
    with urllib.request.urlopen(base_url + path, timeout=10) as response:
        return response.status, json.loads(response.read())


def _post(base_url, path, payload):
    request = urllib.request.Request(
        base_url + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


class TestEndpoints:
    def test_healthz(self, base_url):
        status, payload = _get(base_url, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["artifacts"] == ["planted-blocks.U"]

    def test_stats_reports_cache_and_artifacts(self, base_url):
        status, payload = _get(base_url, "/stats")
        assert status == 200
        summary = payload["artifacts"]["planted-blocks.U"]
        assert summary["n_vertices"] == 40
        assert "hits" in payload["cache"]
        assert payload["requests"]["/stats"] >= 1

    def test_theta_point(self, base_url, artifact):
        _, result = artifact
        status, payload = _get(base_url, "/theta?vertex=7")
        assert status == 200
        assert payload == {"vertex": 7, "theta": int(result.tip_numbers[7])}

    def test_theta_batch_get_and_post_agree(self, base_url, artifact):
        _, result = artifact
        vertices = [0, 3, 9, 21]
        status_get, via_get = _get(
            base_url, "/theta/batch?vertices=" + ",".join(map(str, vertices)))
        status_post, via_post = _post(base_url, "/theta/batch", {"vertices": vertices})
        assert status_get == status_post == 200
        assert via_get == via_post
        assert via_get["thetas"] == [int(result.tip_numbers[v]) for v in vertices]

    def test_top_k(self, base_url, artifact):
        _, result = artifact
        status, payload = _get(base_url, "/top-k?k=5")
        assert status == 200
        expected = sorted(range(result.n_vertices),
                          key=lambda v: (-int(result.tip_numbers[v]), v))[:5]
        assert payload["vertices"] == expected

    def test_k_tip_with_limit(self, base_url, artifact):
        _, result = artifact
        k = max(1, result.max_tip_number // 2)
        status, payload = _get(base_url, f"/k-tip?k={k}&limit=3")
        assert status == 200
        expected = result.vertices_with_tip_at_least(k)
        assert payload["size"] == expected.size
        assert payload["vertices"] == expected[:3].tolist()
        assert payload["truncated"] == (expected.size > 3)

    def test_community(self, base_url, artifact):
        _, result = artifact
        k = result.max_tip_number
        status, payload = _get(base_url, f"/community?k={k}")
        assert status == 200
        assert payload["n_communities"] >= 1
        members = {v for community in payload["communities"] for v in community}
        assert members == set(result.vertices_with_tip_at_least(k).tolist())


class TestErrors:
    def _error(self, base_url, path):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base_url, path)
        return excinfo.value.code, json.loads(excinfo.value.read())

    def test_unknown_route_404(self, base_url):
        code, payload = self._error(base_url, "/not-an-endpoint")
        assert code == 404
        for endpoint in ENDPOINTS:
            assert endpoint in payload["error"]

    def test_out_of_range_vertex_400(self, base_url):
        code, payload = self._error(base_url, "/theta?vertex=100000")
        assert code == 400
        assert "out of range" in payload["error"]

    def test_missing_parameter_400(self, base_url):
        code, payload = self._error(base_url, "/top-k")
        assert code == 400
        assert "k" in payload["error"]

    def test_non_integer_parameter_400(self, base_url):
        code, _ = self._error(base_url, "/theta?vertex=abc")
        assert code == 400

    def test_unknown_artifact_404(self, base_url):
        code, payload = self._error(base_url, "/theta?vertex=1&artifact=ghost")
        assert code == 404
        assert "unknown artifact" in payload["error"]

    def test_float_and_bool_vertices_rejected_not_truncated(self, base_url, artifact):
        path, _ = artifact
        service = TipService([path])
        for bad in ([3.7], [True], ["2.5"]):
            with pytest.raises(ServiceError, match="integers"):
                service.handle("/theta/batch", {}, {"vertices": bad})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base_url, "/theta/batch", {"vertices": [1.5]})
        assert excinfo.value.code == 400

    def test_stats_answers_from_manifest_without_loading(self, artifact):
        path, _ = artifact
        service = TipService([path])
        payload = service.handle("/stats")
        summary = payload["artifacts"]["planted-blocks.U"]
        assert summary["loaded"] is False  # no index load happened
        assert summary["n_vertices"] == 40
        assert payload["cache"]["misses"] == 0
        # A real query loads it; /stats then reports it as live.
        service.handle("/theta", {"vertex": "0"})
        assert service.handle("/stats")["artifacts"]["planted-blocks.U"]["loaded"] is True

    def test_oversized_batch_400(self, artifact, monkeypatch):
        import repro.service.server as server_module

        path, _ = artifact
        service = TipService([path])
        monkeypatch.setattr(server_module, "MAX_RESPONSE_VERTICES", 3)
        with pytest.raises(ServiceError, match="per-request cap"):
            service.handle("/theta/batch", {"vertices": "0,1,2,3"})

    def test_oversized_post_body_413(self, base_url):
        request = urllib.request.Request(
            base_url + "/theta/batch",
            data=b"x" * 16,
            headers={"Content-Length": str(64 * 1024 * 1024)},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 413

    def test_negative_limit_400(self, base_url):
        code, payload = self._error(base_url, "/k-tip?k=0&limit=-5")
        assert code == 400
        assert "non-negative" in payload["error"]

    def test_top_k_above_response_cap_400(self, base_url):
        code, payload = self._error(base_url, "/top-k?k=2000000000")
        assert code == 400
        assert "capped" in payload["error"]

    def test_invalid_json_body_400(self, base_url):
        request = urllib.request.Request(
            base_url + "/theta/batch", data=b"{broken", method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400


class TestOfflineParity:
    """`repro query` answers must equal the HTTP API's byte for byte."""

    def test_service_handle_matches_http(self, base_url, artifact):
        path, _ = artifact
        offline = TipService([path])
        for route in ("/healthz", "/theta?vertex=5", "/top-k?k=4", "/k-tip?k=1",
                      "/theta/batch?vertices=1,2,3"):
            bare, _, query = route.partition("?")
            params = dict(pair.split("=") for pair in query.split("&")) if query else {}
            _, via_http = _get(base_url, route)
            via_offline = json.loads(json.dumps(
                offline.handle(bare, params), default=_jsonable_default))
            assert via_offline == via_http, route

    def test_index_queries_match_server(self, base_url, artifact):
        path, _ = artifact
        index = TipIndex.from_artifact(load_artifact(path))
        _, payload = _get(base_url, "/theta/batch?vertices=0,1,2,3,4")
        assert payload["thetas"] == index.theta_batch([0, 1, 2, 3, 4]).tolist()


def _jsonable_default(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer, np.floating)):
        return value.item()
    raise TypeError(type(value))


class TestServiceConstruction:
    def test_multiple_artifacts_require_name(self, artifact, tmp_path):
        path, result = artifact
        graph = planted_blocks(40, 25, [(8, 6), (6, 4)], background_edges=50, seed=3)
        second = tmp_path / "again.tipidx"
        save_artifact(second, graph, result)
        service = TipService([path, second])
        assert len(service.artifact_names) == 2
        with pytest.raises(ServiceError, match="multiple artifacts"):
            service.handle("/theta", {"vertex": "1"})
        payload = service.handle(
            "/theta", {"vertex": "1", "artifact": service.artifact_names[0]})
        assert payload["vertex"] == 1

    def test_empty_artifact_list_rejected(self):
        with pytest.raises(ServiceError, match="no artifacts"):
            TipService([])

    def test_community_candidate_cap(self, artifact, monkeypatch):
        import repro.service.server as server_module

        path, _ = artifact
        service = TipService([path])
        monkeypatch.setattr(server_module, "MAX_COMMUNITY_VERTICES", 2)
        with pytest.raises(ServiceError, match="capped"):
            service.handle("/community", {"k": "0"})

    def test_stats_histogram_flag_parsing(self, artifact):
        path, _ = artifact
        service = TipService([path])
        name = service.artifact_names[0]
        with_flag = service.handle("/stats", {"histogram": "1"})
        assert "histogram" in with_flag["artifacts"][name]
        for off in ({}, {"histogram": "0"}, {"histogram": "false"}):
            payload = service.handle("/stats", dict(off))
            assert "histogram" not in payload["artifacts"][name]


class TestServeCommand:
    """``repro serve`` itself, as a process: it binds, answers, and exits on SIGINT."""

    def test_serve_answers_and_exits_cleanly_on_sigint(self, artifact, tmp_path):
        path, _ = artifact
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(path), "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, cwd=tmp_path, env=env)
        try:
            ready, _, _ = select.select([process.stdout], [], [], 30)
            assert ready, "repro serve printed no address within 30 s"
            banner = process.stdout.readline().decode()
            match = re.search(r"http://[0-9.]+:[0-9]+", banner)
            assert match, banner
            url = match.group(0)
            status, payload = _get(url, "/healthz")
            assert status == 200 and payload["status"] == "ok"
            with urllib.request.urlopen(url + "/metrics", timeout=10) as response:
                text = response.read().decode()
            assert "# TYPE repro_http_requests_total counter" in text
            process.send_signal(signal.SIGINT)
            assert process.wait(timeout=15) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=15)
            process.stdout.close()
