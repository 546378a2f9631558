"""The route table: one declarative list the service and the front end share.

``TipService.handle`` dispatches from :data:`ROUTES`, and the HTTP front end
runs each row the way its ``execution`` says: inline on the event loop, on
an executor thread, through the point-θ coalescer, or through update
admission control.  An AST scan keeps route names out of the front end.
"""

from __future__ import annotations

import ast
import http.client
import json
import threading
from pathlib import Path

import pytest

from repro.core.receipt import tip_decomposition
from repro.datasets.generators import planted_blocks
from repro.errors import ServiceError
from repro.service.artifacts import save_artifact
from repro.service.aserver import start_server_thread
from repro.service.server import (
    DIAGNOSTIC_ENDPOINTS,
    ENDPOINTS,
    ROUTE_TABLE,
    ROUTES,
    TipService,
)

ASERVER = Path(__file__).resolve().parents[1] / "src" / "repro" / "service" / "aserver.py"

#: The paths the front end owns: the Prometheus scrape, the cached bare
#: ``/stats`` and NDJSON bulk lookups.
TRANSPORT_PATHS = {"/metrics", "/stats", "/theta/batch"}

#: The event-loop thread of :func:`start_server_thread`.
LOOP_THREAD = "tip-aserver"


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    graph = planted_blocks(40, 25, [(8, 6), (6, 4)], background_edges=50, seed=3)
    result = tip_decomposition(graph, "U", algorithm="receipt", n_partitions=4)
    path = tmp_path_factory.mktemp("routes") / "blocks.tipidx"
    save_artifact(path, graph, result)
    return path


def _request(address, method, target, body=None):
    connection = http.client.HTTPConnection(*address, timeout=30)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, target, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class TestRouteTable:
    def test_handlers_resolve_and_paths_are_unique(self):
        assert len(ROUTE_TABLE) == len(ROUTES)
        for route in ROUTES:
            assert callable(getattr(TipService, route.handler)), route
            assert route.path.startswith("/") and route.path == route.path.rstrip("/")
            assert route.execution in ("inline", "executor", "coalesced", "admitted")
            assert ROUTE_TABLE[route.path] is route

    def test_endpoint_lists_keep_their_values_and_order(self):
        assert ENDPOINTS == ("/healthz", "/stats", "/theta", "/theta/batch",
                             "/top-k", "/k-tip", "/community", "/update")
        assert DIAGNOSTIC_ENDPOINTS == (
            "/slo", "/debug/memory", "/debug/profile", "/replication/status",
            "/replication/log", "/replication/apply", "/replication/snapshot")

    def test_unknown_route_lists_the_table(self, artifact):
        service = TipService([artifact])
        with pytest.raises(ServiceError) as excinfo:
            service.handle("/nope")
        assert excinfo.value.status == 404
        assert str(excinfo.value) == (
            f"unknown route '/nope'; endpoints: {', '.join(ENDPOINTS)}; "
            f"diagnostics: {', '.join(DIAGNOSTIC_ENDPOINTS)}")

    def test_front_end_names_only_transport_paths(self):
        """Routes are named in the table; the front end reads it.

        Fails on any route-like string literal in ``service/aserver.py``
        (docstrings aside) other than the paths the transport owns.
        """
        tree = ast.parse(ASERVER.read_text(encoding="utf-8"))
        docstrings = {
            id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
        }
        literals = [
            (node.lineno, node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docstrings
            and node.value.startswith("/") and node.value[1:2].isalpha()
        ]
        assert literals, "the scan found no path literal at all"
        assert {value for _, value in literals} <= TRANSPORT_PATHS, literals


class TestExecutionClasses:
    """Each row runs where its ``execution`` says."""

    @pytest.mark.parametrize("route", ROUTES, ids=[route.path for route in ROUTES])
    def test_execution_class_is_honoured(self, artifact, route):
        service = TipService([artifact])
        original = service.handle
        threads: list[str] = []
        entered, release = threading.Event(), threading.Event()

        def recording(path, params=None, body=None):
            if path == route.path:
                threads.append(threading.current_thread().name)
                if route.execution == "executor":
                    entered.set()
                    release.wait(timeout=30)
            return original(path, params, body)

        service.handle = recording
        handle = start_server_thread(service=service, stats_cache_seconds=0.0)
        try:
            address = handle.address
            if route.execution == "coalesced":
                assert _request(address, "GET", f"{route.path}?vertex=1")[0] == 200
                coalescer = handle.server.coalescer.metrics()
                assert coalescer["requests_coalesced"] == 1
                assert threads == []  # answered by the vectorized gather
            elif route.execution == "admitted":
                status, _ = _request(address, "POST", route.path, b"{}")
                assert status == 400  # no edges: admitted, then refused
                assert handle.server.admission.metrics()["admitted"] == 1
                assert threads and threads[0].startswith("tip-writer")
            elif route.execution == "executor":
                answers = []
                blocked = threading.Thread(target=lambda: answers.append(
                    _request(address, "GET", route.path)))
                blocked.start()
                try:
                    assert entered.wait(timeout=10)
                    # The blocked route holds a worker thread, not the loop.
                    status, body = _request(address, "GET", "/healthz")
                    assert status == 200 and json.loads(body)["status"] == "ok"
                    assert not release.is_set()
                finally:
                    release.set()
                    blocked.join(timeout=30)
                assert answers and threads[0] != LOOP_THREAD
            else:
                _request(address, "GET", route.path)
                assert threads == [LOOP_THREAD]
        finally:
            release.set()
            handle.stop()
