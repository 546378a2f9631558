"""HTTP front-end tests: byte parity, keep-alive, pipelining, admission.

The served answers must be indistinguishable from the offline
``TipService.handle`` ones at the byte level (same JSON, same status
codes, same error text); on top of that the front end speaks persistent
pipelined connections, NDJSON bulk lookups and admission-controlled
updates, and its hand-rolled HTTP/1.1 parser survives fuzzed bytes.
"""

from __future__ import annotations

import http.client
import json
import re
import shutil
import socket
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.receipt import tip_decomposition
from repro.datasets.generators import planted_blocks
from repro.errors import ServiceError
from repro.service import aserver
from repro.service.artifacts import save_artifact
from repro.service.aserver import start_server_thread
from repro.service.server import TipService, error_payload, parse_post_body, to_jsonable

N_U = 40


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    graph = planted_blocks(N_U, 25, [(8, 6), (6, 4)], background_edges=50, seed=3)
    result = tip_decomposition(graph, "U", algorithm="receipt", n_partitions=4)
    path = tmp_path_factory.mktemp("aserve") / "blocks.tipidx"
    save_artifact(path, graph, result)
    return path, graph, result


@pytest.fixture(scope="module")
def async_server(artifact):
    path, _, _ = artifact
    handle = start_server_thread([path])
    yield handle
    handle.stop()


def _raw_request(host, port, method, target, body=None, content_type=None):
    """One request over a fresh connection: (status, headers, raw body bytes)."""
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        headers = {}
        if content_type:
            headers["Content-Type"] = content_type
        connection.request(method, target, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


def _offline_answer(service, method, target, body):
    """(status, body bytes) of one request answered by ``TipService.handle``."""
    bare, _, query = target.partition("?")
    params = dict(pair.split("=") for pair in query.split("&")) if query else {}
    try:
        payload = service.handle(
            bare, params, parse_post_body(body) if method == "POST" else None)
    except ServiceError as error:
        return error.status, json.dumps(to_jsonable(error_payload(error))).encode()
    return 200, json.dumps(to_jsonable(payload)).encode()


class TestTransportParity:
    ROUTES = [
        ("GET", "/healthz", None, None),
        ("GET", "/theta?vertex=7", None, None),
        ("GET", "/theta?vertex=0", None, None),
        ("GET", "/theta?vertex=100000", None, None),   # 400: out of range
        ("GET", "/theta?vertex=abc", None, None),      # 400: not an integer
        ("GET", "/theta", None, None),                 # 400: missing param
        ("GET", "/theta?vertex=1&artifact=ghost", None, None),  # 404
        ("GET", "/theta/batch?vertices=0,3,9,21", None, None),
        ("GET", "/top-k?k=5", None, None),
        ("GET", "/k-tip?k=1&limit=3", None, None),
        ("GET", "/community?k=75", None, None),
        ("GET", "/not-an-endpoint", None, None),       # 404
        ("POST", "/theta/batch", b'{"vertices": [1, 2, 3]}', "application/json"),
        ("POST", "/theta/batch", b"{broken", "application/json"),  # 400
        ("POST", "/theta/batch", b'["not", "an", "object"]', "application/json"),
    ]

    def test_every_route_is_byte_identical_across_transports(
            self, async_server, artifact):
        """Served bytes equal the offline ``repro query`` path's rendering."""
        path, _, _ = artifact
        offline = TipService([path])
        host, port = async_server.address
        for method, target, body, content_type in self.ROUTES:
            status, _, served = _raw_request(
                host, port, method, target, body, content_type)
            assert (status, served) == _offline_answer(
                offline, method, target, body), (method, target)

    def test_point_theta_matches_ground_truth(self, async_server, artifact):
        _, _, result = artifact
        host, port = async_server.address
        status, _, body = _raw_request(host, port, "GET", "/theta?vertex=7")
        assert status == 200
        assert json.loads(body) == {"vertex": 7, "theta": int(result.tip_numbers[7])}

    def test_structured_400_body_on_malformed_json(self, async_server):
        host, port = async_server.address
        status, _, body = _raw_request(
            host, port, "POST", "/theta/batch", b"{broken", "application/json")
        assert status == 400
        payload = json.loads(body)
        assert payload["status"] == 400
        assert "not valid JSON" in payload["error"]


class TestPersistentConnections:
    def test_keep_alive_reuses_one_connection(self, async_server):
        host, port = async_server.address
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            bodies = []
            for vertex in (1, 2, 3):
                connection.request("GET", f"/theta?vertex={vertex}")
                response = connection.getresponse()
                assert response.version == 11
                assert response.getheader("Connection") != "close"
                bodies.append(json.loads(response.read()))
            assert [b["vertex"] for b in bodies] == [1, 2, 3]
        finally:
            connection.close()

    def test_http_10_client_gets_connection_closed(self, async_server):
        host, port = async_server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
            raw = b""
            sock.settimeout(10)
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"200 OK" in head.split(b"\r\n", 1)[0]
        assert b"Connection: close" in head
        assert json.loads(body)["status"] == "ok"

    def test_pipelined_burst_answers_in_order_and_coalesces(self, artifact):
        path, _, result = artifact
        handle = start_server_thread([path])
        try:
            host, port = handle.address
            vertices = [5, 11, 0, 17, 8, 23]
            burst = b"".join(
                f"GET /theta?vertex={v} HTTP/1.1\r\nHost: x\r\n\r\n".encode()
                for v in vertices)
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(burst)
                reader = _ResponseReader(sock)
                payloads = [reader.read_response()[1] for _ in vertices]
            assert [json.loads(p)["vertex"] for p in payloads] == vertices
            assert [json.loads(p)["theta"] for p in payloads] == [
                int(result.tip_numbers[v]) for v in vertices]
            metrics = handle.server.coalescer.metrics()
            # The whole burst arrives in one read: one flush, one gather.
            assert metrics["largest_batch"] == len(vertices)
            assert metrics["requests_coalesced"] == len(vertices)
        finally:
            handle.stop()


class _ResponseReader:
    """Parse HTTP/1.1 responses off a raw socket, buffering across reads.

    Pipelined responses arrive batched in a single ``recv``; the buffer
    carries the tail of one read into the next response.
    """

    def __init__(self, sock):
        self._sock = sock
        self._buffer = b""

    def _fill(self):
        chunk = self._sock.recv(65536)
        if not chunk:
            raise ConnectionError("peer closed mid-response")
        self._buffer += chunk

    def read_response(self):
        while b"\r\n\r\n" not in self._buffer:
            self._fill()
        head, _, self._buffer = self._buffer.partition(b"\r\n\r\n")
        status_line = head.split(b"\r\n", 1)[0].decode()
        length = None
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.decode().partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        assert length is not None, "every response must carry Content-Length"
        while len(self._buffer) < length:
            self._fill()
        body, self._buffer = self._buffer[:length], self._buffer[length:]
        return status_line, body


class TestNdjsonBulk:
    def test_bulk_lines_match_individual_batches(self, async_server, artifact):
        path, _, _ = artifact
        host, port = async_server.address
        lines = b'{"vertices": [0, 1, 2]}\n[3, 4]\n{"vertices": [100000]}\n'
        status, headers, body = _raw_request(
            host, port, "POST", "/theta/batch", lines, "application/x-ndjson")
        assert status == 200
        assert headers.get("Content-Type") == "application/x-ndjson"
        answers = [json.loads(line) for line in body.strip().split(b"\n")]
        offline = TipService([path])
        assert answers[0] == json.loads(json.dumps(to_jsonable(
            offline.handle("/theta/batch", {}, {"vertices": [0, 1, 2]}))))
        assert answers[1]["thetas"] == json.loads(json.dumps(to_jsonable(
            offline.handle("/theta/batch", {}, {"vertices": [3, 4]}))))["thetas"]
        assert answers[2]["status"] == 400
        assert "out of range" in answers[2]["error"]

    def test_invalid_lines_answer_in_band(self, async_server):
        host, port = async_server.address
        lines = b'{broken\n"a string"\n{"vertices": [1]}\n'
        status, _, body = _raw_request(
            host, port, "POST", "/theta/batch", lines, "application/x-ndjson")
        assert status == 200
        answers = [json.loads(line) for line in body.strip().split(b"\n")]
        assert "not valid JSON" in answers[0]["error"]
        assert "object or array" in answers[1]["error"]
        assert answers[2]["thetas"]

    def test_empty_body_is_400(self, async_server):
        host, port = async_server.address
        status, _, body = _raw_request(
            host, port, "POST", "/theta/batch", b"", "application/x-ndjson")
        assert status == 400
        assert "no request lines" in json.loads(body)["error"]


class TestProtocolEdges:
    def test_unsupported_method_405(self, async_server):
        host, port = async_server.address
        status, _, body = _raw_request(host, port, "DELETE", "/healthz")
        assert status == 405
        assert "GET or POST" in json.loads(body)["error"]

    def test_oversized_body_413_and_close(self, async_server):
        host, port = async_server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                b"POST /theta/batch HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 67108864\r\n\r\n")
            status_line, body = _ResponseReader(sock).read_response()
            assert " 413 " in status_line
            assert json.loads(body)["status"] == 413
            # The unread body desyncs the stream; the server must close.
            sock.settimeout(10)
            assert sock.recv(1) == b""

    @pytest.mark.parametrize("length", ["-1", "+3", "1_0", "3x"])
    def test_non_digit_content_length_is_400_and_close(self, async_server, length):
        with socket.create_connection(async_server.address, timeout=10) as sock:
            sock.sendall(
                b"POST /theta/batch HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: %s\r\n\r\n[1]" % length.encode())
            status_line, body = _ResponseReader(sock).read_response()
            assert " 400 " in status_line
            assert "Content-Length" in json.loads(body)["error"]
            sock.settimeout(10)
            assert sock.recv(1) == b""

    def test_garbage_request_line_is_answered_not_fatal(self, async_server):
        host, port = async_server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"NOT A REQUEST\r\n\r\n")
            status_line, _ = _ResponseReader(sock).read_response()
            assert " 400 " in status_line
        # The server survives: a normal request still works.
        status, _, _ = _raw_request(host, port, "GET", "/healthz")
        assert status == 200


def _read_until_closed(sock) -> bytes:
    raw = b""
    while chunk := sock.recv(65536):
        raw += chunk
    return raw


class TestReadDeadlines:
    """Idle, header and body deadlines, shortened here."""

    DEADLINE = 0.3

    @pytest.fixture
    def server(self, artifact, monkeypatch):
        monkeypatch.setattr(aserver, "_IDLE_TIMEOUT_SECONDS", self.DEADLINE)
        monkeypatch.setattr(aserver, "_HEADER_TIMEOUT_SECONDS", self.DEADLINE)
        handle = start_server_thread([artifact[0]])
        yield handle
        handle.stop()

    def _counted(self, handle, route, status):
        key = (f'repro_http_requests_total{{transport="async",route="{route}",'
               f'status="{status}"}} ')
        text = handle.service.metrics_text()
        return sum(int(float(line[len(key):])) for line in text.splitlines()
                   if line.startswith(key))

    def test_silent_connection_is_closed(self, server):
        with socket.create_connection(server.address, timeout=10) as sock:
            started = time.monotonic()
            assert sock.recv(1) == b""  # closed without an answer
            assert time.monotonic() - started < 5.0
        deadline = time.monotonic() + 5.0
        while server.server._connections and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not server.server._connections

    @pytest.mark.parametrize("partial, route", [
        (b"GET /healthz HTTP/1.1\r\nHost: x\r\n", "/healthz"),
        (b"GET /heal", "<unknown>"),
    ], ids=["half-header-block", "half-request-line"])
    def test_incomplete_head_gets_408_and_close(self, server, partial, route):
        with socket.create_connection(server.address, timeout=10) as sock:
            sock.sendall(partial)
            raw = _read_until_closed(sock)
        assert raw.startswith(b"HTTP/1.1 408 Request Timeout\r\n")
        assert b"Connection: close" in raw
        assert self._counted(server, route, 408) == 1

    def test_stalled_body_gets_408_and_close(self, server):
        # The body promises 10 bytes and 3 arrive: the deadline runs from the
        # end of the header block, then the connection is answered and gone.
        with socket.create_connection(server.address, timeout=10) as sock:
            sock.sendall(b"POST /theta/batch HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: 10\r\n\r\n[1,")
            raw = _read_until_closed(sock)
        assert raw.startswith(b"HTTP/1.1 408 Request Timeout\r\n")
        assert b"Connection: close" in raw
        assert b"request body not received" in raw
        assert self._counted(server, "/theta/batch", 408) == 1
        deadline = time.monotonic() + 5.0
        while server.server._connections and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not server.server._connections

    def test_idle_keep_alive_connection_answers_before_the_deadline(self, server):
        with socket.create_connection(server.address, timeout=10) as sock:
            reader = _ResponseReader(sock)
            for _ in range(3):
                sock.sendall(_get_request("/healthz"))
                assert " 200 " in reader.read_response()[0]
                time.sleep(self.DEADLINE / 6)

    def test_connection_awaiting_a_blocked_route_is_kept(self, artifact, monkeypatch):
        monkeypatch.setattr(aserver, "_IDLE_TIMEOUT_SECONDS", self.DEADLINE)
        monkeypatch.setattr(aserver, "_HEADER_TIMEOUT_SECONDS", self.DEADLINE)
        service = TipService([artifact[0]])
        original = service.handle
        entered, release = threading.Event(), threading.Event()

        def blocking(route, params=None, body=None):
            if route == "/debug/profile":  # an executor route
                entered.set()
                release.wait(timeout=30)
            return original(route, params, body)

        service.handle = blocking
        handle = start_server_thread(service=service)
        try:
            with socket.create_connection(handle.address, timeout=10) as sock:
                reader = _ResponseReader(sock)
                sock.sendall(_get_request("/debug/profile?last=1"))
                assert entered.wait(timeout=10)
                time.sleep(4 * self.DEADLINE)  # well past the idle deadline
                release.set()
                assert " 404 " in reader.read_response()[0]  # no profile yet
                sock.sendall(_get_request("/healthz"))  # still open
                assert " 200 " in reader.read_response()[0]
        finally:
            release.set()
            handle.stop()


class TestStatsAndMetrics:
    def test_stats_exposes_transport_metrics(self, async_server):
        host, port = async_server.address
        _raw_request(host, port, "GET", "/theta?vertex=1")
        status, _, body = _raw_request(host, port, "GET", "/stats?fresh=1")
        assert status == 200
        transport = json.loads(body)["transport"]
        assert transport["coalescer"]["requests_coalesced"] >= 1
        assert transport["coalescer"]["batches_flushed"] >= 1
        assert "admission_rejections" in transport["updates"]
        assert transport["updates"]["max_pending"] == 4

    def test_bare_stats_is_cached_and_fresh_bypasses(self, artifact):
        path, _, _ = artifact
        handle = start_server_thread([path], stats_cache_seconds=30.0)
        try:
            host, port = handle.address
            _, _, first = _raw_request(host, port, "GET", "/stats")
            _raw_request(host, port, "GET", "/theta?vertex=1")
            _, _, second = _raw_request(host, port, "GET", "/stats")
            assert first == second  # served from the hot cache
            _, _, fresh = _raw_request(host, port, "GET", "/stats?fresh=1")
            assert fresh != first   # bypass sees the newer request counters
            assert json.loads(fresh)["requests"]["/theta"] >= 1
        finally:
            handle.stop()

    def test_healthz_matches_offline_handle(self, async_server, artifact):
        path, _, _ = artifact
        host, port = async_server.address
        _, _, body = _raw_request(host, port, "GET", "/healthz")
        assert json.loads(body) == TipService([path]).handle("/healthz")


def _get_request(target: str) -> bytes:
    return f"GET {target} HTTP/1.1\r\nHost: fuzz\r\n\r\n".encode()


def _post_request(target: str, body: bytes, content_type: str) -> bytes:
    return (f"POST {target} HTTP/1.1\r\nHost: fuzz\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


_VERTICES = st.integers(-3, N_U + 3) | st.integers(-2**70, 2**70)

#: Well-framed read-only requests: valid routes with in- and out-of-range
#: arguments, plus arbitrary printable targets.
_READ_ONLY_REQUESTS = st.one_of(
    _VERTICES.map(lambda v: _get_request(f"/theta?vertex={v}")),
    st.lists(_VERTICES, max_size=4).map(lambda vs: _get_request(
        "/theta/batch?vertices=" + ",".join(map(str, vs)))),
    st.lists(_VERTICES, max_size=4).map(lambda vs: _post_request(
        "/theta/batch", json.dumps({"vertices": vs}).encode(), "application/json")),
    st.lists(st.lists(_VERTICES, max_size=3), min_size=1, max_size=3).map(
        lambda lines: _post_request(
            "/theta/batch", b"".join(json.dumps(line).encode() + b"\n" for line in lines),
            "application/x-ndjson")),
    st.integers(-3, 100).map(lambda k: _get_request(f"/top-k?k={k}")),
    st.integers(-3, 100).map(lambda k: _get_request(f"/k-tip?k={k}&limit=3")),
    st.integers(-3, 100).map(lambda k: _get_request(f"/community?k={k}")),
    st.sampled_from(["/healthz", "/stats", "/stats?fresh=1", "/metrics", "/slo"]).map(
        _get_request),
    st.text(st.characters(min_codepoint=33, max_codepoint=126), max_size=12).map(
        lambda path: _get_request("/" + path)),
)

_STATUS_LINE = re.compile(rb"HTTP/1\.1 [1-5][0-9]{2} [A-Za-z ]+")


@st.composite
def _write_splits(draw, payloads):
    """A payload cut at arbitrary points into separately written chunks."""
    payload = draw(payloads)
    cuts = sorted(draw(st.lists(st.integers(0, len(payload)), max_size=5)))
    bounds = [0, *cuts, len(payload)]
    return [payload[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]


def _exchange(address, chunks, *, half_close=True):
    """Write ``chunks``, half-close (unless told not to), read to EOF; parse
    every response.

    Returns ``[(status, head)]``.  Every response must open with a
    well-formed status line and carry its full ``Content-Length`` body.
    """
    raw = b""
    with socket.create_connection(address, timeout=10) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            for chunk in chunks:
                sock.sendall(chunk)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
        except OSError:  # EPIPE, ECONNRESET or ENOTCONN
            pass  # the server already answered and hung up (protocol error, HTTP/1.0)
        try:
            while chunk := sock.recv(65536):
                raw += chunk
        except ConnectionResetError:
            pass  # closed with our unread bytes pending; the reply came first
    responses = []
    while raw:
        head, separator, raw = raw.partition(b"\r\n\r\n")
        assert separator, f"truncated response head {head[:80]!r}"
        status_line, *header_lines = head.split(b"\r\n")
        assert _STATUS_LINE.fullmatch(status_line), status_line
        lengths = [int(line.split(b":", 1)[1]) for line in header_lines
                   if line.lower().startswith(b"content-length:")]
        assert len(lengths) == 1, head
        assert len(raw) >= lengths[0], "truncated response body"
        raw = raw[lengths[0]:]
        responses.append((int(status_line[9:12]), head))
    return responses


def _assert_still_serving(address):
    status, _, _ = _raw_request(*address, "GET", "/healthz")
    assert status == 200


class TestParserFuzz:
    """Hypothesis drives the hand-rolled HTTP/1.1 parser over a real socket."""

    FUZZ = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

    @FUZZ
    @given(chunks=_write_splits(st.binary(max_size=200) | st.builds(
        bytes.__add__,
        st.sampled_from([b"GET /healthz HTTP/1.1\r\n", b"GET / HTTP/1.0\r\n\r\n",
                         b"POST /theta/batch HTTP/1.1\r\nContent-Length: 9\r\n\r\n"]),
        st.binary(max_size=120))))
    def test_random_bytes(self, async_server, chunks):
        _exchange(async_server.address, chunks)
        _assert_still_serving(async_server.address)

    @FUZZ
    @given(requests=st.lists(_READ_ONLY_REQUESTS, min_size=1, max_size=6),
           data=st.data())
    def test_pipelined_read_only_mix(self, async_server, requests, data):
        chunks = data.draw(_write_splits(st.just(b"".join(requests))))
        responses = _exchange(async_server.address, chunks)
        # One answer per request, unless the server answered a malformed
        # target and hung up; a read-only request never fails with a 5xx.
        closed_early = bool(responses) and b"Connection: close" in responses[-1][1]
        assert len(responses) == len(requests) or closed_early
        assert all(status < 500 for status, _ in responses), responses
        _assert_still_serving(async_server.address)

    @FUZZ
    @given(pad=st.integers(0, 64) | st.integers(
               aserver._MAX_HEADER_BYTES - 64, aserver._MAX_HEADER_BYTES + 64),
           data=st.data())
    def test_header_byte_cap(self, async_server, pad, data):
        head = b"Host: fuzz\r\nX-Pad: " + b"a" * pad + b"\r\n"
        request = b"GET /healthz HTTP/1.1\r\n" + head + b"\r\n"
        responses = _exchange(async_server.address,
                              data.draw(_write_splits(st.just(request))))
        over = len(head) > aserver._MAX_HEADER_BYTES
        assert [status for status, _ in responses] == [431 if over else 200]
        assert (b"Connection: close" in responses[0][1]) is over
        _assert_still_serving(async_server.address)

    @FUZZ
    @given(requests=st.lists(_READ_ONLY_REQUESTS, max_size=3),
           body=st.binary(min_size=1, max_size=64), data=st.data())
    def test_truncated_body(self, async_server, requests, body, data):
        sent = data.draw(st.integers(0, len(body) - 1))
        truncated = _post_request("/theta/batch", body, "application/json")
        payload = b"".join(requests) + truncated[:len(truncated) - len(body) + sent]
        responses = _exchange(async_server.address, data.draw(_write_splits(st.just(payload))))
        # The truncated request never completes, so it is never answered.
        assert len(responses) <= len(requests)
        assert all(status < 500 for status, _ in responses), responses
        _assert_still_serving(async_server.address)

    # Last in the class: the shortened deadlines hold until the class ends.
    @pytest.fixture(scope="class")
    def deadline_server(self, artifact):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(aserver, "_IDLE_TIMEOUT_SECONDS", TestReadDeadlines.DEADLINE)
            patch.setattr(aserver, "_HEADER_TIMEOUT_SECONDS", TestReadDeadlines.DEADLINE)
            handle = start_server_thread([artifact[0]])
            yield handle
            handle.stop()

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(requests=st.lists(_READ_ONLY_REQUESTS, max_size=3),
           body=st.binary(min_size=1, max_size=64), data=st.data())
    def test_stalled_body(self, deadline_server, requests, body, data):
        sent = data.draw(st.integers(0, len(body) - 1))
        stalled = _post_request("/theta/batch", body, "application/json")
        payload = b"".join(requests) + stalled[:len(stalled) - len(body) + sent]
        responses = _exchange(deadline_server.address,
                              data.draw(_write_splits(st.just(payload))), half_close=False)
        # The connection stays open until the body deadline answers 408,
        # unless a malformed target was answered and closed it first.
        *answered, (last_status, last_head) = responses
        assert b"Connection: close" in last_head
        if last_status == 408:
            assert len(answered) == len(requests)
        else:
            assert len(responses) <= len(requests)
        assert all(status < 500 for status, _ in responses), responses
        _assert_still_serving(deadline_server.address)


class TestAsyncUpdates:
    def test_update_applies_and_reads_see_it(self, artifact, tmp_path):
        path, graph, result = artifact
        working = tmp_path / "mutable.tipidx"
        shutil.copytree(path, working)
        edge = next(
            [u, w] for u in range(N_U) for w in range(25)
            if not graph.has_edge(u, w))
        handle = start_server_thread([working])
        try:
            host, port = handle.address
            status, _, body = _raw_request(
                host, port, "POST", "/update",
                json.dumps({"insert": [edge]}).encode(), "application/json")
            assert status == 200
            payload = json.loads(body)
            assert payload["streaming"]["updates_applied"] == 1
            assert payload["n_edges"] == graph.n_edges + 1
            # A coalesced read on the same server sees the new state.
            _, _, stats = _raw_request(host, port, "GET", "/stats?fresh=1")
            summary = json.loads(stats)["artifacts"]["planted-blocks.U"]
            assert summary["streaming"]["updates_applied"] == 1
        finally:
            handle.stop()

    def test_conflicting_update_answers_409(self, artifact, tmp_path):
        path, graph, _ = artifact
        working = tmp_path / "conflict.tipidx"
        shutil.copytree(path, working)
        existing = None
        for u in range(N_U):
            for w in range(25):
                if graph.has_edge(u, w):
                    existing = [u, w]
                    break
            if existing:
                break
        handle = start_server_thread([working])
        try:
            host, port = handle.address
            status, _, body = _raw_request(
                host, port, "POST", "/update",
                json.dumps({"insert": [existing]}).encode(), "application/json")
            assert status == 409
            assert json.loads(body)["status"] == 409
        finally:
            handle.stop()

    def test_overflow_rejected_with_503_and_retry_after(self, artifact):
        path, graph, _ = artifact
        service = TipService([path])
        original = service.handle

        def slow_handle(route, params=None, body=None):
            if route == "/update":
                time.sleep(0.6)  # hold the writer busy for the race below
            return original(route, params, body)

        service.handle = slow_handle
        existing = next(
            [u, w] for u in range(N_U) for w in range(25)
            if graph.has_edge(u, w))
        handle = start_server_thread(
            service=service, max_pending_updates=1, retry_after_seconds=3.0)
        try:
            host, port = handle.address
            results = []

            def post():
                # Duplicate insert: conflicts (409) instead of mutating the
                # shared module artifact — the point here is the 503 race.
                results.append(_raw_request(
                    host, port, "POST", "/update",
                    json.dumps({"insert": [existing]}).encode(),
                    "application/json"))

            first = threading.Thread(target=post)
            first.start()
            time.sleep(0.2)  # first update is now parked on the writer thread
            second_status, second_headers, second_body = _raw_request(
                host, port, "POST", "/update",
                json.dumps({"insert": [existing]}).encode(), "application/json")
            first.join(timeout=10)

            assert second_status == 503
            assert second_headers.get("Retry-After") == "3"
            overloaded = json.loads(second_body)
            assert overloaded["status"] == 503
            assert overloaded["retry_after_seconds"] == 3.0
            assert "queue is full" in overloaded["error"]
            assert results[0][0] == 409  # the admitted one ran to completion
            metrics = handle.server.admission.metrics()
            assert metrics["admission_rejections"] == 1
            assert metrics["admitted"] == 1
        finally:
            handle.stop()
