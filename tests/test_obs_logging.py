"""Structured logging tests: JSON lines, the request-log level policy,
slow-query escalation, idempotency."""

from __future__ import annotations

import io
import json
import logging
import math

import pytest

from repro.obs.log import (
    configure_logging,
    get_logger,
    log_phase,
    log_request,
    slow_query_threshold_seconds,
)


def _configured(fmt: str, level: str):
    """A repro handler in ``fmt`` at ``level`` on a StringIO, and its undo."""
    stream = io.StringIO()
    logger = configure_logging(fmt, level=level, stream=stream)

    def undo() -> None:
        for handler in list(logger.handlers):
            if getattr(handler, "_repro_obs", False):
                logger.removeHandler(handler)
        logger.setLevel(logging.NOTSET)
        logger.propagate = True

    return stream, undo


@pytest.fixture
def capture():
    """Install a fresh repro handler on a StringIO; restore afterwards."""
    stream, undo = _configured("json", "DEBUG")
    try:
        yield stream
    finally:
        undo()


def _lines(stream: io.StringIO) -> list[dict]:
    return [json.loads(line) for line in stream.getvalue().splitlines()]


class TestJsonLines:
    def test_request_log_is_one_json_object_per_line(self, capture):
        log_request("thread", "/theta", 200, 0.004)
        log_request("async", "/stats", 404, 0.001)
        lines = _lines(capture)
        assert len(lines) == 2
        first = lines[0]
        assert first["event"] == "request"
        assert first["transport"] == "thread"
        assert first["route"] == "/theta"
        assert first["status"] == 200
        assert first["latency_ms"] == 4.0
        assert first["slow"] is False
        assert first["level"] == "DEBUG"
        assert lines[1]["status"] == 404
        assert lines[1]["level"] == "DEBUG"

    def test_quiet_requests_log_at_debug(self, capture):
        # A fast request answered under 500 is a quiet one: DEBUG only.
        log_request("thread", "/theta", 200, 0.001)
        assert _lines(capture)[0]["level"] == "DEBUG"

    def test_slow_query_escalates_to_warning(self, capture, monkeypatch):
        monkeypatch.setenv("REPRO_SLOW_QUERY_MS", "5")
        assert slow_query_threshold_seconds() == 0.005
        log_request("thread", "/community", 200, 0.05)
        line = _lines(capture)[0]
        assert line["level"] == "WARNING"
        assert line["message"] == "slow query"
        assert line["slow"] is True

    def test_bad_threshold_env_falls_back_to_default(self, monkeypatch):
        # Not a number, negative (would mark every request slow) or NaN
        # (would mark none): each falls back to the 250 ms default.
        for raw in ("not-a-number", "-1", "-0.5", "-inf", "nan", "NaN"):
            monkeypatch.setenv("REPRO_SLOW_QUERY_MS", raw)
            assert slow_query_threshold_seconds() == 0.25, raw

    def test_zero_and_infinite_thresholds_are_valid(self, capture, monkeypatch):
        monkeypatch.setenv("REPRO_SLOW_QUERY_MS", "0")
        assert slow_query_threshold_seconds() == 0.0
        log_request("async", "/theta", 200, 0.0001)
        monkeypatch.setenv("REPRO_SLOW_QUERY_MS", "inf")
        assert slow_query_threshold_seconds() == math.inf
        log_request("async", "/theta", 200, 3600.0)
        lines = _lines(capture)
        assert [line["slow"] for line in lines] == [True, False]
        assert [line["level"] for line in lines] == ["WARNING", "DEBUG"]

    def test_threshold_env_read_per_call(self, capture, monkeypatch):
        # Mid-process retuning: the same 50 ms request flips between quiet
        # and slow as the env changes, proving the threshold is consulted
        # per request rather than frozen at import.
        monkeypatch.setenv("REPRO_SLOW_QUERY_MS", "500")
        log_request("thread", "/theta", 200, 0.05)
        monkeypatch.setenv("REPRO_SLOW_QUERY_MS", "5")
        log_request("thread", "/theta", 200, 0.05)
        monkeypatch.delenv("REPRO_SLOW_QUERY_MS")  # default 250 ms
        log_request("thread", "/theta", 200, 0.05)
        lines = _lines(capture)
        assert [line["slow"] for line in lines] == [False, True, False]
        assert [line["level"] for line in lines] == ["DEBUG", "WARNING", "DEBUG"]

    def test_phase_log_carries_fields(self, capture):
        log_phase("cd", 1.25, wedges_traversed=100)
        line = _lines(capture)[0]
        assert line["event"] == "phase"
        assert line["phase"] == "cd"
        assert line["seconds"] == 1.25
        assert line["wedges_traversed"] == 100
        assert line["logger"] == "repro.core"


def _fields(fmt: str, line: str) -> dict:
    """The level, message and request fields of one written line."""
    if fmt == "json":
        return json.loads(line)
    # "<date> <time> LEVEL repro.service <message> k=v k=v ..."
    head, _, tail = line.partition(" repro.service ")
    message = "slow query" if tail.startswith("slow query") else "request"
    pairs = dict(item.split("=", 1) for item in tail[len(message):].split())
    return {"level": head.split()[-1], "message": message, **pairs}


#: (status, seconds, level, message, slow) under the default 250 ms threshold.
_POLICY = [
    (200, 0.002, "DEBUG", "request", False),
    (404, 0.002, "DEBUG", "request", False),
    (429, 0.002, "DEBUG", "request", False),
    (500, 0.002, "WARNING", "request", False),
    (503, 0.002, "WARNING", "request", False),
    (200, 0.3, "WARNING", "slow query", True),
    (404, 0.3, "WARNING", "slow query", True),
    (503, 0.3, "WARNING", "slow query", True),
]


class TestRequestLevelPolicy:
    """Fast requests answered under 500 log at DEBUG; slow or 5xx ones at
    WARNING, with the same fields in both formats."""

    @pytest.fixture(autouse=True)
    def _default_threshold(self, monkeypatch):
        monkeypatch.delenv("REPRO_SLOW_QUERY_MS", raising=False)

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("status, seconds, level, message, slow", _POLICY)
    def test_level_and_fields(self, fmt, status, seconds, level, message, slow):
        stream, undo = _configured(fmt, "DEBUG")
        try:
            log_request("async", "/theta", status, seconds)
        finally:
            undo()
        lines = stream.getvalue().splitlines()
        assert len(lines) == 1
        fields = _fields(fmt, lines[0])
        assert fields["level"] == level
        assert fields["message"] == message
        expected = {"event": "request", "transport": "async", "route": "/theta",
                    "status": status, "latency_ms": round(seconds * 1000.0, 3),
                    "slow": slow}
        if fmt == "text":
            expected = {key: str(value) for key, value in expected.items()}
        assert {key: fields[key] for key in expected} == expected

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("level", ["INFO", "WARNING"])
    def test_default_levels_write_only_slow_and_5xx(self, fmt, level):
        # INFO is the CLI's default level: a fast 2xx or 4xx writes nothing.
        stream, undo = _configured(fmt, level)
        try:
            for status, seconds, *_ in _POLICY:
                log_request("async", "/theta", status, seconds)
        finally:
            undo()
        written = [_fields(fmt, line) for line in stream.getvalue().splitlines()]
        expected = [(status, slow) for status, _, policy_level, _, slow in _POLICY
                    if policy_level == "WARNING"]
        assert [(int(line["status"]), str(line["slow"]) == "True")
                for line in written] == expected
        assert {line["level"] for line in written} == {"WARNING"}

    def test_error_level_writes_no_request_line(self):
        stream, undo = _configured("json", "ERROR")
        try:
            for status, seconds, *_ in _POLICY:
                log_request("async", "/theta", status, seconds)
        finally:
            undo()
        assert stream.getvalue() == ""


class TestConfiguration:
    def test_text_format_appends_structured_fields(self):
        stream = io.StringIO()
        logger = configure_logging("text", level="DEBUG", stream=stream)
        try:
            log_request("thread", "/theta", 200, 0.004)
        finally:
            for handler in list(logger.handlers):
                if getattr(handler, "_repro_obs", False):
                    logger.removeHandler(handler)
            logger.propagate = True
        text = stream.getvalue()
        assert "route=/theta" in text
        assert "status=200" in text
        assert "latency_ms=4.0" in text

    def test_reconfigure_replaces_only_own_handler(self):
        logger = get_logger()
        foreign = logging.NullHandler()
        logger.addHandler(foreign)
        try:
            configure_logging("json", level="INFO", stream=io.StringIO())
            configure_logging("text", level="INFO", stream=io.StringIO())
            own = [h for h in logger.handlers if getattr(h, "_repro_obs", False)]
            assert len(own) == 1
            assert foreign in logger.handlers
        finally:
            for handler in list(logger.handlers):
                if getattr(handler, "_repro_obs", False) or handler is foreign:
                    logger.removeHandler(handler)
            logger.propagate = True

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            configure_logging("yaml")

    def test_get_logger_namespacing(self):
        assert get_logger().name == "repro"
        assert get_logger("service").name == "repro.service"
        assert get_logger("repro.core").name == "repro.core"
