"""Structured logging: shared ``repro.*`` logger hierarchy, JSON lines.

``configure_logging(fmt="json")`` installs a single stderr handler on
the root ``repro`` logger whose formatter emits one JSON object per
line (``ts``, ``level``, ``logger``, ``message`` plus any ``extra``
fields passed at the call site).  Text mode keeps a conventional
human-readable line but still appends the structured fields.

Request logging (:func:`log_request`, called for every served request
by ``TipService.observe_request``) writes a request at DEBUG, so at the
default level a fast request that is not 5xx writes no line; the request
metrics count every request.  A request slower than the slow-query
threshold (``REPRO_SLOW_QUERY_MS``, default 250 ms) or answered 5xx is
logged at WARNING.  ``--log-level DEBUG`` prints one line per request.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import time
from typing import Any, Optional, TextIO

__all__ = [
    "configure_logging",
    "get_logger",
    "log_request",
    "slow_query_threshold_seconds",
]

ROOT_LOGGER = "repro"
SLOW_QUERY_ENV = "REPRO_SLOW_QUERY_MS"
DEFAULT_SLOW_QUERY_MS = 250.0

# Attributes present on every LogRecord; anything else was supplied via
# ``extra=`` and belongs in the structured payload.
_STANDARD_ATTRS = frozenset(
    logging.LogRecord("", 0, "", 0, "", (), None).__dict__
) | {"message", "asctime", "taskName"}


def get_logger(name: Optional[str] = None) -> logging.Logger:
    """The shared repro logger, or a child (``get_logger("service")``)."""
    if not name:
        return logging.getLogger(ROOT_LOGGER)
    if name.startswith(ROOT_LOGGER + ".") or name == ROOT_LOGGER:
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER}.{name}")


def _structured_fields(record: logging.LogRecord) -> dict:
    return {
        key: value
        for key, value in record.__dict__.items()
        if key not in _STANDARD_ATTRS and not key.startswith("_")
    }


class JsonFormatter(logging.Formatter):
    """One JSON object per line; ``extra=`` fields ride along verbatim."""

    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "ts": round(record.created, 6),
            "level": record.levelname,
            "logger": record.name,
            "message": record.getMessage(),
        }
        payload.update(_structured_fields(record))
        if record.exc_info:
            payload["exc_info"] = self.formatException(record.exc_info)
        return json.dumps(payload, default=str, sort_keys=False)


class TextFormatter(logging.Formatter):
    """Human-readable line with the structured fields appended as k=v."""

    def __init__(self) -> None:
        super().__init__("%(asctime)s %(levelname)s %(name)s %(message)s")

    def format(self, record: logging.LogRecord) -> str:
        base = super().format(record)
        fields = _structured_fields(record)
        if fields:
            base += " " + " ".join(f"{key}={value}" for key, value in fields.items())
        return base


def configure_logging(
    fmt: str = "text",
    level: str = "WARNING",
    stream: Optional[TextIO] = None,
) -> logging.Logger:
    """Install (or replace) the repro log handler.  Idempotent.

    Only handlers previously installed by this function are replaced,
    so tests using ``caplog``/custom handlers are unaffected.
    """
    if fmt not in ("text", "json"):
        raise ValueError(f"unknown log format {fmt!r} (expected 'text' or 'json')")
    logger = logging.getLogger(ROOT_LOGGER)
    for handler in list(logger.handlers):
        if getattr(handler, "_repro_obs", False):
            logger.removeHandler(handler)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler._repro_obs = True  # type: ignore[attr-defined]
    handler.setFormatter(JsonFormatter() if fmt == "json" else TextFormatter())
    logger.addHandler(handler)
    logger.setLevel(getattr(logging, level.upper()))
    logger.propagate = False
    return logger


def slow_query_threshold_seconds() -> float:
    """Slow-request threshold from ``REPRO_SLOW_QUERY_MS`` (default 250 ms).

    Read per call.  A value that is not a number, is negative or is NaN
    falls back to the default; ``0`` marks every request slow and ``inf``
    none.
    """
    raw = os.environ.get(SLOW_QUERY_ENV, "")
    try:
        millis = float(raw) if raw else DEFAULT_SLOW_QUERY_MS
    except ValueError:
        millis = DEFAULT_SLOW_QUERY_MS
    if not millis >= 0.0:  # negative or NaN
        millis = DEFAULT_SLOW_QUERY_MS
    return millis / 1000.0


#: Looked up once: ``logging.getLogger`` takes the logging module's lock.
_REQUEST_LOGGER = get_logger("service")


def log_request(
    transport: str,
    route: str,
    status: int,
    seconds: float,
    **fields: Any,
) -> None:
    """Log one served request with its latency and status.

    DEBUG ("request") for a request answered under 500 within the
    slow-query threshold; WARNING for one answered 5xx ("request") or
    slower than the threshold ("slow query", ``"slow": true``).
    """
    slow = seconds > slow_query_threshold_seconds()
    level = logging.WARNING if slow or status >= 500 else logging.DEBUG
    if not _REQUEST_LOGGER.isEnabledFor(level):
        return
    _REQUEST_LOGGER.log(
        level,
        "slow query" if slow else "request",
        extra={
            "event": "request",
            "transport": transport,
            "route": route,
            "status": int(status),
            "latency_ms": round(seconds * 1000.0, 3),
            "slow": slow,
            **fields,
        },
    )


def log_phase(phase: str, seconds: float, **fields: Any) -> None:
    """Log one completed peel phase (pvBcnt / cd / fd / ...) at INFO."""
    logger = get_logger("core")
    if not logger.isEnabledFor(logging.INFO):
        return
    logger.info(
        "phase complete",
        extra={
            "event": "phase",
            "phase": phase,
            "seconds": round(seconds, 6),
            "unix": round(time.time(), 3),
            **fields,
        },
    )
