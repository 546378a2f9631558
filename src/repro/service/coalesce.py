"""Event-loop micro-batching for the serving layer (transport-free).

The offline batch path answers tens of millions of θ-lookups per second
while a point request over HTTP costs a full parse → route → manifest read
→ gather → serialize round trip; the gap is pure per-request overhead.
This module closes it the way inference servers do — by *coalescing*:

* :class:`ThetaCoalescer` — concurrent point-θ requests enqueue into a
  list; one flush callback per event-loop tick (or after ``max_delay``
  seconds, or as soon as ``max_batch`` requests are waiting) resolves the
  whole batch with a single vectorized
  :meth:`~repro.service.server.TipService.theta_payloads` call.  Answers
  are byte-identical to sequential ``handle("/theta", ...)`` calls; errors
  travel in-band per request.
* :class:`UpdateAdmissionController` — the one write path, admission-
  controlled behind the readers: a single writer thread drains updates one
  at a time, a bounded pending queue keeps the event loop responsive, and
  overflow answers 503 + ``Retry-After``
  (:class:`~repro.errors.ServiceOverloadedError`) instead of queueing
  unboundedly behind the writer lock.

Both classes are transport-free (they know :class:`TipService`, not
sockets) so they can be driven directly by tests and by any future
front end.  All state is touched only from the owning event loop, except
the metric counters, which are plain ints and safe to *read* from any
thread (``/stats`` may be served while a flush runs).
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..errors import (
    DeadlineExceededError,
    FaultInjectedError,
    ServiceError,
    ServiceOverloadedError,
)
from . import faults

__all__ = ["ThetaCoalescer", "UpdateAdmissionController"]

#: Default cap on one coalesced batch; matches the per-request vertex cap's
#: order of magnitude so a flush never materialises an absurd gather.
DEFAULT_MAX_BATCH = 1024

#: How many recent per-request coalesce waits feed the p50/p99 metrics.
_WAIT_WINDOW = 4096


class ThetaCoalescer:
    """Batch concurrent point-θ lookups into one vectorized gather per tick.

    ``max_delay`` = 0 (the default) schedules the flush with
    ``loop.call_soon``: everything parsed during the current event-loop
    tick — e.g. all requests the selector delivered in one poll, across
    every connection — lands in one batch at **zero added latency**.  A
    positive ``max_delay`` (seconds) instead waits up to that long to
    accumulate bigger batches; ``max_batch`` always flushes early.
    """

    def __init__(self, service, *, max_batch: int = DEFAULT_MAX_BATCH,
                 max_delay: float = 0.0):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._service = service
        self.max_batch = int(max_batch)
        self.max_delay = float(max_delay)
        self._pending: list = []  # (artifact, vertex, future, enqueued_at)
        self._flush_handle: asyncio.Handle | None = None
        # Metrics (read by /stats from any thread; written on the loop).
        self._batches = 0
        self._requests = 0
        self._largest_batch = 0
        self._size_triggered = 0
        self._peak_depth = 0
        self._waits = deque(maxlen=_WAIT_WINDOW)

    # ------------------------------------------------------------------
    def submit(self, artifact: str | None, vertex: int,
               *, deadline=None) -> asyncio.Future:
        """Enqueue one point-θ request; the future resolves at the next flush.

        Must be called from the event loop.  The future resolves with the
        exact ``handle("/theta", ...)`` payload, or raises the exact
        :class:`ServiceError` the point path would have raised.  A
        ``deadline`` (:class:`~repro.service.resilience.Deadline`) that
        expires before the flush reaches this entry resolves it with
        :class:`~repro.errors.DeadlineExceededError` instead of a stale
        answer.
        """
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._pending.append(
            (artifact, int(vertex), future, time.monotonic(), deadline))
        depth = len(self._pending)
        if depth > self._peak_depth:
            self._peak_depth = depth
        if depth >= self.max_batch:
            if self._flush_handle is not None:
                self._flush_handle.cancel()
                self._flush_handle = None
            self._size_triggered += 1
            self._flush()
        elif self._flush_handle is None:
            if self.max_delay > 0.0:
                self._flush_handle = loop.call_later(self.max_delay, self._flush)
            else:
                self._flush_handle = loop.call_soon(self._flush)
        return future

    def _flush(self) -> None:
        self._flush_handle = None
        batch = self._pending
        if not batch:
            return
        self._pending = []
        now = time.monotonic()
        self._batches += 1
        self._requests += len(batch)
        self._largest_batch = max(self._largest_batch, len(batch))
        # The async transport's chaos seam: an injected "error" (or a
        # dropped flush) fails every request in the batch with the 503 the
        # clients would see if the batcher's downstream genuinely died —
        # futures are never stranded.
        try:
            token = faults.fire("transport.coalesce")
        except FaultInjectedError as error:
            token = error
        if token in ("drop", "corrupt") or isinstance(token, Exception):
            error = token if isinstance(token, Exception) else FaultInjectedError(
                "injected fault: coalesced flush lost", site="transport.coalesce")
            for _, _, future, _, _ in batch:
                if not future.done():
                    future.set_exception(error)
            return
        service = self._service
        service.coalesce_batch_size.observe(float(len(batch)))
        # Group by artifact, preserving order within each group: one
        # vectorized lookup per artifact per flush.
        groups: dict = {}
        for artifact, vertex, future, enqueued_at, deadline in batch:
            self._waits.append(now - enqueued_at)
            service.coalesce_wait_seconds.observe(now - enqueued_at)
            if deadline is not None and deadline.expired():
                # The request's budget ran out while it waited in the
                # queue; a late answer is worse than an honest 503.
                if not future.done():
                    future.set_exception(DeadlineExceededError(
                        "coalesced /theta request exceeded its "
                        f"{deadline.seconds * 1000.0:.0f}ms deadline while "
                        "queued",
                        retry_after=max(0.05, deadline.seconds)))
                service.count_deadline_exceeded()
                continue
            groups.setdefault(artifact, []).append((vertex, future))
        for artifact, entries in groups.items():
            try:
                results = service.theta_payloads(
                    artifact, [vertex for vertex, _ in entries])
            except Exception as error:  # defensive: never strand a future
                for _, future in entries:
                    if not future.done():
                        future.set_exception(error)
                continue
            for (_, future), result in zip(entries, results):
                if future.done():  # request cancelled mid-flight
                    continue
                if isinstance(result, ServiceError):
                    future.set_exception(result)
                else:
                    future.set_result(result)

    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        """Observability payload folded into ``/stats`` under ``transport``."""
        waits_ms = [1000.0 * wait for wait in self._waits]
        return {
            "max_batch": self.max_batch,
            "max_delay_ms": round(1000.0 * self.max_delay, 3),
            "batches_flushed": self._batches,
            "requests_coalesced": self._requests,
            "mean_batch_size": round(self._requests / self._batches, 3)
            if self._batches else 0.0,
            "largest_batch": self._largest_batch,
            "size_triggered_flushes": self._size_triggered,
            "queue_depth": len(self._pending),
            "peak_queue_depth": self._peak_depth,
            "coalesce_wait_p50_ms": round(float(np.percentile(waits_ms, 50)), 4)
            if waits_ms else 0.0,
            "coalesce_wait_p99_ms": round(float(np.percentile(waits_ms, 99)), 4)
            if waits_ms else 0.0,
        }


class UpdateAdmissionController:
    """Bounded single-writer admission control for ``POST /update``.

    Updates run on one dedicated writer thread (they hold the service's
    writer lock and do real peeling work — on the event loop they would
    stall every coalesced read).  At most ``max_pending`` updates may be
    admitted at once: the one running plus a short queue.  Beyond that the
    batch is rejected *immediately* with
    :class:`~repro.errors.ServiceOverloadedError` (HTTP 503 +
    ``Retry-After``) so a write burst degrades writes, never reads.
    """

    def __init__(self, service, *, max_pending: int = 4,
                 retry_after_seconds: float = 1.0):
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self._service = service
        self.max_pending = int(max_pending)
        self.retry_after_seconds = float(retry_after_seconds)
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="tip-writer")
        self._pending = 0
        self._admitted = 0
        self._completed = 0
        self._rejected = 0
        self._peak_pending = 0

    # ------------------------------------------------------------------
    async def submit(self, params: dict, body: dict) -> dict:
        """Run one ``/update`` on the writer thread, or reject with 503."""
        if self._pending >= self.max_pending:
            self._rejected += 1
            raise ServiceOverloadedError(
                f"update queue is full ({self._pending} pending, cap "
                f"{self.max_pending}); retry after "
                f"{self.retry_after_seconds:g}s",
                retry_after=self.retry_after_seconds,
            )
        self._pending += 1
        self._peak_pending = max(self._peak_pending, self._pending)
        self._admitted += 1
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(
                self._executor,
                lambda: self._service.handle("/update", params, body),
            )
        finally:
            self._pending -= 1
            self._completed += 1

    def close(self) -> None:
        """Shut down the single writer thread without draining its queue."""
        self._executor.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        """Admission counters surfaced by ``/stats`` under ``async.admission``."""
        return {
            "max_pending": self.max_pending,
            "retry_after_seconds": self.retry_after_seconds,
            "pending": self._pending,
            "peak_pending": self._peak_pending,
            "admitted": self._admitted,
            "completed": self._completed,
            "admission_rejections": self._rejected,
        }
