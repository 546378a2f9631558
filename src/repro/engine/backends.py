"""Pluggable execution backends for the FD task fan-out.

FD hands a backend one :class:`~repro.engine.tasks.FdTask` per worker: a
share of CD's subsets, formed up front by FD's schedule (LPT over the
subsets' estimated work), that the task peels in one lockstep level loop.
Three interchangeable implementations of :class:`EngineBackend` run the same
:func:`~repro.engine.tasks.execute_fd_task` bodies:

``serial``
    In-order execution on the calling thread — the reference semantics.
``thread``
    A ``ThreadPoolExecutor`` fan-out.  CPython's GIL serialises the pure
    Python portions, so this mostly overlaps the numpy segments; it exists
    as the cheap middle rung and for API parity with the paper's
    shared-memory threading.
``process``
    A persistent ``ProcessPoolExecutor``.  Each
    :class:`~repro.engine.tasks.FdTask` carries its share's rows of the
    graph and its ``⋈init`` slice, so it crosses the boundary as one pickle
    of O(share edges) and the result returns through the pool; workers hold
    no state between tasks.  The pool forks on Linux when the parent has
    one thread and spawns otherwise.  This is the backend that produces
    real wall-clock scaling on multicore hardware (Fig. 10 of the paper).

Because every backend runs the identical task body on identical inputs and
the caller merges results in task order, tip numbers and work counters are
bit-identical across backends — only ``elapsed_seconds`` differs.

These backends are the library's one execution API: RECEIPT
(:func:`~repro.core.receipt.receipt_decomposition`, CLI ``--backend``)
creates one from its configuration or runs on a caller-owned instance,
which is also a context manager that shuts its pool down on exit.
"""

from __future__ import annotations

import multiprocessing
import sys
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

from ..errors import ReproError
from .tasks import FdTask, FdTaskResult, execute_fd_task

__all__ = [
    "BACKEND_NAMES",
    "EngineBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "create_backend",
]

BACKEND_NAMES = ("serial", "thread", "process")


class EngineBackend:
    """Interface every execution backend implements."""

    name: str = "?"

    def __init__(self, n_workers: int = 1):
        if n_workers < 1:
            raise ReproError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = int(n_workers)

    def run_fd_tasks(self, tasks: list[FdTask]) -> list[FdTaskResult]:
        """Execute the tasks and return results in task order."""
        raise NotImplementedError

    def warmup(self) -> None:
        """Pay any one-time startup cost (worker spawn) ahead of timing."""

    def shutdown(self) -> None:
        """Release pooled resources; the backend may be reused afterwards."""

    def __enter__(self) -> "EngineBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


class SerialBackend(EngineBackend):
    """In-order execution on the calling thread (reference semantics)."""

    name = "serial"

    def run_fd_tasks(self, tasks: list[FdTask]) -> list[FdTaskResult]:
        return [execute_fd_task(task) for task in tasks]


class ThreadBackend(EngineBackend):
    """Fan-out on a persistent ``ThreadPoolExecutor``, created on first use."""

    name = "thread"

    def __init__(self, n_workers: int = 1):
        super().__init__(n_workers)
        self._executor: ThreadPoolExecutor | None = None

    def _ensure_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(max_workers=self.n_workers)
        return self._executor

    def run_fd_tasks(self, tasks: list[FdTask]) -> list[FdTaskResult]:
        if self.n_workers == 1 or len(tasks) <= 1:
            return [execute_fd_task(task) for task in tasks]
        executor = self._ensure_executor()
        futures = [executor.submit(execute_fd_task, task) for task in tasks]
        return [future.result() for future in futures]

    def warmup(self) -> None:
        self._ensure_executor()

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


def _worker_noop(_index: int) -> int:
    return 0


class ProcessBackend(EngineBackend):
    """Fan-out across a persistent process pool.

    The pool is created lazily and survives across dispatches, so repeated
    FD runs (benchmark rounds, successive decompositions) pay worker
    startup once.  Each task carries its own rows, so a dispatch is one
    pickle per task each way and leaves nothing behind.
    """

    name = "process"

    def __init__(self, n_workers: int = 1):
        super().__init__(n_workers)
        self._executor: ProcessPoolExecutor | None = None

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            # Fork starts a worker in milliseconds with nothing to re-import,
            # but a child forked from a multi-threaded parent (a serving
            # process, or one that also runs a thread backend) can deadlock
            # on locks held by the parent's other threads; spawn otherwise.
            # The usual caveat applies to spawn: the caller's ``__main__``
            # must be importable (a real script, not stdin).
            fork = sys.platform.startswith("linux") and threading.active_count() == 1
            context = multiprocessing.get_context("fork" if fork else "spawn")
            self._executor = ProcessPoolExecutor(
                max_workers=self.n_workers, mp_context=context
            )
        return self._executor

    def run_fd_tasks(self, tasks: list[FdTask]) -> list[FdTaskResult]:
        if not tasks:
            return []
        # One task per worker share: the caller's LPT schedule already
        # balanced the shares (Sec. 3.2.1), so chunksize=1 just hands each
        # idle worker the next one.
        return list(self._ensure_executor().map(execute_fd_task, tasks, chunksize=1))

    def warmup(self) -> None:
        executor = self._ensure_executor()
        list(executor.map(_worker_noop, range(self.n_workers)))

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


_BACKENDS = {
    "serial": SerialBackend,
    "thread": ThreadBackend,
    "process": ProcessBackend,
}


def create_backend(name: str, *, n_workers: int = 1) -> EngineBackend:
    """Instantiate a backend by name (``serial`` / ``thread`` / ``process``)."""
    key = str(name).lower()
    if key not in _BACKENDS:
        raise ReproError(
            f"unknown execution backend {name!r}; expected one of {BACKEND_NAMES}"
        )
    return _BACKENDS[key](n_workers)
