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
    A persistent ``ProcessPoolExecutor`` whose workers attach to the job's
    shared-memory graph store (:mod:`repro.engine.shm`) zero-copy.  Tasks
    cross the boundary as picklable :class:`~repro.engine.tasks.FdTask`
    descriptors plus a small job spec; results return through the pool.
    This is the backend that produces real wall-clock scaling on multicore
    hardware (Fig. 10 of the paper).

Because every backend runs the identical task body on identical inputs and
the caller merges results in task order, tip numbers and work counters are
bit-identical across backends — only ``elapsed_seconds`` differs.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

from ..errors import ReproError
from .shm import AttachedFdJob, SharedFdJobSpec, attach_fd_job, share_fd_job
from .tasks import FdJob, FdTask, FdTaskResult, execute_fd_task

__all__ = [
    "BACKEND_NAMES",
    "EngineBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "create_backend",
]

BACKEND_NAMES = ("serial", "thread", "process")

#: Environment override for the multiprocessing start method ("fork",
#: "spawn" or "forkserver"); the default prefers fork on Linux for its
#: near-zero pool startup cost.
START_METHOD_ENV = "REPRO_MP_START_METHOD"


class EngineBackend:
    """Interface every execution backend implements."""

    name: str = "?"

    def __init__(self, n_workers: int = 1):
        if n_workers < 1:
            raise ReproError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = int(n_workers)

    def run_fd_tasks(self, job: FdJob, tasks: list[FdTask]) -> list[FdTaskResult]:
        """Execute the tasks and return results in task order."""
        raise NotImplementedError

    def warmup(self) -> None:
        """Pay any one-time startup cost (worker spawn) ahead of timing."""

    def shutdown(self) -> None:
        """Release pooled resources; the backend may be reused afterwards."""


class SerialBackend(EngineBackend):
    """In-order execution on the calling thread (reference semantics)."""

    name = "serial"

    def run_fd_tasks(self, job: FdJob, tasks: list[FdTask]) -> list[FdTaskResult]:
        return [execute_fd_task(job, task) for task in tasks]


class ThreadBackend(EngineBackend):
    """Fan-out on a persistent ``ThreadPoolExecutor``.

    An already running executor may be borrowed (``executor=...``) so a
    caller that owns a thread pool — ``ExecutionContext`` with
    ``backend="thread"`` does — shares it instead of doubling the OS-thread
    count; borrowed executors are never shut down here.
    """

    name = "thread"

    def __init__(self, n_workers: int = 1, *, executor: ThreadPoolExecutor | None = None):
        super().__init__(n_workers)
        self._executor = executor
        self._owns_executor = executor is None

    def _ensure_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(max_workers=self.n_workers)
        return self._executor

    def run_fd_tasks(self, job: FdJob, tasks: list[FdTask]) -> list[FdTaskResult]:
        if self.n_workers == 1 or len(tasks) <= 1:
            return [execute_fd_task(job, task) for task in tasks]
        executor = self._ensure_executor()
        futures = [executor.submit(execute_fd_task, job, task) for task in tasks]
        return [future.result() for future in futures]

    def warmup(self) -> None:
        self._ensure_executor()

    def shutdown(self) -> None:
        if self._executor is not None and self._owns_executor:
            self._executor.shutdown(wait=True)
            self._executor = None


# ----------------------------------------------------------------------
# Process backend: worker-side machinery
# ----------------------------------------------------------------------
# One attached job is cached per worker process; FD dispatches typically
# send many tasks against the same job, so each worker attaches to the
# shared-memory store once and reuses the mapping zero-copy.
_WORKER_ATTACHMENT: dict[str, AttachedFdJob] = {}


def _attached_job(spec: SharedFdJobSpec) -> FdJob:
    cached = _WORKER_ATTACHMENT.get(spec.token)
    if cached is None:
        for stale in _WORKER_ATTACHMENT.values():
            stale.close()
        _WORKER_ATTACHMENT.clear()
        cached = attach_fd_job(spec)
        _WORKER_ATTACHMENT[spec.token] = cached
    return cached.job


def _run_shared_fd_task(payload: tuple[SharedFdJobSpec, FdTask]) -> FdTaskResult:
    """Worker entry point: attach (cached) and execute one descriptor."""
    spec, task = payload
    return execute_fd_task(_attached_job(spec), task)


def _worker_noop(_index: int) -> int:
    return 0


def default_start_method() -> str:
    """Start method for worker processes (env-overridable).

    ``fork`` on Linux: pool startup in milliseconds and no re-import cost.
    ``spawn`` elsewhere (and on platforms without fork), trading startup
    time for not inheriting arbitrary parent state.  The usual
    multiprocessing caveat applies to spawn: the caller's ``__main__`` must
    be importable (a real script guarded by ``if __name__ == "__main__"``,
    not stdin).
    """
    override = os.environ.get(START_METHOD_ENV, "").strip().lower()
    available = multiprocessing.get_all_start_methods()
    if override:
        if override not in available:
            raise ReproError(
                f"{START_METHOD_ENV}={override!r} is not available here; "
                f"choose one of {available}"
            )
        return override
    if sys.platform.startswith("linux") and "fork" in available:
        return "fork"
    return "spawn"


class ProcessBackend(EngineBackend):
    """Fan-out across a persistent process pool over a shared-memory store.

    The pool is created lazily and survives across dispatches, so repeated
    FD runs (benchmark rounds, successive decompositions) pay worker
    startup once.  Each dispatch exports the job to shared memory, ships
    ``(job spec, task)`` pairs — a few hundred bytes each — and tears the
    segments down after the final barrier.
    """

    name = "process"

    def __init__(self, n_workers: int = 1, *, start_method: str | None = None):
        super().__init__(n_workers)
        # Remember whether the method was chosen by the caller/environment
        # (pinned) or defaulted — only a defaulted "fork" may be demoted to
        # "spawn" when forking would be unsafe.
        pinned = start_method or os.environ.get(START_METHOD_ENV, "").strip().lower()
        self.start_method = start_method or default_start_method()
        self._start_method_pinned = bool(pinned)
        self._executor: ProcessPoolExecutor | None = None

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            # Start the parent's shared-memory resource tracker BEFORE
            # forking workers: children then inherit it and their attach
            # registrations deduplicate against the parent's, instead of
            # each worker spawning a private tracker that later "cleans up"
            # (and warns about) segments the parent already unlinked.
            try:
                from multiprocessing import resource_tracker

                resource_tracker.ensure_running()
            except Exception:
                pass
            method = self.start_method
            if (method == "fork" and not self._start_method_pinned
                    and threading.active_count() > 1):
                # Forking a multi-threaded parent (e.g. backend="process"
                # combined with use_real_threads) can deadlock the child on
                # locks held by parent threads; prefer the safe start method
                # unless the caller explicitly pinned fork.
                method = "spawn"
            context = multiprocessing.get_context(method)
            self._executor = ProcessPoolExecutor(
                max_workers=self.n_workers, mp_context=context
            )
        return self._executor

    def run_fd_tasks(self, job: FdJob, tasks: list[FdTask]) -> list[FdTaskResult]:
        if not tasks:
            return []
        executor = self._ensure_executor()
        shared = share_fd_job(job)
        try:
            payloads = [(shared.spec, task) for task in tasks]
            # One descriptor per worker share: the caller's LPT schedule
            # already balanced the shares (Sec. 3.2.1), so chunksize=1 just
            # hands each idle worker the next one.
            return list(executor.map(_run_shared_fd_task, payloads, chunksize=1))
        finally:
            shared.destroy()

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


def create_backend(name: str, *, n_workers: int = 1, **options) -> EngineBackend:
    """Instantiate a backend by name (``serial`` / ``thread`` / ``process``)."""
    key = str(name).lower()
    if key not in _BACKENDS:
        raise ReproError(
            f"unknown execution backend {name!r}; expected one of {BACKEND_NAMES}"
        )
    return _BACKENDS[key](n_workers, **options)
