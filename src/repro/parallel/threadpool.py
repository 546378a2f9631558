"""Thread-pool execution context with synchronization accounting.

The paper's algorithms are expressed as a sequence of *parallel-for* regions
separated by barriers; the number of such regions (synchronization rounds)
is one of the headline metrics in Table 3.  This module provides a small
execution context that

* runs parallel-for bodies either serially or on a ``ThreadPoolExecutor``
  (CPython's GIL means real threads rarely speed up the pure-Python kernels,
  so serial execution is the default — the work performed and the recorded
  statistics are identical either way),
* counts every parallel region and barrier so the analytical cost model can
  replay the execution for an arbitrary thread count, and
* delegates RECEIPT FD's task fan-out to a pluggable execution backend
  (``serial`` / ``thread`` / ``process``, see :mod:`repro.engine`) — the
  ``process`` backend is the one that escapes the GIL by dispatching task
  descriptors to a worker pool attached to a shared-memory graph store.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, TypeVar

from .primitives import balanced_chunks, chunk_ranges

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine sits above)
    from ..engine.backends import EngineBackend
    from ..engine.tasks import FdJob, FdTask, FdTaskResult

__all__ = ["BACKEND_NAMES", "ExecutionContext", "ParallelRegionRecord"]

#: Valid execution-backend names, mirrored from :mod:`repro.engine.backends`
#: (kept as a literal so constructing a context does not import the engine).
BACKEND_NAMES = ("serial", "thread", "process")

T = TypeVar("T")
R = TypeVar("R")


@dataclass
class ParallelRegionRecord:
    """Book-keeping for one executed parallel-for region."""

    name: str
    n_tasks: int
    total_work: float
    task_work: list[float] = field(default_factory=list)
    scheduling: str = "dynamic"


class ExecutionContext:
    """Execution policy + instrumentation shared by all parallel kernels.

    Parameters
    ----------
    n_threads:
        Logical thread count.  This controls how work is chunked and is the
        thread count reported to the analytical cost model; it does not by
        itself enable OS threads.
    use_real_threads:
        When ``True`` parallel regions run on a ``ThreadPoolExecutor`` with
        ``n_threads`` workers.  Default ``False``: with the GIL, the pure
        Python kernels are fastest single-threaded, and results are
        identical.
    backend:
        Execution backend for the FD task fan-out (:meth:`run_fd_tasks`):
        ``"serial"``, ``"thread"`` or ``"process"``.  Defaults to
        ``"thread"`` when ``use_real_threads`` is set and ``"serial"``
        otherwise, so existing callers keep their semantics.  The
        ``"process"`` backend places the graph in shared memory and fans
        descriptors out to ``n_threads`` worker processes — results are
        bit-identical to serial execution.
    """

    def __init__(self, n_threads: int = 1, *, use_real_threads: bool = False,
                 backend: str | None = None):
        if n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {n_threads}")
        if backend is None:
            backend = "thread" if use_real_threads else "serial"
        if backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown execution backend {backend!r}; expected one of {BACKEND_NAMES}"
            )
        self.n_threads = int(n_threads)
        self.backend = backend
        self.use_real_threads = bool(use_real_threads) or backend == "thread"
        self._executor: ThreadPoolExecutor | None = None
        self._engine: "EngineBackend | None" = None
        self._lock = threading.Lock()
        self.synchronization_rounds = 0
        self.parallel_regions: list[ParallelRegionRecord] = []

    # ------------------------------------------------------------------
    def __enter__(self) -> "ExecutionContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        """Release the underlying executor and engine backend, if created."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._engine is not None:
            self._engine.shutdown()
            self._engine = None

    def _ensure_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(max_workers=self.n_threads)
        return self._executor

    @property
    def engine(self) -> "EngineBackend":
        """The lazily created execution backend behind :meth:`run_fd_tasks`.

        Exposed so callers can pre-pay startup costs (``context.engine.
        warmup()`` spawns the process pool ahead of a timed region).
        """
        if self._engine is None:
            # Imported lazily: the engine layer sits above `parallel` in the
            # module hierarchy (its tasks import the peeling kernels).
            from ..engine.backends import create_backend

            if self.backend == "thread" and self.n_threads > 1:
                # Share the context's own pool instead of running a second
                # ThreadPoolExecutor with the same worker count.
                self._engine = create_backend(
                    "thread", n_workers=self.n_threads,
                    executor=self._ensure_executor(),
                )
            else:
                self._engine = create_backend(self.backend, n_workers=self.n_threads)
        return self._engine

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def record_barrier(self, name: str, *, n_tasks: int = 0, total_work: float = 0.0,
                       task_work: Sequence[float] | None = None,
                       scheduling: str = "dynamic") -> None:
        """Record one synchronization round without running anything.

        Peeling iterations call this directly: the "tasks" of the round are
        the vertices peeled and the "work" is the wedges they traverse.
        """
        with self._lock:
            self.synchronization_rounds += 1
            self.parallel_regions.append(
                ParallelRegionRecord(
                    name=name,
                    n_tasks=int(n_tasks),
                    total_work=float(total_work),
                    task_work=list(task_work) if task_work is not None else [],
                    scheduling=scheduling,
                )
            )

    # ------------------------------------------------------------------
    # Parallel-for
    # ------------------------------------------------------------------
    def map_chunks(
        self,
        items: Sequence[T],
        chunk_body: Callable[[Sequence[T]], R],
        *,
        name: str = "parallel_for",
        work_per_item: Sequence[float] | None = None,
        record: bool = True,
    ) -> list[R]:
        """Run ``chunk_body`` over chunks of ``items`` and gather the results.

        The chunking is work-balanced when ``work_per_item`` is supplied.
        One synchronization round is recorded (the implicit barrier at the
        end of the parallel-for) unless ``record=False`` — used when the
        caller already accounts for this work as part of an enclosing
        region, so the cost model does not double-count it.
        """
        items = list(items)
        if record:
            total_work = (
                float(sum(work_per_item)) if work_per_item is not None else float(len(items))
            )
            self.record_barrier(
                name,
                n_tasks=len(items),
                total_work=total_work,
                task_work=list(work_per_item) if work_per_item is not None else None,
            )
        if not items:
            return []

        if work_per_item is not None and len(work_per_item) == len(items):
            chunks = [
                [items[i] for i in chunk_indices]
                for chunk_indices in balanced_chunks(work_per_item, self.n_threads)
            ]
        else:
            chunks = [
                items[start:stop] for start, stop in chunk_ranges(len(items), self.n_threads)
            ]

        if not self.use_real_threads or self.n_threads == 1 or len(chunks) == 1:
            return [chunk_body(chunk) for chunk in chunks]
        executor = self._ensure_executor()
        return list(executor.map(chunk_body, chunks))

    def run_tasks(self, tasks: Iterable[Callable[[], R]], *, name: str = "task_queue",
                  work_per_task: Sequence[float] | None = None) -> list[R]:
        """Execute independent callables (a dynamic task queue).

        Tasks are executed in the given order when running serially, or
        submitted to the pool when real threads are enabled.  No intermediate
        barriers are recorded — the queue synchronises only once at the end.
        ``work_per_task`` attributes each task's true work estimate to the
        recorded region (like ``map_chunks``'s ``work_per_item``), so the
        cost model accounts an LPT queue by wedge work rather than by task
        count.
        """
        task_list = list(tasks)
        work = None
        if work_per_task is not None:
            if len(work_per_task) != len(task_list):
                raise ValueError(
                    f"work_per_task has {len(work_per_task)} entries for "
                    f"{len(task_list)} tasks"
                )
            work = [float(value) for value in work_per_task]
        self.record_barrier(
            name,
            n_tasks=len(task_list),
            total_work=float(sum(work)) if work is not None else float(len(task_list)),
            task_work=work,
        )
        if not task_list:
            return []
        if not self.use_real_threads or self.n_threads == 1:
            return [task() for task in task_list]
        executor = self._ensure_executor()
        futures = [executor.submit(task) for task in task_list]
        return [future.result() for future in futures]

    def run_fd_tasks(self, job: "FdJob", tasks: "Iterable[FdTask]", *,
                     name: str = "fd_task_queue",
                     work_per_task: Sequence[float] | None = None,
                     scheduling: str = "lpt") -> "list[FdTaskResult]":
        """Dispatch FD task descriptors through the configured backend.

        This is RECEIPT FD's task queue (Alg. 4): the descriptors (one
        per worker share of subsets) are executed by the ``serial`` /
        ``thread`` / ``process`` backend, results come back in the given
        order, and one synchronization round is recorded for the final
        barrier.  When no explicit ``work_per_task`` is given, each
        descriptor's ``estimated_work`` is used.
        """
        task_list = list(tasks)
        if work_per_task is None:
            work = [float(task.estimated_work) for task in task_list]
        elif len(work_per_task) != len(task_list):
            raise ValueError(
                f"work_per_task has {len(work_per_task)} entries for "
                f"{len(task_list)} tasks"
            )
        else:
            work = [float(value) for value in work_per_task]
        self.record_barrier(
            name,
            n_tasks=len(task_list),
            total_work=float(sum(work)),
            task_work=work,
            scheduling=scheduling,
        )
        if not task_list:
            return []
        return self.engine.run_fd_tasks(job, task_list)
