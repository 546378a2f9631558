"""Execution engine: shared-memory graph store + pluggable FD backends.

RECEIPT FD's subsets are independent tasks that synchronize exactly once
(Alg. 4); this subsystem turns that property into real multiprocess
execution.  It has three parts:

* :mod:`repro.engine.tasks` — FD work expressed as picklable descriptors
  (:class:`FdTask`, one worker's share of subsets) over a shared
  :class:`FdJob`, with one task body (:func:`execute_fd_task`) every
  backend runs, keeping results bit-identical.
* :mod:`repro.engine.shm` — the shared-memory store: dual-CSR graph arrays,
  flat subsets and ``⋈init`` supports exported once per fan-out and
  attached zero-copy by workers.
* :mod:`repro.engine.backends` — ``serial`` / ``thread`` / ``process``
  backends behind one interface, the library's only execution API:
  :func:`create_backend` builds one by name (``ReceiptConfig.backend``,
  CLI ``--backend``), and RECEIPT and FD also accept a caller-owned
  instance (``engine=...``) so a worker pool can outlive one run.
"""

from .backends import (
    BACKEND_NAMES,
    EngineBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    create_backend,
    default_start_method,
)
from .shm import (
    AttachedFdJob,
    SharedFdJob,
    SharedFdJobSpec,
    ShmArraySpec,
    attach_fd_job,
    share_fd_job,
)
from .tasks import FdJob, FdTask, FdTaskResult, build_fd_tasks, execute_fd_task

__all__ = [
    "BACKEND_NAMES",
    "EngineBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "create_backend",
    "default_start_method",
    "ShmArraySpec",
    "SharedFdJobSpec",
    "SharedFdJob",
    "AttachedFdJob",
    "share_fd_job",
    "attach_fd_job",
    "FdJob",
    "FdTask",
    "FdTaskResult",
    "build_fd_tasks",
    "execute_fd_task",
]
