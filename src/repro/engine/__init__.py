"""Execution engine: self-contained FD tasks + pluggable backends.

RECEIPT FD's subsets are independent tasks that synchronize exactly once
(Alg. 4); this subsystem turns that property into real multiprocess
execution.  It has two parts:

* :mod:`repro.engine.tasks` — FD work expressed as picklable descriptors
  (:class:`FdTask`, one worker's share of subsets carrying its own rows of
  the graph and its ``⋈init`` slice), with one task body
  (:func:`execute_fd_task`) every backend runs, keeping results
  bit-identical.
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
)
from .tasks import FdTask, FdTaskResult, build_fd_tasks, execute_fd_task

__all__ = [
    "BACKEND_NAMES",
    "EngineBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "create_backend",
    "FdTask",
    "FdTaskResult",
    "build_fd_tasks",
    "execute_fd_task",
]
