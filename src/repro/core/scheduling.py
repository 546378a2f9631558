"""Task scheduling for RECEIPT FD (Sec. 3.2.1 and Fig. 3).

RECEIPT FD distributes vertex subsets to threads with two ingredients:

* **Dynamic task allocation** — idle threads pop subset ids from a shared
  queue, so no thread sits idle while tasks remain.
* **Workload-aware scheduling (WaS)** — the queue is sorted by decreasing
  estimated work (induced wedge count), which turns the dynamic allocation
  into the classic Longest-Processing-Time rule, a 4/3-approximation of the
  optimal makespan (Graham).

The functions here compute schedules and makespans from per-task work
estimates; FD turns a schedule's per-thread assignments into its
per-worker shares of subsets, and the Fig. 3 benchmark uses them to
quantify the benefit of WaS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Schedule", "greedy_schedule", "lpt_schedule", "workload_aware_order"]


@dataclass(frozen=True)
class Schedule:
    """Assignment of tasks to threads plus the resulting makespan.

    Attributes
    ----------
    assignments:
        ``assignments[t]`` lists the task indices executed by thread ``t``
        in execution order.
    loads:
        Total work per thread.
    makespan:
        ``max(loads)`` — the simulated parallel completion time.
    order:
        The global order in which tasks were dequeued.
    """

    assignments: list[list[int]]
    loads: np.ndarray
    makespan: float
    order: list[int]

    @property
    def n_threads(self) -> int:
        return len(self.assignments)

    @property
    def total_work(self) -> float:
        return float(self.loads.sum())

    @property
    def imbalance(self) -> float:
        """Ratio of makespan to the ideal (perfectly balanced) time."""
        if self.total_work == 0:
            return 1.0
        ideal = self.total_work / self.n_threads
        return float(self.makespan / ideal) if ideal > 0 else 1.0


def greedy_schedule(task_work: np.ndarray, n_threads: int, order: np.ndarray | None = None) -> Schedule:
    """Simulate dynamic task allocation: each task goes to the least-loaded thread.

    ``order`` is the sequence in which tasks arrive at the queue; by default
    it is the natural task order, which models dynamic allocation *without*
    workload-aware sorting (the left-hand side of Fig. 3).
    """
    task_work = np.asarray(task_work, dtype=np.float64)
    n_threads = max(1, int(n_threads))
    if order is None:
        order = np.arange(task_work.shape[0])
    order = np.asarray(order, dtype=np.int64)

    loads = np.zeros(n_threads, dtype=np.float64)
    assignments: list[list[int]] = [[] for _ in range(n_threads)]
    for task in order:
        thread = int(np.argmin(loads))
        loads[thread] += task_work[task]
        assignments[thread].append(int(task))
    makespan = float(loads.max()) if n_threads else 0.0
    return Schedule(assignments=assignments, loads=loads, makespan=makespan,
                    order=[int(task) for task in order])


def workload_aware_order(task_work: np.ndarray) -> np.ndarray:
    """Task order used by WaS: decreasing estimated work, ties by task id."""
    task_work = np.asarray(task_work)
    return np.lexsort((np.arange(task_work.shape[0]), -task_work)).astype(np.int64)


def lpt_schedule(task_work: np.ndarray, n_threads: int) -> Schedule:
    """Longest-Processing-Time schedule (dynamic allocation + WaS ordering)."""
    return greedy_schedule(task_work, n_threads, order=workload_aware_order(task_work))
