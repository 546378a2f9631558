"""Analytical parallel cost model for multi-threaded speedup projection.

The paper evaluates RECEIPT on a 36-core machine; CPython's GIL prevents the
pure-Python kernels from exhibiting real wall-clock speedup.  To reproduce
the *shape* of the scalability study (Figs. 10 and 11) we replay the
instrumented execution through a simple and transparent cost model:

* Every parallel region (one peeling iteration of RECEIPT CD, one counting
  pass, FD's independent subsets, ...) carries the list of per-task work
  units actually measured during the run (traversed wedges, peeled
  vertices).  The algorithms return these as :class:`ParallelRegionRecord`
  lists (``extra["parallel_regions"]`` of a RECEIPT or ParB result).
* For a thread count ``T`` the region's makespan is the maximum per-thread
  load under the region's scheduling policy (static chunking, dynamic
  greedy, or LPT), plus a per-round barrier cost.
* Optionally, a NUMA penalty inflates work once the thread count exceeds a
  single socket, matching the paper's observation that the speedup slope
  drops between 18 and 36 threads.

The projected speedup for ``T`` threads is ``time(1) / time(T)``.  Because
the inputs are measured work distributions rather than assumptions, load
imbalance across FD subsets and the low per-round work of small datasets —
the two effects the paper highlights — show up naturally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = ["ParallelRegionRecord", "RegionCost", "ParallelCostModel", "SpeedupPoint"]

#: Default cost of one barrier, expressed in the same unit as task work
#: (wedge traversals).  A barrier on a multicore is on the order of a few
#: microseconds while one wedge traversal in optimised C++ is a few
#: nanoseconds, hence the default ratio of ~1000 work units per barrier.
DEFAULT_BARRIER_COST = 1000.0


@dataclass
class ParallelRegionRecord:
    """One measured parallel region: its tasks and the work each performed.

    ``task_work`` (stored as a float64 array; any sequence is accepted) may
    be left empty for uniform vertex-parallel loops, whose ``total_work``
    the model then splits evenly over ``n_tasks``.  Compare records field
    by field, ``task_work`` with ``np.array_equal``.
    """

    name: str
    n_tasks: int
    total_work: float
    task_work: np.ndarray = field(default_factory=lambda: np.zeros(0))
    scheduling: str = "dynamic"

    def __post_init__(self) -> None:
        self.task_work = np.asarray(self.task_work, dtype=np.float64)


@dataclass
class RegionCost:
    """One parallel region: a bag of tasks executed between two barriers."""

    name: str
    task_work: np.ndarray
    scheduling: str = "dynamic"
    sequential_work: float = 0.0

    def __post_init__(self) -> None:
        self.task_work = np.asarray(self.task_work, dtype=np.float64)
        if self.scheduling not in {"static", "dynamic", "lpt"}:
            raise ValueError(f"unknown scheduling policy {self.scheduling!r}")

    @property
    def total_work(self) -> float:
        return float(self.task_work.sum()) + self.sequential_work

    def makespan(self, n_threads: int) -> float:
        """Maximum per-thread load for the given thread count."""
        if n_threads <= 1 or self.task_work.size == 0:
            return self.total_work
        # repro.core imports this module, so its scheduler is imported here.
        from ..core.scheduling import greedy_schedule, lpt_schedule

        work = self.task_work
        if self.scheduling == "static":
            chunks = np.array_split(work, n_threads)
            span = max(float(chunk.sum()) for chunk in chunks)
        elif self.scheduling == "lpt":
            span = lpt_schedule(work, n_threads).makespan
        else:
            span = greedy_schedule(work, n_threads).makespan
        return span + self.sequential_work


@dataclass
class SpeedupPoint:
    """Projected execution cost and speedup at one thread count."""

    n_threads: int
    simulated_time: float
    speedup: float


class ParallelCostModel:
    """Accumulates measured parallel regions and projects multi-thread times.

    Parameters
    ----------
    barrier_cost:
        Cost charged per region per barrier (in work units).  Scaled by
        ``log2(T) + 1`` because tree barriers get slightly more expensive
        with more participants.
    numa_threshold, numa_penalty:
        When ``n_threads > numa_threshold`` every region's makespan is
        multiplied by ``1 + numa_penalty`` to model cross-socket memory
        traffic.  Defaults mirror the paper's dual-socket 18+18 machine.
    """

    def __init__(
        self,
        *,
        barrier_cost: float = DEFAULT_BARRIER_COST,
        numa_threshold: int = 18,
        numa_penalty: float = 0.25,
    ):
        self.barrier_cost = float(barrier_cost)
        self.numa_threshold = int(numa_threshold)
        self.numa_penalty = float(numa_penalty)
        self.regions: list[RegionCost] = []

    # ------------------------------------------------------------------
    def add_region(
        self,
        name: str,
        task_work: Sequence[float] | np.ndarray,
        *,
        scheduling: str = "dynamic",
        sequential_work: float = 0.0,
    ) -> RegionCost:
        """Register a parallel region with measured per-task work."""
        region = RegionCost(
            name=name,
            task_work=np.asarray(task_work, dtype=np.float64),
            scheduling=scheduling,
            sequential_work=float(sequential_work),
        )
        self.regions.append(region)
        return region

    def add_sequential(self, name: str, work: float) -> RegionCost:
        """Register purely sequential work (not sped up by threads)."""
        return self.add_region(name, [], scheduling="static", sequential_work=work)

    def extend(self, other: "ParallelCostModel") -> None:
        """Append all regions of another model (phase composition)."""
        self.regions.extend(other.regions)

    # ------------------------------------------------------------------
    @property
    def total_work(self) -> float:
        """Total work across all regions (the T=1 execution cost without barriers)."""
        return float(sum(region.total_work for region in self.regions))

    def simulated_time(self, n_threads: int) -> float:
        """Projected execution cost for ``n_threads`` threads."""
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        if not self.regions:
            return 0.0
        barrier = self.barrier_cost * (1.0 + np.log2(n_threads)) if n_threads > 1 else 0.0
        numa_factor = 1.0 + self.numa_penalty if n_threads > self.numa_threshold else 1.0
        total = 0.0
        for region in self.regions:
            total += region.makespan(n_threads) * numa_factor + barrier
        return float(total)

    def speedup(self, n_threads: int) -> float:
        """Projected self-relative speedup over single-threaded execution."""
        single = self.simulated_time(1)
        if single == 0.0:
            return 1.0
        return float(single / self.simulated_time(n_threads))

    def speedup_curve(self, thread_counts: Iterable[int]) -> list[SpeedupPoint]:
        """Projected speedups for each thread count (Figs. 10 / 11 series)."""
        single = self.simulated_time(1)
        points = []
        for n_threads in thread_counts:
            time_t = self.simulated_time(n_threads)
            speedup = single / time_t if time_t > 0 else 1.0
            points.append(SpeedupPoint(int(n_threads), float(time_t), float(speedup)))
        return points

    # ------------------------------------------------------------------
    @classmethod
    def from_region_records(
        cls,
        records: Iterable[ParallelRegionRecord],
        *,
        barrier_cost: float = DEFAULT_BARRIER_COST,
        numa_threshold: int = 18,
        numa_penalty: float = 0.25,
    ) -> "ParallelCostModel":
        """Build a model from :class:`ParallelRegionRecord` objects.

        Records without per-task work use their ``total_work`` split evenly
        over their task count, which is the right default for uniform
        vertex-parallel loops.
        """
        model = cls(barrier_cost=barrier_cost, numa_threshold=numa_threshold,
                    numa_penalty=numa_penalty)
        for record in records:
            task_work = record.task_work
            if task_work.size == 0 and record.n_tasks > 0:
                task_work = np.full(record.n_tasks, record.total_work / record.n_tasks)
            model.add_region(record.name, task_work, scheduling=record.scheduling)
        return model
