"""Simulation of distributed-memory coarse-grained decomposition (Sec. 7).

The paper's future-work discussion argues that RECEIPT's independent
tip-number ranges are a good fit for distributed-memory systems, but that
support updates crossing process boundaries would have to be communicated
and could limit scalability.  This module quantifies that trade-off without
an actual cluster: it replays RECEIPT CD's range peeling with the ``U``
vertices partitioned across ``W`` workers and counts, per synchronization
round,

* the wedge work performed by each worker (load balance),
* support updates whose target vertex lives on the same worker (local), and
* support updates that would travel over the network (remote messages),
  optionally aggregated per (source worker, target worker) pair per round —
  the bulk-synchronous aggregation a real implementation would use.

The peeling itself is exactly the shared-memory CD schedule, so the subsets
produced match :func:`repro.core.cd.coarse_grained_decomposition` (with HUC
disabled, as recounting is a shared-memory optimization); only the
accounting differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..butterfly.counting import count_per_vertex
from ..core.ranges import AdaptiveRangeTargeter, find_range_upper_bound
from ..core.scheduling import Schedule, greedy_schedule, lpt_schedule
from ..engine.tasks import FdTask, build_fd_tasks
from ..errors import ReproError
from ..graph.bipartite import BipartiteGraph, validate_side
from ..graph.dynamic import PeelableAdjacency
from ..peeling.update import peel_vertex

__all__ = [
    "partition_vertices",
    "DistributedCdReport",
    "simulate_distributed_cd",
    "FdFanoutReport",
    "simulate_fd_fanout",
]


def partition_vertices(
    graph: BipartiteGraph,
    n_workers: int,
    *,
    side: str = "U",
    strategy: str = "work-balanced",
    seed: int | None = None,
) -> np.ndarray:
    """Assign every ``side`` vertex to one of ``n_workers`` workers.

    Strategies
    ----------
    ``"block"``
        Contiguous equal-count ranges of vertex ids.
    ``"hash"``
        Pseudo-random assignment (uniform expected counts).
    ``"work-balanced"``
        LPT assignment over the per-vertex wedge work, the natural choice
        when the goal is to balance peel work across processes.
    """
    side = validate_side(side)
    n_vertices = graph.side_size(side)
    if n_workers < 1:
        raise ReproError("n_workers must be at least 1")
    if strategy == "block":
        return np.minimum(
            (np.arange(n_vertices, dtype=np.int64) * n_workers) // max(n_vertices, 1),
            n_workers - 1,
        )
    if strategy == "hash":
        rng = np.random.default_rng(seed)
        return rng.integers(0, n_workers, size=n_vertices, dtype=np.int64)
    if strategy == "work-balanced":
        work = graph.wedge_work_per_vertex(side).astype(np.float64)
        schedule = lpt_schedule(work, n_workers)
        owners = np.zeros(n_vertices, dtype=np.int64)
        for worker, tasks in enumerate(schedule.assignments):
            owners[np.asarray(tasks, dtype=np.int64)] = worker
        return owners
    raise ReproError(f"unknown partitioning strategy {strategy!r}")


@dataclass
class DistributedCdReport:
    """Communication and load-balance profile of distributed RECEIPT CD."""

    n_workers: int
    n_partitions: int
    strategy: str
    synchronization_rounds: int = 0
    local_updates: int = 0
    remote_updates: int = 0
    aggregated_messages: int = 0
    wedges_traversed: int = 0
    per_worker_work: np.ndarray = field(default_factory=lambda: np.zeros(0))
    subsets: list[np.ndarray] = field(default_factory=list)
    bounds: list[int] = field(default_factory=list)

    @property
    def remote_fraction(self) -> float:
        """Fraction of support updates that cross worker boundaries."""
        total = self.local_updates + self.remote_updates
        return self.remote_updates / total if total else 0.0

    @property
    def load_imbalance(self) -> float:
        """Max-to-mean ratio of per-worker wedge work (1.0 = perfect)."""
        if self.per_worker_work.size == 0 or self.per_worker_work.sum() == 0:
            return 1.0
        return float(self.per_worker_work.max() / self.per_worker_work.mean())

    def summary(self) -> dict:
        return {
            "n_workers": self.n_workers,
            "strategy": self.strategy,
            "synchronization_rounds": self.synchronization_rounds,
            "local_updates": self.local_updates,
            "remote_updates": self.remote_updates,
            "remote_fraction": round(self.remote_fraction, 4),
            "aggregated_messages": self.aggregated_messages,
            "wedges_traversed": self.wedges_traversed,
            "load_imbalance": round(self.load_imbalance, 3),
        }


def simulate_distributed_cd(
    graph: BipartiteGraph,
    n_partitions: int,
    n_workers: int,
    *,
    strategy: str = "work-balanced",
    owners: np.ndarray | None = None,
    initial_supports: np.ndarray | None = None,
    seed: int | None = None,
) -> DistributedCdReport:
    """Replay RECEIPT CD with ``U`` distributed over ``n_workers`` workers.

    Parameters
    ----------
    graph:
        Bipartite graph whose ``U`` side is decomposed.
    n_partitions:
        Number of tip-number ranges (the CD parameter ``P``).
    n_workers:
        Number of simulated distributed-memory processes.
    strategy / owners:
        Either a partitioning strategy name (see :func:`partition_vertices`)
        or an explicit owner array.
    initial_supports:
        Optional pre-computed butterfly counts of the ``U`` side.
    """
    if n_partitions < 1:
        raise ReproError("n_partitions must be at least 1")
    if owners is None:
        owners = partition_vertices(graph, n_workers, strategy=strategy, seed=seed)
    owners = np.asarray(owners, dtype=np.int64)
    if owners.shape[0] != graph.n_u:
        raise ReproError("owners array must cover every U vertex")

    if initial_supports is None:
        initial_supports = count_per_vertex(graph).u_counts
    supports = np.array(initial_supports, dtype=np.int64, copy=True)

    wedge_work = graph.wedge_work_per_vertex("U")
    adjacency = PeelableAdjacency(graph, "U", enable_dgm=True)
    alive = adjacency.alive_mask()
    targeter = AdaptiveRangeTargeter(n_partitions=n_partitions)

    report = DistributedCdReport(
        n_workers=int(n_workers),
        n_partitions=int(n_partitions),
        strategy=strategy if owners is None else strategy,
        per_worker_work=np.zeros(int(n_workers), dtype=np.float64),
        bounds=[0],
    )

    while alive.any() and not targeter.exhausted:
        lower_bound = report.bounds[-1]
        alive_vertices = np.flatnonzero(alive)
        remaining_work = float(wedge_work[alive_vertices].sum())
        target = targeter.next_target(remaining_work)
        upper_bound = max(
            find_range_upper_bound(supports[alive_vertices], wedge_work[alive_vertices], target),
            lower_bound + 1,
        )

        subset_pieces: list[np.ndarray] = []
        active = alive_vertices[supports[alive_vertices] < upper_bound]
        while active.size:
            report.synchronization_rounds += 1
            subset_pieces.append(active)
            adjacency.mark_peeled_many(active)

            # Message aggregation: within one bulk-synchronous round, each
            # (source worker -> target worker) pair exchanges one message
            # carrying all its accumulated updates.
            message_pairs: set[tuple[int, int]] = set()
            for vertex in active:
                vertex = int(vertex)
                source_worker = int(owners[vertex])
                update = peel_vertex(adjacency, supports, vertex, lower_bound)
                report.wedges_traversed += update.wedges_traversed
                report.per_worker_work[source_worker] += update.wedges_traversed
                target_workers = owners[update.updated_vertices]
                local = int(np.count_nonzero(target_workers == source_worker))
                report.local_updates += local
                report.remote_updates += int(target_workers.size - local)
                for target_worker in np.unique(target_workers):
                    if int(target_worker) != source_worker:
                        message_pairs.add((source_worker, int(target_worker)))
            report.aggregated_messages += len(message_pairs)
            adjacency.maybe_compact()

            candidates = np.flatnonzero(alive)
            active = candidates[supports[candidates] < upper_bound]

        subset = (
            np.concatenate(subset_pieces) if subset_pieces else np.zeros(0, dtype=np.int64)
        )
        covered = float(wedge_work[subset].sum()) if subset.size else 0.0
        targeter.record_subset(target, covered)
        report.subsets.append(subset)
        report.bounds.append(int(upper_bound))

    leftovers = np.flatnonzero(alive)
    if leftovers.size:
        report.subsets.append(leftovers)
        report.bounds.append(int(supports[leftovers].max()) + 1)

    return report


@dataclass
class FdFanoutReport:
    """Projected multi-worker profile of RECEIPT FD's task fan-out.

    Built from the *same* schedule and task descriptors the execution
    engine dispatches (:func:`repro.engine.tasks.build_fd_tasks`, one task
    per worker share), so the projection and the real ``process`` backend
    agree on the shares and their LPT weights.
    """

    n_workers: int
    tasks: list[FdTask]
    schedule: Schedule

    @property
    def makespan(self) -> float:
        """Simulated completion time (max per-worker estimated work)."""
        return float(self.schedule.makespan)

    @property
    def projected_speedup(self) -> float:
        """Total estimated work over makespan — the Fig. 10-style bound."""
        total = float(self.schedule.total_work)
        return total / self.makespan if self.makespan > 0 else 1.0

    def summary(self) -> dict:
        return {
            "n_workers": self.n_workers,
            "n_tasks": len(self.tasks),
            "total_estimated_work": float(self.schedule.total_work),
            "makespan": self.makespan,
            "projected_speedup": round(self.projected_speedup, 3),
            "load_imbalance": round(self.schedule.imbalance, 3),
        }


def simulate_fd_fanout(
    graph: BipartiteGraph,
    subsets: list[np.ndarray],
    n_workers: int,
    *,
    workload_aware: bool = True,
) -> FdFanoutReport:
    """Project FD's task fan-out onto ``n_workers`` without running it.

    Schedules CD's ``subsets`` (weighted by the same wedge-work proxy FD
    schedules with) into one share per worker — LPT when
    ``workload_aware``, arrival order otherwise — and builds the engine's
    task descriptors for those shares.
    The resulting makespan bounds what the ``process`` backend can achieve
    on ideal hardware, which makes it the cheap first check before paying
    for a real multiprocess run.
    """
    if n_workers < 1:
        raise ReproError("n_workers must be at least 1")
    wedge_work = graph.wedge_work_per_vertex("U")
    estimated_work = np.array(
        [float(wedge_work[subset].sum()) if subset.size else 0.0 for subset in subsets]
    )
    if workload_aware:
        schedule = lpt_schedule(estimated_work, n_workers)
    else:
        schedule = greedy_schedule(estimated_work, n_workers)
    _, tasks = build_fd_tasks(subsets, estimated_work, schedule.assignments)
    return FdFanoutReport(n_workers=int(n_workers), tasks=tasks, schedule=schedule)
