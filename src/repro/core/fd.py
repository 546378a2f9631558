"""RECEIPT Fine-grained Decomposition (RECEIPT FD, Alg. 4).

FD receives the vertex subsets and tip-number ranges produced by CD and
computes exact tip numbers.  Subsets are independent (Lemma 2): a subset's
peel only needs the subgraph induced on it (plus the whole ``V`` side) and
its supports from the ``⋈init`` snapshot.  FD splits the subsets into one
share per worker — an LPT schedule of their estimated work, one share on
the serial backend — and each share is one picklable task
(:mod:`repro.engine.tasks`) carrying the share's rows of ``G`` and its
``⋈init`` slice, handed to an execution backend
(:mod:`repro.engine.backends`): serial, thread pool, or a multiprocess
worker pool.  A task peels all its subsets in one lockstep level loop
(:func:`~repro.peeling.bup.peel_levels`): every round, each subset peels
its alive vertices at its own minimum support, and the round is one batch.
Workers synchronise once, when every share is done, and results are
bit-identical across backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..engine.backends import EngineBackend, SerialBackend
from ..engine.tasks import build_fd_tasks
from ..graph.bipartite import BipartiteGraph
from ..kernels.workspace import resolve_wedge_budget
from ..obs.trace import current_tracer
from ..peeling.base import PeelingCounters
from .cd import CoarseDecompositionResult
from .scheduling import Schedule, greedy_schedule, lpt_schedule

__all__ = [
    "SubsetPeelRecord",
    "FineDecompositionResult",
    "fd_share_schedule",
    "fine_grained_decomposition",
]


@dataclass(frozen=True)
class SubsetPeelRecord:
    """Per-subset statistics gathered while FD peels it.

    A subset is peeled together with the rest of its worker's share, so
    ``elapsed_seconds`` is the subset's part of its share's time, in
    proportion to its wedges (evenly when the share has none): the records
    of a share sum to the share's busy time.  Support updates and scratch
    peaks belong to the share; they are in the FD counters.
    """

    subset_index: int
    n_vertices: int
    induced_edges: int
    wedges_traversed: int
    elapsed_seconds: float


@dataclass
class FineDecompositionResult:
    """Output of RECEIPT FD: exact tip numbers plus per-subset statistics.

    ``subset_records`` follow ``schedule_order`` (the order subsets were
    dealt to shares), so they are the same on every backend.
    """

    tip_numbers: np.ndarray
    counters: PeelingCounters
    subset_records: list[SubsetPeelRecord] = field(default_factory=list)
    schedule_order: list[int] = field(default_factory=list)

    def subset_work(self) -> np.ndarray:
        """Measured wedge work per subset, indexed by subset id."""
        work = np.zeros(len(self.subset_records), dtype=np.float64)
        for record in self.subset_records:
            work[record.subset_index] = record.wedges_traversed
        return work


def fd_share_schedule(
    graph: BipartiteGraph,
    subsets: Sequence[np.ndarray],
    n_shares: int,
    *,
    workload_aware: bool = True,
) -> tuple[np.ndarray, Schedule]:
    """Each subset's estimated work and FD's schedule of them into shares.

    A subset's estimated work is the wedges (in ``G``) of its vertices: the
    paper uses this same proxy because induced-subgraph wedges are unknown
    until the subgraph is built.  With ``workload_aware`` the shares follow
    the LPT rule (subsets in decreasing estimated work, each to the
    least-loaded share); otherwise the subsets are dealt in their original
    order.  The schedule's makespan bounds what ``n_shares`` workers can
    achieve, which makes it the cheap projection of a fan-out.
    """
    wedge_work = graph.wedge_work_per_vertex("U")
    estimated_work = np.array(
        [float(wedge_work[subset].sum()) if subset.size else 0.0 for subset in subsets]
    )
    if workload_aware:
        return estimated_work, lpt_schedule(estimated_work, n_shares)
    return estimated_work, greedy_schedule(estimated_work, n_shares)


def fine_grained_decomposition(
    graph: BipartiteGraph,
    cd_result: CoarseDecompositionResult,
    *,
    engine: EngineBackend | None = None,
    workload_aware: bool = True,
    wedge_budget: int | None = None,
) -> FineDecompositionResult:
    """Compute exact tip numbers from CD's subsets (Alg. 4).

    Parameters
    ----------
    graph:
        The original graph whose ``U`` side is being decomposed.
    cd_result:
        Output of :func:`~repro.core.cd.coarse_grained_decomposition`.
    engine:
        Execution backend (``serial`` / ``thread`` / ``process``) that runs
        one task per worker share: one share on the serial backend,
        ``engine.n_workers`` otherwise.  The caller owns it (FD never shuts
        it down); a serial backend when omitted.  The shares synchronise
        once, when all are done.
    workload_aware:
        Form the shares by the LPT rule: subsets in decreasing estimated
        work (WaS), each to the least-loaded share.  Disabling it deals the
        subsets in their original order, the "original order" schedule of
        Fig. 3.
    wedge_budget:
        Wedge budget of every task's per-worker
        :class:`~repro.kernels.workspace.WedgeWorkspace`; the maximum task
        peak is reported as ``counters.peak_scratch_bytes``.  It follows
        the user-facing convention everywhere in the library: ``None``
        means the library default, zero or negative disables chunking.
    """
    engine = engine or SerialBackend()
    counters = PeelingCounters()
    tracer = current_tracer()
    fd_span = tracer.timed("fd", n_subsets=len(cd_result.subsets))
    with fd_span:
        tip_numbers = np.zeros(graph.n_u, dtype=np.int64)
        records: dict[int, SubsetPeelRecord] = {}

        n_shares = 1 if engine.name == "serial" else engine.n_workers
        _, schedule = fd_share_schedule(
            graph, cd_result.subsets, n_shares, workload_aware=workload_aware
        )

        # FD work as data: one self-contained task per share, carrying the
        # share's rows of the graph and its ⋈init slice (Lemma 2), so it
        # pickles in O(share edges).
        share_vertices, tasks = build_fd_tasks(
            graph, cd_result.subsets, cd_result.init_supports, schedule.assignments,
            wedge_budget=resolve_wedge_budget(wedge_budget),
            trace=tracer.recording,
        )
        results = engine.run_fd_tasks(tasks)

        for vertices, task, result in zip(share_vertices, tasks, results):
            tip_numbers[vertices] = result.tip_numbers
            weights = result.induced_wedge_work.astype(np.float64)
            if not weights.sum():
                weights = np.ones_like(weights)
            seconds = result.elapsed_seconds * weights / weights.sum()
            for k, subset_index in enumerate(task.subset_ids):
                records[subset_index] = SubsetPeelRecord(
                    subset_index=subset_index,
                    n_vertices=task.boundaries[k + 1] - task.boundaries[k],
                    induced_edges=int(result.induced_edges[k]),
                    wedges_traversed=int(result.induced_wedge_work[k]),
                    elapsed_seconds=float(seconds[k]),
                )
            counters.wedges_traversed += result.wedges_traversed
            counters.peeling_wedges += result.wedges_traversed
            counters.support_updates += result.support_updates
            counters.vertices_peeled += result.n_vertices
            # Tasks run on independent arenas (possibly concurrently), so the
            # phase peak is the largest per-task peak, not a sum.
            counters.peak_scratch_bytes = max(
                counters.peak_scratch_bytes, result.peak_scratch_bytes
            )
            # Worker spans travelled back over the engine's pickle channel
            # (serial, thread and process backends all populate them the same
            # way); re-base them under this phase's span.
            if tracer.recording and result.spans:
                tracer.add_spans(result.spans, parent=fd_span)
        # FD workers synchronise exactly once, at the end of the task queue.
        counters.synchronization_rounds = 0

    counters.elapsed_seconds = fd_span.duration
    if fd_span.recording:
        fd_span.set(
            wedges_traversed=counters.wedges_traversed,
            vertices_peeled=counters.vertices_peeled,
            peak_scratch_bytes=counters.peak_scratch_bytes,
        )

    return FineDecompositionResult(
        tip_numbers=tip_numbers,
        counters=counters,
        subset_records=[records[index] for index in schedule.order],
        schedule_order=schedule.order,
    )
