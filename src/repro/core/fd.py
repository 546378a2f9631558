"""RECEIPT Fine-grained Decomposition (RECEIPT FD, Alg. 4).

FD receives the vertex subsets and tip-number ranges produced by CD and
computes exact tip numbers.  Each subset is processed completely
independently: a subgraph is induced on the subset (plus the whole ``V``
side), supports are initialised from the ``⋈init`` snapshot, and the
subgraph is peeled bottom-up one support level per batch
(:func:`~repro.peeling.bup.peel_levels`).  The work is expressed as
picklable task descriptors (:mod:`repro.engine.tasks`) handed to the
execution context's backend — serial, thread pool, or a multiprocess worker
pool over a shared-memory graph store — through a workload-aware dynamic
task queue (largest estimated work first); workers only synchronise once,
when the queue drains, and results are bit-identical across backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..engine.tasks import FdJob, build_fd_tasks
from ..graph.bipartite import BipartiteGraph
from ..kernels.workspace import resolve_wedge_budget
from ..obs.trace import current_tracer
from ..parallel.threadpool import ExecutionContext
from ..peeling.base import PeelingCounters
from .cd import CoarseDecompositionResult
from .scheduling import workload_aware_order

__all__ = ["SubsetPeelRecord", "FineDecompositionResult", "fine_grained_decomposition"]


@dataclass(frozen=True)
class SubsetPeelRecord:
    """Per-subset statistics gathered while FD peels it."""

    subset_index: int
    n_vertices: int
    induced_edges: int
    induced_wedge_work: int
    wedges_traversed: int
    support_updates: int
    elapsed_seconds: float
    peak_scratch_bytes: int = 0


@dataclass
class FineDecompositionResult:
    """Output of RECEIPT FD: exact tip numbers plus per-subset statistics."""

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


def fine_grained_decomposition(
    graph: BipartiteGraph,
    cd_result: CoarseDecompositionResult,
    *,
    enable_dgm: bool = False,
    context: ExecutionContext | None = None,
    workload_aware: bool = True,
    peel_kernel: str = "batched",
    wedge_budget: int | None = None,
    narrow_ids: bool = True,
) -> FineDecompositionResult:
    """Compute exact tip numbers from CD's subsets (Alg. 4).

    Parameters
    ----------
    graph:
        The original graph whose ``U`` side is being decomposed.
    cd_result:
        Output of :func:`~repro.core.cd.coarse_grained_decomposition`.
    enable_dgm:
        Whether the per-subset peels compact their induced adjacency (the
        induced subgraphs are small, so the paper leaves this off by
        default; it is exposed for ablations).
    context:
        Execution context; its configured backend (``serial`` / ``thread`` /
        ``process``) executes the task queue, and FD records a single
        synchronization round (the final barrier of the queue).
    workload_aware:
        Sort the task queue by decreasing estimated work (WaS).  Disabling
        it reproduces the "original order" schedule of Fig. 3.
    peel_kernel:
        Support-update kernel for the per-subset peels (``"batched"`` or
        ``"reference"``); each support level's batch is one
        :func:`~repro.peeling.update.peel_batch` through the shared kernel
        layer.
    wedge_budget, narrow_ids:
        Memory policy forwarded into every task's per-worker
        :class:`~repro.kernels.workspace.WedgeWorkspace`; the maximum task
        peak is reported as ``counters.peak_scratch_bytes``.
        ``wedge_budget`` follows the user-facing convention everywhere in
        the library: ``None`` means the library default, zero or negative
        disables chunking.
    """
    context = context or ExecutionContext()
    counters = PeelingCounters()
    tracer = current_tracer()
    fd_span = tracer.timed("fd", n_subsets=len(cd_result.subsets))
    with fd_span:
        n_u = graph.n_u
        tip_numbers = np.zeros(n_u, dtype=np.int64)
        subset_records: list[SubsetPeelRecord] = []

        # Estimated work per subset: wedges (in G) of its vertices.  The paper
        # uses this same proxy because induced-subgraph wedges are unknown until
        # the subgraph is built.
        wedge_work = graph.wedge_work_per_vertex("U")
        estimated_work = np.array(
            [float(wedge_work[subset].sum()) if subset.size else 0.0
             for subset in cd_result.subsets]
        )
        if workload_aware:
            order = workload_aware_order(estimated_work)
        else:
            order = np.arange(len(cd_result.subsets), dtype=np.int64)

        # FD work as data: descriptors ranging into the flat subset array, plus
        # one job holding the heavyweight shared inputs.  The process backend
        # exports the job to shared memory; descriptors pickle in O(1).
        subsets_flat, all_tasks = build_fd_tasks(cd_result.subsets, estimated_work)
        job = FdJob(
            graph=graph,
            subsets_flat=subsets_flat,
            init_supports=np.ascontiguousarray(cd_result.init_supports, dtype=np.int64),
            enable_dgm=enable_dgm,
            peel_kernel=peel_kernel,
            wedge_budget=resolve_wedge_budget(wedge_budget),
            narrow_ids=narrow_ids,
            trace=tracer.recording,
        )
        ordered_tasks = [all_tasks[int(index)] for index in order]
        results = context.run_fd_tasks(
            job, ordered_tasks, name="fd_task_queue",
            scheduling="lpt" if workload_aware else "dynamic",
        )

        for result in results:
            subset = cd_result.subsets[result.subset_index]
            if result.n_vertices:
                tip_numbers[subset] = result.tip_numbers
            subset_records.append(
                SubsetPeelRecord(
                    subset_index=result.subset_index,
                    n_vertices=result.n_vertices,
                    induced_edges=result.induced_edges,
                    induced_wedge_work=result.induced_wedge_work,
                    wedges_traversed=result.wedges_traversed,
                    support_updates=result.support_updates,
                    elapsed_seconds=result.elapsed_seconds,
                    peak_scratch_bytes=getattr(result, "peak_scratch_bytes", 0),
                )
            )
            # Worker spans travelled back over the engine's pickle channel
            # (serial, thread and process backends all populate them the same
            # way); re-base them under this phase's span.
            if tracer.recording and result.spans:
                tracer.add_spans(result.spans, parent=fd_span)

        for record in subset_records:
            counters.wedges_traversed += record.wedges_traversed
            counters.peeling_wedges += record.wedges_traversed
            counters.support_updates += record.support_updates
            counters.vertices_peeled += record.n_vertices
            # Tasks run on independent arenas (possibly concurrently), so the
            # phase peak is the largest per-task peak, not a sum.
            counters.peak_scratch_bytes = max(
                counters.peak_scratch_bytes, record.peak_scratch_bytes
            )
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
        subset_records=subset_records,
        schedule_order=[int(index) for index in order],
    )
