"""Self-contained FD task descriptors and the share-peel routine.

RECEIPT FD (Alg. 4) is an embarrassingly parallel bag of per-subset peels
that synchronize exactly once.  To fan them out across processes the work
must be expressed as *data*, not closures.  By Lemma 2 a subset's peel
needs only its own rows of ``G`` (the subgraph induced on ``(U_i, V)``) and
``⋈init[U_i]``, so an :class:`FdTask` — one worker's share of subsets —
carries exactly those: the share's ``U`` rows as
:func:`~repro.kernels.csr.gather_rows` returns them, its ``⋈init`` slice,
``|V|`` and the subsets' boundaries.  It pickles in O(share edges), and a
worker needs nothing else from the parent.

:func:`execute_fd_task` is the single implementation of one FD task; every
backend funnels through it, which is what keeps tip numbers and work
counters bit-identical regardless of where the task runs.  It peels all the
share's subsets in one lockstep level loop on one induced graph whose
centers are split per subset (:func:`~repro.peeling.bup.peel_levels`), so
no wedge joins two subsets and each subset peels exactly as it would alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from ..graph.bipartite import BipartiteGraph
from ..kernels.csr import gather_rows
from ..kernels.workspace import WedgeWorkspace
from ..obs.trace import NOOP_TRACER, Tracer
from ..peeling.bup import peel_levels

__all__ = ["FdTask", "FdTaskResult", "build_fd_tasks", "execute_fd_task"]


@dataclass(frozen=True, eq=False)
class FdTask:
    """One FD task: a worker's share of whole subsets, with the rows it peels.

    The share's vertices lie back to back, subset ``subset_ids[k]`` at rows
    ``boundaries[k]`` up to ``boundaries[k + 1]``.  ``u_neighbors`` and
    ``u_degrees`` are those vertices' ``U`` rows of ``G`` (neighbour ids
    below ``n_v``), and ``init_supports`` their ``⋈init`` supports.
    ``wedge_budget`` is the *resolved* budget of the task's
    :class:`~repro.kernels.workspace.WedgeWorkspace` (``None`` = unbounded;
    callers apply :func:`~repro.kernels.workspace.resolve_wedge_budget`
    first).  With ``trace`` the task records its peel under a worker-local
    tracer and ships the spans back inside :class:`FdTaskResult`.
    """

    subset_ids: tuple[int, ...]
    boundaries: tuple[int, ...]
    u_neighbors: np.ndarray
    u_degrees: np.ndarray
    init_supports: np.ndarray
    n_v: int
    wedge_budget: int | None = None
    trace: bool = False

    @property
    def subset_index(self) -> int:
        """The share's first subset, which names the task in traces."""
        return self.subset_ids[0]

    @property
    def n_vertices(self) -> int:
        return self.boundaries[-1]


@dataclass(frozen=True)
class FdTaskResult:
    """Everything a finished FD task sends back through the pool.

    ``tip_numbers`` are the exact tip numbers of the share's vertices in
    row order.  ``induced_edges`` and ``induced_wedge_work`` hold one static
    count per subset of the share, in ``subset_ids`` order; FD never
    compacts, so a subset's traversed wedges equal its induced wedge work
    and ``wedges_traversed`` (measured over the whole share) is their sum.
    The remaining counters and timings belong to the share as a whole; they
    mirror what the serial implementation records so receipts stay
    bit-identical across backends.
    """

    subset_index: int
    n_vertices: int
    induced_edges: np.ndarray
    induced_wedge_work: np.ndarray
    wedges_traversed: int
    support_updates: int
    tip_numbers: np.ndarray
    elapsed_seconds: float
    peak_scratch_bytes: int = 0
    # Exported tracing spans (plain dicts) when the task asked for a trace;
    # they ride the same pickle channel as the rest of the result and the
    # parent re-bases them into its own tracer (see core/fd.py).
    spans: tuple = ()


def build_fd_tasks(
    graph: BipartiteGraph,
    subsets: Sequence[np.ndarray],
    init_supports: np.ndarray,
    shares: Sequence[Sequence[int]] | None = None,
    *,
    wedge_budget: int | None = None,
    trace: bool = False,
) -> tuple[list[np.ndarray], list[FdTask]]:
    """One self-contained :class:`FdTask` per non-empty share of CD's subsets.

    ``shares`` lists the subset ids of each worker's share in peel order
    (``Schedule.assignments``) and must name every subset exactly once;
    empty shares get no task.  By default every subset is its own share,
    in subset order.  Returns, per task, the share's ``U`` vertices in row
    order (the task's ``tip_numbers`` belong to them) and the tasks.
    """
    if shares is None:
        shares = [[index] for index in range(len(subsets))]
    order = [int(index) for share in shares for index in share]
    if sorted(order) != list(range(len(subsets))):
        raise ValueError("shares must name every subset exactly once")
    offsets, neighbors = graph.csr("U")
    init_supports = np.asarray(init_supports, dtype=np.int64)
    vertices, tasks = [], []
    for share in shares:
        ids = tuple(int(index) for index in share)
        if not ids:
            continue
        parts = [np.asarray(subsets[index], dtype=np.int64) for index in ids]
        share_vertices = np.concatenate(parts)
        u_neighbors, u_degrees = gather_rows(offsets, neighbors, share_vertices)
        vertices.append(share_vertices)
        tasks.append(FdTask(
            subset_ids=ids,
            boundaries=tuple(accumulate((part.size for part in parts), initial=0)),
            u_neighbors=u_neighbors,
            u_degrees=u_degrees,
            init_supports=init_supports[share_vertices],
            n_v=graph.n_v,
            wedge_budget=wedge_budget,
            trace=trace,
        ))
    return vertices, tasks


def execute_fd_task(task: FdTask) -> FdTaskResult:
    """Peel one worker's share of FD subsets to completion (Alg. 4's task loop).

    Builds one graph from the share's rows with every ``V`` vertex split
    into one center per subset it touches
    (:meth:`~repro.graph.bipartite.BipartiteGraph.from_u_rows`), starts
    from the ``⋈init`` supports, and peels every subset bottom-up in one
    lockstep level loop (:func:`~repro.peeling.bup.peel_levels`), each
    round one batch across all subsets.  Pure function of the task — every
    backend calls exactly this, in-process or in a worker.
    """
    # A worker-local tracer keeps span collection identical across the
    # serial, thread and process backends: spans never touch global state,
    # they only travel back inside the (picklable) result.
    tracer = Tracer(recording=True) if task.trace else NOOP_TRACER
    task_span = tracer.timed("fd.peel_group", subset=task.subset_index,
                             n_subsets=len(task.subset_ids))
    with task_span:
        boundaries = np.asarray(task.boundaries, dtype=np.int64)
        labels = np.repeat(np.arange(len(task.subset_ids), dtype=np.int64),
                           np.diff(boundaries))
        induced_graph = BipartiteGraph.from_u_rows(
            task.u_neighbors, task.u_degrees, task.n_v, labels)

        # A fresh arena per task keeps peak accounting exact regardless of
        # which worker (thread, process, or the caller itself) runs the task;
        # within the task every round of the share's peel reuses its buffers.
        workspace = WedgeWorkspace(wedge_budget=task.wedge_budget)
        tips, counters, _ = peel_levels(
            induced_graph, "U", task.init_supports, labels=labels,
            workspace=workspace,
        )

        # Per-subset static counts: a subset's rows are one contiguous run
        # of the U-side CSR, and its wedge work sums its edges' center
        # degrees (a split center belongs to exactly one subset).
        u_offsets, centers = induced_graph.csr("U")
        edge_bounds = u_offsets[boundaries]
        edge_work = np.zeros(centers.shape[0] + 1, dtype=np.int64)
        np.cumsum(induced_graph.degrees("V")[centers], out=edge_work[1:])
        induced_edges = np.diff(edge_bounds)
        induced_wedge_work = np.diff(edge_work[edge_bounds])
    if task_span.recording:
        task_span.set(
            n_vertices=task.n_vertices,
            induced_edges=int(induced_graph.n_edges),
            wedges_traversed=int(counters.wedges_traversed),
            support_updates=int(counters.support_updates),
            peak_scratch_bytes=int(workspace.peak_scratch_bytes),
        )

    return FdTaskResult(
        subset_index=task.subset_index,
        n_vertices=task.n_vertices,
        induced_edges=induced_edges,
        induced_wedge_work=induced_wedge_work,
        wedges_traversed=int(counters.wedges_traversed),
        support_updates=int(counters.support_updates),
        tip_numbers=tips,
        elapsed_seconds=task_span.duration,
        peak_scratch_bytes=int(workspace.peak_scratch_bytes),
        spans=tuple(tracer.export()) if task.trace else (),
    )
