"""Picklable FD task descriptors and the shared share-peel routine.

RECEIPT FD (Alg. 4) is an embarrassingly parallel bag of per-subset peels
that synchronize exactly once.  To fan them out across processes the work
must be expressed as *data*, not closures: an :class:`FdTask` is one
worker's share of subsets — a range of a flat concatenation of all subsets
that covers whole subsets, with their ids and boundaries — while the
heavyweight inputs — the immutable dual-CSR graph, the flat subset array
and the ``⋈init`` support snapshot — travel separately as an
:class:`FdJob` (by reference inside one process, through shared memory
across processes; see :mod:`repro.engine.shm`).

:func:`execute_fd_task` is the single implementation of one FD task; every
backend funnels through it, which is what keeps tip numbers and work
counters bit-identical regardless of where the task runs.  It peels all the
share's subsets in one lockstep level loop on one induced graph whose
centers are split per subset (:func:`~repro.peeling.bup.peel_levels`), so
no wedge joins two subsets and each subset peels exactly as it would alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..graph.bipartite import BipartiteGraph
from ..kernels.workspace import WedgeWorkspace
from ..obs.trace import NOOP_TRACER, Tracer
from ..peeling.bup import peel_levels

__all__ = ["FdJob", "FdTask", "FdTaskResult", "build_fd_tasks", "execute_fd_task"]


@dataclass(frozen=True)
class FdTask:
    """One FD task: a worker's share of whole subsets in the flat subset array.

    Deliberately graph-free so it pickles in O(subsets of the share):
    ``subsets_flat[start:stop]`` of the accompanying :class:`FdJob` holds
    the share's subsets back to back, subset ``subset_ids[k]`` at
    ``start + boundaries[k]`` up to ``start + boundaries[k + 1]``.
    ``subset_index`` is the first of them and names the task in traces; a
    one-subset task may give only it, and ``subset_ids`` / ``boundaries``
    then default to that subset spanning the range.  ``estimated_work``
    carries the scheduling weight (wedge work of the share's vertices in
    the full graph).
    """

    subset_index: int
    start: int
    stop: int
    estimated_work: float = 0.0
    subset_ids: tuple[int, ...] = ()
    boundaries: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.subset_ids:
            object.__setattr__(self, "subset_ids", (self.subset_index,))
            object.__setattr__(self, "boundaries", (0, self.stop - self.start))

    @property
    def n_vertices(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class FdTaskResult:
    """Everything a finished FD task sends back through the pool.

    ``tip_numbers`` are the exact tip numbers of the share's vertices in
    range order (``tip_numbers[k]`` belongs to ``subsets_flat[start + k]``).
    ``induced_edges`` and ``induced_wedge_work`` hold one static count per
    subset of the share, in ``subset_ids`` order; FD never compacts, so a
    subset's traversed wedges equal its induced wedge work and
    ``wedges_traversed`` (measured over the whole share) is their sum.  The
    remaining counters and timings belong to the share as a whole; they
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
    # Exported tracing spans (plain dicts) when the job asked for a trace;
    # they ride the same pickle channel as the rest of the result and the
    # parent re-bases them into its own tracer (see core/fd.py).
    spans: tuple = ()


@dataclass
class FdJob:
    """Shared inputs of one FD fan-out: the graph plus per-task slices.

    Attributes
    ----------
    graph:
        The (immutable) working graph whose ``U`` side is decomposed.
    subsets_flat:
        Concatenation of all CD subsets, share by share; tasks address it
        by range.
    init_supports:
        The ``⋈init`` vector of CD, indexed by parent-graph ``U`` id.
    wedge_budget:
        Wedge budget of the per-task
        :class:`~repro.kernels.workspace.WedgeWorkspace`, which caps each
        task's scratch.  Unlike the user-facing knob this carries the
        *resolved* budget (``None`` = unbounded — callers apply
        :func:`~repro.kernels.workspace.resolve_wedge_budget` first).
        Plain data so the job still pickles in O(graph).
    trace:
        When true every task records its peel under a worker-local tracer
        and ships the spans back inside :class:`FdTaskResult`.
    """

    graph: BipartiteGraph
    subsets_flat: np.ndarray
    init_supports: np.ndarray
    wedge_budget: int | None = None
    trace: bool = False


def build_fd_tasks(
    subsets: Sequence[np.ndarray],
    estimated_work: np.ndarray | Sequence[float] | None = None,
    shares: Sequence[Sequence[int]] | None = None,
) -> tuple[np.ndarray, list[FdTask]]:
    """Lay CD's subsets out share by share as ``(subsets_flat, tasks)``.

    ``shares`` lists the subset ids of each worker's share in peel order
    (``Schedule.assignments``) and must name every subset exactly once;
    empty shares get no task.  By default every subset is its own share,
    in subset order.  Returns one :class:`FdTask` per non-empty share plus
    the flat int64 concatenation every task ranges into.
    ``estimated_work`` (per subset) defaults to the subset sizes when no
    wedge-work proxy is supplied; a task's weight is its share's total.
    """
    sizes = np.array([int(subset.size) for subset in subsets], dtype=np.int64)
    work = (sizes.astype(np.float64) if estimated_work is None
            else np.asarray(estimated_work, dtype=np.float64))
    if shares is None:
        shares = [[index] for index in range(len(subsets))]
    order = [int(index) for share in shares for index in share]
    if sorted(order) != list(range(len(subsets))):
        raise ValueError("shares must name every subset exactly once")
    if sizes.sum():
        subsets_flat = np.ascontiguousarray(
            np.concatenate([np.asarray(subsets[index], dtype=np.int64) for index in order])
        )
    else:
        subsets_flat = np.zeros(0, dtype=np.int64)
    tasks = []
    start = 0
    for share in shares:
        ids = [int(index) for index in share]
        if not ids:
            continue
        boundaries = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(sizes[ids], out=boundaries[1:])
        stop = start + int(boundaries[-1])
        tasks.append(FdTask(
            subset_index=ids[0],
            start=start,
            stop=stop,
            estimated_work=float(work[ids].sum()),
            subset_ids=tuple(ids),
            boundaries=tuple(int(bound) for bound in boundaries),
        ))
        start = stop
    return subsets_flat, tasks


def execute_fd_task(job: FdJob, task: FdTask) -> FdTaskResult:
    """Peel one worker's share of FD subsets to completion (Alg. 4's task loop).

    Induces one graph on the share's vertices with every ``V`` vertex split
    into one center per subset it touches, initialises supports from the
    ``⋈init`` snapshot, and peels every subset bottom-up in one lockstep
    level loop (:func:`~repro.peeling.bup.peel_levels`), each round one
    batch across all subsets.  Pure function of ``(job, task)`` — every
    backend calls exactly this, in-process or in a worker.
    """
    # A worker-local tracer keeps span collection identical across the
    # serial, thread and process backends: spans never touch global state,
    # they only travel back inside the (picklable) result.
    tracer = Tracer(recording=True) if job.trace else NOOP_TRACER
    task_span = tracer.timed("fd.peel_group", subset=task.subset_index,
                             n_subsets=len(task.subset_ids))
    with task_span:
        share = job.subsets_flat[task.start:task.stop]
        boundaries = np.asarray(task.boundaries, dtype=np.int64)
        labels = np.repeat(np.arange(len(task.subset_ids), dtype=np.int64),
                           np.diff(boundaries))
        induced_graph = job.graph.induced_on_u_subset(share, labels=labels).graph

        # A fresh arena per task keeps peak accounting exact regardless of
        # which worker (thread, process, or the caller itself) runs the task;
        # within the task every round of the share's peel reuses its buffers.
        workspace = WedgeWorkspace(wedge_budget=job.wedge_budget)
        tips, counters, _ = peel_levels(
            induced_graph, "U", job.init_supports[share], labels=labels,
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
            n_vertices=int(share.size),
            induced_edges=int(induced_graph.n_edges),
            wedges_traversed=int(counters.wedges_traversed),
            support_updates=int(counters.support_updates),
            peak_scratch_bytes=int(workspace.peak_scratch_bytes),
        )

    return FdTaskResult(
        subset_index=task.subset_index,
        n_vertices=int(share.size),
        induced_edges=induced_edges,
        induced_wedge_work=induced_wedge_work,
        wedges_traversed=int(counters.wedges_traversed),
        support_updates=int(counters.support_updates),
        tip_numbers=tips,
        elapsed_seconds=task_span.duration,
        peak_scratch_bytes=int(workspace.peak_scratch_bytes),
        spans=tuple(tracer.export()) if job.trace else (),
    )
