"""Picklable FD task descriptors and the shared per-subset peel routine.

RECEIPT FD (Alg. 4) is an embarrassingly parallel bag of per-subset peels
that synchronize exactly once.  To fan those tasks out across processes the
work must be expressed as *data*, not closures: an :class:`FdTask` names a
subset by its id and its range into a flat concatenation of all subsets,
while the heavyweight inputs — the immutable dual-CSR graph, the flat subset
array and the ``⋈init`` support snapshot — travel separately as an
:class:`FdJob` (by reference inside one process, through shared memory
across processes; see :mod:`repro.engine.shm`).

:func:`execute_fd_task` is the single implementation of one FD task; every
backend funnels through it, which is what keeps tip numbers and work
counters bit-identical regardless of where the task runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..graph.bipartite import BipartiteGraph
from ..kernels.workspace import WedgeWorkspace
from ..obs.trace import NOOP_TRACER, Tracer
from ..peeling.base import PeelingCounters
from ..peeling.bup import peel_levels

__all__ = ["FdJob", "FdTask", "FdTaskResult", "build_fd_tasks", "execute_fd_task"]


@dataclass(frozen=True)
class FdTask:
    """One FD task: a subset id plus its range into the flat subset array.

    Deliberately graph-free so it pickles in O(1): ``subsets_flat[start:stop]``
    of the accompanying :class:`FdJob` recovers the subset's parent-graph
    ``U`` ids.  ``estimated_work`` carries the LPT scheduling weight (wedge
    work of the subset's vertices in the full graph).
    """

    subset_index: int
    start: int
    stop: int
    estimated_work: float = 0.0

    @property
    def n_vertices(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class FdTaskResult:
    """Everything a finished FD task sends back through the pool.

    ``tip_numbers`` are the exact tip numbers of the subset's vertices in
    subset order (``tip_numbers[k]`` belongs to ``subsets_flat[start + k]``);
    the counters mirror what the serial implementation records so receipts
    stay bit-identical across backends.
    """

    subset_index: int
    n_vertices: int
    induced_edges: int
    induced_wedge_work: int
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
        Concatenation of all CD subsets; tasks address it by range.
    init_supports:
        The ``⋈init`` vector of CD, indexed by parent-graph ``U`` id.
    enable_dgm, peel_kernel:
        Per-subset peel configuration, forwarded to
        :func:`~repro.peeling.bup.peel_levels`.
    wedge_budget, narrow_ids:
        Memory policy of the per-task
        :class:`~repro.kernels.workspace.WedgeWorkspace`: the wedge budget
        caps each task's scratch and ``narrow_ids`` enables int32
        adjacency/key narrowing.  Unlike the user-facing knobs this carries
        the *resolved* budget (``None`` = unbounded — callers apply
        :func:`~repro.kernels.workspace.resolve_wedge_budget` first).
        Plain data so the job still pickles in O(graph).
    trace:
        When true every task records its peel under a worker-local tracer
        and ships the spans back inside :class:`FdTaskResult`.
    """

    graph: BipartiteGraph
    subsets_flat: np.ndarray
    init_supports: np.ndarray
    enable_dgm: bool = False
    peel_kernel: str = "batched"
    wedge_budget: int | None = None
    narrow_ids: bool = True
    trace: bool = False


def build_fd_tasks(
    subsets: Sequence[np.ndarray],
    estimated_work: np.ndarray | Sequence[float] | None = None,
) -> tuple[np.ndarray, list[FdTask]]:
    """Flatten CD's subsets into ``(subsets_flat, tasks)``.

    Returns one :class:`FdTask` per subset (indexed by subset id) plus the
    flat int64 concatenation every task ranges into.  ``estimated_work``
    defaults to the subset sizes when no wedge-work proxy is supplied.
    """
    sizes = np.array([int(subset.size) for subset in subsets], dtype=np.int64)
    offsets = np.zeros(len(subsets) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    if len(subsets):
        subsets_flat = np.ascontiguousarray(
            np.concatenate([np.asarray(subset, dtype=np.int64) for subset in subsets])
            if offsets[-1]
            else np.zeros(0, dtype=np.int64)
        )
    else:
        subsets_flat = np.zeros(0, dtype=np.int64)
    if estimated_work is None:
        estimated_work = sizes.astype(np.float64)
    tasks = [
        FdTask(
            subset_index=index,
            start=int(offsets[index]),
            stop=int(offsets[index + 1]),
            estimated_work=float(estimated_work[index]),
        )
        for index in range(len(subsets))
    ]
    return subsets_flat, tasks


def execute_fd_task(job: FdJob, task: FdTask) -> FdTaskResult:
    """Peel one FD subset to completion (the body of Alg. 4's task loop).

    Induces the subgraph on the subset (plus the whole ``V`` side),
    initialises supports from the ``⋈init`` snapshot and peels it bottom-up
    one support level per batch (:func:`~repro.peeling.bup.peel_levels`).
    Pure function of ``(job, task)`` — every backend calls exactly this,
    in-process or in a worker.
    """
    subset = job.subsets_flat[task.start:task.stop]
    if subset.size == 0:
        return FdTaskResult(
            subset_index=task.subset_index,
            n_vertices=0,
            induced_edges=0,
            induced_wedge_work=0,
            wedges_traversed=0,
            support_updates=0,
            tip_numbers=np.zeros(0, dtype=np.int64),
            elapsed_seconds=0.0,
        )

    # A worker-local tracer keeps span collection identical across the
    # serial, thread and process backends: spans never touch global state,
    # they only travel back inside the (picklable) result.
    tracer = Tracer(recording=True) if job.trace else NOOP_TRACER
    task_span = tracer.timed("fd.peel_subset", subset=task.subset_index)
    with task_span:
        induced = job.graph.induced_on_u_subset(subset)
        induced_graph = induced.graph
        initial_supports = job.init_supports[subset]

        # A fresh arena per task keeps peak accounting exact regardless of
        # which worker (thread, process, or the caller itself) runs the task;
        # within the task every level batch of the subset peel reuses its
        # buffers.
        workspace = WedgeWorkspace(
            wedge_budget=job.wedge_budget, narrow_ids=job.narrow_ids
        )
        local_counters = PeelingCounters()
        local_tips, local_counters = peel_levels(
            induced_graph, "U", initial_supports,
            enable_dgm=job.enable_dgm, counters=local_counters,
            peel_kernel=job.peel_kernel, workspace=workspace,
        )
    if task_span.recording:
        task_span.set(
            n_vertices=int(subset.size),
            induced_edges=int(induced_graph.n_edges),
            wedges_traversed=int(local_counters.wedges_traversed),
            support_updates=int(local_counters.support_updates),
            peak_scratch_bytes=int(workspace.peak_scratch_bytes),
        )

    return FdTaskResult(
        subset_index=task.subset_index,
        n_vertices=int(subset.size),
        induced_edges=int(induced_graph.n_edges),
        induced_wedge_work=int(induced_graph.total_wedge_work("U")),
        wedges_traversed=int(local_counters.wedges_traversed),
        support_updates=int(local_counters.support_updates),
        tip_numbers=np.asarray(local_tips, dtype=np.int64),
        elapsed_seconds=task_span.duration,
        peak_scratch_bytes=int(workspace.peak_scratch_bytes),
        spans=tuple(tracer.export()) if job.trace else (),
    )
