"""Build a tip-index artifact: decompose (on the configured execution
backend) and persist in one step.

This is the write path of the serving layer and the body of the
``repro build-index`` command.  The decomposition itself delegates to
:func:`repro.core.receipt.tip_decomposition`, so RECEIPT builds run on any
of the execution-engine backends (serial / thread / multiprocess pool)
from :mod:`repro.engine`.  Butterfly counts are computed once up front and
both sides are persisted: the decomposed side as the index's
``initial_butterflies``, the other side as ``center_butterflies`` so
streaming updates (:mod:`repro.streaming`) can maintain both incrementally
and skip global re-counts.
"""

from __future__ import annotations

from pathlib import Path

from ..butterfly.counting import count_per_vertex
from ..core.receipt import tip_decomposition
from ..graph.bipartite import BipartiteGraph, opposite_side, validate_side
from ..kernels.workspace import WedgeWorkspace, resolve_wedge_budget
from .artifacts import ArtifactManifest, save_artifact

__all__ = ["build_index_artifact"]


def build_index_artifact(
    graph: BipartiteGraph,
    path: str | Path,
    *,
    side: str = "U",
    algorithm: str = "receipt",
    backend: str = "serial",
    n_threads: int = 1,
    n_partitions: int | None = None,
    wedge_budget: int | None = None,
    overwrite: bool = False,
) -> ArtifactManifest:
    """Decompose ``side`` of ``graph`` and save the result as an artifact.

    ``backend`` / ``n_threads`` / ``n_partitions`` configure RECEIPT's
    execution engine and are ignored (but still recorded in the manifest)
    for the sequential baselines, mirroring the CLI's ``decompose``
    semantics.  ``wedge_budget`` caps the wedge pipeline's per-chunk
    scratch for every phase of the build (``None`` = library default,
    ``<= 0`` = unbounded); the run's ``peak_scratch_bytes`` lands in the
    manifest counters and is served by ``/stats``.  Returns the written
    manifest.
    """
    side = validate_side(side)
    workspace = WedgeWorkspace(wedge_budget=resolve_wedge_budget(wedge_budget))
    counts = count_per_vertex(graph, workspace=workspace)
    kwargs: dict = {"counts": counts}
    if algorithm.lower().startswith("receipt"):
        kwargs["n_threads"] = n_threads
        kwargs["backend"] = backend
        kwargs["wedge_budget"] = wedge_budget
        if n_partitions is not None:
            kwargs["n_partitions"] = n_partitions
    else:
        kwargs["workspace"] = workspace
    result = tip_decomposition(graph, side, algorithm=algorithm, **kwargs)
    result.counters.peak_scratch_bytes = max(
        result.counters.peak_scratch_bytes, workspace.peak_scratch_bytes
    )
    return save_artifact(
        path,
        graph,
        result,
        config={
            "algorithm": result.algorithm,
            "backend": backend,
            "n_threads": n_threads,
            "n_partitions": n_partitions,
            "wedge_budget": wedge_budget,
        },
        overwrite=overwrite,
        center_butterflies=counts.counts(opposite_side(side)),
    )
