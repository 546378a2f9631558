"""Top-level RECEIPT tip decomposition (CD + FD with all optimizations).

This is the library's flagship entry point.  It composes the three phases
the paper analyses:

1. **pvBcnt** — per-vertex butterfly counting to initialise supports.
2. **RECEIPT CD** — coarse-grained decomposition into tip-number ranges.
3. **RECEIPT FD** — independent per-subset peeling for exact tip numbers.

and records per-phase counters so that every evaluation figure of the paper
(work / time breakdowns, ablations, scalability projections) can be
regenerated from a single run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..butterfly.counting import ButterflyCounts, count_per_vertex_priority
from ..engine.backends import EngineBackend, create_backend
from ..errors import ReproError
from ..graph.bipartite import BipartiteGraph, validate_side
from ..kernels.workspace import WedgeWorkspace, resolve_wedge_budget
from ..obs.log import log_phase
from ..obs.trace import current_tracer
from ..parallel.costmodel import ParallelRegionRecord
from ..peeling.base import PeelingCounters, TipDecompositionResult
from .cd import coarse_grained_decomposition
from .fd import fine_grained_decomposition

__all__ = ["ReceiptConfig", "receipt_decomposition", "tip_decomposition"]

#: Number of vertex subsets the paper settles on after the Fig. 5 sweep.
DEFAULT_PARTITIONS = 150

_VARIANTS = {
    "receipt": {"enable_huc": True, "enable_dgm": True},
    "receipt-": {"enable_huc": True, "enable_dgm": False},
    "receipt--": {"enable_huc": False, "enable_dgm": False},
}


@dataclass
class ReceiptConfig:
    """Configuration of a RECEIPT run.

    Attributes
    ----------
    n_partitions:
        The parameter ``P``: number of tip-number ranges CD creates.
    enable_huc:
        Hybrid Update Computation (Sec. 4.1).
    enable_dgm:
        Dynamic Graph Maintenance (Sec. 4.2).
    huc_cost_factor:
        Multiplier on the re-count cost in the HUC decision; 1.0 reproduces
        the paper's pure wedge-count comparison, larger values bias towards
        peeling to compensate for Python's higher per-wedge counting cost.
    adaptive_range_targets:
        Two-way adaptive range determination (Sec. 3.1.1); disable to fall
        back to a static per-subset wedge target (ablation only).
    n_threads:
        Worker count of the execution backend (FD's number of shares on the
        ``thread`` and ``process`` backends).
    backend:
        Execution backend for FD's task fan-out: ``"serial"`` (default),
        ``"thread"``, or ``"process"`` — the multiprocess engine that
        dispatches self-contained tasks to a worker pool
        (:mod:`repro.engine`).  Results are bit-identical across backends.
    workload_aware_scheduling:
        Sort FD's task queue by decreasing estimated work.
    wedge_budget:
        Wedge endpoints a kernel chunk may materialise at once — the cap on
        the wedge pipeline's peak scratch.  ``None`` (default) uses the
        library default (:data:`repro.kernels.workspace.DEFAULT_WEDGE_BUDGET`);
        zero or a negative value disables chunking.  Exposed on the CLI as
        ``--wedge-budget``.
    """

    n_partitions: int = DEFAULT_PARTITIONS
    enable_huc: bool = True
    enable_dgm: bool = True
    huc_cost_factor: float = 3.0
    adaptive_range_targets: bool = True
    n_threads: int = 1
    backend: str = "serial"
    workload_aware_scheduling: bool = True
    wedge_budget: int | None = None

    @classmethod
    def from_variant(cls, variant: str, **overrides) -> "ReceiptConfig":
        """Build a config from an ablation variant name.

        ``"receipt"`` enables everything, ``"receipt-"`` disables DGM and
        ``"receipt--"`` disables both DGM and HUC — the three configurations
        compared in Figs. 6 and 7.
        """
        key = variant.lower()
        if key not in _VARIANTS:
            raise ReproError(
                f"unknown RECEIPT variant {variant!r}; expected one of {sorted(_VARIANTS)}"
            )
        settings = dict(_VARIANTS[key])
        settings.update(overrides)
        return cls(**settings)


def receipt_decomposition(
    graph: BipartiteGraph,
    side: str = "U",
    *,
    config: ReceiptConfig | None = None,
    counts: ButterflyCounts | None = None,
    engine: EngineBackend | None = None,
    **config_overrides,
) -> TipDecompositionResult:
    """Tip-decompose one side of a bipartite graph with RECEIPT.

    Parameters
    ----------
    graph:
        The bipartite graph.
    side:
        Side to decompose (``"U"`` or ``"V"``).
    config:
        Full configuration object; keyword overrides (e.g.
        ``n_partitions=50``) may be passed directly instead.
    counts:
        Pre-computed per-vertex butterfly counts.  They must have been
        counted on ``graph`` (not on a swapped copy); when omitted they are
        computed as part of the run and charged to the pvBcnt phase.
    engine:
        Execution backend for FD's fan-out, owned by the caller (reuse one
        to keep a worker pool across runs).  When omitted the run creates
        ``config.backend`` with ``config.n_threads`` workers and shuts it
        down afterwards.

    Returns
    -------
    TipDecompositionResult
        Tip numbers plus per-phase counters and RECEIPT-specific metadata
        (range bounds, subset sizes, per-iteration and per-subset records,
        and the parallel regions the cost model replays).
    """
    side = validate_side(side)
    if config is None:
        config = ReceiptConfig(**config_overrides)
    elif config_overrides:
        raise ReproError("pass either a config object or keyword overrides, not both")

    wedge_budget = resolve_wedge_budget(config.wedge_budget)
    workspace = WedgeWorkspace(wedge_budget=wedge_budget)
    owns_engine = engine is None
    if engine is None:
        engine = create_backend(config.backend, n_workers=config.n_threads)
    regions: list[ParallelRegionRecord] = []
    total_counters = PeelingCounters()
    phase_counters: dict[str, PeelingCounters] = {}
    tracer = current_tracer()
    run_span = tracer.timed("receipt", side=side, backend=engine.name,
                            n_partitions=config.n_partitions)

    with run_span:
        try:
            # RECEIPT CD / FD always peel the "U" side of their working graph;
            # for a "V"-side decomposition we simply swap the vertex-set roles.
            working_graph = graph if side == "U" else graph.swap_sides()

            # Phase 1: per-vertex butterfly counting (pvBcnt).
            with tracer.timed("pvBcnt") as counting_span:
                if counts is None:
                    # Counting runs on its own arena, dropped before CD so its
                    # buffers are not held through the peel; the run's
                    # high-water mark starts at its peak.
                    counting_workspace = WedgeWorkspace(wedge_budget=wedge_budget)
                    counts = count_per_vertex_priority(graph, workspace=counting_workspace)
                    workspace.peak_scratch_bytes = counting_workspace.peak_scratch_bytes
                    del counting_workspace
                    # One task per start vertex, its degree as work.
                    for start_side in ("U", "V"):
                        degrees = graph.degrees(start_side).astype(np.float64)
                        regions.append(ParallelRegionRecord(
                            f"pvBcnt[{start_side}]", int(degrees.size),
                            float(degrees.sum()), degrees))
            counting_counters = PeelingCounters(
                wedges_traversed=counts.wedges_traversed,
                counting_wedges=counts.wedges_traversed,
                elapsed_seconds=counting_span.duration,
                peak_scratch_bytes=workspace.peak_scratch_bytes,
            )
            if counting_span.recording:
                counting_span.set(wedges_traversed=counts.wedges_traversed)
            phase_counters["pvBcnt"] = counting_counters
            log_phase("pvBcnt", counting_counters.elapsed_seconds,
                      wedges_traversed=counting_counters.wedges_traversed)
            initial_butterflies = counts.counts(side).copy()

            # Phase 2: coarse-grained decomposition.
            cd_result = coarse_grained_decomposition(
                working_graph,
                initial_butterflies,
                config.n_partitions,
                enable_huc=config.enable_huc,
                enable_dgm=config.enable_dgm,
                huc_cost_factor=config.huc_cost_factor,
                adaptive_targets=config.adaptive_range_targets,
                workspace=workspace,
            )
            phase_counters["cd"] = cd_result.counters
            regions += cd_result.parallel_regions
            log_phase("cd", cd_result.counters.elapsed_seconds,
                      wedges_traversed=cd_result.counters.wedges_traversed,
                      n_subsets=len(cd_result.subsets))

            # Phase 3: fine-grained decomposition.
            fd_result = fine_grained_decomposition(
                working_graph,
                cd_result,
                engine=engine,
                workload_aware=config.workload_aware_scheduling,
                wedge_budget=config.wedge_budget,
            )
            phase_counters["fd"] = fd_result.counters
            log_phase("fd", fd_result.counters.elapsed_seconds,
                      wedges_traversed=fd_result.counters.wedges_traversed,
                      n_subsets=len(fd_result.subset_records))
            subset_work = np.array([r.wedges_traversed for r in fd_result.subset_records],
                                   dtype=np.float64)
            regions.append(ParallelRegionRecord(
                "fd_subsets", subset_work.size, float(subset_work.sum()), subset_work,
                scheduling="lpt" if config.workload_aware_scheduling else "dynamic"))
        finally:
            if owns_engine:
                # Release pooled workers (threads or processes) the run created;
                # callers who passed an engine keep ownership of its pool.
                engine.shutdown()

    for phase in phase_counters.values():
        total_counters.merge(phase)
    # The run's wall time is the root span's duration: counters and traces
    # share one clock by construction.
    total_counters.elapsed_seconds = run_span.duration

    return TipDecompositionResult(
        tip_numbers=fd_result.tip_numbers,
        side=side,
        initial_butterflies=initial_butterflies,
        algorithm="RECEIPT",
        counters=total_counters,
        phase_counters=phase_counters,
        extra={
            # Name the engine that ran: a caller-owned one need not match
            # config.backend / n_threads, and save_artifact copies both
            # fields into the manifest.
            "config": replace(config, backend=engine.name, n_threads=engine.n_workers),
            "bounds": cd_result.bounds,
            "subset_sizes": [int(subset.size) for subset in cd_result.subsets],
            "subsets": cd_result.subsets,
            "init_supports": cd_result.init_supports,
            "iteration_records": cd_result.iteration_records,
            "targeter_history": cd_result.targeter_history,
            "subset_records": fd_result.subset_records,
            "fd_schedule_order": fd_result.schedule_order,
            "parallel_regions": regions,
            "total_butterflies": counts.total_butterflies,
        },
    )


def tip_decomposition(
    graph: BipartiteGraph,
    side: str = "U",
    *,
    algorithm: str = "receipt",
    **kwargs,
) -> TipDecompositionResult:
    """Convenience dispatcher over all tip-decomposition algorithms.

    ``algorithm`` may be ``"receipt"`` (default; also accepts the ablation
    variants ``"receipt-"`` / ``"receipt--"``), ``"bup"`` for sequential
    bottom-up peeling, or ``"parb"`` for the ParButterfly-style baseline.
    Remaining keyword arguments are forwarded to the chosen implementation.
    """
    from ..peeling.bup import bup_decomposition
    from ..peeling.parbutterfly import parbutterfly_decomposition

    name = algorithm.lower()
    if name in _VARIANTS:
        config = ReceiptConfig.from_variant(name, **{
            key: value for key, value in kwargs.items() if key in ReceiptConfig.__dataclass_fields__
        })
        passthrough = {key: value for key, value in kwargs.items()
                       if key not in ReceiptConfig.__dataclass_fields__}
        return receipt_decomposition(graph, side, config=config, **passthrough)
    if name == "bup":
        return bup_decomposition(graph, side, **kwargs)
    if name in {"parb", "parbutterfly"}:
        return parbutterfly_decomposition(graph, side, **kwargs)
    raise ReproError(f"unknown tip decomposition algorithm {algorithm!r}")
