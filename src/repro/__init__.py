"""repro — a reproduction of RECEIPT: parallel tip decomposition of bipartite graphs.

The library implements the full stack described in the VLDB 2020 paper
*RECEIPT: REfine CoarsE-grained IndePendent Tasks for Parallel Tip
decomposition of Bipartite Graphs* (Lakhotia, Kannan, Prasanna, De Rose):

* a bipartite-graph substrate (:mod:`repro.graph`),
* shared vectorized wedge-traversal kernels (:mod:`repro.kernels`),
* butterfly counting kernels (:mod:`repro.butterfly`),
* the sequential (BUP) and level-synchronous parallel (ParB) peeling
  baselines (:mod:`repro.peeling`),
* the RECEIPT algorithm itself — coarse- and fine-grained decomposition
  with the HUC and DGM optimizations (:mod:`repro.core`),
* a multiprocess execution engine — self-contained FD tasks run by
  pluggable serial / thread / process backends (:mod:`repro.engine`),
* synthetic stand-ins for the paper's evaluation datasets
  (:mod:`repro.datasets`),
* hierarchy / distribution analysis and correctness verification
  (:mod:`repro.analysis`),
* a tip-index serving layer — persistent decomposition artifacts, a
  vectorized query engine, an LRU index cache and a JSON HTTP service
  (:mod:`repro.service`),
* a streaming update engine — batched edge deltas applied as CSR patches,
  incremental butterfly-support maintenance and bounded tip-number repair
  with live index refresh (:mod:`repro.streaming`), and
* the wing-decomposition extension of Sec. 7 (:mod:`repro.wing`).

Quickstart
----------
>>> from repro import datasets, receipt_decomposition
>>> graph = datasets.load_dataset("it", scale=0.2)
>>> result = receipt_decomposition(graph, side="U", n_partitions=16)
>>> int(result.max_tip_number) >= 0
True
"""

from . import analysis, butterfly, core, datasets, distributed, engine, graph, kernels, parallel, peeling, service, streaming, wing
from .butterfly import ButterflyCounts, count_per_edge, count_per_vertex, count_total_butterflies
from .core import (
    ReceiptConfig,
    build_cost_model,
    projected_speedups,
    receipt_decomposition,
    time_breakdown,
    tip_decomposition,
    wedge_breakdown,
)
from .errors import (
    ArtifactError,
    ArtifactMismatchError,
    DatasetError,
    DecompositionError,
    GraphConstructionError,
    GraphFormatError,
    ReproError,
    ServiceError,
    StreamingError,
    VertexSideError,
)
from .graph import BipartiteGraph, from_biadjacency, from_edge_list, from_labelled_edges, load_graph
from .peeling import (
    PeelingCounters,
    TipDecompositionResult,
    bup_decomposition,
    parbutterfly_decomposition,
)
from .service import (
    IndexCache,
    TipIndex,
    TipService,
    build_index_artifact,
    load_artifact,
    save_artifact,
)
from .streaming import EdgeBatch, StreamingConfig, StreamingUpdateResult, apply_update
from .wing import WingDecompositionResult, receipt_wing_decomposition, wing_decomposition

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # subpackages
    "analysis",
    "butterfly",
    "core",
    "datasets",
    "distributed",
    "graph",
    "kernels",
    "parallel",
    "peeling",
    "service",
    "streaming",
    "wing",
    # graphs
    "BipartiteGraph",
    "from_biadjacency",
    "from_edge_list",
    "from_labelled_edges",
    "load_graph",
    # counting
    "ButterflyCounts",
    "count_per_edge",
    "count_per_vertex",
    "count_total_butterflies",
    # decomposition
    "ReceiptConfig",
    "receipt_decomposition",
    "tip_decomposition",
    "bup_decomposition",
    "parbutterfly_decomposition",
    "TipDecompositionResult",
    "PeelingCounters",
    "wedge_breakdown",
    "time_breakdown",
    "build_cost_model",
    "projected_speedups",
    # wing extension
    "WingDecompositionResult",
    "wing_decomposition",
    "receipt_wing_decomposition",
    # serving layer
    "TipIndex",
    "IndexCache",
    "TipService",
    "build_index_artifact",
    "save_artifact",
    "load_artifact",
    # streaming updates
    "EdgeBatch",
    "StreamingConfig",
    "StreamingUpdateResult",
    "apply_update",
    # errors
    "ReproError",
    "GraphConstructionError",
    "GraphFormatError",
    "VertexSideError",
    "DecompositionError",
    "DatasetError",
    "ArtifactError",
    "ArtifactMismatchError",
    "StreamingError",
    "ServiceError",
]
