"""Shared vectorized wedge-traversal kernels.

Every wedge-heavy primitive in this library — batch peeling, per-vertex and
per-edge butterfly counting, HUC re-count cost accounting, streaming
support maintenance, k-tip component extraction — reduces to the same
building blocks, collected here so the algorithm layers above
(``butterfly``, ``peeling``, ``core``, ``streaming``, ``analysis``) share
one implementation instead of reimplementing ad-hoc variants:

* **flat-CSR gathering** (:mod:`repro.kernels.csr`): concatenating many CSR
  rows in a single indexed load, segment arithmetic, and one-pass CSR
  compaction (the DGM rebuild).
* **wedge enumeration** (:mod:`repro.kernels.wedges`): two-hop endpoint
  gathering for peel batches — monolithic or streamed in wedge-budgeted
  chunks.
* **batched support updates** (:mod:`repro.kernels.peel`): grouped
  per-(peeled-vertex, endpoint) wedge counting and the threshold-clamped
  decrement application whose counters match per-vertex sequential peeling
  exactly (Lemma 2 drop-semantics included).
* **memory policy** (:mod:`repro.kernels.workspace`): the
  :class:`~repro.kernels.workspace.WedgeWorkspace` scratch arena every
  kernel checks its wedge-scale temporaries out of, with int32 narrowing
  and the wedge budget that bounds peak scratch.

All kernels operate on plain numpy arrays: callers hand in ``offsets`` /
``neighbors`` pairs (and an ``alive`` mask where relevant) rather than graph
objects, which keeps the layer free of upward dependencies.
"""

from .csr import (
    compact_csr,
    gather_ranges,
    gather_rows,
    int_bincount,
    segment_ids,
    segment_offsets,
    segment_sums,
)
from .peel import (
    BatchDecrements,
    apply_clamped_decrements,
    count_pair_wedges,
    key_counts,
)
from .wedges import gather_batch_wedges, iter_batch_wedge_chunks
from .workspace import (
    DEFAULT_WEDGE_BUDGET,
    WedgeWorkspace,
    budget_spans,
    default_wedge_budget,
    get_workspace,
    live_workspace_stats,
    resolve_wedge_budget,
    workspace_or_default,
)

__all__ = [
    "compact_csr",
    "gather_ranges",
    "gather_rows",
    "int_bincount",
    "segment_ids",
    "segment_offsets",
    "segment_sums",
    "BatchDecrements",
    "apply_clamped_decrements",
    "count_pair_wedges",
    "key_counts",
    "gather_batch_wedges",
    "iter_batch_wedge_chunks",
    "DEFAULT_WEDGE_BUDGET",
    "WedgeWorkspace",
    "budget_spans",
    "default_wedge_budget",
    "get_workspace",
    "live_workspace_stats",
    "resolve_wedge_budget",
    "workspace_or_default",
]
