"""Batched edge-update log: validated insert/delete deltas + CSR patching.

A :class:`EdgeBatch` is one transactional unit of the update stream: a set
of edges to insert and a set to delete, always expressed in the graph's
canonical ``(u, v)`` orientation regardless of which side is being served.
Batches are validated *in full* against the current graph before anything
is touched, so a rejected batch is a no-op.

Applying a batch never rebuilds the graph from its edge list.  Both CSR
directions are patched (delete = one ``np.delete``, insert = one
``np.insert``, each plus an offsets shift), with every entry located by a
search inside only the rows the batch touches (:mod:`repro.kernels.csr`),
and the result is wrapped zero-copy with
:meth:`~repro.graph.bipartite.BipartiteGraph.from_csr_arrays`.  The patched
graph is bit-identical — CSR arrays and therefore fingerprint — to a graph
constructed from scratch on the updated edge set, which is what lets the
serving layer fingerprint-check repaired artifacts as if they were rebuilt.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import StreamingError
from ..graph.bipartite import BipartiteGraph
from ..kernels.csr import delete_csr_entries, insert_csr_entries, locate_csr_entries

__all__ = ["EdgeBatch", "validate_batch", "apply_batch"]


def _as_edge_pairs(edges, label: str) -> np.ndarray:
    if edges is None:
        return np.zeros((0, 2), dtype=np.int64)
    array = np.asarray(edges, dtype=np.int64)
    if array.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    if array.ndim != 2 or array.shape[1] != 2:
        raise StreamingError(f"{label} edges must be (u, v) pairs, got shape {array.shape}")
    return array


@dataclass(frozen=True)
class EdgeBatch:
    """One batch of edge updates in canonical ``(u, v)`` orientation."""

    inserts: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), dtype=np.int64))
    deletes: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), dtype=np.int64))

    def __post_init__(self) -> None:
        object.__setattr__(self, "inserts", _as_edge_pairs(self.inserts, "insert"))
        object.__setattr__(self, "deletes", _as_edge_pairs(self.deletes, "delete"))

    @property
    def n_changes(self) -> int:
        return int(self.inserts.shape[0] + self.deletes.shape[0])

    @property
    def is_empty(self) -> bool:
        return self.n_changes == 0

    def changed_edges(self) -> np.ndarray:
        """All touched edges (inserts then deletes) as one ``(k, 2)`` array."""
        return np.concatenate([self.inserts, self.deletes], axis=0)

    @classmethod
    def from_lists(cls, inserts=None, deletes=None) -> "EdgeBatch":
        """Build a batch from any nested-sequence edge representation."""
        return cls(inserts=_as_edge_pairs(inserts, "insert"),
                   deletes=_as_edge_pairs(deletes, "delete"))


def _check_ranges(edges: np.ndarray, n_u: int, n_v: int, label: str) -> None:
    if edges.size == 0:
        return
    bad_u = (edges[:, 0] < 0) | (edges[:, 0] >= n_u)
    bad_v = (edges[:, 1] < 0) | (edges[:, 1] >= n_v)
    if bad_u.any() or bad_v.any():
        u, v = edges[(bad_u | bad_v)][0]
        raise StreamingError(
            f"{label} edge ({int(u)}, {int(v)}) out of range for a graph with "
            f"n_u={n_u}, n_v={n_v}"
        )


def validate_batch(graph: BipartiteGraph, batch: EdgeBatch) -> None:
    """Check a batch against the graph; raise :class:`StreamingError` if invalid.

    Rules: every id in range, no edge repeated within or across the two
    lists, every insert currently absent, every delete currently present.
    The whole batch is validated before any patching, so callers can treat
    ``apply_batch`` as transactional.
    """
    n_u, n_v = graph.n_u, graph.n_v
    _check_ranges(batch.inserts, n_u, n_v, "insert")
    _check_ranges(batch.deletes, n_u, n_v, "delete")

    keys_ins = batch.inserts[:, 0] * np.int64(n_v) + batch.inserts[:, 1]
    keys_del = batch.deletes[:, 0] * np.int64(n_v) + batch.deletes[:, 1]
    for keys, label in ((keys_ins, "insert"), (keys_del, "delete")):
        if np.unique(keys).shape[0] != keys.shape[0]:
            raise StreamingError(f"batch lists the same {label} edge more than once")
    if np.intersect1d(keys_ins, keys_del).size:
        raise StreamingError(
            "an edge appears in both the insert and the delete list of one batch; "
            "split the revert across two batches"
        )

    u_offsets, u_neighbors = graph.csr("U")
    _, present = locate_csr_entries(
        u_offsets, u_neighbors, batch.inserts[:, 0], batch.inserts[:, 1], n_v
    )
    if present.any():
        u, v = batch.inserts[present][0]
        raise StreamingError(f"insert edge ({int(u)}, {int(v)}) already exists")
    _, present = locate_csr_entries(
        u_offsets, u_neighbors, batch.deletes[:, 0], batch.deletes[:, 1], n_v
    )
    if not present.all():
        u, v = batch.deletes[~present][0]
        raise StreamingError(f"delete edge ({int(u)}, {int(v)}) does not exist")


def apply_batch(graph: BipartiteGraph, batch: EdgeBatch) -> BipartiteGraph:
    """Validate a batch, apply it as CSR patches and return the updated graph.

    Deletes are applied before inserts (the two sets are disjoint, so the
    order only matters for intermediate array sizes).  Vertex-set sizes are
    fixed: streams mutate edges, not the id space.  Every lookup searches
    only the rows the batch touches; the one O(E) cost per side and list is
    the copy into the new value array.
    """
    validate_batch(graph, batch)
    if batch.is_empty:
        return graph
    u_offsets, u_neighbors = graph.csr("U")
    v_offsets, v_neighbors = graph.csr("V")
    n_u, n_v = graph.n_u, graph.n_v
    if batch.deletes.shape[0]:
        u_offsets, u_neighbors = delete_csr_entries(
            u_offsets, u_neighbors, batch.deletes[:, 0], batch.deletes[:, 1], n_v
        )
        v_offsets, v_neighbors = delete_csr_entries(
            v_offsets, v_neighbors, batch.deletes[:, 1], batch.deletes[:, 0], n_u
        )
    if batch.inserts.shape[0]:
        u_offsets, u_neighbors = insert_csr_entries(
            u_offsets, u_neighbors, batch.inserts[:, 0], batch.inserts[:, 1], n_v
        )
        v_offsets, v_neighbors = insert_csr_entries(
            v_offsets, v_neighbors, batch.inserts[:, 1], batch.inserts[:, 0], n_u
        )
    return BipartiteGraph.from_csr_arrays(
        n_u, n_v, u_offsets, u_neighbors, v_offsets, v_neighbors, name=graph.name
    )
