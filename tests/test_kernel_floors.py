"""Per-vertex clamp floors in the peel kernels.

``peel_batch`` accepts an int64 array of per-vertex floors in place of one
threshold (RECEIPT FD peels every subset of a share at its own level in one
batch).  The batched kernel must reproduce the per-vertex reference with
floors exactly as it does with a scalar — supports, updated vertices,
``support_updates`` and ``wedges_traversed`` — including when a small wedge
budget splits each batch into chunks, and a constant floor array must act
like the scalar it repeats.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.butterfly.counting import count_per_vertex_priority
from repro.graph.bipartite import BipartiteGraph
from repro.graph.dynamic import PeelableAdjacency
from repro.kernels.workspace import WedgeWorkspace
from repro.peeling.update import peel_batch

edge_lists = st.lists(st.tuples(st.integers(0, 15), st.integers(0, 9)),
                      min_size=1, max_size=90, unique=True)


def _outcome(update, supports):
    order = np.argsort(update.updated_vertices)
    return (
        update.updated_vertices[order].tolist(),
        update.new_supports[order].tolist(),
        update.support_updates,
        update.wedges_traversed,
        supports.tolist(),
    )


def _peel_in_batches(graph, seed, budget, runs):
    """Peel the whole U side in random batches, once per named run.

    ``runs`` maps a name to ``(kernel, threshold_of)``; ``threshold_of``
    turns the batch's random floors into that run's threshold argument.
    Every run must end each batch in the same state.
    """
    rng = np.random.default_rng(seed)
    initial = count_per_vertex_priority(graph).u_counts
    supports = {name: initial.copy() for name in runs}
    adjacency = {name: PeelableAdjacency(graph, "U", enable_dgm=False) for name in runs}
    order = rng.permutation(graph.n_u)
    position = 0
    while position < order.shape[0]:
        batch = order[position: position + int(rng.integers(1, 7))]
        position += batch.shape[0]
        # Each floor at or below its vertex's current support.
        current = next(iter(supports.values()))
        floors = rng.integers(0, current + 1).astype(np.int64)
        outcomes = {}
        for name, (kernel, threshold_of) in runs.items():
            update = peel_batch(
                adjacency[name], supports[name], batch, threshold_of(floors),
                kernel=kernel, workspace=WedgeWorkspace(wedge_budget=budget),
            )
            outcomes[name] = _outcome(update, supports[name])
        reference = next(iter(outcomes.values()))
        for name, outcome in outcomes.items():
            assert outcome == reference, name


class TestFloorArrays:
    @settings(max_examples=50, deadline=None)
    @given(edges=edge_lists, seed=st.integers(0, 2**16), budget=st.integers(1, 24))
    def test_batched_matches_reference(self, edges, seed, budget):
        _peel_in_batches(BipartiteGraph(16, 10, edges), seed, budget, {
            "reference": ("reference", lambda floors: floors),
            "batched": ("batched", lambda floors: floors),
        })

    @settings(max_examples=40, deadline=None)
    @given(edges=edge_lists, seed=st.integers(0, 2**16), budget=st.integers(1, 24),
           level=st.integers(0, 6))
    def test_constant_array_matches_scalar(self, edges, seed, budget, level):
        graph = BipartiteGraph(16, 10, edges)
        constant = np.full(graph.n_u, level, dtype=np.int64)
        _peel_in_batches(graph, seed, budget, {
            f"{kernel}-{form}": (kernel, threshold_of)
            for kernel in ("batched", "reference")
            for form, threshold_of in (("scalar", lambda _: level),
                                       ("array", lambda _: constant))
        })
